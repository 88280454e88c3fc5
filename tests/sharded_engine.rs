//! Integration tests for the engine layer: a range-partitioned
//! [`ShardedIndex`](pm_index_bench::engine::ShardedIndex) over every PM
//! inner kind must be observationally identical to a single flat index
//! — same conformance oracle, same cross-shard scans, same recovery
//! semantics — while keeping each shard on its own pool + allocator.

mod common;

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use common::PM_KINDS;
use pm_index_bench::crashpoint::{fresh_shard, try_recover_shard, Shape};
use pm_index_bench::engine::{shard_of, shard_start, ShardedIndex};
use pm_index_bench::index_api::{oracle, Op, Oracle, RangeIndex};
use pm_index_bench::pmalloc::AllocMode;
use pm_index_bench::pmem::{PmConfig, PmPool};
use proptest::prelude::*;

/// Spread a narrow key across the full keyspace (injective and
/// order-preserving), so oracle streams with heavy collisions still
/// straddle every shard boundary.
fn spread(k: u64, key_range: u64) -> u64 {
    k * (u64::MAX / key_range)
}

/// A sharded stack of `kind` with small nodes, one 16 MiB pool per
/// shard.
fn build_sharded(kind: &str, shards: usize) -> Arc<ShardedIndex> {
    let (mode, pm) = (AllocMode::General, PmConfig::real());
    let one = || fresh_shard(kind, Shape::Small, mode, 16 << 20, pm.clone());
    ShardedIndex::from_parts((0..shards).map(|_| one()).collect())
}

fn recover_sharded(kind: &str, pools: &[Arc<PmPool>], parallel: bool) -> Arc<ShardedIndex> {
    ShardedIndex::recover(pools, parallel, |pool| try_recover_shard(kind, pool))
        .expect("shard recovery failed")
}

#[test]
fn sharded_conformance_for_every_pm_kind() {
    const KEY_RANGE: u64 = 256;
    for kind in PM_KINDS {
        for shards in [2usize, 5] {
            let idx = build_sharded(kind, shards);
            let mut model = Oracle::new();
            let mut rows = Vec::new();
            for op in oracle::random_ops(0xD1CE ^ shards as u64, 3_000, KEY_RANGE) {
                let op = op.map_key(|k| spread(k, KEY_RANGE));
                assert_eq!(op.apply(&*idx, &mut rows), model.apply(op), "{kind} {op:?}");
            }
            // Final sweep across all shards must match the model.
            let want: Vec<_> = model.iter().collect();
            let mut got = Vec::new();
            idx.scan(0, want.len() + 1, &mut got);
            assert_eq!(got, want, "{kind} x{shards}: full scan mismatch");
            // The workload must actually have landed on several shards.
            let touched = idx
                .pools()
                .iter()
                .filter(|p| p.stats().write_ops > 0)
                .count();
            assert!(
                touched >= 2,
                "{kind} x{shards}: only {touched} shards touched"
            );
        }
    }
}

/// Two threads drive one 3-shard fptree engine at once, on disjoint key
/// stripes (even and odd narrow keys) that each span every shard.
/// Nothing above the kind serialises routed ops, so every point op must
/// still answer as its thread's own model does, and the final full scan
/// must equal the union of both models.
#[test]
fn two_threads_on_disjoint_stripes_match_their_models() {
    const KEY_RANGE: u64 = 512;
    let shards = 3;
    let idx = build_sharded("fptree", shards);
    let start = Barrier::new(2);
    let models: Vec<Oracle> = std::thread::scope(|s| {
        let drivers: Vec<_> = (0..2u64)
            .map(|t| {
                let (idx, start) = (&idx, &start);
                s.spawn(move || {
                    let mut model = Oracle::new();
                    start.wait();
                    let mut rows = Vec::new();
                    for op in oracle::random_ops(0x57A1_9E5E + t, 4_000, KEY_RANGE / 2) {
                        // A scan would also see the other thread's stripe.
                        if matches!(op, Op::Scan(..)) {
                            continue;
                        }
                        let op = op.map_key(|k| spread(2 * k + t, KEY_RANGE));
                        assert_eq!(op.apply(&**idx, &mut rows), model.apply(op), "{t}: {op:?}");
                    }
                    model
                })
            })
            .collect();
        drivers
            .into_iter()
            .map(|h| h.join().expect("driver"))
            .collect()
    });
    for (t, model) in models.iter().enumerate() {
        for i in 0..shards {
            let hit = model.iter().any(|(k, _)| shard_of(k, shards) == i);
            assert!(hit, "thread {t} left shard {i} empty");
        }
    }
    let want: BTreeMap<u64, u64> = models.iter().flat_map(|m| m.iter()).collect();
    let want: Vec<(u64, u64)> = want.into_iter().collect();
    let mut got = Vec::new();
    idx.scan(0, want.len() + 1, &mut got);
    assert_eq!(got, want, "full scan is not the union of both models");
}

#[test]
fn double_recovery_is_idempotent() {
    for kind in PM_KINDS {
        let shards = 3;
        let idx = build_sharded(kind, shards);
        let stride = u64::MAX / 500;
        for i in 0..500u64 {
            assert!(idx.insert(i * stride, i), "{kind}");
        }
        let mut before = Vec::new();
        idx.scan(0, 600, &mut before);
        let pools = idx.pools();
        drop(idx);

        // First power cut + sequential recovery.
        for p in &pools {
            p.crash();
        }
        let r1 = recover_sharded(kind, &pools, false);
        let mut after1 = Vec::new();
        r1.scan(0, 600, &mut after1);
        assert_eq!(after1, before, "{kind}: first recovery diverged");
        drop(r1);

        // Second cut with NO intervening writes: recovery must be
        // idempotent (same contents via the parallel fast path).
        for p in &pools {
            p.crash();
        }
        let r2 = recover_sharded(kind, &pools, true);
        let mut after2 = Vec::new();
        r2.scan(0, 600, &mut after2);
        assert_eq!(after2, before, "{kind}: second recovery diverged");
        // Still writable after the double restart.
        assert!(r2.insert(u64::MAX - 9, 1), "{kind}");
        assert!(r2.remove(u64::MAX - 9), "{kind}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// Cross-shard scans: arbitrary key sets (possibly leaving shards
    /// empty), arbitrary starts, and counts exceeding the total record
    /// count must all match a flat BTreeMap reference exactly.
    #[test]
    fn cross_shard_scans_match_flat_reference(
        shards in 2usize..6,
        keys in proptest::collection::vec(0u64..300, 1..120),
        // Keys live in [lo, lo+span) of the narrow range, so small
        // spans leave leading/trailing shards empty after spreading.
        lo in 0u64..200,
        starts in proptest::collection::vec((0u64..320, 1usize..200), 1..12),
    ) {
        let idx = build_sharded("wbtree", shards);
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        for &k in &keys {
            let key = spread(k + lo, 520);
            if reference.insert(key, k).is_none() {
                prop_assert!(idx.insert(key, k));
            } else {
                prop_assert!(idx.update(key, k));
            }
        }
        let total = reference.len();

        let mut out = Vec::new();
        for &(s, n) in &starts {
            let start = spread(s, 520);
            let got = idx.scan(start, n, &mut out);
            let want: Vec<(u64, u64)> = reference
                .range(start..)
                .take(n)
                .map(|(&k, &v)| (k, v))
                .collect();
            prop_assert_eq!(&out[..], &want[..], "scan({}, {})", start, n);
            prop_assert_eq!(got, want.len());
        }

        // A scan asking for more than everything returns everything,
        // in globally sorted order, straddling every populated shard.
        let got = idx.scan(0, total + 50, &mut out);
        prop_assert_eq!(got, total);
        let all: Vec<(u64, u64)> = reference.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(&out[..], &all[..]);
    }

    /// Partition math invariants the scan continuation relies on.
    #[test]
    fn partition_math_is_monotone_and_consistent(
        shards in 1usize..17,
        key in any::<u64>(),
    ) {
        let s = shard_of(key, shards);
        prop_assert!(s < shards);
        // The shard's own start key maps back into the shard.
        prop_assert_eq!(shard_of(shard_start(s, shards), shards), s);
        // And the key is not below its shard's start.
        prop_assert!(key >= shard_start(s, shards));
        if s + 1 < shards {
            prop_assert!(key < shard_start(s + 1, shards));
        }
    }
}
