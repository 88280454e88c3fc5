//! Property-based coherence tests for the DRAM hot-key cache tier:
//! arbitrary operation sequences through a [`CachedIndex`] must be
//! indistinguishable from the same sequence against the bare index —
//! the cache may only change *where* a lookup is served from, never
//! *what* it returns.

mod common;

use std::sync::Arc;

use common::PM_KINDS;
use pm_index_bench::cache::CachedIndex;
use pm_index_bench::index_api::{Op, Oracle, RangeIndex};
use pm_index_bench::pmem::PmConfig;
use proptest::prelude::*;

fn arb_cache_op() -> impl Strategy<Value = Op> {
    // Narrow key range so lookups repeatedly hit cached entries that
    // mutations then invalidate — the stale-read failure mode.
    let key = 0u64..200;
    prop_oneof![
        3 => (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => key.clone().prop_map(Op::Lookup),
        2 => (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Update(k, v)),
        2 => key.clone().prop_map(Op::Remove),
        1 => (key, 1usize..30).prop_map(|(k, n)| Op::Scan(k, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10, // each case runs 5 PM indexes × hundreds of ops
        .. ProptestConfig::default()
    })]

    /// Every outcome through the cache — write acks, lookups, scans —
    /// matches the oracle *at every step*: a stale cache line surviving
    /// a write-through mutation would diverge immediately.
    #[test]
    fn cached_ops_match_oracle(ops in proptest::collection::vec(arb_cache_op(), 1..400)) {
        for kind in PM_KINDS {
            let (inner, _pool) = common::fresh(kind, 64, PmConfig::real());
            let cached = CachedIndex::new(inner, 1 << 20);
            let mut model = Oracle::new();
            let mut rows = Vec::new();
            for &op in &ops {
                let got = op.apply(&cached, &mut rows);
                prop_assert_eq!(got, model.apply(op), "{} {:?} through the cache", kind, op);
            }
        }
    }

    /// A tiny cache under heavy churn (forced evictions + refills) still
    /// never serves a value the underlying index does not hold.
    #[test]
    fn eviction_churn_never_goes_stale(
        seed_vals in proptest::collection::vec(any::<u64>(), 50..150),
        probes in proptest::collection::vec(0u64..200, 100..300),
    ) {
        let (inner, _pool) = common::fresh("fptree", 64, PmConfig::real());
        // Smallest tier the constructor accepts: slot pressure forces
        // CLOCK evictions with only ~hundreds of keys in play.
        let cached = CachedIndex::new(inner.clone(), 1);
        let mut model = Oracle::new();
        for (i, &v) in seed_vals.iter().enumerate() {
            let k = i as u64;
            prop_assert_eq!(cached.insert(k, v), model.insert(k, v), "insert({})", k);
        }
        for (i, &k) in probes.iter().enumerate() {
            // Interleave mutations so eviction races invalidation.
            if i % 7 == 0 {
                let v = k.wrapping_mul(0x9e37);
                prop_assert_eq!(cached.update(k, v), model.update(k, v), "update({})", k);
            }
            prop_assert_eq!(cached.lookup(k), model.lookup(k), "lookup({k})");
            prop_assert_eq!(cached.lookup(k), inner.lookup(k), "cache vs inner ({k})");
        }
    }
}

/// Concurrent coherence: per-key writer ownership with racing readers.
/// Readers must only ever observe a value their key's writer published
/// to the durable index — seqlock torn reads or missed invalidations
/// would surface as an unknown value.
#[test]
fn concurrent_readers_never_observe_torn_values() {
    let (inner, _pool) = common::fresh("fptree", 64, PmConfig::real());
    let cached = Arc::new(CachedIndex::new(inner, 1 << 20));
    const KEYS: u64 = 32;
    const ROUNDS: u64 = 400;
    for k in 0..KEYS {
        cached.insert(k, k << 32);
    }
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let cached = Arc::clone(&cached);
            s.spawn(move || {
                // Writer w owns keys ≡ w (mod 4); values encode key+round.
                for r in 1..=ROUNDS {
                    for k in (w..KEYS).step_by(4) {
                        cached.update(k, (k << 32) | r);
                    }
                }
            });
        }
        for _ in 0..4 {
            let cached = Arc::clone(&cached);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    for k in 0..KEYS {
                        let v = cached.lookup(k).expect("key vanished");
                        assert_eq!(v >> 32, k, "torn value {v:#x} for key {k}");
                        assert!(v & 0xffff_ffff <= ROUNDS, "round out of range: {v:#x}");
                    }
                    std::hint::black_box(r);
                }
            });
        }
    });
    let cc = cached.counters();
    assert!(cc.hits > 0, "cache never served a hit: {cc:?}");
}
