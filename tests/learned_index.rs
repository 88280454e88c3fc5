//! The learned index's own integration suite: the trained-model
//! ε-bound under arbitrary key sets, recovery retraining the model the
//! last merge trained, recovery idempotence, and crash-at-every-boundary
//! through a model merge (the one operation that rewrites everything
//! the index owns).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pm_index_bench::index_api::RangeIndex;
use pm_index_bench::learned::{pla, LearnedConfig, LearnedIndex, ModelStats};
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{CrashPointHit, PmConfig, PmPool};
use proptest::prelude::*;

fn small_cfg() -> LearnedConfig {
    LearnedConfig {
        epsilon: 4,
        delta_min_cap: 24,
        chunk_entries: 64,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// The segment builder's contract: for ANY sorted deduplicated key
    /// set and any ε, every key's predicted rank is within ε of its
    /// true rank, segments tile the key space in order, and every key
    /// is found through the model's own search path.
    #[test]
    fn trained_segments_respect_epsilon_for_arbitrary_keys(
        keys in proptest::collection::vec(any::<u64>(), 1..500),
        eps in 1u64..64,
    ) {
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let segs = pla::build_segments(&keys, eps);
        prop_assert!(!segs.is_empty());
        prop_assert_eq!(segs[0].first_key, keys[0]);
        prop_assert!(segs.windows(2).all(|w| w[0].first_key < w[1].first_key));
        for (rank, &k) in keys.iter().enumerate() {
            let seg = &segs[pla::segment_for(&segs, k)];
            let err = seg.predict(k).abs_diff(rank as u64);
            prop_assert!(err <= eps, "ε-bound broken: key {k} rank {rank} err {err} > {eps}");
            prop_assert_eq!(pla::find(&segs, &keys, k, eps), Some(rank));
        }
        // Absent keys: lower_bound must agree with plain binary search.
        for probe in [0, u64::MAX / 3, u64::MAX] {
            prop_assert_eq!(
                pla::lower_bound(&segs, &keys, probe, eps),
                keys.partition_point(|&k| k < probe)
            );
        }
    }
}

/// The segments live in DRAM only: recovery retrains them from the
/// persisted keys and must arrive at the model the last merge trained,
/// with the same delta on top — the same shape, the same answer to
/// every lookup and the same scan.
#[test]
fn recovery_returns_the_model_that_merge_trained() {
    let cfg = small_cfg();
    let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
    let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
    let t = LearnedIndex::create(alloc, cfg);
    // Quadratic keys: no one line fits them, so the model has many
    // segments.
    let key = |i: u64| i * i * 13 + i;
    let mut n = 0;
    while t.model_stats().merges < 2 {
        assert!(t.insert(key(n), n));
        n += 1;
    }
    // Delta entries over the model: new keys, an update, a tombstone.
    for i in n..n + 10 {
        assert!(t.insert(key(i), i));
    }
    assert!(t.update(key(3), 333) && t.remove(key(5)));
    let n = n + 10;
    let before = t.model_stats();
    assert!(before.segments > 1 && before.delta_len == 13, "{before:?}");
    let probes: Vec<u64> = (0..n).flat_map(|i| [key(i), key(i) + 1]).collect();
    let lookups = |t: &LearnedIndex| probes.iter().map(|&k| t.lookup(k)).collect::<Vec<_>>();
    let scan = |t: &LearnedIndex| {
        let mut out = Vec::new();
        t.scan(0, 2 * n as usize, &mut out);
        out
    };
    let (want_lookups, want_scan) = (lookups(&t), scan(&t));
    drop(t);
    pool.crash();
    let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
    let t = LearnedIndex::try_recover(alloc, cfg).expect("recovery");
    let shape = |s: ModelStats| ModelStats { merges: 0, ..s };
    assert_eq!(shape(t.model_stats()), shape(before));
    assert_eq!(lookups(&t), want_lookups);
    assert_eq!(scan(&t), want_scan);
    assert_eq!(want_scan.len() as u64, n - 1);
}

/// Recovery is idempotent: recovering the same crashed image twice in a
/// row (power loss during the first restart's DRAM rebuild) yields the
/// same observable state, even when the first recovery completes an
/// interrupted merge and writes PM.
#[test]
fn double_recovery_is_idempotent() {
    let cfg = small_cfg();
    let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
    let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
    let t = LearnedIndex::create(alloc, cfg);
    for k in 0..1_000u64 {
        t.insert(k * 7, k);
    }
    for k in (0..1_000u64).step_by(3) {
        t.remove(k * 7);
    }
    drop(t);
    pool.crash();

    let alloc = PmAllocator::try_recover(pool.clone()).expect("allocator recovery");
    let t1 = LearnedIndex::try_recover(alloc, cfg).expect("recovery");
    let mut out1 = Vec::new();
    t1.scan(0, 2_000, &mut out1);
    drop(t1);

    // The first restart is itself cut down before serving anything.
    pool.crash();
    let alloc = PmAllocator::try_recover(pool.clone()).expect("allocator recovery");
    let t2 = LearnedIndex::try_recover(alloc, cfg).expect("recovery");
    let mut out2 = Vec::new();
    t2.scan(0, 2_000, &mut out2);
    assert_eq!(out1, out2, "second recovery saw different state");
    for k in 0..1_000u64 {
        let want = if k % 3 == 0 { None } else { Some(k) };
        assert_eq!(t2.lookup(k * 7), want, "key {}", k * 7);
    }
    // And the twice-recovered index is fully writable.
    assert!(t2.insert(u64::MAX - 9, 1));
    assert_eq!(t2.lookup(u64::MAX - 9), Some(1));
}

/// Fill the delta log to one entry short of a merge, then crash at
/// every persistence-event boundary of the insert that trips the
/// merge. Whatever boundary the power fails at, recovery must land on
/// a complete model: every acked key present with its exact value, the
/// in-flight key atomically present-or-absent, and the index usable.
#[test]
fn crash_at_every_boundary_through_a_merge_recovers() {
    let cfg = small_cfg();
    let mut boundary = 1u64;
    let mut completed = false;
    let mut crashes = 0u64;
    while !completed {
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let t = LearnedIndex::create(alloc, cfg);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // Log capacity rounds up to one whole 64-entry chunk. Appends
        // claim slots while capacity remains, so 64 acked inserts fill
        // the log exactly; the 65th finds it full and fires the merge
        // before re-appending.
        for k in 0..64u64 {
            assert!(t.insert(k * 11, k + 1));
            model.insert(k * 11, k + 1);
        }
        pool.arm_crash_after(boundary);
        let r = catch_unwind(AssertUnwindSafe(|| t.insert(999, 7)));
        pool.disarm_crash();
        match r {
            Ok(acked) => {
                // The whole merge fit under this boundary budget: the
                // sweep has walked every boundary of the merge path.
                assert!(acked);
                completed = true;
            }
            Err(payload) => {
                if payload.downcast_ref::<CrashPointHit>().is_none() {
                    std::panic::resume_unwind(payload);
                }
                crashes += 1;
            }
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        let t = LearnedIndex::try_recover(alloc, cfg)
            .unwrap_or_else(|e| panic!("boundary {boundary}: recovery failed: {e}"));
        for (&k, &v) in &model {
            assert_eq!(
                t.lookup(k),
                Some(v),
                "boundary {boundary}: acked key {k} lost"
            );
        }
        // The in-flight insert is atomic: absent, or present and exact.
        let inflight = t.lookup(999);
        assert!(
            inflight.is_none() || inflight == Some(7),
            "boundary {boundary}: torn in-flight value {inflight:?}"
        );
        // Post-recovery the index keeps absorbing writes across the
        // next merge too.
        for k in 0..30u64 {
            assert!(t.insert(100_000 + k, k), "boundary {boundary}");
        }
        assert_eq!(t.lookup(100_015), Some(15), "boundary {boundary}");
        boundary += 1;
    }
    assert!(
        crashes >= 10,
        "merge exposed suspiciously few persistence boundaries: {crashes}"
    );
}
