//! Property-based tests: arbitrary operation sequences against the
//! oracle, and arbitrary crash points against a persistence model.

mod common;

use std::sync::Arc;

use common::{create_small, recover_small, ALL_KINDS, PM_KINDS};
use pm_index_bench::index_api::{Op, Oracle};
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmPool};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = Op> {
    // Narrow key range to force collisions and splits.
    let key = 0u64..400;
    prop_oneof![
        4 => (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => key.clone().prop_map(Op::Lookup),
        2 => (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Update(k, v)),
        1 => key.clone().prop_map(Op::Remove),
        1 => (key, 1usize..40).prop_map(|(k, n)| Op::Scan(k, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case runs 5 indexes × hundreds of ops
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_op_sequences_match_oracle(ops in proptest::collection::vec(arb_op(), 1..600)) {
        for kind in ALL_KINDS {
            let (idx, _pool) = common::fresh(kind, 64, PmConfig::real());
            let mut model = Oracle::new();
            let mut rows = Vec::new();
            for &op in &ops {
                prop_assert_eq!(op.apply(&*idx, &mut rows), model.apply(op), "{} {:?}", kind, op);
            }
        }
    }

    #[test]
    fn crash_at_random_point_preserves_acknowledged_ops(
        ops in proptest::collection::vec(arb_op(), 1..300),
        chaos_seed in any::<u64>(),
    ) {
        for kind in PM_KINDS {
            let pool = Arc::new(PmPool::new(
                64 << 20,
                PmConfig::real().with_eviction_chaos(chaos_seed),
            ));
            let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
            let idx = create_small(kind, alloc);
            // Every outcome, lookups and scans included, is checked on
            // the way: the model below is exactly what was acknowledged.
            let mut model = Oracle::new();
            let mut rows = Vec::new();
            for &op in &ops {
                prop_assert_eq!(op.apply(&*idx, &mut rows), model.apply(op), "{} {:?}", kind, op);
            }
            drop(idx);
            pool.crash();
            let idx = recover_small(kind, pool);
            for (k, v) in model.iter() {
                prop_assert_eq!(idx.lookup(k), Some(v), "{} lost {} after crash", kind, k);
            }
            let mut out = Vec::new();
            idx.scan(0, 10_000, &mut out);
            prop_assert_eq!(out.len(), model.len(), "{} ghost records", kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn allocator_blocks_never_overlap(sizes in proptest::collection::vec(1usize..4096, 1..60)) {
        let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool, AllocMode::General);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for &sz in &sizes {
            let off = alloc.alloc(sz).unwrap();
            let end = off + sz as u64;
            for &(a, b) in &spans {
                prop_assert!(end <= a || off >= b, "overlap: [{off},{end}) vs [{a},{b})");
            }
            spans.push((off, end));
        }
    }

    #[test]
    fn latency_histogram_percentiles_are_monotone(samples in proptest::collection::vec(1u64..10_000_000, 1..500)) {
        let mut h = pm_index_bench::pibench::LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let ps = [0.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0];
        let vals: Vec<u64> = ps.iter().map(|&p| h.percentile(p)).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1], "percentiles must be monotone: {vals:?}");
        }
        let max = *samples.iter().max().unwrap();
        prop_assert_eq!(h.percentile(100.0), max);
        prop_assert!(h.percentile(50.0) <= max);
    }
}
