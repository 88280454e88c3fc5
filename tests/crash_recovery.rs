//! Crash-recovery matrix: for every PM index, run a workload, pull the
//! plug, recover, and verify that exactly the acknowledged state
//! survived — with and without eviction chaos.

mod common;

use std::sync::Arc;

use common::{create_small, recover_small, PM_KINDS};
use pm_index_bench::crashpoint::workload;
use pm_index_bench::index_api::{Oracle, RangeIndex};
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmPool};

/// Run the sweeps' deterministic mixed workload (`crashpoint::workload`)
/// on `idx` and on `model`; every acknowledgement must be the oracle's.
fn apply_workload(idx: &dyn RangeIndex, model: &mut Oracle, seed: u64, n_ops: u64, key_range: u64) {
    let mut rows = Vec::new();
    for op in workload(seed, n_ops, key_range) {
        assert_eq!(
            op.apply(idx, &mut rows),
            model.apply(op),
            "seed={seed} {op:?}"
        );
    }
}

fn crash_roundtrip(kind: &str, chaos: Option<u64>, seed: u64) {
    let cfg = match chaos {
        Some(s) => PmConfig::real().with_eviction_chaos(s),
        None => PmConfig::real(),
    };
    let pool = Arc::new(PmPool::new(64 << 20, cfg));
    let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
    let idx = create_small(kind, alloc);
    let mut model = Oracle::new();
    apply_workload(&*idx, &mut model, seed, 5_000, 2_048);
    drop(idx);
    pool.crash();
    let idx = recover_small(kind, pool);
    for (k, v) in model.iter() {
        assert_eq!(idx.lookup(k), Some(v), "{kind} seed={seed}: key {k}");
    }
    let mut out = Vec::new();
    idx.scan(0, usize::MAX >> 1, &mut out);
    assert_eq!(
        out.len(),
        model.len(),
        "{kind} seed={seed}: record count after recovery"
    );
    assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    // And the recovered tree must still work.
    assert!(idx.insert(u64::MAX - seed, 7));
    assert_eq!(idx.lookup(u64::MAX - seed), Some(7));
}

#[test]
fn acknowledged_state_survives_crash() {
    for kind in PM_KINDS {
        for seed in [11u64, 22, 33] {
            crash_roundtrip(kind, None, seed);
        }
    }
}

#[test]
fn acknowledged_state_survives_crash_with_eviction_chaos() {
    for kind in PM_KINDS {
        for seed in [44u64, 55] {
            crash_roundtrip(kind, Some(seed), seed);
        }
    }
}

#[test]
fn double_crash_recovery_is_stable() {
    // Crash, recover, work some more, crash again, recover again.
    for kind in PM_KINDS {
        let pool = Arc::new(PmPool::new(64 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let idx = create_small(kind, alloc);
        let mut model = Oracle::new();
        apply_workload(&*idx, &mut model, 7, 3_000, 1_024);
        drop(idx);
        pool.crash();

        // The second workload's acks depend on the recovered state: one
        // model carried across the crash predicts them all.
        let idx = recover_small(kind, pool.clone());
        apply_workload(&*idx, &mut model, 8, 3_000, 1_024);
        let truth: Vec<_> = model.iter().collect();
        drop(idx);
        pool.crash();

        let idx = recover_small(kind, pool);
        let mut after = Vec::new();
        idx.scan(0, usize::MAX >> 1, &mut after);
        assert_eq!(truth, after, "{kind}: second crash lost state");
    }
}

#[test]
fn recovery_of_empty_index() {
    for kind in PM_KINDS {
        let pool = Arc::new(PmPool::new(64 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let idx = create_small(kind, alloc);
        drop(idx);
        pool.crash();
        let idx = recover_small(kind, pool);
        assert_eq!(idx.lookup(1), None, "{kind}");
        let mut out = Vec::new();
        assert_eq!(idx.scan(0, 10, &mut out), 0, "{kind}");
        assert!(idx.insert(5, 50), "{kind}");
        assert_eq!(idx.lookup(5), Some(50), "{kind}");
    }
}

#[test]
fn recovery_after_total_deletion() {
    for kind in PM_KINDS {
        let pool = Arc::new(PmPool::new(64 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let idx = create_small(kind, alloc);
        for k in 0..500u64 {
            idx.insert(k, k);
        }
        for k in 0..500u64 {
            assert!(idx.remove(k), "{kind}");
        }
        drop(idx);
        pool.crash();
        let idx = recover_small(kind, pool);
        let mut out = Vec::new();
        assert_eq!(idx.scan(0, 1_000, &mut out), 0, "{kind}");
        // Reusable after total deletion + crash.
        for k in 0..500u64 {
            assert!(idx.insert(k, k + 1), "{kind}");
        }
        assert_eq!(idx.lookup(250), Some(251), "{kind}");
    }
}
