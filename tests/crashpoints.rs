//! Crash-point exploration matrix plus recovery edge cases.
//!
//! The exploration tests drive `crates/crashpoint`: a deterministic
//! mixed workload is crashed at persistence-event boundaries, recovered
//! and verified against the oracle invariant ("exactly acknowledged
//! operations survive; the in-flight operation is atomic"). These runs
//! are strided to stay fast; the full boundary-by-boundary matrix runs
//! via `cargo run --release --example pm_inspector -- crashpoints`.

mod common;

use std::sync::Arc;

use common::{create_small, recover_small, PM_KINDS};
use pm_index_bench::crashpoint::single::Single;
use pm_index_bench::crashpoint::{sweep, ResidualConfig, SweepOptions};
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmPool};

fn strided_sweep(kind: &str, chaos: bool) {
    let opts = SweepOptions {
        kind: kind.to_string(),
        ops: 100,
        key_range: 64,
        seed: 3,
        pool_mib: 16,
        stride: 5,
        ..SweepOptions::default()
    };
    let scenario = Single {
        chaos_seed: chaos.then_some(0xC4A05),
    };
    let summary = sweep(&scenario, &opts);
    assert!(summary.probe_events[0] > 0, "{kind}: empty boundary space");
    assert!(
        summary.crashes_fired > 0,
        "{kind} chaos={chaos}: injection never fired"
    );
    assert!(
        summary.is_green(),
        "{kind} chaos={chaos}: {} oracle violations, first: {:?}",
        summary.failures.len(),
        summary.failures.first()
    );
}

#[test]
fn crash_at_every_strided_boundary_recovers() {
    for kind in PM_KINDS {
        strided_sweep(kind, false);
    }
}

#[test]
fn sampled_residual_images_recover_at_every_strided_boundary() {
    // Torn-write model: at each boundary, each dirty-but-unflushed line
    // independently persists with p = 1/2, several seeded samples per
    // boundary. Every sampled image must satisfy the same oracle.
    for kind in PM_KINDS {
        let opts = SweepOptions {
            kind: kind.to_string(),
            ops: 60,
            key_range: 48,
            seed: 13,
            pool_mib: 16,
            stride: 7,
            residual: ResidualConfig::Sampled {
                samples: 3,
                p_per_256: 128,
            },
            ..SweepOptions::default()
        };
        let summary = sweep(&Single::default(), &opts);
        assert!(summary.crashes_fired > 0, "{kind}: injection never fired");
        assert!(
            summary.samples_run > summary.boundaries_tested,
            "{kind}: sampling did not multiply the verification count"
        );
        assert!(
            summary.is_green(),
            "{kind}: {} torn-write violations, first: {:?}",
            summary.failures.len(),
            summary.failures.first()
        );
    }
}

#[test]
fn exhaustive_subset_enumeration_covers_the_write_frontier() {
    // Exhaustive model: residual candidates are recency-ordered, and
    // every boundary gets all 2^j subsets of its j most-recently-written
    // dirty lines (the in-flight operation's torn window), plus seeded
    // samples over the older long-unflushed lines. Every enumerated
    // image must satisfy the oracle.
    for kind in PM_KINDS {
        let opts = SweepOptions {
            kind: kind.to_string(),
            ops: 40,
            key_range: 32,
            seed: 17,
            pool_mib: 16,
            stride: 11,
            max_boundaries: Some(16),
            residual: ResidualConfig::Exhaustive {
                max_lines: 4,
                fallback_samples: 2,
            },
            ..SweepOptions::default()
        };
        let summary = sweep(&Single::default(), &opts);
        assert!(
            summary.exhaustive_boundaries > 0,
            "{kind}: frontier enumeration never engaged \
             (max candidates {})",
            summary.max_residual_candidates
        );
        assert!(
            summary.samples_run >= summary.exhaustive_boundaries * 16,
            "{kind}: expected >= 2^4 subset images per exhausted boundary, \
             got {} samples over {} boundaries",
            summary.samples_run,
            summary.exhaustive_boundaries
        );
        assert!(
            summary.is_green(),
            "{kind}: {} violations, first: {:?}",
            summary.failures.len(),
            summary.failures.first()
        );
    }
}

#[test]
fn poisoned_lost_lines_are_reported_never_garbage() {
    // Media-error model: one lost line per sampled image comes back
    // unreadable. Recovery must either avoid it or report a MediaError —
    // returning garbage or a raw PoisonedRead panic is a failure.
    for kind in PM_KINDS {
        let opts = SweepOptions {
            kind: kind.to_string(),
            ops: 50,
            key_range: 32,
            seed: 29,
            pool_mib: 16,
            stride: 9,
            residual: ResidualConfig::Sampled {
                samples: 2,
                p_per_256: 64,
            },
            poison: true,
            ..SweepOptions::default()
        };
        let summary = sweep(&Single::default(), &opts);
        assert!(
            summary.poison_injected > 0,
            "{kind}: poison was never injected"
        );
        assert!(
            summary.is_green(),
            "{kind}: {} violations under media errors, first: {:?}",
            summary.failures.len(),
            summary.failures.first()
        );
    }
}

#[test]
fn crash_at_every_strided_boundary_recovers_under_eviction_chaos() {
    for kind in PM_KINDS {
        strided_sweep(kind, true);
    }
}

#[test]
fn durability_audit_never_sees_huge_unflushed_state() {
    // The dirty-line count at any crash point bounds how much
    // acknowledged-but-unflushed state *could* exist. It must stay small
    // (a handful of lines under mutation), never O(dataset).
    for kind in PM_KINDS {
        let opts = SweepOptions {
            kind: kind.to_string(),
            ops: 80,
            key_range: 48,
            seed: 5,
            pool_mib: 16,
            stride: 9,
            ..SweepOptions::default()
        };
        let summary = sweep(&Single::default(), &opts);
        assert!(summary.is_green(), "{kind}: {:?}", summary.failures.first());
        assert!(
            summary.max_dirty_lines < 4_096,
            "{kind}: {} dirty lines at a crash point — unflushed state is unbounded",
            summary.max_dirty_lines
        );
    }
}

#[test]
fn recovering_a_zero_op_pool_twice_is_idempotent() {
    // Format, crash immediately (zero operations), recover, crash again
    // without doing anything, recover again: still empty, still usable.
    for kind in PM_KINDS {
        let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let idx = create_small(kind, alloc);
        drop(idx);
        pool.crash();

        let idx = recover_small(kind, pool.clone());
        let mut out = Vec::new();
        assert_eq!(idx.scan(0, 100, &mut out), 0, "{kind}: first recovery");
        drop(idx);
        pool.crash();

        let idx = recover_small(kind, pool);
        assert_eq!(idx.scan(0, 100, &mut out), 0, "{kind}: second recovery");
        assert_eq!(idx.lookup(9), None, "{kind}");
        assert!(idx.insert(9, 90), "{kind}: unusable after double recovery");
        assert_eq!(idx.lookup(9), Some(90), "{kind}");
    }
}

#[test]
fn recovering_twice_with_no_intervening_ops_is_idempotent() {
    // Recovery must not mutate acknowledged state: recover, snapshot,
    // crash without writing, recover again — identical contents.
    for kind in PM_KINDS {
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let idx = create_small(kind, alloc);
        for k in 0..800u64 {
            idx.insert(k * 3, k);
        }
        for k in 0..200u64 {
            idx.remove(k * 6);
        }
        drop(idx);
        pool.crash();

        let idx = recover_small(kind, pool.clone());
        let mut first = Vec::new();
        idx.scan(0, usize::MAX >> 1, &mut first);
        drop(idx);
        pool.crash();

        let idx = recover_small(kind, pool);
        let mut second = Vec::new();
        idx.scan(0, usize::MAX >> 1, &mut second);
        assert_eq!(
            first, second,
            "{kind}: recovery is not idempotent — a second recover changed state"
        );
        assert!(idx.insert(u64::MAX - 1, 1), "{kind}: unusable");
    }
}
