//! Multi-threaded crash consistency: crashes armed while 2–8 threads
//! hammer one shared index. All threads unwind, volatile state is
//! discarded, and recovery of every sampled residual image must satisfy
//! the relaxed concurrent oracle: acknowledged operations survive, each
//! thread's single in-flight operation is atomically present-or-absent,
//! and no torn value is ever returned.

use pm_index_bench::crashpoint::mt::Mt;
use pm_index_bench::crashpoint::{sweep, ResidualConfig, SweepOptions};

#[test]
fn four_threads_crash_consistent_on_every_pm_index() {
    for kind in ["fptree", "nvtree", "wbtree", "bztree", "learned"] {
        let opts = SweepOptions {
            kind: kind.to_string(),
            ops: 150,
            key_range: 128,
            max_boundaries: Some(5),
            seed: 42,
            residual: ResidualConfig::Sampled {
                samples: 2,
                p_per_256: 128,
            },
            ..SweepOptions::default()
        };
        let summary = sweep(&Mt { threads: 4 }, &opts);
        assert!(
            summary.crashes_fired > 0,
            "{kind}: no concurrent crash ever fired"
        );
        assert!(
            summary.counter("threads_cut") > 0,
            "{kind}: the crash never cut down a sibling thread"
        );
        assert!(
            summary.samples_run >= summary.boundaries_tested,
            "{kind}: residual sampling did not run"
        );
        assert!(
            summary.is_green(),
            "{kind}: {} concurrent-crash violations (seed {}), first: {:?}",
            summary.failures.len(),
            opts.seed,
            summary.failures.first()
        );
    }
}

#[test]
fn eight_threads_with_poison_stay_green() {
    // Top of the supported thread range, with media errors layered on:
    // a lost line per sampled image comes back poisoned. Recovery must
    // report it or avoid it — never return garbage.
    let opts = SweepOptions {
        kind: "wbtree".to_string(),
        ops: 80,
        key_range: 128,
        max_boundaries: Some(4),
        seed: 7,
        residual: ResidualConfig::Sampled {
            samples: 3,
            p_per_256: 128,
        },
        poison: true,
        ..SweepOptions::default()
    };
    let summary = sweep(&Mt { threads: 8 }, &opts);
    assert!(summary.crashes_fired > 0, "no concurrent crash fired");
    assert!(
        summary.is_green(),
        "{} violations under 8 threads + poison (seed 7), first: {:?}",
        summary.failures.len(),
        summary.failures.first()
    );
}
