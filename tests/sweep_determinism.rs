//! The sweep driver's determinism contract, and residual sampling on
//! the multi-pool scenarios.
//!
//! A single-threaded scenario is a pure function of its `SweepOptions`:
//! the same options give the same per-pool probe counts and the same
//! per-boundary `(pool, boundary, trigger, candidates, verdict)` vector,
//! and every selected boundary fires — even with the same sweep running
//! on a second thread and a third hammering an unrelated NV-Tree, whose
//! deferred leaf frees used to run on (and be run by) whichever thread
//! unpinned last in the whole process.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pm_index_bench::crashpoint::sharded::Sharded;
use pm_index_bench::crashpoint::single::Single;
use pm_index_bench::crashpoint::{
    build_index, sweep, ResidualConfig, Scenario, SweepOptions, SweepSummary, PM_KINDS,
};
use pm_index_bench::net::crash::Net;
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmPool};

fn opts(kind: &str, stride: u64) -> SweepOptions {
    SweepOptions {
        kind: kind.to_string(),
        ops: 80,
        key_range: 48,
        seed: 0xD37,
        pool_mib: 8,
        stride,
        ..SweepOptions::default()
    }
}

fn assert_green(what: &str, s: &SweepSummary) {
    assert!(s.crashes_fired > 0, "{what}: no boundary tripped");
    assert!(
        s.is_green(),
        "{what}: {} violations, first: {:?}",
        s.failures.len(),
        s.failures.first()
    );
}

/// Sweep `scn` on two threads at once and require identical results.
fn twice<S: Scenario + Sync>(what: &str, scn: &S, opts: &SweepOptions) {
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| sweep(scn, opts));
        let here = sweep(scn, opts);
        (here, other.join().expect("sweep thread"))
    });
    assert_green(what, &a);
    assert_eq!(a.probe_events, b.probe_events, "{what}: probe counts");
    assert_eq!(
        (a.completed_runs, b.completed_runs),
        (0, 0),
        "{what}: a selected boundary did not fire"
    );
    assert_eq!(a.verdicts, b.verdicts, "{what}: per-boundary verdicts");
}

/// Stops the background thread when the test body ends, also by panic
/// (the scope would otherwise wait for it forever).
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn concurrent_sweeps_of_the_same_options_agree() {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let _stop = StopOnDrop(&stop);
        // An unrelated NV-Tree under constant replace-splits, each of
        // which defers a free of the replaced leaf.
        s.spawn(|| {
            let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
            let tree = build_index("nvtree", PmAllocator::format(pool, AllocMode::General));
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                k += 1;
                tree.insert(k % 512, k);
                tree.remove((k * 7) % 512);
            }
        });
        for kind in PM_KINDS {
            twice(kind, &Single::default(), &opts(kind, 5));
        }
        let chaos = Single {
            chaos_seed: Some(0xC4A05),
        };
        twice("nvtree under chaos", &chaos, &opts("nvtree", 5));
        twice("sharded", &Sharded { shards: 3 }, &opts("nvtree", 13));
    });
}

/// Torn-write images + a poisoned lost line on the armed shard of a
/// sharded engine, its siblings frozen at the cut: the cross-shard
/// oracle and byte-level isolation must hold for every sample.
#[test]
fn sharded_sweep_is_green_under_sampled_images_and_poison() {
    let opts = SweepOptions {
        residual: ResidualConfig::Sampled {
            samples: 3,
            p_per_256: 128,
        },
        poison: true,
        ..opts("wbtree", 17)
    };
    let s = sweep(&Sharded { shards: 3 }, &opts);
    assert_green("sharded", &s);
    assert_eq!(s.completed_runs, 0);
    assert_eq!(s.samples_run, 4 * s.boundaries_tested);
    assert!(s.poison_injected > 0, "poison was never injected");
    // Two siblings compared per sample whose armed shard recovered
    // (the rest reported the poisoned line instead).
    assert!(s.poison_reported < s.samples_run);
    assert_eq!(
        s.counter("isolation_checks"),
        2 * (s.samples_run - s.poison_reported)
    );
}

fn sampled(kind: &str, stride: u64) -> SweepOptions {
    SweepOptions {
        residual: ResidualConfig::Sampled {
            samples: 2,
            p_per_256: 128,
        },
        ..opts(kind, stride)
    }
}

#[test]
fn net_sweep_under_sampled_images() {
    let s = sweep(&Net::default(), &sampled("wbtree", 37));
    assert_green("net", &s);
    assert!(s.samples_run > s.boundaries_tested);
}
