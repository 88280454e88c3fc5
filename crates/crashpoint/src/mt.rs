//! Multi-threaded crash consistency: arm a crash while 2–8 threads
//! hammer one index, halt the device at the trip so every thread
//! unwinds, then recover each sampled residual image and check the
//! relaxed oracle:
//!
//! * every **acknowledged** operation survives;
//! * each thread's **unacknowledged in-flight** operation is atomic
//!   (fully applied or fully absent);
//! * no torn values are ever returned.
//!
//! Threads write disjoint key stripes, so the union of the per-thread
//! models is an exact oracle and each in-flight key has exactly one
//! owner. The crash may land inside any thread's operation; a trip
//! halts the device for every other thread until
//! [`pmem::PmPool::disarm_crash`], so each is cut at its next PM access
//! (see [`pmem::PmPool::arm_crash_after`]), which also unwedges threads
//! spinning on a leaf lock the crashed thread still holds. The sweep
//! driver disarms once every worker is joined.
//!
//! Concurrent schedules make the probe's event count only an estimate,
//! so instead of striding, `max_boundaries` (default 8) pseudo-random
//! boundaries are picked inside it, seeded so the whole matrix replays
//! from the seed alone; a pick past what an armed run emits completes
//! and is verified for exact equality.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use engine::Shard;
use index_api::{Op, RangeIndex};
use pmem::{splitmix64, CrashPointHit, MediaError, PmPool};

use crate::single::{check_one_pool, Single};
use crate::sweep::panic_text;
use crate::{ack_mismatch, workload, Acked, Counters, InflightAllowance, Scenario, SweepOptions};

/// One index on one pool under `threads` concurrent writers; counts
/// `threads_cut`.
#[derive(Debug, Clone, Copy)]
pub struct Mt {
    /// Concurrent workload threads (2–8), each running `opts.ops`
    /// operations on its own `opts.key_range`-wide key stripe.
    pub threads: usize,
}

/// The workload of one thread: the shared generator, with every key
/// shifted into the thread's private stripe.
fn thread_workload(opts: &SweepOptions, tid: u64) -> Vec<Op> {
    let base = tid * opts.key_range;
    workload(splitmix64(opts.seed ^ tid), opts.ops, opts.key_range)
        .into_iter()
        .map(|op| op.map_key(|k| base + k))
        .collect()
}

/// What one worker thread saw before it stopped: the oracle of its
/// stripe, the op it was cut inside (if any), and as an error a real
/// bug: a panic for any reason other than the injected crash, or an
/// acknowledgement the oracle disagrees with.
fn run_worker(idx: &dyn RangeIndex, pool: &PmPool, ops: &[Op]) -> Acked {
    let mut out = Acked::default();
    let mut rows = Vec::new();
    for &op in ops {
        let (allowance, want) = InflightAllowance::for_op(op, &mut out.model);
        match catch_unwind(AssertUnwindSafe(|| op.apply(idx, &mut rows))) {
            // The cut landed inside or immediately after this op (its
            // tail needed no PM access, so the halt could not unwind
            // it). The acknowledgement never escaped the dying machine;
            // hold the op to the atomic present-or-absent allowance.
            Ok(_) if pool.crash_fired() => out.inflight.push(allowance),
            Ok(got) => match ack_mismatch(op, &got, &want) {
                None => continue,
                Some(bug) => out.errors.push(bug),
            },
            // CrashPointHit is the armed trip or the halt cutting this
            // thread. Any other panic raced the power cut (e.g. an
            // expect on volatile state another cut thread abandoned)
            // only if the crash really fired; otherwise it is a genuine
            // concurrency bug.
            Err(p) if p.is::<CrashPointHit>() || pool.crash_fired() => out.inflight.push(allowance),
            Err(p) => out
                .errors
                .push(format!("worker panic: {}", panic_text(&*p))),
        }
        break;
    }
    out
}

impl Scenario for Mt {
    type Env = Shard;

    fn build(&self, opts: &SweepOptions) -> (Shard, Vec<Arc<PmPool>>) {
        assert!(
            (2..=8).contains(&self.threads),
            "threads must be in 2..=8, got {}",
            self.threads
        );
        Single::default().build(opts)
    }

    fn drive(&self, env: &mut Shard, opts: &SweepOptions, counters: &mut Counters) -> Acked {
        let (idx, pool) = (&*env.index, env.pool.as_deref().expect("a PM shard"));
        let per_thread: Vec<Vec<Op>> = (0..self.threads as u64)
            .map(|tid| thread_workload(opts, tid))
            .collect();
        let outcomes: Vec<Acked> = std::thread::scope(|s| {
            let handles: Vec<_> = per_thread
                .iter()
                .map(|ops| s.spawn(move || run_worker(idx, pool, ops)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker catch_unwind never re-panics"))
                .collect()
        });

        let mut acked = Acked::default();
        for (tid, t) in outcomes.into_iter().enumerate() {
            acked.model.extend(t.model.iter());
            acked.inflight.extend(t.inflight);
            let bugs = t.errors.into_iter();
            acked
                .errors
                .extend(bugs.map(|bug| format!("thread {tid}: {bug}")));
        }
        *counters.entry("threads_cut").or_default() += acked.inflight.len() as u64;
        acked
    }

    fn check(
        &self,
        opts: &SweepOptions,
        pools: &[Arc<PmPool>],
        _armed: usize,
        acked: &Acked,
        _counters: &mut Counters,
    ) -> Result<Result<(), String>, MediaError> {
        check_one_pool(opts, pools, acked)
    }

    fn boundaries(&self, opts: &SweepOptions, events: u64) -> Vec<u64> {
        (0..opts.max_boundaries.unwrap_or(8))
            .map(|b| 1 + splitmix64(opts.seed ^ splitmix64(b)) % events.max(1))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sweep, ResidualConfig};

    fn opts(kind: &str, ops: u64, boundaries: u64, seed: u64) -> SweepOptions {
        SweepOptions {
            kind: kind.to_string(),
            ops,
            key_range: 128,
            seed,
            max_boundaries: Some(boundaries),
            residual: ResidualConfig::Sampled {
                samples: 3,
                p_per_256: 128,
            },
            ..SweepOptions::default()
        }
    }

    #[test]
    fn four_threads_survive_sampled_crashes() {
        let s = sweep(&Mt { threads: 4 }, &opts("wbtree", 120, 4, 11));
        assert_eq!(s.boundaries_tested, 4);
        assert!(s.crashes_fired > 0, "no boundary tripped mid-run");
        assert!(s.samples_run >= s.boundaries_tested);
        assert!(
            s.is_green(),
            "{} violations, first: {:?}",
            s.failures.len(),
            s.failures.first()
        );
    }

    #[test]
    fn two_threads_with_poison_never_surface_garbage() {
        let opts = SweepOptions {
            poison: true,
            ..opts("fptree", 100, 3, 23)
        };
        let s = sweep(&Mt { threads: 2 }, &opts);
        assert!(
            s.is_green(),
            "{} violations, first: {:?}",
            s.failures.len(),
            s.failures.first()
        );
    }
}
