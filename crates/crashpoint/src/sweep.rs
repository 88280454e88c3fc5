//! The sweep driver: probe → arm → drive → cut → restore → recover →
//! verify, once, for every [`Scenario`].
//!
//! **Crash coverage for a new layer in one impl.** Implement
//! [`Scenario`]: `build` a fresh environment (format pools, build the
//! front-end, finish all set-up) and hand back the pools that can be
//! armed; `drive` the deterministic workload through the layer until
//! the injected crash cuts it ([`crate::apply_until_cut`] /
//! [`crate::until_cut`]), returning what was acknowledged; `check` by
//! recovering from the restored pools (propagate [`MediaError`]s with
//! `?`) and holding the result to [`crate::verify_recovered`] plus
//! whatever invariant the layer adds. Then `sweep(&YourLayer { .. },
//! &opts)` gives it stride / cap selection, frozen + torn-write +
//! poison images of the armed pool, panic classification, flight tails
//! and the summary, and `pm_inspector` needs one more table row.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use index_api::{Op, Oracle};
use pmem::{
    splitmix64, CrashReport, MediaError, PersistEventKind, PmPool, PoisonedRead, ResidualLine,
    ResidualPolicy,
};

use crate::{install_quiet_crash_hook, InflightAllowance};

/// How the post-crash image of the armed pool is constructed at each
/// explored boundary.
///
/// `Frozen`: only flushed lines survive. `Sampled` draws `samples`
/// independent residual images per boundary, each persisting every
/// dirty-but-unflushed line with probability `p_per_256 / 256` (torn
/// multi-line structures). `Exhaustive` enumerates *all* `2^j` subsets
/// of the `j = min(k, max_lines)` most-recently-written dirty lines
/// (the in-flight operation's write frontier) — the complete
/// torn-write space when `k <= max_lines` — plus seeded samples over
/// the full set when older lines remain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResidualConfig {
    /// Only flushed lines survive (the frozen persisted image).
    #[default]
    Frozen,
    /// `samples` seeded random subsets per boundary (plus the frozen
    /// baseline), each line kept with probability `p_per_256 / 256`.
    Sampled { samples: u32, p_per_256: u32 },
    /// All `2^j` subsets of the `j = min(k, max_lines)` most recent
    /// dirty lines; when `k > max_lines`, also `fallback_samples`
    /// seeded 50% samples over the full candidate set.
    Exhaustive {
        max_lines: u32,
        fallback_samples: u32,
    },
}

/// The residual policies to run for one boundary with `k` dirty-line
/// candidates. Returns the policy list and whether it is exhaustive.
fn sample_policies(
    cfg: ResidualConfig,
    sweep_seed: u64,
    boundary: u64,
    k: usize,
) -> (Vec<ResidualPolicy>, bool) {
    let seeded = |n: u32, p: u32| -> Vec<ResidualPolicy> {
        let mut v = vec![ResidualPolicy::Frozen];
        v.extend((0..n).map(|s| ResidualPolicy::Sampled {
            seed: splitmix64(sweep_seed ^ splitmix64(boundary) ^ s as u64),
            p_per_256: p,
        }));
        v
    };
    match cfg {
        ResidualConfig::Frozen => (vec![ResidualPolicy::Frozen], false),
        ResidualConfig::Sampled { samples, p_per_256 } => (seeded(samples, p_per_256), false),
        ResidualConfig::Exhaustive {
            max_lines,
            fallback_samples,
        } => {
            // Candidates are recency-ordered (pmem sorts them most
            // recently written first), so enumerating masks over the
            // first j lines covers every residual image of the write
            // frontier. With k <= j that is the complete torn-write
            // space; beyond that, seeded samples stress the older
            // (long-unflushed) lines too.
            let j = k.min(max_lines.min(16) as usize);
            let mut v: Vec<ResidualPolicy> = (0..(1u64 << j))
                .map(|mask| ResidualPolicy::Subset { mask })
                .collect();
            if k > j {
                v.extend(seeded(fallback_samples, 128).into_iter().skip(1));
            }
            (v, true)
        }
    }
}

/// Parameters of one sweep, common to every scenario (each scenario's
/// own struct holds the few that are specific to it).
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Index kind (see [`crate::PM_KINDS`]).
    pub kind: String,
    /// Workload operations (per thread under [`crate::mt::Mt`]).
    pub ops: u64,
    /// Distinct workload keys (small ranges force collisions and
    /// splits); under [`crate::mt::Mt`] the width of each thread's
    /// private key stripe.
    pub key_range: u64,
    /// Seed of the workload, boundary picks and residual samples.
    pub seed: u64,
    /// Capacity of each pool, in MiB.
    pub pool_mib: usize,
    /// Explore every `stride`-th boundary of an armed pool (1 = all).
    pub stride: u64,
    /// Cap on boundaries explored per armed pool (`None` = all).
    pub max_boundaries: Option<u64>,
    /// Which of the scenario's pools to arm, one at a time (empty =
    /// every pool).
    pub arm_pools: Vec<usize>,
    /// Post-crash image model of the armed pool.
    pub residual: ResidualConfig,
    /// Additionally poison one lost line per non-frozen image, and
    /// require recovery to either succeed without touching it or
    /// report a [`MediaError`] — never return garbage.
    pub poison: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            kind: "wbtree".to_string(),
            ops: 1000,
            key_range: 512,
            seed: 1,
            pool_mib: 32,
            stride: 1,
            max_boundaries: None,
            arm_pools: Vec::new(),
            residual: ResidualConfig::Frozen,
            poison: false,
        }
    }
}

/// A boundary + sample whose recovered state violated the oracle
/// invariant. `policy` and `poisoned_off` pin down the exact residual
/// image, so seed + pool + boundary + policy reproduce the failure.
#[derive(Debug, Clone)]
pub struct BoundaryFailure {
    /// The armed pool (index into the scenario's pool list).
    pub pool: usize,
    /// The armed boundary (1-based persistence-event index of that
    /// pool after set-up; 0 = the unarmed probe run).
    pub boundary: u64,
    /// The residual policy of the failing sample.
    pub policy: ResidualPolicy,
    /// Line poisoned in the failing sample, if any.
    pub poisoned_off: Option<u64>,
    /// Crash audit at the trip, if the crash fired.
    pub report: Option<CrashReport>,
    /// Human-readable description of the violation.
    pub detail: String,
    /// The `obs` flight-recorder tail captured at the trip instant (the
    /// last PM events before power was cut), when tracing was enabled.
    pub flight_tail: Option<String>,
}

/// Named counters a scenario keeps beside the common ones, e.g.
/// `isolation_checks`, `threads_cut`, `acked_total`.
pub type Counters = BTreeMap<&'static str, u64>;

/// One explored boundary: `(armed pool, boundary, trigger if the crash
/// fired, residual candidates at the cut, every sample green)`.
pub type BoundaryVerdict = (usize, u64, Option<PersistEventKind>, u64, bool);

/// Outcome of a full sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepSummary {
    /// Index kind explored.
    pub kind: String,
    /// Persistence events each pool saw in the probe run, counted from
    /// the arming point (the boundary space of that pool).
    pub probe_events: Vec<u64>,
    /// The pools that were armed, in sweep order.
    pub armed_pools: Vec<usize>,
    /// Boundaries actually explored (after stride / cap / picks).
    pub boundaries_tested: u64,
    /// Boundaries where the injected crash fired mid-run.
    pub crashes_fired: u64,
    /// Boundary runs that completed without tripping (event-sequence
    /// divergence; still verified for exact equality).
    pub completed_runs: u64,
    /// Crashes per trigger kind \[clwb, ntstore, sfence\].
    pub trigger_histogram: [u64; 3],
    /// Largest dirty-line count observed at any crash point.
    pub max_dirty_lines: u64,
    /// Largest dirty-word count observed at any crash point.
    pub max_dirty_words: u64,
    /// Redundant flushes over the whole probe run, all pools.
    pub probe_redundant_clwb: u64,
    /// Residual samples recovered and verified (≥ boundaries when
    /// sampling is on).
    pub samples_run: u64,
    /// Boundaries that received exhaustive subset enumeration of the
    /// write frontier (all `2^j` masks over the most recent lines).
    pub exhaustive_boundaries: u64,
    /// Largest residual candidate set (dirty lines) at any crash.
    pub max_residual_candidates: u64,
    /// Samples that had a line poisoned.
    pub poison_injected: u64,
    /// Poisoned samples where recovery reported the media error (the
    /// rest recovered without ever touching the poisoned line).
    pub poison_reported: u64,
    /// The scenario's own counters, summed over every run and check.
    pub counters: Counters,
    /// What each explored boundary decided, in sweep order.
    pub verdicts: Vec<BoundaryVerdict>,
    /// Oracle violations (empty = every explored window survived).
    pub failures: Vec<BoundaryFailure>,
    /// Flight-recorder tail of the first fired crash (tracing only):
    /// demonstrates what the recorder would pin down on a violation.
    pub first_crash_flight_tail: Option<String>,
}

impl SweepSummary {
    /// True when every explored boundary recovered correctly.
    pub fn is_green(&self) -> bool {
        self.failures.is_empty()
    }

    /// A scenario counter by name (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// What one run of a scenario acknowledged before it was cut.
#[derive(Debug, Clone, Default)]
pub struct Acked {
    /// The oracle with every acknowledged op applied — and the cut
    /// ones, whose keys [`crate::verify_recovered`] judges by
    /// `inflight` instead.
    pub model: Oracle,
    /// Operations cut mid-flight, each atomic (pre- or post-state): at
    /// most one per workload thread.
    pub inflight: Vec<InflightAllowance>,
    /// Over a wire: requests sent but never answered, in send order
    /// (some executed prefix of them may have become durable).
    pub unacked: Vec<Op>,
    /// Violations seen while driving, before any recovery: an
    /// acknowledgement the oracle disagrees with
    /// ([`crate::ack_mismatch`]), a worker panic that is not the
    /// injected crash, a protocol error.
    pub errors: Vec<String>,
}

/// One layer of the stack under crash exploration: what is specific to
/// it, and nothing else (see the module docs for the recipe).
pub trait Scenario {
    /// A fresh environment's front-end; dropped after the cut images
    /// are taken.
    type Env;

    /// Fresh pools and front-end with all set-up done, plus every pool
    /// of the environment in a fixed order (any of them can be armed).
    fn build(&self, opts: &SweepOptions) -> (Self::Env, Vec<Arc<PmPool>>);

    /// Drive the deterministic workload until an armed pool trips or it
    /// completes, joining every thread it started.
    fn drive(&self, env: &mut Self::Env, opts: &SweepOptions, counters: &mut Counters) -> Acked;

    /// Recover from `pools` (restored to one residual image of the cut)
    /// and check the result against `acked`: `Err` is a media error
    /// recovery reported, `Ok(Err(..))` an oracle violation.
    fn check(
        &self,
        opts: &SweepOptions,
        pools: &[Arc<PmPool>],
        armed: usize,
        acked: &Acked,
        counters: &mut Counters,
    ) -> Result<Result<(), String>, MediaError>;

    /// The boundaries to explore on a pool whose probe saw `events`:
    /// every `stride`-th, capped at `max_boundaries`.
    fn boundaries(&self, opts: &SweepOptions, events: u64) -> Vec<u64> {
        (1..=events)
            .step_by(opts.stride.max(1) as usize)
            .take(opts.max_boundaries.unwrap_or(u64::MAX) as usize)
            .collect()
    }
}

/// Run a full crash-point exploration sweep of `scn`.
///
/// Never panics on an oracle violation: failures are collected in the
/// summary so a CLI can report all of them.
pub fn sweep<S: Scenario>(scn: &S, opts: &SweepOptions) -> SweepSummary {
    install_quiet_crash_hook();
    let mut summary = SweepSummary {
        kind: opts.kind.clone(),
        ..SweepSummary::default()
    };

    let (mut env, pools) = scn.build(opts);
    let at_arm: Vec<u64> = pools.iter().map(|p| p.persist_event_count()).collect();
    let acked = scn.drive(&mut env, opts, &mut summary.counters);
    for p in &pools {
        assert!(!p.crash_fired(), "the unarmed probe run crashed");
        summary.probe_redundant_clwb += p.stats().clwb_redundant;
    }
    summary.probe_events = pools
        .iter()
        .zip(&at_arm)
        .map(|(p, base)| p.persist_event_count() - base)
        .collect();
    let probe_errors = acked.errors.into_iter();
    summary
        .failures
        .extend(probe_errors.map(|e| failure(0, 0, None, None, e)));
    drop((env, pools));

    summary.armed_pools = if opts.arm_pools.is_empty() {
        (0..summary.probe_events.len()).collect()
    } else {
        opts.arm_pools.clone()
    };
    for armed in summary.armed_pools.clone() {
        for boundary in scn.boundaries(opts, summary.probe_events[armed]) {
            explore_boundary(scn, opts, armed, boundary, &mut summary);
        }
    }
    summary
}

/// A failure record under the frozen image (a failing sample
/// overrides policy and poison).
fn failure(
    pool: usize,
    boundary: u64,
    report: Option<CrashReport>,
    flight_tail: Option<&String>,
    detail: String,
) -> BoundaryFailure {
    BoundaryFailure {
        pool,
        boundary,
        policy: ResidualPolicy::Frozen,
        poisoned_off: None,
        report,
        detail,
        flight_tail: flight_tail.cloned(),
    }
}

/// Explore one boundary: replay armed, then recover and verify every
/// residual sample of the crash image (restore → apply subset →
/// optional poison → recover → oracle).
fn explore_boundary<S: Scenario>(
    scn: &S,
    opts: &SweepOptions,
    armed: usize,
    boundary: u64,
    summary: &mut SweepSummary,
) {
    let (mut env, pools) = scn.build(opts);
    let pool = &pools[armed];
    pool.arm_crash_after(boundary);
    let acked = scn.drive(&mut env, opts, &mut summary.counters);
    // Lift the halt a trip left (the frozen image and the captured cut
    // stay), or cancel a countdown the run never reached.
    pool.disarm_crash();
    let report = pool.crash_report();
    // Snapshot the flight recorder at the trip instant, before the
    // recovery attempts below overwrite the ring with their own events.
    let flight_tail = (obs::enabled() && report.is_some()).then(|| obs::flight_tail_text(16));
    // Capture the power-cut image of every device before any front-end
    // destructor runs: the candidate set was frozen at the trip
    // instant, and on a real cut nothing after it reaches any media.
    let candidates = pool.residual_candidates();
    let images: Vec<Vec<u64>> = pools.iter().map(|p| p.snapshot_persisted()).collect();
    drop(env);

    summary.boundaries_tested += 1;
    match &report {
        Some(r) => {
            summary.crashes_fired += 1;
            let slot = match r.trigger {
                PersistEventKind::Clwb => 0,
                PersistEventKind::Ntstore => 1,
                PersistEventKind::Sfence => 2,
            };
            summary.trigger_histogram[slot] += 1;
            summary.max_dirty_lines = summary.max_dirty_lines.max(r.dirty_lines);
            summary.max_dirty_words = summary.max_dirty_words.max(r.dirty_words);
        }
        None => summary.completed_runs += 1,
    }
    if summary.first_crash_flight_tail.is_none() {
        summary.first_crash_flight_tail = flight_tail.clone();
    }
    summary.max_residual_candidates = summary.max_residual_candidates.max(candidates.len() as u64);

    let red_before = summary.failures.len();
    for e in &acked.errors {
        let tail = flight_tail.as_ref();
        summary
            .failures
            .push(failure(armed, boundary, report, tail, e.clone()));
    }
    let (policies, exhaustive) = if report.is_some() {
        sample_policies(opts.residual, opts.seed, boundary, candidates.len())
    } else {
        // The run completed (event-sequence divergence): verify exact
        // equality of the cleanly-persisted image once.
        (vec![ResidualPolicy::Frozen], false)
    };
    summary.exhaustive_boundaries += exhaustive as u64;
    for (s, &policy) in policies.iter().enumerate() {
        for (p, img) in pools.iter().zip(&images) {
            p.restore_persisted(img);
        }
        let poisoned_off = apply_residual(
            pool,
            &candidates,
            policy,
            // The frozen baseline stays poison-free so the pure torn-
            // write model is always covered too.
            opts.poison && policy != ResidualPolicy::Frozen,
            opts.seed ^ splitmix64(boundary) ^ (s as u64).rotate_left(32),
        );
        summary.poison_injected += poisoned_off.is_some() as u64;
        summary.samples_run += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            scn.check(opts, &pools, armed, &acked, &mut summary.counters)
        }));
        if let Some(detail) = classify(outcome, poisoned_off, &mut summary.poison_reported) {
            summary.failures.push(BoundaryFailure {
                policy,
                poisoned_off,
                ..failure(armed, boundary, report, flight_tail.as_ref(), detail)
            });
        }
    }
    summary.verdicts.push((
        armed,
        boundary,
        report.map(|r| r.trigger),
        candidates.len() as u64,
        summary.failures.len() == red_before,
    ));
}

/// Apply `policy` to the armed pool's restored crash image and
/// optionally poison one lost line; returns the poisoned offset.
fn apply_residual(
    pool: &PmPool,
    candidates: &[ResidualLine],
    policy: ResidualPolicy,
    poison: bool,
    poison_seed: u64,
) -> Option<u64> {
    let keep = policy.select(candidates.len());
    let (kept, lost): (Vec<_>, Vec<_>) = candidates.iter().zip(&keep).partition(|(_, &k)| k);
    let kept: Vec<ResidualLine> = kept.into_iter().map(|(l, _)| *l).collect();
    pool.apply_residual_lines(&kept);
    if !poison || lost.is_empty() {
        return None;
    }
    // Media failure at the torn location: one of the lines that did
    // NOT make it to media comes back unreadable instead of stale.
    let victim = lost[(splitmix64(poison_seed) % lost.len() as u64) as usize]
        .0
        .off;
    pool.poison_line(victim);
    Some(victim)
}

/// Every way one sample's recovery + check can end: oracle pass
/// (`None`), a violation, a reported media error (fine when a line was
/// poisoned), a raw [`PoisonedRead`] escaping (garbage surfaced —
/// always a failure), or a recovery panic under the torn image (also a
/// failure: a correct PM index must tolerate any subset of unflushed
/// lines persisting).
fn classify(
    outcome: std::thread::Result<Result<Result<(), String>, MediaError>>,
    poisoned_off: Option<u64>,
    poison_reported: &mut u64,
) -> Option<String> {
    match outcome {
        Ok(Ok(Ok(()))) => None,
        Ok(Ok(Err(detail))) => Some(detail),
        Ok(Err(_)) if poisoned_off.is_some() => {
            // Graceful degradation: the poisoned line was on the
            // recovery path and got reported, not read.
            *poison_reported += 1;
            None
        }
        Ok(Err(media)) => Some(format!(
            "media error reported with no poison injected: {media}"
        )),
        Err(payload) => Some(if let Some(p) = payload.downcast_ref::<PoisonedRead>() {
            format!(
                "poisoned line {:#x} surfaced as a raw read at {:#x} instead of a \
                 reported media error",
                poisoned_off.unwrap_or(0),
                p.off
            )
        } else {
            format!("panic during recovery/verify: {}", panic_text(&*payload))
        }),
    }
}

/// The message of a caught panic payload.
pub(crate) fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(non-string payload)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_policies_enumerate_small_sets_and_frontier_large_ones() {
        // k <= max_lines: the full 2^k subset space, nothing else.
        let (p, exhaustive) = sample_policies(
            ResidualConfig::Exhaustive {
                max_lines: 6,
                fallback_samples: 2,
            },
            1,
            10,
            3,
        );
        assert!(exhaustive);
        assert_eq!(p.len(), 8);
        for (mask, pol) in p.iter().enumerate() {
            assert_eq!(*pol, ResidualPolicy::Subset { mask: mask as u64 });
        }
        // k > max_lines: all 2^j masks over the j most recent lines,
        // plus the seeded fallback samples over the full set.
        let (p, exhaustive) = sample_policies(
            ResidualConfig::Exhaustive {
                max_lines: 4,
                fallback_samples: 2,
            },
            1,
            10,
            40,
        );
        assert!(exhaustive);
        assert_eq!(p.len(), 16 + 2);
        assert!(matches!(p[15], ResidualPolicy::Subset { mask: 15 }));
        assert!(matches!(p[16], ResidualPolicy::Sampled { .. }));
        // Seeds differ per boundary so no two boundaries share a sample.
        let (q, _) = sample_policies(
            ResidualConfig::Exhaustive {
                max_lines: 4,
                fallback_samples: 2,
            },
            1,
            11,
            40,
        );
        assert_ne!(p[16], q[16]);
    }
}
