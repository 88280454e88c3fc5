//! # crashpoint — systematic crash-point exploration for PM indexes
//!
//! The crash tests in the workspace pull the plug *between* operations;
//! the interleavings that actually break persistent-memory indexes are
//! the ones *inside* an operation, between one persistence event and
//! the next (cf. RECIPE, SOSP 2019, and pmemcheck). This crate drives
//! [`pmem`]'s crash-point injection over every such window, with **one
//! sweep driver** ([`sweep`]) and one [`Scenario`] per layer of the
//! stack:
//!
//! 1. **Probe**: run the scenario once, unarmed, counting the
//!    persistence events (`clwb` / `ntstore` / `sfence`) each of its
//!    pools sees *from the arming point* (set-up is not swept).
//! 2. **Sweep**: for every selected boundary of every armable pool,
//!    build a fresh environment, arm that pool to lose power at that
//!    exact event and drive the scenario again. The in-flight operation
//!    unwinds via a [`pmem::CrashPointHit`] panic with the persisted
//!    image frozen.
//! 3. **Recover & verify**: snapshot every pool's power-cut image, drop
//!    the front-end, and for each residual sample restore the images
//!    and let the scenario recover and check the oracle invariant —
//!    *exactly the acknowledged operations survive; the unacknowledged
//!    in-flight operation is atomic (fully applied or fully absent)* —
//!    plus index well-formedness (sorted, duplicate-free scans) and
//!    post-recovery usability ([`verify_recovered`]).
//!
//! Scenarios: [`single::Single`] (one index on one pool, optionally
//! under eviction chaos), [`mt::Mt`] (2–8 threads on one index, the
//! device halted at the trip), [`sharded::Sharded`] (a
//! range-partitioned engine, one shard armed at a time, siblings
//! checked byte for byte) and `net::crash::Net` (the same workload
//! through a live TCP server: acked implies durable).
//!
//! **Determinism contract.** A single-threaded scenario is a pure
//! function of its [`SweepOptions`]: the same options give the same
//! per-pool event counts on every run, whatever else the process is
//! doing, so every selected boundary fires (`completed_runs == 0`) and
//! a failure replays from its seed and boundary. `mt` and `net` are
//! timing-dependent by design; boundaries past what an armed run
//! happens to emit complete and are verified for exact equality.
//!
//! ## Residual-image models
//!
//! The frozen image (only explicitly flushed lines survive) is one
//! legal outcome of a power cut; on real hardware, any subset of the
//! dirty-but-unflushed cache lines may also have reached media. Each
//! boundary can therefore be verified under several residual images of
//! the armed pool without replaying the workload (see
//! [`ResidualConfig`]):
//!
//! * **Frozen** — the pessimistic baseline above, always included.
//! * **Sampled** — seeded random subsets, each dirty line persisting
//!   independently with probability `p`; any failure replays from its
//!   printed seed.
//! * **Exhaustive** — all `2^j` subsets of the `j` most-recently-written
//!   lines (candidates are recency-ordered), the complete torn-write
//!   space of the in-flight operation's write frontier.
//!
//! With `poison` set, one line that *failed* to persist comes back
//! unreadable (an emulated media error): recovery must detect it via
//! the fallible `try_recover` paths and report a [`MediaError`] —
//! returning garbage, or letting the raw [`pmem::PoisonedRead`]
//! machine-check escape, is a failure.
//!
//! A durability audit rides along: each crash snapshots the number of
//! written-but-unflushed words/lines and the cumulative redundant-flush
//! count, so acknowledged-but-unflushed state is caught even when it
//! happens not to change the recovered image.

use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};

use engine::Shard;
use index_api::{Op, Oracle, Outcome, RangeIndex};
use pmalloc::AllocMode;
use pmem::{CrashPointHit, MediaError, PmConfig, PmPool};

mod kinds;
pub mod mt;
pub mod sharded;
pub mod single;
mod sweep;

pub use kinds::{fresh_shard, kind, kinds_and, try_recover_shard_as, Kind, Shape, KINDS, PM_KINDS};
pub use sweep::{
    sweep, Acked, BoundaryFailure, BoundaryVerdict, Counters, ResidualConfig, Scenario,
    SweepOptions, SweepSummary,
};

/// Build a fresh [`Shape::Small`] index (see [`PM_KINDS`]).
pub fn build_index(kind: &str, alloc: Arc<pmalloc::PmAllocator>) -> Arc<dyn RangeIndex> {
    self::kind(kind).create(alloc, Shape::Small)
}

/// `n` fresh shards, each a small-node index of `opts.kind` on its own
/// freshly formatted `opts.pool_mib` pool and allocator.
pub fn fresh_shards(opts: &SweepOptions, n: usize, cfg: PmConfig) -> Vec<Shard> {
    let (shape, mode, bytes) = (Shape::Small, AllocMode::General, opts.pool_mib << 20);
    let one = || fresh_shard(&opts.kind, shape, mode, bytes, cfg.clone());
    (0..n).map(|_| one()).collect()
}

/// [`try_recover_shard_as`] for the small-node config the sweeps build.
pub fn try_recover_shard(kind: &str, pool: Arc<PmPool>) -> Result<Shard, MediaError> {
    try_recover_shard_as(kind, Shape::Small, pool)
}

// ---------------------------------------------------------------------------
// Deterministic workload
// ---------------------------------------------------------------------------

/// The deterministic mixed workload (60% insert / 20% update / 20%
/// remove over a narrow key range to force collisions and splits); the
/// value is fixed by the op index, so the oracle can predict every
/// acknowledged effect.
pub fn workload(seed: u64, n_ops: u64, key_range: u64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n_ops as usize);
    let mut x = seed | 1;
    for i in 0..n_ops {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = (x >> 16) % key_range;
        ops.push(match x % 10 {
            0..=5 => Op::Insert(k, i),
            6..=7 => Op::Update(k, i + 1),
            _ => Op::Remove(k),
        });
    }
    ops
}

// ---------------------------------------------------------------------------
// Quiet panic hook
// ---------------------------------------------------------------------------

/// Install a process-wide panic hook that silences the intentional
/// [`CrashPointHit`] unwinds (an exploration fires thousands of them)
/// while delegating every real panic to the previous hook. Idempotent.
pub fn install_quiet_crash_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashPointHit>().is_none() {
                prev(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// What the in-flight (unacknowledged) operation is allowed to have
/// done to its key: nothing (`pre`) or everything (`post`).
#[derive(Debug, Clone, Copy)]
pub struct InflightAllowance {
    /// The key the cut operation targeted.
    pub key: u64,
    /// State of the key before the operation started.
    pub pre: Option<u64>,
    /// State of the key had the operation completed.
    pub post: Option<u64>,
}

impl InflightAllowance {
    /// Apply `op` to `model`: what a cut of `op` may leave behind, and
    /// what `op` must report if it completes.
    pub fn for_op(op: Op, model: &mut Oracle) -> (Self, Outcome) {
        let key = op.key();
        let pre = model.lookup(key);
        let want = model.apply(op);
        let post = model.lookup(key);
        (InflightAllowance { key, pre, post }, want)
    }

    /// Whether `observed` is an atomic outcome of the cut operation.
    pub fn allows(&self, observed: Option<u64>) -> bool {
        observed == self.pre || observed == self.post
    }
}

/// Verify the recovered index against the oracle model.
///
/// `inflight` holds the operations that were cut mid-flight — one per
/// workload thread at most (empty when the run completed). Each
/// in-flight key may be in either its pre- or post-state, every other
/// key must match the model exactly, and the index must remain
/// well-formed and writable.
pub fn verify_recovered(
    idx: &dyn RangeIndex,
    model: &Oracle,
    inflight: &[InflightAllowance],
) -> Result<(), String> {
    let allowance = |k: u64| inflight.iter().find(|a| a.key == k);
    // Point lookups: every acknowledged record must be present.
    for (k, v) in model.iter() {
        if allowance(k).is_some() {
            continue;
        }
        let got = idx.lookup(k);
        if got != Some(v) {
            return Err(format!(
                "acknowledged key {k} lost or corrupt: expected {v:?}, found {got:?}"
            ));
        }
    }
    for a in inflight {
        let got = idx.lookup(a.key);
        if !a.allows(got) {
            return Err(format!(
                "in-flight key {} not atomic: found {:?}, allowed {:?} (pre) or {:?} (post)",
                a.key, got, a.pre, a.post
            ));
        }
    }

    // Full scan: well-formed (sorted, unique) and free of ghosts.
    let mut out = Vec::new();
    idx.scan(0, usize::MAX >> 1, &mut out);
    if !out.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err("scan output not strictly sorted".to_string());
    }
    let mut observed = Oracle::new();
    observed.extend(out);
    for (k, v) in observed.iter() {
        match allowance(k) {
            Some(a) => {
                if !a.allows(Some(v)) {
                    return Err(format!(
                        "scan ghost at in-flight key {k}: value {v} not an allowed state"
                    ));
                }
            }
            None => {
                if model.lookup(k) != Some(v) {
                    return Err(format!(
                        "scan ghost: key {k} -> {v} not in acknowledged state ({:?})",
                        model.lookup(k)
                    ));
                }
            }
        }
    }
    for (k, _) in model.iter() {
        if allowance(k).is_some() {
            continue;
        }
        if observed.lookup(k).is_none() {
            return Err(format!("scan lost acknowledged key {k}"));
        }
    }

    // The recovered tree must remain usable.
    let probe_key = u64::MAX - 3;
    if !idx.insert(probe_key, 7) {
        return Err("recovered index rejected a fresh insert".to_string());
    }
    if idx.lookup(probe_key) != Some(7) {
        return Err("recovered index lost a fresh insert".to_string());
    }
    if !idx.remove(probe_key) {
        return Err("recovered index failed to remove a fresh insert".to_string());
    }
    Ok(())
}

/// Run one step of a scenario; `None` when the injected crash cut it
/// short (any other panic propagates).
pub fn until_cut<R>(step: impl FnOnce() -> R) -> Option<R> {
    match catch_unwind(AssertUnwindSafe(step)) {
        Ok(r) => Some(r),
        Err(payload) if payload.is::<CrashPointHit>() => None,
        Err(payload) => resume_unwind(payload),
    }
}

/// The ack-disagreement rule: an acknowledgement (`got`) that differs
/// from what the oracle says `op` must report (`want`) is a violation
/// to report, never a fact to fold into the model.
pub fn ack_mismatch<T: PartialEq + Debug>(op: Op, got: &T, want: &T) -> Option<String> {
    (got != want).then(|| format!("{op:?} acknowledged {got:?}, the oracle says {want:?}"))
}

/// Apply `ops` in order to the index and to `acked.model` (an
/// acknowledgement the model disagrees with goes to `acked.errors`)
/// until the injected crash cuts one: its allowance is recorded in
/// `acked.inflight` and `false` returned.
pub fn apply_until_cut(idx: &dyn RangeIndex, ops: &[Op], acked: &mut Acked) -> bool {
    let mut rows = Vec::new();
    for &op in ops {
        let (allowance, want) = InflightAllowance::for_op(op, &mut acked.model);
        let Some(got) = until_cut(|| op.apply(idx, &mut rows)) else {
            acked.inflight.push(allowance);
            return false;
        };
        acked.errors.extend(ack_mismatch(op, &got, &want));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::OpKind;

    #[test]
    fn workload_is_deterministic_and_mixed() {
        let a = workload(9, 500, 128);
        let b = workload(9, 500, 128);
        assert_eq!(a, b);
        let count = |kind| a.iter().filter(|o| o.kind() == kind).count();
        let (inserts, updates, removes) = (
            count(OpKind::Insert),
            count(OpKind::Update),
            count(OpKind::Remove),
        );
        assert!(inserts > updates && updates > 0 && removes > 0);
        assert_eq!(inserts + updates + removes, a.len(), "writes only");
    }

    #[test]
    fn inflight_allowance_covers_all_op_shapes() {
        let mut model = Oracle::new();
        model.insert(5, 50);
        let cut = |op| InflightAllowance::for_op(op, &mut model.clone()).0;
        // Insert on an occupied key is a no-op either way.
        let a = cut(Op::Insert(5, 99));
        assert!(a.allows(Some(50)) && !a.allows(Some(99)) && !a.allows(None));
        // Insert on a fresh key: absent or fully inserted.
        let a = cut(Op::Insert(6, 60));
        assert!(a.allows(None) && a.allows(Some(60)) && !a.allows(Some(61)));
        // Update of an existing key: old or new value, never absent.
        let a = cut(Op::Update(5, 51));
        assert!(a.allows(Some(50)) && a.allows(Some(51)) && !a.allows(None));
        // Update of an absent key changes nothing.
        let a = cut(Op::Update(6, 61));
        assert!(a.allows(None) && !a.allows(Some(61)));
        // Remove: present-with-old-value or gone.
        let a = cut(Op::Remove(5));
        assert!(a.allows(Some(50)) && a.allows(None) && !a.allows(Some(51)));
    }

    #[test]
    fn an_ack_the_oracle_disagrees_with_is_reported_not_folded() {
        /// Acknowledges every insert, present key or not.
        struct Overwrites(index_api::testing::MapIndex);
        impl RangeIndex for Overwrites {
            fn insert(&self, k: u64, v: u64) -> bool {
                self.0.insert(k, v) || self.0.update(k, v)
            }
            fn lookup(&self, k: u64) -> Option<u64> {
                self.0.lookup(k)
            }
            fn update(&self, k: u64, v: u64) -> bool {
                self.0.update(k, v)
            }
            fn remove(&self, k: u64) -> bool {
                self.0.remove(k)
            }
            fn scan(&self, k: u64, n: usize, out: &mut Vec<(u64, u64)>) -> usize {
                self.0.scan(k, n, out)
            }
            fn name(&self) -> &'static str {
                "overwrites"
            }
        }
        let mut acked = Acked::default();
        let ops = [Op::Insert(1, 10), Op::Insert(1, 11), Op::Remove(1)];
        assert!(apply_until_cut(
            &Overwrites(Default::default()),
            &ops,
            &mut acked
        ));
        assert_eq!(acked.errors.len(), 1, "{:?}", acked.errors);
        assert!(
            acked.errors[0].contains("Insert(1, 11)"),
            "{:?}",
            acked.errors
        );
        assert!(acked.model.is_empty() && acked.inflight.is_empty());
    }

    #[test]
    fn probe_counts_events_for_every_kind() {
        for kind in PM_KINDS {
            let s = sweep(
                &single::Single { chaos_seed: None },
                &SweepOptions {
                    kind: kind.to_string(),
                    ops: 60,
                    key_range: 32,
                    pool_mib: 16,
                    max_boundaries: Some(0),
                    ..SweepOptions::default()
                },
            );
            assert!(s.probe_events[0] > 0, "{kind}: no persistence events?");
            assert!(s.counter("insert events") > 0, "{kind}: no insert stats");
            assert_eq!(s.boundaries_tested, 0);
        }
    }
}
