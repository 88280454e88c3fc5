//! Fault injection: the gate every access passes, the armed countdown
//! over persistence events, the halt that takes the device away from
//! every thread, eviction chaos, and the residual image (which dirty
//! lines reach media at the cut). The model is described in
//! [`crate::inject`].

use std::sync::atomic::Ordering;

use super::{PmPool, CACHELINE};
use crate::inject::{CrashPointHit, CrashReport, PersistEventKind, ResidualLine, ResidualPolicy};
use crate::lock;

/// Fault-word bit: every access from a thread that is not unwinding
/// panics with [`CrashPointHit`] (the device is gone).
pub(super) const HALTED: u64 = 1;
/// Fault-word bit: an injected crash fired; persistence events take no
/// effect until the next power cycle.
pub(super) const FROZEN: u64 = 1 << 1;
/// Fault-word bit: a crash is armed; persistence events count down.
pub(super) const ARMED: u64 = 1 << 2;
/// Fault-word bit: at least one cache line is poisoned.
pub(super) const POISONED: u64 = 1 << 3;
/// Fault-word bit: eviction chaos is on (set at construction).
pub(super) const CHAOS: u64 = 1 << 4;

/// What kind of access passes [`PmPool::gate`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Access {
    Read,
    Write,
    /// An atomic read-modify-write: it consumes the old value, so it is
    /// a read for poison purposes though it accounts as a write.
    Rmw,
    /// A persistence event (a non-temporal store also writes its word).
    Event(PersistEventKind),
}

/// What the gate hands back to the access that passed it.
pub(super) struct Pass<'a> {
    /// Whether a persistence event takes effect (false once the
    /// persisted image is frozen by a fired crash).
    pub(super) effective: bool,
    /// The pool, when each store may be spontaneously evicted.
    evicts: Option<&'a PmPool>,
}

impl Pass<'_> {
    /// No fault active: events take effect, stores stay volatile.
    const CLEAR: Pass<'static> = Pass {
        effective: true,
        evicts: None,
    };

    /// Call after each store to the word holding `off`.
    #[inline(always)]
    pub(super) fn stored(&self, off: u64) {
        if let Some(pool) = self.evicts {
            pool.maybe_evict(off);
        }
    }
}

impl PmPool {
    /// The fault word.
    #[inline(always)]
    pub(super) fn faults(&self) -> u64 {
        self.gates.faults.load(Ordering::Relaxed)
    }

    /// Set the fault bits `on` and clear the bits `off` in one RMW.
    pub(super) fn set_faults(&self, on: u64, off: u64) {
        let update = |w: u64| Some(w & !off | on);
        let _ = self
            .gates
            .faults
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, update);
    }

    /// The fault gate of the data path, passed before a `kind` of
    /// access to `len` bytes at `off`: one relaxed load of the fault
    /// word and, while no fault that concerns the access is active,
    /// nothing else.
    #[inline(always)]
    pub(super) fn gate(&self, kind: Access, off: u64, len: usize) -> Pass<'_> {
        // Only persistence events consult the countdown and the freeze.
        let concerns = match kind {
            Access::Event(_) => !0,
            _ => !(ARMED | FROZEN),
        };
        match self.faults() & concerns {
            0 => Pass::CLEAR,
            f => self.faulted(f, kind, off, len),
        }
    }

    /// The gate with fault bits `f` set: the halt, poison raised
    /// on a consuming read, poison overwrite tracking on a store, the
    /// armed countdown and the freeze on a persistence event, and
    /// eviction chaos after each stored word.
    #[cold]
    #[inline(never)]
    fn faulted(&self, f: u64, kind: Access, off: u64, len: usize) -> Pass<'_> {
        let poisoned = f & POISONED != 0;
        if poisoned && kind == Access::Rmw {
            self.raise_on_poison(off, len);
        }
        if f & HALTED != 0 && !std::thread::panicking() {
            std::panic::panic_any(CrashPointHit);
        }
        if poisoned && kind == Access::Read {
            self.raise_on_poison(off, len);
        }
        let effective = match kind {
            Access::Event(event) => !self.persistence_event(f, event),
            _ => true,
        };
        let stores = matches!(kind, Access::Write | Access::Rmw);
        if poisoned && (stores || kind == Access::Event(PersistEventKind::Ntstore)) {
            self.note_poison_overwrite(off, len);
        }
        let evicts = (stores && f & CHAOS != 0).then_some(self);
        Pass { effective, evicts }
    }

    /// Eviction chaos: maybe spontaneously persist the word just written
    /// (never while the persisted image is frozen).
    fn maybe_evict(&self, off: u64) {
        let seed = self.cfg.eviction_chaos.expect("chaos seed");
        if self.faults() & FROZEN != 0 {
            return;
        }
        let n = self.chaos_ctr.fetch_add(1, Ordering::Relaxed);
        // SplitMix64-style mix of (seed, off, n).
        let mut x = seed ^ off.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ n;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        if x & 3 == 0 {
            self.persist_word(off & !7);
        }
    }

    /// A persistence event (already counted in `stats`, where
    /// [`PmPool::persist_event_count`] reads it) under fault word `f`.
    /// Returns `true` when the persisted image is frozen (the event
    /// must take no effect); trips the armed crash when the countdown
    /// reaches this event, panicking with [`CrashPointHit`].
    fn persistence_event(&self, f: u64, kind: PersistEventKind) -> bool {
        if f & FROZEN != 0 {
            return true;
        }
        if f & ARMED == 0 {
            return false;
        }
        let countdown = &self.gates.countdown;
        let step = |cur: u64| cur.checked_sub(1);
        // Not yet, or lost a race with a concurrent trip/disarm.
        if countdown.fetch_update(Ordering::Relaxed, Ordering::Relaxed, step) != Ok(1) {
            return false;
        }
        // This is the fatal event. Halt and freeze in one store: once
        // the image freezes, a sibling thread's flushes would be
        // silently suppressed, so siblings must not complete and
        // acknowledge operations that never became durable. The halt
        // makes every concurrent PM access unwind before it can
        // witness the frozen world; anything a sibling fully flushed
        // before this instant is genuinely durable.
        self.set_faults(HALTED | FROZEN, ARMED);
        // Capture the durability audit and the residual-image candidate
        // set before unwinding code can dirty anything else, and unwind.
        let report = CrashReport {
            event_index: self.persist_event_count(),
            trigger: kind,
            dirty_words: self.dirty_word_count(),
            dirty_lines: self.dirty_line_count(),
            redundant_clwb: self.stats.snapshot().clwb_redundant,
        };
        *lock(&self.cut) = Some((report, self.collect_residual_candidates()));
        std::panic::panic_any(CrashPointHit);
    }

    /// Arm the pool to simulate a power failure at the `events`-th
    /// subsequent persistence event (a [`PmPool::clwb`],
    /// [`PmPool::ntstore_u64`] or [`PmPool::sfence`] call; 1-based).
    ///
    /// The fatal event does not take effect: the persisted image is
    /// frozen as of the instant *before* it, and the in-flight
    /// operation is unwound via a panic carrying [`CrashPointHit`].
    /// From then on the device is halted: every PM access from a thread
    /// that is not unwinding panics with [`CrashPointHit`] too, until
    /// [`PmPool::disarm_crash`] lifts the halt (keeping the frozen
    /// image) or a power cycle clears both. Catch the unwind with
    /// `std::panic::catch_unwind`, call `disarm_crash` before anything
    /// else touches the pool (front-end destructors included), then
    /// [`PmPool::crash`] and run recovery. `arm_crash_after(0)`
    /// disarms.
    ///
    /// Event counting is exact for single-threaded exploration runs;
    /// with concurrent writers the trip point is racy but exactly one
    /// event still trips, and the halt unwinds the surviving threads at
    /// their next PM access, so none can spin forever on a lock word
    /// the crashed thread left set.
    pub fn arm_crash_after(&self, events: u64) {
        *lock(&self.cut) = None;
        self.gates.countdown.store(events, Ordering::Relaxed);
        self.set_faults(if events > 0 { ARMED } else { 0 }, ARMED | HALTED | FROZEN);
    }

    /// Disarm a pending injected crash and lift the halt of one that
    /// fired; the persisted image stays frozen until the next power
    /// cycle ([`PmPool::crash`]).
    pub fn disarm_crash(&self) {
        self.gates.countdown.store(0, Ordering::Relaxed);
        self.set_faults(0, ARMED | HALTED);
    }

    /// Events remaining until the armed crash fires (0 = disarmed).
    pub fn crash_events_remaining(&self) -> u64 {
        self.gates.countdown.load(Ordering::Relaxed)
    }

    /// Whether an injected crash has fired and the persisted image is
    /// currently frozen (cleared by [`PmPool::crash`]).
    pub fn crash_fired(&self) -> bool {
        self.faults() & FROZEN != 0
    }

    /// The durability audit captured when the last injected crash
    /// fired. Survives [`PmPool::crash`]; cleared by the next
    /// [`PmPool::arm_crash_after`].
    pub fn crash_report(&self) -> Option<CrashReport> {
        lock(&self.cut).as_ref().map(|(report, _)| *report)
    }

    /// Total persistence events (clwb/ntstore/sfence calls) since pool
    /// creation, summed over the per-thread counters: exact when the
    /// pool is quiesced or driven by one thread. Used by probe runs to
    /// size a boundary sweep.
    #[inline]
    pub fn persist_event_count(&self) -> u64 {
        self.stats.events()
    }

    /// Walk the dirty bitmap and capture every dirty line with its
    /// current CPU contents, ordered most-recently-written first (ties
    /// broken by offset). Recency ordering lets subset enumeration
    /// cover the write frontier even when long-lived unflushed lines
    /// (volatile locks, runtime counters living in PM) inflate the
    /// total candidate count.
    fn collect_residual_candidates(&self) -> Vec<ResidualLine> {
        let mut out: Vec<(u64, ResidualLine)> = self
            .dirty_lines()
            .map(|off| {
                let w0 = (off / 8) as usize;
                let words = std::array::from_fn(|j| self.cpu[w0 + j].load(Ordering::Relaxed));
                let seq = self.dirty_seq[(off / CACHELINE as u64) as usize].load(Ordering::Relaxed);
                (seq, ResidualLine { off, words })
            })
            .collect();
        out.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.off.cmp(&b.1.off)));
        out.into_iter().map(|(_, l)| l).collect()
    }

    /// The residual-image candidate set: every dirty (written but
    /// unflushed) cache line that *could* have made it to media at a
    /// power cut, with the contents it would land with. Candidates are
    /// ordered most-recently-written first, so [`ResidualPolicy::Subset`]
    /// mask bit `i` addresses the `i`-th most recent line — enumerating
    /// small masks exhaustively covers the write frontier.
    ///
    /// After an armed crash fired this returns the set captured at the
    /// trip instant (unwinding may have dirtied more lines since — those
    /// stores never happened in the crashed execution). On a live pool
    /// it is computed from the current dirty bitmap, which is what a
    /// torture-style [`PmPool::crash_with`] needs.
    pub fn residual_candidates(&self) -> Vec<ResidualLine> {
        match lock(&self.cut).as_ref() {
            Some((_, cands)) if self.crash_fired() => cands.clone(),
            _ => self.collect_residual_candidates(),
        }
    }

    /// Snapshot the persisted image, so a harness can run several
    /// residual samples (restore → apply → recover) per crash without
    /// replaying the workload.
    pub fn snapshot_persisted(&self) -> Vec<u64> {
        self.persisted
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .collect()
    }

    /// Reset both images to a snapshot taken by
    /// [`PmPool::snapshot_persisted`], discarding all volatile state,
    /// injection state, and poison — a fresh power-on of that image.
    pub fn restore_persisted(&self, img: &[u64]) {
        assert_eq!(img.len(), self.persisted.len(), "snapshot size mismatch");
        for (i, &w) in img.iter().enumerate() {
            self.persisted[i].store(w, Ordering::Relaxed);
            self.cpu[i].store(w, Ordering::Relaxed);
        }
        self.clear_all_poison();
        self.power_off();
    }

    /// What dies with the CPU image at a power cut: the injection state
    /// (countdown, halt, freeze) and the dirty bitmap. The captured
    /// crash report survives for inspection, and poison survives too —
    /// media errors outlive power cycles.
    pub(super) fn power_off(&self) {
        self.gates.countdown.store(0, Ordering::Relaxed);
        self.set_faults(0, ARMED | HALTED | FROZEN);
        for a in self.dirty.iter() {
            a.store(0, Ordering::Relaxed);
        }
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Write the given lines into both images: these lines *did* reach
    /// media at the power cut. Call after [`PmPool::crash`] or
    /// [`PmPool::restore_persisted`] with the subset a
    /// [`ResidualPolicy`] selected.
    pub fn apply_residual_lines(&self, lines: &[ResidualLine]) {
        for l in lines {
            self.set_line(l.off, l.words);
        }
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// [`PmPool::crash`], but with a configurable residual image: the
    /// dirty lines at the crash instant each persist or vanish according
    /// to `policy` instead of all vanishing. `ResidualPolicy::Frozen`
    /// is exactly `crash()`.
    ///
    /// Returns the number of residual candidates, so callers can log
    /// how large the sampled space was.
    pub fn crash_with(&self, policy: ResidualPolicy) -> usize {
        let cands = self.residual_candidates();
        let keep = policy.select(cands.len());
        self.crash();
        let kept: Vec<_> = cands
            .iter()
            .zip(keep)
            .filter_map(|(l, k)| k.then_some(*l))
            .collect();
        self.apply_residual_lines(&kept);
        cands.len()
    }
}
