//! Crash injection: the armed countdown over persistence events, the
//! halt that takes the device away from every thread, and the residual
//! image (which dirty lines reach media at the cut). The model is
//! described in [`crate::inject`].

use std::sync::atomic::Ordering;

use super::{PmPool, CACHELINE};
use crate::inject::{CrashPointHit, CrashReport, PersistEventKind, ResidualLine, ResidualPolicy};
use crate::lock;

impl PmPool {
    /// Trip the injected crash when the pool is armed and the countdown
    /// reaches this persistence event (which the caller has already
    /// counted in `stats`, where [`PmPool::persist_event_count`] reads
    /// it). Returns `true` when the pool has already crashed (callers
    /// must suppress the persistence effect). Panics with
    /// [`CrashPointHit`] at the trip.
    #[inline]
    pub(super) fn persistence_event(&self, kind: PersistEventKind) -> bool {
        self.check_halt();
        if self.gates.crashed.load(Ordering::Relaxed) {
            return true;
        }
        if self.gates.armed.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.persistence_event_armed(kind)
    }

    /// Cold path of [`PmPool::persistence_event`]: decrement the armed
    /// countdown and fire when it reaches zero.
    #[cold]
    fn persistence_event_armed(&self, kind: PersistEventKind) -> bool {
        loop {
            let cur = self.gates.armed.load(Ordering::Relaxed);
            if cur == 0 {
                return false; // lost a race with a concurrent trip/disarm
            }
            if self
                .gates
                .armed
                .compare_exchange(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
            {
                continue;
            }
            if cur > 1 {
                return false;
            }
            // This is the fatal event. Halt the device FIRST: once the
            // image freezes, a sibling thread's flushes would be
            // silently suppressed, so if this thread is preempted
            // between freezing and halting, siblings could complete and
            // acknowledge operations that never became durable. Halting
            // first makes every concurrent PM access unwind before it
            // can witness the frozen world; anything a sibling fully
            // flushed before this instant is genuinely durable.
            if self.gates.halt_on_crash.load(Ordering::Relaxed) {
                self.gates.halted.store(true, Ordering::Relaxed);
            }
            // Now freeze the persisted image so nothing that runs
            // during unwinding can persist data, then capture the
            // durability audit and the residual-image candidate set
            // (dirty lines + their CPU contents) before unwinding code
            // can dirty anything else, and unwind.
            self.gates.crashed.store(true, Ordering::Relaxed);
            *lock(&self.report) = Some(CrashReport {
                event_index: self.persist_event_count(),
                trigger: kind,
                dirty_words: self.dirty_word_count(),
                dirty_lines: self.dirty_line_count(),
                redundant_clwb: self.stats.snapshot().clwb_redundant,
            });
            *lock(&self.residual) = Some(self.collect_residual_candidates());
            std::panic::panic_any(CrashPointHit);
        }
    }

    /// Arm the pool to simulate a power failure at the `events`-th
    /// subsequent persistence event (a [`PmPool::clwb`],
    /// [`PmPool::ntstore_u64`] or [`PmPool::sfence`] call; 1-based).
    ///
    /// The fatal event does not take effect: the persisted image is
    /// frozen as of the instant *before* it, and the in-flight
    /// operation is unwound via a panic carrying [`CrashPointHit`].
    /// Catch it with `std::panic::catch_unwind`, then call
    /// [`PmPool::crash`] and run recovery. `arm_crash_after(0)` disarms.
    ///
    /// Event counting is exact for single-threaded exploration runs;
    /// with concurrent writers the trip point is racy but exactly one
    /// event still trips (enable [`PmPool::set_halt_on_crash`] so the
    /// surviving threads unwind too).
    pub fn arm_crash_after(&self, events: u64) {
        *lock(&self.report) = None;
        *lock(&self.residual) = None;
        self.gates.crashed.store(false, Ordering::Relaxed);
        self.gates.halted.store(false, Ordering::Relaxed);
        self.gates.armed.store(events, Ordering::Relaxed);
    }

    /// Disarm a pending injected crash (no-op if none is armed).
    pub fn disarm_crash(&self) {
        self.gates.armed.store(0, Ordering::Relaxed);
    }

    /// Events remaining until the armed crash fires (0 = disarmed).
    pub fn crash_events_remaining(&self) -> u64 {
        self.gates.armed.load(Ordering::Relaxed)
    }

    /// Whether an injected crash has fired and the persisted image is
    /// currently frozen (cleared by [`PmPool::crash`]).
    pub fn crash_fired(&self) -> bool {
        self.gates.crashed.load(Ordering::Relaxed)
    }

    /// The durability audit captured when the last injected crash
    /// fired. Survives [`PmPool::crash`]; cleared by the next
    /// [`PmPool::arm_crash_after`].
    pub fn crash_report(&self) -> Option<CrashReport> {
        *lock(&self.report)
    }

    /// Total persistence events (clwb/ntstore/sfence calls) since pool
    /// creation, summed over the per-thread counters: exact when the
    /// pool is quiesced or driven by one thread. Used by probe runs to
    /// size a boundary sweep.
    #[inline]
    pub fn persist_event_count(&self) -> u64 {
        self.stats.events()
    }

    /// In multi-threaded crash runs, make the device disappear for
    /// *every* thread when the armed crash fires: each surviving
    /// thread's next PM access (load, store, or persistence primitive)
    /// panics with [`CrashPointHit`] too, so no thread can keep
    /// computing against a dead device — and in particular no thread
    /// can spin forever on a lock word the crashed thread left set.
    ///
    /// Threads already unwinding (`std::thread::panicking()`) are
    /// exempt, so destructors that touch the pool during the unwind do
    /// not double-panic and abort.
    ///
    /// The harness must call `set_halt_on_crash(false)` once every
    /// worker has been joined and **before** dropping index/allocator
    /// front-ends: their destructors access the pool from a
    /// non-panicking thread. Disabled by default; disabling also clears
    /// an active halt.
    pub fn set_halt_on_crash(&self, enabled: bool) {
        self.gates.halt_on_crash.store(enabled, Ordering::Relaxed);
        if !enabled {
            self.gates.halted.store(false, Ordering::Relaxed);
        }
    }

    /// Whether the device is currently halted (armed crash fired with
    /// halt-on-crash enabled; every PM access unwinds).
    pub fn is_halted(&self) -> bool {
        self.gates.halted.load(Ordering::Relaxed)
    }

    #[inline]
    pub(super) fn check_halt(&self) {
        if self.gates.halted.load(Ordering::Relaxed) && !std::thread::panicking() {
            std::panic::panic_any(CrashPointHit);
        }
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
        if self.gates.crashed.load(Ordering::Relaxed) {
            if let Some(c) = lock(&self.residual).as_ref() {
                return c.clone();
            }
        }
        self.collect_residual_candidates()
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
    /// and the dirty bitmap. The captured crash report survives for
    /// inspection, and poison survives too — media errors outlive power
    /// cycles.
    pub(super) fn power_off(&self) {
        self.gates.armed.store(0, Ordering::Relaxed);
        self.gates.crashed.store(false, Ordering::Relaxed);
        self.gates.halted.store(false, Ordering::Relaxed);
        *lock(&self.residual) = None;
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
        let kept: Vec<ResidualLine> = cands
            .iter()
            .zip(keep.iter())
            .filter(|(_, &k)| k)
            .map(|(l, _)| *l)
            .collect();
        self.apply_residual_lines(&kept);
        cands.len()
    }
}
