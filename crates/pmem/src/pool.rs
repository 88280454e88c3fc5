//! The emulated PM device: a pool with a CPU image and a persisted image.

use std::cell::Cell;
use std::collections::HashMap;
use std::mem::{align_of, size_of, MaybeUninit};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::config::{PersistenceMode, PmConfig};
use crate::inject::{
    splitmix64, CrashPointHit, CrashReport, MediaError, PersistEventKind, PoisonedRead,
    ResidualLine, ResidualPolicy,
};
use crate::off::PmOff;
use crate::stats::{self, PmStats, PmStatsSnapshot};
use crossbeam_utils::CachePadded;

/// CPU cache-line size; `clwb` operates at this granularity.
pub const CACHELINE: usize = 64;
/// DCPMM internal media granularity (the "XPLine"): every media access
/// moves this many bytes regardless of the request size.
pub const MEDIA_BLOCK: usize = 256;
/// First bytes of every pool reserved for application root pointers
/// (the moral equivalent of PMDK's root object).
pub const ROOT_AREA: u64 = 4096;

/// Marker for plain-old-data types that may live in persistent memory.
///
/// # Safety
///
/// Implementors must guarantee:
/// * `T` is `Copy` and has no padding bytes (every byte is initialized),
/// * `size_of::<T>()` is a multiple of 8 and `align_of::<T>() <= 8`,
/// * any bit pattern read back from PM is a valid `T` (no enums with
///   invalid discriminants, no references, no niches).
pub unsafe trait PmSafe: Copy {}

unsafe impl PmSafe for u64 {}
unsafe impl PmSafe for i64 {}
unsafe impl PmSafe for [u8; 8] {}
unsafe impl PmSafe for [u8; 16] {}
unsafe impl PmSafe for [u8; 32] {}
unsafe impl PmSafe for [u64; 2] {}
unsafe impl PmSafe for [u64; 4] {}

/// Number of entries in the per-thread direct-mapped media-block cache
/// that stands in for the CPU cache hierarchy when accounting media
/// reads. 512 blocks × 256 B = 128 KiB of modelled cache per thread.
const BLOCK_CACHE_SLOTS: usize = 512;

thread_local! {
    /// Direct-mapped cache of recently touched media blocks, tagged with
    /// the owning pool id so multiple pools do not alias. Entry format:
    /// `(pool_id << 40) | (block + 1)`; 0 means empty.
    static BLOCK_CACHE: [Cell<u64>; BLOCK_CACHE_SLOTS] =
        const { [const { Cell::new(0) }; BLOCK_CACHE_SLOTS] };
    /// Last media block touched by this thread (for the sequential-access
    /// latency discount), same tag format.
    static LAST_BLOCK: Cell<u64> = const { Cell::new(0) };
}

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// An emulated persistent-memory pool.
///
/// The pool address space is `[0, len)`, byte-addressed via offsets (see
/// [`PmOff`]). Loads and stores observe the *CPU image*; only data moved
/// to the *persisted image* by [`PmPool::clwb`] / [`PmPool::ntstore_u64`]
/// survives [`PmPool::crash`].
///
/// All accessors take `&self`: the images are arrays of `AtomicU64`, and
/// every access compiles to a plain load/store with the requested
/// ordering. Cross-thread visibility of `Relaxed` data accesses must be
/// established by the caller's own synchronization (locks, acquiring
/// version words, …), exactly as on real hardware.
pub struct PmPool {
    cpu: Box<[AtomicU64]>,
    persisted: Box<[AtomicU64]>,
    len: usize,
    cfg: PmConfig,
    stats: PmStats,
    id: u64,
    chaos_ctr: AtomicU64,
    /// One bit per 8-byte word: set when the CPU image has been written
    /// since the word was last persisted (the durability-audit bitmap).
    dirty: Box<[AtomicU64]>,
    /// Per cache line, the store stamp (the writing thread's own store
    /// count on this pool, see `PmStats::count_write`) of the last store
    /// that touched it. Orders residual candidates by recency so
    /// exhaustive torn-write enumeration can focus on the write
    /// frontier (the lines the in-flight operation just dirtied). Exact
    /// for one writer; lines of different writers interleave by each
    /// writer's own count.
    dirty_seq: Box<[AtomicU64]>,
    gates: CachePadded<Gates>,
    /// Durability audit captured when the injected crash fired.
    report: Mutex<Option<CrashReport>>,
    /// Dirty lines (offset + CPU contents) captured at the instant the
    /// armed crash fired — the residual-image candidate set, snapshotted
    /// before unwinding code can dirty anything else.
    residual: Mutex<Option<Vec<ResidualLine>>>,
    /// One bit per cache line: set when the line is poisoned (reads
    /// raise the emulated machine-check, [`PoisonedRead`]).
    poison: Box<[AtomicU64]>,
    /// Per poisoned line, which of its 8 words have been fully
    /// rewritten; at 0xFF the line's poison clears (real PM clears
    /// poison when the whole line is overwritten).
    poison_fill: Mutex<HashMap<u64, u8>>,
}

/// Lock injection bookkeeping. An injected crash unwinds through
/// arbitrary code, so a poisoned mutex here is expected and harmless.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The words every access checks and only crash/poison injection
/// writes, on a cache line of their own: the unarmed hot path never
/// shares a line with anything a running workload modifies.
#[derive(Default)]
struct Gates {
    /// When set, any access from a non-panicking thread unwinds with
    /// [`CrashPointHit`].
    halted: AtomicBool,
    /// Set once an injected crash fired; freezes the persisted image
    /// until the next [`PmPool::crash`].
    crashed: AtomicBool,
    /// Multi-threaded crash mode: when the armed crash fires, also set
    /// `halted` so other threads unwind ([`PmPool::set_halt_on_crash`]).
    halt_on_crash: AtomicBool,
    /// Crash-point injection: events remaining until the trip (0 = off).
    armed: AtomicU64,
    /// Number of currently poisoned lines.
    poison_lines: AtomicU64,
}

impl PmPool {
    /// Create a pool of `len` bytes (rounded up to a media block),
    /// zero-initialized and fully persisted (a fresh device).
    pub fn new(len: usize, cfg: PmConfig) -> Self {
        let len = crate::align_up(len.max(MEDIA_BLOCK) as u64, MEDIA_BLOCK as u64) as usize;
        let words = len / 8;
        let alloc = |n: usize| -> Box<[AtomicU64]> { (0..n).map(|_| AtomicU64::new(0)).collect() };
        Self {
            cpu: alloc(words),
            persisted: alloc(words),
            len,
            cfg,
            stats: PmStats::new(),
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            chaos_ctr: AtomicU64::new(0),
            dirty: alloc(words.div_ceil(64)),
            dirty_seq: alloc(len / CACHELINE),
            gates: CachePadded::new(Gates::default()),
            report: Mutex::new(None),
            residual: Mutex::new(None),
            poison: alloc((len / CACHELINE).div_ceil(64)),
            poison_fill: Mutex::new(HashMap::new()),
        }
    }

    /// Pool size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty (never true in practice; pools round up
    /// to at least one media block).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The pool configuration.
    #[inline]
    pub fn config(&self) -> &PmConfig {
        &self.cfg
    }

    #[inline]
    fn word(&self, off: u64) -> &AtomicU64 {
        debug_assert_eq!(off % 8, 0, "unaligned u64 access at {off:#x}");
        debug_assert!(
            (off as usize) + 8 <= self.len,
            "PM access out of bounds: {off:#x} + 8 > {:#x}",
            self.len
        );
        &self.cpu[(off / 8) as usize]
    }

    #[inline]
    fn blocks_in(off: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        (off + len as u64 - 1) / MEDIA_BLOCK as u64 - off / MEDIA_BLOCK as u64 + 1
    }

    #[inline]
    fn block_tag(&self, block: u64) -> u64 {
        (self.id << 40) | (block + 1)
    }

    /// Account (and charge latency for) a read of `len` bytes at `off`,
    /// consulting the modelled per-thread cache for media residency.
    #[inline]
    fn account_read(&self, off: u64, len: usize) {
        self.check_halt();
        self.raise_on_poison(off, len);
        let first = off / MEDIA_BLOCK as u64;
        let end = first + Self::blocks_in(off, len);
        let mut missed = 0u64;
        let mut sequential = true;
        BLOCK_CACHE.with(|cache| {
            let last = LAST_BLOCK.get();
            for b in first..end {
                let tag = self.block_tag(b);
                let slot = &cache[(b as usize) & (BLOCK_CACHE_SLOTS - 1)];
                if slot.get() != tag {
                    slot.set(tag);
                    missed += 1;
                    if tag != last && tag != last + 1 {
                        sequential = false;
                    }
                }
            }
            LAST_BLOCK.set(self.block_tag(end - 1));
        });
        self.stats.count_read(len as u64, missed);
        obs::pm_read(off, len, missed * MEDIA_BLOCK as u64);
        if missed > 0 {
            self.cfg.latency.charge_read(missed, sequential);
        }
    }

    /// Account a write of `len` bytes (store-buffer level; media traffic
    /// is accounted at flush time). Populates the modelled cache
    /// (write-allocate).
    #[inline]
    fn account_write(&self, off: u64, len: usize) {
        self.check_halt();
        if self.gates.poison_lines.load(Ordering::Relaxed) != 0 {
            self.note_poison_overwrite(off, len);
        }
        let first = off / MEDIA_BLOCK as u64;
        BLOCK_CACHE.with(|cache| {
            for b in first..first + Self::blocks_in(off, len) {
                cache[(b as usize) & (BLOCK_CACHE_SLOTS - 1)].set(self.block_tag(b));
            }
        });
        let stamp = self.stats.count_write(len as u64);
        obs::pm_write(off, len);
        self.mark_dirty(off, len, stamp);
    }

    // ----- durability audit (dirty-word tracking) --------------------------

    /// Mark the words covering `[off, off + len)` as written-but-unflushed
    /// and stamp their lines with the store's recency `stamp`.
    #[inline]
    fn mark_dirty(&self, off: u64, len: usize, stamp: u64) {
        if len == 0 {
            return;
        }
        let last_byte = off + len as u64 - 1;
        for l in off / CACHELINE as u64..=last_byte / CACHELINE as u64 {
            self.dirty_seq[l as usize].store(stamp, Ordering::Relaxed);
        }
        // One mask per bitmap atom; an atom whose bits are already set
        // (a re-store to a dirty word) needs no RMW at all.
        let (mut w, last) = (off / 8, last_byte / 8);
        while w <= last {
            let atom_last = (w | 63).min(last);
            let mask = (u64::MAX >> (63 - (atom_last - w))) << (w % 64);
            let atom = &self.dirty[(w / 64) as usize];
            if atom.load(Ordering::Relaxed) & mask != mask {
                atom.fetch_or(mask, Ordering::Relaxed);
            }
            w = atom_last + 1;
        }
    }

    /// Dirty bits of the 8 words in the cache line at `line_off`
    /// (64-aligned). A cache line never straddles a bitmap atom.
    #[inline]
    fn line_dirty_bits(&self, line_off: u64) -> u64 {
        let w0 = line_off / 8;
        self.dirty[(w0 / 64) as usize].load(Ordering::Relaxed) & (0xFF << (w0 % 64))
    }

    /// Written-but-unflushed 8-byte words (durability-audit bitmap
    /// population count). Only meaningful in `Real` persistence mode.
    pub fn dirty_word_count(&self) -> u64 {
        self.dirty
            .iter()
            .map(|a| a.load(Ordering::Relaxed).count_ones() as u64)
            .sum()
    }

    /// Offsets of the cache lines with at least one dirty word, ascending.
    fn dirty_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.dirty.iter().enumerate().flat_map(|(i, a)| {
            let bits = a.load(Ordering::Relaxed);
            // An atom covers 8 lines, one 8-bit group each.
            (0..if bits == 0 { 0 } else { 8u64 })
                .filter(move |g| (bits >> (g * 8)) & 0xFF != 0)
                .map(move |g| (i as u64 * 8 + g) * CACHELINE as u64)
        })
    }

    /// Cache lines containing at least one dirty word.
    pub fn dirty_line_count(&self) -> u64 {
        self.dirty_lines().count() as u64
    }

    /// Pool offsets of the first `limit` dirty cache lines, for
    /// diagnostics in the crash-point explorer.
    pub fn dirty_line_offsets(&self, limit: usize) -> Vec<u64> {
        self.dirty_lines().take(limit).collect()
    }

    // ----- crash-point injection -------------------------------------------

    /// Trip the injected crash when the pool is armed and the countdown
    /// reaches this persistence event (which the caller has already
    /// counted in `stats`, where [`PmPool::persist_event_count`] reads
    /// it). Returns `true` when the pool has already crashed (callers
    /// must suppress the persistence effect). Panics with
    /// [`CrashPointHit`] at the trip.
    #[inline]
    fn persistence_event(&self, kind: PersistEventKind) -> bool {
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
            let report = CrashReport {
                event_index: self.persist_event_count(),
                trigger: kind,
                dirty_words: self.dirty_word_count(),
                dirty_lines: self.dirty_line_count(),
                redundant_clwb: self.stats.snapshot().clwb_redundant,
            };
            *lock(&self.report) = Some(report);
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

    // ----- multi-threaded crash (halt-on-crash) ----------------------------

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
    fn check_halt(&self) {
        if self.gates.halted.load(Ordering::Relaxed) {
            self.halt_slow();
        }
    }

    #[cold]
    fn halt_slow(&self) {
        if !std::thread::panicking() {
            std::panic::panic_any(CrashPointHit);
        }
    }

    // ----- residual image --------------------------------------------------

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
    fn power_off(&self) {
        self.gates.armed.store(0, Ordering::Relaxed);
        self.gates.crashed.store(false, Ordering::Relaxed);
        self.gates.halted.store(false, Ordering::Relaxed);
        *lock(&self.residual) = None;
        for a in self.dirty.iter() {
            a.store(0, Ordering::Relaxed);
        }
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Store `words` to the cache line at `line` (64-aligned) in both
    /// images.
    fn set_line(&self, line: u64, words: [u64; 8]) {
        debug_assert_eq!(line % CACHELINE as u64, 0);
        for (j, w) in words.into_iter().enumerate() {
            self.cpu[(line / 8) as usize + j].store(w, Ordering::Relaxed);
            self.persisted[(line / 8) as usize + j].store(w, Ordering::Relaxed);
        }
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

    // ----- media errors (poison) -------------------------------------------

    #[inline]
    fn line_poisoned(&self, line_off: u64) -> bool {
        let l = line_off / CACHELINE as u64;
        self.poison[(l / 64) as usize].load(Ordering::Relaxed) & (1u64 << (l % 64)) != 0
    }

    /// Poison the cache line containing `off`: the media can no longer
    /// return its data. Any read touching the line panics with
    /// [`PoisonedRead`] (the emulated machine-check) until the whole
    /// line has been rewritten (word-granularity stores covering all 8
    /// words) or scrubbed via [`PmPool::scrub_poison`]. The line's
    /// contents are scrambled in both images so partially recovered
    /// lines can never silently read back plausible stale data.
    ///
    /// Poison is a media property: it survives [`PmPool::crash`] /
    /// power cycles, like a real bad block.
    pub fn poison_line(&self, off: u64) {
        let line = off & !(CACHELINE as u64 - 1);
        assert!(
            (line as usize) + CACHELINE <= self.len,
            "poison out of bounds"
        );
        let l = line / CACHELINE as u64;
        let prev = self.poison[(l / 64) as usize].fetch_or(1u64 << (l % 64), Ordering::Relaxed);
        if prev & (1u64 << (l % 64)) == 0 {
            self.gates.poison_lines.fetch_add(1, Ordering::Relaxed);
        }
        lock(&self.poison_fill).remove(&line);
        let junk = |j| splitmix64(0xBAD0_BAD0_0000_0000 ^ line ^ j as u64);
        self.set_line(line, std::array::from_fn(junk));
    }

    /// Currently poisoned cache lines.
    pub fn poisoned_line_count(&self) -> u64 {
        self.gates.poison_lines.load(Ordering::Relaxed)
    }

    /// Clear all poison without touching data (testing/reset helper).
    pub fn clear_all_poison(&self) {
        if self.gates.poison_lines.swap(0, Ordering::Relaxed) != 0 {
            for a in self.poison.iter() {
                a.store(0, Ordering::Relaxed);
            }
        }
        lock(&self.poison_fill).clear();
    }

    /// Probe whether `[off, off + len)` is readable without raising the
    /// emulated machine-check. Recovery paths call this before
    /// interpreting any structure so a media error becomes a graceful
    /// [`MediaError`] ("rebuild or report") instead of consumed garbage.
    pub fn check_readable(&self, off: u64, len: usize) -> Result<(), MediaError> {
        if self.gates.poison_lines.load(Ordering::Relaxed) == 0 || len == 0 {
            return Ok(());
        }
        self.poisoned_lines(off, len).next().map_or(Ok(()), |off| {
            let context = "pm range";
            Err(MediaError { off, context })
        })
    }

    /// The poisoned cache lines touched by `[off, off + len)`, `len > 0`.
    fn poisoned_lines(&self, off: u64, len: usize) -> impl Iterator<Item = u64> + '_ {
        let end = (off + len as u64).min(self.len as u64);
        (off & !(CACHELINE as u64 - 1)..end)
            .step_by(CACHELINE)
            .filter(|&line| self.line_poisoned(line))
    }

    /// Raise the emulated machine-check if `[off, off + len)` touches a
    /// poisoned line. Atomic RMWs call it too: they consume the old
    /// value, so they are reads for poison purposes though they account
    /// as writes.
    #[inline]
    fn raise_on_poison(&self, off: u64, len: usize) {
        #[cold]
        fn walk(pool: &PmPool, off: u64, len: usize) {
            if let Some(off) = pool.poisoned_lines(off, len).next() {
                std::panic::panic_any(PoisonedRead { off });
            }
        }
        if self.gates.poison_lines.load(Ordering::Relaxed) != 0 {
            walk(self, off, len);
        }
    }

    /// Record word-granularity overwrites of poisoned lines; once all 8
    /// words of a line have been fully rewritten its poison clears.
    /// Only words *fully covered* by the write count — a partial-word
    /// write merges with unreadable bytes and cannot clear anything.
    #[cold]
    fn note_poison_overwrite(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        let first = off.div_ceil(8);
        let last_excl = (off + len as u64) / 8;
        if first >= last_excl {
            return;
        }
        let mut fill = lock(&self.poison_fill);
        for w in first..last_excl {
            let line = (w * 8) & !(CACHELINE as u64 - 1);
            if !self.line_poisoned(line) {
                continue;
            }
            let entry = fill.entry(line).or_insert(0u8);
            *entry |= 1 << ((w * 8 - line) / 8);
            if *entry == 0xFF {
                fill.remove(&line);
                self.clear_poison_bit(line);
            }
        }
    }

    fn clear_poison_bit(&self, line: u64) {
        let l = line / CACHELINE as u64;
        let prev = self.poison[(l / 64) as usize].fetch_and(!(1u64 << (l % 64)), Ordering::Relaxed);
        if prev & (1u64 << (l % 64)) != 0 {
            self.gates.poison_lines.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Scrub the lines covering `[off, off + len)`: zero-fill any
    /// poisoned line in both images and clear its poison. This is what
    /// an allocator does when it consults the bad-block list and
    /// re-initializes a block before handing it out — the old contents
    /// are gone, but the media is usable again.
    pub fn scrub_poison(&self, off: u64, len: usize) {
        if self.gates.poison_lines.load(Ordering::Relaxed) == 0 || len == 0 {
            return;
        }
        for line in self.poisoned_lines(off, len) {
            self.set_line(line, [0; 8]);
            lock(&self.poison_fill).remove(&line);
            self.clear_poison_bit(line);
        }
    }

    /// Persist one aligned word into the persisted image (8-byte failure
    /// atomicity: words are never torn).
    #[inline]
    fn persist_word(&self, off: u64) {
        let w = (off / 8) as usize;
        self.dirty[w / 64].fetch_and(!(1u64 << (w % 64)), Ordering::Relaxed);
        let v = self.cpu[w].load(Ordering::Relaxed);
        self.persisted[w].store(v, Ordering::Relaxed);
    }

    /// Write one whole cache line (64-aligned) back to the persisted
    /// image, clearing its 8 dirty bits with one RMW. Returns the bits
    /// that were set: 0 means the line was already clean.
    #[inline]
    fn persist_line(&self, line_off: u64) -> u64 {
        let w0 = (line_off / 8) as usize;
        let mask = 0xFFu64 << (w0 % 64);
        let was = self.dirty[w0 / 64].fetch_and(!mask, Ordering::Relaxed) & mask;
        for w in w0..w0 + 8 {
            let v = self.cpu[w].load(Ordering::Relaxed);
            self.persisted[w].store(v, Ordering::Relaxed);
        }
        was
    }

    /// Eviction chaos: maybe spontaneously persist the word just written.
    #[inline]
    fn maybe_evict(&self, off: u64) {
        if let Some(seed) = self.cfg.eviction_chaos {
            if self.gates.crashed.load(Ordering::Relaxed) {
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
    }

    // ----- plain data accesses -------------------------------------------

    /// Load an aligned `u64` (relaxed; pair with your own synchronization).
    #[inline]
    pub fn read_u64(&self, off: u64) -> u64 {
        self.load_u64(off, Ordering::Relaxed)
    }

    /// Store an aligned `u64` (relaxed). Volatile until flushed.
    #[inline]
    pub fn write_u64(&self, off: u64, v: u64) {
        self.store_u64(off, v, Ordering::Relaxed);
    }

    /// Load an aligned `u64` with an explicit memory ordering.
    #[inline]
    pub fn load_u64(&self, off: u64, order: Ordering) -> u64 {
        self.account_read(off, 8);
        self.word(off).load(order)
    }

    /// Store an aligned `u64` with an explicit memory ordering.
    #[inline]
    pub fn store_u64(&self, off: u64, v: u64, order: Ordering) {
        self.account_write(off, 8);
        self.word(off).store(v, order);
        self.maybe_evict(off);
    }

    /// Compare-and-exchange on an aligned `u64`.
    #[inline]
    pub fn cas_u64(&self, off: u64, current: u64, new: u64) -> Result<u64, u64> {
        self.raise_on_poison(off, 8);
        self.account_write(off, 8);
        let r = self
            .word(off)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire);
        if r.is_ok() {
            self.maybe_evict(off);
        }
        r
    }

    /// The shape the atomic fetch-ops share.
    #[inline]
    fn fetch_op(&self, off: u64, op: impl FnOnce(&AtomicU64) -> u64) -> u64 {
        self.raise_on_poison(off, 8);
        self.account_write(off, 8);
        let r = op(self.word(off));
        self.maybe_evict(off);
        r
    }

    /// Atomic fetch-or on an aligned `u64`.
    #[inline]
    pub fn fetch_or_u64(&self, off: u64, bits: u64, order: Ordering) -> u64 {
        self.fetch_op(off, |w| w.fetch_or(bits, order))
    }

    /// Atomic fetch-and on an aligned `u64`.
    #[inline]
    pub fn fetch_and_u64(&self, off: u64, bits: u64, order: Ordering) -> u64 {
        self.fetch_op(off, |w| w.fetch_and(bits, order))
    }

    /// Atomic fetch-add on an aligned `u64`.
    #[inline]
    pub fn fetch_add_u64(&self, off: u64, v: u64, order: Ordering) -> u64 {
        self.fetch_op(off, |w| w.fetch_add(v, order))
    }

    /// Read `dst.len()` bytes starting at `off` (any alignment).
    pub fn read_bytes(&self, off: u64, dst: &mut [u8]) {
        if dst.is_empty() {
            return;
        }
        self.account_read(off, dst.len());
        // Bytes up to the first word boundary, whole words, the rest.
        let head = (off.wrapping_neg() % 8).min(dst.len() as u64);
        let (head, rest) = dst.split_at_mut(head as usize);
        self.read_within_words(off, head);
        let mut w = (off as usize + head.len()) / 8;
        let mut words = rest.chunks_exact_mut(8);
        for chunk in &mut words {
            chunk.copy_from_slice(&self.cpu[w].load(Ordering::Relaxed).to_le_bytes());
            w += 1;
        }
        self.read_within_words(w as u64 * 8, words.into_remainder());
    }

    fn read_within_words(&self, off: u64, dst: &mut [u8]) {
        for (o, byte) in (off..).zip(dst) {
            let w = self.cpu[(o / 8) as usize].load(Ordering::Relaxed);
            *byte = (w >> ((o % 8) * 8)) as u8;
        }
    }

    /// Write `src` starting at `off` (any alignment). Volatile until
    /// flushed. Unaligned edges use word read-modify-write; concurrent
    /// writers must not share a word, as on real hardware.
    pub fn write_bytes(&self, off: u64, src: &[u8]) {
        if src.is_empty() {
            return;
        }
        self.account_write(off, src.len());
        debug_assert!(
            (off as usize) + src.len() <= self.len,
            "PM write out of bounds"
        );
        // Bytes up to the first word boundary, whole words, the rest.
        let head = (off.wrapping_neg() % 8).min(src.len() as u64);
        let (head, rest) = src.split_at(head as usize);
        let mut o = off;
        let edge = |o: &mut u64, bytes: &[u8]| {
            for &b in bytes {
                self.rmw_byte(*o, b);
                *o += 1;
            }
        };
        edge(&mut o, head);
        let mut words = rest.chunks_exact(8);
        for chunk in &mut words {
            let w = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
            self.cpu[(o / 8) as usize].store(w, Ordering::Relaxed);
            self.maybe_evict(o);
            o += 8;
        }
        edge(&mut o, words.remainder());
    }

    #[inline]
    fn rmw_byte(&self, off: u64, b: u8) {
        let idx = (off / 8) as usize;
        let shift = (off % 8) * 8;
        let w = self.cpu[idx].load(Ordering::Relaxed);
        let w = (w & !(0xffu64 << shift)) | ((b as u64) << shift);
        self.cpu[idx].store(w, Ordering::Relaxed);
        self.maybe_evict(off & !7);
    }

    /// Typed read of a [`PmSafe`] value at an 8-aligned offset.
    pub fn read<T: PmSafe>(&self, off: PmOff<T>) -> T {
        let size = size_of::<T>();
        debug_assert_eq!(size % 8, 0, "PmSafe types must be a multiple of 8 bytes");
        debug_assert!(align_of::<T>() <= 8);
        debug_assert_eq!(off.raw() % 8, 0);
        self.account_read(off.raw(), size);
        let mut buf = MaybeUninit::<T>::uninit();
        let dst = buf.as_mut_ptr() as *mut u64;
        let base = (off.raw() / 8) as usize;
        for i in 0..size / 8 {
            let w = self.cpu[base + i].load(Ordering::Relaxed);
            // SAFETY: dst points at size/8 u64 slots inside `buf`.
            unsafe { dst.add(i).write_unaligned(w) };
        }
        // SAFETY: PmSafe guarantees every bit pattern is a valid T.
        unsafe { buf.assume_init() }
    }

    /// Typed write of a [`PmSafe`] value at an 8-aligned offset.
    /// Volatile until flushed.
    pub fn write<T: PmSafe>(&self, off: PmOff<T>, v: &T) {
        let size = size_of::<T>();
        debug_assert_eq!(size % 8, 0);
        debug_assert_eq!(off.raw() % 8, 0);
        self.account_write(off.raw(), size);
        let src = v as *const T as *const u64;
        let base = (off.raw() / 8) as usize;
        for i in 0..size / 8 {
            // SAFETY: PmSafe guarantees T has no padding, so all bytes
            // are initialized and readable as u64 words.
            let w = unsafe { src.add(i).read_unaligned() };
            self.cpu[base + i].store(w, Ordering::Relaxed);
        }
        self.maybe_evict(off.raw());
    }

    // ----- persistence primitives ----------------------------------------

    /// Write back the cachelines covering `[off, off + len)` to the
    /// persisted image (models `clwb`/`clflushopt` followed by the next
    /// fence; the emulator persists eagerly, which is one of the legal
    /// executions).
    pub fn clwb(&self, off: u64, len: usize) {
        if len == 0 {
            return;
        }
        self.stats.count(stats::CLWB, 1);
        let start = off & !(CACHELINE as u64 - 1);
        let end = crate::align_up(off + len as u64, CACHELINE as u64).min(self.len as u64);
        let elided = self.cfg.persistence == PersistenceMode::Elided;
        let blocks = if elided {
            0
        } else {
            Self::blocks_in(start, (end - start) as usize)
        };
        let lines = || (start..end).step_by(CACHELINE);
        if obs::enabled() {
            // Trace before the persistence event so an injected crash
            // still leaves this flush in the flight-recorder tail.
            let clean = lines().all(|l| self.line_dirty_bits(l) == 0);
            obs::pm_clwb(off, len, blocks * MEDIA_BLOCK as u64, clean);
        }
        // `true`: an injected crash fired earlier, persisted image frozen.
        if self.persistence_event(PersistEventKind::Clwb) || elided {
            return;
        }
        // Durability audit: a write-back whose lines were all already
        // clean did no useful work (pmemcheck's "redundant flush").
        if lines().fold(0, |was, l| was | self.persist_line(l)) == 0 {
            self.stats.count(stats::CLWB_REDUNDANT, 1);
        }
        let media_bytes = blocks * MEDIA_BLOCK as u64;
        self.stats.count(stats::MEDIA_WRITE_BYTES, media_bytes);
        self.cfg.latency.charge_write(blocks, false);
    }

    /// `clwb` + `sfence`: the common "persist this range" idiom.
    #[inline]
    pub fn persist(&self, off: u64, len: usize) {
        self.clwb(off, len);
        self.sfence();
    }

    /// Non-temporal store of an aligned `u64`: reaches both the CPU image
    /// and the persisted image (durable at the next fence; persisted
    /// eagerly here).
    pub fn ntstore_u64(&self, off: u64, v: u64) {
        self.stats.count(stats::NTSTORE, 1);
        obs::pm_ntstore(
            off,
            if self.cfg.persistence == PersistenceMode::Real {
                MEDIA_BLOCK as u64
            } else {
                0
            },
        );
        // Trip before the store: at a power cut the instruction never
        // retired, so neither image sees the value.
        let frozen = self.persistence_event(PersistEventKind::Ntstore);
        self.account_write(off, 8);
        self.word(off).store(v, Ordering::Relaxed);
        if frozen {
            return;
        }
        if self.cfg.persistence == PersistenceMode::Real {
            self.persist_word(off);
            self.stats
                .count(stats::MEDIA_WRITE_BYTES, MEDIA_BLOCK as u64);
            self.cfg.latency.charge_write(1, true);
        }
    }

    /// Store fence. Ordering is inherent in the emulator's eager
    /// persistence, so this only counts (and compiles to a real fence so
    /// cross-thread orderings hold).
    #[inline]
    pub fn sfence(&self) {
        self.stats.count(stats::FENCE, 1);
        obs::pm_fence();
        self.persistence_event(PersistEventKind::Sfence);
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    /// Group-durability commit point for batched serving layers: issue
    /// one store fence and return the pool's persistence-event epoch at
    /// the commit, so callers can correlate an ack batch with the
    /// boundary sweep (`arm_crash_after` counts the same events).
    #[inline]
    pub fn fence_epoch(&self) -> u64 {
        self.sfence();
        self.persist_event_count()
    }

    // ----- root area -------------------------------------------------------

    /// Read root-area slot `slot` (8 bytes each, `slot < 512`).
    #[inline]
    pub fn read_root(&self, slot: u64) -> u64 {
        assert!(slot * 8 < ROOT_AREA, "root slot out of range");
        self.read_u64(slot * 8)
    }

    /// Write and persist root-area slot `slot`.
    pub fn write_root(&self, slot: u64, v: u64) {
        assert!(slot * 8 < ROOT_AREA, "root slot out of range");
        self.write_u64(slot * 8, v);
        self.persist(slot * 8, 8);
    }

    // ----- crash simulation ------------------------------------------------

    /// Simulate a power failure: the CPU image is replaced by the
    /// persisted image, discarding every store that was not flushed.
    ///
    /// The pool must be quiesced (no concurrent accesses); this is a
    /// testing facility, mirroring how one would power-cycle a machine,
    /// not something a live workload can race with.
    pub fn crash(&self) {
        for i in 0..self.cpu.len() {
            let v = self.persisted[i].load(Ordering::Relaxed);
            self.cpu[i].store(v, Ordering::Relaxed);
        }
        self.power_off();
    }

    /// Testing helper: force the entire CPU image to be persisted, as if
    /// every line had been flushed. Useful to establish a clean durable
    /// baseline after a prefill without paying per-line flush costs.
    pub fn persist_all(&self) {
        for i in 0..self.cpu.len() {
            let v = self.cpu[i].load(Ordering::Relaxed);
            self.persisted[i].store(v, Ordering::Relaxed);
        }
        for a in self.dirty.iter() {
            a.store(0, Ordering::Relaxed);
        }
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    // ----- statistics --------------------------------------------------------

    /// Aggregate counters since creation or the last [`PmPool::reset_stats`].
    pub fn stats(&self) -> PmStatsSnapshot {
        self.stats.snapshot()
    }

    /// Zero all counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

impl std::fmt::Debug for PmPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmPool")
            .field("len", &self.len)
            .field("persistence", &self.cfg.persistence)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PmConfig;

    fn pool(len: usize) -> PmPool {
        PmPool::new(len, PmConfig::real())
    }

    #[test]
    fn u64_roundtrip() {
        let p = pool(4096 + 1024);
        p.write_u64(ROOT_AREA, 0xDEAD_BEEF);
        assert_eq!(p.read_u64(ROOT_AREA), 0xDEAD_BEEF);
    }

    #[test]
    fn bytes_roundtrip_unaligned() {
        let p = pool(8192);
        let src: Vec<u8> = (0..100).collect();
        p.write_bytes(ROOT_AREA + 3, &src);
        let mut dst = vec![0u8; 100];
        p.read_bytes(ROOT_AREA + 3, &mut dst);
        assert_eq!(src, dst);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 1];
        p.read_bytes(ROOT_AREA + 2, &mut edge);
        assert_eq!(edge[0], 0);
    }

    #[test]
    fn typed_roundtrip() {
        #[repr(C)]
        #[derive(Copy, Clone, PartialEq, Debug)]
        struct Rec {
            k: u64,
            v: u64,
        }
        unsafe impl PmSafe for Rec {}
        let p = pool(8192);
        let off: PmOff<Rec> = PmOff::new(ROOT_AREA + 64);
        p.write(off, &Rec { k: 7, v: 9 });
        assert_eq!(p.read(off), Rec { k: 7, v: 9 });
    }

    #[test]
    fn unflushed_data_does_not_survive_crash() {
        let p = pool(8192);
        // Distinct cachelines: clwb of the first must not persist the second.
        p.write_u64(ROOT_AREA, 1);
        p.write_u64(ROOT_AREA + CACHELINE as u64, 2);
        p.persist(ROOT_AREA, 8); // only the first line
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 1);
        assert_eq!(
            p.read_u64(ROOT_AREA + CACHELINE as u64),
            0,
            "unflushed store must vanish"
        );
    }

    #[test]
    fn clwb_persists_whole_cachelines() {
        let p = pool(8192);
        // Two words in the same cacheline; flushing a 1-byte range still
        // writes back the whole line.
        p.write_u64(ROOT_AREA, 10);
        p.write_u64(ROOT_AREA + 8, 20);
        p.persist(ROOT_AREA + 8, 1);
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 10);
        assert_eq!(p.read_u64(ROOT_AREA + 8), 20);
    }

    #[test]
    fn ntstore_is_durable() {
        let p = pool(8192);
        p.ntstore_u64(ROOT_AREA, 42);
        p.sfence();
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 42);
    }

    #[test]
    fn crash_is_idempotent_and_repeatable() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 5);
        p.persist(ROOT_AREA, 8);
        p.write_u64(ROOT_AREA, 6); // not persisted
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 5);
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 5);
    }

    #[test]
    fn elided_mode_skips_shadow() {
        let p = PmPool::new(8192, PmConfig::dram());
        p.write_u64(ROOT_AREA, 9);
        p.persist(ROOT_AREA, 8);
        // In DRAM mode the persisted image is never updated...
        p.crash();
        // ...so a crash wipes even "persisted" data back to zero.
        assert_eq!(p.read_u64(ROOT_AREA), 0);
        // But stats still counted the instructions.
        let s = p.stats();
        assert_eq!(s.clwb, 1);
        assert_eq!(s.fence, 1);
    }

    #[test]
    fn stats_media_granularity() {
        let p = pool(1 << 20);
        p.reset_stats();
        // Read one u64: one media block (cold cache).
        let target = 512 * 1024;
        p.read_u64(target);
        let s = p.stats();
        assert_eq!(s.read_ops, 1);
        assert_eq!(s.read_bytes, 8);
        assert_eq!(s.media_read_bytes, MEDIA_BLOCK as u64);
        // Second read of the same block: cache hit, no extra media traffic.
        p.read_u64(target + 8);
        let s2 = p.stats();
        assert_eq!(s2.media_read_bytes, MEDIA_BLOCK as u64);
        assert_eq!(s2.read_bytes, 16);
    }

    #[test]
    fn flush_media_write_accounting() {
        let p = pool(1 << 20);
        p.reset_stats();
        p.write_u64(ROOT_AREA, 1);
        p.persist(ROOT_AREA, 8);
        let s = p.stats();
        assert_eq!(s.media_write_bytes, MEDIA_BLOCK as u64);
        // A flush spanning two media blocks counts both.
        p.write_bytes(MEDIA_BLOCK as u64 * 8 - 4, &[1u8; 8]);
        p.persist(MEDIA_BLOCK as u64 * 8 - 4, 8);
        let s2 = p.stats();
        assert_eq!(s2.media_write_bytes, 3 * MEDIA_BLOCK as u64);
    }

    #[test]
    fn root_slots() {
        let p = pool(8192);
        p.write_root(3, 777);
        p.crash();
        assert_eq!(p.read_root(3), 777);
    }

    #[test]
    #[should_panic(expected = "root slot out of range")]
    fn root_slot_bounds() {
        let p = pool(8192);
        p.write_root(512, 1);
    }

    #[test]
    fn eviction_chaos_persists_some_unflushed_words() {
        let p = PmPool::new(1 << 16, PmConfig::real().with_eviction_chaos(42));
        for i in 0..1000u64 {
            p.write_u64(ROOT_AREA + i * 8, i + 1);
        }
        p.crash();
        let survived = (0..1000u64)
            .filter(|&i| p.read_u64(ROOT_AREA + i * 8) != 0)
            .count();
        // Roughly a quarter should have been spontaneously evicted:
        // definitely some, definitely not all.
        assert!(survived > 50, "survived={survived}");
        assert!(survived < 950, "survived={survived}");
    }

    #[test]
    fn concurrent_counting_and_access() {
        let p = std::sync::Arc::new(pool(1 << 20));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let p = p.clone();
                std::thread::spawn(move || {
                    let base = ROOT_AREA + t * 65536;
                    for i in 0..1000u64 {
                        p.write_u64(base + i * 8, i);
                        p.persist(base + i * 8, 8);
                    }
                    for i in 0..1000u64 {
                        assert_eq!(p.read_u64(base + i * 8), i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = p.stats();
        assert_eq!(s.write_ops, 4000);
        assert_eq!(s.read_ops, 4000);
        assert_eq!(s.clwb, 4000);
    }

    #[test]
    fn clwb_clamps_at_pool_end() {
        let p = pool(4096 + 256);
        let last = p.len() as u64 - 8;
        p.write_u64(last, 77);
        // Flush range extends past the end; must clamp, not panic.
        p.persist(last, 8);
        p.crash();
        assert_eq!(p.read_u64(last), 77);
    }

    #[test]
    fn empty_byte_ops_are_noops() {
        let p = pool(8192);
        p.write_bytes(ROOT_AREA, &[]);
        let mut buf = [0u8; 0];
        p.read_bytes(ROOT_AREA, &mut buf);
        p.clwb(ROOT_AREA, 0);
        assert_eq!(p.stats().clwb, 0, "zero-length clwb not counted");
    }

    #[test]
    fn persist_all_snapshots_everything() {
        let p = pool(8192);
        for i in 0..64u64 {
            p.write_u64(ROOT_AREA + i * 8, i + 1);
        }
        p.persist_all();
        p.write_u64(ROOT_AREA, 999); // unflushed overwrite
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 1);
        assert_eq!(p.read_u64(ROOT_AREA + 63 * 8), 64);
    }

    #[test]
    fn pool_len_rounds_to_media_block() {
        let p = PmPool::new(1000, PmConfig::real());
        assert_eq!(p.len() % MEDIA_BLOCK, 0);
        assert!(p.len() >= 1000);
        assert!(!p.is_empty());
    }

    #[test]
    fn dirty_tracking_counts_unflushed_words() {
        let p = pool(8192);
        assert_eq!(p.dirty_word_count(), 0);
        p.write_u64(ROOT_AREA, 1);
        p.write_u64(ROOT_AREA + 8, 2); // same cache line
        p.write_u64(ROOT_AREA + 128, 3); // different line
        assert_eq!(p.dirty_word_count(), 3);
        assert_eq!(p.dirty_line_count(), 2);
        assert_eq!(p.dirty_line_offsets(8), vec![ROOT_AREA, ROOT_AREA + 128]);
        p.persist(ROOT_AREA, 8); // flushes the whole first line
        assert_eq!(p.dirty_word_count(), 1);
        assert_eq!(p.dirty_line_count(), 1);
        p.crash();
        assert_eq!(p.dirty_word_count(), 0, "crash discards dirty state");
    }

    #[test]
    fn redundant_clwb_is_audited() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 1);
        p.persist(ROOT_AREA, 8);
        assert_eq!(p.stats().clwb_redundant, 0);
        p.persist(ROOT_AREA, 8); // nothing dirty: redundant
        let s = p.stats();
        assert_eq!(s.clwb, 2);
        assert_eq!(s.clwb_redundant, 1);
        // A new store makes the next flush useful again.
        p.write_u64(ROOT_AREA, 2);
        p.persist(ROOT_AREA, 8);
        assert_eq!(p.stats().clwb_redundant, 1);
    }

    #[test]
    fn ntstore_leaves_no_dirt() {
        let p = pool(8192);
        p.ntstore_u64(ROOT_AREA, 42);
        assert_eq!(p.dirty_word_count(), 0);
    }

    #[test]
    fn armed_crash_fires_at_exact_event_and_freezes_pool() {
        let p = pool(8192);
        // Three persistence events per loop iteration: clwb + sfence
        // (via persist) on distinct lines, then an ntstore.
        p.arm_crash_after(5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for i in 0..10u64 {
                let off = ROOT_AREA + i * 64;
                p.write_u64(off, i + 1);
                p.persist(off, 8); // events 1+2, 4+5, ...
                p.ntstore_u64(off + 8, 100 + i); // events 3, 6, ...
            }
        }));
        let payload = result.expect_err("crash point must fire");
        assert!(
            payload.downcast_ref::<crate::CrashPointHit>().is_some(),
            "panic payload must be CrashPointHit"
        );
        assert!(p.crash_fired());
        let report = p.crash_report().expect("report captured");
        assert_eq!(report.event_index, 5);
        assert_eq!(report.trigger, crate::PersistEventKind::Sfence);
        // Iteration 0 fully persisted; iteration 1's clwb (event 4)
        // persisted its line but the fence (event 5) was the trip; the
        // second iteration's ntstore never ran.
        assert_eq!(report.dirty_words, 0, "clwb already cleaned the line");
        // While frozen, persistence is suppressed.
        p.write_u64(ROOT_AREA + 1024, 7);
        p.persist(ROOT_AREA + 1024, 8);
        p.ntstore_u64(ROOT_AREA + 1032, 8);
        p.crash();
        assert_eq!(
            p.read_u64(ROOT_AREA + 1024),
            0,
            "frozen clwb must not persist"
        );
        assert_eq!(
            p.read_u64(ROOT_AREA + 1032),
            0,
            "frozen ntstore must not persist"
        );
        // Pre-crash durable state survived; post-trip events did not.
        assert_eq!(p.read_u64(ROOT_AREA), 1);
        assert_eq!(p.read_u64(ROOT_AREA + 8), 100);
        assert_eq!(
            p.read_u64(ROOT_AREA + 64),
            2,
            "clwb before the fatal fence persisted"
        );
        assert!(!p.crash_fired(), "crash() clears the frozen state");
        assert!(p.crash_report().is_some(), "report survives crash()");
    }

    #[test]
    fn crash_on_ntstore_suppresses_the_store() {
        let p = pool(8192);
        p.arm_crash_after(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.ntstore_u64(ROOT_AREA, 99);
        }));
        assert!(result.is_err());
        assert_eq!(
            p.crash_report().unwrap().trigger,
            crate::PersistEventKind::Ntstore
        );
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 0, "fatal ntstore never retired");
    }

    #[test]
    fn disarm_cancels_pending_crash() {
        let p = pool(8192);
        p.arm_crash_after(3);
        p.write_u64(ROOT_AREA, 1);
        p.persist(ROOT_AREA, 8); // events 1, 2
        assert_eq!(p.crash_events_remaining(), 1);
        p.disarm_crash();
        p.persist(ROOT_AREA, 8); // would have been the fatal event
        assert!(!p.crash_fired());
        assert!(p.crash_report().is_none());
    }

    #[test]
    fn chaos_eviction_is_disabled_while_frozen() {
        let p = PmPool::new(1 << 16, PmConfig::real().with_eviction_chaos(7));
        p.arm_crash_after(1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
        assert!(p.crash_fired());
        // A storm of unflushed writes while frozen: none may persist.
        for i in 0..1000u64 {
            p.write_u64(ROOT_AREA + i * 8, i + 1);
        }
        p.crash();
        for i in 0..1000u64 {
            assert_eq!(p.read_u64(ROOT_AREA + i * 8), 0);
        }
    }

    #[test]
    fn event_counter_is_monotonic_and_probe_friendly() {
        let p = pool(8192);
        let base = p.persist_event_count();
        p.write_u64(ROOT_AREA, 1);
        p.persist(ROOT_AREA, 8);
        p.ntstore_u64(ROOT_AREA + 64, 2);
        p.sfence();
        assert_eq!(p.persist_event_count() - base, 4);
    }

    #[test]
    fn cas_and_fetch_ops() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 10);
        assert_eq!(p.cas_u64(ROOT_AREA, 10, 11), Ok(10));
        assert_eq!(p.cas_u64(ROOT_AREA, 10, 12), Err(11));
        assert_eq!(p.fetch_or_u64(ROOT_AREA, 0x100, Ordering::AcqRel), 11);
        assert_eq!(p.fetch_and_u64(ROOT_AREA, 0xff, Ordering::AcqRel), 0x10b);
        assert_eq!(p.fetch_add_u64(ROOT_AREA, 1, Ordering::AcqRel), 0x0b);
        assert_eq!(p.read_u64(ROOT_AREA), 0x0c);
    }

    #[test]
    fn crash_with_subset_keeps_exactly_the_masked_lines() {
        let p = pool(8192);
        // Three dirty lines, none flushed.
        p.write_u64(ROOT_AREA, 1);
        p.write_u64(ROOT_AREA + 64, 2);
        p.write_u64(ROOT_AREA + 128, 3);
        assert_eq!(p.residual_candidates().len(), 3);
        // Keep only the middle line (candidates are recency-ordered,
        // so bit 1 is the second-most-recent write: ROOT_AREA + 64).
        let n = p.crash_with(crate::ResidualPolicy::Subset { mask: 0b010 });
        assert_eq!(n, 3);
        assert_eq!(p.read_u64(ROOT_AREA), 0, "unselected line vanished");
        assert_eq!(p.read_u64(ROOT_AREA + 64), 2, "selected line persisted");
        assert_eq!(p.read_u64(ROOT_AREA + 128), 0);
        // The applied line is durable: a second plain crash keeps it.
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA + 64), 2);
    }

    #[test]
    fn crash_with_frozen_matches_plain_crash() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 7);
        p.persist(ROOT_AREA, 8);
        p.write_u64(ROOT_AREA + 64, 8); // dirty, unflushed
        p.crash_with(crate::ResidualPolicy::Frozen);
        assert_eq!(p.read_u64(ROOT_AREA), 7);
        assert_eq!(p.read_u64(ROOT_AREA + 64), 0);
    }

    #[test]
    fn sampled_residual_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<u64> {
            let p = pool(1 << 16);
            for i in 0..64u64 {
                p.write_u64(ROOT_AREA + i * 64, i + 1);
            }
            p.crash_with(crate::ResidualPolicy::Sampled {
                seed,
                p_per_256: 128,
            });
            (0..64u64).map(|i| p.read_u64(ROOT_AREA + i * 64)).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same residual image");
        assert_ne!(a, c, "different seed, different subset");
        let survived = a.iter().filter(|&&v| v != 0).count();
        assert!(survived > 8 && survived < 56, "p=50%: survived={survived}");
    }

    #[test]
    fn residual_candidates_are_ordered_most_recent_first() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 1); // line A, oldest write...
        p.write_u64(ROOT_AREA + 64, 2); // line B
        p.write_u64(ROOT_AREA + 128, 3); // line C
        p.write_u64(ROOT_AREA + 8, 4); // ...but A is rewritten last
        let offs: Vec<u64> = p.residual_candidates().iter().map(|l| l.off).collect();
        assert_eq!(offs, vec![ROOT_AREA, ROOT_AREA + 128, ROOT_AREA + 64]);
        // Flushing a line removes it without disturbing the order.
        p.persist(ROOT_AREA + 128, 8);
        let offs: Vec<u64> = p.residual_candidates().iter().map(|l| l.off).collect();
        assert_eq!(offs, vec![ROOT_AREA, ROOT_AREA + 64]);
    }

    #[test]
    fn residual_candidates_are_frozen_at_the_trip_instant() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 1); // dirty at trip time
        p.arm_crash_after(1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
        assert!(p.crash_fired());
        // Post-trip stores (e.g. from unwinding destructors) must not
        // enter the candidate set: they never happened.
        p.write_u64(ROOT_AREA + 512, 99);
        let cands = p.residual_candidates();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].off, ROOT_AREA);
        assert_eq!(cands[0].words[0], 1);
    }

    #[test]
    fn snapshot_restore_roundtrip_resets_everything() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA, 5);
        p.persist(ROOT_AREA, 8);
        let img = p.snapshot_persisted();
        p.write_u64(ROOT_AREA, 6);
        p.persist(ROOT_AREA, 8);
        p.write_u64(ROOT_AREA + 64, 7); // leave dirt
        p.poison_line(ROOT_AREA + 128);
        p.restore_persisted(&img);
        assert_eq!(p.read_u64(ROOT_AREA), 5, "snapshot image restored");
        assert_eq!(p.dirty_word_count(), 0, "restore clears dirt");
        assert_eq!(p.poisoned_line_count(), 0, "restore clears poison");
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 5, "restored image is durable");
    }

    #[test]
    fn poisoned_read_raises_and_check_readable_reports() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA + 256, 11);
        p.persist(ROOT_AREA + 256, 8);
        p.poison_line(ROOT_AREA + 256);
        assert_eq!(p.poisoned_line_count(), 1);
        let err = p
            .check_readable(ROOT_AREA, 1024)
            .expect_err("range covers the poisoned line");
        assert_eq!(err.off, ROOT_AREA + 256);
        assert!(p.check_readable(ROOT_AREA, 64).is_ok());
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read_u64(ROOT_AREA + 256)));
        let payload = r.expect_err("read of poisoned line must raise");
        let mce = payload
            .downcast_ref::<crate::PoisonedRead>()
            .expect("payload is PoisonedRead");
        assert_eq!(mce.off, ROOT_AREA + 256);
        // CAS is a consuming read too.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.cas_u64(ROOT_AREA + 256, 0, 1);
        }));
        assert!(r.is_err(), "RMW on poisoned line must raise");
    }

    #[test]
    fn poison_survives_crash_and_clears_on_full_rewrite() {
        let p = pool(8192);
        p.poison_line(ROOT_AREA + 64);
        p.crash();
        assert_eq!(
            p.poisoned_line_count(),
            1,
            "media errors outlive power cycles"
        );
        // Partial rewrite: still poisoned.
        for j in 0..7u64 {
            p.write_u64(ROOT_AREA + 64 + j * 8, j);
        }
        assert_eq!(p.poisoned_line_count(), 1);
        assert!(p.check_readable(ROOT_AREA + 64, 64).is_err());
        // Final word completes the line: poison clears, data readable.
        p.write_u64(ROOT_AREA + 64 + 56, 7);
        assert_eq!(p.poisoned_line_count(), 0);
        assert!(p.check_readable(ROOT_AREA + 64, 64).is_ok());
        assert_eq!(p.read_u64(ROOT_AREA + 64), 0);
    }

    #[test]
    fn scrub_poison_zero_fills_and_clears() {
        let p = pool(8192);
        p.write_u64(ROOT_AREA + 128, 33);
        p.persist(ROOT_AREA + 128, 8);
        p.poison_line(ROOT_AREA + 128);
        p.scrub_poison(ROOT_AREA + 128, 8);
        assert_eq!(p.poisoned_line_count(), 0);
        assert_eq!(p.read_u64(ROOT_AREA + 128), 0, "scrub zero-fills");
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA + 128), 0, "scrub reaches media");
    }

    #[test]
    fn halt_on_crash_unwinds_later_accesses() {
        let p = pool(8192);
        p.set_halt_on_crash(true);
        p.arm_crash_after(1);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
        assert!(p.is_halted());
        // Any PM access from a non-panicking thread now unwinds: the
        // device is gone.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read_u64(ROOT_AREA)));
        assert!(
            r.unwrap_err()
                .downcast_ref::<crate::CrashPointHit>()
                .is_some(),
            "halted access unwinds with CrashPointHit"
        );
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.write_u64(ROOT_AREA, 1)));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
        assert!(r.is_err());
        // The harness lifts the halt before dropping front-ends.
        p.set_halt_on_crash(false);
        assert!(!p.is_halted());
        p.crash();
        assert_eq!(p.read_u64(ROOT_AREA), 0);
    }
}
