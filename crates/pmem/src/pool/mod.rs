//! The emulated PM device: a pool with a CPU image and a persisted image.
//!
//! This module holds the pool itself; its behaviour lives in
//! [`access`] (loads, stores and their accounting), [`persist`]
//! (flushes, fences, the dirty bitmap, power cycles), [`inject`] (the
//! fault gate, armed crashes and residual images) and [`poison`] (media
//! errors).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;

use crossbeam_utils::CachePadded;

use crate::config::PmConfig;
use crate::inject::{CrashReport, ResidualLine};
use crate::stats::PmStats;
use crate::PmStatsSnapshot;

mod access;
mod inject;
mod persist;
mod poison;
#[cfg(test)]
mod tests;

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

static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(1);

/// An emulated persistent-memory pool.
///
/// The pool address space is `[0, len)`, byte-addressed via offsets (see
/// [`crate::PmOff`]). Loads and stores observe the *CPU image*; only data moved
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
    /// Per cache line, the stamp (`PmStats::count_write`: the writing
    /// thread's own store count) of the last store that touched it.
    /// Orders residual candidates by recency so exhaustive torn-write
    /// enumeration can focus on the write frontier (the lines the
    /// in-flight operation just dirtied); exact for one writer.
    dirty_seq: Box<[AtomicU64]>,
    /// One lock byte per cache line, held while a write-back copies the
    /// line into the persisted image: two threads flushing one line
    /// copy it one after the other, so neither can write back a word it
    /// loaded before its neighbour's flushed store.
    wb_lock: Box<[AtomicU8]>,
    gates: CachePadded<Gates>,
    /// What the armed crash captured at its trip: the durability audit
    /// and the residual-image candidates (dirty lines + their CPU
    /// contents), snapshotted before unwinding code can dirty anything
    /// else.
    cut: Mutex<Option<(CrashReport, Vec<ResidualLine>)>>,
    /// The poisoned cache lines (reads raise the emulated
    /// machine-check, [`crate::PoisonedRead`]), each with the mask of
    /// its 8 words fully rewritten since; at 0xFF the line's poison
    /// clears (real PM clears poison when the whole line is
    /// overwritten).
    poison: Mutex<HashMap<u64, u8>>,
}

/// The fault state every access checks, on a cache line of its own:
/// only injection writes it, so the unarmed hot path never shares a
/// line with anything a running workload modifies.
#[derive(Default)]
struct Gates {
    /// The fault word: one bit per active fault (`inject::HALTED`,
    /// `FROZEN`, `ARMED`, `POISONED`, `CHAOS`). The data path reads
    /// this word and nothing else; 0 means no fault is active.
    faults: AtomicU64,
    /// Crash-point injection: events remaining until the trip (0 = off).
    countdown: AtomicU64,
}

impl PmPool {
    /// Create a pool of `len` bytes (rounded up to a media block),
    /// zero-initialized and fully persisted (a fresh device).
    pub fn new(len: usize, cfg: PmConfig) -> Self {
        let len = crate::align_up(len.max(MEDIA_BLOCK) as u64, MEDIA_BLOCK as u64) as usize;
        let words = len / 8;
        let alloc = |n: usize| -> Box<[AtomicU64]> { (0..n).map(|_| AtomicU64::new(0)).collect() };
        let chaos = cfg.eviction_chaos.map_or(0, |_| inject::CHAOS);
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
            wb_lock: (0..len / CACHELINE).map(|_| AtomicU8::new(0)).collect(),
            gates: CachePadded::new(Gates {
                faults: AtomicU64::new(chaos),
                ..Gates::default()
            }),
            cut: Mutex::new(None),
            poison: Mutex::new(HashMap::new()),
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

    /// Store `words` to the cache line at `line` (64-aligned) in both
    /// images.
    fn set_line(&self, line: u64, words: [u64; 8]) {
        debug_assert_eq!(line % CACHELINE as u64, 0);
        for (j, w) in words.into_iter().enumerate() {
            self.cpu[(line / 8) as usize + j].store(w, Ordering::Relaxed);
            self.persisted[(line / 8) as usize + j].store(w, Ordering::Relaxed);
        }
    }

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
