//! Persistence primitives: write-backs, non-temporal stores and fences
//! move data to the persisted image; the dirty bitmap audits what has
//! not been moved yet; a power cycle discards it.

use std::sync::atomic::Ordering;

use super::inject::Access;
use super::{PmPool, CACHELINE, MEDIA_BLOCK};
use crate::config::PersistenceMode;
use crate::inject::PersistEventKind;
use crate::stats;

impl PmPool {
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
    pub(super) fn dirty_lines(&self) -> impl Iterator<Item = u64> + '_ {
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

    /// Run one write-back of the cache line holding word `w` under the
    /// line's lock. The copy is a load/store pair per word, so two
    /// unordered copies of one line could interleave and store a word
    /// loaded before a neighbour's flushed store after that flush
    /// landed; the lock makes them take turns. The acquire makes this
    /// copy see every store the previous holder's copy saw.
    #[inline]
    fn write_back<R>(&self, w: usize, copy: impl FnOnce() -> R) -> R {
        let lock = &self.wb_lock[w / 8];
        while lock.swap(1, Ordering::Acquire) != 0 {
            std::hint::spin_loop();
        }
        let r = copy();
        lock.store(0, Ordering::Release);
        r
    }

    /// Persist one aligned word into the persisted image (8-byte failure
    /// atomicity: words are never torn).
    #[inline]
    pub(super) fn persist_word(&self, off: u64) {
        let w = (off / 8) as usize;
        self.write_back(w, || {
            self.dirty[w / 64].fetch_and(!(1u64 << (w % 64)), Ordering::Relaxed);
            let v = self.cpu[w].load(Ordering::Relaxed);
            self.persisted[w].store(v, Ordering::Relaxed);
        })
    }

    /// Write one whole cache line (64-aligned) back to the persisted
    /// image, clearing its 8 dirty bits with one RMW. Returns the bits
    /// that were set: 0 means the line was already clean.
    #[inline]
    fn persist_line(&self, line_off: u64) -> u64 {
        let w0 = (line_off / 8) as usize;
        let mask = 0xFFu64 << (w0 % 64);
        self.write_back(w0, || {
            let was = self.dirty[w0 / 64].fetch_and(!mask, Ordering::Relaxed) & mask;
            for w in w0..w0 + 8 {
                let v = self.cpu[w].load(Ordering::Relaxed);
                self.persisted[w].store(v, Ordering::Relaxed);
            }
            was
        })
    }

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
        // Media blocks written back: none when persistence is elided.
        let blocks = Self::blocks_in(start, (end - start) as usize) * !elided as u64;
        let lines = || (start..end).step_by(CACHELINE);
        if obs::enabled() {
            // Trace before the persistence event so an injected crash
            // still leaves this flush in the flight-recorder tail.
            // (An elided pool never cleans a line, so it audits none.)
            let clean = !elided && lines().all(|l| self.line_dirty_bits(l) == 0);
            obs::pm_clwb(off, len, blocks * MEDIA_BLOCK as u64, clean);
        }
        let pass = self.gate(Access::Event(PersistEventKind::Clwb), off, len);
        if !pass.effective || elided {
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
        let real = self.cfg.persistence == PersistenceMode::Real;
        let media_bytes = MEDIA_BLOCK as u64 * real as u64;
        obs::pm_ntstore(off, media_bytes);
        // The event comes before the store: at a power cut the
        // instruction never retired, so neither image sees the value.
        let pass = self.account_write(Access::Event(PersistEventKind::Ntstore), off, 8);
        self.word(off).store(v, Ordering::Relaxed);
        if real && pass.effective {
            self.persist_word(off);
            self.stats.count(stats::MEDIA_WRITE_BYTES, media_bytes);
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
        self.gate(Access::Event(PersistEventKind::Sfence), 0, 0);
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
}
