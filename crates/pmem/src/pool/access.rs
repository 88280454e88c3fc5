//! The data path: loads and stores against the CPU image, and what
//! each one is counted and charged as.

use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

use super::inject::{Access, Pass};
use super::{PmPool, CACHELINE, MEDIA_BLOCK};

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
    /// latency discount of its next access), same tag format.
    static LAST_BLOCK: Cell<u64> = const { Cell::new(0) };
}

impl PmPool {
    #[inline]
    pub(super) fn blocks_in(off: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        (off + len as u64 - 1) / MEDIA_BLOCK as u64 - off / MEDIA_BLOCK as u64 + 1
    }

    #[inline]
    fn block_tag(&self, block: u64) -> u64 {
        (self.id << 40) | (block + 1)
    }

    /// Pass the gate, then account (and charge latency for) a read of
    /// `len > 0` bytes at `off`.
    #[inline]
    fn account_read(&self, off: u64, len: usize) {
        self.gate(Access::Read, off, len);
        let (random, sequential) = self.read_misses(off, len);
        let missed = random + sequential;
        self.stats.count_read(len as u64, missed);
        obs::pm_read(off, len, missed * MEDIA_BLOCK as u64);
        if missed > 0 {
            self.cfg.latency.charge_read(random, sequential);
        }
    }

    /// The media blocks of a read of `len > 0` bytes at `off` that miss
    /// the modelled per-thread cache, as `(random, sequential)`, and
    /// the cache and last block updated past them. A block is
    /// sequential when it is the block touched just before it or that
    /// block's successor: the read's first block is compared with the
    /// thread's last block, every later one with the block before it in
    /// the read. So a k-block read costs what k one-block reads of the
    /// same blocks cost.
    #[inline]
    pub(super) fn read_misses(&self, off: u64, len: usize) -> (u64, u64) {
        let first = off / MEDIA_BLOCK as u64;
        let end = first + Self::blocks_in(off, len);
        let (mut random, mut sequential) = (0u64, 0u64);
        BLOCK_CACHE.with(|cache| {
            let mut prev = LAST_BLOCK.get();
            for b in first..end {
                let tag = self.block_tag(b);
                let slot = &cache[(b as usize) & (BLOCK_CACHE_SLOTS - 1)];
                if slot.get() != tag {
                    slot.set(tag);
                    if tag == prev || tag == prev + 1 {
                        sequential += 1;
                    } else {
                        random += 1;
                    }
                }
                prev = tag;
            }
            LAST_BLOCK.set(prev);
        });
        (random, sequential)
    }

    /// Pass the gate as a `kind` of write, then account a write of
    /// `len` bytes (store-buffer level; media traffic is accounted at
    /// flush time). Populates the modelled cache (write-allocate). The
    /// caller calls [`Pass::stored`] after each word it stores.
    #[inline]
    pub(super) fn account_write(&self, kind: Access, off: u64, len: usize) -> Pass<'_> {
        let pass = self.gate(kind, off, len);
        let first = off / MEDIA_BLOCK as u64;
        BLOCK_CACHE.with(|cache| {
            for b in first..first + Self::blocks_in(off, len) {
                cache[(b as usize) & (BLOCK_CACHE_SLOTS - 1)].set(self.block_tag(b));
            }
        });
        let stamp = self.stats.count_write(len as u64);
        obs::pm_write(off, len);
        self.mark_dirty(off, len, stamp);
        pass
    }

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
        let pass = self.account_write(Access::Write, off, 8);
        self.word(off).store(v, order);
        pass.stored(off);
    }

    /// Compare-and-exchange on an aligned `u64`.
    #[inline]
    pub fn cas_u64(&self, off: u64, current: u64, new: u64) -> Result<u64, u64> {
        let pass = self.account_write(Access::Rmw, off, 8);
        let r = self
            .word(off)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire);
        if r.is_ok() {
            pass.stored(off);
        }
        r
    }

    /// The shape the atomic fetch-ops share.
    #[inline]
    fn fetch_op(&self, off: u64, op: impl FnOnce(&AtomicU64) -> u64) -> u64 {
        let pass = self.account_write(Access::Rmw, off, 8);
        let r = op(self.word(off));
        pass.stored(off);
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
        let pass = self.account_write(Access::Write, off, src.len());
        debug_assert!(
            off as usize + src.len() <= self.len,
            "PM write out of bounds"
        );
        // Bytes up to the first word boundary, whole words, the rest.
        let head = (off.wrapping_neg() % 8).min(src.len() as u64);
        let (head, rest) = src.split_at(head as usize);
        self.write_within_words(off, head, &pass);
        let mut o = off + head.len() as u64;
        let mut words = rest.chunks_exact(8);
        for chunk in &mut words {
            let w = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
            self.cpu[(o / 8) as usize].store(w, Ordering::Relaxed);
            pass.stored(o);
            o += 8;
        }
        self.write_within_words(o, words.remainder(), &pass);
    }

    fn write_within_words(&self, off: u64, src: &[u8], pass: &Pass) {
        for (o, &b) in (off..).zip(src) {
            let (word, shift) = (&self.cpu[(o / 8) as usize], (o % 8) * 8);
            let w = word.load(Ordering::Relaxed);
            word.store(
                (w & !(0xff << shift)) | ((b as u64) << shift),
                Ordering::Relaxed,
            );
            pass.stored(o & !7);
        }
    }

    /// Read `dst.len()` words starting at the 8-aligned `off`: one
    /// access of `8 · dst.len()` bytes, none when `dst` is empty.
    #[inline]
    pub fn read_words(&self, off: u64, dst: &mut [u64]) {
        debug_assert_eq!(off % 8, 0);
        if dst.is_empty() {
            return;
        }
        self.account_read(off, dst.len() * 8);
        let cells = &self.cpu[(off / 8) as usize..][..dst.len()];
        for (w, cell) in dst.iter_mut().zip(cells) {
            *w = cell.load(Ordering::Relaxed);
        }
    }

    /// Read the words of `[lo, hi)` (8-aligned) one media block per
    /// access, the highest block first, and hand each block's copy to
    /// `f(off, words)` (`off` is the offset of `words[0]`) until `f`
    /// breaks: a newest-first search of an append-ordered array that
    /// reads no block past the one holding its answer.
    #[inline]
    pub fn read_blocks_rev<B>(
        &self,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(u64, &[u64]) -> ControlFlow<B>,
    ) -> Option<B> {
        let mut buf = [0u64; MEDIA_BLOCK / 8];
        let mut end = hi;
        while end > lo {
            let start = ((end - 1) & !(MEDIA_BLOCK as u64 - 1)).max(lo);
            let words = &mut buf[..((end - start) / 8) as usize];
            self.read_words(start, words);
            if let ControlFlow::Break(b) = f(start, words) {
                return Some(b);
            }
            end = start;
        }
        None
    }

    /// Write `src` as words starting at the 8-aligned `off`: one access
    /// of `8 · src.len()` bytes. Volatile until flushed.
    #[inline]
    pub fn write_words(&self, off: u64, src: &[u64]) {
        debug_assert_eq!(off % 8, 0);
        let pass = self.account_write(Access::Write, off, src.len() * 8);
        let cells = &self.cpu[(off / 8) as usize..][..src.len()];
        for (cell, &w) in cells.iter().zip(src) {
            cell.store(w, Ordering::Relaxed);
        }
        pass.stored(off);
    }
}
