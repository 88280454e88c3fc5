//! Media errors: poisoned cache lines that raise on read until they
//! are fully rewritten or scrubbed.

use std::sync::atomic::Ordering;

use super::{PmPool, CACHELINE};
use crate::inject::{splitmix64, MediaError, PoisonedRead};
use crate::lock;

impl PmPool {
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
    pub(super) fn raise_on_poison(&self, off: u64, len: usize) {
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
    pub(super) fn note_poison_overwrite(&self, off: u64, len: usize) {
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
}
