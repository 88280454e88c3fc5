//! Media errors: poisoned cache lines that raise on read until they
//! are fully rewritten or scrubbed.

use std::collections::HashMap;

use super::inject::POISONED;
use super::{PmPool, CACHELINE};
use crate::inject::{splitmix64, MediaError, PoisonedRead};
use crate::lock;

impl PmPool {
    /// Keep the fault word's poison bit equal to "some line is
    /// poisoned"; called with the poison map locked.
    fn sync_poison_bit(&self, lines: &HashMap<u64, u8>) {
        let bit = if lines.is_empty() { 0 } else { POISONED };
        self.set_faults(bit, POISONED);
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
        let mut lines = lock(&self.poison);
        lines.insert(line, 0);
        self.sync_poison_bit(&lines);
        let junk = |j| splitmix64(0xBAD0_BAD0_0000_0000 ^ line ^ j as u64);
        self.set_line(line, std::array::from_fn(junk));
    }

    /// Currently poisoned cache lines.
    pub fn poisoned_line_count(&self) -> u64 {
        lock(&self.poison).len() as u64
    }

    /// Clear all poison without touching data.
    pub(super) fn clear_all_poison(&self) {
        let mut lines = lock(&self.poison);
        lines.clear();
        self.sync_poison_bit(&lines);
    }

    /// Probe whether `[off, off + len)` is readable without raising the
    /// emulated machine-check. Recovery paths call this before
    /// interpreting any structure so a media error becomes a graceful
    /// [`MediaError`] ("rebuild or report") instead of consumed garbage.
    pub fn check_readable(&self, off: u64, len: usize) -> Result<(), MediaError> {
        self.first_poisoned(off, len).map_or(Ok(()), |off| {
            let context = "pm range";
            Err(MediaError { off, context })
        })
    }

    /// The first poisoned cache line touched by `[off, off + len)`.
    fn first_poisoned(&self, off: u64, len: usize) -> Option<u64> {
        if self.faults() & POISONED == 0 || len == 0 {
            return None;
        }
        let end = (off + len as u64).min(self.len as u64);
        let lines = lock(&self.poison);
        (off & !(CACHELINE as u64 - 1)..end)
            .step_by(CACHELINE)
            .find(|l| lines.contains_key(l))
    }

    /// Raise the emulated machine-check if `[off, off + len)` touches a
    /// poisoned line.
    pub(super) fn raise_on_poison(&self, off: u64, len: usize) {
        if let Some(off) = self.first_poisoned(off, len) {
            std::panic::panic_any(PoisonedRead { off });
        }
    }

    /// Record word-granularity overwrites of poisoned lines; once all 8
    /// words of a line have been fully rewritten its poison clears.
    /// Only words *fully covered* by the write count — a partial-word
    /// write merges with unreadable bytes and cannot clear anything.
    pub(super) fn note_poison_overwrite(&self, off: u64, len: usize) {
        let first = off.div_ceil(8);
        let last_excl = (off + len as u64) / 8;
        if first >= last_excl {
            return;
        }
        let mut lines = lock(&self.poison);
        for w in first..last_excl {
            let line = (w * 8) & !(CACHELINE as u64 - 1);
            let Some(filled) = lines.get_mut(&line) else {
                continue;
            };
            *filled |= 1 << ((w * 8 - line) / 8);
            if *filled == 0xFF {
                lines.remove(&line);
            }
        }
        self.sync_poison_bit(&lines);
    }

    /// Scrub the lines covering `[off, off + len)`: zero-fill any
    /// poisoned line in both images and clear its poison. This is what
    /// an allocator does when it consults the bad-block list and
    /// re-initializes a block before handing it out — the old contents
    /// are gone, but the media is usable again.
    pub fn scrub_poison(&self, off: u64, len: usize) {
        while let Some(line) = self.first_poisoned(off, len) {
            self.set_line(line, [0; 8]);
            let mut lines = lock(&self.poison);
            lines.remove(&line);
            self.sync_poison_bit(&lines);
        }
    }
}
