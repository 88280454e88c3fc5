//! PM leaf-node layout, parameterized at runtime so node-size ablations
//! (E12) can sweep it.

use pmem::align_up;

/// Byte layout of one PM-resident leaf:
///
/// ```text
/// +0   bitmap   u64         slot-validity bits (bit i = slot i live)
/// +8   vlock    u64         version lock: odd = write-locked (runtime only)
/// +16  next     u64         pool offset of the right sibling (0 = none)
/// +24  fps      [u8]        one fingerprint byte per slot
/// +P   pairs    [(u64, u64)] per-slot (key, value) cells, 16-aligned
/// ```
///
/// A record is one 16-byte cell, as in the FPTree paper's leaf: on a
/// leaf whose base is 16-aligned (every `pmalloc` block is) no cell
/// straddles a cache line, so a record costs one media block to read
/// and one line to write back. The 64-entry leaf is 1 120 bytes
/// (pairs at +96) and lives in the 256-aligned 1 280-byte class.
///
/// `bitmap` is the only commit point: a record exists iff its bit is
/// set, which is why an 8-byte atomic bitmap write gives failure
/// atomicity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafLayout {
    /// Slots per leaf (≤ 64).
    pub entries: usize,
    /// Offset of the fingerprint array.
    pub fp_off: u64,
    /// Offset of the (key, value) cell array.
    pub pairs_off: u64,
    /// Total leaf size in bytes.
    pub size: usize,
}

/// Offset of the slot bitmap within a leaf.
pub const BITMAP_OFF: u64 = 0;
/// Offset of the version lock within a leaf.
pub const VLOCK_OFF: u64 = 8;
/// Offset of the next-sibling pointer within a leaf.
pub const NEXT_OFF: u64 = 16;
/// Bytes per (key, value) cell.
pub const PAIR_BYTES: u64 = 16;

impl LeafLayout {
    /// Layout for `entries` slots.
    pub fn new(entries: usize) -> Self {
        assert!(
            (1..=64).contains(&entries),
            "leaf entries must be in 1..=64 (one bitmap word)"
        );
        let fp_off = 24;
        let pairs_off = align_up(fp_off + entries as u64, PAIR_BYTES);
        let size = (pairs_off + PAIR_BYTES * entries as u64) as usize;
        Self {
            entries,
            fp_off,
            pairs_off,
            size,
        }
    }

    /// Offset of slot `i`'s fingerprint byte.
    #[inline]
    pub fn fp(&self, base: u64, i: usize) -> u64 {
        base + self.fp_off + i as u64
    }

    /// Offset of slot `i`'s (key, value) cell.
    #[inline]
    pub fn pair(&self, base: u64, i: usize) -> u64 {
        base + self.pairs_off + PAIR_BYTES * i as u64
    }

    /// Offset of slot `i`'s key (the cell's first word).
    #[inline]
    pub fn key(&self, base: u64, i: usize) -> u64 {
        self.pair(base, i)
    }

    /// Offset of slot `i`'s value (the cell's second word).
    #[inline]
    pub fn val(&self, base: u64, i: usize) -> u64 {
        self.pair(base, i) + 8
    }

    /// Bitmask covering all valid slots.
    #[inline]
    pub fn full_mask(&self) -> u64 {
        if self.entries == 64 {
            u64::MAX
        } else {
            (1u64 << self.entries) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{CACHELINE, MEDIA_BLOCK};

    #[test]
    fn paper_default_layout() {
        let l = LeafLayout::new(64);
        assert_eq!(l.fp_off, 24);
        assert_eq!(l.pairs_off, 96); // 24 + 64 fingerprints → 88, 16-aligned
        assert_eq!(l.size, 96 + 64 * 16); // 1120 bytes
        assert_eq!(l.full_mask(), u64::MAX);
    }

    #[test]
    fn odd_entry_counts_are_padded() {
        let l = LeafLayout::new(14);
        assert_eq!(l.pairs_off, 48); // 24 + 14 = 38 → padded to 48
        assert_eq!(l.full_mask(), (1 << 14) - 1);
    }

    #[test]
    fn slot_offsets() {
        let l = LeafLayout::new(8);
        let base = 1 << 20;
        assert_eq!(l.fp(base, 3), base + 24 + 3);
        assert_eq!(l.pair(base, 3), base + 32 + 3 * 16);
        assert_eq!(l.key(base, 3), base + 32 + 3 * 16);
        assert_eq!(l.val(base, 3), base + 32 + 3 * 16 + 8);
    }

    #[test]
    fn every_pair_lies_in_one_cache_line_after_the_fingerprints() {
        let line = CACHELINE as u64;
        for entries in 1..=64 {
            let l = LeafLayout::new(entries);
            for base in [MEDIA_BLOCK as u64, 7 * MEDIA_BLOCK as u64] {
                assert!(
                    l.fp(base, entries - 1) < l.pair(base, 0),
                    "{entries} entries: fingerprints run into the pairs"
                );
                for i in 0..entries {
                    let (first, last) = (l.pair(base, i), l.pair(base, i) + PAIR_BYTES - 1);
                    assert_eq!(
                        first / line,
                        last / line,
                        "{entries} entries: pair {i} straddles a cache line"
                    );
                }
                assert_eq!(l.pair(base, entries - 1) + PAIR_BYTES, base + l.size as u64);
            }
        }
    }

    #[test]
    fn paper_default_leaf_stays_in_its_size_class() {
        let l = LeafLayout::new(64);
        assert_eq!(pmalloc::class_for_size(l.size), Some(8));
        assert_eq!(
            pmalloc::class_size(8) % MEDIA_BLOCK,
            0,
            "256-aligned blocks"
        );
    }

    #[test]
    #[should_panic(expected = "leaf entries")]
    fn rejects_oversized_leaf() {
        LeafLayout::new(65);
    }
}
