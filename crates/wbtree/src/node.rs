//! wB+Tree node format and the write-atomic node protocols.
//!
//! Node layout (leaf and inner share it):
//!
//! ```text
//! +0   bitmap  u64   bit 0: slot-array valid; bit i+1: entry i valid;
//!                    bit 63: node is a leaf
//! +8   link    u64   leaf: next sibling; inner: leftmost child
//! +16  slots   [u8]  slots[0] = count, slots[1..=count] = entry indices
//!                    in ascending key order (padded to 8 bytes)
//! +K   keys    [u64] unsorted entry keys
//! +V   vals    [u64] leaf: values; inner: right child of the entry key
//! ```

use std::ops::Deref;

use pmem::{align_up, PmPool};

/// Bit 0 of the bitmap: the slot array reflects the bitmap.
pub const SLOTS_VALID: u64 = 1;
/// Bit 63 of the bitmap: this node is a leaf.
pub const IS_LEAF: u64 = 1 << 63;

const BITMAP_OFF: u64 = 0;
const LINK_OFF: u64 = 8;
const SLOTS_OFF: u64 = 16;

/// Most entries a node holds: the bitmap reserves bits 0 and 63.
const MAX_ENTRIES: usize = 62;

/// A slot array in DRAM, on the stack, in its PM format: byte 0 the
/// count, then the entry indices in ascending key order. Derefs to the
/// indices.
#[derive(Clone, Copy)]
pub struct Slots([u8; MAX_ENTRIES + 1]);

impl Slots {
    pub(crate) fn empty() -> Slots {
        Slots([0; MAX_ENTRIES + 1])
    }

    pub(crate) fn push(&mut self, e: u8) {
        let n = self.len();
        self.0[1 + n] = e;
        self.0[0] += 1;
    }

    fn insert(&mut self, rank: usize, e: u8) {
        let n = self.len();
        self.0.copy_within(1 + rank..1 + n, 2 + rank);
        self.0[1 + rank] = e;
        self.0[0] += 1;
    }

    fn remove(&mut self, rank: usize) {
        let n = self.len();
        self.0.copy_within(2 + rank..1 + n, 1 + rank);
        self.0[0] -= 1;
    }
}

impl Deref for Slots {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0[1..=self.0[0] as usize]
    }
}

/// Runtime node layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbLayout {
    /// Entries per node (≤ 62: bitmap reserves bits 0 and 63).
    pub entries: usize,
    /// Offset of the key array.
    pub keys_off: u64,
    /// Offset of the value/child array.
    pub vals_off: u64,
    /// Node size in bytes.
    pub size: usize,
    /// Whether the slot array is maintained (slot+bitmap variant) or
    /// skipped (bitmap-only variant, linear search, fewer fences).
    pub use_slots: bool,
}

impl WbLayout {
    /// Layout for `entries` per node (slot+bitmap variant).
    pub fn new(entries: usize) -> WbLayout {
        Self::with_slots(entries, true)
    }

    /// Layout selecting the slot+bitmap or bitmap-only variant.
    pub fn with_slots(entries: usize, use_slots: bool) -> WbLayout {
        assert!(
            (2..=MAX_ENTRIES).contains(&entries),
            "node entries must be 2..=62"
        );
        let keys_off = align_up(SLOTS_OFF + entries as u64 + 1, 8);
        let vals_off = keys_off + 8 * entries as u64;
        let size = (vals_off + 8 * entries as u64) as usize;
        WbLayout {
            entries,
            keys_off,
            vals_off,
            size,
            use_slots,
        }
    }

    #[inline]
    fn entry_bit(i: usize) -> u64 {
        1u64 << (i + 1)
    }

    /// Mask of all entry bits.
    #[inline]
    pub fn entries_mask(&self) -> u64 {
        ((1u64 << self.entries) - 1) << 1
    }

    #[inline]
    pub(crate) fn key_off(&self, node: u64, i: usize) -> u64 {
        node + self.keys_off + 8 * i as u64
    }

    #[inline]
    pub(crate) fn val_off(&self, node: u64, i: usize) -> u64 {
        node + self.vals_off + 8 * i as u64
    }
}

/// A node handle: pool + layout + offset. All the write-atomic
/// protocols live here. Single-threaded by contract (the tree wraps
/// everything in a mutex).
pub struct Node<'a> {
    pub pool: &'a PmPool,
    pub layout: &'a WbLayout,
    pub off: u64,
}

impl<'a> Node<'a> {
    /// Wrap an existing node.
    pub fn at(pool: &'a PmPool, layout: &'a WbLayout, off: u64) -> Node<'a> {
        Node { pool, layout, off }
    }

    /// Initialize a fresh node (not yet persisted; callers persist the
    /// whole node once filled).
    pub fn init(&self, is_leaf: bool, link: u64) {
        let flags = if is_leaf { IS_LEAF } else { 0 };
        self.pool
            .write_u64(self.off + BITMAP_OFF, flags | SLOTS_VALID);
        self.pool.write_u64(self.off + LINK_OFF, link);
        self.write_slots(&Slots::empty());
    }

    #[inline]
    pub fn bitmap(&self) -> u64 {
        self.pool.read_u64(self.off + BITMAP_OFF)
    }

    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.bitmap() & IS_LEAF != 0
    }

    #[inline]
    pub fn link(&self) -> u64 {
        self.pool.read_u64(self.off + LINK_OFF)
    }

    /// Set the leaf `next` / inner `child0` link and persist it.
    pub fn set_link(&self, link: u64) {
        self.pool.write_u64(self.off + LINK_OFF, link);
        self.pool.persist(self.off + LINK_OFF, 8);
    }

    #[inline]
    pub fn key(&self, i: usize) -> u64 {
        self.pool.read_u64(self.layout.key_off(self.off, i))
    }

    #[inline]
    pub fn val(&self, i: usize) -> u64 {
        self.pool.read_u64(self.layout.val_off(self.off, i))
    }

    /// The slot array, with one read of its PM bytes.
    pub fn slots(&self) -> Slots {
        let mut s = Slots::empty();
        self.pool
            .read_bytes(self.off + SLOTS_OFF, &mut s.0[..=self.layout.entries]);
        s.0[0] = s.0[0].min(self.layout.entries as u8);
        s
    }

    /// Number of live entries.
    pub fn count(&self) -> usize {
        if self.layout.use_slots && self.bitmap() & SLOTS_VALID != 0 {
            let mut b = [0u8; 1];
            self.pool.read_bytes(self.off + SLOTS_OFF, &mut b);
            (b[0] as usize).min(self.layout.entries)
        } else {
            ((self.bitmap() & self.layout.entries_mask()).count_ones()) as usize
        }
    }

    /// Whether the node is full.
    pub fn is_full(&self) -> bool {
        self.count() == self.layout.entries
    }

    /// Rewrite the slot array wholesale (count + indices, zeros after
    /// them), persisting it.
    pub(crate) fn write_slots(&self, sorted: &[u8]) {
        let mut buf = Slots::empty();
        buf.0[0] = sorted.len() as u8;
        buf.0[1..=sorted.len()].copy_from_slice(sorted);
        let bytes = &buf.0[..=self.layout.entries];
        self.pool.write_bytes(self.off + SLOTS_OFF, bytes);
        self.pool.persist(self.off + SLOTS_OFF, bytes.len());
    }

    /// Sorted `(key, entry_index)` pairs, via the slot array when valid,
    /// else reconstructed from the bitmap (post-crash path).
    pub fn sorted_entries(&self) -> Vec<(u64, usize)> {
        let bitmap = self.bitmap();
        if self.layout.use_slots && bitmap & SLOTS_VALID != 0 {
            self.slots()
                .iter()
                .map(|&s| (self.key(s as usize), s as usize))
                .collect()
        } else {
            let mut v: Vec<(u64, usize)> = (0..self.layout.entries)
                .filter(|&i| bitmap & WbLayout::entry_bit(i) != 0)
                .map(|i| (self.key(i), i))
                .collect();
            v.sort_unstable();
            v
        }
    }

    /// Rebuild and persist the slot array from the bitmap (recovery).
    pub fn rebuild_slots(&self) {
        let sorted: Vec<u8> = self
            .sorted_entries()
            .iter()
            .map(|&(_, i)| i as u8)
            .collect();
        let bitmap = self.bitmap();
        self.write_slots(&sorted);
        self.publish_bitmap(bitmap | SLOTS_VALID);
    }

    /// Atomic bitmap publication (8-byte write + persist).
    fn publish_bitmap(&self, bitmap: u64) {
        self.pool.write_u64(self.off + BITMAP_OFF, bitmap);
        self.pool.persist(self.off + BITMAP_OFF, 8);
    }

    /// Search for `key`: `Ok((rank, entry))` if present (rank =
    /// position in sorted order), else `Err(rank)` of the insertion
    /// point.
    pub fn search(&self, key: u64) -> Result<(usize, usize), usize> {
        self.probe(key).1
    }

    /// [`Node::search`], also returning the slot array it read (empty
    /// in the bitmap-only variant) for a write to reuse.
    pub fn probe(&self, key: u64) -> (Slots, Result<(usize, usize), usize>) {
        if !self.layout.use_slots {
            // Bitmap-only variant: linear probe of valid entries.
            let bitmap = self.bitmap() & self.layout.entries_mask();
            let mut bits = bitmap;
            while bits != 0 {
                let e = bits.trailing_zeros() as usize - 1;
                bits &= bits - 1;
                if self.key(e) == key {
                    return (Slots::empty(), Ok((0, e)));
                }
            }
            return (Slots::empty(), Err(0));
        }
        let slots = self.slots();
        let mut lo = 0usize;
        let mut hi = slots.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            let mk = self.key(slots[mid] as usize);
            match mk.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let e = slots[mid] as usize;
                    return (slots, Ok((mid, e)));
                }
            }
        }
        (slots, Err(lo))
    }

    /// Inner-node routing: the child covering `key`. The caller has
    /// already read the node's leaf flag (no assert re-reads it: a
    /// debug-only PM read would make the counted accesses depend on the
    /// build profile).
    pub fn route(&self, key: u64) -> u64 {
        if !self.layout.use_slots {
            // Linear scan for the greatest separator ≤ key.
            let bitmap = self.bitmap() & self.layout.entries_mask();
            let mut best: Option<(u64, usize)> = None;
            let mut bits = bitmap;
            while bits != 0 {
                let e = bits.trailing_zeros() as usize - 1;
                bits &= bits - 1;
                let k = self.key(e);
                if k <= key && best.is_none_or(|(bk, _)| k > bk) {
                    best = Some((k, e));
                }
            }
            return match best {
                Some((_, e)) => self.val(e),
                None => self.link(),
            };
        }
        let slots = self.slots();
        // Last entry with key ≤ target → its right child; none → child0.
        let mut lo = 0usize;
        let mut hi = slots.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.key(slots[mid] as usize) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            self.link()
        } else {
            self.val(slots[lo - 1] as usize)
        }
    }

    /// The bitmap and its first free entry index.
    fn free_entry(&self) -> (u64, Option<usize>) {
        let bitmap = self.bitmap();
        let free = (0..self.layout.entries).find(|&i| bitmap & WbLayout::entry_bit(i) == 0);
        (bitmap, free)
    }

    /// Write `(key, val)` into free entry `e` and persist it.
    fn write_entry(&self, e: usize, key: u64, val: u64) {
        self.pool.write_u64(self.layout.key_off(self.off, e), key);
        self.pool.write_u64(self.layout.val_off(self.off, e), val);
        self.pool.clwb(self.layout.key_off(self.off, e), 8);
        self.pool.clwb(self.layout.val_off(self.off, e), 8);
        self.pool.sfence();
    }

    /// Insert `key`, which the caller guarantees absent, into a node it
    /// guarantees not full.
    pub fn insert(&self, key: u64, val: u64) {
        let (slots, Err(rank)) = self.probe(key) else {
            unreachable!("insert of existing key")
        };
        self.insert_at(&slots, rank, key, val);
    }

    /// The write-atomic insert protocol (see crate docs), given the slot
    /// array and insertion rank of the caller's [`Node::probe`].
    pub fn insert_at(&self, slots: &Slots, rank: usize, key: u64, val: u64) {
        let (bitmap, e) = self.free_entry();
        let e = e.expect("insert into full node");
        // (1) entry write + persist.
        self.write_entry(e, key, val);
        if !self.layout.use_slots {
            // Bitmap-only variant: one atomic publication, done.
            self.publish_bitmap(bitmap | WbLayout::entry_bit(e));
            return;
        }
        // (2) invalidate the slot array.
        self.publish_bitmap(bitmap & !SLOTS_VALID);
        // (3) rewrite the slot array with the new entry in place.
        let mut slots = *slots;
        slots.insert(rank, e as u8);
        self.write_slots(&slots);
        // (4) atomic publication: entry bit + valid flag.
        self.publish_bitmap(bitmap | WbLayout::entry_bit(e) | SLOTS_VALID);
    }

    /// Write-atomic delete of the entry at sorted `rank` / index `e`,
    /// given the slot array of the caller's [`Node::probe`].
    pub fn delete(&self, slots: &Slots, rank: usize, e: usize) {
        let bitmap = self.bitmap();
        if !self.layout.use_slots {
            self.publish_bitmap(bitmap & !WbLayout::entry_bit(e));
            return;
        }
        self.publish_bitmap(bitmap & !SLOTS_VALID);
        let mut slots = *slots;
        debug_assert_eq!(slots[rank] as usize, e);
        slots.remove(rank);
        self.write_slots(&slots);
        self.publish_bitmap((bitmap & !WbLayout::entry_bit(e)) | SLOTS_VALID);
    }

    /// Write-atomic out-of-place update of entry `e` (sorted `rank`)
    /// with a new value, given the slot array of the caller's
    /// [`Node::probe`]. The caller guarantees a free entry exists.
    pub fn update(&self, slots: &Slots, rank: usize, e: usize, key: u64, val: u64) {
        let (bitmap, f) = self.free_entry();
        let f = f.expect("update without spare entry");
        self.write_entry(f, key, val);
        let moved = (bitmap & !WbLayout::entry_bit(e)) | WbLayout::entry_bit(f);
        if !self.layout.use_slots {
            self.publish_bitmap(moved);
            return;
        }
        self.publish_bitmap(bitmap & !SLOTS_VALID);
        let mut slots = *slots;
        debug_assert_eq!(slots[rank] as usize, e);
        slots.0[1 + rank] = f as u8;
        self.write_slots(&slots);
        self.publish_bitmap(moved | SLOTS_VALID);
    }

    /// Bulk-fill a fresh node with sorted records and persist it fully.
    pub fn fill(&self, records: &[(u64, u64)]) {
        debug_assert!(records.len() <= self.layout.entries);
        let mut bitmap = self.bitmap() & (IS_LEAF | SLOTS_VALID);
        let mut slots = Slots::empty();
        for (i, &(k, v)) in records.iter().enumerate() {
            self.pool.write_u64(self.layout.key_off(self.off, i), k);
            self.pool.write_u64(self.layout.val_off(self.off, i), v);
            bitmap |= WbLayout::entry_bit(i);
            slots.push(i as u8);
        }
        if self.layout.use_slots {
            self.write_slots(&slots);
        }
        self.pool.write_u64(self.off + BITMAP_OFF, bitmap);
        self.pool.persist(self.off, self.layout.size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmConfig;
    use std::sync::Arc;

    fn setup() -> (Arc<PmPool>, WbLayout, u64) {
        let pool = Arc::new(PmPool::new(1 << 20, PmConfig::real()));
        let layout = WbLayout::new(8);
        (pool, layout, 8192)
    }

    #[test]
    fn layout_sizes() {
        let l = WbLayout::new(31);
        assert_eq!(l.keys_off, 48); // 16 + 32 (31+1 slot bytes padded)
        assert_eq!(l.size, 48 + 248 + 248);
        assert_eq!(l.entries_mask().count_ones(), 31);
    }

    #[test]
    fn insert_search_ordering() {
        let (pool, layout, off) = setup();
        let n = Node::at(&pool, &layout, off);
        n.init(true, 0);
        for k in [50u64, 10, 30, 70, 20] {
            n.insert(k, k * 2);
        }
        assert_eq!(n.count(), 5);
        let sorted: Vec<u64> = n.sorted_entries().iter().map(|&(k, _)| k).collect();
        assert_eq!(sorted, vec![10, 20, 30, 50, 70]);
        let (rank, e) = n.search(30).unwrap();
        assert_eq!(rank, 2);
        assert_eq!(n.val(e), 60);
        assert_eq!(n.search(31), Err(3));
    }

    #[test]
    fn delete_and_update() {
        let (pool, layout, off) = setup();
        let n = Node::at(&pool, &layout, off);
        n.init(true, 0);
        for k in [1u64, 2, 3] {
            n.insert(k, k);
        }
        let (slots, found) = n.probe(2);
        let (rank, e) = found.unwrap();
        n.delete(&slots, rank, e);
        assert_eq!(n.count(), 2);
        assert!(n.search(2).is_err());
        let (slots, found) = n.probe(3);
        let (rank, e) = found.unwrap();
        n.update(&slots, rank, e, 3, 33);
        let (_, e) = n.search(3).unwrap();
        assert_eq!(n.val(e), 33);
    }

    #[test]
    fn crash_mid_insert_leaves_node_recoverable() {
        // Simulate the torn window: entry persisted, slot array
        // invalidated, but the final bitmap publication lost.
        let (pool, layout, off) = setup();
        let n = Node::at(&pool, &layout, off);
        n.init(true, 0);
        n.insert(10, 100);
        n.insert(20, 200);
        pool.persist_all();
        // Manually mimic a crash after step (3) of inserting 15: the
        // bitmap on media still has the valid flag cleared.
        let bitmap = n.bitmap();
        pool.write_u64(off, bitmap & !SLOTS_VALID);
        pool.persist(off, 8);
        pool.crash();
        let n = Node::at(&pool, &layout, off);
        // Slot array untrusted; sorted_entries falls back to the bitmap.
        assert_eq!(n.bitmap() & SLOTS_VALID, 0);
        let keys: Vec<u64> = n.sorted_entries().iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![10, 20]);
        n.rebuild_slots();
        assert_eq!(n.search(20).map(|(r, _)| r), Ok(1));
    }

    #[test]
    fn inner_routing() {
        let (pool, layout, off) = setup();
        let n = Node::at(&pool, &layout, off);
        n.init(false, 111); // child0
        n.insert(10, 222);
        n.insert(20, 333);
        assert!(!n.is_leaf());
        assert_eq!(n.route(5), 111);
        assert_eq!(n.route(10), 222);
        assert_eq!(n.route(15), 222);
        assert_eq!(n.route(25), 333);
    }

    #[test]
    fn fill_bulk() {
        let (pool, layout, off) = setup();
        let n = Node::at(&pool, &layout, off);
        n.init(true, 0);
        n.fill(&[(1, 10), (2, 20), (3, 30)]);
        assert_eq!(n.count(), 3);
        assert_eq!(n.search(2).map(|(r, _)| r), Ok(1));
        // Fully persisted: survives a crash.
        pool.crash();
        assert_eq!(n.count(), 3);
        let (_, e) = n.search(3).unwrap();
        assert_eq!(n.val(e), 30);
    }
}
