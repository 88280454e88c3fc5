//! # dram-index — a volatile B+-tree baseline
//!
//! The DRAM reference point for the "persistent vs. volatile" and
//! "PM index running on DRAM" experiments: a conventional in-memory
//! B+-tree with everything PM indexes give up —
//!
//! * **sorted nodes with binary search** (no indirection, no
//!   fingerprints, no bitmap),
//! * **no persistence instructions** at all,
//! * **optimistic concurrency**: per-leaf version locks for writers,
//!   version-validated reads for lookups, and one HTM domain whose
//!   write transaction only publishes a split's separator: the leaf
//!   split itself runs under the leaf lock, as FPTree's does.
//!
//! The inner nodes, and the HTM domain guarding them, are FPTree's own
//! code: both trees route through [`htm::InnerLayer`], so the "PM index
//! on DRAM" comparison isolates *leaf layout and persistence cost*, not
//! inner nodes or synchronization. The leaves — sorted, in DRAM, chained
//! for scans — are this crate's.
//!
//! All node fields readers can race past are atomics; torn values are
//! discarded by version validation.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use htm::{Abort, InnerLayer};
use index_api::{Footprint, Key, RangeIndex, Value};

/// Node fanout: records per leaf, separators per inner node.
const FANOUT: usize = 64;

/// A DRAM leaf: sorted keys and their values.
struct Node {
    /// Seqlock: odd while a writer holds the node.
    version: AtomicU64,
    count: AtomicUsize,
    keys: Box<[AtomicU64]>,
    vals: Box<[AtomicU64]>,
    /// Leaf chain for scans (raw `*const Node` bits, 0 = none).
    next: AtomicU64,
}

/// A leaf's word in the inner layer (`ptr | 1`), and back.
#[inline]
fn leaf_word(ptr: *const Node) -> u64 {
    ptr as u64 | 1
}

/// # Safety
/// `word` must be a leaf word of this tree: leaves are freed only when
/// the tree drops, so any word its inner layer hands back qualifies.
#[inline]
unsafe fn leaf<'a>(word: u64) -> &'a Node {
    &*((word & !1) as *const Node)
}

impl Node {
    fn new() -> Box<Node> {
        Box::new(Node {
            version: AtomicU64::new(0),
            count: AtomicUsize::new(0),
            keys: (0..FANOUT).map(|_| AtomicU64::new(0)).collect(),
            vals: (0..FANOUT).map(|_| AtomicU64::new(0)).collect(),
            next: AtomicU64::new(0),
        })
    }

    #[inline]
    fn count(&self) -> usize {
        self.count.load(Ordering::Acquire).min(FANOUT)
    }

    #[inline]
    fn key(&self, i: usize) -> u64 {
        self.keys[i].load(Ordering::Acquire)
    }

    #[inline]
    fn val(&self, i: usize) -> u64 {
        self.vals[i].load(Ordering::Acquire)
    }

    /// Binary search among the first `n` keys.
    fn search(&self, n: usize, key: Key) -> Result<usize, usize> {
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.key(mid).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    fn try_lock(&self) -> bool {
        let v = self.version.load(Ordering::Acquire);
        v & 1 == 0
            && self
                .version
                .compare_exchange(v, v + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    fn unlock(&self) {
        let v = self.version.load(Ordering::Relaxed);
        debug_assert_eq!(v & 1, 1);
        self.version.store(v + 1, Ordering::Release);
    }

    /// Shift-insert `(key, val)` at sorted position `pos` (leaf, locked).
    fn leaf_insert_at(&self, pos: usize, key: Key, val: Value) {
        let n = self.count();
        debug_assert!(n < FANOUT);
        let mut i = n;
        while i > pos {
            self.keys[i].store(self.key(i - 1), Ordering::Release);
            self.vals[i].store(self.val(i - 1), Ordering::Release);
            i -= 1;
        }
        self.keys[pos].store(key, Ordering::Release);
        self.vals[pos].store(val, Ordering::Release);
        self.count.store(n + 1, Ordering::Release);
    }

    /// Shift-remove the record at `pos` (leaf, locked).
    fn leaf_remove_at(&self, pos: usize) {
        let n = self.count();
        for i in pos..n - 1 {
            self.keys[i].store(self.key(i + 1), Ordering::Release);
            self.vals[i].store(self.val(i + 1), Ordering::Release);
        }
        self.count.store(n - 1, Ordering::Release);
    }
}

/// Volatile B+-tree with optimistic lock coupling (see crate docs).
pub struct DramTree {
    /// The inner nodes over this tree's leaves.
    inner: InnerLayer,
    /// The leftmost leaf. A split moves the upper half to a new right
    /// sibling, so it never changes; drop frees the chain from here.
    head: *mut Node,
    leaves: AtomicU64,
}

// SAFETY: `head` is the only field that is not `Send + Sync` by itself.
// Only `drop` reads it, and the leaves it and the inner layer's leaf
// words reach hold nothing but atomics and are freed only on drop.
unsafe impl Send for DramTree {}
unsafe impl Sync for DramTree {}

impl DramTree {
    /// Empty tree.
    pub fn new() -> DramTree {
        let head = Box::into_raw(Node::new());
        DramTree {
            inner: InnerLayer::new(FANOUT, leaf_word(head)),
            head,
            leaves: AtomicU64::new(1),
        }
    }

    /// Route to the leaf covering `key` and take its lock, with no SMO
    /// committed in between.
    fn lock_leaf(&self, key: Key) -> &Node {
        // SAFETY: every word the inner layer hands back is a leaf word of
        // this tree.
        unsafe {
            leaf(
                self.inner
                    .locate_and_lock(key, |w| leaf(w).try_lock(), |w| leaf(w).unlock()),
            )
        }
    }

    /// Split a full, locked leaf: build and link its right sibling
    /// (created locked) under the leaf lock, publish the separator, and
    /// only then unlock the half that does not own `key`. Returns the
    /// half that does, still locked.
    fn split_leaf<'a>(&'a self, leaf: &'a Node, key: Key) -> &'a Node {
        debug_assert_eq!(leaf.count(), FANOUT);
        let right = Node::new();
        let mid = FANOUT / 2;
        let sep = leaf.key(mid);
        for i in mid..FANOUT {
            right.keys[i - mid].store(leaf.key(i), Ordering::Release);
            right.vals[i - mid].store(leaf.val(i), Ordering::Release);
        }
        right.count.store(FANOUT - mid, Ordering::Release);
        right
            .next
            .store(leaf.next.load(Ordering::Acquire), Ordering::Release);
        right.version.store(1, Ordering::Release); // created locked
        let right_ptr = Box::into_raw(right);
        self.leaves.fetch_add(1, Ordering::Relaxed);
        // SAFETY: fresh pointer from Box::into_raw.
        let right = unsafe { &*right_ptr };
        leaf.next.store(right_ptr as u64, Ordering::Release);
        leaf.count.store(mid, Ordering::Release);
        self.inner.publish_split(sep, leaf_word(right_ptr));
        if key >= sep {
            leaf.unlock();
            right
        } else {
            right.unlock();
            leaf
        }
    }

    /// Number of allocated nodes, leaves and inner (footprint reporting).
    pub fn node_count(&self) -> u64 {
        self.leaves.load(Ordering::Relaxed) + self.inner.node_count()
    }
}

impl Default for DramTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeIndex for DramTree {
    fn insert(&self, key: Key, value: Value) -> bool {
        let mut leaf = self.lock_leaf(key);
        let n = leaf.count();
        if leaf.search(n, key).is_ok() {
            leaf.unlock();
            return false;
        }
        if n == FANOUT {
            leaf = self.split_leaf(leaf, key);
        }
        let n = leaf.count();
        match leaf.search(n, key) {
            Ok(_) => {
                leaf.unlock();
                false
            }
            Err(pos) => {
                leaf.leaf_insert_at(pos, key, value);
                leaf.unlock();
                true
            }
        }
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        self.inner.speculative_route(key, |w| {
            // SAFETY: a leaf word of this tree, as in `lock_leaf`.
            let leaf = unsafe { leaf(w) };
            let v1 = leaf.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                return Err(Abort);
            }
            let r = leaf.search(leaf.count(), key).ok().map(|i| leaf.val(i));
            if leaf.version.load(Ordering::Acquire) != v1 {
                return Err(Abort);
            }
            Ok(r)
        })
    }

    fn update(&self, key: Key, value: Value) -> bool {
        let leaf = self.lock_leaf(key);
        let r = match leaf.search(leaf.count(), key) {
            Ok(i) => {
                leaf.vals[i].store(value, Ordering::Release);
                true
            }
            Err(_) => false,
        };
        leaf.unlock();
        r
    }

    fn remove(&self, key: Key) -> bool {
        let leaf = self.lock_leaf(key);
        let r = match leaf.search(leaf.count(), key) {
            Ok(i) => {
                leaf.leaf_remove_at(i);
                true
            }
            Err(_) => false,
        };
        leaf.unlock();
        r
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        if count == 0 {
            return 0;
        }
        // SAFETY: a leaf word of this tree, as in `lock_leaf`.
        let mut w: *const Node = unsafe { leaf(self.inner.speculative_route(start, Ok)) };
        let mut batch = Vec::with_capacity(FANOUT);
        while !w.is_null() && out.len() < count {
            // SAFETY: nodes live until drop.
            let leaf = unsafe { &*w };
            let next;
            loop {
                let v1 = leaf.version.load(Ordering::Acquire);
                if v1 & 1 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                batch.clear();
                let n = leaf.count();
                for i in 0..n {
                    let k = leaf.key(i);
                    if k >= start {
                        batch.push((k, leaf.val(i)));
                    }
                }
                let nx = leaf.next.load(Ordering::Acquire);
                if leaf.version.load(Ordering::Acquire) == v1 {
                    next = nx as *const Node;
                    break;
                }
            }
            out.extend(batch.iter().copied());
            w = next;
        }
        out.truncate(count);
        out.len()
    }

    fn name(&self) -> &'static str {
        "dram-btree"
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            pm_bytes: 0,
            dram_bytes: self.leaves.load(Ordering::Relaxed)
                * (std::mem::size_of::<Node>() + 16 * FANOUT) as u64
                + self.inner.dram_bytes(),
        }
    }
}

impl Drop for DramTree {
    fn drop(&mut self) {
        let mut p = self.head;
        while !p.is_null() {
            // SAFETY: exclusive access in drop; every leaf came from
            // Box::into_raw and is on the chain once.
            let node = unsafe { Box::from_raw(p) };
            p = node.next.load(Ordering::Relaxed) as *mut Node;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::oracle;

    #[test]
    fn basic_ops() {
        let t = DramTree::new();
        assert!(t.insert(3, 30));
        assert!(!t.insert(3, 31));
        assert_eq!(t.lookup(3), Some(30));
        assert!(t.update(3, 33));
        assert_eq!(t.lookup(3), Some(33));
        assert!(t.remove(3));
        assert!(!t.remove(3));
        assert_eq!(t.lookup(3), None);
    }

    #[test]
    fn many_inserts_with_splits() {
        let t = DramTree::new();
        for k in 0..20_000u64 {
            assert!(t.insert((k * 7919) % 20_000, k));
        }
        for k in 0..20_000u64 {
            assert!(t.lookup(k).is_some(), "key {k}");
        }
        assert!(t.node_count() > 100);
    }

    #[test]
    fn conformance_against_oracle() {
        let t = DramTree::new();
        oracle::check_conformance(&t, 0xD8, 30_000, 4_000);
    }

    #[test]
    fn scan_sorted() {
        let t = DramTree::new();
        for k in (0..2_000u64).rev() {
            t.insert(k, k + 1);
        }
        let mut out = Vec::new();
        assert_eq!(t.scan(500, 100, &mut out), 100);
        let want: Vec<(u64, u64)> = (500..600).map(|k| (k, k + 1)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn concurrent_inserts_and_lookups() {
        let t = DramTree::new();
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..3_000u64 {
                        let k = tid * 100_000 + i;
                        assert!(t.insert(k, k));
                        assert_eq!(t.lookup(k), Some(k));
                    }
                });
            }
        });
        for tid in 0..8u64 {
            for i in 0..3_000u64 {
                let k = tid * 100_000 + i;
                assert_eq!(t.lookup(k), Some(k), "key {k}");
            }
        }
    }

    #[test]
    fn two_writers_split_at_once() {
        // Interleaved stripes: both threads fill, and split, the same
        // leaves.
        let t = DramTree::new();
        let stripe = |tid: u64| (0..20_000u64).map(move |i| (2 * i + tid) * 11);
        std::thread::scope(|s| {
            for tid in 0..2 {
                let t = &t;
                s.spawn(move || {
                    for k in stripe(tid) {
                        assert!(t.insert(k, k + 1), "insert {k}");
                    }
                });
            }
        });
        let mut want: Vec<(u64, u64)> = stripe(0).chain(stripe(1)).map(|k| (k, k + 1)).collect();
        want.sort_unstable();
        let mut out = Vec::new();
        t.scan(0, want.len() + 1, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn concurrent_mixed_ops() {
        let t = DramTree::new();
        std::thread::scope(|s| {
            for tid in 0..6u64 {
                let t = &t;
                s.spawn(move || {
                    let mut x = tid + 17;
                    for i in 0..5_000u64 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = x % 4_096;
                        match i % 5 {
                            0 | 1 => {
                                t.insert(k, i);
                            }
                            2 => {
                                t.lookup(k);
                            }
                            3 => {
                                t.update(k, i);
                            }
                            _ => {
                                let mut out = Vec::new();
                                t.scan(k, 16, &mut out);
                                assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn footprint_grows() {
        let t = DramTree::new();
        let before = t.footprint().dram_bytes;
        for k in 0..10_000u64 {
            t.insert(k, k);
        }
        assert!(t.footprint().dram_bytes > before);
        assert_eq!(t.footprint().pm_bytes, 0);
    }
}
