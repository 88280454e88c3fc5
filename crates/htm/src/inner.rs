//! The DRAM inner layer: B+-tree inner nodes over opaque leaf words,
//! guarded by one [`Htm`] domain. FPTree (PM leaves) and the DRAM
//! B+-tree (DRAM leaves) route through this one layer and keep only
//! their leaves.
//!
//! A child word is either a *leaf word* — any word with bit 0 set, which
//! the layer hands back but never dereferences (FPTree uses
//! `off << 1 | 1`, the DRAM tree `ptr | 1`) — or a pointer to an inner
//! node (bit 0 clear). Inner nodes only guide traffic; nothing here is
//! persisted. After the recovery bulk load, the one way to change them
//! is [`InnerLayer::publish_split`], the layer's only write
//! transaction. All node fields are atomics: it mutates them in place
//! while speculative readers may race past, tolerating torn values and
//! relying on version validation to discard any result computed from
//! them. Inner nodes are freed only on drop.
//!
//! Every word a caller passes in is checked to be a leaf word, so the
//! only words the layer dereferences are the nodes it allocated itself.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::{Abort, Htm};

#[inline]
fn is_leaf(word: u64) -> bool {
    word & 1 == 1
}

/// # Safety
/// `word` must be an inner-node word of a live layer. Nodes are freed
/// only when the layer drops, so any word a traversal observes qualifies.
#[inline]
unsafe fn node<'a>(word: u64) -> &'a Inner {
    &*(word as *const Inner)
}

/// An inner node: `nkeys` sorted separators and `nkeys + 1` children.
/// Child `i` covers keys in `[keys[i-1], keys[i])`.
struct Inner {
    nkeys: AtomicUsize,
    keys: Box<[AtomicU64]>,
    children: Box<[AtomicU64]>,
}

impl Inner {
    /// A node with room for `fanout` separators holding `group`: its
    /// children in key order, each with the least key it covers (the
    /// first child's key is not stored).
    fn with(fanout: usize, group: &[(u64, u64)]) -> Box<Inner> {
        debug_assert!(!group.is_empty() && group.len() <= fanout + 1);
        let key = |i: usize| AtomicU64::new(group.get(i + 1).map_or(0, |g| g.0));
        let child = |i: usize| AtomicU64::new(group.get(i).map_or(0, |g| g.1));
        Box::new(Inner {
            nkeys: AtomicUsize::new(group.len() - 1),
            keys: (0..fanout).map(key).collect(),
            children: (0..=fanout).map(child).collect(),
        })
    }

    /// Number of separators (clamped for torn reads).
    #[inline]
    fn nkeys(&self) -> usize {
        self.nkeys.load(Ordering::Acquire).min(self.keys.len())
    }

    #[inline]
    fn key(&self, i: usize) -> u64 {
        self.keys[i].load(Ordering::Acquire)
    }

    #[inline]
    fn child(&self, i: usize) -> u64 {
        self.children[i].load(Ordering::Acquire)
    }

    /// Index of the child that covers `key`: the first separator greater
    /// than `key`, by binary search.
    #[inline]
    fn route(&self, key: u64) -> usize {
        let (mut lo, mut hi) = (0, self.nkeys());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if key < self.key(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Insert separator `key` with `right` as the child to its right
    /// (write transaction held, node not full). Shifts from the end, so
    /// a racing reader only ever sees valid, if stale, words.
    fn insert(&self, key: u64, right: u64) {
        let n = self.nkeys();
        debug_assert!(n < self.keys.len());
        let pos = self.route(key);
        for i in (pos..n).rev() {
            self.keys[i + 1].store(self.key(i), Ordering::Release);
            self.children[i + 2].store(self.child(i + 1), Ordering::Release);
        }
        self.keys[pos].store(key, Ordering::Release);
        self.children[pos + 1].store(right, Ordering::Release);
        self.nkeys.store(n + 1, Ordering::Release);
    }

    /// Split a full node (write transaction held): keep the lower half,
    /// return the separator to promote and a node holding the upper half.
    fn split(&self, fanout: usize) -> (u64, Box<Inner>) {
        let n = self.nkeys();
        let mid = n / 2;
        let upper: Vec<(u64, u64)> = (mid + 1..=n)
            .map(|i| (self.key(i - 1), self.child(i)))
            .collect();
        self.nkeys.store(mid, Ordering::Release);
        (upper[0].0, Inner::with(fanout, &upper))
    }
}

/// The inner layer of a B+-tree whose leaves belong to the caller: the
/// HTM domain, the root word, the inner nodes and their count.
pub struct InnerLayer {
    htm: Htm,
    /// The root's child word: a leaf word until the first split.
    root: AtomicU64,
    /// Separators per inner node.
    fanout: usize,
    /// Inner nodes allocated (footprint reporting).
    nodes: AtomicU64,
}

impl InnerLayer {
    /// A layer of `fanout`-separator nodes with no inner node yet: every
    /// key routes to the leaf word `leaf`.
    pub fn new(fanout: usize, leaf: u64) -> Self {
        assert!(is_leaf(leaf), "not a leaf word: {leaf:#x}");
        Self {
            htm: Htm::new(),
            root: AtomicU64::new(leaf),
            fanout,
            nodes: AtomicU64::new(0),
        }
    }

    /// Descend to the leaf word covering `key`. Tolerates torn reads
    /// (aborts on anything odd); the caller validates the HTM version.
    #[inline]
    fn descend(&self, key: u64) -> Result<u64, Abort> {
        let mut w = self.root.load(Ordering::Acquire);
        for _ in 0..64 {
            if w == 0 {
                return Err(Abort);
            }
            if is_leaf(w) {
                return Ok(w);
            }
            // SAFETY: a word read from the root or a live node.
            let n = unsafe { node(w) };
            w = n.child(n.route(key));
        }
        Err(Abort)
    }

    /// Run `f` on the leaf word covering `key` as a speculative read
    /// transaction ([`Htm::speculative_read`]): `f` may return
    /// `Err(Abort)` to retry, and its result is returned only if no
    /// write transaction committed meanwhile.
    #[inline]
    pub fn speculative_route<R>(&self, key: u64, mut f: impl FnMut(u64) -> Result<R, Abort>) -> R {
        // Always inlined: otherwise this closure, an instance made for the
        // calling crate, can land in another codegen unit than that
        // crate's `speculative_read` and cost every lookup a call.
        self.htm.speculative_read(
            #[inline(always)]
            |_| f(self.descend(key)?),
        )
    }

    /// Route to the leaf word covering `key` and lock that leaf with
    /// `try_lock`, retrying until it succeeds with no write transaction
    /// committed between the route and the lock (else the leaf may no
    /// longer cover `key`: `unlock` it and retry). Returns the leaf word,
    /// locked.
    #[inline]
    pub fn locate_and_lock(
        &self,
        key: u64,
        try_lock: impl Fn(u64) -> bool,
        unlock: impl Fn(u64),
    ) -> u64 {
        loop {
            // Always inlined, as in `speculative_route`.
            let (leaf, ver) = self.htm.speculative_read(
                #[inline(always)]
                |v| self.descend(key).map(|l| (l, v)),
            );
            if !try_lock(leaf) {
                std::hint::spin_loop();
                continue;
            }
            if self.htm.version() != ver {
                unlock(leaf);
                continue;
            }
            return leaf;
        }
    }

    /// Publish a leaf split: separator `key` with the leaf word `right`
    /// as the child to its right, in the node above the leaf covering
    /// `key`. This is the layer's only write transaction, and it runs
    /// nothing but this DRAM insert: the caller builds `right` and
    /// links it into its leaf chain first, under the split leaf's lock,
    /// and unlocks both leaves only after this returns, so a writer that
    /// routed before the split fails [`InnerLayer::locate_and_lock`]'s
    /// version check.
    pub fn publish_split(&self, key: u64, right: u64) {
        assert!(is_leaf(right), "not a leaf word: {right:#x}");
        self.htm.write_txn(|| self.insert_separator(key, right));
    }

    /// The body of [`InnerLayer::publish_split`]: full nodes on the way
    /// up split, and a full root grows a new root.
    fn insert_separator(&self, key: u64, right: u64) {
        let mut path = Vec::new();
        let mut w = self.root.load(Ordering::Acquire);
        while !is_leaf(w) {
            // SAFETY: the write transaction excludes other writers.
            let n = unsafe { node(w) };
            path.push(n);
            w = n.child(n.route(key));
        }
        let (mut key, mut right) = (key, right);
        while let Some(n) = path.pop() {
            if n.nkeys() < self.fanout {
                n.insert(key, right);
                return;
            }
            let (promote, upper) = n.split(self.fanout);
            if key >= promote {
                upper.insert(key, right);
            } else {
                n.insert(key, right);
            }
            key = promote;
            right = self.adopt(upper);
        }
        let old_root = self.root.load(Ordering::Acquire);
        let root = self.adopt(Inner::with(self.fanout, &[(0, old_root), (key, right)]));
        self.root.store(root, Ordering::Release);
    }

    /// Recovery: build the inner levels bottom-up over `level`, the
    /// leaves' `(least key, leaf word)` pairs in key order (the first
    /// key is not used), and make the top the root. Called on a layer
    /// that has no inner node yet.
    pub fn bulk_load(&mut self, mut level: Vec<(u64, u64)>) {
        assert!(level.iter().all(|&(_, w)| is_leaf(w)), "not a leaf word");
        debug_assert_eq!(self.node_count(), 0);
        debug_assert!(level.windows(2).all(|w| w[0].0 < w[1].0));
        while level.len() > 1 {
            level = level
                .chunks(self.fanout + 1)
                .map(|group| (group[0].0, self.adopt(Inner::with(self.fanout, group))))
                .collect();
        }
        *self.root.get_mut() = level[0].1;
    }

    /// Count a new node and return its child word.
    fn adopt(&self, node: Box<Inner>) -> u64 {
        self.nodes.fetch_add(1, Ordering::Relaxed);
        Box::into_raw(node) as u64
    }

    /// Number of inner nodes.
    pub fn node_count(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Approximate DRAM footprint of the inner nodes.
    pub fn dram_bytes(&self) -> u64 {
        let per_node = std::mem::size_of::<Inner>() + (2 * self.fanout + 1) * 8;
        self.node_count() * per_node as u64
    }
}

impl Drop for InnerLayer {
    fn drop(&mut self) {
        let mut stack = vec![*self.root.get_mut()];
        while let Some(w) = stack.pop() {
            if w != 0 && !is_leaf(w) {
                // SAFETY: exclusive access in drop; every inner word came
                // from `adopt` and is reachable from the root exactly once.
                let n = unsafe { Box::from_raw(w as *mut Inner) };
                stack.extend((0..=n.nkeys()).map(|i| n.child(i)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    const FANOUTS: [usize; 4] = [4, 8, 64, 128];

    /// The word of leaf `i` (bit 0 set, as the layer requires).
    fn leaf(i: usize) -> u64 {
        (i as u64) << 1 | 1
    }

    /// Build one layer by publishing `seps` one split at a time (leaf
    /// `i + 1` right of `seps[i]`, leaf 0 leftmost) and one by
    /// bulk-loading the same pairs sorted; both must route every
    /// separator, its neighbours, 0 and `u64::MAX` to the leaf a range
    /// lookup predicts.
    fn routes_like_a_range_map(fanout: usize, seps: &[u64]) {
        let want: BTreeMap<u64, u64> = seps
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, leaf(i + 1)))
            .collect();
        let grown = InnerLayer::new(fanout, leaf(0));
        for (i, &s) in seps.iter().enumerate() {
            grown.publish_split(s, leaf(i + 1));
        }
        let mut loaded = InnerLayer::new(fanout, leaf(0));
        loaded.bulk_load([(0, leaf(0))].into_iter().chain(want.clone()).collect());
        let probes = seps
            .iter()
            .flat_map(|&s| [s.wrapping_sub(1), s, s.wrapping_add(1)])
            .chain([0, u64::MAX]);
        for k in probes {
            let w = want.range(..=k).next_back().map_or(leaf(0), |(_, &w)| w);
            assert_eq!(
                grown.speculative_route(k, Ok),
                w,
                "inserted, fanout {fanout}, key {k}"
            );
            assert_eq!(
                loaded.speculative_route(k, Ok),
                w,
                "bulk-loaded, fanout {fanout}, key {k}"
            );
        }
        if seps.len() > fanout {
            assert!(grown.node_count() > 1 && loaded.node_count() > 1);
        }
    }

    /// `n` distinct separators in 1..u64::MAX, in a seeded random order.
    fn seeded(n: usize, mut x: u64) -> Vec<u64> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (x ^ x >> 29).clamp(1, u64::MAX - 1);
            if seen.insert(s) {
                out.push(s);
            }
        }
        out
    }

    #[test]
    fn inserted_and_bulk_loaded_layers_route_alike() {
        let hand: [&[u64]; 5] = [
            &[],
            &[10, 20, 30],
            &[50, 30, 70, 10, 60],
            &[10, 20, 30, 40],
            &[10, 20],
        ];
        let ascending: Vec<u64> = (1..=3_000).map(|k| k * 16).collect();
        for fanout in FANOUTS {
            for seps in hand {
                routes_like_a_range_map(fanout, seps);
            }
            routes_like_a_range_map(fanout, &ascending);
            routes_like_a_range_map(fanout, &seeded(20_000, fanout as u64));
        }
    }
}
