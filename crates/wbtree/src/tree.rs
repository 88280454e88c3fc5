//! The wB+Tree proper: traversal, splits, recovery.

use std::sync::Arc;

use index_api::{Footprint, Key, RangeIndex, Value};
use parking_lot::Mutex;
use pmalloc::PmAllocator;
use pmem::{MediaError, PmPool};

use crate::node::{Node, WbLayout, SLOTS_VALID};
use crate::WbTreeConfig;

// Root-area slots owned by wB+Tree.
const SLOT_ROOT: u64 = 24;
const SLOT_HEAD: u64 = 25;
const SLOT_CFG: u64 = 26;

struct Core {
    alloc: Arc<PmAllocator>,
    layout: WbLayout,
    /// Cached copy of the persistent root pointer.
    root: u64,
}

/// wB+Tree: write-atomic PM-only B+-tree (see crate docs). The core is
/// single-threaded, as in the original paper; a mutex adapts it to the
/// shared [`RangeIndex`] interface.
pub struct WbTree {
    core: Mutex<Core>,
}

impl Core {
    fn pool(&self) -> &PmPool {
        self.alloc.pool()
    }

    fn node(&self, off: u64) -> Node<'_> {
        Node::at(self.pool(), &self.layout, off)
    }

    fn alloc_node(&self, is_leaf: bool, link: u64) -> u64 {
        let off = self
            .alloc
            .alloc(self.layout.size)
            .expect("PM pool exhausted");
        self.node(off).init(is_leaf, link);
        off
    }

    /// Root-to-leaf traversal; returns the leaf and the inner path.
    fn find_leaf(&self, key: Key) -> (u64, Vec<u64>) {
        let mut path = Vec::new();
        let mut off = self.root;
        loop {
            let n = self.node(off);
            if n.is_leaf() {
                return (off, path);
            }
            path.push(off);
            off = n.route(key);
        }
    }

    /// Split `off` into itself + a new right sibling. Returns
    /// `(separator, new_node)`.
    fn split_node(&self, off: u64) -> (Key, u64) {
        let _site = obs::site("wbtree_node_split");
        let n = self.node(off);
        let entries = n.sorted_entries();
        let mid = entries.len() / 2;
        let is_leaf = n.is_leaf();
        if is_leaf {
            let sep = entries[mid].0;
            let new_off = self.alloc_node(true, n.link());
            let upper: Vec<(Key, Value)> =
                entries[mid..].iter().map(|&(k, e)| (k, n.val(e))).collect();
            self.node(new_off).fill(&upper);
            // Publish into the chain, then shrink the old leaf. A crash
            // in between leaves duplicate upper-half records, which
            // recovery repairs (overlap check).
            n.set_link(new_off);
            let lower: Vec<(Key, Value)> =
                entries[..mid].iter().map(|&(k, e)| (k, n.val(e))).collect();
            self.shrink_to(off, &lower);
            (sep, new_off)
        } else {
            // Promote the middle key; its right child becomes the new
            // node's leftmost child.
            let sep = entries[mid].0;
            let new_off = self.alloc_node(false, n.val(entries[mid].1));
            let upper: Vec<(Key, u64)> = entries[mid + 1..]
                .iter()
                .map(|&(k, e)| (k, n.val(e)))
                .collect();
            self.node(new_off).fill(&upper);
            let lower: Vec<(Key, u64)> =
                entries[..mid].iter().map(|&(k, e)| (k, n.val(e))).collect();
            self.shrink_to(off, &lower);
            (sep, new_off)
        }
    }

    /// Rewrite a node's live set to exactly `records` using the
    /// slot-invalidate / rewrite / publish protocol.
    fn shrink_to(&self, off: u64, records: &[(Key, u64)]) {
        let n = self.node(off);
        let keep: std::collections::HashSet<Key> = records.iter().map(|&(k, _)| k).collect();
        let entries = n.sorted_entries();
        let bitmap = n.bitmap();
        let mut new_bitmap = bitmap & !((1u64 << 63) - 2); // clear all entry bits
        new_bitmap |= bitmap & (1 << 63); // keep IS_LEAF
        let mut slots = Vec::new();
        for &(k, e) in &entries {
            if keep.contains(&k) {
                new_bitmap |= 1u64 << (e + 1);
                slots.push(e as u8);
            }
        }
        // Invalidate, rewrite, publish.
        self.pool().write_u64(off, bitmap & !SLOTS_VALID);
        self.pool().persist(off, 8);
        self.rewrite_slots(off, &slots);
        self.pool().write_u64(off, new_bitmap | SLOTS_VALID);
        self.pool().persist(off, 8);
    }

    fn rewrite_slots(&self, off: u64, slots: &[u8]) {
        let mut buf = vec![0u8; self.layout.entries + 1];
        buf[0] = slots.len() as u8;
        buf[1..=slots.len()].copy_from_slice(slots);
        self.pool().write_bytes(off + 16, &buf);
        self.pool().persist(off + 16, buf.len());
    }

    /// Split a full node and propagate separators up to the root.
    fn split_and_propagate(&mut self, off: u64, mut path: Vec<u64>) {
        let (mut sep, mut new_off) = self.split_node(off);
        loop {
            match path.pop() {
                None => {
                    let new_root = self.alloc_node(false, self.root);
                    self.node(new_root).fill(&[(sep, new_off)]);
                    self.pool().write_u64(SLOT_ROOT * 8, new_root);
                    self.pool().persist(SLOT_ROOT * 8, 8);
                    self.root = new_root;
                    return;
                }
                Some(parent) => {
                    let p = self.node(parent);
                    if !p.is_full() {
                        p.insert(sep, new_off);
                        return;
                    }
                    let (psep, pnew) = self.split_node(parent);
                    let target = if sep >= psep { pnew } else { parent };
                    self.node(target).insert(sep, new_off);
                    sep = psep;
                    new_off = pnew;
                }
            }
        }
    }

    fn insert(&mut self, key: Key, value: Value) -> bool {
        loop {
            let (leaf, path) = self.find_leaf(key);
            let n = self.node(leaf);
            if n.search(key).is_ok() {
                return false;
            }
            if n.is_full() {
                self.split_and_propagate(leaf, path);
                continue;
            }
            n.insert(key, value);
            return true;
        }
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        let (leaf, _) = self.find_leaf(key);
        let n = self.node(leaf);
        n.search(key).ok().map(|(_, e)| n.val(e))
    }

    fn update(&mut self, key: Key, value: Value) -> bool {
        loop {
            let (leaf, path) = self.find_leaf(key);
            let n = self.node(leaf);
            let Ok((rank, e)) = n.search(key) else {
                return false;
            };
            if n.is_full() {
                // Out-of-place update needs a spare entry.
                self.split_and_propagate(leaf, path);
                continue;
            }
            n.update(rank, e, key, value);
            return true;
        }
    }

    fn remove(&mut self, key: Key) -> bool {
        let (leaf, _) = self.find_leaf(key);
        let n = self.node(leaf);
        match n.search(key) {
            Ok((rank, e)) => {
                n.delete(rank, e);
                true
            }
            Err(_) => false,
        }
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        if count == 0 {
            return 0;
        }
        let (mut leaf, _) = self.find_leaf(start);
        while leaf != 0 && out.len() < count {
            let n = self.node(leaf);
            for &(k, e) in &n.sorted_entries() {
                if k >= start {
                    out.push((k, n.val(e)));
                }
            }
            leaf = n.link();
        }
        out.truncate(count);
        out.len()
    }
}

impl WbTree {
    /// Create a fresh tree on a formatted allocator/pool.
    pub fn create(alloc: Arc<PmAllocator>, cfg: WbTreeConfig) -> Arc<WbTree> {
        let layout = WbLayout::with_slots(cfg.node_entries, cfg.use_slot_array);
        let pool = alloc.pool().clone();
        let head = alloc
            .alloc_linked(layout.size, SLOT_HEAD * 8)
            .expect("pool too small for wB+Tree head leaf");
        let core = Core {
            alloc,
            layout,
            root: head,
        };
        core.node(head).init(true, 0);
        pool.persist(head, layout.size);
        pool.write_u64(SLOT_ROOT * 8, head);
        pool.write_u64(
            SLOT_CFG * 8,
            cfg.node_entries as u64 | (cfg.use_slot_array as u64) << 32,
        );
        pool.persist(SLOT_ROOT * 8, 24);
        Arc::new(WbTree {
            core: Mutex::new(core),
        })
    }

    /// Reopen after a crash: repair half-finished splits (overlapping
    /// leaves), rebuild invalid slot arrays, garbage-collect
    /// unreachable nodes, and bulk-load fresh inner nodes. Probes the
    /// root slots and every node in the leaf chain for media errors
    /// *before* interpreting (or mutating) them, so a poisoned line
    /// surfaces as a reported [`MediaError`] — never as garbage
    /// records.
    pub fn try_recover(
        alloc: Arc<PmAllocator>,
        cfg: WbTreeConfig,
    ) -> Result<Arc<WbTree>, MediaError> {
        let _site = obs::site("wbtree_recovery");
        let layout = WbLayout::with_slots(cfg.node_entries, cfg.use_slot_array);
        let pool = alloc.pool().clone();
        pool.check_readable(SLOT_ROOT * 8, 24)
            .map_err(|e| e.context("wB+Tree root slots"))?;
        assert_eq!(
            pool.read_u64(SLOT_CFG * 8),
            cfg.node_entries as u64 | (cfg.use_slot_array as u64) << 32,
            "config/layout mismatch"
        );
        let head = pool.read_u64(SLOT_HEAD * 8);
        assert!(head != 0, "try_recover() on an unformatted tree");
        let mut core = Core {
            alloc,
            layout,
            root: head,
        };
        // Pass 1: walk the chain, fixing slot arrays. Probe each node
        // before reading it — and before the slot rebuild writes to it,
        // since partial overwrites can mask the poison.
        let mut chain = Vec::new();
        let mut leaf = head;
        while leaf != 0 {
            core.pool()
                .check_readable(leaf, layout.size)
                .map_err(|e| e.context("wB+Tree leaf"))?;
            let n = core.node(leaf);
            if layout.use_slots && n.bitmap() & SLOTS_VALID == 0 {
                n.rebuild_slots();
            }
            chain.push(leaf);
            leaf = n.link();
        }
        // Pass 2: repair split overlap (old leaf still holding records
        // that moved to its new sibling).
        for w in chain.windows(2) {
            let (cur, next) = (w[0], w[1]);
            let next_entries = core.node(next).sorted_entries();
            let Some(&(next_min, _)) = next_entries.first() else {
                continue;
            };
            let n = core.node(cur);
            let records: Vec<(Key, u64)> = n
                .sorted_entries()
                .iter()
                .filter(|&&(k, _)| k < next_min)
                .map(|&(k, e)| (k, n.val(e)))
                .collect();
            if records.len() != n.count() {
                core.shrink_to(cur, &records);
            }
        }
        // Pass 3: GC everything not in the chain (stale inner nodes,
        // leaked split siblings).
        core.alloc
            .free_unreachable(&chain.iter().copied().collect());
        // Pass 4: bulk-load PM inner nodes over the leaves.
        let mut level: Vec<(Key, u64)> = Vec::new();
        for &l in &chain {
            if let Some(&(min, _)) = core.node(l).sorted_entries().first() {
                level.push((min, l));
            }
        }
        let root = if level.len() <= 1 {
            level.first().map(|&(_, l)| l).unwrap_or(head)
        } else {
            let fan = layout.entries + 1;
            while level.len() > 1 {
                let mut next_level = Vec::with_capacity(level.len() / fan + 1);
                for group in level.chunks(fan) {
                    let node = core.alloc_node(false, group[0].1);
                    let entries: Vec<(Key, u64)> =
                        group[1..].iter().map(|&(k, l)| (k, l)).collect();
                    core.node(node).fill(&entries);
                    next_level.push((group[0].0, node));
                }
                level = next_level;
            }
            level[0].1
        };
        pool.write_u64(SLOT_ROOT * 8, root);
        pool.persist(SLOT_ROOT * 8, 8);
        core.root = root;
        Ok(Arc::new(WbTree {
            core: Mutex::new(core),
        }))
    }
}

impl RangeIndex for WbTree {
    fn insert(&self, key: Key, value: Value) -> bool {
        let _site = obs::site("wbtree_insert");
        self.core.lock().insert(key, value)
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        let _site = obs::site("wbtree_lookup");
        self.core.lock().lookup(key)
    }

    fn update(&self, key: Key, value: Value) -> bool {
        let _site = obs::site("wbtree_update");
        self.core.lock().update(key, value)
    }

    fn remove(&self, key: Key) -> bool {
        let _site = obs::site("wbtree_remove");
        self.core.lock().remove(key)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let _site = obs::site("wbtree_scan");
        self.core.lock().scan(start, count, out)
    }

    fn name(&self) -> &'static str {
        "wbtree"
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            pm_bytes: self.core.lock().alloc.live_bytes(),
            dram_bytes: 0, // PM-only design
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::oracle;
    use pmalloc::AllocMode;
    use pmem::PmConfig;

    fn fresh(pool_mib: usize, cfg: WbTreeConfig) -> Arc<WbTree> {
        let pool = Arc::new(PmPool::new(pool_mib << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool, AllocMode::General);
        WbTree::create(alloc, cfg)
    }

    fn small_cfg() -> WbTreeConfig {
        WbTreeConfig {
            node_entries: 4,
            use_slot_array: true,
        }
    }

    #[test]
    fn basic_ops() {
        let t = fresh(4, WbTreeConfig::default());
        assert!(t.insert(5, 50));
        assert!(!t.insert(5, 51));
        assert_eq!(t.lookup(5), Some(50));
        assert!(t.update(5, 55));
        assert_eq!(t.lookup(5), Some(55));
        assert!(t.remove(5));
        assert!(!t.remove(5));
        assert_eq!(t.lookup(5), None);
    }

    #[test]
    fn multi_level_splits() {
        let t = fresh(16, small_cfg());
        for k in 0..3_000u64 {
            assert!(t.insert((k * 997) % 3_000, k));
        }
        for k in 0..3_000u64 {
            assert!(t.lookup(k).is_some(), "key {k}");
        }
    }

    #[test]
    fn conformance_against_oracle() {
        let t = fresh(32, small_cfg());
        oracle::check_conformance(&*t, 0x5B, 20_000, 3_000);
    }

    #[test]
    fn scan_sorted_across_leaves() {
        let t = fresh(16, small_cfg());
        for k in (0..800u64).rev() {
            t.insert(k, k * 2);
        }
        let mut out = Vec::new();
        assert_eq!(t.scan(200, 100, &mut out), 100);
        let want: Vec<(u64, u64)> = (200..300).map(|k| (k, k * 2)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn recovery_restores_everything() {
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = WbTree::create(alloc, cfg);
        for k in 0..2_000u64 {
            t.insert(k, k + 1);
        }
        for k in (0..2_000u64).step_by(5) {
            t.remove(k);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = WbTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..2_000u64 {
            let want = if k % 5 == 0 { None } else { Some(k + 1) };
            assert_eq!(t.lookup(k), want, "key {k}");
        }
        let mut out = Vec::new();
        t.scan(0, 3_000, &mut out);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out.len(), 1600);
    }

    #[test]
    fn recovery_with_eviction_chaos() {
        let pool = Arc::new(PmPool::new(
            32 << 20,
            PmConfig::real().with_eviction_chaos(11),
        ));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = WbTree::create(alloc, cfg);
        for k in 0..1_500u64 {
            t.insert(k, k);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = WbTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..1_500u64 {
            assert_eq!(t.lookup(k), Some(k), "key {k}");
        }
    }

    #[test]
    fn updates_and_deletes_survive_crash() {
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = WbTree::create(alloc, cfg);
        for k in 0..1_000u64 {
            t.insert(k, 1);
        }
        for k in 0..1_000u64 {
            t.update(k, 2);
        }
        for k in (0..1_000u64).step_by(2) {
            t.remove(k);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = WbTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..1_000u64 {
            let want = if k % 2 == 0 { None } else { Some(2) };
            assert_eq!(t.lookup(k), want, "key {k}");
        }
    }

    #[test]
    fn mutex_wrapper_is_thread_safe() {
        // The paper runs wB+Tree single-threaded; the wrapper must still
        // be sound when misused concurrently.
        let t = fresh(32, WbTreeConfig::default());
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        let k = tid * 10_000 + i;
                        assert!(t.insert(k, k));
                        assert_eq!(t.lookup(k), Some(k));
                    }
                });
            }
        });
        for tid in 0..4u64 {
            for i in 0..1_000u64 {
                assert_eq!(t.lookup(tid * 10_000 + i), Some(tid * 10_000 + i));
            }
        }
    }

    #[test]
    fn bitmap_only_variant_conformance() {
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool, AllocMode::General);
        let t = WbTree::create(
            alloc,
            WbTreeConfig {
                node_entries: 4,
                use_slot_array: false,
            },
        );
        oracle::check_conformance(&*t, 0xB1AA, 15_000, 2_000);
    }

    #[test]
    fn bitmap_only_variant_survives_crash() {
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = WbTreeConfig {
            node_entries: 4,
            use_slot_array: false,
        };
        let t = WbTree::create(alloc, cfg);
        for k in 0..1_200u64 {
            t.insert(k, k + 5);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = WbTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..1_200u64 {
            assert_eq!(t.lookup(k), Some(k + 5), "key {k}");
        }
    }

    #[test]
    fn bitmap_only_variant_issues_fewer_fences() {
        let count_fences = |use_slots: bool| {
            let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
            let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
            let t = WbTree::create(
                alloc,
                WbTreeConfig {
                    node_entries: 31,
                    use_slot_array: use_slots,
                },
            );
            pool.reset_stats();
            for k in 0..5_000u64 {
                t.insert(k * 17 % 5_000, k);
            }
            pool.stats().fence
        };
        let with_slots = count_fences(true);
        let without = count_fences(false);
        assert!(
            without * 3 < with_slots * 2,
            "bitmap-only must fence less: with={with_slots} without={without}"
        );
    }

    #[test]
    fn footprint_is_pm_only() {
        let t = fresh(8, small_cfg());
        for k in 0..500u64 {
            t.insert(k, k);
        }
        let f = t.footprint();
        assert!(f.pm_bytes > 0);
        assert_eq!(f.dram_bytes, 0);
    }
}
