//! The BzTree proper: latch-free operations and copy-on-write SMOs.

use std::collections::HashSet;
use std::sync::Arc;

use crossbeam_epoch as epoch;
use index_api::{Footprint, Key, RangeIndex, Value};
use pmalloc::PmAllocator;
use pmem::MediaError;
use pmwcas::{PmwCas, WordDescriptor};

use crate::node::{
    build_node, read_info, read_status, BzLayout, FROZEN, ST_ABORTED, ST_DELETED, ST_FREE,
    ST_RESERVED, ST_STATE_MASK, ST_VISIBLE,
};
use crate::{fingerprint, BzTreeConfig, SPLIT_THRESHOLD_PCT};

// Root-area slots owned by BzTree (the PMwCAS area uses slot 32).
const SLOT_ROOT: u64 = 33;
const SLOT_CFG: u64 = 34;

const ROOT_WORD: u64 = SLOT_ROOT * 8;

/// Spins before a stuck `RESERVED`/`FREE` slot is forcibly aborted.
const STEAL_SPINS: usize = 1 << 14;

#[inline]
fn wd(addr: u64, old: u64, new: u64) -> WordDescriptor {
    WordDescriptor { addr, old, new }
}

/// Result of a leaf probe.
enum Found {
    /// Newest entry is visible: its meta word (address + value) and value.
    Live {
        meta_off: u64,
        meta: u64,
        value: Value,
    },
    /// Newest entry is a delete tombstone.
    Dead,
    /// No entry for the key.
    Absent,
}

struct Descent {
    leaf: u64,
    path: Vec<u64>,
    /// Exclusive upper bound of the leaf's key range (None = rightmost).
    upper: Option<Key>,
}

/// BzTree: latch-free PM-only B+-tree over PMwCAS (see crate docs).
pub struct BzTree {
    alloc: Arc<PmAllocator>,
    mw: Arc<PmwCas>,
    layout: BzLayout,
    /// This tree's own epoch collector: retired nodes are freed into
    /// `alloc` by its deferred closures, so they must run on this
    /// tree's threads while it is live (its last unpin drains them) —
    /// never when some other structure in the process unpins.
    epoch: epoch::Collector,
}

impl BzTree {
    /// Create a fresh tree (and PMwCAS descriptor area) on a formatted
    /// allocator/pool.
    pub fn create(alloc: Arc<PmAllocator>, cfg: BzTreeConfig) -> Arc<BzTree> {
        let mw = PmwCas::create(&alloc);
        let layout = BzLayout::new(cfg.node_entries);
        let t = BzTree {
            alloc,
            mw,
            layout,
            epoch: epoch::Collector::new(),
        };
        let root = t.alloc_node(true, &[]);
        t.mw.init_word(ROOT_WORD, root);
        let pool = t.alloc.pool();
        pool.write_u64(SLOT_CFG * 8, cfg.node_entries as u64);
        pool.persist(SLOT_CFG * 8, 8);
        Arc::new(t)
    }

    /// Reopen after a crash: PMwCAS recovery makes every word
    /// consistent (instant recovery — no index rebuild), then a
    /// reachability sweep reclaims nodes leaked by interrupted SMOs.
    /// Probes the root/config slots and every node visited by the
    /// reachability sweep for media errors before reading it, so a
    /// poisoned line surfaces as a reported [`MediaError`], never as
    /// garbage routing entries.
    pub fn try_recover(
        alloc: Arc<PmAllocator>,
        cfg: BzTreeConfig,
    ) -> Result<Arc<BzTree>, MediaError> {
        let _site = obs::site("bztree_recovery");
        let mw = PmwCas::try_recover(&alloc)?;
        let layout = BzLayout::new(cfg.node_entries);
        alloc
            .pool()
            .check_readable(SLOT_ROOT * 8, 16)
            .map_err(|e| e.context("BzTree root slots"))?;
        assert_eq!(
            alloc.pool().read_u64(SLOT_CFG * 8) as usize,
            cfg.node_entries,
            "config/layout mismatch"
        );
        let t = BzTree {
            alloc,
            mw,
            layout,
            epoch: epoch::Collector::new(),
        };
        // Reachability GC from the root.
        let mut reachable: HashSet<u64> = HashSet::new();
        reachable.insert(t.mw.descriptor_area());
        let root = t.mw.read(ROOT_WORD);
        assert!(root != 0, "try_recover() on an unformatted tree");
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if !reachable.insert(n) {
                continue;
            }
            t.alloc
                .pool()
                .check_readable(n, t.layout.size)
                .map_err(|e| e.context("BzTree node"))?;
            let (is_leaf, sorted) = read_info(&t.mw, &t.layout, n);
            if !is_leaf {
                for i in 0..sorted {
                    stack.push(t.mw.read(t.layout.val(n, i)));
                }
            }
        }
        t.alloc.free_unreachable(&reachable);
        Ok(Arc::new(t))
    }

    /// The PMwCAS runtime (exposed for experiments).
    pub fn pmwcas(&self) -> &Arc<PmwCas> {
        &self.mw
    }

    fn pool(&self) -> &pmem::PmPool {
        self.alloc.pool()
    }

    fn alloc_node(&self, is_leaf: bool, records: &[(Key, u64)]) -> u64 {
        let off = self
            .alloc
            .alloc(self.layout.size)
            .expect("PM pool exhausted");
        build_node(&self.mw, &self.layout, off, is_leaf, records);
        off
    }

    /// Free `off` after a grace period.
    fn defer_free(&self, off: u64, guard: &epoch::Guard) {
        let alloc = self.alloc.clone();
        guard.defer(move || alloc.free(off));
    }

    // ----- traversal ---------------------------------------------------------

    fn inner_route(&self, node: u64, sorted: usize, key: Key) -> usize {
        let pool = self.pool();
        let mut lo = 0usize;
        let mut hi = sorted;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if pool.read_u64(self.layout.key(node, mid)) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo.saturating_sub(1)
    }

    fn descend(&self, key: Key) -> Descent {
        let mut node = self.mw.read(ROOT_WORD);
        let mut path = Vec::new();
        let mut upper = None;
        loop {
            let (is_leaf, sorted) = read_info(&self.mw, &self.layout, node);
            if is_leaf {
                return Descent {
                    leaf: node,
                    path,
                    upper,
                };
            }
            let idx = self.inner_route(node, sorted, key);
            if idx + 1 < sorted {
                upper = Some(self.pool().read_u64(self.layout.key(node, idx + 1)));
            }
            path.push(node);
            node = self.mw.read(self.layout.val(node, idx));
        }
    }

    // ----- leaf probing --------------------------------------------------------

    fn find_in_leaf(&self, leaf: u64, key: Key) -> Found {
        let (_, sorted) = read_info(&self.mw, &self.layout, leaf);
        let st = read_status(&self.mw, &self.layout, leaf);
        let fp = fingerprint(key) as u64;
        // Append area, newest first.
        for i in (sorted..st.count).rev() {
            let meta_off = self.layout.meta(leaf, i);
            let m = self.mw.read(meta_off);
            let state = m & ST_STATE_MASK;
            if (state == ST_VISIBLE || state == ST_DELETED)
                && m & 0xFF == fp
                && self.pool().read_u64(self.layout.key(leaf, i)) == key
            {
                return if state == ST_VISIBLE {
                    Found::Live {
                        meta_off,
                        meta: m,
                        value: self.pool().read_u64(self.layout.val(leaf, i)),
                    }
                } else {
                    Found::Dead
                };
            }
        }
        // Sorted base: binary search.
        let pool = self.pool();
        let mut lo = 0usize;
        let mut hi = sorted;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match pool.read_u64(self.layout.key(leaf, mid)).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let meta_off = self.layout.meta(leaf, mid);
                    let m = self.mw.read(meta_off);
                    return match m & ST_STATE_MASK {
                        ST_VISIBLE => Found::Live {
                            meta_off,
                            meta: m,
                            value: pool.read_u64(self.layout.val(leaf, mid)),
                        },
                        ST_DELETED => Found::Dead,
                        _ => Found::Absent,
                    };
                }
            }
        }
        Found::Absent
    }

    /// Duplicate re-check for an insert that reserved `my_slot`: is a
    /// live entry for `key` visible below it? Waits out (and eventually
    /// aborts) unresolved in-flight slots.
    fn dup_below(&self, leaf: u64, key: Key, my_slot: usize) -> bool {
        let (_, sorted) = read_info(&self.mw, &self.layout, leaf);
        let fp = fingerprint(key) as u64;
        for i in (sorted..my_slot).rev() {
            let meta_off = self.layout.meta(leaf, i);
            let mut spins = 0usize;
            loop {
                let m = self.mw.read(meta_off);
                let state = m & ST_STATE_MASK;
                match state {
                    ST_FREE => {
                        // Reserved in the status word but meta not yet
                        // claimed: must resolve before we can decide.
                        spins += 1;
                        if spins > STEAL_SPINS {
                            let _ = self.mw.mwcas(&[wd(meta_off, m, ST_ABORTED)]);
                        }
                        std::hint::spin_loop();
                    }
                    ST_RESERVED if m & 0xFF == fp => {
                        spins += 1;
                        if spins > STEAL_SPINS {
                            let _ = self.mw.mwcas(&[wd(meta_off, m, ST_ABORTED | fp)]);
                        }
                        std::hint::spin_loop();
                    }
                    ST_VISIBLE | ST_DELETED
                        if m & 0xFF == fp
                            && self.pool().read_u64(self.layout.key(leaf, i)) == key =>
                    {
                        return state == ST_VISIBLE;
                    }
                    _ => break,
                }
            }
        }
        // Sorted base.
        matches!(self.find_sorted(leaf, key), Some(true))
    }

    /// Sorted-base probe: `Some(visible?)` when the key is present.
    fn find_sorted(&self, leaf: u64, key: Key) -> Option<bool> {
        let (_, sorted) = read_info(&self.mw, &self.layout, leaf);
        let pool = self.pool();
        let mut lo = 0usize;
        let mut hi = sorted;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match pool.read_u64(self.layout.key(leaf, mid)).cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => {
                    let m = self.mw.read(self.layout.meta(leaf, mid));
                    return Some(m & ST_STATE_MASK == ST_VISIBLE);
                }
            }
        }
        None
    }

    // ----- appends -----------------------------------------------------------

    /// Reserve a slot and publish `(key, value)`; shared by insert and
    /// update. Returns `Ok(true)` on success, `Ok(false)` when a
    /// duplicate blocks an insert, `Err(())` to retry from the root.
    fn append(&self, leaf: u64, key: Key, value: Value, dedup: bool) -> Result<bool, ()> {
        let _site = obs::site("bztree_append");
        let st = read_status(&self.mw, &self.layout, leaf);
        if st.frozen || st.count == self.layout.entries {
            return Err(());
        }
        if !self
            .mw
            .mwcas(&[wd(self.layout.status(leaf), st.raw, st.raw + 1)])
        {
            return Err(());
        }
        let slot = st.count;
        let fp = fingerprint(key) as u64;
        let meta_off = self.layout.meta(leaf, slot);
        if !self.mw.mwcas(&[wd(meta_off, ST_FREE, ST_RESERVED | fp)]) {
            // A dup-checker stole our slot before we claimed it.
            return Err(());
        }
        let pool = self.pool();
        pool.write_u64(self.layout.key(leaf, slot), key);
        pool.write_u64(self.layout.val(leaf, slot), value);
        pool.clwb(self.layout.key(leaf, slot), 16);
        pool.sfence();
        if dedup && self.dup_below(leaf, key, slot) {
            let _ = self
                .mw
                .mwcas(&[wd(meta_off, ST_RESERVED | fp, ST_ABORTED | fp)]);
            return Ok(false);
        }
        // Make visible, re-verifying the node is not frozen.
        loop {
            let st2 = read_status(&self.mw, &self.layout, leaf);
            if st2.frozen {
                let _ = self
                    .mw
                    .mwcas(&[wd(meta_off, ST_RESERVED | fp, ST_ABORTED | fp)]);
                return Err(());
            }
            if self.mw.mwcas(&[
                wd(self.layout.status(leaf), st2.raw, st2.raw),
                wd(meta_off, ST_RESERVED | fp, ST_VISIBLE | fp),
            ]) {
                return Ok(true);
            }
            if self.mw.read(meta_off) & ST_STATE_MASK == ST_ABORTED {
                // A dup-checker aborted us while we were preempted.
                return Err(());
            }
        }
    }

    // ----- SMOs ----------------------------------------------------------------

    /// Live records of a node. Leaves apply newest-wins and drop
    /// tombstones; inner nodes return `(separator, current child)`.
    fn live_records(&self, node: u64) -> Vec<(Key, u64)> {
        let (is_leaf, sorted) = read_info(&self.mw, &self.layout, node);
        let st = read_status(&self.mw, &self.layout, node);
        let pool = self.pool();
        if !is_leaf {
            return (0..sorted)
                .map(|i| {
                    (
                        pool.read_u64(self.layout.key(node, i)),
                        self.mw.read(self.layout.val(node, i)),
                    )
                })
                .collect();
        }
        let mut seen: HashSet<Key> = HashSet::new();
        let mut out: Vec<(Key, u64)> = Vec::new();
        for i in (sorted..st.count).rev() {
            let m = self.mw.read(self.layout.meta(node, i));
            let state = m & ST_STATE_MASK;
            if state != ST_VISIBLE && state != ST_DELETED {
                continue;
            }
            let k = pool.read_u64(self.layout.key(node, i));
            if seen.insert(k) && state == ST_VISIBLE {
                out.push((k, pool.read_u64(self.layout.val(node, i))));
            }
        }
        for i in 0..sorted {
            let k = pool.read_u64(self.layout.key(node, i));
            if seen.contains(&k) {
                continue;
            }
            let m = self.mw.read(self.layout.meta(node, i));
            if m & ST_STATE_MASK == ST_VISIBLE {
                out.push((k, pool.read_u64(self.layout.val(node, i))));
            }
        }
        out.sort_unstable();
        out
    }

    /// Freeze `node` (if not already) and complete its SMO.
    fn freeze_and_smo(&self, node: u64, path: &[u64], guard: &epoch::Guard) {
        let _site = obs::site("bztree_smo");
        let st = read_status(&self.mw, &self.layout, node);
        if !st.frozen
            && !self
                .mw
                .mwcas(&[wd(self.layout.status(node), st.raw, st.raw | FROZEN)])
        {
            return; // someone else froze or mutated; retry from root
        }
        self.complete_smo(node, path, guard);
    }

    /// Complete the SMO of a frozen node: consolidate in place or split.
    /// Failure is benign — the caller re-descends and retries. When an
    /// ancestor is itself frozen, this helps complete the ancestor's
    /// SMO first (the topmost frozen node can always make progress via
    /// the root word, so the system never wedges).
    fn complete_smo(&self, node: u64, path: &[u64], guard: &epoch::Guard) {
        let (is_leaf, _) = read_info(&self.mw, &self.layout, node);
        if let Some((&parent, rest)) = path.split_last() {
            let pst = read_status(&self.mw, &self.layout, parent);
            if pst.frozen {
                self.complete_smo(parent, rest, guard);
                return;
            }
        }
        let live = self.live_records(node);
        let threshold = self.layout.entries * SPLIT_THRESHOLD_PCT / 100;
        if live.len() <= threshold {
            // Consolidate: swap in a compacted copy.
            let new = self.alloc_node(is_leaf, &live);
            if self.swap_child(path, node, new) {
                self.defer_free(node, guard);
            } else {
                self.alloc.free(new);
            }
            return;
        }
        // Split.
        let mid = live.len() / 2;
        let sep = live[mid].0;
        match path.split_last() {
            None => {
                let n1 = self.alloc_node(is_leaf, &live[..mid]);
                let n2 = self.alloc_node(is_leaf, &live[mid..]);
                let new_root = self.alloc_node(false, &[(live[0].0, n1), (sep, n2)]);
                if self.mw.mwcas(&[wd(ROOT_WORD, node, new_root)]) {
                    self.defer_free(node, guard);
                } else {
                    self.alloc.free(n1);
                    self.alloc.free(n2);
                    self.alloc.free(new_root);
                }
            }
            Some((&parent, rest)) => {
                // Freeze the parent *before* copying its entries, so a
                // concurrent consolidation of a sibling cannot be
                // overwritten by a stale clone.
                let pst = read_status(&self.mw, &self.layout, parent);
                if pst.frozen
                    || !self
                        .mw
                        .mwcas(&[wd(self.layout.status(parent), pst.raw, pst.raw | FROZEN)])
                {
                    return; // retry from the root
                }
                let pentries = self.live_records(parent);
                if pentries.len() + 1 > self.layout.entries {
                    // No room for the new separator: the (now frozen)
                    // parent must split first.
                    self.complete_smo(parent, rest, guard);
                    return;
                }
                let Some(pos) = pentries.iter().position(|&(_, c)| c == node) else {
                    // Stale path; unfreeze the parent by consolidating it.
                    self.complete_smo(parent, rest, guard);
                    return;
                };
                let n1 = self.alloc_node(is_leaf, &live[..mid]);
                let n2 = self.alloc_node(is_leaf, &live[mid..]);
                let mut new_entries = pentries.clone();
                // A leftmost child absorbs underflow keys (routing
                // clamps to entry 0), so its live minimum can undercut
                // the stored separator; lower it to keep order strict.
                new_entries[pos] = (new_entries[pos].0.min(live[0].0), n1);
                new_entries.insert(pos + 1, (sep, n2));
                let p2 = self.alloc_node(false, &new_entries);
                if self.swap_child(rest, parent, p2) {
                    self.defer_free(parent, guard);
                    self.defer_free(node, guard);
                } else {
                    self.alloc.free(n1);
                    self.alloc.free(n2);
                    self.alloc.free(p2);
                    // The parent is frozen and stuck; unfreeze it by
                    // consolidating (clone-swap).
                    self.complete_smo(parent, rest, guard);
                }
            }
        }
    }

    /// Swap `old` → `new` in `old`'s parent (or the root word),
    /// verifying the parent is not frozen in the same PMwCAS.
    fn swap_child(&self, path: &[u64], old: u64, new: u64) -> bool {
        match path.split_last() {
            None => self.mw.mwcas(&[wd(ROOT_WORD, old, new)]),
            Some((&p, _)) => {
                let pst = read_status(&self.mw, &self.layout, p);
                if pst.frozen {
                    return false;
                }
                let (_, sorted) = read_info(&self.mw, &self.layout, p);
                let Some(idx) = (0..sorted).find(|&i| self.mw.read(self.layout.val(p, i)) == old)
                else {
                    return false;
                };
                self.mw.mwcas(&[
                    wd(self.layout.status(p), pst.raw, pst.raw),
                    wd(self.layout.val(p, idx), old, new),
                ])
            }
        }
    }
}

impl RangeIndex for BzTree {
    fn insert(&self, key: Key, value: Value) -> bool {
        let _site = obs::site("bztree_insert");
        let guard = self.epoch.pin();
        loop {
            let d = self.descend(key);
            if let Found::Live { .. } = self.find_in_leaf(d.leaf, key) {
                return false;
            }
            let st = read_status(&self.mw, &self.layout, d.leaf);
            if st.frozen || st.count == self.layout.entries {
                self.freeze_and_smo(d.leaf, &d.path, &guard);
                continue;
            }
            match self.append(d.leaf, key, value, true) {
                Ok(r) => return r,
                Err(()) => continue,
            }
        }
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        let _site = obs::site("bztree_lookup");
        let _guard = self.epoch.pin();
        let d = self.descend(key);
        match self.find_in_leaf(d.leaf, key) {
            Found::Live { value, .. } => Some(value),
            _ => None,
        }
    }

    fn update(&self, key: Key, value: Value) -> bool {
        let _site = obs::site("bztree_update");
        let guard = self.epoch.pin();
        loop {
            let d = self.descend(key);
            let Found::Live { .. } = self.find_in_leaf(d.leaf, key) else {
                return false;
            };
            let st = read_status(&self.mw, &self.layout, d.leaf);
            if st.frozen || st.count == self.layout.entries {
                self.freeze_and_smo(d.leaf, &d.path, &guard);
                continue;
            }
            match self.append(d.leaf, key, value, false) {
                Ok(_) => return true,
                Err(()) => continue,
            }
        }
    }

    fn remove(&self, key: Key) -> bool {
        let _site = obs::site("bztree_remove");
        let guard = self.epoch.pin();
        loop {
            let d = self.descend(key);
            let Found::Live { meta_off, meta, .. } = self.find_in_leaf(d.leaf, key) else {
                return false;
            };
            let st = read_status(&self.mw, &self.layout, d.leaf);
            if st.frozen {
                self.freeze_and_smo(d.leaf, &d.path, &guard);
                continue;
            }
            // Tombstone the newest version, verifying the freeze bit.
            if self.mw.mwcas(&[
                wd(self.layout.status(d.leaf), st.raw, st.raw),
                wd(meta_off, meta, (meta & !ST_STATE_MASK) | ST_DELETED),
            ]) {
                return true;
            }
        }
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let _site = obs::site("bztree_scan");
        out.clear();
        if count == 0 {
            return 0;
        }
        let _guard = self.epoch.pin();
        let mut cursor = start;
        loop {
            let d = self.descend(cursor);
            let mut batch = self.live_records(d.leaf);
            batch.retain(|&(k, _)| k >= cursor);
            out.extend(batch);
            if out.len() >= count {
                out.truncate(count);
                return count;
            }
            match d.upper {
                Some(ub) if ub > cursor => cursor = ub,
                _ => return out.len(),
            }
        }
    }

    fn name(&self) -> &'static str {
        "bztree"
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            pm_bytes: self.alloc.live_bytes(),
            dram_bytes: 0, // PM-only design
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::oracle;
    use pmalloc::AllocMode;
    use pmem::{PmConfig, PmPool};

    fn fresh(pool_mib: usize, cfg: BzTreeConfig) -> Arc<BzTree> {
        let pool = Arc::new(PmPool::new(pool_mib << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool, AllocMode::General);
        BzTree::create(alloc, cfg)
    }

    fn small_cfg() -> BzTreeConfig {
        BzTreeConfig { node_entries: 8 }
    }

    #[test]
    fn basic_ops() {
        let t = fresh(8, BzTreeConfig::default());
        assert!(t.insert(1, 10));
        assert!(!t.insert(1, 11));
        assert_eq!(t.lookup(1), Some(10));
        assert!(t.update(1, 12));
        assert!(!t.update(2, 0));
        assert_eq!(t.lookup(1), Some(12));
        assert!(t.remove(1));
        assert!(!t.remove(1));
        assert_eq!(t.lookup(1), None);
        assert!(t.insert(1, 13), "re-insert after delete");
        assert_eq!(t.lookup(1), Some(13));
    }

    #[test]
    fn consolidation_and_splits() {
        let t = fresh(32, small_cfg());
        for k in 0..2_000u64 {
            assert!(t.insert((k * 911) % 2_000, k), "insert {k}");
        }
        for k in 0..2_000u64 {
            assert!(t.lookup(k).is_some(), "lookup {k}");
        }
    }

    #[test]
    fn update_versions_consolidate() {
        let t = fresh(16, small_cfg());
        t.insert(7, 0);
        for i in 1..500u64 {
            assert!(t.update(7, i));
            assert_eq!(t.lookup(7), Some(i));
        }
    }

    #[test]
    fn conformance_against_oracle() {
        let t = fresh(64, small_cfg());
        oracle::check_conformance(&*t, 0xB2, 20_000, 3_000);
    }

    #[test]
    fn scan_via_redescent() {
        let t = fresh(32, small_cfg());
        for k in (0..600u64).rev() {
            t.insert(k, k * 5);
        }
        let mut out = Vec::new();
        assert_eq!(t.scan(100, 80, &mut out), 80);
        let want: Vec<(u64, u64)> = (100..180).map(|k| (k, k * 5)).collect();
        assert_eq!(out, want);
        assert_eq!(t.scan(590, 100, &mut out), 10);
    }

    #[test]
    fn instant_recovery_after_crash() {
        let pool = Arc::new(PmPool::new(64 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = BzTree::create(alloc, cfg);
        for k in 0..2_000u64 {
            t.insert(k, k + 9);
        }
        for k in (0..2_000u64).step_by(4) {
            t.remove(k);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = BzTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..2_000u64 {
            let want = if k % 4 == 0 { None } else { Some(k + 9) };
            assert_eq!(t.lookup(k), want, "key {k}");
        }
        let mut out = Vec::new();
        t.scan(0, 3_000, &mut out);
        assert_eq!(out.len(), 1_500);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn recovery_gc_reclaims_smo_leaks() {
        let pool = Arc::new(PmPool::new(64 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = BzTree::create(alloc.clone(), cfg);
        for k in 0..1_000u64 {
            t.insert(k, k);
        }
        // Simulate an interrupted SMO: allocate unreachable nodes.
        for _ in 0..8 {
            alloc.alloc(BzLayout::new(cfg.node_entries).size).unwrap();
        }
        let before = alloc.live_bytes();
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = BzTree::try_recover(alloc.clone(), cfg).expect("recovery");
        assert!(alloc.live_bytes() < before, "GC should reclaim leaks");
        for k in 0..1_000u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn concurrent_inserts_all_land() {
        let t = fresh(128, BzTreeConfig::default());
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let k = tid * 100_000 + i;
                        assert!(t.insert(k, k + 1));
                    }
                });
            }
        });
        for tid in 0..8u64 {
            for i in 0..2_000u64 {
                let k = tid * 100_000 + i;
                assert_eq!(t.lookup(k), Some(k + 1), "key {k}");
            }
        }
    }

    #[test]
    fn concurrent_duplicate_inserts_only_one_wins() {
        let t = fresh(64, BzTreeConfig::default());
        use std::sync::atomic::{AtomicUsize, Ordering};
        let wins = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let t = &t;
                let wins = &wins;
                s.spawn(move || {
                    for k in 0..500u64 {
                        if t.insert(k, k) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            wins.load(Ordering::Relaxed),
            500,
            "each key must be inserted exactly once"
        );
    }

    #[test]
    fn concurrent_mixed_ops() {
        let t = fresh(128, small_cfg());
        std::thread::scope(|s| {
            for tid in 0..6u64 {
                let t = &t;
                s.spawn(move || {
                    let mut x = tid + 31;
                    for i in 0..2_000u64 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = x % 1_024;
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
                                t.scan(k, 10, &mut out);
                                assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                            }
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn footprint_is_pm_only() {
        let t = fresh(16, small_cfg());
        for k in 0..300u64 {
            t.insert(k, k);
        }
        let f = t.footprint();
        assert!(f.pm_bytes > 0);
        assert_eq!(f.dram_bytes, 0);
    }
}
