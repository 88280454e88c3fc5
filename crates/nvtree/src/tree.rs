//! The NV-Tree proper: append-only leaf operations, replace-on-split,
//! snapshot rebuilds and recovery with unreachable-block GC.

use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Atomic, Owned};
use htm::{Abort, Htm};
use index_api::{Footprint, Key, RangeIndex, Value};
use pmalloc::PmAllocator;
use pmem::{MediaError, PmPool};

use crate::snapshot::Snapshot;
use crate::NvTreeConfig;

// Root-area slots owned by NV-Tree.
const SLOT_HEAD: u64 = 16;
const SLOT_CFG: u64 = 17;

// Leaf header offsets.
const COUNT_OFF: u64 = 0;
const VLOCK_OFF: u64 = 8;
const NEXT_OFF: u64 = 16;
const FLAGS_OFF: u64 = 24;

/// A pending mutation folded into a leaf replacement when the append
/// area is full.
#[derive(Clone, Copy)]
enum Pending {
    Put(Key, Value),
    Del(Key),
}

/// NV-Tree: selective-consistency persistent B+-tree (see crate docs).
pub struct NvTree {
    alloc: Arc<PmAllocator>,
    /// Global SMO sequence lock (reusing the seqlock machinery from the
    /// `htm` crate; NV-Tree itself is lock-based, and its SMOs —
    /// replace-splits and rebuilds — are serialized).
    smo: Htm,
    /// This tree's own epoch collector: retired leaves are freed into
    /// `alloc` by its deferred closures, so they must run on this
    /// tree's threads while it is live (its last unpin drains them) —
    /// never when some other structure in the process unpins.
    epoch: epoch::Collector,
    snap: Atomic<Snapshot>,
    cfg: NvTreeConfig,
    flag_words: u64,
    entries_off: u64,
    leaf_size: usize,
}

impl NvTree {
    /// Create a fresh tree on a formatted allocator/pool.
    pub fn create(alloc: Arc<PmAllocator>, cfg: NvTreeConfig) -> Arc<NvTree> {
        let t = NvTree::shell(alloc, cfg);
        let pool = t.alloc.pool().clone();
        let head = t
            .alloc
            .alloc_linked(t.leaf_size, SLOT_HEAD * 8)
            .expect("pool too small for NV-Tree head leaf");
        t.init_leaf_header(head, 0);
        pool.persist(head, t.leaf_size.min(256));
        pool.write_u64(SLOT_CFG * 8, cfg.leaf_entries as u64);
        pool.persist(SLOT_CFG * 8, 8);
        t.snap.store(
            Owned::new(Snapshot::build(&[(0, head)], cfg.pln_entries)),
            Ordering::Release,
        );
        Arc::new(t)
    }

    /// Reopen after a crash: clear leaf locks, rebuild the routing
    /// snapshot from the leaf chain, and garbage-collect allocated
    /// blocks the chain cannot reach (replaced leaves whose free did
    /// not persist). Probes the root slots and every leaf in the chain
    /// for media errors *before* reading it — and before the vlock
    /// clear writes to it, since partial overwrites can mask the
    /// poison — so a poisoned line surfaces as a reported
    /// [`MediaError`], never as garbage records.
    pub fn try_recover(
        alloc: Arc<PmAllocator>,
        cfg: NvTreeConfig,
    ) -> Result<Arc<NvTree>, MediaError> {
        let _site = obs::site("nvtree_recovery");
        let t = NvTree::shell(alloc, cfg);
        let pool = t.alloc.pool().clone();
        pool.check_readable(SLOT_HEAD * 8, 16)
            .map_err(|e| e.context("NV-Tree root slots"))?;
        let persisted = pool.read_u64(SLOT_CFG * 8) as usize;
        assert_eq!(persisted, cfg.leaf_entries, "config/layout mismatch");
        let head = pool.read_u64(SLOT_HEAD * 8);
        assert!(head != 0, "try_recover() on an unformatted tree");
        let mut entries: Vec<(Key, u64)> = Vec::new();
        let mut reachable: HashSet<u64> = HashSet::new();
        let mut leaf = head;
        while leaf != 0 {
            pool.check_readable(leaf, t.leaf_size)
                .map_err(|e| e.context("NV-Tree leaf"))?;
            reachable.insert(leaf);
            pool.write_u64(leaf + VLOCK_OFF, 0);
            let live = t.live_records(leaf);
            if let Some(&(min, _)) = live.first() {
                entries.push((min, leaf));
            }
            leaf = pool.read_u64(leaf + NEXT_OFF);
        }
        // GC: anything allocated but not in the chain is a leaked
        // replacement; reclaim it. (The tree owns its pool exclusively.)
        t.alloc.free_unreachable(&reachable);
        if entries.is_empty() {
            entries.push((0, head));
        }
        t.snap.store(
            Owned::new(Snapshot::build(&entries, cfg.pln_entries)),
            Ordering::Release,
        );
        Ok(Arc::new(t))
    }

    fn shell(alloc: Arc<PmAllocator>, cfg: NvTreeConfig) -> NvTree {
        assert!(cfg.leaf_entries >= 4, "leaf too small to split");
        let flag_words = (cfg.leaf_entries as u64).div_ceil(64);
        let entries_off = FLAGS_OFF + flag_words * 8;
        let leaf_size = (entries_off + 16 * cfg.leaf_entries as u64) as usize;
        NvTree {
            alloc,
            smo: Htm::new(),
            epoch: epoch::Collector::new(),
            snap: Atomic::null(),
            cfg,
            flag_words,
            entries_off,
            leaf_size,
        }
    }

    #[inline]
    fn pool(&self) -> &PmPool {
        self.alloc.pool()
    }

    #[inline]
    fn key_off(&self, leaf: u64, i: usize) -> u64 {
        leaf + self.entries_off + 16 * i as u64
    }

    #[inline]
    fn val_off(&self, leaf: u64, i: usize) -> u64 {
        self.key_off(leaf, i) + 8
    }

    #[inline]
    fn flag_off(&self, leaf: u64, i: usize) -> u64 {
        leaf + FLAGS_OFF + (i as u64 / 64) * 8
    }

    fn init_leaf_header(&self, leaf: u64, next: u64) {
        let pool = self.pool();
        pool.write_u64(leaf + COUNT_OFF, 0);
        pool.write_u64(leaf + VLOCK_OFF, 0);
        pool.write_u64(leaf + NEXT_OFF, next);
        for w in 0..self.flag_words {
            pool.write_u64(leaf + FLAGS_OFF + w * 8, 0);
        }
    }

    /// Count of appended entries (clamped against garbage).
    #[inline]
    fn leaf_count(&self, leaf: u64) -> usize {
        (self.pool().read_u64(leaf + COUNT_OFF) as usize).min(self.cfg.leaf_entries)
    }

    fn leaf_try_lock(&self, leaf: u64) -> bool {
        let v = self.pool().load_u64(leaf + VLOCK_OFF, Ordering::Acquire);
        v & 1 == 0 && self.pool().cas_u64(leaf + VLOCK_OFF, v, v + 1).is_ok()
    }

    fn leaf_unlock(&self, leaf: u64) {
        let v = self.pool().load_u64(leaf + VLOCK_OFF, Ordering::Relaxed);
        debug_assert_eq!(v & 1, 1);
        self.pool()
            .store_u64(leaf + VLOCK_OFF, v + 1, Ordering::Release);
    }

    /// Newest of the first `count` entries for `key`: `None` = no entry,
    /// `Some(None)` = tombstone, `Some(Some(v))` = live. The entry array
    /// is read newest-first, one media block per access, so a hit reads
    /// no block below its own; an entry whose value starts the next
    /// block takes it from the block read before.
    fn read_latest(&self, leaf: u64, count: usize, key: Key) -> Option<Option<Value>> {
        let base = self.key_off(leaf, 0);
        let mut value = 0;
        self.pool()
            .read_blocks_rev(base, self.key_off(leaf, count), |start, words| {
                let first = ((start - base) / 8) as usize;
                for (j, &word) in words.iter().enumerate().rev() {
                    let w = first + j;
                    if w % 2 == 1 {
                        value = word;
                    } else if word == key {
                        let i = w / 2;
                        let flags = self.pool().read_u64(self.flag_off(leaf, i));
                        return ControlFlow::Break((flags >> (i % 64) & 1 == 1).then_some(value));
                    }
                }
                ControlFlow::Continue(())
            })
    }

    /// All live records of a leaf (latest entry per key, tombstones
    /// dropped), sorted by key: its entries with one access, then its
    /// used flag words with one more.
    fn live_records(&self, leaf: u64) -> Vec<(Key, Value)> {
        let pool = self.pool();
        let count = self.leaf_count(leaf);
        let mut entries = vec![0u64; 2 * count];
        pool.read_words(self.key_off(leaf, 0), &mut entries);
        let mut flags = vec![0u64; count.div_ceil(64)];
        pool.read_words(self.flag_off(leaf, 0), &mut flags);
        let log = entries
            .chunks_exact(2)
            .enumerate()
            .map(|(i, e)| (e[0], e[1], flags[i / 64] >> (i % 64) & 1 == 1));
        index_api::newest_wins(log.collect())
    }

    /// Append one entry at `slot`, the count of a locked, non-full leaf,
    /// with NV-Tree's persistence order: entry + flag first,
    /// count-increment commit second.
    fn append(&self, leaf: u64, slot: usize, key: Key, value: Value, live: bool) {
        let _site = obs::site("nvtree_log_append");
        let pool = self.pool();
        debug_assert!(slot < self.cfg.leaf_entries);
        pool.write_u64(self.key_off(leaf, slot), key);
        pool.write_u64(self.val_off(leaf, slot), value);
        let fo = self.flag_off(leaf, slot);
        let flags = pool.read_u64(fo);
        let bit = 1u64 << (slot % 64);
        pool.write_u64(fo, if live { flags | bit } else { flags & !bit });
        pool.clwb(self.key_off(leaf, slot), 16);
        pool.clwb(fo, 8);
        pool.sfence();
        pool.write_u64(leaf + COUNT_OFF, slot as u64 + 1);
        pool.persist(leaf + COUNT_OFF, 8);
    }

    /// Route `key` to a leaf using the current snapshot. Caller must be
    /// inside an epoch pin and validate against the SMO version.
    fn route(&self, key: Key, guard: &epoch::Guard) -> Result<u64, Abort> {
        let shared = self.snap.load(Ordering::Acquire, guard);
        // SAFETY: snapshots are retired through the same epoch domain.
        let snap = unsafe { shared.as_ref() }.ok_or(Abort)?;
        snap.route(key).ok_or(Abort)
    }

    /// Traverse + lock + validate (same pattern as FPTree).
    fn locate_and_lock(&self, key: Key, guard: &epoch::Guard) -> u64 {
        loop {
            let (leaf, ver) = self
                .smo
                .speculative_read(|v| self.route(key, guard).map(|l| (l, v)));
            if !self.leaf_try_lock(leaf) {
                std::hint::spin_loop();
                continue;
            }
            if self.smo.version() != ver {
                self.leaf_unlock(leaf);
                continue;
            }
            return leaf;
        }
    }

    /// Replace a full, locked leaf with one or two compacted leaves,
    /// folding in `pending`. Runs inside the SMO write transaction.
    /// The old leaf is freed after a grace period.
    fn replace_split(&self, old: u64, op_key: Key, pending: Pending, guard: &epoch::Guard) {
        let _site = obs::site("nvtree_leaf_replace");
        let pool = self.pool();
        let mut live = self.live_records(old);
        match pending {
            Pending::Put(k, v) => match live.binary_search_by_key(&k, |&(k, _)| k) {
                Ok(i) => live[i].1 = v,
                Err(i) => live.insert(i, (k, v)),
            },
            Pending::Del(k) => {
                if let Ok(i) = live.binary_search_by_key(&k, |&(k, _)| k) {
                    live.remove(i);
                }
            }
        }

        let shared = self.snap.load(Ordering::Acquire, guard);
        // SAFETY: epoch-protected; we are the only SMO (write txn).
        let snap = unsafe { shared.deref() };
        let (pln, idx) = snap
            .find_entry_for(op_key, old)
            .expect("locked leaf must be routed");
        let sep_old = pln.key(idx);
        let old_next = pool.read_u64(old + NEXT_OFF);

        // Build the replacement leaves (unreachable until published; a
        // crash before the publish leaks them to recovery GC).
        let two = live.len() > self.cfg.leaf_entries * 3 / 4;
        let (first, second) = if two {
            let mid = live.len() / 2;
            let right = self.build_leaf(&live[mid..], old_next);
            let left = self.build_leaf(&live[..mid], right);
            (left, Some((live[mid].0, right)))
        } else {
            (self.build_leaf(&live, old_next), None)
        };

        // Publish with a single atomic 8-byte pointer write.
        match snap.predecessor(sep_old, old) {
            None => {
                pool.write_u64(SLOT_HEAD * 8, first);
                pool.persist(SLOT_HEAD * 8, 8);
            }
            Some(prev) => {
                pool.write_u64(prev + NEXT_OFF, first);
                pool.persist(prev + NEXT_OFF, 8);
            }
        }

        // Update routing in place; overflow forces a snapshot rebuild.
        // The globally-first leaf absorbs underflow keys (routing clamps
        // to the first entry), so after a recovery-recomputed separator
        // its live minimum can undercut `sep_old`; lower the separator
        // to keep PLN order strict.
        let sep_left = live.first().map_or(sep_old, |&(k, _)| k.min(sep_old));
        pln.replace_at(idx, sep_left, first);
        if let Some((sep_right, right)) = second {
            if !pln.insert_sorted(sep_right, right) {
                let mut entries = snap.all_entries();
                // `replace_at` already swapped old→first in `entries`.
                let pos = entries
                    .iter()
                    .position(|&(s, l)| s == sep_left && l == first)
                    .expect("replaced entry present");
                entries.insert(pos + 1, (sep_right, right));
                let new_snap = Owned::new(Snapshot::build(&entries, snap.pln_cap()));
                let old_snap = self.snap.swap(new_snap, Ordering::AcqRel, guard);
                // SAFETY: no new readers can obtain `old_snap`; retire it.
                unsafe { guard.defer_destroy(old_snap) };
            }
        }

        // Retire the old leaf once concurrent readers have moved on.
        let alloc = self.alloc.clone();
        guard.defer(move || alloc.free(old));
    }

    /// Allocate and fully persist a compacted leaf.
    fn build_leaf(&self, records: &[(Key, Value)], next: u64) -> u64 {
        let pool = self.pool();
        let leaf = self
            .alloc
            .alloc(self.leaf_size)
            .expect("PM pool exhausted during NV-Tree split");
        self.init_leaf_header(leaf, next);
        let mut flags = vec![0u64; self.flag_words as usize];
        for (i, &(k, v)) in records.iter().enumerate() {
            pool.write_u64(self.key_off(leaf, i), k);
            pool.write_u64(self.val_off(leaf, i), v);
            flags[i / 64] |= 1 << (i % 64);
        }
        for (w, &f) in flags.iter().enumerate() {
            pool.write_u64(leaf + FLAGS_OFF + w as u64 * 8, f);
        }
        pool.write_u64(leaf + COUNT_OFF, records.len() as u64);
        pool.persist(leaf, self.leaf_size);
        leaf
    }

    /// Shared implementation of the three write paths.
    fn write_op(&self, key: Key, value: Value, kind: WriteKind) -> bool {
        let _site = obs::site(match kind {
            WriteKind::Insert => "nvtree_insert",
            WriteKind::Update => "nvtree_update",
            WriteKind::Remove => "nvtree_remove",
        });
        let guard = self.epoch.pin();
        {
            let leaf = self.locate_and_lock(key, &guard);
            let count = self.leaf_count(leaf);
            let latest = self.read_latest(leaf, count, key).flatten();
            let proceed = match kind {
                WriteKind::Insert => latest.is_none(),
                WriteKind::Update | WriteKind::Remove => latest.is_some(),
            };
            if !proceed {
                self.leaf_unlock(leaf);
                return false;
            }
            if count < self.cfg.leaf_entries {
                match kind {
                    WriteKind::Insert | WriteKind::Update => {
                        self.append(leaf, count, key, value, true)
                    }
                    WriteKind::Remove => self.append(leaf, count, key, 0, false),
                }
                self.leaf_unlock(leaf);
                return true;
            }
            // Full: fold the op into a replace-split.
            let pending = match kind {
                WriteKind::Insert | WriteKind::Update => Pending::Put(key, value),
                WriteKind::Remove => Pending::Del(key),
            };
            self.smo
                .write_txn(|| self.replace_split(leaf, key, pending, &guard));
            self.leaf_unlock(leaf); // stale readers may still spin on it
            true
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum WriteKind {
    Insert,
    Update,
    Remove,
}

impl RangeIndex for NvTree {
    fn insert(&self, key: Key, value: Value) -> bool {
        self.write_op(key, value, WriteKind::Insert)
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        let _site = obs::site("nvtree_lookup");
        let guard = self.epoch.pin();
        self.smo.speculative_read(|_| {
            let leaf = self.route(key, &guard)?;
            let v1 = self.pool().load_u64(leaf + VLOCK_OFF, Ordering::Acquire);
            if v1 & 1 == 1 {
                return Err(Abort);
            }
            let r = self.read_latest(leaf, self.leaf_count(leaf), key).flatten();
            if self.pool().load_u64(leaf + VLOCK_OFF, Ordering::Acquire) != v1 {
                return Err(Abort);
            }
            Ok(r)
        })
    }

    fn update(&self, key: Key, value: Value) -> bool {
        self.write_op(key, value, WriteKind::Update)
    }

    fn remove(&self, key: Key) -> bool {
        self.write_op(key, 0, WriteKind::Remove)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let _site = obs::site("nvtree_scan");
        out.clear();
        if count == 0 {
            return 0;
        }
        let guard = self.epoch.pin();
        let pool = self.pool();
        let mut leaf = self.smo.speculative_read(|_| self.route(start, &guard));
        while leaf != 0 && out.len() < count {
            // Optimistic per-leaf snapshot: version-validated copy.
            let (batch, next) = loop {
                let v1 = pool.load_u64(leaf + VLOCK_OFF, Ordering::Acquire);
                if v1 & 1 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                let mut batch = self.live_records(leaf);
                batch.retain(|&(k, _)| k >= start);
                let next = pool.read_u64(leaf + NEXT_OFF);
                if pool.load_u64(leaf + VLOCK_OFF, Ordering::Acquire) == v1 {
                    break (batch, next);
                }
            };
            out.extend(batch);
            leaf = next;
        }
        out.truncate(count);
        out.len()
    }

    fn name(&self) -> &'static str {
        "nvtree"
    }

    fn footprint(&self) -> Footprint {
        let guard = self.epoch.pin();
        let shared = self.snap.load(Ordering::Acquire, &guard);
        let dram = unsafe { shared.as_ref() }
            .map(|s| s.dram_bytes())
            .unwrap_or(0);
        Footprint {
            pm_bytes: self.alloc.live_bytes(),
            dram_bytes: dram,
        }
    }
}

impl Drop for NvTree {
    fn drop(&mut self) {
        // Reclaim the final snapshot.
        let s = self
            .snap
            .swap(epoch::Shared::null(), Ordering::AcqRel, unsafe {
                epoch::unprotected()
            });
        if !s.is_null() {
            // SAFETY: exclusive access in drop.
            drop(unsafe { s.into_owned() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::{oracle, Op, Oracle};
    use pmalloc::AllocMode;
    use pmem::{PmConfig, MEDIA_BLOCK};

    fn fresh(pool_mib: usize, cfg: NvTreeConfig) -> Arc<NvTree> {
        let pool = Arc::new(PmPool::new(pool_mib << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool, AllocMode::General);
        NvTree::create(alloc, cfg)
    }

    fn small_cfg() -> NvTreeConfig {
        NvTreeConfig {
            leaf_entries: 8,
            pln_entries: 8,
        }
    }

    #[test]
    fn basic_ops() {
        let t = fresh(4, NvTreeConfig::default());
        assert!(t.insert(1, 10));
        assert!(!t.insert(1, 11));
        assert_eq!(t.lookup(1), Some(10));
        assert!(t.update(1, 12));
        assert_eq!(t.lookup(1), Some(12));
        assert!(t.remove(1));
        assert!(!t.remove(1));
        assert_eq!(t.lookup(1), None);
        // Re-insert after tombstone.
        assert!(t.insert(1, 13));
        assert_eq!(t.lookup(1), Some(13));
    }

    #[test]
    fn appends_fill_then_replace_split() {
        let t = fresh(8, small_cfg());
        for k in 0..200u64 {
            assert!(t.insert(k, k * 3));
        }
        for k in 0..200u64 {
            assert_eq!(t.lookup(k), Some(k * 3), "key {k}");
        }
    }

    #[test]
    fn update_heavy_leaf_compacts_to_single_replacement() {
        let t = fresh(8, small_cfg());
        t.insert(5, 0);
        // 8-slot leaf: updates fill the append area repeatedly, forcing
        // single-leaf replacements rather than splits.
        for i in 1..100u64 {
            assert!(t.update(5, i));
        }
        assert_eq!(t.lookup(5), Some(99));
    }

    #[test]
    fn conformance_against_oracle() {
        let t = fresh(32, small_cfg());
        oracle::check_conformance(&*t, 0xBEEF, 20_000, 3_000);
    }

    #[test]
    fn scan_across_replacements() {
        let t = fresh(16, small_cfg());
        for k in (0..500u64).rev() {
            t.insert(k, k + 7);
        }
        let mut out = Vec::new();
        assert_eq!(t.scan(100, 50, &mut out), 50);
        let want: Vec<(u64, u64)> = (100..150).map(|k| (k, k + 7)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn recovery_restores_persisted_state() {
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = NvTree::create(alloc, cfg);
        for k in 0..1_000u64 {
            t.insert(k, k);
        }
        for k in 0..1_000u64 {
            if k % 3 == 0 {
                t.remove(k);
            }
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        let t = NvTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..1_000u64 {
            let want = if k % 3 == 0 { None } else { Some(k) };
            assert_eq!(t.lookup(k), want, "key {k}");
        }
    }

    #[test]
    fn recovery_gc_reclaims_unreachable_leaves() {
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = NvTree::create(alloc.clone(), cfg);
        for k in 0..2_000u64 {
            t.insert(k, k);
        }
        // Deliberately leak: allocate blocks that nothing references
        // (simulates replaced leaves whose deferred free never ran).
        for _ in 0..10 {
            alloc.alloc(256).unwrap();
        }
        let live_with_leaks = alloc.live_bytes();
        drop(t);
        pool.crash();
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        let t = NvTree::try_recover(alloc.clone(), cfg).expect("recovery");
        assert!(
            alloc.live_bytes() < live_with_leaks,
            "GC should reclaim leaked blocks"
        );
        for k in 0..2_000u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn concurrent_inserts_disjoint_ranges() {
        let t = fresh(64, NvTreeConfig::default());
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let k = tid * 10_000 + i;
                        assert!(t.insert(k, k));
                    }
                });
            }
        });
        for tid in 0..8u64 {
            for i in 0..2_000u64 {
                let k = tid * 10_000 + i;
                assert_eq!(t.lookup(k), Some(k), "key {k}");
            }
        }
    }

    #[test]
    fn concurrent_mixed_ops_stay_consistent() {
        let t = fresh(64, small_cfg());
        std::thread::scope(|s| {
            for tid in 0..6u64 {
                let t = &t;
                s.spawn(move || {
                    let mut x = tid + 99;
                    for i in 0..2_000u64 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = x % 2_048;
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
                                t.scan(k, 8, &mut out);
                                assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
                            }
                        }
                    }
                });
            }
        });
    }

    /// Apply `ops` to `t` and to `o`, asserting every outcome agrees.
    fn agree(t: &NvTree, o: &mut Oracle, ops: impl IntoIterator<Item = Op>) {
        let mut buf = Vec::new();
        for op in ops {
            assert_eq!(op.apply(t, &mut buf), o.apply(op), "{op:?}");
        }
    }

    /// One leaf whose entries span two media blocks, read newest-first
    /// one block per access. With 70 entries two flag words put the
    /// entry array at +40, so the entry holding key 3's newer version
    /// (entry 13) has its key at the end of block 0 and its value at
    /// the start of block 1.
    #[test]
    fn leaf_reads_across_media_blocks_match_the_oracle() {
        for leaf_entries in [24, 70] {
            let cfg = NvTreeConfig {
                leaf_entries,
                pln_entries: 8,
            };
            let pool = Arc::new(PmPool::new(4 << 20, PmConfig::real()));
            let t = NvTree::create(PmAllocator::format(pool.clone(), AllocMode::General), cfg);
            let mut o = Oracle::new();
            // Entries 0..=12 hold keys 1..=13, all in block 0.
            agree(&t, &mut o, (1..=13).map(|k| Op::Insert(k, k)));
            // Entry 13: key 3's newer version (straddling at 70 entries);
            // entries 14..=16 in block 1: key 5's tombstone, key 7's
            // newer version, a new key 100.
            agree(
                &t,
                &mut o,
                [
                    Op::Update(3, 33),
                    Op::Remove(5),
                    Op::Update(7, 77),
                    Op::Insert(100, 100),
                ],
            );
            let leaf = t.route(0, &t.epoch.pin()).unwrap();
            let count = t.leaf_count(leaf);
            let blocks = (t.key_off(leaf, count) - 1) / MEDIA_BLOCK as u64
                - t.key_off(leaf, 0) / MEDIA_BLOCK as u64
                + 1;
            assert_eq!((count, blocks), (17, 2), "{leaf_entries} entries");
            // A lookup reads the version lock twice, the count once, one
            // access per block it visits and, on a hit, the flag word.
            let reads = |k| {
                let before = pool.stats().read_ops;
                t.lookup(k);
                pool.stats().read_ops - before
            };
            assert_eq!(reads(100), 5, "a hit in the first block read");
            assert_eq!(reads(3), 6, "a hit in the second block read");
            assert_eq!(reads(9_999), 3 + blocks, "a miss reads every block once");
            agree(&t, &mut o, (0..=101).chain([9_999]).map(Op::Lookup));
            agree(
                &t,
                &mut o,
                [Op::Scan(0, 100), Op::Scan(4, 3), Op::Scan(6, 2)],
            );
        }
    }

    #[test]
    fn footprint_nonzero() {
        let t = fresh(8, small_cfg());
        for k in 0..100u64 {
            t.insert(k, k);
        }
        let f = t.footprint();
        assert!(f.pm_bytes > 0);
        assert!(f.dram_bytes > 0);
    }
}
