//! The FPTree proper: operations, splits, recovery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htm::{Abort, Htm};
use index_api::{Footprint, Key, RangeIndex, Value};
use pmalloc::PmAllocator;
use pmem::{MediaError, PmOff, PmPool};

use crate::inner::{self, Inner};
use crate::layout::{LeafLayout, BITMAP_OFF, NEXT_OFF, PAIR_BYTES, VLOCK_OFF};
use crate::{fingerprint, FpTreeConfig, KeyMode};

// Root-area slots used by FPTree (8-byte slots; the allocator's own
// metadata lives past the root area).
const SLOT_HEAD: u64 = 8; // leftmost leaf (entry point for recovery)
const SLOT_LOG_OLD: u64 = 9; // split micro-log: leaf being split
const SLOT_LOG_NEW: u64 = 10; // split micro-log: new right sibling
const SLOT_LOG_KEY: u64 = 11; // split micro-log: separator key
const SLOT_LOG_VALID: u64 = 12; // split micro-log: commit flag
const SLOT_CFG: u64 = 13; // persisted leaf_entries for config validation

#[inline]
fn slot_off(slot: u64) -> u64 {
    slot * 8
}

/// FPTree: hybrid DRAM–PM persistent B+-tree (see crate docs).
pub struct FpTree {
    alloc: Arc<PmAllocator>,
    htm: Htm,
    /// Tagged root child word (leaf offset or inner pointer).
    root: AtomicU64,
    layout: LeafLayout,
    cfg: FpTreeConfig,
    /// DRAM inner nodes currently allocated (for footprint reporting).
    inner_count: AtomicU64,
}

// SAFETY: the only non-auto-Send/Sync state is the tagged pointers in
// `root`/inner nodes, which are managed under the documented HTM
// protocol (inner nodes are never freed while operations run).
unsafe impl Send for FpTree {}
unsafe impl Sync for FpTree {}

impl FpTree {
    /// Create a fresh tree on a formatted allocator/pool.
    pub fn create(alloc: Arc<PmAllocator>, cfg: FpTreeConfig) -> Arc<FpTree> {
        let layout = LeafLayout::new(cfg.leaf_entries);
        let pool = alloc.pool().clone();
        let head = alloc
            .alloc_linked(layout.size, slot_off(SLOT_HEAD))
            .expect("pool too small for FPTree head leaf");
        pool.write_u64(head + BITMAP_OFF, 0);
        pool.write_u64(head + VLOCK_OFF, 0);
        pool.write_u64(head + NEXT_OFF, 0);
        pool.persist(head, 24);
        pool.write_u64(slot_off(SLOT_CFG), cfg.leaf_entries as u64);
        pool.persist(slot_off(SLOT_CFG), 8);
        Arc::new(FpTree {
            alloc,
            htm: Htm::new(),
            root: AtomicU64::new(inner::tag_leaf(head)),
            layout,
            cfg,
            inner_count: AtomicU64::new(0),
        })
    }

    /// Reopen after a crash or shutdown: replay the split micro-log,
    /// clear leaf version locks, and rebuild the DRAM inner nodes by
    /// bulk-loading from the persistent leaf chain. Probes the root
    /// slots (head pointer, split micro-log, config) and every leaf in
    /// the chain for media errors before reading it — and before the
    /// vlock clears write to it — so a poisoned line surfaces as a
    /// reported [`MediaError`], never as garbage records or routing
    /// keys.
    pub fn try_recover(
        alloc: Arc<PmAllocator>,
        cfg: FpTreeConfig,
    ) -> Result<Arc<FpTree>, MediaError> {
        let pool = alloc.pool().clone();
        pool.check_readable(slot_off(SLOT_HEAD), 48)
            .map_err(|e| e.context("FPTree root slots"))?;
        let persisted_entries = pool.read_u64(slot_off(SLOT_CFG)) as usize;
        assert_eq!(
            persisted_entries, cfg.leaf_entries,
            "try_recover() config must match the on-media leaf layout"
        );
        let layout = LeafLayout::new(cfg.leaf_entries);
        let tree = FpTree {
            alloc,
            htm: Htm::new(),
            root: AtomicU64::new(0),
            layout,
            cfg,
            inner_count: AtomicU64::new(0),
        };
        tree.replay_split_log()?;
        tree.rebuild_from_leaves()?;
        Ok(Arc::new(tree))
    }

    #[inline]
    fn pool(&self) -> &PmPool {
        self.alloc.pool()
    }

    // ----- leaf primitives -------------------------------------------------

    /// Try to acquire a leaf's version lock. Returns the pre-lock (even)
    /// version on success.
    fn leaf_try_lock(&self, leaf: u64) -> Option<u64> {
        let v = self.pool().load_u64(leaf + VLOCK_OFF, Ordering::Acquire);
        if v & 1 == 1 {
            return None;
        }
        self.pool().cas_u64(leaf + VLOCK_OFF, v, v + 1).ok()
    }

    /// Release a leaf lock, bumping the version so optimistic readers
    /// revalidate.
    fn leaf_unlock(&self, leaf: u64) {
        let v = self.pool().load_u64(leaf + VLOCK_OFF, Ordering::Relaxed);
        debug_assert_eq!(v & 1, 1, "unlocking an unlocked leaf");
        self.pool()
            .store_u64(leaf + VLOCK_OFF, v + 1, Ordering::Release);
    }

    /// The key a slot's key word stands for (dereferencing the key cell
    /// in pointer mode — the extra PM read E14 measures).
    #[inline]
    fn key_of(&self, word: u64) -> Key {
        match self.cfg.key_mode {
            KeyMode::Inline => word,
            KeyMode::Pointer => self.pool().read_u64(word),
        }
    }

    /// The key stored in `slot`.
    #[inline]
    fn slot_key(&self, leaf: u64, slot: usize) -> Key {
        self.key_of(self.pool().read_u64(self.layout.key(leaf, slot)))
    }

    /// Free the key cell referenced by `slot` (pointer mode only); call
    /// after the slot's bitmap bit is durably clear.
    fn free_key_cell(&self, leaf: u64, slot: usize) {
        if self.cfg.key_mode == KeyMode::Pointer {
            let cell = self.pool().read_u64(self.layout.key(leaf, slot));
            self.alloc.free(cell);
        }
    }

    /// Find `key` in a leaf. Returns its slot if present; only `lookup`
    /// goes on to read the value. Callers must hold the leaf lock or
    /// validate versions around the call.
    fn find_in_leaf(&self, leaf: u64, key: Key) -> Option<usize> {
        let pool = self.pool();
        let bitmap = pool.read_u64(leaf + BITMAP_OFF) & self.layout.full_mask();
        if self.cfg.use_fingerprints {
            let mut fps = [0u8; 64];
            pool.read_bytes(leaf + self.layout.fp_off, &mut fps[..self.layout.entries]);
            let want = fingerprint(key);
            let mut bits = bitmap;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if fps[slot] == want && self.slot_key(leaf, slot) == key {
                    return Some(slot);
                }
            }
        } else {
            let mut bits = bitmap;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.slot_key(leaf, slot) == key {
                    return Some(slot);
                }
            }
        }
        None
    }

    /// Write a record into `slot` of a locked leaf with FPTree's
    /// persistence order: the (key, value) cell and the fingerprint
    /// first — one line each — then the atomic bitmap publication.
    fn write_record(&self, leaf: u64, slot: usize, key: Key, value: Value) {
        let pool = self.pool();
        let key_word = match self.cfg.key_mode {
            KeyMode::Inline => key,
            KeyMode::Pointer => {
                // Store the key out of line, as variable-length keys
                // would be. (A crash between this allocation and the
                // bitmap publication leaks the cell — the same window
                // the original pointer-based designs accept.)
                let cell = self
                    .alloc
                    .alloc(16)
                    .expect("PM pool exhausted allocating key cell");
                pool.write_u64(cell, key);
                pool.clwb(cell, 8);
                cell
            }
        };
        let pair = self.layout.pair(leaf, slot);
        pool.write(PmOff::new(pair), &[key_word, value]);
        pool.write_bytes(self.layout.fp(leaf, slot), &[fingerprint(key)]);
        pool.clwb(pair, PAIR_BYTES as usize);
        pool.clwb(self.layout.fp(leaf, slot), 1);
        pool.sfence();
    }

    /// Atomically publish a new bitmap for a locked leaf.
    fn publish_bitmap(&self, leaf: u64, bitmap: u64) {
        let pool = self.pool();
        pool.write_u64(leaf + BITMAP_OFF, bitmap);
        pool.persist(leaf + BITMAP_OFF, 8);
    }

    // ----- traversal ---------------------------------------------------------

    /// Descend the DRAM inner nodes to the leaf covering `key`.
    /// Tolerates torn reads (returns `Err(Abort)` on anything odd); the
    /// caller validates via the HTM version.
    fn traverse(&self, key: Key) -> Result<u64, Abort> {
        let mut w = self.root.load(Ordering::Acquire);
        for _ in 0..64 {
            if w == 0 {
                return Err(Abort);
            }
            if inner::is_leaf(w) {
                return Ok(inner::leaf_off(w));
            }
            // SAFETY: inner nodes are never freed while operations run.
            let node = unsafe { inner::inner_ref(w) };
            w = node.child_for(key);
        }
        Err(Abort)
    }

    /// Traverse and lock the target leaf, validating that no SMO
    /// committed between the traversal and the lock acquisition.
    fn locate_and_lock(&self, key: Key) -> (u64, u64) {
        loop {
            let (leaf, ver) = self
                .htm
                .speculative_read(|v| self.traverse(key).map(|l| (l, v)));
            let Some(prev) = self.leaf_try_lock(leaf) else {
                std::hint::spin_loop();
                continue;
            };
            if self.htm.version() != ver {
                // An SMO slipped in; the leaf may no longer cover `key`.
                self.leaf_unlock(leaf);
                continue;
            }
            return (leaf, prev);
        }
    }

    // ----- splits ------------------------------------------------------------

    /// Split a full, locked leaf. Runs inside the HTM write transaction.
    /// Returns `(separator, new_leaf)`; the new leaf is created locked.
    fn split_leaf_locked(&self, old: u64) -> (Key, u64) {
        let _site = obs::site("fptree_leaf_split");
        let pool = self.pool();
        let l = &self.layout;
        // Gather and sort live records.
        let bitmap = pool.read_u64(old + BITMAP_OFF) & l.full_mask();
        let mut recs: Vec<(Key, usize)> = Vec::with_capacity(l.entries);
        let mut bits = bitmap;
        while bits != 0 {
            let slot = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            recs.push((self.slot_key(old, slot), slot));
        }
        recs.sort_unstable();
        let mid = recs.len() / 2;
        let split_key = recs[mid].0;

        // Micro-log: allocate-and-publish the new leaf into the log slot
        // (atomic with allocation), then persist the rest of the log and
        // set the valid flag last.
        let new = self
            .alloc
            .alloc_linked(l.size, slot_off(SLOT_LOG_NEW))
            .expect("PM pool exhausted during split");
        pool.write_u64(slot_off(SLOT_LOG_OLD), old);
        pool.write_u64(slot_off(SLOT_LOG_KEY), split_key);
        pool.persist(slot_off(SLOT_LOG_OLD), 24);
        pool.write_u64(slot_off(SLOT_LOG_VALID), 1);
        pool.persist(slot_off(SLOT_LOG_VALID), 8);

        // Initialize the new (locked) leaf with the upper half.
        pool.write_u64(new + VLOCK_OFF, 1);
        pool.write_u64(new + NEXT_OFF, pool.read_u64(old + NEXT_OFF));
        let mut new_bitmap = 0u64;
        let mut moved = 0u64;
        for (i, &(k, slot)) in recs[mid..].iter().enumerate() {
            // Copy the raw cell: in pointer mode the key cell is shared
            // by the new leaf, not re-allocated.
            let pair: [u64; 2] = pool.read(PmOff::new(l.pair(old, slot)));
            pool.write(PmOff::new(l.pair(new, i)), &pair);
            pool.write_bytes(l.fp(new, i), &[fingerprint(k)]);
            new_bitmap |= 1 << i;
            moved |= 1 << slot;
        }
        pool.write_u64(new + BITMAP_OFF, new_bitmap);
        pool.persist(new, l.size);

        // Publish into the leaf chain, then commit by shrinking the old
        // leaf's bitmap — both 8-byte atomic writes.
        pool.write_u64(old + NEXT_OFF, new);
        pool.persist(old + NEXT_OFF, 8);
        self.publish_bitmap(old, bitmap & !moved);

        // Retire the log.
        pool.write_u64(slot_off(SLOT_LOG_VALID), 0);
        pool.persist(slot_off(SLOT_LOG_VALID), 8);
        pool.write_u64(slot_off(SLOT_LOG_NEW), 0);
        pool.persist(slot_off(SLOT_LOG_NEW), 8);

        // Reflect the split in the DRAM inner nodes.
        self.insert_separator(split_key, inner::tag_leaf(new));
        (split_key, new)
    }

    /// Insert `(key, right)` into the inner structure, splitting inner
    /// nodes / growing the root as needed. Runs inside the write txn.
    fn insert_separator(&self, key: Key, right: u64) {
        let _site = obs::site("fptree_inner_insert");
        // Collect the inner path to the leaf that covered `key`.
        let mut path: Vec<&Inner> = Vec::new();
        let mut w = self.root.load(Ordering::Acquire);
        while !inner::is_leaf(w) {
            // SAFETY: write txn holds the global lock; pointers are live.
            let node = unsafe { inner::inner_ref(w) };
            path.push(node);
            w = node.child_for(key);
        }
        let mut key = key;
        let mut right = right;
        loop {
            match path.pop() {
                None => {
                    // Grow a new root above the old one.
                    let old_root = self.root.load(Ordering::Acquire);
                    let node = Inner::new(self.cfg.inner_fanout);
                    node.init_root(key, old_root, right);
                    self.inner_count.fetch_add(1, Ordering::Relaxed);
                    self.root
                        .store(inner::tag_inner(Box::into_raw(node)), Ordering::Release);
                    return;
                }
                Some(node) => {
                    if !node.is_full() {
                        node.insert(key, right);
                        return;
                    }
                    // Split the inner node and keep propagating.
                    let new_right = Inner::new(self.cfg.inner_fanout);
                    let promote = node.split_into(&new_right);
                    if key >= promote {
                        new_right.insert(key, right);
                    } else {
                        node.insert(key, right);
                    }
                    self.inner_count.fetch_add(1, Ordering::Relaxed);
                    key = promote;
                    right = inner::tag_inner(Box::into_raw(new_right));
                }
            }
        }
    }

    // ----- recovery ----------------------------------------------------------

    /// Recovery-time key read that reports (rather than raises) a
    /// media error on a poisoned out-of-line key cell. The leaf itself
    /// must already have been probed by the caller.
    fn checked_slot_key(&self, leaf: u64, slot: usize) -> Result<Key, MediaError> {
        let w = self.pool().read_u64(self.layout.key(leaf, slot));
        match self.cfg.key_mode {
            KeyMode::Inline => Ok(w),
            KeyMode::Pointer => {
                self.pool()
                    .check_readable(w, 8)
                    .map_err(|e| e.context("FPTree out-of-line key cell"))?;
                Ok(self.pool().read_u64(w))
            }
        }
    }

    /// Replay the split micro-log: roll a published split forward,
    /// roll an unpublished one back.
    fn replay_split_log(&self) -> Result<(), MediaError> {
        let pool = self.pool();
        let l = &self.layout;
        let valid = pool.read_u64(slot_off(SLOT_LOG_VALID));
        let new = pool.read_u64(slot_off(SLOT_LOG_NEW));
        if valid == 1 {
            let old = pool.read_u64(slot_off(SLOT_LOG_OLD));
            let split_key = pool.read_u64(slot_off(SLOT_LOG_KEY));
            pool.check_readable(old, l.size)
                .map_err(|e| e.context("FPTree split-log leaf"))?;
            if pool.read_u64(old + NEXT_OFF) == new {
                // Published: redo the bitmap shrink (idempotent).
                let bitmap = pool.read_u64(old + BITMAP_OFF) & l.full_mask();
                let mut keep = bitmap;
                let mut bits = bitmap;
                while bits != 0 {
                    let slot = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.checked_slot_key(old, slot)? >= split_key {
                        keep &= !(1 << slot);
                    }
                }
                self.publish_bitmap(old, keep);
            } else if self.alloc.is_allocated(new) {
                // Unpublished: the new leaf is unreachable; reclaim it.
                self.alloc.free(new);
            }
            pool.write_u64(slot_off(SLOT_LOG_VALID), 0);
            pool.persist(slot_off(SLOT_LOG_VALID), 8);
        } else if new != 0 && self.alloc.is_allocated(new) {
            // Allocation was published into the log but the log never
            // became valid: reclaim.
            self.alloc.free(new);
        }
        pool.write_u64(slot_off(SLOT_LOG_NEW), 0);
        pool.persist(slot_off(SLOT_LOG_NEW), 8);
        Ok(())
    }

    /// Rebuild inner nodes by walking the persistent leaf chain
    /// (bulk loading). Also clears leaf version locks left over from
    /// the crash.
    fn rebuild_from_leaves(&self) -> Result<(), MediaError> {
        let _site = obs::site("fptree_recovery");
        let pool = self.pool();
        let l = &self.layout;
        let head = pool.read_u64(slot_off(SLOT_HEAD));
        assert!(head != 0, "try_recover() on an unformatted tree");
        let mut level: Vec<(Key, u64)> = Vec::new();
        let mut leaf = head;
        while leaf != 0 {
            // Probe before the vlock clear writes to the leaf: a partial
            // overwrite could otherwise mask the poison.
            pool.check_readable(leaf, l.size)
                .map_err(|e| e.context("FPTree leaf"))?;
            pool.write_u64(leaf + VLOCK_OFF, 0); // clear runtime lock
            let bitmap = pool.read_u64(leaf + BITMAP_OFF) & l.full_mask();
            let mut min = Key::MAX;
            let mut bits = bitmap;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                min = min.min(self.checked_slot_key(leaf, slot)?);
            }
            if bitmap != 0 {
                level.push((min, inner::tag_leaf(leaf)));
            }
            leaf = pool.read_u64(leaf + NEXT_OFF);
        }
        if level.is_empty() {
            self.root.store(inner::tag_leaf(head), Ordering::Release);
            return Ok(());
        }
        debug_assert!(level.windows(2).all(|w| w[0].0 < w[1].0));
        // Build inner levels bottom-up.
        let fanout = self.cfg.inner_fanout;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len() / fanout + 1);
            for group in level.chunks(fanout + 1) {
                let node = Inner::new(fanout);
                let keys: Vec<Key> = group[1..].iter().map(|&(k, _)| k).collect();
                let children: Vec<u64> = group.iter().map(|&(_, c)| c).collect();
                node.load(&keys, &children);
                self.inner_count.fetch_add(1, Ordering::Relaxed);
                next.push((group[0].0, inner::tag_inner(Box::into_raw(node))));
            }
            level = next;
        }
        self.root.store(level[0].1, Ordering::Release);
        Ok(())
    }

    /// Number of DRAM inner nodes (exposed for tests/experiments).
    pub fn inner_node_count(&self) -> u64 {
        self.inner_count.load(Ordering::Relaxed)
    }
}

impl RangeIndex for FpTree {
    fn insert(&self, key: Key, value: Value) -> bool {
        let _site = obs::site("fptree_insert");
        let (leaf, _) = self.locate_and_lock(key);
        if self.find_in_leaf(leaf, key).is_some() {
            self.leaf_unlock(leaf);
            return false;
        }
        let bitmap = self.pool().read_u64(leaf + BITMAP_OFF) & self.layout.full_mask();
        if bitmap == self.layout.full_mask() {
            let (split_key, new) = self.htm.write_txn(|| self.split_leaf_locked(leaf));
            let target = if key >= split_key { new } else { leaf };
            let tb = self.pool().read_u64(target + BITMAP_OFF) & self.layout.full_mask();
            let slot = (!tb).trailing_zeros() as usize;
            debug_assert!(slot < self.layout.entries);
            self.write_record(target, slot, key, value);
            self.publish_bitmap(target, tb | (1 << slot));
            self.leaf_unlock(leaf);
            self.leaf_unlock(new);
            return true;
        }
        let slot = (!bitmap).trailing_zeros() as usize;
        self.write_record(leaf, slot, key, value);
        self.publish_bitmap(leaf, bitmap | (1 << slot));
        self.leaf_unlock(leaf);
        true
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        let _site = obs::site("fptree_lookup");
        self.htm.speculative_read(|_| {
            let leaf = self.traverse(key)?;
            let v1 = self.pool().load_u64(leaf + VLOCK_OFF, Ordering::Acquire);
            if v1 & 1 == 1 {
                return Err(Abort);
            }
            let r = self
                .find_in_leaf(leaf, key)
                .map(|slot| self.pool().read_u64(self.layout.val(leaf, slot)));
            if self.pool().load_u64(leaf + VLOCK_OFF, Ordering::Acquire) != v1 {
                return Err(Abort);
            }
            Ok(r)
        })
    }

    fn update(&self, key: Key, value: Value) -> bool {
        let _site = obs::site("fptree_update");
        loop {
            let (leaf, _) = self.locate_and_lock(key);
            let Some(slot) = self.find_in_leaf(leaf, key) else {
                self.leaf_unlock(leaf);
                return false;
            };
            let bitmap = self.pool().read_u64(leaf + BITMAP_OFF) & self.layout.full_mask();
            let free = !bitmap & self.layout.full_mask();
            if free == 0 {
                // Out-of-place update needs a spare slot: split first,
                // then retry (the key's new home has room).
                let (_, new) = self.htm.write_txn(|| self.split_leaf_locked(leaf));
                self.leaf_unlock(leaf);
                self.leaf_unlock(new);
                continue;
            }
            // FPTree updates are out-of-place: write the new record to a
            // free slot, then atomically swap validity bits in one
            // bitmap word for failure atomicity.
            let new_slot = free.trailing_zeros() as usize;
            self.write_record(leaf, new_slot, key, value);
            self.publish_bitmap(leaf, (bitmap & !(1 << slot)) | (1 << new_slot));
            self.free_key_cell(leaf, slot);
            self.leaf_unlock(leaf);
            return true;
        }
    }

    fn remove(&self, key: Key) -> bool {
        let _site = obs::site("fptree_remove");
        let (leaf, _) = self.locate_and_lock(key);
        let Some(slot) = self.find_in_leaf(leaf, key) else {
            self.leaf_unlock(leaf);
            return false;
        };
        let bitmap = self.pool().read_u64(leaf + BITMAP_OFF) & self.layout.full_mask();
        self.publish_bitmap(leaf, bitmap & !(1 << slot));
        self.free_key_cell(leaf, slot);
        self.leaf_unlock(leaf);
        true
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let _site = obs::site("fptree_scan");
        out.clear();
        if count == 0 {
            return 0;
        }
        let pool = self.pool();
        let l = &self.layout;
        let mut leaf = self.htm.speculative_read(|_| self.traverse(start));
        let mut batch: Vec<(Key, Value)> = Vec::with_capacity(l.entries);
        while leaf != 0 && out.len() < count {
            // FPTree scans lock each leaf while copying (the paper's
            // behaviour, and the source of its scan-under-contention
            // weakness).
            loop {
                if self.leaf_try_lock(leaf).is_some() {
                    break;
                }
                std::hint::spin_loop();
            }
            batch.clear();
            let bitmap = pool.read_u64(leaf + BITMAP_OFF) & l.full_mask();
            let mut bits = bitmap;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let [w, v] = pool.read(PmOff::<[u64; 2]>::new(l.pair(leaf, slot)));
                let k = self.key_of(w);
                if k >= start {
                    batch.push((k, v));
                }
            }
            let next = pool.read_u64(leaf + NEXT_OFF);
            self.leaf_unlock(leaf);
            batch.sort_unstable();
            out.extend(batch.iter().copied());
            leaf = next;
        }
        out.truncate(count);
        out.len()
    }

    fn name(&self) -> &'static str {
        "fptree"
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            pm_bytes: self.alloc.live_bytes(),
            dram_bytes: self.inner_count.load(Ordering::Relaxed)
                * Inner::dram_bytes(self.cfg.inner_fanout),
        }
    }
}

impl Drop for FpTree {
    fn drop(&mut self) {
        // Free the DRAM inner nodes; leaves live in the pool.
        let mut stack = vec![self.root.load(Ordering::Relaxed)];
        while let Some(w) = stack.pop() {
            if w != 0 && !inner::is_leaf(w) {
                // SAFETY: exclusive access in drop; pointer came from
                // Box::into_raw.
                let node = unsafe { Box::from_raw(w as *mut Inner) };
                for i in 0..=node.nkeys() {
                    stack.push(node.child(i));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::oracle;
    use pmalloc::AllocMode;
    use pmem::{PmConfig, MEDIA_BLOCK};

    fn fresh(pool_mib: usize, cfg: FpTreeConfig) -> Arc<FpTree> {
        let pool = Arc::new(PmPool::new(pool_mib << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool, AllocMode::General);
        FpTree::create(alloc, cfg)
    }

    fn small_cfg() -> FpTreeConfig {
        // Tiny nodes exercise splits and multi-level inners quickly.
        FpTreeConfig {
            leaf_entries: 8,
            inner_fanout: 4,
            ..FpTreeConfig::default()
        }
    }

    #[test]
    fn basic_ops() {
        let t = fresh(4, FpTreeConfig::default());
        assert!(t.insert(10, 100));
        assert!(!t.insert(10, 999), "duplicate insert");
        assert_eq!(t.lookup(10), Some(100));
        assert_eq!(t.lookup(11), None);
        assert!(t.update(10, 101));
        assert!(!t.update(11, 0));
        assert_eq!(t.lookup(10), Some(101));
        assert!(t.remove(10));
        assert!(!t.remove(10));
        assert_eq!(t.lookup(10), None);
    }

    #[test]
    fn many_inserts_with_splits() {
        let t = fresh(16, small_cfg());
        for k in 0..5_000u64 {
            assert!(t.insert(k * 7 % 5_000, k), "insert {k}");
        }
        for k in 0..5_000u64 {
            assert!(t.lookup(k).is_some(), "lookup {k}");
        }
        assert!(t.inner_node_count() > 10, "splits should build inners");
    }

    #[test]
    fn scan_is_sorted_across_leaves() {
        let t = fresh(16, small_cfg());
        let keys: Vec<u64> = (0..1000).map(|i| (i * 37) % 1000).collect();
        for &k in &keys {
            t.insert(k, k + 1);
        }
        let mut out = Vec::new();
        let n = t.scan(100, 50, &mut out);
        assert_eq!(n, 50);
        let want: Vec<(u64, u64)> = (100..150).map(|k| (k, k + 1)).collect();
        assert_eq!(out, want);
        // Scan past the end.
        let n = t.scan(990, 50, &mut out);
        assert_eq!(n, 10);
    }

    #[test]
    fn conformance_against_oracle() {
        let t = fresh(32, small_cfg());
        oracle::check_conformance(&*t, 0xF9, 20_000, 3_000);
    }

    #[test]
    fn conformance_without_fingerprints() {
        let t = fresh(
            32,
            FpTreeConfig {
                use_fingerprints: false,
                ..small_cfg()
            },
        );
        oracle::check_conformance(&*t, 0xFA, 10_000, 2_000);
    }

    #[test]
    fn recovery_restores_all_persisted_records() {
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = FpTree::create(alloc, cfg);
        for k in 0..2_000u64 {
            t.insert(k, k * 2);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = FpTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..2_000u64 {
            assert_eq!(t.lookup(k), Some(k * 2), "key {k} lost after crash");
        }
        let mut out = Vec::new();
        assert_eq!(t.scan(0, 2_000, &mut out), 2_000);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn recovery_with_eviction_chaos() {
        // Chaos mode spontaneously persists unflushed lines; recovery
        // must still produce a tree consistent with acknowledged ops.
        let pool = Arc::new(PmPool::new(
            32 << 20,
            PmConfig::real().with_eviction_chaos(7),
        ));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = FpTree::create(alloc, cfg);
        for k in 0..1_000u64 {
            t.insert(k, k);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = FpTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..1_000u64 {
            assert_eq!(t.lookup(k), Some(k));
        }
    }

    #[test]
    fn updates_survive_crash() {
        let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = FpTree::create(alloc, cfg);
        for k in 0..500u64 {
            t.insert(k, 1);
        }
        for k in 0..500u64 {
            t.update(k, 2);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = FpTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..500u64 {
            assert_eq!(t.lookup(k), Some(2), "update of {k} lost");
        }
    }

    #[test]
    fn removes_survive_crash() {
        let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = FpTree::create(alloc, cfg);
        for k in 0..500u64 {
            t.insert(k, k);
        }
        for k in 0..500u64 {
            if k % 2 == 0 {
                t.remove(k);
            }
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = FpTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..500u64 {
            let want = if k % 2 == 0 { None } else { Some(k) };
            assert_eq!(t.lookup(k), want, "key {k}");
        }
    }

    #[test]
    fn concurrent_inserts_and_lookups() {
        let t = fresh(64, FpTreeConfig::default());
        let nthreads = 8u64;
        let per = 2_000u64;
        std::thread::scope(|s| {
            for tid in 0..nthreads {
                let t = &t;
                s.spawn(move || {
                    for i in 0..per {
                        let k = tid * per + i;
                        assert!(t.insert(k, k + 1));
                        assert_eq!(t.lookup(k), Some(k + 1));
                    }
                });
            }
        });
        for k in 0..nthreads * per {
            assert_eq!(t.lookup(k), Some(k + 1), "key {k} missing");
        }
        let mut out = Vec::new();
        assert_eq!(
            t.scan(0, (nthreads * per) as usize, &mut out),
            (nthreads * per) as usize
        );
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn concurrent_mixed_workload_with_small_nodes() {
        // Small nodes force constant splits under contention.
        let t = fresh(64, small_cfg());
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    let mut x = tid + 1;
                    for i in 0..3_000u64 {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = x % 4_096;
                        match i % 4 {
                            0 => {
                                t.insert(k, i);
                            }
                            1 => {
                                t.lookup(k);
                            }
                            2 => {
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
    fn footprint_reports_both_devices() {
        let t = fresh(16, small_cfg());
        for k in 0..2_000u64 {
            t.insert(k, k);
        }
        let f = t.footprint();
        assert!(f.pm_bytes > 0);
        assert!(f.dram_bytes > 0);
    }

    #[test]
    fn pointer_key_mode_conformance() {
        let t = fresh(
            32,
            FpTreeConfig {
                key_mode: crate::KeyMode::Pointer,
                ..small_cfg()
            },
        );
        oracle::check_conformance(&*t, 0x1ACE, 10_000, 2_000);
    }

    #[test]
    fn pointer_key_mode_survives_crash() {
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = FpTreeConfig {
            key_mode: crate::KeyMode::Pointer,
            ..small_cfg()
        };
        let t = FpTree::create(alloc, cfg);
        for k in 0..1_500u64 {
            t.insert(k, k * 3);
        }
        for k in (0..1_500u64).step_by(3) {
            t.remove(k);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::recover(pool, AllocMode::General);
        let t = FpTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..1_500u64 {
            let want = if k % 3 == 0 { None } else { Some(k * 3) };
            assert_eq!(t.lookup(k), want, "key {k}");
        }
    }

    #[test]
    fn pointer_key_mode_reads_more_pm_than_inline() {
        let mk = |mode: crate::KeyMode| {
            let pool = Arc::new(PmPool::new(64 << 20, PmConfig::real()));
            let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
            let t = FpTree::create(
                alloc,
                FpTreeConfig {
                    key_mode: mode,
                    // No fingerprints: every candidate comparison pays
                    // the dereference, making the contrast deterministic.
                    use_fingerprints: false,
                    ..FpTreeConfig::default()
                },
            );
            for k in 0..30_000u64 {
                t.insert(k, k);
            }
            pool.reset_stats();
            for k in 0..30_000u64 {
                assert_eq!(t.lookup(k), Some(k));
            }
            pool.stats().read_bytes
        };
        let inline = mk(crate::KeyMode::Inline);
        let pointer = mk(crate::KeyMode::Pointer);
        assert!(
            pointer > inline + inline / 2,
            "pointer mode must pay dereference reads: inline={inline} pointer={pointer}"
        );
    }

    #[test]
    fn pointer_key_cells_are_freed_on_remove() {
        let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let t = FpTree::create(
            alloc.clone(),
            FpTreeConfig {
                key_mode: crate::KeyMode::Pointer,
                ..small_cfg()
            },
        );
        for k in 0..100u64 {
            t.insert(k, k);
        }
        let with_cells = alloc.live_bytes();
        for k in 0..100u64 {
            t.remove(k);
        }
        assert!(
            alloc.live_bytes() < with_cells,
            "removes must release key cells"
        );
    }

    #[test]
    fn writing_a_record_flushes_one_pair_line_and_one_fingerprint_line() {
        let t = fresh(4, FpTreeConfig::default());
        let pool = t.pool();
        let counted = |op: &dyn Fn() -> bool| {
            let before = pool.stats();
            assert!(op());
            let d = pool.stats().since(&before);
            (d.clwb, d.fence, d.media_write_bytes / MEDIA_BLOCK as u64)
        };
        for k in 0..8u64 {
            t.insert(k, k);
        }
        // Pair, fingerprint, bitmap: three lines, one fence before the
        // commit and one after it.
        assert_eq!(counted(&|| t.insert(100, 1)), (3, 2, 3), "insert");
        assert_eq!(counted(&|| t.update(100, 2)), (3, 2, 3), "update");
        // Only the bitmap.
        assert_eq!(counted(&|| t.remove(100)), (1, 1, 1), "remove");
        assert_eq!(t.inner_node_count(), 0, "no split on the way");
    }

    #[test]
    fn a_cold_lookup_reads_at_most_two_media_blocks() {
        let t = fresh(4, FpTreeConfig::default());
        // A full leaf whose fingerprints are all distinct, so a lookup
        // reads exactly one key: header block + the record's block.
        let mut seen = std::collections::HashSet::new();
        let keys: Vec<u64> = (0..)
            .filter(|&k| seen.insert(fingerprint(k)))
            .take(64)
            .collect();
        for &k in &keys {
            assert!(t.insert(k, !k));
        }
        assert_eq!(t.inner_node_count(), 0, "one leaf");
        for &k in &keys {
            let before = t.pool().stats();
            // A fresh thread starts with an empty modelled block cache.
            let got = std::thread::scope(|s| s.spawn(|| t.lookup(k)).join().unwrap());
            assert_eq!(got, Some(!k));
            let blocks = t.pool().stats().since(&before).media_read_bytes / MEDIA_BLOCK as u64;
            assert!(blocks <= 2, "key {k}: {blocks} media blocks");
        }
    }

    #[test]
    fn fingerprints_reduce_pm_reads_on_negative_lookups() {
        let mk = |use_fp: bool| {
            let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
            let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
            let t = FpTree::create(
                alloc,
                FpTreeConfig {
                    use_fingerprints: use_fp,
                    ..FpTreeConfig::default()
                },
            );
            for k in 0..20_000u64 {
                t.insert(k * 2, k);
            }
            pool.reset_stats();
            for k in 0..20_000u64 {
                assert_eq!(t.lookup(k * 2 + 1), None);
            }
            pool.stats().read_bytes
        };
        let with_fp = mk(true);
        let without_fp = mk(false);
        assert!(
            with_fp * 2 < without_fp,
            "fingerprints should cut PM read traffic: with={with_fp} without={without_fp}"
        );
    }
}
