//! The FPTree proper: operations, splits, recovery.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use htm::{Abort, InnerLayer};
use index_api::{Footprint, Key, RangeIndex, Value};
use parking_lot::Mutex;
use pmalloc::PmAllocator;
use pmem::{MediaError, PmPool, ThreadSlots};

use crate::layout::{LeafLayout, BITMAP_OFF, NEXT_OFF, PAIR_BYTES, VLOCK_OFF};
use crate::{fingerprint, FpTreeConfig, KeyMode};

// Root-area slots used by FPTree (8-byte slots; the allocator's own
// metadata lives past the root area).
const SLOT_HEAD: u64 = 8; // leftmost leaf (entry point for recovery)
const SLOT_CFG: u64 = 13; // persisted on-media format, see `format_word`

// Split micro-logs: one per thread, `SPLIT_LOGS` of them. A log is four
// slots from its base (`log_off`).
const SPLIT_LOGS: usize = 32;
const LOG_OLD: u64 = 0; // leaf being split
const LOG_NEW: u64 = 1; // new right sibling
const LOG_KEY: u64 = 2; // separator key
const LOG_VALID: u64 = 3; // commit flag

#[inline]
fn slot_off(slot: u64) -> u64 {
    slot * 8
}

/// Offset of word `field` of split log `log`. Log 0 keeps slots 9–12,
/// between the head and the config, so a one-thread run writes the
/// offsets it always wrote; log `i >= 1` has a cache line of its own
/// from slot `64 + 8 (i - 1)`.
#[inline]
fn log_off(log: usize, field: u64) -> u64 {
    let base = match log {
        0 => 9,
        i => 64 + 8 * (i as u64 - 1),
    };
    slot_off(base + field)
}

const _: () = assert!(64 + 8 * (SPLIT_LOGS as u64 - 1) + LOG_VALID < 512);

/// The on-media format `SLOT_CFG` holds: the leaf size, and bit 32 for
/// pointer-stored keys. Fingerprints are always written and inner nodes
/// are volatile, so neither of their knobs is part of it.
fn format_word(cfg: &FpTreeConfig) -> u64 {
    cfg.leaf_entries as u64 | ((cfg.key_mode == KeyMode::Pointer) as u64) << 32
}

/// A leaf's word in the inner layer, and back.
#[inline]
fn leaf_word(off: u64) -> u64 {
    off << 1 | 1
}

#[inline]
fn leaf_off(word: u64) -> u64 {
    word >> 1
}

/// FPTree: hybrid DRAM–PM persistent B+-tree (see crate docs).
pub struct FpTree {
    alloc: Arc<PmAllocator>,
    /// The DRAM inner nodes over this tree's PM leaves.
    inner: InnerLayer,
    layout: LeafLayout,
    cfg: FpTreeConfig,
    /// Which split log each thread writes.
    logs: ThreadSlots,
    /// One claim lock per split log: threads past the `SPLIT_LOGS`-th
    /// share logs.
    log_claims: Box<[Mutex<()>]>,
}

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
        pool.write_u64(slot_off(SLOT_CFG), format_word(&cfg));
        pool.persist(slot_off(SLOT_CFG), 8);
        Arc::new(FpTree::with_root(alloc, head, cfg))
    }

    /// A tree over `alloc`'s pool whose inner layer routes every key to
    /// the leaf at `root`, with no split log claimed yet.
    fn with_root(alloc: Arc<PmAllocator>, root: u64, cfg: FpTreeConfig) -> FpTree {
        FpTree {
            alloc,
            inner: InnerLayer::new(cfg.inner_fanout, leaf_word(root)),
            layout: LeafLayout::new(cfg.leaf_entries),
            cfg,
            logs: ThreadSlots::new(SPLIT_LOGS),
            log_claims: (0..SPLIT_LOGS).map(|_| Mutex::new(())).collect(),
        }
    }

    /// Reopen after a crash or shutdown: replay the split micro-logs,
    /// clear leaf version locks, and rebuild the DRAM inner nodes by
    /// bulk-loading from the persistent leaf chain. Probes the root
    /// slots (head pointer, split log 0, config), every split log's line
    /// and every leaf in the chain for media errors before reading it —
    /// and before the vlock clears write to it — so a poisoned line
    /// surfaces as a reported [`MediaError`], never as garbage records
    /// or routing keys.
    pub fn try_recover(
        alloc: Arc<PmAllocator>,
        cfg: FpTreeConfig,
    ) -> Result<Arc<FpTree>, MediaError> {
        let pool = alloc.pool().clone();
        pool.check_readable(slot_off(SLOT_HEAD), 48)
            .map_err(|e| e.context("FPTree root slots"))?;
        assert_eq!(
            pool.read_u64(slot_off(SLOT_CFG)),
            format_word(&cfg),
            "try_recover() config must match the on-media leaf layout and key mode"
        );
        // Offset 0 is no leaf: the bulk load below sets the root.
        let mut tree = FpTree::with_root(alloc, 0, cfg);
        for log in 0..SPLIT_LOGS {
            tree.replay_split_log(log)?;
        }
        let level = tree.leaf_level()?;
        tree.inner.bulk_load(level);
        Ok(Arc::new(tree))
    }

    #[inline]
    fn pool(&self) -> &PmPool {
        self.alloc.pool()
    }

    // ----- leaf primitives -------------------------------------------------

    /// Try to acquire a leaf's version lock.
    fn leaf_try_lock(&self, leaf: u64) -> bool {
        let v = self.pool().load_u64(leaf + VLOCK_OFF, Ordering::Acquire);
        v & 1 == 0 && self.pool().cas_u64(leaf + VLOCK_OFF, v, v + 1).is_ok()
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
        pool.write_words(pair, &[key_word, value]);
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

    /// Route to the leaf covering `key` and take its lock, with no SMO
    /// committed in between.
    fn lock_leaf(&self, key: Key) -> u64 {
        let word = self.inner.locate_and_lock(
            key,
            |w| self.leaf_try_lock(leaf_off(w)),
            |w| self.leaf_unlock(leaf_off(w)),
        );
        leaf_off(word)
    }

    // ----- splits ------------------------------------------------------------

    /// Split a full, locked leaf under its lock and this thread's split
    /// micro-log, then publish the separator in the inner layer. Returns
    /// `(separator, new_leaf)`; the new leaf is created locked, and the
    /// caller unlocks both leaves, which is only safe once the separator
    /// is published.
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
        let log = self.logs.slot();
        let claim = self.log_claims[log].lock();
        let new = self
            .alloc
            .alloc_linked(l.size, log_off(log, LOG_NEW))
            .expect("PM pool exhausted during split");
        pool.write_u64(log_off(log, LOG_OLD), old);
        pool.write_u64(log_off(log, LOG_KEY), split_key);
        pool.persist(log_off(log, LOG_OLD), 24);
        pool.write_u64(log_off(log, LOG_VALID), 1);
        pool.persist(log_off(log, LOG_VALID), 8);

        // Initialize the new (locked) leaf with the upper half.
        pool.write_u64(new + VLOCK_OFF, 1);
        pool.write_u64(new + NEXT_OFF, pool.read_u64(old + NEXT_OFF));
        let mut new_bitmap = 0u64;
        let mut moved = 0u64;
        for (i, &(k, slot)) in recs[mid..].iter().enumerate() {
            // Copy the raw cell: in pointer mode the key cell is shared
            // by the new leaf, not re-allocated.
            let mut pair = [0; 2];
            pool.read_words(l.pair(old, slot), &mut pair);
            pool.write_words(l.pair(new, i), &pair);
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
        pool.write_u64(log_off(log, LOG_VALID), 0);
        pool.persist(log_off(log, LOG_VALID), 8);
        pool.write_u64(log_off(log, LOG_NEW), 0);
        pool.persist(log_off(log, LOG_NEW), 8);
        drop(claim);

        // Reflect the split in the DRAM inner nodes: the only step that
        // excludes other threads' routes.
        let _inner = obs::site("fptree_inner_insert");
        self.inner.publish_split(split_key, leaf_word(new));
        (split_key, new)
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

    /// Replay split log `log` after probing its line: roll a published
    /// split forward, roll an unpublished one back. A clear log is
    /// neither written nor persisted.
    fn replay_split_log(&self, log: usize) -> Result<(), MediaError> {
        let pool = self.pool();
        let l = &self.layout;
        pool.check_readable(log_off(log, LOG_OLD), 32)
            .map_err(|e| e.context("FPTree split log"))?;
        let valid = pool.read_u64(log_off(log, LOG_VALID));
        let new = pool.read_u64(log_off(log, LOG_NEW));
        if valid != 1 && new == 0 {
            return Ok(());
        }
        let old = pool.read_u64(log_off(log, LOG_OLD));
        // Whether the split of `old` linked `new` into the leaf chain.
        // Leaves are never freed, so a stale `old` (the log's previous
        // split) never points at a freshly allocated `new`.
        let linked = || -> Result<bool, MediaError> {
            if old == 0 {
                return Ok(false);
            }
            pool.check_readable(old, l.size)
                .map_err(|e| e.context("FPTree split-log leaf"))?;
            Ok(pool.read_u64(old + NEXT_OFF) == new)
        };
        if valid == 1 {
            let split_key = pool.read_u64(log_off(log, LOG_KEY));
            if linked()? {
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
            pool.write_u64(log_off(log, LOG_VALID), 0);
            pool.persist(log_off(log, LOG_VALID), 8);
        } else if !linked()? && self.alloc.is_allocated(new) {
            // Allocation was published into the log but the log never
            // became valid: reclaim. (A cut between the two retiring
            // stores leaves the same words behind a finished split,
            // whose new leaf is linked and stays.)
            self.alloc.free(new);
        }
        pool.write_u64(log_off(log, LOG_NEW), 0);
        pool.persist(log_off(log, LOG_NEW), 8);
        Ok(())
    }

    /// Walk the persistent leaf chain for the inner layer's bulk load:
    /// each non-empty leaf's least key and word, in key order (the head
    /// leaf alone if every leaf is empty). Also clears leaf version
    /// locks left over from the crash.
    fn leaf_level(&self) -> Result<Vec<(Key, u64)>, MediaError> {
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
                level.push((min, leaf_word(leaf)));
            }
            leaf = pool.read_u64(leaf + NEXT_OFF);
        }
        if level.is_empty() {
            level.push((0, leaf_word(head)));
        }
        Ok(level)
    }
}

impl RangeIndex for FpTree {
    fn insert(&self, key: Key, value: Value) -> bool {
        let _site = obs::site("fptree_insert");
        let leaf = self.lock_leaf(key);
        if self.find_in_leaf(leaf, key).is_some() {
            self.leaf_unlock(leaf);
            return false;
        }
        let bitmap = self.pool().read_u64(leaf + BITMAP_OFF) & self.layout.full_mask();
        if bitmap == self.layout.full_mask() {
            let (split_key, new) = self.split_leaf_locked(leaf);
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
        self.inner.speculative_route(key, |w| {
            let leaf = leaf_off(w);
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
            let leaf = self.lock_leaf(key);
            let Some(slot) = self.find_in_leaf(leaf, key) else {
                self.leaf_unlock(leaf);
                return false;
            };
            let bitmap = self.pool().read_u64(leaf + BITMAP_OFF) & self.layout.full_mask();
            let free = !bitmap & self.layout.full_mask();
            if free == 0 {
                // Out-of-place update needs a spare slot: split first,
                // then retry (the key's new home has room).
                let (_, new) = self.split_leaf_locked(leaf);
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
        let leaf = self.lock_leaf(key);
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
        let mut leaf = leaf_off(self.inner.speculative_route(start, Ok));
        let mut batch: Vec<(Key, Value)> = Vec::with_capacity(l.entries);
        while leaf != 0 && out.len() < count {
            // FPTree scans lock each leaf while copying (the paper's
            // behaviour, and the source of its scan-under-contention
            // weakness).
            while !self.leaf_try_lock(leaf) {
                std::hint::spin_loop();
            }
            batch.clear();
            let bitmap = pool.read_u64(leaf + BITMAP_OFF) & l.full_mask();
            let mut bits = bitmap;
            while bits != 0 {
                let slot = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let mut pair = [0; 2];
                pool.read_words(l.pair(leaf, slot), &mut pair);
                let [w, v] = pair;
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
            dram_bytes: self.inner.dram_bytes(),
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
        assert!(t.inner.node_count() > 10, "splits should build inners");
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
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
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
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
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
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
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
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
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
    fn two_writers_split_at_once_on_their_own_logs() {
        // Interleaved stripes: both threads fill, and split, the same
        // leaves, each through the split log it claimed.
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let t = FpTree::create(alloc, small_cfg());
        let stripe = |tid: u64| (0..3_000u64).map(move |i| (2 * i + tid) * 11);
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
        for log in 0..2 {
            assert_ne!(
                pool.read_u64(log_off(log, LOG_OLD)),
                0,
                "log {log} never split"
            );
            assert_eq!(
                pool.read_u64(log_off(log, LOG_VALID)),
                0,
                "log {log} not retired"
            );
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        let t = FpTree::try_recover(alloc, small_cfg()).expect("recovery");
        t.scan(0, want.len() + 1, &mut out);
        assert_eq!(out, want);
    }

    #[test]
    fn a_cut_between_the_retiring_stores_keeps_the_new_leaf() {
        // Power fails after a split's log is marked invalid but before
        // its new-leaf word is cleared: the new leaf is linked, so
        // recovery must keep it allocated, or a later split reuses the
        // block while the chain still runs through it.
        let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = small_cfg();
        let t = FpTree::create(alloc, cfg);
        for k in 0..=8u64 {
            assert!(t.insert(k, k));
        }
        let head = pool.read_u64(slot_off(SLOT_HEAD));
        let new = pool.read_u64(head + NEXT_OFF);
        assert_eq!(
            pool.read_u64(log_off(0, LOG_OLD)),
            head,
            "one split, on log 0"
        );
        drop(t);
        pool.write_u64(log_off(0, LOG_NEW), new);
        pool.persist(log_off(0, LOG_NEW), 8);
        pool.crash();
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        let t = FpTree::try_recover(alloc.clone(), cfg).expect("recovery");
        assert!(alloc.is_allocated(new), "a linked leaf was freed");
        for k in 9..200u64 {
            assert!(t.insert(k, k));
        }
        let mut out = Vec::new();
        t.scan(0, 1_000, &mut out);
        assert_eq!(out, (0..200).map(|k| (k, k)).collect::<Vec<_>>());
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
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        let t = FpTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..1_500u64 {
            let want = if k % 3 == 0 { None } else { Some(k * 3) };
            assert_eq!(t.lookup(k), want, "key {k}");
        }
    }

    #[test]
    fn a_pointer_key_pool_reopens_only_in_pointer_mode() {
        let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let cfg = FpTreeConfig {
            key_mode: crate::KeyMode::Pointer,
            ..small_cfg()
        };
        let t = FpTree::create(alloc, cfg);
        for k in 0..300u64 {
            t.insert(k, k + 7);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        // Key words are cell offsets here: read inline, they would be
        // bulk-loaded as routing keys.
        let inline = FpTreeConfig {
            key_mode: crate::KeyMode::Inline,
            ..cfg
        };
        let reopened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            FpTree::try_recover(alloc.clone(), inline)
        }));
        assert!(reopened.is_err(), "an inline reopen of a pointer pool");
        let t = FpTree::try_recover(alloc, cfg).expect("recovery");
        for k in 0..300u64 {
            assert_eq!(t.lookup(k), Some(k + 7), "key {k}");
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
        assert_eq!(t.inner.node_count(), 0, "no split on the way");
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
        assert_eq!(t.inner.node_count(), 0, "one leaf");
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
