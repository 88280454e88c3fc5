//! The allocator proper: persistent chunk/bitmap layout, volatile
//! per-class state, magazine caches and crash recovery.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pmem::{align_up, MediaError, PmPool, ThreadSlots, MEDIA_BLOCK, ROOT_AREA};

use crate::classes::{class_for_size, class_size, NUM_CLASSES};
use crate::AllocError;

/// Chunk payload size. Every chunk serves exactly one size class.
const CHUNK_SIZE: usize = 64 * 1024;
/// Persistent bitmap bytes per chunk (4096 bits covers the smallest class).
const BITMAP_BYTES: u64 = 512;
/// Number of in-flight (redo) slots; threads stripe across them.
const INFLIGHT_SLOTS: usize = 64;
/// Bytes per in-flight slot: `[block, dest, op, pad]`.
const INFLIGHT_SLOT_BYTES: u64 = 32;
/// Magazine capacity per (stripe, class) in `Striped` mode.
const MAGAZINE_CAP: usize = 64;

const MAGIC: u64 = 0x504D_414C_4C4F_4331; // "PMALLOC1"

/// The in-flight op code (persisted in the slot's third word).
const OP_ALLOC: u64 = 1;

/// Allocation strategy, the subject of the E10 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// PMDK-like: every request takes the shared per-class lock and
    /// touches the persistent bitmap.
    General,
    /// Slab/magazine design: threads stripe across volatile caches of
    /// pre-allocated blocks; the persistent bitmap is touched only on
    /// refill/drain. Crashing with full magazines leaks those blocks.
    Striped,
}

/// Point-in-time allocator statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct AllocStats {
    /// Completed allocations.
    pub allocs: u64,
    /// Completed frees.
    pub frees: u64,
    /// Bytes currently marked allocated in persistent bitmaps
    /// (includes magazine-cached blocks).
    pub live_bytes: u64,
    /// Bytes sitting in volatile magazines (these would leak on crash).
    pub magazine_bytes: u64,
    /// Chunks bound to a class.
    pub bound_chunks: u64,
    /// Total chunks in the pool.
    pub total_chunks: u64,
}

/// Volatile cursor over one size class.
struct ClassState {
    /// Chunk ids bound to this class that may still have free blocks.
    avail: Vec<u32>,
}

struct Layout {
    n_chunks: u64,
    chunk_headers_off: u64,
    bitmaps_off: u64,
    heap_off: u64,
}

impl Layout {
    fn compute(pool_len: usize) -> Layout {
        let base = ROOT_AREA + 256 + INFLIGHT_SLOTS as u64 * INFLIGHT_SLOT_BYTES;
        let per_chunk = 8 + BITMAP_BYTES + CHUNK_SIZE as u64;
        let budget = (pool_len as u64).saturating_sub(base + MEDIA_BLOCK as u64);
        let n_chunks = budget / per_chunk;
        let chunk_headers_off = base;
        let bitmaps_off = chunk_headers_off + n_chunks * 8;
        let heap_off = align_up(bitmaps_off + n_chunks * BITMAP_BYTES, MEDIA_BLOCK as u64);
        Layout {
            n_chunks,
            chunk_headers_off,
            bitmaps_off,
            heap_off,
        }
    }
}

/// Persistent-memory allocator over a [`PmPool`]. See the crate docs.
pub struct PmAllocator {
    pool: Arc<PmPool>,
    mode: AllocMode,
    layout: Layout,
    classes: Vec<Mutex<ClassState>>,
    free_chunks: Mutex<Vec<u32>>,
    /// Volatile free-block counts per chunk (rebuilt on recovery).
    free_counts: Vec<AtomicU32>,
    /// Volatile next-free-bit hints per chunk.
    scan_hints: Vec<AtomicU32>,
    /// Which in-flight slot and magazine row each thread uses.
    stripes: ThreadSlots,
    inflight_locks: Vec<Mutex<()>>,
    magazines: Vec<Mutex<Vec<u64>>>, // stripe * NUM_CLASSES + class
    allocs: AtomicU64,
    frees: AtomicU64,
    live_bytes: AtomicU64,
}

impl PmAllocator {
    /// Format a fresh pool: writes allocator metadata and returns the
    /// allocator. The first [`ROOT_AREA`] bytes remain application-owned.
    pub fn format(pool: Arc<PmPool>, mode: AllocMode) -> Arc<PmAllocator> {
        let layout = Layout::compute(pool.len());
        assert!(layout.n_chunks > 0, "pool too small for even one chunk");
        // Persist the header.
        pool.write_u64(ROOT_AREA, MAGIC);
        pool.write_u64(ROOT_AREA + 8, layout.n_chunks);
        pool.write_u64(ROOT_AREA + 16, layout.chunk_headers_off);
        pool.write_u64(ROOT_AREA + 24, layout.bitmaps_off);
        pool.write_u64(ROOT_AREA + 32, layout.heap_off);
        pool.persist(ROOT_AREA, 40);
        // Zero chunk headers, bitmaps and in-flight slots.
        for c in 0..layout.n_chunks {
            pool.write_u64(layout.chunk_headers_off + c * 8, 0);
            for w in 0..BITMAP_BYTES / 8 {
                pool.write_u64(layout.bitmaps_off + c * BITMAP_BYTES + w * 8, 0);
            }
        }
        for s in 0..INFLIGHT_SLOTS as u64 {
            let off = Self::inflight_off_static(s);
            pool.write_u64(off, 0);
            pool.write_u64(off + 8, 0);
            pool.write_u64(off + 16, 0);
        }
        pool.persist(
            layout.chunk_headers_off,
            (layout.bitmaps_off + layout.n_chunks * BITMAP_BYTES - layout.chunk_headers_off)
                as usize,
        );
        Self::build(pool, mode, layout, true).expect("format never replays in-flight slots")
    }

    /// Open a previously formatted pool after a (simulated) crash or
    /// clean shutdown: replays in-flight slots and rebuilds all volatile
    /// state from persistent metadata. Panics on a media error; use
    /// [`PmAllocator::try_recover`] to handle poisoned metadata.
    pub fn recover(pool: Arc<PmPool>, mode: AllocMode) -> Arc<PmAllocator> {
        Self::try_recover(pool, mode).unwrap_or_else(|e| panic!("allocator recovery failed: {e}"))
    }

    /// Fallible recovery: probes every persistent structure the
    /// allocator must interpret (header, in-flight slots, chunk headers,
    /// bitmaps, publication targets) for media errors before reading it,
    /// so a poisoned line surfaces as a reported [`MediaError`] instead
    /// of an emulated machine-check or silently consumed garbage.
    pub fn try_recover(pool: Arc<PmPool>, mode: AllocMode) -> Result<Arc<PmAllocator>, MediaError> {
        pool.check_readable(ROOT_AREA, 40)
            .map_err(|e| e.context("allocator header"))?;
        assert_eq!(pool.read_u64(ROOT_AREA), MAGIC, "pool is not formatted");
        let layout = Layout {
            n_chunks: pool.read_u64(ROOT_AREA + 8),
            chunk_headers_off: pool.read_u64(ROOT_AREA + 16),
            bitmaps_off: pool.read_u64(ROOT_AREA + 24),
            heap_off: pool.read_u64(ROOT_AREA + 32),
        };
        pool.check_readable(
            Self::inflight_off_static(0),
            INFLIGHT_SLOTS * INFLIGHT_SLOT_BYTES as usize,
        )
        .map_err(|e| e.context("allocator in-flight slots"))?;
        pool.check_readable(
            layout.chunk_headers_off,
            (layout.bitmaps_off + layout.n_chunks * BITMAP_BYTES - layout.chunk_headers_off)
                as usize,
        )
        .map_err(|e| e.context("allocator chunk metadata"))?;
        Self::build(pool, mode, layout, false)
    }

    fn build(
        pool: Arc<PmPool>,
        mode: AllocMode,
        layout: Layout,
        fresh: bool,
    ) -> Result<Arc<PmAllocator>, MediaError> {
        let n = layout.n_chunks as usize;
        let a = PmAllocator {
            classes: (0..NUM_CLASSES)
                .map(|_| Mutex::new(ClassState { avail: Vec::new() }))
                .collect(),
            free_chunks: Mutex::new(Vec::with_capacity(n)),
            free_counts: (0..n).map(|_| AtomicU32::new(0)).collect(),
            scan_hints: (0..n).map(|_| AtomicU32::new(0)).collect(),
            stripes: ThreadSlots::new(INFLIGHT_SLOTS),
            inflight_locks: (0..INFLIGHT_SLOTS).map(|_| Mutex::new(())).collect(),
            magazines: (0..INFLIGHT_SLOTS * NUM_CLASSES)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            pool,
            mode,
            layout,
        };
        if !fresh {
            a.replay_inflight()?;
        }
        a.rebuild_volatile(fresh);
        Ok(Arc::new(a))
    }

    /// Apply the recovery rule to every in-flight slot: a completed
    /// publication (dest points at the block) is kept, anything else is
    /// rolled back.
    fn replay_inflight(&self) -> Result<(), MediaError> {
        for s in 0..INFLIGHT_SLOTS as u64 {
            let off = Self::inflight_off_static(s);
            let block = self.pool.read_u64(off);
            if block == 0 {
                continue;
            }
            let dest = self.pool.read_u64(off + 8);
            let op = self.pool.read_u64(off + 16);
            // The publication target is an arbitrary application offset;
            // it may itself sit on a poisoned line.
            self.pool
                .check_readable(dest, 8)
                .map_err(|e| e.context("in-flight publication target"))?;
            let dest_val = self.pool.read_u64(dest);
            assert_eq!(op, OP_ALLOC, "corrupt in-flight slot op");
            if dest_val != block {
                // Publication did not complete: roll the allocation
                // back (idempotent if the bit was never set).
                self.clear_bit_persist(block);
            }
            self.pool.write_u64(off, 0);
            self.pool.persist(off, 8);
        }
        Ok(())
    }

    /// Rebuild free lists, free counts and live-byte accounting by
    /// scanning persistent chunk headers and bitmaps.
    fn rebuild_volatile(&self, fresh: bool) {
        let mut free_chunks = self.free_chunks.lock();
        let mut live = 0u64;
        for c in 0..self.layout.n_chunks {
            let class_word = self.pool.read_u64(self.layout.chunk_headers_off + c * 8);
            if class_word == 0 {
                free_chunks.push(c as u32);
                continue;
            }
            let class = (class_word - 1) as usize;
            assert!(class < NUM_CLASSES, "corrupt chunk header");
            let nblocks = (CHUNK_SIZE / class_size(class)) as u32;
            let mut used = 0u32;
            if !fresh {
                for w in 0..(nblocks as u64).div_ceil(64) {
                    let bits = self
                        .pool
                        .read_u64(self.layout.bitmaps_off + c * BITMAP_BYTES + w * 8);
                    used += bits.count_ones();
                }
            }
            self.free_counts[c as usize].store(nblocks - used, Ordering::Relaxed);
            self.scan_hints[c as usize].store(0, Ordering::Relaxed);
            live += used as u64 * class_size(class) as u64;
            if used < nblocks {
                self.classes[class].lock().avail.push(c as u32);
            }
        }
        self.live_bytes.store(live, Ordering::Relaxed);
    }

    fn inflight_off_static(slot: u64) -> u64 {
        ROOT_AREA + 256 + slot * INFLIGHT_SLOT_BYTES
    }

    #[inline]
    fn bitmap_word_off(&self, chunk: u32, word: u64) -> u64 {
        self.layout.bitmaps_off + chunk as u64 * BITMAP_BYTES + word * 8
    }

    #[inline]
    fn block_off(&self, chunk: u32, class: usize, bit: u32) -> u64 {
        self.layout.heap_off
            + chunk as u64 * CHUNK_SIZE as u64
            + bit as u64 * class_size(class) as u64
    }

    /// Map a heap offset back to (chunk, class, bit).
    fn locate(&self, off: u64) -> (u32, usize, u32) {
        assert!(off >= self.layout.heap_off, "not a heap offset: {off:#x}");
        let rel = off - self.layout.heap_off;
        let chunk = (rel / CHUNK_SIZE as u64) as u32;
        assert!((chunk as u64) < self.layout.n_chunks, "offset past heap");
        let class_word = self
            .pool
            .read_u64(self.layout.chunk_headers_off + chunk as u64 * 8);
        assert!(class_word != 0, "free of block in unbound chunk");
        let class = (class_word - 1) as usize;
        let inner = rel % CHUNK_SIZE as u64;
        let bs = class_size(class) as u64;
        assert_eq!(inner % bs, 0, "free of misaligned block");
        (chunk, class, (inner / bs) as u32)
    }

    /// Set the allocation bit for `off` and persist the bitmap word.
    fn set_bit_persist(&self, chunk: u32, class: usize, bit: u32) {
        let word = self.bitmap_word_off(chunk, bit as u64 / 64);
        self.pool
            .fetch_or_u64(word, 1u64 << (bit % 64), Ordering::AcqRel);
        self.pool.persist(word, 8);
        self.live_bytes
            .fetch_add(class_size(class) as u64, Ordering::Relaxed);
    }

    /// Clear the allocation bit for heap offset `off` and persist.
    fn clear_bit_persist(&self, off: u64) {
        let (chunk, class, bit) = self.locate(off);
        let word = self.bitmap_word_off(chunk, bit as u64 / 64);
        let prev = self
            .pool
            .fetch_and_u64(word, !(1u64 << (bit % 64)), Ordering::AcqRel);
        self.pool.persist(word, 8);
        if prev & (1u64 << (bit % 64)) != 0 {
            self.live_bytes
                .fetch_sub(class_size(class) as u64, Ordering::Relaxed);
            let was = self.free_counts[chunk as usize].fetch_add(1, Ordering::Relaxed);
            if was == 0 {
                self.classes[class].lock().avail.push(chunk);
            }
        }
    }

    /// Grab a block from the shared per-class state. Sets and persists
    /// the bitmap bit.
    fn alloc_from_class(&self, class: usize) -> Result<u64, AllocError> {
        let nblocks = (CHUNK_SIZE / class_size(class)) as u32;
        let mut st = self.classes[class].lock();
        loop {
            let &chunk = match st.avail.last() {
                Some(c) => c,
                None => {
                    // Bind a fresh chunk to this class.
                    let c = self
                        .free_chunks
                        .lock()
                        .pop()
                        .ok_or(AllocError::OutOfMemory)?;
                    let hdr = self.layout.chunk_headers_off + c as u64 * 8;
                    self.pool.write_u64(hdr, class as u64 + 1);
                    self.pool.persist(hdr, 8);
                    self.free_counts[c as usize].store(nblocks, Ordering::Relaxed);
                    self.scan_hints[c as usize].store(0, Ordering::Relaxed);
                    st.avail.push(c);
                    st.avail.last().unwrap()
                }
            };
            // Scan the persistent bitmap from the hint for a zero bit.
            let hint = self.scan_hints[chunk as usize].load(Ordering::Relaxed);
            let mut found = None;
            for i in 0..nblocks {
                let bit = (hint + i) % nblocks;
                let word = self.bitmap_word_off(chunk, bit as u64 / 64);
                let bits = self.pool.read_u64(word);
                if bits & (1u64 << (bit % 64)) == 0 {
                    found = Some(bit);
                    break;
                }
            }
            match found {
                Some(bit) => {
                    self.set_bit_persist(chunk, class, bit);
                    self.free_counts[chunk as usize].fetch_sub(1, Ordering::Relaxed);
                    self.scan_hints[chunk as usize].store((bit + 1) % nblocks, Ordering::Relaxed);
                    if self.free_counts[chunk as usize].load(Ordering::Relaxed) == 0 {
                        st.avail.pop();
                    }
                    return Ok(self.block_off(chunk, class, bit));
                }
                None => {
                    // Chunk actually full (stale availability info).
                    self.free_counts[chunk as usize].store(0, Ordering::Relaxed);
                    st.avail.pop();
                }
            }
        }
    }

    /// Allocate `size` bytes, returning the pool offset of the block.
    ///
    /// The block is marked allocated in persistent metadata, but the
    /// *caller* is responsible for making it reachable before a crash,
    /// or it will leak (see [`PmAllocator::alloc_linked`]).
    pub fn alloc(&self, size: usize) -> Result<u64, AllocError> {
        let _site = obs::site("pmalloc_alloc");
        let class = class_for_size(size).ok_or(AllocError::TooLarge(size))?;
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let off = match self.mode {
            AllocMode::General => self.alloc_from_class(class)?,
            AllocMode::Striped => {
                let stripe = self.stripes.slot();
                let mag = &self.magazines[stripe * NUM_CLASSES + class];
                // Bind the pop so the guard drops here: `match
                // mag.lock().pop()` would keep the magazine locked
                // through the refill arm, which locks it again.
                let popped = mag.lock().pop();
                match popped {
                    Some(off) => off,
                    None => {
                        // Refill: move a batch into the magazine, return one.
                        let mut batch = Vec::with_capacity(MAGAZINE_CAP / 2);
                        for _ in 0..MAGAZINE_CAP / 2 {
                            match self.alloc_from_class(class) {
                                Ok(off) => batch.push(off),
                                Err(e) if batch.is_empty() => return Err(e),
                                Err(_) => break,
                            }
                        }
                        let first = batch.pop().expect("batch non-empty");
                        mag.lock().extend(batch);
                        first
                    }
                }
            }
        };
        // A crash can leave a *free* block's lines poisoned. Like a real
        // allocator consulting the bad-block list, re-initialize the
        // block before handing it out: the old contents are dead anyway.
        self.pool.scrub_poison(off, class_size(class));
        Ok(off)
    }

    /// Atomically allocate and publish: on success, the 8-byte word at
    /// `dest` holds the new block's offset, durably. A crash at any
    /// point either completes the publication or frees the block on
    /// recovery — no leak, no dangling pointer.
    pub fn alloc_linked(&self, size: usize, dest: u64) -> Result<u64, AllocError> {
        let _site = obs::site("pmalloc_alloc_linked");
        let stripe = self.stripes.slot();
        let _guard = self.inflight_locks[stripe].lock();
        let slot = Self::inflight_off_static(stripe as u64);
        // Record intent before the allocation becomes visible in the
        // bitmap so recovery can always roll back.
        // (For Striped mode the bit may long be set; rollback then
        // simply returns the block to the free pool, which is correct.)
        let off = self.alloc(size)?;
        self.pool.write_u64(slot + 8, dest);
        self.pool.write_u64(slot + 16, OP_ALLOC);
        self.pool.write_u64(slot, off);
        self.pool.persist(slot, 24);
        // Publish.
        self.pool.write_u64(dest, off);
        self.pool.persist(dest, 8);
        // Retire the slot.
        self.pool.write_u64(slot, 0);
        self.pool.persist(slot, 8);
        Ok(off)
    }

    /// Return a block to the allocator.
    pub fn free(&self, off: u64) {
        let _site = obs::site("pmalloc_free");
        self.frees.fetch_add(1, Ordering::Relaxed);
        match self.mode {
            AllocMode::General => self.clear_bit_persist(off),
            AllocMode::Striped => {
                let (_, class, _) = self.locate(off);
                let stripe = self.stripes.slot();
                let mag = &self.magazines[stripe * NUM_CLASSES + class];
                let mut m = mag.lock();
                m.push(off);
                if m.len() > MAGAZINE_CAP {
                    // Drain half back to the shared state.
                    let drain: Vec<u64> = m.drain(..MAGAZINE_CAP / 2).collect();
                    drop(m);
                    for b in drain {
                        self.clear_bit_persist(b);
                    }
                }
            }
        }
    }

    /// Whether `off` is a currently allocated block (tolerant: returns
    /// `false` for offsets outside the heap or in unbound chunks).
    /// Used by index recovery code to make rollback idempotent.
    pub fn is_allocated(&self, off: u64) -> bool {
        if off < self.layout.heap_off {
            return false;
        }
        let rel = off - self.layout.heap_off;
        let chunk = rel / CHUNK_SIZE as u64;
        if chunk >= self.layout.n_chunks {
            return false;
        }
        let class_word = self
            .pool
            .read_u64(self.layout.chunk_headers_off + chunk * 8);
        if class_word == 0 {
            return false;
        }
        let class = (class_word - 1) as usize;
        let bs = class_size(class) as u64;
        let inner = rel % CHUNK_SIZE as u64;
        if !inner.is_multiple_of(bs) {
            return false;
        }
        let bit = inner / bs;
        let bits = self
            .pool
            .read_u64(self.bitmap_word_off(chunk as u32, bit / 64));
        bits & (1u64 << (bit % 64)) != 0
    }

    /// Enumerate every currently allocated block offset. Used by index
    /// recovery to garbage-collect blocks that a crash made unreachable
    /// (e.g. a node replaced by a split whose free never persisted).
    pub fn for_each_allocated(&self, mut f: impl FnMut(u64)) {
        for c in 0..self.layout.n_chunks {
            let class_word = self.pool.read_u64(self.layout.chunk_headers_off + c * 8);
            if class_word == 0 {
                continue;
            }
            let class = (class_word - 1) as usize;
            let nblocks = (CHUNK_SIZE / class_size(class)) as u64;
            for w in 0..nblocks.div_ceil(64) {
                let mut bits = self.pool.read_u64(self.bitmap_word_off(c as u32, w));
                if w == nblocks / 64 && !nblocks.is_multiple_of(64) {
                    bits &= (1u64 << (nblocks % 64)) - 1;
                }
                while bits != 0 {
                    let bit = (w * 64 + bits.trailing_zeros() as u64) as u32;
                    bits &= bits - 1;
                    f(self.block_off(c as u32, class, bit));
                }
            }
        }
    }

    /// Index recovery's reachability GC: free every allocated block not
    /// in `reachable` (blocks a crash left unlinked, e.g. a split's
    /// replaced node whose free never persisted), in ascending offset
    /// order. The structure must own the allocator exclusively.
    pub fn free_unreachable(&self, reachable: &HashSet<u64>) {
        let mut stale = Vec::new();
        self.for_each_allocated(|off| {
            if !reachable.contains(&off) {
                stale.push(off);
            }
        });
        for off in stale {
            self.free(off);
        }
    }

    /// Allocator statistics.
    pub fn stats(&self) -> AllocStats {
        let magazine_bytes: u64 = self
            .magazines
            .iter()
            .enumerate()
            .map(|(i, m)| m.lock().len() as u64 * class_size(i % NUM_CLASSES) as u64)
            .sum();
        let bound = (0..self.layout.n_chunks)
            .filter(|&c| self.pool.read_u64(self.layout.chunk_headers_off + c * 8) != 0)
            .count() as u64;
        AllocStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            frees: self.frees.load(Ordering::Relaxed),
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
            magazine_bytes,
            bound_chunks: bound,
            total_chunks: self.layout.n_chunks,
        }
    }

    /// Bytes that would leak if the process crashed right now (blocks
    /// held in volatile magazines).
    pub fn leaked_bytes_estimate(&self) -> u64 {
        self.stats().magazine_bytes
    }

    /// Bytes currently marked allocated (the index's PM footprint plus
    /// magazine stock).
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// The pool this allocator manages.
    pub fn pool(&self) -> &Arc<PmPool> {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::PmConfig;

    fn fresh(len: usize, mode: AllocMode) -> Arc<PmAllocator> {
        PmAllocator::format(Arc::new(PmPool::new(len, PmConfig::real())), mode)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let a = fresh(1 << 20, AllocMode::General);
        let x = a.alloc(64).unwrap();
        let y = a.alloc(64).unwrap();
        assert_ne!(x, y);
        assert_eq!(x % 64, 0);
        a.free(x);
        let z = a.alloc(64).unwrap();
        // Freed block is reusable (not necessarily immediately the same).
        a.free(y);
        a.free(z);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn distinct_blocks_until_oom() {
        let a = fresh(512 * 1024, AllocMode::General);
        let mut seen = std::collections::HashSet::new();
        let mut n = 0u64;
        loop {
            match a.alloc(256) {
                Ok(off) => {
                    assert!(seen.insert(off), "double allocation of {off:#x}");
                    n += 1;
                }
                Err(AllocError::OutOfMemory) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(n > 100, "expected many blocks, got {n}");
    }

    #[test]
    fn too_large_is_rejected() {
        let a = fresh(1 << 20, AllocMode::General);
        assert_eq!(a.alloc(40_000), Err(AllocError::TooLarge(40_000)));
    }

    #[test]
    fn recovery_preserves_allocations() {
        let pool = Arc::new(PmPool::new(1 << 20, PmConfig::real()));
        let a = PmAllocator::format(pool.clone(), AllocMode::General);
        let x = a.alloc(1024).unwrap();
        let y = a.alloc(1024).unwrap();
        a.free(y);
        let live_before = a.live_bytes();
        drop(a);
        pool.crash();
        let a2 = PmAllocator::recover(pool, AllocMode::General);
        assert_eq!(a2.live_bytes(), live_before);
        // x must not be handed out again.
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(a2.alloc(1024).unwrap());
        }
        assert!(!got.contains(&x));
    }

    #[test]
    fn alloc_linked_publishes_durably() {
        let pool = Arc::new(PmPool::new(1 << 20, PmConfig::real()));
        let a = PmAllocator::format(pool.clone(), AllocMode::General);
        let dest = 64; // root-area slot 8
        let off = a.alloc_linked(256, dest).unwrap();
        drop(a);
        pool.crash();
        let a2 = PmAllocator::recover(pool.clone(), AllocMode::General);
        assert_eq!(pool.read_u64(dest), off, "publication must survive crash");
        let live = a2.live_bytes();
        assert_eq!(live, 256);
    }

    #[test]
    fn unpublished_alloc_rolls_back_on_recovery() {
        // Simulate a crash between allocation and publication: do a bare
        // alloc (bitmap persisted), never link it, crash.
        let pool = Arc::new(PmPool::new(1 << 20, PmConfig::real()));
        let a = PmAllocator::format(pool.clone(), AllocMode::General);
        let _leak = a.alloc(256).unwrap();
        drop(a);
        pool.crash();
        let a2 = PmAllocator::recover(pool, AllocMode::General);
        // The bare alloc leaks (that's the point alloc_linked exists).
        assert_eq!(a2.live_bytes(), 256);
    }

    #[test]
    fn striped_mode_reuses_magazines() {
        let a = fresh(1 << 20, AllocMode::Striped);
        let x = a.alloc(64).unwrap();
        a.free(x);
        let y = a.alloc(64).unwrap();
        assert_eq!(x, y, "magazine should return the hot block");
        assert!(a.leaked_bytes_estimate() > 0, "refill stocked the magazine");
    }

    #[test]
    fn striped_magazine_drains_back() {
        let a = fresh(1 << 20, AllocMode::Striped);
        let blocks: Vec<u64> = (0..MAGAZINE_CAP * 2)
            .map(|_| a.alloc(64).unwrap())
            .collect();
        for b in blocks {
            a.free(b);
        }
        let s = a.stats();
        assert!(
            s.magazine_bytes <= (MAGAZINE_CAP as u64 + 1) * 64,
            "magazine over capacity: {}",
            s.magazine_bytes
        );
    }

    #[test]
    fn concurrent_allocs_are_disjoint() {
        let a = fresh(8 << 20, AllocMode::Striped);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                (0..500).map(|_| a.alloc(128).unwrap()).collect::<Vec<_>>()
            }));
        }
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate blocks handed out concurrently");
    }

    #[test]
    fn class_binding_is_persistent() {
        let pool = Arc::new(PmPool::new(1 << 20, PmConfig::real()));
        let a = PmAllocator::format(pool.clone(), AllocMode::General);
        let x = a.alloc(4096).unwrap();
        drop(a);
        pool.crash();
        let a2 = PmAllocator::recover(pool, AllocMode::General);
        // Freeing x after recovery must find the right class.
        a2.free(x);
        assert_eq!(a2.live_bytes(), 0);
    }

    #[test]
    fn for_each_allocated_enumerates_exactly_live_blocks() {
        let a = fresh(1 << 20, AllocMode::General);
        let mut live: Vec<u64> = (0..20).map(|_| a.alloc(128).unwrap()).collect();
        let dead = live.split_off(10);
        for b in dead {
            a.free(b);
        }
        let mut seen = Vec::new();
        a.for_each_allocated(|off| seen.push(off));
        seen.sort_unstable();
        live.sort_unstable();
        assert_eq!(seen, live);
    }

    #[test]
    fn is_allocated_tracks_alloc_free() {
        let a = fresh(1 << 20, AllocMode::General);
        assert!(!a.is_allocated(0));
        assert!(!a.is_allocated(a.layout.heap_off));
        let x = a.alloc(64).unwrap();
        assert!(a.is_allocated(x));
        a.free(x);
        assert!(!a.is_allocated(x));
    }

    #[test]
    fn recovery_across_alloc_modes() {
        // A pool formatted in Striped mode must recover in General mode
        // (the mode is volatile policy, not persistent state).
        let pool = Arc::new(PmPool::new(1 << 20, PmConfig::real()));
        let a = PmAllocator::format(pool.clone(), AllocMode::Striped);
        let kept = a.alloc_linked(512, 64).unwrap();
        drop(a);
        pool.crash();
        let a2 = PmAllocator::recover(pool.clone(), AllocMode::General);
        assert!(a2.is_allocated(kept));
        assert_eq!(pool.read_u64(64), kept);
    }

    #[test]
    fn alignment_of_large_classes() {
        let a = fresh(4 << 20, AllocMode::General);
        for _ in 0..16 {
            let off = a.alloc(256).unwrap();
            assert_eq!(off % 256, 0, "256-byte class must be 256-aligned");
        }
        let off = a.alloc(4096).unwrap();
        assert_eq!(off % 4096 % 256, 0);
    }
}
