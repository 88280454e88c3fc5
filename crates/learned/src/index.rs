//! The PM-resident learned index: descriptor + chunked model arrays +
//! durable delta log, with a crash-consistent merge that atomically
//! swaps the model root.
//!
//! ## Persistent layout
//!
//! Everything hangs off one 8-byte root slot (`SLOT_DESC`), which
//! points at an immutable **descriptor** block:
//!
//! ```text
//! root slot 40 ──► descriptor { magic, epoch, n,
//!                               data_dir, data_chunks,
//!                               seg_dir,  seg_chunks, seg_count,
//!                               log_dir,  log_chunks, checksum }
//!                     data_dir ──► [chunk off; data_chunks] ──► (key,value) pairs
//!                     seg_dir  ──► [chunk off; seg_chunks]  ──► segment records
//!                     log_dir  ──► [chunk off; log_chunks]  ──► delta-log entries
//! ```
//!
//! All arrays are **chunked** (the allocator's largest size class is
//! 32 KiB) and **immutable once published**: mutations append to the
//! delta log, and a merge writes a complete new generation before a
//! single fenced 8-byte root-slot store makes it current. The old
//! generation stays untouched until after the swap, so a crash at any
//! persistence-event boundary recovers either the old model (plus its
//! replayable log) or the new one — never a mix.
//!
//! ## Delta log
//!
//! One 32-byte entry per acknowledged mutation: `[key, value, meta,
//! sum]` with `meta = epoch << 8 | op` and a 64-bit checksum over the
//! other fields. The entry write + flush *is* the commit point; no
//! tail counter is maintained.
//!
//! Writers serialize on the index's write lock and append at the next
//! free slot, so the log is in acknowledgement order and a power cut
//! can tear only the one in-flight slot. Recovery reads the whole log
//! capacity and replays every entry that validates, in slot order. A
//! merge invalidates the whole log by bumping the epoch (no erase
//! writes needed, which also makes log-chunk reuse safe).

use std::collections::{btree_map, BTreeMap, HashSet};
use std::iter::Peekable;
use std::sync::Arc;

use index_api::{Footprint, Key, RangeIndex, Value};
use parking_lot::RwLock;
use pmalloc::PmAllocator;
use pmem::{splitmix64, MediaError, PmPool};

use crate::pla::{self, Segment};
use crate::LearnedConfig;

/// Root-area slot holding the current descriptor offset.
pub const SLOT_DESC: u64 = 40;
/// Root-area slot holding the encoded [`LearnedConfig`].
pub const SLOT_CFG: u64 = 41;

const MAGIC: u64 = 0x4C45_4152_4E44_5831; // "LEARNDX1"
const DESC_WORDS: usize = 11;
const DESC_BYTES: usize = DESC_WORDS * 8;

const OP_PUT: u64 = 1;
const OP_DEL: u64 = 2;
const LOG_ENTRY_BYTES: usize = 32;
const PAIR_BYTES: usize = 16;
const SEG_REC_WORDS: usize = 4; // first_key, base, slope bits, reserved

fn entry_sum(key: u64, value: u64, meta: u64) -> u64 {
    splitmix64(key ^ value.rotate_left(32) ^ meta.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

fn encode_cfg(cfg: &LearnedConfig) -> u64 {
    cfg.epsilon | (cfg.chunk_entries as u64) << 16 | (cfg.delta_min_cap as u64) << 32
}

/// The persisted descriptor, DRAM-side.
#[derive(Debug, Clone, Copy, Default)]
struct Desc {
    epoch: u64,
    n: u64,
    data_dir: u64,
    data_chunks: u64,
    seg_dir: u64,
    seg_chunks: u64,
    seg_count: u64,
    log_dir: u64,
    log_chunks: u64,
}

impl Desc {
    fn words(&self) -> [u64; DESC_WORDS] {
        let mut w = [
            MAGIC,
            self.epoch,
            self.n,
            self.data_dir,
            self.data_chunks,
            self.seg_dir,
            self.seg_chunks,
            self.seg_count,
            self.log_dir,
            self.log_chunks,
            0,
        ];
        w[DESC_WORDS - 1] = Self::checksum(&w);
        w
    }

    fn checksum(w: &[u64; DESC_WORDS]) -> u64 {
        w[..DESC_WORDS - 1]
            .iter()
            .fold(0u64, |acc, &x| splitmix64(acc ^ x))
    }

    fn from_words(w: &[u64; DESC_WORDS]) -> Desc {
        assert_eq!(w[0], MAGIC, "learned descriptor magic mismatch");
        assert_eq!(
            w[DESC_WORDS - 1],
            Self::checksum(w),
            "learned descriptor checksum mismatch"
        );
        Desc {
            epoch: w[1],
            n: w[2],
            data_dir: w[3],
            data_chunks: w[4],
            seg_dir: w[5],
            seg_chunks: w[6],
            seg_count: w[7],
            log_dir: w[8],
            log_chunks: w[9],
        }
    }
}

/// Model shape, for `pm_inspector` and the E19 report.
#[derive(Debug, Clone, Copy)]
pub struct ModelStats {
    /// Current model generation (bumped by every merge).
    pub epoch: u64,
    /// Keys in the immutable sorted array.
    pub model_keys: u64,
    /// Linear segments over them.
    pub segments: u64,
    /// The trained error bound.
    pub epsilon: u64,
    /// Live delta-buffer entries (distinct keys, tombstones included).
    pub delta_len: u64,
    /// Log capacity before the next merge triggers.
    pub delta_cap: u64,
    /// Merges performed by this handle since create/recover.
    pub merges: u64,
}

struct Core {
    alloc: Arc<PmAllocator>,
    cfg: LearnedConfig,
    desc_off: u64,
    epoch: u64,
    /// DRAM mirror of the model's sorted keys (values stay in PM).
    keys: Vec<u64>,
    segs: Vec<Segment>,
    data_dir: u64,
    data_chunks: Vec<u64>,
    seg_dir: u64,
    seg_chunks: Vec<u64>,
    log_dir: u64,
    log_chunks: Vec<u64>,
    log_cap: usize,
    /// Next free log slot.
    log_len: usize,
    /// Un-merged mutations: `Some(v)` = live, `None` = tombstone.
    delta: BTreeMap<Key, Option<Value>>,
    merges: u64,
}

/// The live records from a start key on, ascending: the model run
/// merged with the delta map, where a delta entry shadows the model
/// record with the same key (an update, or a tombstone hiding it).
/// A model value is read from PM only when its record is taken.
struct Merged<'a> {
    core: &'a Core,
    rank: usize,
    delta: Peekable<btree_map::Range<'a, Key, Option<Value>>>,
}

impl Iterator for Merged<'_> {
    type Item = (Key, Value);

    fn next(&mut self) -> Option<(Key, Value)> {
        loop {
            let model = self.core.keys.get(self.rank).copied();
            let Some((&key, &slot)) = self.delta.next_if(|&(&d, _)| model.is_none_or(|m| d <= m))
            else {
                let key = model?;
                self.rank += 1;
                return Some((key, self.core.value_at(self.rank - 1)));
            };
            self.rank += usize::from(model == Some(key));
            if let Some(value) = slot {
                return Some((key, value));
            }
        }
    }
}

impl Core {
    fn pool(&self) -> &PmPool {
        self.alloc.pool()
    }

    /// PM read of the model value at `rank`.
    fn value_at(&self, rank: usize) -> u64 {
        let ce = self.cfg.chunk_entries;
        let off = self.data_chunks[rank / ce] + ((rank % ce) * PAIR_BYTES) as u64 + 8;
        self.pool().read_u64(off)
    }

    fn model_find(&self, key: Key) -> Option<usize> {
        pla::find(&self.segs, &self.keys, key, self.cfg.epsilon)
    }

    fn get(&self, key: Key) -> Option<Value> {
        match self.delta.get(&key) {
            Some(&slot) => slot,
            None => self.model_find(key).map(|r| self.value_at(r)),
        }
    }

    fn merged_from(&self, start: Key) -> Merged<'_> {
        Merged {
            core: self,
            rank: pla::lower_bound(&self.segs, &self.keys, start, self.cfg.epsilon),
            delta: self.delta.range(start..).peekable(),
        }
    }

    /// The one write path: when `key` exists exactly if `must_exist`,
    /// log `put` for it (`Some(v)` stores `v`, `None` removes the key)
    /// and apply it to the delta; a full log is merged first.
    fn mutate(&mut self, key: Key, put: Option<Value>, must_exist: bool) -> bool {
        let exists = match self.delta.get(&key) {
            Some(slot) => slot.is_some(),
            None => self.model_find(key).is_some(),
        };
        if exists != must_exist {
            return false;
        }
        if self.log_len >= self.log_cap {
            self.merge();
        }
        self.append_entry(key, put);
        self.delta.insert(key, put);
        true
    }

    /// Write + flush one log entry into the next free slot; the flush
    /// is the commit point for the mutation.
    fn append_entry(&mut self, key: Key, put: Option<Value>) {
        let _site = obs::site("learned_delta_append");
        let (op, value) = put.map_or((OP_DEL, 0), |v| (OP_PUT, v));
        let ce = self.cfg.chunk_entries;
        let off =
            self.log_chunks[self.log_len / ce] + ((self.log_len % ce) * LOG_ENTRY_BYTES) as u64;
        self.log_len += 1;
        let meta = self.epoch << 8 | op;
        let mut buf = [0u8; LOG_ENTRY_BYTES];
        buf[0..8].copy_from_slice(&key.to_le_bytes());
        buf[8..16].copy_from_slice(&value.to_le_bytes());
        buf[16..24].copy_from_slice(&meta.to_le_bytes());
        buf[24..32].copy_from_slice(&entry_sum(key, value, meta).to_le_bytes());
        self.pool().write_bytes(off, &buf);
        self.pool().persist(off, LOG_ENTRY_BYTES);
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        out.extend(self.merged_from(start).take(count));
        out.len()
    }

    // ----- merge / rebuild ------------------------------------------------

    /// Log capacity for a model of `n` keys, rounded up to whole log
    /// chunks: merges amortize geometrically (each absorbs ≥ n/4
    /// mutations), so preloading N records costs O(N) copies total.
    fn desired_cap(&self, n: usize) -> usize {
        let ce = self.cfg.chunk_entries;
        (self.cfg.delta_min_cap.max(n / 4)).div_ceil(ce) * ce
    }

    /// Write `words` to a fresh allocation and flush it.
    fn write_words(&self, words: &[u64]) -> u64 {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let off = self.alloc.alloc(bytes.len()).expect("PM pool exhausted");
        self.pool().write_bytes(off, &bytes);
        self.pool().persist(off, bytes.len());
        off
    }

    /// Write a record array as `chunk_entries`-record chunks plus a
    /// chunk directory. Returns `(dir, chunk_offs)`; `(0, [])` when
    /// empty.
    fn write_record_chunks(&self, words: &[u64], rec_words: usize) -> (u64, Vec<u64>) {
        if words.is_empty() {
            return (0, Vec::new());
        }
        let chunk_words = self.cfg.chunk_entries * rec_words;
        let mut offs = Vec::with_capacity(words.len().div_ceil(chunk_words));
        for chunk in words.chunks(chunk_words) {
            let off = self
                .alloc
                .alloc(chunk_words * 8)
                .expect("PM pool exhausted");
            let bytes: Vec<u8> = chunk.iter().flat_map(|w| w.to_le_bytes()).collect();
            self.pool().write_bytes(off, &bytes);
            self.pool().persist(off, bytes.len());
            offs.push(off);
        }
        (self.write_words(&offs), offs)
    }

    /// Allocate an (uninitialized) log of `cap` entries; stale bytes
    /// are harmless because entries of other epochs never validate.
    fn alloc_log(&self, cap: usize) -> (u64, Vec<u64>) {
        let ce = self.cfg.chunk_entries;
        debug_assert_eq!(cap % ce, 0);
        let offs: Vec<u64> = (0..cap / ce)
            .map(|_| {
                self.alloc
                    .alloc(ce * LOG_ENTRY_BYTES)
                    .expect("PM pool exhausted")
            })
            .collect();
        (self.write_words(&offs), offs)
    }

    fn write_desc(&self, d: &Desc) -> u64 {
        self.write_words(&d.words())
    }

    /// Retrain the model over (model ∪ delta), publish the new
    /// generation with one fenced root store, then retire the old one.
    ///
    /// Crash-ordering contract: every PM write before the root store
    /// touches only fresh allocations (the old generation is
    /// immutable), the volatile switch does no PM operations (so a
    /// mid-merge [`pmem::CrashPointHit`] unwind can never leave DRAM
    /// state inconsistent with the published root), and the frees come
    /// last (a crash there leaves garbage that recovery's reachability
    /// GC collects).
    fn merge(&mut self) {
        let _site = obs::site("learned_merge");
        // 1. Merge the immutable run with the delta map (values read
        //    back from PM; keys come from the DRAM mirror).
        let mut merged = Vec::with_capacity(self.keys.len() + self.delta.len());
        merged.extend(self.merged_from(0));
        // 2. Retrain the ε-bounded segments.
        let new_keys: Vec<u64> = merged.iter().map(|&(k, _)| k).collect();
        let new_segs = pla::build_segments(&new_keys, self.cfg.epsilon);
        // 3. Write the new generation into fresh allocations.
        let pair_words: Vec<u64> = merged.iter().flat_map(|&(k, v)| [k, v]).collect();
        let (data_dir, data_chunks) = self.write_record_chunks(&pair_words, 2);
        let seg_words: Vec<u64> = new_segs
            .iter()
            .flat_map(|s| [s.first_key, s.base, s.slope.to_bits(), 0])
            .collect();
        let (seg_dir, seg_chunks) = self.write_record_chunks(&seg_words, SEG_REC_WORDS);
        let new_cap = self.desired_cap(merged.len());
        let reuse_log = new_cap == self.log_cap;
        let (log_dir, log_chunks) = if reuse_log {
            // Epoch bump invalidates every existing entry in place.
            (self.log_dir, self.log_chunks.clone())
        } else {
            self.alloc_log(new_cap)
        };
        let desc = Desc {
            epoch: self.epoch + 1,
            n: merged.len() as u64,
            data_dir,
            data_chunks: data_chunks.len() as u64,
            seg_dir,
            seg_chunks: seg_chunks.len() as u64,
            seg_count: new_segs.len() as u64,
            log_dir,
            log_chunks: log_chunks.len() as u64,
        };
        let desc_off = self.write_desc(&desc);
        // 4. Publish: one fenced 8-byte store flips generations.
        {
            let _site = obs::site("learned_publish");
            self.pool().write_u64(SLOT_DESC * 8, desc_off);
            self.pool().persist(SLOT_DESC * 8, 8);
        }
        // 5. Volatile switch (no PM ops — cannot be cut mid-way).
        let old = (
            self.desc_off,
            self.data_dir,
            std::mem::take(&mut self.data_chunks),
            self.seg_dir,
            std::mem::take(&mut self.seg_chunks),
            if reuse_log { 0 } else { self.log_dir },
            if reuse_log {
                Vec::new()
            } else {
                std::mem::take(&mut self.log_chunks)
            },
        );
        self.desc_off = desc_off;
        self.epoch += 1;
        self.keys = new_keys;
        self.segs = new_segs;
        self.data_dir = data_dir;
        self.data_chunks = data_chunks;
        self.seg_dir = seg_dir;
        self.seg_chunks = seg_chunks;
        self.log_dir = log_dir;
        self.log_chunks = log_chunks;
        self.log_cap = new_cap;
        self.log_len = 0;
        self.delta.clear();
        self.merges += 1;
        // 6. Retire the old generation (crash-safe: recovery GC redoes
        //    any free we don't reach).
        let (old_desc, old_data_dir, old_data, old_seg_dir, old_segs, old_log_dir, old_log) = old;
        self.alloc.free(old_desc);
        for off in old_data {
            self.alloc.free(off);
        }
        if old_data_dir != 0 {
            self.alloc.free(old_data_dir);
        }
        for off in old_segs {
            self.alloc.free(off);
        }
        if old_seg_dir != 0 {
            self.alloc.free(old_seg_dir);
        }
        for off in old_log {
            self.alloc.free(off);
        }
        if old_log_dir != 0 {
            self.alloc.free(old_log_dir);
        }
    }

    fn stats(&self) -> ModelStats {
        ModelStats {
            epoch: self.epoch,
            model_keys: self.keys.len() as u64,
            segments: self.segs.len() as u64,
            epsilon: self.cfg.epsilon,
            delta_len: self.delta.len() as u64,
            delta_cap: self.log_cap as u64,
            merges: self.merges,
        }
    }
}

/// PGM-style learned range index on PM (see module docs): one
/// `RwLock` around the model and its one delta map. Lookups and scans
/// share it; inserts, updates and removes take it exclusively, so
/// writers serialize, each appending one log entry (and merging when
/// the log is full).
pub struct LearnedIndex {
    core: RwLock<Core>,
}

impl LearnedIndex {
    /// Create a fresh (empty) learned index on a formatted allocator.
    pub fn create(alloc: Arc<PmAllocator>, cfg: LearnedConfig) -> Arc<LearnedIndex> {
        cfg.validate();
        let pool = alloc.pool().clone();
        let mut core = Core {
            alloc,
            cfg,
            desc_off: 0,
            epoch: 1,
            keys: Vec::new(),
            segs: Vec::new(),
            data_dir: 0,
            data_chunks: Vec::new(),
            seg_dir: 0,
            seg_chunks: Vec::new(),
            log_dir: 0,
            log_chunks: Vec::new(),
            log_cap: 0,
            log_len: 0,
            delta: BTreeMap::new(),
            merges: 0,
        };
        core.log_cap = core.desired_cap(0);
        let (log_dir, log_chunks) = core.alloc_log(core.log_cap);
        core.log_dir = log_dir;
        core.log_chunks = log_chunks;
        let desc = Desc {
            epoch: 1,
            n: 0,
            data_dir: 0,
            data_chunks: 0,
            seg_dir: 0,
            seg_chunks: 0,
            seg_count: 0,
            log_dir,
            log_chunks: core.log_chunks.len() as u64,
        };
        core.desc_off = core.write_desc(&desc);
        pool.write_u64(SLOT_CFG * 8, encode_cfg(&core.cfg));
        pool.persist(SLOT_CFG * 8, 8);
        pool.write_u64(SLOT_DESC * 8, core.desc_off);
        pool.persist(SLOT_DESC * 8, 8);
        Arc::new(LearnedIndex {
            core: RwLock::new(core),
        })
    }

    /// Reopen after a crash: probes every reachable block for media errors
    /// before interpreting it, rebuilds the DRAM mirrors (keys,
    /// segments, delta map) from the published generation, replays
    /// every valid entry of the delta log, garbage-collects
    /// allocations the crash left unreachable (half-built merge
    /// output), and completes an interrupted merge whose log had
    /// already filled.
    pub fn try_recover(
        alloc: Arc<PmAllocator>,
        cfg: LearnedConfig,
    ) -> Result<Arc<LearnedIndex>, MediaError> {
        let _site = obs::site("learned_recovery");
        cfg.validate();
        let pool = alloc.pool().clone();
        pool.check_readable(SLOT_DESC * 8, 16)
            .map_err(|e| e.context("learned root slots"))?;
        assert_eq!(
            pool.read_u64(SLOT_CFG * 8),
            encode_cfg(&cfg),
            "config/layout mismatch"
        );
        let desc_off = pool.read_u64(SLOT_DESC * 8);
        assert!(desc_off != 0, "try_recover() on an unformatted index");
        pool.check_readable(desc_off, DESC_BYTES)
            .map_err(|e| e.context("learned descriptor"))?;
        let mut words = [0u64; DESC_WORDS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = pool.read_u64(desc_off + i as u64 * 8);
        }
        let desc = Desc::from_words(&words);
        let ce = cfg.chunk_entries;
        let read_dir = |dir: u64, count: u64, what: &'static str| -> Result<Vec<u64>, MediaError> {
            if dir == 0 || count == 0 {
                return Ok(Vec::new());
            }
            pool.check_readable(dir, count as usize * 8)
                .map_err(|e| e.context(what))?;
            Ok((0..count).map(|i| pool.read_u64(dir + i * 8)).collect())
        };
        // Model data: rebuild the DRAM key mirror.
        let data_chunks = read_dir(desc.data_dir, desc.data_chunks, "learned data directory")?;
        let n = desc.n as usize;
        let mut keys = Vec::with_capacity(n);
        for (i, &off) in data_chunks.iter().enumerate() {
            let used = ce.min(n - i * ce);
            pool.check_readable(off, used * PAIR_BYTES)
                .map_err(|e| e.context("learned data chunk"))?;
            for r in 0..used {
                keys.push(pool.read_u64(off + (r * PAIR_BYTES) as u64));
            }
        }
        assert_eq!(keys.len(), n, "data chunks inconsistent with n");
        // Segments.
        let seg_chunks = read_dir(desc.seg_dir, desc.seg_chunks, "learned segment directory")?;
        let seg_count = desc.seg_count as usize;
        let mut segs = Vec::with_capacity(seg_count);
        for (i, &off) in seg_chunks.iter().enumerate() {
            let used = ce.min(seg_count - i * ce);
            pool.check_readable(off, used * SEG_REC_WORDS * 8)
                .map_err(|e| e.context("learned segment chunk"))?;
            for r in 0..used {
                let base_off = off + (r * SEG_REC_WORDS * 8) as u64;
                segs.push(Segment {
                    first_key: pool.read_u64(base_off),
                    base: pool.read_u64(base_off + 8),
                    slope: f64::from_bits(pool.read_u64(base_off + 16)),
                });
            }
        }
        // Delta log: replay every acknowledged entry, in slot order.
        let log_chunks = read_dir(desc.log_dir, desc.log_chunks, "learned log directory")?;
        for &off in &log_chunks {
            pool.check_readable(off, ce * LOG_ENTRY_BYTES)
                .map_err(|e| e.context("learned log chunk"))?;
        }
        let log_cap = log_chunks.len() * ce;
        let mut delta: BTreeMap<Key, Option<Value>> = BTreeMap::new();
        let mut log_len = 0usize;
        for i in 0..log_cap {
            let off = log_chunks[i / ce] + ((i % ce) * LOG_ENTRY_BYTES) as u64;
            let key = pool.read_u64(off);
            let value = pool.read_u64(off + 8);
            let meta = pool.read_u64(off + 16);
            let sum = pool.read_u64(off + 24);
            let op = meta & 0xFF;
            if meta >> 8 != desc.epoch
                || !(op == OP_PUT || op == OP_DEL)
                || sum != entry_sum(key, value, meta)
            {
                continue; // the torn in-flight slot or stale-epoch garbage
            }
            delta.insert(key, (op == OP_PUT).then_some(value));
            log_len = i + 1;
        }
        // Reachability GC: a crash mid-merge (or mid-retire) leaves
        // half-built generations or half-freed old ones; everything not
        // reachable from the published descriptor goes back to the
        // allocator.
        let mut reachable: HashSet<u64> = HashSet::new();
        reachable.insert(desc_off);
        for dir in [desc.data_dir, desc.seg_dir, desc.log_dir] {
            if dir != 0 {
                reachable.insert(dir);
            }
        }
        reachable.extend(data_chunks.iter().copied());
        reachable.extend(seg_chunks.iter().copied());
        reachable.extend(log_chunks.iter().copied());
        alloc.free_unreachable(&reachable);
        let mut core = Core {
            alloc,
            cfg,
            desc_off,
            epoch: desc.epoch,
            keys,
            segs,
            data_dir: desc.data_dir,
            data_chunks,
            seg_dir: desc.seg_dir,
            seg_chunks,
            log_dir: desc.log_dir,
            log_chunks,
            log_cap,
            log_len,
            delta,
            merges: 0,
        };
        // The crash may have landed after the log filled but before the
        // merge published: finish it now so the next append has room.
        if core.log_len >= core.log_cap {
            core.merge();
        }
        Ok(Arc::new(LearnedIndex {
            core: RwLock::new(core),
        }))
    }

    /// Model shape for inspection tools and reports.
    pub fn model_stats(&self) -> ModelStats {
        self.core.read().stats()
    }
}

impl RangeIndex for LearnedIndex {
    fn insert(&self, key: Key, value: Value) -> bool {
        let _site = obs::site("learned_insert");
        self.core.write().mutate(key, Some(value), false)
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        let _site = obs::site("learned_lookup");
        self.core.read().get(key)
    }

    fn update(&self, key: Key, value: Value) -> bool {
        let _site = obs::site("learned_update");
        self.core.write().mutate(key, Some(value), true)
    }

    fn remove(&self, key: Key) -> bool {
        let _site = obs::site("learned_remove");
        self.core.write().mutate(key, None, true)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let _site = obs::site("learned_scan");
        self.core.read().scan(start, count, out)
    }

    fn name(&self) -> &'static str {
        "learned"
    }

    fn footprint(&self) -> Footprint {
        let core = self.core.read();
        Footprint {
            pm_bytes: core.alloc.live_bytes(),
            dram_bytes: (core.keys.len() * 8
                + core.segs.len() * std::mem::size_of::<Segment>()
                + core.delta.len() * 48) as u64,
        }
    }
}
