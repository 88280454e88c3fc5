//! The PM-resident learned index: descriptor + chunked sorted pairs +
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
//!                               log_dir,  log_chunks, checksum }
//!                     data_dir ──► [chunk off; data_chunks] ──► (key,value) pairs
//!                     log_dir  ──► [chunk off; log_chunks]  ──► delta-log entries
//! ```
//!
//! PM holds only what recovery cannot rebuild. The trained segments are
//! a pure function of the sorted keys, which recovery reads anyway, so
//! they live in DRAM and recovery retrains them.
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

const MAGIC: u64 = 0x4C45_4152_4E44_5832; // "LEARNDX2"
const DESC_WORDS: usize = 8;
const DESC_BYTES: usize = DESC_WORDS * 8;

const OP_PUT: u64 = 1;
const OP_DEL: u64 = 2;
const LOG_ENTRY_BYTES: usize = 32;
const PAIR_BYTES: usize = 16;

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
            log_dir: w[5],
            log_chunks: w[6],
        }
    }
}

/// Model shape, for `pm_inspector` and the E19 report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Merges performed by this handle since create/recover (the
    /// generation `create` publishes is not one).
    pub merges: u64,
}

struct Core {
    alloc: Arc<PmAllocator>,
    cfg: LearnedConfig,
    desc_off: u64,
    epoch: u64,
    /// DRAM mirror of the model's sorted keys (values stay in PM).
    keys: Vec<u64>,
    /// The model trained over `keys`; never persisted.
    segs: Vec<Segment>,
    data_dir: u64,
    data_chunks: Vec<u64>,
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
        // Byte-wise, so eviction chaos can persist each word of the
        // entry on its own and tear it, as a power cut can.
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
    fn write_fresh(&self, words: &[u64]) -> u64 {
        let off = self
            .alloc
            .alloc(words.len() * 8)
            .expect("PM pool exhausted");
        self.pool().write_words(off, words);
        self.pool().persist(off, words.len() * 8);
        off
    }

    /// Write `pairs` as `chunk_entries`-pair chunks plus a chunk
    /// directory. Returns `(dir, chunk_offs)`; `(0, [])` when empty.
    fn write_pairs(&self, pairs: &[(Key, Value)]) -> (u64, Vec<u64>) {
        if pairs.is_empty() {
            return (0, Vec::new());
        }
        let ce = self.cfg.chunk_entries;
        let offs: Vec<u64> = pairs
            .chunks(ce)
            .map(|chunk| {
                let off = self
                    .alloc
                    .alloc(ce * PAIR_BYTES)
                    .expect("PM pool exhausted");
                let words: Vec<u64> = chunk.iter().flat_map(|&(k, v)| [k, v]).collect();
                self.pool().write_words(off, &words);
                self.pool().persist(off, words.len() * 8);
                off
            })
            .collect();
        (self.write_fresh(&offs), offs)
    }

    /// Retrain the model over (model ∪ delta), publish the new
    /// generation with one fenced root store, then retire the old one.
    /// `create` publishes the first generation this way too, as the
    /// merge of an empty core (which has nothing to retire).
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
        // 2. Retrain the ε-bounded segments (DRAM only).
        let new_keys: Vec<u64> = merged.iter().map(|&(k, _)| k).collect();
        let new_segs = pla::build_segments(&new_keys, self.cfg.epsilon);
        // 3. Write the new generation into fresh allocations.
        let (data_dir, data_chunks) = self.write_pairs(&merged);
        let new_cap = self.desired_cap(merged.len());
        let reuse_log = new_cap == self.log_cap;
        let (log_dir, log_chunks) = if reuse_log {
            // Epoch bump invalidates every existing entry in place.
            (self.log_dir, self.log_chunks.clone())
        } else {
            // A fresh log, left uninitialized: stale bytes are harmless
            // because entries of other epochs never validate.
            let ce = self.cfg.chunk_entries;
            let offs: Vec<u64> = (0..new_cap / ce)
                .map(|_| {
                    self.alloc
                        .alloc(ce * LOG_ENTRY_BYTES)
                        .expect("PM pool exhausted")
                })
                .collect();
            (self.write_fresh(&offs), offs)
        };
        let desc = Desc {
            epoch: self.epoch + 1,
            n: merged.len() as u64,
            data_dir,
            data_chunks: data_chunks.len() as u64,
            log_dir,
            log_chunks: log_chunks.len() as u64,
        };
        let desc_off = self.write_fresh(&desc.words());
        // 4. Publish: one fenced 8-byte store flips generations.
        {
            let _site = obs::site("learned_publish");
            self.pool().write_u64(SLOT_DESC * 8, desc_off);
            self.pool().persist(SLOT_DESC * 8, 8);
        }
        // 5. Volatile switch (no PM ops — cannot be cut mid-way).
        let mut old = vec![self.desc_off];
        old.append(&mut self.data_chunks);
        old.push(self.data_dir);
        if !reuse_log {
            old.append(&mut self.log_chunks);
            old.push(self.log_dir);
        }
        self.desc_off = desc_off;
        self.epoch += 1;
        self.keys = new_keys;
        self.segs = new_segs;
        self.data_dir = data_dir;
        self.data_chunks = data_chunks;
        self.log_dir = log_dir;
        self.log_chunks = log_chunks;
        self.log_cap = new_cap;
        self.log_len = 0;
        self.delta.clear();
        self.merges += 1;
        // 6. Retire the old generation (crash-safe: recovery GC redoes
        //    any free we don't reach). Offset 0 is no block: an empty
        //    model has no data, the empty core no descriptor or log.
        for off in old.into_iter().filter(|&off| off != 0) {
            self.alloc.free(off);
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
    /// Create a fresh (empty) learned index on a formatted allocator:
    /// persist the config, then publish generation 1 as the merge of an
    /// empty core, so one function publishes every generation.
    pub fn create(alloc: Arc<PmAllocator>, cfg: LearnedConfig) -> Arc<LearnedIndex> {
        cfg.validate();
        let pool = alloc.pool().clone();
        pool.write_u64(SLOT_CFG * 8, encode_cfg(&cfg));
        pool.persist(SLOT_CFG * 8, 8);
        let mut core = Core {
            alloc,
            cfg,
            desc_off: 0,
            epoch: 0,
            keys: Vec::new(),
            segs: Vec::new(),
            data_dir: 0,
            data_chunks: Vec::new(),
            log_dir: 0,
            log_chunks: Vec::new(),
            log_cap: 0,
            log_len: 0,
            delta: BTreeMap::new(),
            merges: 0,
        };
        core.merge();
        core.merges = 0;
        Arc::new(LearnedIndex {
            core: RwLock::new(core),
        })
    }

    /// Reopen after a crash: probes every reachable block for media errors
    /// before interpreting it, rebuilds the DRAM key mirror from the
    /// published generation and retrains the segments over it, replays
    /// every valid entry of the delta log into the delta map,
    /// garbage-collects allocations the crash left unreachable
    /// (half-built merge output), and completes an interrupted merge
    /// whose log had already filled.
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
        pool.read_words(desc_off, &mut words);
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
        // Model data: rebuild the DRAM key mirror (the segments are
        // retrained over it below).
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
        let segs = pla::build_segments(&keys, cfg.epsilon);
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
            let mut entry = [0u64; LOG_ENTRY_BYTES / 8];
            pool.read_words(off, &mut entry);
            let [key, value, meta, sum] = entry;
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
        let mut reachable: HashSet<u64> = [desc_off, desc.data_dir, desc.log_dir]
            .into_iter()
            .filter(|&off| off != 0)
            .collect();
        reachable.extend(data_chunks.iter().copied());
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
