//! # learned — a crash-consistent PGM-style learned range index on PM
//!
//! The paper's four hand-built trees pay a pointer chase per level on
//! every lookup. A *learned* index replaces the inner levels with a
//! piecewise-linear model of the key→rank function (PGM-index,
//! Ferragina & Vinciguerra 2020): a lookup finds its segment, predicts
//! a rank, and binary-searches a ±ε window — one PM read for the
//! value, everything else DRAM. APEX (VLDB 2021) showed how to make
//! that durable on PM; this crate follows the same recipe scaled to
//! this workspace's substrate:
//!
//! * an **immutable generation** in PM: the sorted key/value pairs, in
//!   ≤32 KiB chunks behind a chunk directory,
//! * a **durable delta log** absorbing inserts/updates/removes — one
//!   checksummed, epoch-tagged 32-byte entry per acknowledged
//!   mutation, whose flush is the commit point,
//! * a **crash-consistent merge** that retrains the model over
//!   (generation ∪ delta) and publishes it with a single fenced
//!   8-byte root store; recovery at *any* persistence-event boundary
//!   lands on a complete generation plus a replayable log.
//!
//! PM holds only what recovery cannot rebuild. The model itself (the
//! trained segments) is a pure function of the sorted keys, so it lives
//! in DRAM beside the sorted-key mirror and the delta map, the way
//! FPTree and NV-Tree keep their inner nodes volatile: recovery reads
//! the keys back, retrains the segments over them and replays the log
//! into the delta map. (APEX persists its models because they decide
//! where records go; a model over a sorted array places nothing.)
//! [`index_api::Footprint::dram_bytes`] reports the DRAM side.
//!
//! See `DESIGN.md` ("Learned index") for the full recovery-state
//! matrix and `tests/learned_index.rs` + the `crashpoint` harness for
//! the torn-write/poison sweeps that pin the protocol down.

mod index;
pub mod pla;

pub use index::{LearnedIndex, ModelStats, SLOT_CFG, SLOT_DESC};

/// Shape knobs for [`LearnedIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LearnedConfig {
    /// Maximum |predicted rank − true rank| the trained segments
    /// guarantee (the PGM ε). Smaller ⇒ more segments, tighter search
    /// windows.
    pub epsilon: u64,
    /// Delta-log capacity floor: a merge triggers when the log fills,
    /// and the capacity grows with the model (max(floor, n/4)) so
    /// merges stay amortized-linear.
    pub delta_min_cap: usize,
    /// Records per storage chunk (data pairs, log entries). Bounded by
    /// the allocator's 32 KiB largest size class; small values force
    /// multi-chunk layouts in small tests.
    pub chunk_entries: usize,
}

impl Default for LearnedConfig {
    fn default() -> Self {
        LearnedConfig {
            epsilon: 32,
            delta_min_cap: 256,
            chunk_entries: 1024,
        }
    }
}

impl LearnedConfig {
    pub(crate) fn validate(&self) {
        assert!(
            (1..=32_768).contains(&self.epsilon),
            "epsilon out of range: {}",
            self.epsilon
        );
        assert!(
            (8..=1024).contains(&self.chunk_entries),
            "chunk_entries must be in 8..=1024 (32 KiB allocation cap): {}",
            self.chunk_entries
        );
        assert!(
            (8..=1 << 30).contains(&self.delta_min_cap),
            "delta_min_cap out of range: {}",
            self.delta_min_cap
        );
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use index_api::{oracle, Key, RangeIndex};
    use pmalloc::{AllocMode, PmAllocator};
    use pmem::{PmConfig, PmPool};

    fn small_cfg() -> LearnedConfig {
        LearnedConfig {
            epsilon: 4,
            delta_min_cap: 24,
            chunk_entries: 64,
        }
    }

    fn fresh(pool_mib: usize, cfg: LearnedConfig) -> (Arc<LearnedIndex>, Arc<PmPool>) {
        let pool = Arc::new(PmPool::new(pool_mib << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        (LearnedIndex::create(alloc, cfg), pool)
    }

    #[test]
    fn basic_ops() {
        let (t, _pool) = fresh(8, small_cfg());
        assert!(t.insert(5, 50));
        assert!(!t.insert(5, 51));
        assert_eq!(t.lookup(5), Some(50));
        assert!(t.update(5, 55));
        assert_eq!(t.lookup(5), Some(55));
        assert!(t.remove(5));
        assert!(!t.remove(5));
        assert_eq!(t.lookup(5), None);
        assert!(!t.update(5, 1));
    }

    #[test]
    fn merges_fire_and_preserve_everything() {
        let (t, _pool) = fresh(16, small_cfg());
        for k in 0..2_000u64 {
            assert!(t.insert((k * 997) % 2_000, k));
        }
        let s = t.model_stats();
        assert!(s.merges > 0, "no merge ever triggered");
        assert!(s.segments > 0);
        for k in 0..2_000u64 {
            assert!(t.lookup(k).is_some(), "key {k}");
        }
    }

    #[test]
    fn conformance_against_oracle() {
        let (t, _pool) = fresh(32, small_cfg());
        oracle::check_conformance(&*t, 0x1EA2, 20_000, 3_000);
    }

    #[test]
    fn scan_merges_model_and_delta() {
        let (t, _pool) = fresh(16, small_cfg());
        // Model half via enough inserts to force merges, then fresh
        // delta-resident records and tombstones on top.
        for k in (0..600u64).map(|k| k * 2) {
            t.insert(k, k);
        }
        t.remove(100);
        t.insert(101, 1);
        t.update(102, 7);
        let mut out = Vec::new();
        assert_eq!(t.scan(98, 4, &mut out), 4);
        assert_eq!(out, vec![(98, 98), (101, 1), (102, 7), (104, 104)]);
    }

    /// A model of at least `n` even keys whose delta holds one entry:
    /// the inserts stop right after the merge that absorbed the rest,
    /// so a few hundred more mutations stay in the delta.
    fn model_with_room(n: u64) -> (Arc<LearnedIndex>, Arc<PmPool>, oracle::Oracle) {
        let (t, pool) = fresh(32, small_cfg());
        let mut model = oracle::Oracle::new();
        for k in (0..).map(|k: u64| k * 2) {
            let merges = t.model_stats().merges;
            assert!(t.insert(k, k) && model.insert(k, k));
            if k >= 2 * n && t.model_stats().merges > merges {
                break;
            }
        }
        assert_eq!(t.model_stats().delta_len, 1);
        (t, pool, model)
    }

    #[test]
    fn lazy_scan_handles_every_model_and_delta_edge() {
        let (t, _pool, mut model) = model_with_room(1_000);
        let s = t.model_stats();
        let last = 2 * (s.model_keys - 1);
        // Delta keys between model keys and past `last` (the last model
        // key), and tombstones and updates shadowing model keys.
        let mut ops = 0;
        let odd = |from: Key| (from..from + 80).step_by(2);
        for k in odd(101).chain(odd(last + 1)) {
            assert!(t.insert(k, k + 7) && model.insert(k, k + 7));
            ops += 1;
        }
        for k in (200..=240).step_by(2) {
            assert!(t.remove(k) && model.remove(k));
            assert!(t.update(k + 100, 1) && model.update(k + 100, 1));
            ops += 2;
        }
        let after = t.model_stats();
        assert_eq!(after.merges, s.merges, "the edits must stay in the delta");
        assert!(ops < after.delta_cap && after.delta_len as usize > 50);
        let mut out = Vec::new();
        let mut check = |start: Key, count: usize| {
            t.scan(start, count, &mut out);
            assert_eq!(out, model.scan(start, count), "scan({start}, {count})");
        };
        check(100, 5); // a delta larger than `count`, interleaved with the model
        check(196, 10); // tombstones hide model keys 200..=240
        check(last - 4, 10); // `count` reached inside the delta past the model
        check(last + 5, 10); // start past the last model key
        check(last + 81, 3); // past everything
        for start in (0..last + 90).step_by(37) {
            for count in [0, 1, 3, 17, 64] {
                check(start, count);
            }
        }
    }

    #[test]
    fn scan_reads_at_most_count_model_values() {
        let (t, pool, _) = model_with_room(1_000);
        for k in (1..400).step_by(2) {
            t.insert(k, k);
        }
        assert!(
            t.model_stats().delta_len > 150,
            "a delta far larger than one scan"
        );
        let mut out = Vec::new();
        for start in [0, 300, 1_000, 1_999] {
            let before = pool.stats().read_ops;
            assert_eq!(t.scan(start, 50, &mut out), 50);
            let reads = pool.stats().read_ops - before;
            assert!(reads <= 50, "scan({start}, 50) read {reads} PM words");
        }
    }

    #[test]
    fn recovery_restores_everything() {
        let cfg = small_cfg();
        let pool = Arc::new(PmPool::new(32 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let t = LearnedIndex::create(alloc, cfg);
        for k in 0..2_000u64 {
            t.insert(k, k + 1);
        }
        for k in (0..2_000u64).step_by(5) {
            t.remove(k);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        let t = LearnedIndex::try_recover(alloc, cfg).expect("recovery");
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
        let cfg = small_cfg();
        let pool = Arc::new(PmPool::new(
            32 << 20,
            PmConfig::real().with_eviction_chaos(23),
        ));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let t = LearnedIndex::create(alloc, cfg);
        for k in 0..1_500u64 {
            t.insert(k, k);
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        let t = LearnedIndex::try_recover(alloc, cfg).expect("recovery");
        for k in 0..1_500u64 {
            assert_eq!(t.lookup(k), Some(k), "key {k}");
        }
    }

    #[test]
    fn rwlock_wrapper_is_thread_safe() {
        let (t, _pool) = fresh(32, LearnedConfig::default());
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
    fn striped_writers_race_merges_and_recover() {
        let cfg = small_cfg();
        let pool = Arc::new(PmPool::new(64 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let t = LearnedIndex::create(alloc, cfg);
        // Eight writers over the whole key space take turns on the
        // write lock, and the tiny delta cap makes some of them merge
        // while the others wait: every acknowledged op must survive the
        // power cut. Adjacent log slots share a cache line, so this is
        // also the learned view of pmem's per-line write-back ordering.
        let key = |tid: u64, i: u64| (i * 8 + tid) * (u64::MAX / 20_000);
        std::thread::scope(|s| {
            for tid in 0..8u64 {
                let t = &t;
                s.spawn(move || {
                    for i in 0..1_500u64 {
                        let k = key(tid, i);
                        assert!(t.insert(k, tid));
                        if i % 3 == 0 {
                            assert!(t.update(k, tid + 100));
                        }
                        if i % 5 == 0 {
                            assert!(t.remove(k));
                        }
                    }
                });
            }
        });
        assert!(t.model_stats().merges > 0, "merges must fire under load");
        drop(t);
        pool.crash();
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        let t = LearnedIndex::try_recover(alloc, cfg).expect("recovery");
        for tid in 0..8u64 {
            for i in 0..1_500u64 {
                let want = if i % 5 == 0 {
                    None
                } else if i % 3 == 0 {
                    Some(tid + 100)
                } else {
                    Some(tid)
                };
                assert_eq!(t.lookup(key(tid, i)), want, "tid {tid} i {i}");
            }
        }
    }

    #[test]
    fn footprint_reports_dram_mirrors() {
        let (t, _pool) = fresh(8, small_cfg());
        for k in 0..500u64 {
            t.insert(k, k);
        }
        let f = t.footprint();
        assert!(f.pm_bytes > 0);
        assert!(f.dram_bytes > 0, "key/segment mirrors must be accounted");
    }

    #[test]
    fn default_config_round_trips() {
        let cfg = LearnedConfig::default();
        let pool = Arc::new(PmPool::new(64 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
        let t = LearnedIndex::create(alloc, cfg);
        for k in 0..10_000u64 {
            assert!(t.insert(k * 3, k));
        }
        drop(t);
        pool.crash();
        let alloc = PmAllocator::try_recover(pool).expect("allocator recovery");
        let t = LearnedIndex::try_recover(alloc, cfg).expect("recovery");
        for k in 0..10_000u64 {
            assert_eq!(t.lookup(k * 3), Some(k), "key {k}");
        }
    }
}
