//! # engine — sharded multi-pool index layer
//!
//! Range-partitions the u64 keyspace across N shards, each an independent
//! inner [`RangeIndex`] on its **own** [`PmPool`] and [`PmAllocator`].
//! Threads operating on different shards share no locks, no allocator
//! size classes, and no pool state — the structural bottlenecks of the
//! single-pool design (allocator class locks, pool mutexes) become
//! per-shard and therefore tunable with `--shards N`.
//!
//! ## Partitioning scheme
//!
//! The partition is a fixed arithmetic split: shard `i` of `n` owns the
//! contiguous key range `[shard_start(i, n), shard_start(i + 1, n))`,
//! computed by `shard_of(key, n) = (key * n) >> 64`. This is monotonic
//! in `key` (so concatenating per-shard scans in shard order yields a
//! globally sorted result). The shard list is immutable once the engine
//! is assembled, so the partition needs no routing table.
//!
//! ## What a routed op touches
//!
//! A point op computes `shard_of(key, n)` and calls that shard's index:
//! the engine takes no lock and writes no shared word of its own.
//!
//! ## Cross-shard scan continuation
//!
//! `scan(start, count)` starts in `shard_of(start, n)` and, while the
//! result is short, continues in each next shard from its first key
//! `shard_start(i + 1, n)`.

use std::sync::Arc;

use index_api::{prefixed_name, Footprint, Key, RangeIndex, Value};
use pmalloc::PmAllocator;
use pmem::{MediaError, PmPool, PmStatsSnapshot};

/// One shard: an inner index plus the PM state backing it (absent for
/// DRAM-only inners).
#[derive(Clone)]
pub struct Shard {
    pub index: Arc<dyn RangeIndex>,
    pub pool: Option<Arc<PmPool>>,
    pub alloc: Option<Arc<PmAllocator>>,
}

/// Which shard owns `key` when the keyspace is split into `n` equal
/// ranges. Monotonic in `key`; `shard_of(0, n) == 0` and
/// `shard_of(u64::MAX, n) == n - 1`.
#[inline]
pub fn shard_of(key: Key, n: usize) -> usize {
    debug_assert!(n >= 1);
    ((key as u128 * n as u128) >> 64) as usize
}

/// Smallest key owned by shard `i` of `n` (`i < n`), i.e.
/// `ceil(i * 2^64 / n)`.
#[inline]
pub fn shard_start(i: usize, n: usize) -> Key {
    debug_assert!(i < n);
    (((i as u128) << 64).div_ceil(n as u128)) as Key
}

/// A range-partitioned federation of inner indexes that itself
/// implements the full [`RangeIndex`] contract.
pub struct ShardedIndex {
    shards: Vec<Shard>,
    name: &'static str,
}

impl ShardedIndex {
    /// Assemble from pre-built shards (shard `i` must hold key range
    /// `[shard_start(i, n), shard_start(i + 1, n))`; the builder is
    /// responsible for routing prefill through this wrapper so that
    /// invariant holds).
    pub fn from_parts(shards: Vec<Shard>) -> Arc<Self> {
        assert!(!shards.is_empty(), "ShardedIndex needs at least one shard");
        let name = prefixed_name("sharded", shards[0].index.name());
        Arc::new(Self { shards, name })
    }

    /// Re-open every shard from its pool's persisted image: `f` recovers
    /// one pool's allocator and index, and pool `i` becomes shard `i`.
    /// Shards recover sequentially when `parallel` is false, on one
    /// scoped thread per shard otherwise. The first [`MediaError`] aborts
    /// the open (on the parallel path the error of the lowest-indexed
    /// failing shard is reported, so both paths fail deterministically).
    pub fn recover<F>(pools: &[Arc<PmPool>], parallel: bool, f: F) -> Result<Arc<Self>, MediaError>
    where
        F: Fn(Arc<PmPool>) -> Result<Shard, MediaError> + Sync,
    {
        let _site = obs::site("engine_recovery");
        let shards: Result<Vec<Shard>, MediaError> = if !parallel || pools.len() <= 1 {
            pools.iter().map(|p| f(Arc::clone(p))).collect()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = pools
                    .iter()
                    .map(|p| {
                        let (p, f) = (Arc::clone(p), &f);
                        s.spawn(move || f(p))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard recovery thread panicked"))
                    .collect()
            })
        };
        Ok(Self::from_parts(shards?))
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Snapshot of the shards, in shard-id order.
    pub fn shards(&self) -> Vec<Shard> {
        self.shards.clone()
    }

    /// The backing pools, in shard order (empty for DRAM inners).
    pub fn pools(&self) -> Vec<Arc<PmPool>> {
        self.shards.iter().filter_map(|s| s.pool.clone()).collect()
    }

    /// The backing allocators, in shard order (empty for DRAM inners).
    pub fn allocs(&self) -> Vec<Arc<PmAllocator>> {
        self.shards.iter().filter_map(|s| s.alloc.clone()).collect()
    }

    /// Counter-wise sum of every shard pool's statistics.
    pub fn merged_stats(&self) -> PmStatsSnapshot {
        let snaps: Vec<PmStatsSnapshot> = self
            .shards
            .iter()
            .filter_map(|s| s.pool.as_ref().map(|p| p.stats()))
            .collect();
        PmStatsSnapshot::merged(snaps.iter())
    }

    /// Reset every shard pool's counters.
    pub fn reset_stats(&self) {
        for p in self.shards.iter().filter_map(|s| s.pool.as_ref()) {
            p.reset_stats();
        }
    }

    /// The index of the shard owning `key`.
    #[inline]
    fn owner(&self, key: Key) -> &dyn RangeIndex {
        &*self.shards[shard_of(key, self.shards.len())].index
    }
}

impl RangeIndex for ShardedIndex {
    fn insert(&self, key: Key, value: Value) -> bool {
        self.owner(key).insert(key, value)
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        self.owner(key).lookup(key)
    }

    fn update(&self, key: Key, value: Value) -> bool {
        self.owner(key).update(key, value)
    }

    fn remove(&self, key: Key) -> bool {
        self.owner(key).remove(key)
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let _site = obs::site("engine_scan_merge");
        out.clear();
        let n = self.shards.len();
        let first = shard_of(start, n);
        let mut tmp = Vec::new();
        // Shard `i` holds only keys of its own range, so a short inner
        // scan means the shard is exhausted and the next one continues.
        for i in first..n {
            if out.len() == count {
                break;
            }
            let from = if i == first { start } else { shard_start(i, n) };
            let got = self.shards[i].index.scan(from, count - out.len(), &mut tmp);
            out.extend_from_slice(&tmp[..got]);
        }
        out.len()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn footprint(&self) -> Footprint {
        let mut total = Footprint::default();
        for s in &self.shards {
            let f = s.index.footprint();
            total.pm_bytes += f.pm_bytes;
            total.dram_bytes += f.dram_bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::testing::MapIndex;
    use pmalloc::AllocMode;
    use pmem::PmConfig;

    fn map_shard() -> Shard {
        Shard {
            index: Arc::new(MapIndex::new()) as Arc<dyn RangeIndex>,
            pool: None,
            alloc: None,
        }
    }

    fn map_sharded(n: usize) -> Arc<ShardedIndex> {
        ShardedIndex::from_parts((0..n).map(|_| map_shard()).collect())
    }

    #[test]
    fn partition_math_is_monotonic_and_covers_boundaries() {
        for n in [1usize, 2, 3, 4, 7, 16, 64] {
            assert_eq!(shard_of(0, n), 0);
            assert_eq!(shard_of(u64::MAX, n), n - 1);
            assert_eq!(shard_start(0, n), 0);
            for i in 0..n {
                let s = shard_start(i, n);
                assert_eq!(shard_of(s, n), i, "start of shard {i}/{n}");
                if s > 0 {
                    assert_eq!(shard_of(s - 1, n), i - 1, "key before shard {i}/{n}");
                }
            }
        }
    }

    #[test]
    fn routing_respects_partition() {
        let idx = map_sharded(4);
        let keys = [0u64, 1, u64::MAX / 4, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for &k in &keys {
            assert!(idx.insert(k, k ^ 1));
        }
        // Each key landed in exactly the shard the partition function says.
        for &k in &keys {
            let owner = shard_of(k, 4);
            for (i, sh) in idx.shards().iter().enumerate() {
                assert_eq!(sh.index.lookup(k).is_some(), i == owner);
            }
        }
    }

    #[test]
    fn sharded_map_passes_conformance() {
        for n in [1usize, 2, 3, 5, 8] {
            let idx = map_sharded(n);
            // Full-width keys so the stream actually straddles shards.
            index_api::oracle::check_conformance(&*idx, 0xBEEF + n as u64, 4_000, u64::MAX);
        }
    }

    #[test]
    fn scan_continues_across_empty_shards() {
        let idx = map_sharded(8);
        // Populate only shards 0 and 6.
        let lo = [1u64, 2, 3];
        let hi_base = shard_start(6, 8);
        let hi = [hi_base, hi_base + 1, hi_base + 2];
        for &k in lo.iter().chain(hi.iter()) {
            assert!(idx.insert(k, k));
        }
        let mut out = Vec::new();
        // Scan from 0 must walk through five empty shards and keep going.
        assert_eq!(idx.scan(0, 5, &mut out), 5);
        assert_eq!(
            out.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![1, 2, 3, hi_base, hi_base + 1]
        );
        // count larger than the total record count drains everything.
        assert_eq!(idx.scan(0, 100, &mut out), 6);
        // Scan starting inside a trailing empty shard returns nothing.
        assert_eq!(idx.scan(shard_start(7, 8), 10, &mut out), 0);
    }

    #[test]
    fn scan_zero_count_and_clears_out() {
        let idx = map_sharded(3);
        idx.insert(10, 1);
        let mut out = vec![(99u64, 99u64)];
        assert_eq!(idx.scan(0, 0, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn footprint_aggregates_shards() {
        let idx = map_sharded(2);
        idx.insert(1, 1); // shard 0
        idx.insert(u64::MAX, 1); // shard 1
        let f = idx.footprint();
        assert_eq!(f.dram_bytes, 32); // 16 bytes/record in MapIndex
    }

    #[test]
    fn merged_stats_sums_pools_and_resets() {
        let mk_pool = || Arc::new(PmPool::new(1 << 20, PmConfig::default()));
        let pools = [mk_pool(), mk_pool()];
        pools[0].write_u64(pmem::ROOT_AREA, 7);
        pools[0].read_u64(pmem::ROOT_AREA);
        pools[1].read_u64(pmem::ROOT_AREA);
        let shards = pools
            .iter()
            .map(|p| Shard {
                index: Arc::new(MapIndex::new()) as Arc<dyn RangeIndex>,
                pool: Some(Arc::clone(p)),
                alloc: None,
            })
            .collect();
        let idx = ShardedIndex::from_parts(shards);
        let m = idx.merged_stats();
        assert_eq!(m.read_ops, 2);
        assert_eq!(m.write_ops, 1);
        idx.reset_stats();
        assert_eq!(idx.merged_stats(), PmStatsSnapshot::default());
    }

    #[test]
    fn recover_with_runs_both_paths() {
        let formatted = || {
            let p = Arc::new(PmPool::new(4 << 20, PmConfig::default()));
            PmAllocator::format(Arc::clone(&p), AllocMode::General);
            p.persist_all();
            p
        };
        let recover = |pool: Arc<PmPool>| {
            let alloc = PmAllocator::try_recover(Arc::clone(&pool))?;
            Ok(Shard {
                index: Arc::new(MapIndex::new()) as Arc<dyn RangeIndex>,
                pool: Some(pool),
                alloc: Some(alloc),
            })
        };
        // Lines allocator recovery reads: its header, an in-flight slot.
        let (header, slot) = (pmem::ROOT_AREA, pmem::ROOT_AREA + 320);
        for parallel in [false, true] {
            let pools: Vec<_> = (0..3).map(|_| formatted()).collect();
            let idx = ShardedIndex::recover(&pools, parallel, recover).expect("recovery succeeds");
            assert_eq!(idx.shard_count(), 3);
            assert_eq!(idx.pools().len(), 3);
            assert_eq!(idx.allocs().len(), 3);
            assert!(idx.insert(42, 42));

            // Shards 1 and 2 both fail, at different lines: either path
            // reports shard 1's.
            let pools: Vec<_> = (0..3).map(|_| formatted()).collect();
            pools[1].poison_line(slot);
            pools[2].poison_line(header);
            let opened = ShardedIndex::recover(&pools, parallel, recover);
            let err = opened.err().expect("a poisoned shard fails the open");
            assert_eq!(err.off, slot, "parallel = {parallel}: {err}");
        }
    }

    #[test]
    fn sharded_name_table() {
        let idx = map_sharded(2);
        assert_eq!(idx.name(), "sharded-map-index");
    }
}
