//! The sharded stack everything above the library stack serves:
//! `pmserve`, the repo benchmark, the experiment harness and `pibench`
//! all build and reopen it here, so every tool measures the same build —
//! one shard per pool, each opened by name through the kind table
//! ([`crashpoint::fresh_shard`], [`crashpoint::try_recover_shard_as`]),
//! sized by one heuristic, behind one [`engine::ShardedIndex`].

use std::sync::Arc;

use crashpoint::{fresh_shard, kinds_and, try_recover_shard_as, Shape};
use engine::ShardedIndex;
use pmalloc::{AllocMode, PmAllocator};
use pmem::{PmConfig, PmPool, ROOT_AREA};

/// The five PM kinds plus the volatile baseline.
pub const ALL_KINDS: [&str; 6] = kinds_and("dram");

/// A sharded index with its backing pools/allocators (empty for DRAM).
pub struct BuiltEnv {
    /// The index behind the server.
    pub index: Arc<ShardedIndex>,
    /// Its emulated PM pools, in shard order.
    pub pools: Vec<Arc<PmPool>>,
    /// Its allocators, in shard order.
    pub allocs: Vec<Arc<PmAllocator>>,
}

impl From<Arc<ShardedIndex>> for BuiltEnv {
    fn from(index: Arc<ShardedIndex>) -> BuiltEnv {
        BuiltEnv {
            pools: index.pools(),
            allocs: index.allocs(),
            index,
        }
    }
}

/// Capacity of ONE of `shards` pools jointly holding `total_records`.
/// The per-record budget is generous (nodes are half-full on average,
/// BzTree keeps version chains until consolidation) and carries growth
/// headroom for insert-heavy phases; it splits across shards. The fixed
/// per-pool overhead (reserved root area, allocator metadata, first-chunk
/// slack) does not, so N small pools don't under-provision.
pub fn pool_bytes_for_shard(total_records: u64, shards: usize) -> usize {
    assert!(shards >= 1);
    let budget = (total_records as usize) * 320 + (64 << 20);
    budget.div_ceil(shards) + ROOT_AREA as usize + (4 << 20)
}

/// Build a fresh default-config sharded index of `kind` sized for
/// `records`, on `shards` independent pools. `shards == 1` still wraps,
/// so the shard axis is uniform in reports (`sharded-<kind>`).
pub fn build_sharded(kind: &str, shards: usize, records: u64, pm: PmConfig) -> BuiltEnv {
    let bytes = pool_bytes_for_shard(records, shards);
    let one = || fresh_shard(kind, Shape::Default, AllocMode::General, bytes, pm.clone());
    ShardedIndex::from_parts((0..shards).map(|_| one()).collect()).into()
}

/// Reopen every shard of a crashed default-config sharded index, one
/// thread per shard (the `pmserve --selfcheck` restart path).
pub fn recover_sharded(kind: &str, pools: Vec<Arc<PmPool>>) -> BuiltEnv {
    ShardedIndex::recover(&pools, true, |pool| {
        try_recover_shard_as(kind, Shape::Default, pool)
    })
    .expect("shard recovery hit a media error")
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::RangeIndex;

    #[test]
    fn build_prefill_recover_roundtrip() {
        let env = build_sharded("wbtree", 2, 2_000, PmConfig::real());
        pibench::prefill(&*env.index, &pibench::KeySpace::new(2_000), 2);
        let ks = pibench::keys::KeySpace::new(2_000);
        assert_eq!(env.index.lookup(ks.key(7)), Some(ks.value_for(ks.key(7))));
        let pools = env.pools.clone();
        drop(env);
        for p in &pools {
            p.crash();
        }
        let env2 = recover_sharded("wbtree", pools);
        for i in (0..2_000u64).step_by(97) {
            let k = ks.key(i);
            assert_eq!(env2.index.lookup(k), Some(ks.value_for(k)), "key {i}");
        }
    }

    #[test]
    fn dram_env_has_no_pools() {
        let env = build_sharded("dram", 3, 500, PmConfig::real());
        pibench::prefill(&*env.index, &pibench::KeySpace::new(500), 1);
        assert!(env.pools.is_empty());
        assert_eq!(env.index.shard_count(), 3);
    }
}
