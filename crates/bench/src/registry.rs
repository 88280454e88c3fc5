//! Index construction for the experiments: flat (one pool) and sharded
//! builds over the one kind table, through `net::build`.

use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crashpoint::{Shape, PM_KINDS};
use engine::Shard;
use index_api::RangeIndex;
use net::build::BuiltEnv;
pub use net::build::{build_sharded, pool_bytes_for_shard, ALL_KINDS};
pub use pmalloc::AllocMode;
use pmalloc::PmAllocator;
use pmem::{PmConfig, PmPool};

/// A constructed index with its backing pools/allocators (one per
/// shard; empty for the DRAM baseline).
pub struct Built {
    /// The index under test.
    pub index: Arc<dyn RangeIndex>,
    /// Its emulated PM pools, in shard order (empty for DRAM).
    pub pools: Vec<Arc<PmPool>>,
    /// Its allocators, in shard order (empty for DRAM).
    pub allocs: Vec<Arc<PmAllocator>>,
}

impl From<Shard> for Built {
    fn from(s: Shard) -> Built {
        Built {
            index: s.index,
            pools: s.pool.into_iter().collect(),
            allocs: s.alloc.into_iter().collect(),
        }
    }
}

/// A range-partitioned build ([`build_sharded`]) as the index under test.
impl From<BuiltEnv> for Built {
    fn from(env: BuiltEnv) -> Built {
        Built {
            index: env.index,
            pools: env.pools,
            allocs: env.allocs,
        }
    }
}

/// A fresh default-config index of `kind` (any row of the kind table,
/// or `dram`) sized for `records`, on one pool with the given device
/// config and the PMDK-like general allocator.
pub fn build(kind: &str, records: u64, pm: PmConfig) -> Built {
    shard(kind, Shape::Default, AllocMode::General, records, pm).into()
}

/// One fresh flat index of `kind` in an explicit shape (E12's node
/// sizes) and allocation mode (E10's ablation) on its own pool sized
/// for `records`.
pub fn shard(kind: &str, shape: Shape, mode: AllocMode, records: u64, pm: PmConfig) -> Shard {
    let bytes = pool_bytes_for_shard(records, 1);
    crashpoint::fresh_shard(kind, shape, mode, bytes, pm)
}

/// Reopen a crashed pool as default-config `kind`, timing the full
/// restart path (allocator recovery + index recovery, including any
/// DRAM rebuild).
pub fn recover(kind: &str, pool: Arc<PmPool>) -> (Built, Duration) {
    let t0 = Instant::now();
    let shard = crashpoint::try_recover_shard_as(kind, Shape::Default, pool)
        .unwrap_or_else(|e| panic!("{kind} recovery failed: {e}"));
    (shard.into(), t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_and_variant_builds_serves_and_recovers() {
        let variants = ["fptree-nofp", "fptree-varkey", "wbtree-noslots"];
        for kind in ALL_KINDS.into_iter().chain(variants) {
            let b = build(kind, 10_000, PmConfig::real());
            for k in 0..500u64 {
                assert!(b.index.insert(k, k + 1), "{kind}");
            }
            assert_eq!(b.pools.is_empty(), kind == "dram");
            let Some(pool) = b.pools.first().cloned() else {
                continue;
            };
            drop(b);
            pool.crash();
            let (b2, took) = recover(kind, pool);
            for k in 0..500u64 {
                assert_eq!(b2.index.lookup(k), Some(k + 1), "{kind} key {k}");
            }
            assert!(took.as_nanos() > 0);
        }
    }

    #[test]
    fn sharded_pool_budget_charges_overhead_per_pool() {
        let single = pool_bytes_for_shard(1_000, 1);
        let per_shard = pool_bytes_for_shard(1_000, 8);
        // Splitting must not divide the fixed overhead with the records.
        assert!(per_shard > single / 8);
        assert!(per_shard >= pmem::ROOT_AREA as usize + (4 << 20));
    }

    #[test]
    fn sharded_builds_name_and_route() {
        let b: Built = build_sharded("wbtree", 4, 2_000, PmConfig::real()).into();
        assert_eq!(b.pools.len(), 4);
        assert_eq!(b.index.name(), "sharded-wbtree");
        let dram: Built = build_sharded("dram", 3, 1_000, PmConfig::real()).into();
        assert!(dram.pools.is_empty());
        assert!(dram.index.insert(7, 7));
        assert_eq!(dram.index.lookup(7), Some(7));
        // A wrapper's name is built from the name it wraps: there is no
        // second list of kinds for a combination to fall out of.
        let cached = cache::CachedIndex::new(dram.index, 1 << 16);
        assert_eq!(cached.name(), "cached-sharded-dram-btree");
    }
}
