//! Shared helpers for the integration tests: index construction and
//! recovery across all workspace indexes.
//!
//! Each integration test binary uses a different subset of these
//! helpers, so the rest would trip `dead_code` per binary.
#![allow(dead_code, unused_imports)]

use std::sync::Arc;

/// Small node configs so integration workloads exercise many splits
/// and merges, and the matching recovery entry point: the one table
/// the crash sweeps use.
pub use pm_index_bench::crashpoint::{
    build_index as create_small, recover_index as recover_small, PM_KINDS,
};
use pm_index_bench::dram_index::DramTree;
use pm_index_bench::index_api::RangeIndex;
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmPool};

/// All kinds including the volatile baseline.
pub use pm_index_bench::net::build::ALL_KINDS;

/// A fresh small-node index on its own pool.
pub fn fresh(
    kind: &str,
    pool_mib: usize,
    cfg: PmConfig,
) -> (Arc<dyn RangeIndex>, Option<Arc<PmPool>>) {
    if kind == "dram" {
        return (Arc::new(DramTree::new()), None);
    }
    let pool = Arc::new(PmPool::new(pool_mib << 20, cfg));
    let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
    (create_small(kind, alloc), Some(pool))
}
