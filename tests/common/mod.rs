//! Shared helpers for the integration tests: index construction and
//! recovery across all workspace indexes.
//!
//! Each integration test binary uses a different subset of these
//! helpers, so the rest would trip `dead_code` per binary.
#![allow(dead_code, unused_imports)]

use std::sync::Arc;

/// Small node configs so integration workloads exercise many splits
/// and merges: the one table the crash sweeps use.
pub use pm_index_bench::crashpoint::{build_index as create_small, PM_KINDS};
use pm_index_bench::crashpoint::{fresh_shard, try_recover_shard, Shape};
use pm_index_bench::index_api::RangeIndex;
use pm_index_bench::pmalloc::AllocMode;
use pm_index_bench::pmem::{PmConfig, PmPool};

/// All kinds including the volatile baseline.
pub use pm_index_bench::net::build::ALL_KINDS;

/// A fresh small-node index on its own pool (none for `dram`).
pub fn fresh(
    kind: &str,
    pool_mib: usize,
    cfg: PmConfig,
) -> (Arc<dyn RangeIndex>, Option<Arc<PmPool>>) {
    let shard = fresh_shard(kind, Shape::Small, AllocMode::General, pool_mib << 20, cfg);
    (shard.index, shard.pool)
}

/// Reopen the small-node index of `kind` from its pool's persisted
/// image, through the crash sweeps' own recovery path; a media error
/// fails the test.
pub fn recover_small(kind: &str, pool: Arc<PmPool>) -> Arc<dyn RangeIndex> {
    let shard = try_recover_shard(kind, pool);
    shard.unwrap_or_else(|e| panic!("{kind}: {e}")).index
}
