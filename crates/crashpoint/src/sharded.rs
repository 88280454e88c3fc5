//! Sharded crash-point exploration: the cross-shard durability oracle.
//!
//! A [`engine::ShardedIndex`] runs N independent inner indexes on N
//! independent pools. A real power cut hits the whole machine at once,
//! but the interesting failure modes are *per shard*: one shard's pool
//! stops mid-operation while the others were quiescent at the cut. The
//! sweep arms ONE shard's pool at a time, replays the deterministic
//! workload through the sharded front-end, and on the trip verifies two
//! things:
//!
//! 1. **The cross-shard oracle**: every operation acknowledged through
//!    the sharded front-end — regardless of which shard it routed to —
//!    survives recovery; the single in-flight op on the armed shard is
//!    atomic (pre- or post-state); scans across all shards are sorted
//!    and ghost-free; the recovered index stays writable.
//! 2. **Shard isolation**: untouched shards' persisted images are
//!    bit-identical to their power-cut-instant images *after the armed
//!    shard has fully recovered*. Recovery of one shard must not write
//!    a sibling's media — each shard owns its pool and allocator
//!    outright, and this check proves it at the byte level.
//!
//! The workload keys are spread across the full u64 keyspace with a
//! fixed stride (`u64::MAX / key_range`), which is injective and
//! order-preserving: collisions, updates, and removes hit the same
//! spread key, while the engine's multiplicative partitioning routes the
//! stream uniformly across every shard.

use std::sync::Arc;

use engine::ShardedIndex;
use index_api::Op;
use pmem::{MediaError, PmConfig, PmPool};

use crate::{
    apply_until_cut, fresh_shards, try_recover_shard, verify_recovered, workload, Acked, Counters,
    Scenario, SweepOptions,
};

/// A range-partitioned engine, one shard armed at a time; counts
/// `isolation_checks`.
#[derive(Debug, Clone, Copy)]
pub struct Sharded {
    /// Number of shards (each on its own pool + allocator).
    pub shards: usize,
}

/// Spread a narrow workload key across the full keyspace (injective,
/// order-preserving) so the partitioned router exercises every shard.
pub fn spread_key(k: u64, key_range: u64) -> u64 {
    k * (u64::MAX / key_range.max(1))
}

/// The deterministic workload of `opts` with every key spread over the
/// keyspace (values untouched). Shared by every scenario that drives a
/// sharded engine, the network one in `net::crash` included.
pub fn spread_workload(opts: &SweepOptions) -> Vec<Op> {
    workload(opts.seed, opts.ops, opts.key_range)
        .into_iter()
        .map(|op| op.map_key(|k| spread_key(k, opts.key_range)))
        .collect()
}

impl Scenario for Sharded {
    type Env = Arc<ShardedIndex>;

    fn build(&self, opts: &SweepOptions) -> (Self::Env, Vec<Arc<PmPool>>) {
        let idx = ShardedIndex::from_parts(fresh_shards(opts, self.shards, PmConfig::real()));
        let pools = idx.pools();
        (idx, pools)
    }

    fn drive(&self, idx: &mut Self::Env, opts: &SweepOptions, _c: &mut Counters) -> Acked {
        let mut acked = Acked::default();
        // A cut op necessarily routed to the armed shard: only that
        // pool counts down events.
        apply_until_cut(&**idx, &spread_workload(opts), &mut acked);
        acked
    }

    fn check(
        &self,
        opts: &SweepOptions,
        pools: &[Arc<PmPool>],
        armed: usize,
        acked: &Acked,
        counters: &mut Counters,
    ) -> Result<Result<(), String>, MediaError> {
        // Recover the armed shard FIRST, alone, then prove its recovery
        // never wrote a sibling's media.
        let siblings = || pools.iter().enumerate().filter(|&(i, _)| i != armed);
        let cut: Vec<Vec<u64>> = siblings().map(|(_, p)| p.snapshot_persisted()).collect();
        let armed_shard = try_recover_shard(&opts.kind, pools[armed].clone())?;
        for ((i, pool), cut) in siblings().zip(&cut) {
            *counters.entry("isolation_checks").or_default() += 1;
            if pool.snapshot_persisted() != *cut {
                return Ok(Err(format!(
                    "isolation violation: recovering shard {armed} mutated shard {i}'s \
                     persisted image"
                )));
            }
        }
        // Recover the remaining shards and reassemble in shard order.
        let mut parts = Vec::with_capacity(pools.len());
        for (i, pool) in siblings() {
            match try_recover_shard(&opts.kind, pool.clone()) {
                Ok(shard) => parts.push(shard),
                Err(e) => return Ok(Err(format!("untouched shard {i} failed to recover: {e}"))),
            }
        }
        parts.insert(armed, armed_shard);
        let recovered = ShardedIndex::from_parts(parts);
        Ok(verify_recovered(&*recovered, &acked.model, &acked.inflight))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep;

    fn quick_opts(kind: &str) -> SweepOptions {
        SweepOptions {
            kind: kind.to_string(),
            ops: 120,
            key_range: 48,
            seed: 0xC0FFEE,
            pool_mib: 8,
            stride: 97,
            ..SweepOptions::default()
        }
    }

    #[test]
    fn spread_is_injective_and_routes_to_all_shards() {
        let n = 4usize;
        let mut seen = std::collections::HashSet::new();
        let mut shards_hit = std::collections::HashSet::new();
        for k in 0..64u64 {
            let s = spread_key(k, 64);
            assert!(seen.insert(s));
            shards_hit.insert(engine::shard_of(s, n));
        }
        assert_eq!(shards_hit.len(), n);
    }

    #[test]
    fn strided_sweep_is_green_for_every_pm_kind() {
        for kind in crate::PM_KINDS {
            let summary = sweep(&Sharded { shards: 3 }, &quick_opts(kind));
            assert!(
                summary.is_green(),
                "{kind}: {:?}",
                &summary.failures[..summary.failures.len().min(3)]
            );
            assert!(summary.crashes_fired > 0, "{kind}: no boundary tripped");
            assert!(summary.counter("isolation_checks") > 0, "{kind}");
            assert_eq!(summary.probe_events.len(), 3);
            assert!(
                summary.probe_events.iter().all(|&e| e > 0),
                "{kind}: a shard saw no persistence events: {:?}",
                summary.probe_events
            );
        }
    }

    #[test]
    fn arm_shard_subset_is_respected() {
        let opts = SweepOptions {
            arm_pools: vec![1],
            max_boundaries: Some(2),
            stride: 40,
            ..quick_opts("wbtree")
        };
        let summary = sweep(&Sharded { shards: 3 }, &opts);
        assert!(summary.is_green(), "{:?}", summary.failures);
        assert_eq!(summary.boundaries_tested, 2);
        assert!(summary.verdicts.iter().all(|v| v.0 == 1));
    }
}
