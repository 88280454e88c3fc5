//! Crash-point exploration of the engine's online shard-range
//! migration (copy → single fenced routing publish → GC).
//!
//! A deterministic single-threaded script interleaves the standard
//! workload with a migration of the tail half of shard 0's range into a
//! fresh destination shard:
//!
//! 1. first quarter of the workload on the base engine,
//! 2. `begin_migration` (destination pool formatted + claim written),
//! 3. copy chunks interleaved with the second workload quarter,
//! 4. `publish` (the single fenced commit word + routing flip),
//! 5. third workload quarter served by the new routing table,
//! 6. `gc` of the source leftovers,
//! 7. the final quarter.
//!
//! The sweep arms ONE pool (each base pool, then the destination) at a
//! time, and after the cut recovers with
//! [`engine::ShardedIndex::recover_routed`] and checks:
//!
//! * **the durability oracle** ([`crate::verify_recovered`]): every
//!   acked op survives, the one in-flight op is atomic, scans are
//!   sorted and ghost-free — copies and half-finished migration steps
//!   must be logically invisible;
//! * **the routing invariant**: the destination appears in the routing
//!   table *iff* its persisted claim is `ACTIVE`/`SETTLED` — the table
//!   never points at a half-copied range;
//! * **idempotence**: crash-recover a second time and require an
//!   identical routing table and a still-green oracle.

use std::sync::Arc;

use engine::{
    shard_start, RouteEntry, Shard, ShardedIndex, MIG_ACTIVE, MIG_MAGIC, MIG_SETTLED,
    SLOT_MIG_MAGIC, SLOT_MIG_STATE,
};
use index_api::Op;
use pmalloc::{AllocMode, PmAllocator};
use pmem::{MediaError, PmConfig, PmPool};

use crate::sharded::spread_workload;
use crate::{
    apply_until_cut, build_index, fresh_shards, try_recover_shard, until_cut, verify_recovered,
    Acked, Counters, Scenario, SweepOptions,
};

/// A sharded engine with one shard-range migration in flight; the
/// destination is the last pool. Counts `preparing_recoveries` (cut
/// before the publish word landed: destination dropped at recovery) and
/// `claimed_recoveries` (destination routed).
#[derive(Debug, Clone, Copy)]
pub struct Migration {
    /// Base shards (the destination adds one more pool to the sweep).
    pub base_shards: usize,
    /// Records copied per migration chunk.
    pub chunk: usize,
    /// Workload ops interleaved between copy chunks.
    pub ops_per_chunk: usize,
}

impl Default for Migration {
    fn default() -> Self {
        Migration {
            base_shards: 2,
            chunk: 24,
            ops_per_chunk: 4,
        }
    }
}

/// The base engine plus the still-unformatted destination pool.
pub struct MigrationEnv {
    engine: Arc<ShardedIndex>,
    dst_pool: Arc<PmPool>,
}

impl Migration {
    /// The migration splits shard 0's range at its midpoint.
    fn split_at(&self) -> u64 {
        let end = if self.base_shards == 1 {
            u64::MAX
        } else {
            shard_start(1, self.base_shards) - 1
        };
        end / 2 + 1
    }

    /// The workload + migration script; `None` as soon as the armed
    /// pool cuts a step. Single-threaded, so each pool's persistence
    /// event stream is reproducible across replays.
    fn script(
        &self,
        env: &MigrationEnv,
        opts: &SweepOptions,
        ops: &[Op],
        acked: &mut Acked,
    ) -> Option<()> {
        let engine = &env.engine;
        let mut rest = ops;
        // Apply up to `n` more workload ops.
        let mut serve = |n: usize, acked: &mut Acked| {
            let (now, later) = rest.split_at(n.min(rest.len()));
            rest = later;
            apply_until_cut(&**engine, now, acked).then_some(())
        };
        let q = (ops.len() / 4).max(1);

        serve(q, acked)?;
        let mut migrator = until_cut(|| {
            let alloc = PmAllocator::format(env.dst_pool.clone(), AllocMode::General);
            let dst = Shard {
                index: build_index(&opts.kind, alloc.clone()),
                pool: Some(env.dst_pool.clone()),
                alloc: Some(alloc),
            };
            engine.begin_migration(self.split_at(), dst)
        })?;
        let mut served = 0;
        loop {
            let copied_all = until_cut(|| migrator.copy_chunk(self.chunk))?;
            let n = self.ops_per_chunk.min(q - served);
            served += n;
            serve(n, acked)?;
            if copied_all {
                break;
            }
        }
        serve(q - served, acked)?;
        until_cut(|| migrator.publish())?;
        serve(q, acked)?;
        until_cut(|| migrator.gc())?;
        serve(usize::MAX, acked)
    }

    /// Recover the whole routed engine from the pools' current images.
    fn recover(
        &self,
        opts: &SweepOptions,
        pools: &[Arc<PmPool>],
    ) -> Result<Arc<ShardedIndex>, MediaError> {
        let (base, dst) = pools.split_at(self.base_shards);
        ShardedIndex::recover_routed(base.to_vec(), dst.to_vec(), false, |pool| {
            try_recover_shard(&opts.kind, pool)
        })
    }

    /// The routing invariant: the destination shard is routed iff its
    /// persisted claim is `ACTIVE`/`SETTLED`, and the routed ranges
    /// exactly match the claim (or the arithmetic base partition when
    /// it was dropped).
    fn check_routes(&self, claimed: bool, routes: &[RouteEntry]) -> Result<(), String> {
        let n = self.base_shards;
        let mut want: Vec<RouteEntry> = (0..n)
            .map(|i| RouteEntry {
                start: shard_start(i, n),
                last: if i + 1 == n {
                    u64::MAX
                } else {
                    shard_start(i + 1, n) - 1
                },
                shard: i,
            })
            .collect();
        if claimed {
            let split = self.split_at();
            let end = want[0].last;
            want[0].last = split - 1;
            want.insert(
                1,
                RouteEntry {
                    start: split,
                    last: end,
                    shard: n,
                },
            );
        }
        if routes != want.as_slice() {
            return Err(format!(
                "routing table mismatch (claimed={claimed}): got {routes:?}, want {want:?}"
            ));
        }
        Ok(())
    }
}

/// Whether the destination pool's persisted migration claim is live.
fn claimed(dst_pool: &PmPool) -> bool {
    dst_pool.read_root(SLOT_MIG_MAGIC) == MIG_MAGIC
        && matches!(dst_pool.read_root(SLOT_MIG_STATE), MIG_ACTIVE | MIG_SETTLED)
}

impl Scenario for Migration {
    type Env = MigrationEnv;

    /// The base engine is built (its pools formatted) before arming,
    /// like every sweep: the boundary space starts at the first
    /// workload op. The destination is formatted by the script.
    fn build(&self, opts: &SweepOptions) -> (MigrationEnv, Vec<Arc<PmPool>>) {
        assert!(self.base_shards >= 1, "need at least one base shard");
        let base = fresh_shards(opts, self.base_shards, PmConfig::real());
        let engine = ShardedIndex::from_parts(base);
        let dst_pool = Arc::new(PmPool::new(opts.pool_mib << 20, PmConfig::real()));
        let mut pools = engine.pools();
        pools.push(dst_pool.clone());
        (MigrationEnv { engine, dst_pool }, pools)
    }

    fn drive(&self, env: &mut MigrationEnv, opts: &SweepOptions, _c: &mut Counters) -> Acked {
        let mut acked = Acked::default();
        self.script(env, opts, &spread_workload(opts), &mut acked);
        acked
    }

    fn check(
        &self,
        opts: &SweepOptions,
        pools: &[Arc<PmPool>],
        _armed: usize,
        acked: &Acked,
        counters: &mut Counters,
    ) -> Result<Result<(), String>, MediaError> {
        let recovered = self.recover(opts, pools)?;
        let claimed = claimed(&pools[self.base_shards]);
        let which = if claimed {
            "claimed_recoveries"
        } else {
            "preparing_recoveries"
        };
        *counters.entry(which).or_default() += 1;
        let routes = recovered.routes();
        let first = self
            .check_routes(claimed, &routes)
            .and_then(|()| verify_recovered(&*recovered, &acked.model, &acked.inflight));
        if first.is_err() {
            return Ok(first);
        }
        drop(recovered);

        // Double recovery: power-cycle every pool again (recovery's own
        // writes that were persisted survive; its volatile state is
        // lost) and require the identical routing table and a green
        // oracle.
        for p in pools {
            p.crash();
        }
        let again = self.recover(opts, pools)?;
        if again.routes() != routes {
            return Ok(Err(format!(
                "double recovery changed the routing table: {routes:?} then {:?}",
                again.routes()
            )));
        }
        Ok(verify_recovered(&*again, &acked.model, &acked.inflight)
            .map_err(|e| format!("after second recovery: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep;

    fn quick_opts(kind: &str, stride: u64) -> SweepOptions {
        SweepOptions {
            kind: kind.to_string(),
            ops: 120,
            key_range: 48,
            seed: 0xC0FFEE,
            pool_mib: 8,
            stride,
            ..SweepOptions::default()
        }
    }

    #[test]
    fn uninjected_scenario_is_green_end_to_end() {
        // The probe alone: no boundary explored, the script completes.
        let scn = Migration::default();
        let opts = quick_opts("wbtree", 1);
        let (mut env, pools) = scn.build(&opts);
        let acked = scn.drive(&mut env, &opts, &mut Counters::new());
        assert!(acked.inflight.is_empty() && acked.errors.is_empty());
        // The migration completed: claim must be SETTLED.
        assert_eq!(env.dst_pool.read_root(SLOT_MIG_MAGIC), MIG_MAGIC);
        assert_eq!(env.dst_pool.read_root(SLOT_MIG_STATE), MIG_SETTLED);
        // And a plain recovery of the cut images reproduces the model.
        let cut: Vec<Vec<u64>> = pools.iter().map(|p| p.snapshot_persisted()).collect();
        drop(env);
        for (p, img) in pools.iter().zip(&cut) {
            p.restore_persisted(img);
        }
        let mut counters = Counters::new();
        let verdict = scn.check(&opts, &pools, 0, &acked, &mut counters);
        assert_eq!(verdict, Ok(Ok(())));
        assert_eq!(counters["claimed_recoveries"], 1);
    }

    #[test]
    fn strided_migration_sweep_is_green_for_wbtree() {
        let summary = sweep(&Migration::default(), &quick_opts("wbtree", 131));
        assert!(
            summary.is_green(),
            "{:?}",
            &summary.failures[..summary.failures.len().min(3)]
        );
        assert!(summary.crashes_fired > 0, "no boundary tripped");
        assert!(
            summary.counter("preparing_recoveries") > 0,
            "sweep must hit pre-publish boundaries"
        );
        assert!(
            summary.counter("claimed_recoveries") > 0,
            "sweep must hit post-publish boundaries"
        );
        assert_eq!(summary.probe_events.len(), 3);
    }

    #[test]
    fn strided_migration_sweep_is_green_for_learned() {
        let summary = sweep(&Migration::default(), &quick_opts("learned", 211));
        assert!(
            summary.is_green(),
            "{:?}",
            &summary.failures[..summary.failures.len().min(3)]
        );
        assert!(summary.crashes_fired > 0);
    }
}
