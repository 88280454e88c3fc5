//! The base scenario: one small-node index on one pool, driven by one
//! thread, optionally under eviction chaos. Every boundary of the
//! workload is a crash window; the plain oracle
//! ([`crate::verify_recovered`]) judges the recovered index.

use std::sync::Arc;

use engine::Shard;
use pmem::{MediaError, PmConfig, PmPool};

use crate::{
    apply_until_cut, fresh_shards, try_recover_shard, verify_recovered, workload, Acked, Counters,
    Scenario, SweepOptions,
};

/// Counter names of each op kind's probe footprint, in `OpKind` order:
/// how many ran, and the persistence events (crash windows) they
/// generated.
const FOOTPRINT_COUNTERS: [(&str, &str); 5] = [
    ("lookup ops", "lookup events"),
    ("insert ops", "insert events"),
    ("update ops", "update events"),
    ("remove ops", "remove events"),
    ("scan ops", "scan events"),
];

/// One index, one pool, one thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Single {
    /// Eviction-chaos seed overlay (`None` = off): unflushed lines
    /// sometimes persist anyway while the workload runs.
    pub chaos_seed: Option<u64>,
}

/// Recover the only pool's stack and hold it to the plain oracle.
pub(crate) fn check_one_pool(
    opts: &SweepOptions,
    pools: &[Arc<PmPool>],
    acked: &Acked,
) -> Result<Result<(), String>, MediaError> {
    let idx = try_recover_shard(&opts.kind, pools[0].clone())?.index;
    Ok(verify_recovered(&*idx, &acked.model, &acked.inflight))
}

impl Scenario for Single {
    type Env = Shard;

    fn build(&self, opts: &SweepOptions) -> (Shard, Vec<Arc<PmPool>>) {
        let cfg = match self.chaos_seed {
            Some(s) => PmConfig::real().with_eviction_chaos(s),
            None => PmConfig::real(),
        };
        let shard = fresh_shards(opts, 1, cfg).remove(0);
        let pools = shard.pool.iter().cloned().collect();
        (shard, pools)
    }

    fn drive(&self, env: &mut Shard, opts: &SweepOptions, counters: &mut Counters) -> Acked {
        let ops = workload(opts.seed, opts.ops, opts.key_range);
        let mut acked = Acked::default();
        let pool = env.pool.as_ref().expect("a PM shard");
        if pool.crash_events_remaining() > 0 {
            apply_until_cut(&*env.index, &ops, &mut acked);
            return acked;
        }
        // The unarmed probe run also records the event footprint per
        // op type: how many crash windows each kind of op exposes.
        let mut last = pool.persist_event_count();
        for op in &ops {
            apply_until_cut(&*env.index, std::slice::from_ref(op), &mut acked);
            let now = pool.persist_event_count();
            let (count, events) = FOOTPRINT_COUNTERS[op.kind() as usize];
            *counters.entry(count).or_default() += 1;
            *counters.entry(events).or_default() += now - last;
            last = now;
        }
        acked
    }

    fn check(
        &self,
        opts: &SweepOptions,
        pools: &[Arc<PmPool>],
        _armed: usize,
        acked: &Acked,
        _counters: &mut Counters,
    ) -> Result<Result<(), String>, MediaError> {
        check_one_pool(opts, pools, acked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sweep, PM_KINDS};

    #[test]
    fn smoke_sweep_is_green_for_every_kind() {
        // A bounded sweep (strided) across all five indexes; the full
        // boundary-by-boundary matrix lives in the integration tests
        // and the CLI.
        for kind in PM_KINDS {
            let opts = SweepOptions {
                kind: kind.to_string(),
                ops: 40,
                key_range: 24,
                pool_mib: 16,
                stride: 7,
                ..SweepOptions::default()
            };
            let summary = sweep(&Single::default(), &opts);
            assert!(summary.probe_events[0] > 0);
            assert!(summary.boundaries_tested > 0);
            assert!(
                summary.is_green(),
                "{kind}: {} oracle violations, first: {:?}",
                summary.failures.len(),
                summary.failures.first()
            );
            assert!(summary.crashes_fired > 0, "{kind}: injection never fired");
        }
    }
}
