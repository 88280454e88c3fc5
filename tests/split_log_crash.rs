//! FPTree splits on a split log other than log 0, cut at every
//! persistence boundary. A helper thread splits a leaf first, claiming
//! log 0, so every split the workload thread makes writes log 1 (slots
//! 64–67). Each cut must recover to the model, and the recovered tree
//! must then split again without losing a record: a new leaf that
//! reused a block recovery freed while the leaf chain still ran through
//! it would cut the chain.

use std::sync::Arc;

use pm_index_bench::crashpoint::{
    apply_until_cut, fresh_shards, sweep, try_recover_shard, verify_recovered, workload, Acked,
    Counters, ResidualConfig, Scenario, SweepOptions,
};
use pm_index_bench::engine::Shard;
use pm_index_bench::index_api::Op;
use pm_index_bench::pmem::{MediaError, PmConfig, PmPool};

/// The helper's records, above every workload key: one more than a
/// small-shape leaf holds (16), so the helper splits once.
const HELPER_KEYS: std::ops::Range<u64> = 1 << 40..(1 << 40) + 17;
/// Records inserted into each recovered tree, below the helper's keys
/// and above the workload's: enough to split the rightmost leaf of the
/// workload's range several times.
const REFILL_KEYS: std::ops::Range<u64> = 1 << 32..(1 << 32) + 64;
/// Log 1's leaf-being-split and separator words (slots 64 and 66).
const LOG1_OLD: u64 = 64 * 8;
const LOG1_KEY: u64 = 66 * 8;

/// One small-shape FPTree whose log 0 a finished helper thread holds.
struct OnLogOne;

impl Scenario for OnLogOne {
    type Env = Shard;

    fn build(&self, opts: &SweepOptions) -> (Shard, Vec<Arc<PmPool>>) {
        let shard = fresh_shards(opts, 1, PmConfig::real()).remove(0);
        let idx = &*shard.index;
        std::thread::scope(|s| {
            s.spawn(|| HELPER_KEYS.for_each(|k| assert!(idx.insert(k, k))));
        });
        let pools = shard.pool.iter().cloned().collect();
        (shard, pools)
    }

    fn drive(&self, env: &mut Shard, opts: &SweepOptions, counters: &mut Counters) -> Acked {
        let mut acked = Acked::default();
        HELPER_KEYS.for_each(|k| {
            acked.model.apply(Op::Insert(k, k));
        });
        let ops = workload(opts.seed, opts.ops, opts.key_range);
        let pool = env.pool.clone().expect("a PM shard");
        if pool.crash_events_remaining() > 0 {
            apply_until_cut(&*env.index, &ops, &mut acked);
            return acked;
        }
        // The unarmed probe counts the splits that wrote log 1: each
        // names another (leaf, separator) pair.
        let log1 = || (pool.read_u64(LOG1_OLD), pool.read_u64(LOG1_KEY));
        let mut last = log1();
        for op in &ops {
            apply_until_cut(&*env.index, std::slice::from_ref(op), &mut acked);
            if log1() != last {
                *counters.entry("log 1 splits").or_default() += 1;
                last = log1();
            }
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
        let idx = try_recover_shard(&opts.kind, pools[0].clone())?.index;
        if let Err(e) = verify_recovered(&*idx, &acked.model, &acked.inflight) {
            return Ok(Err(e));
        }
        let mut model = acked.model.clone();
        for k in REFILL_KEYS {
            if !idx.insert(k, k) {
                return Ok(Err(format!("recovered tree rejected refill key {k}")));
            }
            model.apply(Op::Insert(k, k));
        }
        Ok(verify_recovered(&*idx, &model, &acked.inflight)
            .map_err(|e| format!("after splitting the recovered tree: {e}")))
    }
}

fn sweep_log_one(residual: ResidualConfig, stride: u64) {
    let opts = SweepOptions {
        kind: "fptree".to_string(),
        ops: 160,
        key_range: 256,
        seed: 11,
        pool_mib: 16,
        stride,
        residual,
        ..SweepOptions::default()
    };
    let summary = sweep(&OnLogOne, &opts);
    let splits = summary.counter("log 1 splits");
    assert!(splits >= 5, "only {splits} splits ran on log 1");
    assert_eq!(summary.crashes_fired, summary.boundaries_tested);
    assert!(
        summary.is_green(),
        "{} violations, first: {:?}",
        summary.failures.len(),
        summary.failures.first()
    );
}

#[test]
fn every_boundary_of_splits_on_log_one_recovers() {
    sweep_log_one(ResidualConfig::Frozen, 1);
}

#[test]
fn torn_images_of_splits_on_log_one_recover() {
    let residual = ResidualConfig::Sampled {
        samples: 2,
        p_per_256: 128,
    };
    sweep_log_one(residual, 3);
}
