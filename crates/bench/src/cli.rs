//! Experiment scale configuration from `e00_run_all`'s flags.

use pibench::cli::{Arg, Flags, Spec};
use pibench::{BenchConfig, Distribution, OpMix};

/// Scale knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    /// Records prefilled per index.
    pub records: u64,
    /// Operations per data point (split across threads).
    pub ops_per_point: u64,
    /// Largest thread count in sweeps.
    pub max_threads: usize,
    /// Shards per index (1 = classic single-pool build; >1 routes every
    /// build through the range-partitioned [`engine::ShardedIndex`]).
    pub shards: usize,
}

/// The flags of `e00_run_all`: the one way to set an experiment's
/// scale.
pub const FLAGS: Spec<'static> = &[
    ("--records", Arg::Int(1)),
    ("--ops", Arg::Int(1)),
    ("--threads", Arg::Int(1)),
    ("--shards", Arg::Int(1)),
    ("--only", Arg::Text),
];

impl ExpCtx {
    /// Scale from [`FLAGS`]: 300 000 records, as many ops per point, up
    /// to min(8, cores) threads, one shard.
    pub fn from_flags(f: &Flags) -> ExpCtx {
        let records = f.int("--records").unwrap_or(300_000);
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        ExpCtx {
            records,
            ops_per_point: f.int("--ops").unwrap_or(records),
            max_threads: f.int("--threads").map_or(cores.min(8), |t| t as usize),
            shards: f.int("--shards").unwrap_or(1) as usize,
        }
    }

    /// Thread sweep: 1, 2, 4, … up to `max_threads` (inclusive).
    pub fn thread_ladder(&self) -> Vec<usize> {
        let mut v = Vec::new();
        let mut t = 1;
        while t < self.max_threads {
            v.push(t);
            t *= 2;
        }
        v.push(self.max_threads);
        v.dedup();
        v
    }

    /// The mid-scale thread count used where the paper reports "20
    /// threads" (half the machine).
    pub fn mid_threads(&self) -> usize {
        (self.max_threads / 2).max(1)
    }

    /// A bench config for one data point.
    pub fn point(&self, threads: usize, mix: OpMix, dist: Distribution) -> BenchConfig {
        BenchConfig {
            threads,
            records: self.records,
            ops_per_thread: (self.ops_per_point / threads as u64).max(1),
            mix,
            distribution: dist,
            scan_len: 100,
            seed: 0x5EED,
            negative_lookups: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_increasing_and_capped() {
        let ctx = ExpCtx {
            records: 1000,
            ops_per_point: 1000,
            max_threads: 6,
            shards: 1,
        };
        assert_eq!(ctx.thread_ladder(), vec![1, 2, 4, 6]);
        let ctx2 = ExpCtx {
            max_threads: 8,
            ..ctx.clone()
        };
        assert_eq!(ctx2.thread_ladder(), vec![1, 2, 4, 8]);
        let ctx1 = ExpCtx {
            max_threads: 1,
            ..ctx
        };
        assert_eq!(ctx1.thread_ladder(), vec![1]);
        assert_eq!(ctx1.mid_threads(), 1);
    }

    #[test]
    fn point_splits_ops_across_threads() {
        let ctx = ExpCtx {
            records: 10_000,
            ops_per_point: 10_000,
            max_threads: 4,
            shards: 1,
        };
        let cfg = ctx.point(
            4,
            OpMix::pure(pibench::OpKind::Lookup),
            Distribution::Uniform,
        );
        assert_eq!(cfg.ops_per_thread, 2_500);
        assert_eq!(cfg.threads, 4);
    }
}
