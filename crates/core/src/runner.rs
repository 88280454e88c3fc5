//! The multi-threaded benchmark runner: prefill + measured phase.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use index_api::{Outcome, RangeIndex, OP_KINDS};
use pmem::{PmPool, PmStatsSnapshot};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::dist::Distribution;
use crate::hist::LatencyHistogram;
use crate::keys::KeySpace;
use crate::workload::{OpMix, OpStream};

/// One in `2^LATENCY_SAMPLE_SHIFT` operations is timed for latency (the
/// paper samples 10%; 3 ⇒ 12.5%).
const LATENCY_SAMPLE_SHIFT: u32 = 3;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Worker threads.
    pub threads: usize,
    /// Records to prefill before measuring.
    pub records: u64,
    /// Measured phase length: operations per thread.
    pub ops_per_thread: u64,
    /// Operation mix.
    pub mix: OpMix,
    /// Access distribution for existing-key operations.
    pub distribution: Distribution,
    /// Records per scan.
    pub scan_len: usize,
    /// RNG seed (per-thread streams derive from it).
    pub seed: u64,
    /// Lookups target absent keys (fingerprint experiment E9).
    pub negative_lookups: bool,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            threads: 1,
            records: 100_000,
            ops_per_thread: 100_000,
            mix: OpMix::pure(crate::OpKind::Lookup),
            distribution: Distribution::Uniform,
            scan_len: 100,
            seed: 0x5EED,
            negative_lookups: false,
        }
    }
}

/// Result of one measured run.
pub struct RunResult {
    /// Wall time of the measured phase.
    pub elapsed: Duration,
    /// Completed operations by kind (indexed by `OpKind as usize`).
    pub ops: [u64; 5],
    /// Operations whose boolean/option result was "miss" (not an error:
    /// e.g. removes of absent keys under skew).
    pub misses: u64,
    /// Sampled latency histograms by kind.
    pub latency: [LatencyHistogram; 5],
    /// PM counter delta over the measured phase (zeros if no pool was
    /// supplied).
    pub pm: PmStatsSnapshot,
}

impl RunResult {
    /// Total completed operations.
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Overall throughput in operations per second.
    pub fn mops(&self) -> f64 {
        self.total_ops() as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// PM read bandwidth during the run (GiB/s, media traffic).
    pub fn pm_read_gibps(&self) -> f64 {
        self.pm.media_read_bytes as f64 / self.elapsed.as_secs_f64() / (1u64 << 30) as f64
    }

    /// PM write bandwidth during the run (GiB/s, media traffic).
    pub fn pm_write_gibps(&self) -> f64 {
        self.pm.media_write_bytes as f64 / self.elapsed.as_secs_f64() / (1u64 << 30) as f64
    }

    /// Media bytes read per completed operation.
    pub fn pm_read_bytes_per_op(&self) -> f64 {
        self.pm.media_read_bytes as f64 / self.total_ops().max(1) as f64
    }

    /// Media bytes written per completed operation.
    pub fn pm_write_bytes_per_op(&self) -> f64 {
        self.pm.media_write_bytes as f64 / self.total_ops().max(1) as f64
    }
}

/// Prefill `records` keys with `threads` workers. Returns the load time.
pub fn prefill(index: &dyn RangeIndex, keyspace: &KeySpace, threads: usize) -> Duration {
    assert!(threads >= 1, "prefill needs a worker");
    let n = keyspace.prefilled();
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let index = &index;
            s.spawn(move || {
                let mut i = t;
                while i < n {
                    let k = keyspace.key(i);
                    // Checked in release builds too: a collision would
                    // silently measure a smaller table.
                    let inserted = index.insert(k, keyspace.value_for(k));
                    assert!(inserted, "prefill key collision at {i}");
                    i += threads as u64;
                }
            });
        }
    });
    start.elapsed()
}

/// Run the measured phase described by `cfg` against `index`.
///
/// The index must already be prefilled with `keyspace` (see
/// [`prefill`]). `pools` holds the index's backing pools — one for a
/// single-pool index, one per shard for a sharded one, empty for DRAM.
/// Every pool's counters are reset at the start and the counter-wise
/// sum of the deltas is reported in the result, so amplification and
/// bandwidth figures aggregate transparently across shards.
pub fn run(
    index: &dyn RangeIndex,
    keyspace: &KeySpace,
    pools: &[Arc<PmPool>],
    cfg: &BenchConfig,
) -> RunResult {
    cfg.mix.validate();
    let sampler = cfg.distribution.sampler(keyspace.prefilled());
    let misses = AtomicU64::new(0);
    let sample_mask = (1u64 << LATENCY_SAMPLE_SHIFT) - 1;

    for p in pools {
        p.reset_stats();
    }
    let start = Instant::now();

    struct ThreadOut {
        ops: [u64; 5],
        hist: [LatencyHistogram; 5],
    }

    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cfg.threads);
        for t in 0..cfg.threads {
            let index = &index;
            let misses = &misses;
            let stream = OpStream::new(cfg.mix, sampler, keyspace, cfg.scan_len)
                .with_negative_lookups(cfg.negative_lookups);
            let seed = cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            handles.push(s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut out = ThreadOut {
                    ops: [0; 5],
                    hist: std::array::from_fn(|_| LatencyHistogram::new()),
                };
                let mut scan_buf: Vec<(u64, u64)> = Vec::with_capacity(256);
                let mut local_misses = 0u64;
                for seq in 0..cfg.ops_per_thread {
                    let op = stream.next_op(&mut rng);
                    let kind = op.kind() as usize;
                    let sampled = seq & sample_mask == 0;
                    let t0 = if sampled { Some(Instant::now()) } else { None };
                    let outcome = op.apply(*index, &mut scan_buf);
                    if let Some(t0) = t0 {
                        let dur = t0.elapsed().as_nanos() as u64;
                        out.hist[kind].record(dur);
                        obs::op_complete(kind as u8, dur);
                    }
                    obs::count_op();
                    out.ops[kind] += 1;
                    if !outcome.hit() {
                        local_misses += 1;
                    }
                    if let Outcome::Rows(rows) = outcome {
                        scan_buf = rows;
                    }
                }
                misses.fetch_add(local_misses, Ordering::Relaxed);
                out
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let elapsed = start.elapsed();
    let pm = crate::trace::pool_counters(pools);

    let mut ops = [0u64; 5];
    let mut latency: [LatencyHistogram; 5] = std::array::from_fn(|_| LatencyHistogram::new());
    for o in &outs {
        for k in OP_KINDS {
            ops[k as usize] += o.ops[k as usize];
            latency[k as usize].merge(&o.hist[k as usize]);
        }
    }
    RunResult {
        elapsed,
        ops,
        misses: misses.load(Ordering::Relaxed),
        latency,
        pm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OpKind;
    use index_api::testing::MapIndex;

    #[test]
    fn prefill_then_lookups_all_hit() {
        let idx = MapIndex::new();
        let ks = KeySpace::new(10_000);
        prefill(&idx, &ks, 4);
        let cfg = BenchConfig {
            threads: 4,
            records: 10_000,
            ops_per_thread: 5_000,
            mix: OpMix::pure(OpKind::Lookup),
            ..Default::default()
        };
        let r = run(&idx, &ks, &[], &cfg);
        assert_eq!(r.total_ops(), 20_000);
        assert_eq!(r.misses, 0, "every prefilled key must be found");
        assert!(r.ops[OpKind::Lookup as usize] == 20_000);
        assert!(!r.latency[OpKind::Lookup as usize].is_empty());
        assert!(r.mops() > 0.0);
    }

    #[test]
    fn insert_phase_has_no_collisions() {
        let idx = MapIndex::new();
        let ks = KeySpace::new(1_000);
        prefill(&idx, &ks, 2);
        let cfg = BenchConfig {
            threads: 4,
            records: 1_000,
            ops_per_thread: 2_000,
            mix: OpMix::pure(OpKind::Insert),
            ..Default::default()
        };
        let r = run(&idx, &ks, &[], &cfg);
        assert_eq!(r.misses, 0, "insert keys must be fresh");
        assert_eq!(idx.len(), 1_000 + 8_000);
    }

    #[test]
    fn mixed_workload_counts_by_kind() {
        let idx = MapIndex::new();
        let ks = KeySpace::new(5_000);
        prefill(&idx, &ks, 2);
        let cfg = BenchConfig {
            threads: 2,
            records: 5_000,
            ops_per_thread: 10_000,
            mix: OpMix::read_insert(90),
            ..Default::default()
        };
        let r = run(&idx, &ks, &[], &cfg);
        let lookups = r.ops[OpKind::Lookup as usize];
        let inserts = r.ops[OpKind::Insert as usize];
        assert_eq!(lookups + inserts, 20_000);
        assert!(
            (0.85..=0.95).contains(&(lookups as f64 / 20_000.0)),
            "lookup share {lookups}"
        );
    }
}
