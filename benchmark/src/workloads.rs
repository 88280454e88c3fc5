//! The four workloads and their end-to-end metrics (tracing off).
//!
//! Every workload: set up `setups` times (build + prefill + first
//! inputs; the median is `setup_s`), run one unmeasured warm-up
//! segment, then timed segments of a **fixed op count** until
//! `--seconds` have passed (at least `min_segments`). A percentile is
//! read per segment off the raw samples; the reported value is the
//! median over segments. Afterwards the server (if any) is drained,
//! every pool power-cycled, the stack recovered, and its contents
//! compared with the model of acknowledged ops.

use std::sync::Arc;
use std::time::Instant;

use index_api::RangeIndex;
use pibench::dist::Distribution;
use pmem::PmConfig;

use crate::exec::{run_local, run_local_threads, run_served, Pace, SegmentRun};
use crate::gen::{arrivals, expected_contents, Generator, Segment};
use crate::report::{Metric, Report};
use crate::stack::{contents, diff_count, prefill, Lossy, Served, Stack, KINDS};
use crate::stats::{combine, percentile, percentile_sorted, summarize, Summary};
use pibench::workload::OpMix;

/// Workload names, as in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = [
    "kinds-local",
    "local-uniform-rw",
    "serve-uniform-rw",
    "serve-storm-open",
];

/// `kinds-local`: the paper's mixed workload.
pub const KINDS_MIX: OpMix = OpMix {
    lookup: 50,
    insert: 15,
    update: 15,
    remove: 15,
    scan: 5,
};
/// `local-uniform-rw` and `serve-uniform-rw`.
pub const RW_MIX: OpMix = OpMix {
    lookup: 50,
    insert: 15,
    update: 20,
    remove: 15,
    scan: 0,
};
/// `serve-storm-open`.
pub const STORM_MIX: OpMix = OpMix {
    lookup: 95,
    insert: 0,
    update: 5,
    remove: 0,
    scan: 0,
};
/// Records per scan.
pub const SCAN_LEN: usize = 50;
/// Closed-loop requests in flight on the one connection.
pub const WINDOW: usize = 16;
/// The storm's low fixed rate (the worker's idle path), requests/s.
pub const RATE_LOW: f64 = 20_000.0;
/// The storm's high fixed rate (the worker's busy path), requests/s.
pub const RATE_HIGH: f64 = 300_000.0;
/// Index kind under the three stack workloads.
pub const STACK_KIND: &str = "fptree";
/// Shards (pools) of the three stack workloads.
pub const SHARDS: usize = 2;

/// Input sizes: the reference ones, or toy ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Prefilled records per kind in `kinds-local`.
    pub kind_records: u64,
    /// Prefilled records of the 2-shard stack.
    pub stack_records: u64,
    /// Ops per `kinds-local` segment.
    pub kind_seg_ops: usize,
    /// Ops per thread per `local-uniform-rw` segment.
    pub local_seg_ops: usize,
    /// Ops per closed-loop served segment.
    pub serve_seg_ops: usize,
    /// Requests per open-loop segment at [`RATE_LOW`].
    pub open_low_seg_ops: usize,
    /// Requests per open-loop segment at [`RATE_HIGH`].
    pub open_high_seg_ops: usize,
    /// Hot-window size of the storm (fits the cache).
    pub storm_hot: u64,
    /// Timed segments every phase runs at least.
    pub min_segments: usize,
    /// Times the set-up is repeated.
    pub setups: usize,
    /// Per-layer run: iterations of a primitive or isolation loop.
    pub prim_ops: usize,
    /// Per-layer run: ops of one single-class phase segment (a tenth
    /// for scans).
    pub phase_ops: usize,
    /// Per-layer run: segments per phase.
    pub phase_reps: usize,
}

impl Sizes {
    /// The sizes every reported number is for.
    pub const fn full() -> Sizes {
        Sizes {
            kind_records: 100_000,
            stack_records: 400_000,
            kind_seg_ops: 50_000,
            local_seg_ops: 100_000,
            serve_seg_ops: 60_000,
            open_low_seg_ops: 10_000,
            open_high_seg_ops: 150_000,
            storm_hot: 4_000,
            min_segments: 3,
            setups: 3,
            prim_ops: 100_000,
            phase_ops: 10_000,
            phase_reps: 3,
        }
    }

    /// 2 000 records, one short segment: finishes in seconds.
    pub const fn toy() -> Sizes {
        Sizes {
            kind_records: 2_000,
            stack_records: 2_000,
            kind_seg_ops: 2_000,
            local_seg_ops: 2_000,
            serve_seg_ops: 2_000,
            open_low_seg_ops: 1_000,
            open_high_seg_ops: 2_000,
            storm_hot: 100,
            min_segments: 1,
            setups: 1,
            prim_ops: 2_000,
            phase_ops: 500,
            phase_reps: 1,
        }
    }
}

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Timed-segment budget, seconds.
    pub seconds: f64,
    /// Input sizes.
    pub sizes: Sizes,
    /// Put [`Lossy`] above the index (smoke test only).
    pub lossy: bool,
}

impl Options {
    /// The storm's key distribution: 90 % of ops on the hot window.
    pub fn storm(&self) -> Distribution {
        Distribution::HotStorm {
            hot: self.sizes.storm_hot,
            frac: 0.9,
        }
    }
}

/// Per-segment values of one phase's numbers.
#[derive(Debug, Default, Clone)]
pub struct Series {
    /// Mops/s.
    pub mops: Vec<f64>,
    /// Lookup p50, p95, p99 then insert/update/remove p50, p95, p99, µs.
    pub lat: [Vec<f64>; 6],
    /// Ops issued.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// What the first failure was.
    pub first_failure: Option<String>,
}

impl Series {
    /// Folds one segment in.
    pub fn add(&mut self, run: &mut SegmentRun) {
        self.add_unmeasured(run);
        self.mops.push(run.mops());
        run.samples.read.sort_unstable();
        run.samples.write.sort_unstable();
        for (i, p) in [50.0, 95.0, 99.0].into_iter().enumerate() {
            self.lat[i].push(percentile_sorted(&run.samples.read, p) / 1e3);
            self.lat[3 + i].push(percentile_sorted(&run.samples.write, p) / 1e3);
        }
    }

    /// Counts only (warm-up segments are checked but not measured).
    pub fn add_unmeasured(&mut self, run: &SegmentRun) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(&run.first_failure);
        }
    }

    fn failure_note(&self) -> Option<String> {
        self.first_failure
            .as_ref()
            .map(|f| format!("# first failure: {f}"))
    }

    /// The gated latencies: read p50, read p95, write p50, write p95.
    fn latencies(&self) -> [Summary; 4] {
        [0, 1, 3, 4].map(|i| summarize(&self.lat[i]))
    }

    /// The p99s, reported but not gated (too unsteady on a shared box).
    fn p99_note(&self, what: &str) -> String {
        let (r, w) = (summarize(&self.lat[2]), summarize(&self.lat[5]));
        format!(
            "# {what}: read p99 {:.3} us (q1 {:.3} q3 {:.3}), write p99 {:.3} us (q1 {:.3} q3 {:.3}), n {}",
            r.median, r.q1, r.q3, w.median, w.q1, w.q3, r.n
        )
    }
}

/// Runs `one(i)` for i = 0, 1, … until `budget_s` is used, and at least
/// `min` times.
fn timed_segments(budget_s: f64, min: usize, mut one: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < budget_s {
        one(i);
        i += 1;
    }
}

fn e2e(
    setup_s: &[f64],
    mops: &Summary,
    [rp50, rp95, wp50, wp95]: &[Summary; 4],
    pm_b_per_user_b: f64,
) -> Vec<Metric> {
    vec![
        Metric::of("setup_s", "s", &summarize(setup_s)),
        Metric::of("throughput_mops", "Mops/s", mops),
        Metric::of("read_p50_us", "us", rp50),
        Metric::of("read_p95_us", "us", rp95),
        Metric::of("write_p50_us", "us", wp50),
        Metric::of("write_p95_us", "us", wp95),
        Metric::exact("pm_b_per_user_b", "B/B", pm_b_per_user_b),
    ]
}

/// PM bytes allocated per byte of live user data (16 B records).
fn space_ratio(stack: &Stack, gens: &[Generator]) -> f64 {
    let live: usize = gens.iter().map(|g| g.live().len()).sum();
    stack.pm_bytes() as f64 / (live as f64 * 16.0)
}

/// Power-cycles `stack` and compares what comes back with the model.
/// Returns `(records checked, records that differ, recovery time)`.
pub fn power_cycle_check(stack: Stack, gens: &[Generator]) -> (u64, u64, std::time::Duration) {
    let want = expected_contents(gens);
    let (stack, took) = stack.crash_and_recover();
    let got = contents(&*stack.index());
    (want.len() as u64, diff_count(&got, &want), took)
}

fn maybe_lossy(idx: Arc<dyn RangeIndex>, lossy: bool) -> Arc<dyn RangeIndex> {
    if lossy {
        Lossy::wrap(idx)
    } else {
        idx
    }
}

/// One kind's stack, prefilled, with its generator and first segment.
pub fn setup_kind(
    kind: &'static str,
    o: &Options,
    pm: PmConfig,
    traced: bool,
) -> (Stack, Generator, Segment) {
    let mut gen = Generator::new(
        o.seed,
        o.sizes.kind_records,
        0,
        1,
        Distribution::Uniform,
        KINDS_MIX,
        SCAN_LEN,
    );
    let stack = Stack::build(kind, 1, o.sizes.kind_records, pm, traced);
    prefill(&*stack.kind_index(), gen.live(), 1);
    let first = gen.segment(o.sizes.kind_seg_ops);
    (stack, gen, first)
}

/// `kinds-local`: each kind in turn, alone on one pool, one client
/// thread, mixed ops with scans.
pub fn kinds_local(o: &Options) -> Report {
    let mut setup_s = vec![0.0; o.sizes.setups];
    let (mut attempted, mut failed) = (0, 0);
    let (mut mops, mut lat) = (Vec::new(), Vec::new());
    let mut ratios = Vec::new();
    let mut notes = Vec::new();
    for kind in KINDS {
        let ((stack, mut gen, first), times) = repeat_setup(o.sizes.setups, || {
            setup_kind(kind, o, PmConfig::optane_like(), false)
        });
        // Set-up number i is the five kinds' i-th set-ups together.
        setup_s.iter_mut().zip(times).for_each(|(s, t)| *s += t);
        let idx = maybe_lossy(stack.kind_index(), o.lossy);
        let mut series = Series::default();
        series.add_unmeasured(&run_local(&*idx, &first, SCAN_LEN, None));
        timed_segments(o.seconds / KINDS.len() as f64, o.sizes.min_segments, |i| {
            let seg = gen.segment(o.sizes.kind_seg_ops);
            series.add(&mut run_local(&*idx, &seg, SCAN_LEN, None));
            if i + 1 == o.sizes.min_segments {
                ratios.push(space_ratio(&stack, std::slice::from_ref(&gen)));
            }
        });
        drop(idx);
        let (checked, differ, _) = power_cycle_check(stack, std::slice::from_ref(&gen));
        attempted += series.attempted + checked;
        failed += series.failed + differ;
        let kind_mops = summarize(&series.mops);
        notes.push(format!(
            "kind_mops.{kind} {} Mops/s    # q1 {:.4} q3 {:.4} n {}, {differ} of {checked} records differ after the power cycle",
            kind_mops.median, kind_mops.q1, kind_mops.q3, kind_mops.n
        ));
        notes.push(series.p99_note(kind));
        notes.extend(series.failure_note());
        mops.push(kind_mops);
        lat.push(series.latencies());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    // The stream through all five kinds in turn: ops over summed time.
    let harmonic = |v: &[f64]| v.len() as f64 / v.iter().map(|m| 1.0 / m).sum::<f64>();
    // Latency of an op on a kind picked at random: the kinds' mean.
    let lat: [Summary; 4] =
        std::array::from_fn(|j| combine(&lat.iter().map(|l| l[j]).collect::<Vec<_>>(), mean));
    Report {
        workload: WORKLOADS[0],
        attempted,
        failed,
        metrics: e2e(&setup_s, &combine(&mops, harmonic), &lat, mean(&ratios)),
        notes,
    }
}

/// The 2-shard stack, prefilled, with one generator per
/// client and each client's first segment.
pub fn setup_stack(
    o: &Options,
    clients: u64,
    dist: Distribution,
    mix: OpMix,
    seg_ops: usize,
    traced: bool,
) -> (Stack, Vec<Generator>, Vec<Segment>) {
    let mut gens: Vec<Generator> = (0..clients)
        .map(|c| Generator::new(o.seed, o.sizes.stack_records, c, clients, dist, mix, 0))
        .collect();
    let stack = Stack::build(
        STACK_KIND,
        SHARDS,
        o.sizes.stack_records,
        PmConfig::optane_like(),
        traced,
    );
    let records: Vec<(u64, u64)> = gens.iter().flat_map(|g| g.live().iter().copied()).collect();
    prefill(&*stack.index(), &records, 2);
    let first = gens.iter_mut().map(|g| g.segment(seg_ops)).collect();
    (stack, gens, first)
}

fn repeat_setup<T>(setups: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(setups);
    let mut built = None;
    for _ in 0..setups {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (built.expect("at least one set-up"), times)
}

/// `local-uniform-rw`: the in-process PM stack, two threads, no cache,
/// no network.
pub fn local_uniform_rw(o: &Options) -> Report {
    let ((stack, mut gens, first), setup_s) = repeat_setup(o.sizes.setups, || {
        setup_stack(
            o,
            2,
            Distribution::Uniform,
            RW_MIX,
            o.sizes.local_seg_ops,
            false,
        )
    });
    let idx = maybe_lossy(stack.index(), o.lossy);
    let mut series = Series::default();
    series.add_unmeasured(&run_local_threads(&*idx, &first, 0, false));
    let mut ratio = 0.0;
    timed_segments(o.seconds, o.sizes.min_segments, |i| {
        let segs: Vec<Segment> = gens
            .iter_mut()
            .map(|g| g.segment(o.sizes.local_seg_ops))
            .collect();
        series.add(&mut run_local_threads(&*idx, &segs, 0, false));
        if i + 1 == o.sizes.min_segments {
            ratio = space_ratio(&stack, &gens);
        }
    });
    drop(idx);
    let (checked, differ, _) = power_cycle_check(stack, &gens);
    Report {
        workload: WORKLOADS[1],
        attempted: series.attempted + checked,
        failed: series.failed + differ,
        metrics: e2e(
            &setup_s,
            &summarize(&series.mops),
            &series.latencies(),
            ratio,
        ),
        notes: [
            series.p99_note("closed loop"),
            format!("# {differ} of {checked} records differ after the power cycle"),
        ]
        .into_iter()
        .chain(series.failure_note())
        .collect(),
    }
}

/// The served stack: server (1 worker) → cache → 2-shard stack, one
/// connection.
pub fn setup_served(
    o: &Options,
    dist: Distribution,
    mix: OpMix,
    traced: bool,
) -> (Stack, Served, Generator, Segment) {
    let (stack, mut gens, mut first) = setup_stack(o, 1, dist, mix, o.sizes.serve_seg_ops, traced);
    let served = Served::start(
        maybe_lossy(stack.index(), o.lossy),
        stack.env.pools.clone(),
        traced,
    );
    (stack, served, gens.remove(0), first.remove(0))
}

/// `serve-uniform-rw`: the same ops as `local-uniform-rw` through the
/// serving path; the working set is ~25× the cache.
pub fn serve_uniform_rw(o: &Options) -> Report {
    let ((stack, mut served, mut gen, first), setup_s) = repeat_setup(o.sizes.setups, || {
        setup_served(o, Distribution::Uniform, RW_MIX, false)
    });
    let pace = Pace::Closed { window: WINDOW };
    let mut series = Series::default();
    series.add_unmeasured(&run_served(&mut served.conn, &first, 0, &pace, false).0);
    let mut ratio = 0.0;
    timed_segments(o.seconds, o.sizes.min_segments, |i| {
        let seg = gen.segment(o.sizes.serve_seg_ops);
        series.add(&mut run_served(&mut served.conn, &seg, 0, &pace, false).0);
        if i + 1 == o.sizes.min_segments {
            ratio = space_ratio(&stack, std::slice::from_ref(&gen));
        }
    });
    served.drain();
    let (checked, differ, _) = power_cycle_check(stack, std::slice::from_ref(&gen));
    Report {
        workload: WORKLOADS[2],
        attempted: series.attempted + checked,
        failed: series.failed + differ,
        metrics: e2e(
            &setup_s,
            &summarize(&series.mops),
            &series.latencies(),
            ratio,
        ),
        notes: [
            series.p99_note("closed loop"),
            format!("# {differ} of {checked} records differ after the power cycle"),
        ]
        .into_iter()
        .chain(series.failure_note())
        .collect(),
    }
}

/// Share of the storm's budget spent in the open loop at [`RATE_LOW`];
/// the rest measures closed-loop capacity.
const STORM_OPEN_SHARE: f64 = 0.6;

/// `serve-storm-open`: hot-set traffic the cache absorbs. Latencies are
/// open-loop at [`RATE_LOW`], timed from the intended send instant;
/// `throughput_mops` is the closed-loop capacity on the same traffic.
pub fn serve_storm_open(o: &Options) -> Report {
    let ((stack, mut served, mut gen, first), setup_s) = repeat_setup(o.sizes.setups, || {
        setup_served(o, o.storm(), STORM_MIX, false)
    });
    let closed = Pace::Closed { window: WINDOW };
    let mut open = Series::default();
    // Fills the cache with the hot set.
    open.add_unmeasured(&run_served(&mut served.conn, &first, 0, &closed, false).0);
    let mut late = Vec::new();
    timed_segments(o.seconds * STORM_OPEN_SHARE, o.sizes.min_segments, |i| {
        let seg = gen.segment(o.sizes.open_low_seg_ops);
        let due = arrivals(o.seed.wrapping_add(i as u64), RATE_LOW, seg.ops.len());
        let (mut run, mut stats) = run_served(
            &mut served.conn,
            &seg,
            0,
            &Pace::Open { arrivals: &due },
            false,
        );
        open.add(&mut run);
        late.push(percentile(&mut stats.late_ns, 99.0) / 1e3);
    });
    let mut capacity = Series::default();
    timed_segments(
        o.seconds * (1.0 - STORM_OPEN_SHARE),
        o.sizes.min_segments,
        |_| {
            let seg = gen.segment(o.sizes.serve_seg_ops);
            capacity.add(&mut run_served(&mut served.conn, &seg, 0, &closed, false).0);
        },
    );
    let ratio = space_ratio(&stack, std::slice::from_ref(&gen));
    let hit_rate = served.cached.counters().hit_rate();
    served.drain();
    let (checked, differ, _) = power_cycle_check(stack, std::slice::from_ref(&gen));
    let late = summarize(&late);
    Report {
        workload: WORKLOADS[3],
        attempted: open.attempted + capacity.attempted + checked,
        failed: open.failed + capacity.failed + differ,
        metrics: e2e(&setup_s, &summarize(&capacity.mops), &open.latencies(), ratio),
        notes: [
            format!("# open loop at {RATE_LOW}/s: generator lateness p99 {:.3} us (max {:.3}), cache hit rate {hit_rate:.4}", late.median, late.max),
            open.p99_note("open loop"),
            capacity.p99_note("closed loop"),
            format!("# {differ} of {checked} records differ after the power cycle"),
        ]
        .into_iter()
        .chain(open.failure_note())
        .chain(capacity.failure_note())
        .collect(),
    }
}

/// Runs one workload untraced.
pub fn run(workload: &str, o: &Options) -> Option<Report> {
    Some(match workload {
        "kinds-local" => kinds_local(o),
        "local-uniform-rw" => local_uniform_rw(o),
        "serve-uniform-rw" => serve_uniform_rw(o),
        "serve-storm-open" => serve_storm_open(o),
        _ => return None,
    })
}
