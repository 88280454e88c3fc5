//! The two sweep shapes most experiments are declared over.
//!
//! * A [`Grid`]: one table row per subject (an index build and its
//!   labels), one Mops/s column per measured point — a thread ladder,
//!   a list of ops or a list of mixes. E1–E4, E10, E12, E13, E16, E19.
//! * A [`Points`] list: one build per subject, one table row per
//!   measured point of it, with one column per metric read off the
//!   run's result. E5–E7, E9, E14, E15.

use pibench::report::{fmt_mops, Table};
use pibench::{prefill, run, BenchConfig, Distribution, KeySpace, OpKind, OpMix, RunResult};
use pmem::PmConfig;

use super::{pm_cfg, render, ExpReport};
use crate::cli::ExpCtx;
use crate::registry::{self, AllocMode, Built, Shape};

/// Builds and prefills the index a sweep measures.
pub type Subject = Box<dyn Fn(&ExpCtx) -> (Built, KeySpace)>;

/// Prefill a fresh build with the context's records.
pub fn prefilled(b: Built, ctx: &ExpCtx) -> (Built, KeySpace) {
    let ks = KeySpace::new(ctx.records);
    prefill(&*b.index, &ks, ctx.max_threads);
    (b, ks)
}

/// Build + prefill one index, honoring the context's shard axis:
/// `--shards N > 1` routes the build through the range-partitioned
/// engine layer (N pools, N allocators, one `RangeIndex` front-end).
pub fn fresh(kind: &str, ctx: &ExpCtx, pm: PmConfig) -> (Built, KeySpace) {
    let b = if ctx.shards > 1 {
        registry::build_sharded(kind, ctx.shards, ctx.records, pm).into()
    } else {
        registry::build(kind, ctx.records, pm)
    };
    prefilled(b, ctx)
}

/// [`fresh`] as a sweep subject.
pub fn subject(kind: &'static str, pm: PmConfig) -> Subject {
    Box::new(move |ctx| fresh(kind, ctx, pm.clone()))
}

/// A flat build in an explicit shape and allocation mode, as a sweep
/// subject.
pub fn subject_as(kind: &'static str, shape: Shape, mode: AllocMode) -> Subject {
    Box::new(move |ctx| {
        let b = registry::shard(kind, shape, mode, ctx.records, pm_cfg());
        prefilled(b.into(), ctx)
    })
}

/// A `shards`-way build behind the engine layer, as a sweep subject.
pub fn sharded_subject(kind: &'static str, shards: usize) -> Subject {
    Box::new(move |ctx| {
        let b = registry::build_sharded(kind, shards, ctx.records, pm_cfg());
        prefilled(b.into(), ctx)
    })
}

/// Run one measured point.
pub fn run_point(b: &Built, ks: &KeySpace, cfg: &BenchConfig) -> RunResult {
    run(&*b.index, ks, &b.pools, cfg)
}

/// Owned label cells.
pub fn labels(cells: &[&str]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

/// A grid row's measured points, one per column: thread count and mix.
pub type Measured = Vec<(usize, OpMix)>;

/// Label columns × measured columns → Mops/s.
pub struct Grid {
    title: String,
    table: Table,
    dist: Distribution,
    /// A row's build normally serves its points until one grows or
    /// shrinks it (a mix with inserts or removes) and is rebuilt for
    /// the next; set, one build serves the whole row regardless (E1 and
    /// E12 run their mutating ops last, on purpose on the same index).
    pub keep_grown: bool,
    rows: Vec<(Vec<String>, Subject, Measured)>,
}

impl Grid {
    /// An empty grid; `header` names the label columns, then the
    /// measured ones.
    pub fn new(title: impl Into<String>, header: Vec<String>, dist: Distribution) -> Grid {
        Grid {
            title: title.into(),
            table: Table::new(header),
            dist,
            keep_grown: false,
            rows: Vec::new(),
        }
    }

    /// Add a row: its label cells, the index it measures, and its
    /// measured points.
    pub fn row(&mut self, labels: Vec<String>, subject: Subject, points: Measured) {
        self.rows.push((labels, subject, points));
    }

    /// Measure every point and render the report, with `extra` raw-JSON
    /// fields attached to the document.
    pub fn report(mut self, ctx: &ExpCtx, extra: &[(String, String)]) -> ExpReport {
        for (mut cells, subject, points) in self.rows {
            let mut built: Option<(Built, KeySpace)> = None;
            for (threads, mix) in points {
                let (b, ks) = built.get_or_insert_with(|| subject(ctx));
                let r = run_point(b, ks, &ctx.point(threads, mix, self.dist));
                cells.push(fmt_mops(r.mops()));
                if !self.keep_grown && (mix.insert > 0 || mix.remove > 0) {
                    built = None;
                }
            }
            self.table.row(cells);
        }
        render(&self.title, ctx, &self.table, extra)
    }
}

/// `labels` followed by one `<n>t` column per rung of the thread ladder.
pub fn ladder_header(labels: &[&str], ctx: &ExpCtx) -> Vec<String> {
    let rungs = ctx.thread_ladder().into_iter().map(|t| format!("{t}t"));
    labels.iter().map(|l| l.to_string()).chain(rungs).collect()
}

/// `mix` at every rung of the thread ladder.
pub fn ladder_points(ctx: &ExpCtx, mix: OpMix) -> Measured {
    let ladder = ctx.thread_ladder();
    ladder.into_iter().map(|t| (t, mix)).collect()
}

/// One pure-op point per op, single-threaded.
pub fn single_thread(ops: &[OpKind]) -> Measured {
    ops.iter().map(|&op| (1, OpMix::pure(op))).collect()
}

/// One metric column of a [`Points`] table: header, and the cell read
/// off a run that measured the given op.
pub type Metric = (&'static str, fn(&RunResult, OpKind) -> String);

/// Throughput.
pub const MOPS: Metric = ("Mops/s", |r, _| fmt_mops(r.mops()));
/// Media bytes read per op.
pub const READ_B: Metric = ("readB/op", |r, _| {
    format!("{:.0}", r.pm_read_bytes_per_op())
});
/// Fences per op.
pub const FENCES: Metric = ("fence/op", |r, _| per_op(r.pm.fence, r));
/// Cache-line flushes per op.
pub const CLWBS: Metric = ("clwb/op", |r, _| per_op(r.pm.clwb, r));

fn per_op(count: u64, r: &RunResult) -> String {
    format!("{:.2}", count as f64 / r.total_ops().max(1) as f64)
}

/// One measured point of a [`Points`] list: its label cells, the op it
/// runs (pure), and the config.
pub type Point = (Vec<String>, OpKind, BenchConfig);

/// One pure-op point per op at `threads`, labelled by the op.
pub fn op_points(ctx: &ExpCtx, ops: &[OpKind], threads: usize) -> Vec<Point> {
    let point = |&op: &OpKind| {
        let cfg = ctx.point(threads, OpMix::pure(op), Distribution::Uniform);
        (vec![op.label().to_string()], op, cfg)
    };
    ops.iter().map(point).collect()
}

/// Subjects × points → one row each, with metric columns.
pub struct Points {
    /// The experiment's title line.
    pub title: &'static str,
    /// Headers of the subject column and the points' label columns.
    pub labels: Vec<&'static str>,
    /// The metric columns.
    pub metrics: Vec<Metric>,
    /// Index kinds (or variants): each is built once ([`fresh`]) and
    /// serves all points in order.
    pub subjects: Vec<&'static str>,
    /// The points measured on every subject.
    pub points: Vec<Point>,
}

impl Points {
    /// Measure every point of every subject and render the report.
    pub fn report(self, ctx: &ExpCtx) -> ExpReport {
        let metric_headers = self.metrics.iter().map(|m| m.0);
        let mut t = Table::new(self.labels.iter().copied().chain(metric_headers).collect());
        for kind in self.subjects {
            let (b, ks) = fresh(kind, ctx, pm_cfg());
            for (labels, op, cfg) in &self.points {
                let r = run_point(&b, &ks, cfg);
                let mut cells = vec![kind.to_string()];
                cells.extend(labels.iter().cloned());
                cells.extend(self.metrics.iter().map(|m| (m.1)(&r, *op)));
                t.row(cells);
            }
        }
        render(self.title, ctx, &t, &[])
    }
}
