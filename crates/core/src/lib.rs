//! # pibench — a unified benchmarking framework for PM range indexes
//!
//! The paper's primary contribution: one harness that stress-tests any
//! index implementing the common [`index_api::RangeIndex`] interface
//! under identical, reproducible workloads, and reports the metrics the
//! evaluation is built on.
//!
//! * **Workloads** ([`workload`]): synthetic operation streams over a
//!   dense logical key space mapped through a bijective mixer (so keys
//!   are uniformly spread over `u64` but enumerable), with configurable
//!   operation mixes (lookup/insert/update/remove/scan) and access
//!   distributions ([`dist`]): uniform, self-similar (the paper's
//!   80/20 skew) and Zipfian.
//! * **Execution** ([`runner`]): multi-threaded prefill + timed or
//!   fixed-op measurement phases; per-thread deterministic RNG streams;
//!   sampled latency capture.
//! * **Metrics**: throughput per operation type, tail-latency
//!   percentiles from mergeable log-scale histograms ([`hist`]), PM
//!   media traffic / bandwidth / amplification (from the `pmem`
//!   device counters) and index memory footprints.
//! * **Reporting** ([`report`]): aligned text tables and CSV rows, the
//!   same series the paper's figures plot.
//! * **Command lines** ([`cli`]): the one table-driven flag parser of
//!   every tool (`pibench`, `pmserve`, `pmload`, `e00_run_all`, the
//!   examples), beside [`OpMix::parse`] and [`Distribution::parse`].
//! * **Tracing** ([`trace`]): exporters for the `obs` observability
//!   subsystem — Chrome-trace/Perfetto JSON, time-series CSV and the
//!   per-site traffic attribution table.

pub mod cli;
pub mod dist;
pub mod hist;
pub mod keys;
pub mod report;
pub mod runner;
pub mod trace;
pub mod workload;

pub use dist::Distribution;
pub use hist::LatencyHistogram;
pub use keys::KeySpace;
pub use runner::{prefill, run, BenchConfig, RunResult};
pub use workload::{OpKind, OpMix};
