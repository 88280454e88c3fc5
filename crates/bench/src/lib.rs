//! # bench — the experiment harness
//!
//! One row of [`exp::EXPERIMENTS`] per table/figure of the evaluation
//! (see DESIGN.md's experiment index E1–E20). Each experiment builds
//! fresh indexes on their own emulated PM pools ([`registry`], over the
//! one kind table), drives them with PiBench workloads, and returns the
//! same rows/series the paper's artifact reports. The `e00_run_all`
//! binary runs all of them, or `--only eNN[,eMM...]`; the `pibench`
//! binary runs one configurable workload against one index.
//!
//! Scale is set by `e00_run_all`'s flags ([`cli::FLAGS`]), so it works
//! out of the box at laptop scale and can be dialed up toward the
//! paper's 100 M-record runs:
//!
//! | Flag | Default | Meaning |
//! |---|---|---|
//! | `--records N` | 300 000 | records prefilled per index |
//! | `--ops N` | = records | operations per data point |
//! | `--threads N` | min(8, cores) | max worker threads |
//! | `--shards N` | 1 | shards per index (engine layer when > 1) |

pub mod cli;
pub mod exp;
pub mod registry;
