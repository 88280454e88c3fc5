//! The repo benchmark: four workloads, their end-to-end metrics, and a
//! per-layer cost stack, all measured from outside through the crates'
//! public functions. See `README.md` in this directory.

pub mod exec;
pub mod gen;
pub mod layers;
pub mod report;
pub mod spec;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod workloads;
