//! # pm-index-bench
//!
//! Umbrella crate for the reproduction of *Evaluating Persistent Memory
//! Range Indexes* (PVLDB 13(4), 2019). It re-exports every workspace
//! crate so downstream users can depend on a single package:
//!
//! - [`pmem`]: the emulated persistent-memory substrate,
//! - [`pmalloc`]: the persistent allocator,
//! - [`pmwcas`]: persistent multi-word CAS,
//! - [`htm`]: software-emulated restricted transactional memory,
//! - [`index_api`]: the common range-index interface,
//! - the four evaluated indexes: [`fptree`], [`nvtree`], [`wbtree`],
//!   [`bztree`], the [`learned`] PGM-style fifth kind, plus the
//!   volatile [`dram_index`] baseline,
//! - [`obs`]: low-overhead PM event tracing, time-series sampling, and
//!   per-site traffic attribution,
//! - [`pibench`]: the benchmarking framework,
//! - [`crashpoint`]: systematic crash-point exploration — deterministic
//!   power failure at every persistence-event boundary, with recovery
//!   verification and a durability audit,
//! - [`net`]: the TCP serving layer — wire protocol, thread-per-core
//!   server with durable-ack batching and backpressure, remote
//!   workload driver (`pmserve` / `pmload`), and the crash-through-
//!   the-server durability sweep.
//!
//! See `examples/quickstart.rs` for a five-minute tour.
//!
//! ```
//! use std::sync::Arc;
//! use pm_index_bench::fptree::{FpTree, FpTreeConfig};
//! use pm_index_bench::index_api::RangeIndex;
//! use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
//! use pm_index_bench::pmem::{PmConfig, PmPool};
//!
//! // An emulated PM device, a crash-safe allocator, and FPTree on top.
//! let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
//! let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
//! let tree = FpTree::create(alloc, FpTreeConfig::default());
//!
//! assert!(tree.insert(7, 70));
//! assert_eq!(tree.lookup(7), Some(70));
//!
//! // Power failure: everything unflushed and all DRAM state is lost...
//! drop(tree);
//! pool.crash();
//!
//! // ...and recovery brings the acknowledged state back.
//! let alloc = PmAllocator::try_recover(pool).expect("no media error");
//! let tree = FpTree::try_recover(alloc, FpTreeConfig::default()).expect("no media error");
//! assert_eq!(tree.lookup(7), Some(70));
//! ```

pub use bztree;
pub use cache;
pub use crashpoint;
pub use dram_index;
pub use engine;
pub use fptree;
pub use htm;
pub use index_api;
pub use learned;
pub use net;
pub use nvtree;
pub use obs;
pub use pibench;
pub use pmalloc;
pub use pmem;
pub use pmwcas;
pub use wbtree;
