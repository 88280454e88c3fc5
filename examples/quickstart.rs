//! Five-minute tour: create an emulated PM pool, build FPTree on it,
//! do some work, crash the "machine", and recover.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use pm_index_bench::fptree::{FpTree, FpTreeConfig};
use pm_index_bench::index_api::RangeIndex;
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmPool};

fn main() {
    // 1. An emulated persistent-memory device: 64 MiB, full crash
    //    semantics, no latency injection (use PmConfig::optane_like()
    //    for benchmark-realistic timing).
    let pool = Arc::new(PmPool::new(64 << 20, PmConfig::real()));

    // 2. A persistent allocator on the pool (PMDK-style general mode).
    let alloc = PmAllocator::format(pool.clone(), AllocMode::General);

    // 3. FPTree: DRAM inner nodes, PM leaves with fingerprints.
    let tree = FpTree::create(alloc, FpTreeConfig::default());

    for k in 0..10_000u64 {
        assert!(tree.insert(k, k * 2));
    }
    tree.update(42, 999);
    tree.remove(7);

    assert_eq!(tree.lookup(42), Some(999));
    assert_eq!(tree.lookup(7), None);

    let mut out = Vec::new();
    tree.scan(100, 5, &mut out);
    println!("scan(100, 5) = {out:?}");

    let f = tree.footprint();
    println!("footprint: {f}");

    // 4. Power failure! Everything not flushed to the persisted image
    //    is gone, and so are all DRAM structures.
    drop(tree);
    pool.crash();

    // 5. Recovery: the allocator replays its redo slots; FPTree replays
    //    its split micro-log and rebuilds inner nodes from the leaf
    //    chain (a poisoned line would come back as a `MediaError`).
    let alloc = PmAllocator::recover(pool, AllocMode::General);
    let tree = FpTree::try_recover(alloc, FpTreeConfig::default()).expect("no media error");

    assert_eq!(tree.lookup(42), Some(999), "update survived the crash");
    assert_eq!(tree.lookup(7), None, "delete survived the crash");
    assert_eq!(tree.lookup(9_999), Some(19_998));
    println!("recovered: 10k records intact after simulated power loss ✓");
}
