//! Head-to-head comparison of every index kind (the five PM indexes
//! of the kind table and the DRAM baseline) using the PiBench API:
//! the scenario from the paper's introduction — an OLTP-ish mixed
//! workload over a prefilled table, on emulated Optane-like PM.
//!
//! ```sh
//! cargo run --release --example index_shootout
//! ```

use pm_index_bench::crashpoint::{fresh_shard, Shape};
use pm_index_bench::net::build::{pool_bytes_for_shard, ALL_KINDS};
use pm_index_bench::pibench::report::Table;
use pm_index_bench::pibench::{prefill, run, BenchConfig, Distribution, KeySpace, OpKind, OpMix};
use pm_index_bench::pmalloc::AllocMode;
use pm_index_bench::pmem::PmConfig;

const RECORDS: u64 = 200_000;
const OPS: u64 = 200_000;

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(4);
    println!("OLTP-ish mixed workload: 70% lookup / 20% insert / 5% update / 5% scan");
    println!("{RECORDS} records prefilled, {OPS} ops, {threads} threads, Optane-like latency\n");

    let mix = OpMix {
        lookup: 70,
        insert: 20,
        update: 5,
        remove: 0,
        scan: 5,
    };
    let mut table = Table::new(vec![
        "index",
        "Mops/s",
        "p99 lookup",
        "p99 insert",
        "PM writeB/op",
    ]);
    for kind in ALL_KINDS {
        let bytes = pool_bytes_for_shard(RECORDS, 1);
        let (shape, mode) = (Shape::Default, AllocMode::General);
        let built = fresh_shard(kind, shape, mode, bytes, PmConfig::optane_like());
        let (idx, pool) = (built.index, built.pool);
        let ks = KeySpace::new(RECORDS);
        prefill(&*idx, &ks, threads);
        let cfg = BenchConfig {
            threads,
            records: RECORDS,
            ops_per_thread: OPS / threads as u64,
            mix,
            distribution: Distribution::Uniform,
            scan_len: 100,
            seed: 1,
            negative_lookups: false,
        };
        let r = run(&*idx, &ks, pool.as_slice(), &cfg);
        table.row(vec![
            kind.to_string(),
            format!("{:.3}", r.mops()),
            format!("{}ns", r.latency[OpKind::Lookup as usize].percentile(99.0)),
            format!("{}ns", r.latency[OpKind::Insert as usize].percentile(99.0)),
            format!("{:.0}", r.pm_write_bytes_per_op()),
        ]);
    }
    print!("{}", table.to_text());
}
