//! Crash-through-the-server durability: arm crash points in a shard's
//! pool while a remote client drives writes over real TCP, and verify
//! after every cut that the recovered index contains **every acked
//! write** and at most a clean prefix of the unacked pipeline (with one
//! torn in-flight op allowed) — the group-durability contract of the
//! serving layer, end to end.
//!
//! The exhaustive stride-1 sweep lives in `pm_inspector netcrash`; the
//! tier-1 tests here stride through the boundary space so all five PM
//! index kinds stay covered in minutes.

use pm_index_bench::crashpoint::{sweep, SweepOptions};
use pm_index_bench::net::crash::Net;

fn strided(kind: &str, stride: u64, armed_shard: usize) -> SweepOptions {
    SweepOptions {
        kind: kind.to_string(),
        stride,
        arm_pools: vec![armed_shard],
        ops: 150,
        key_range: 48,
        seed: 0xC0FFEE,
        pool_mib: 8,
        ..SweepOptions::default()
    }
}

fn run_green(opts: &SweepOptions) {
    run_green_with(&Net::default(), opts)
}

fn run_green_with(net: &Net, opts: &SweepOptions) {
    let summary = sweep(net, opts);
    assert!(
        summary.is_green(),
        "{}: {} durable-ack violations, first: boundary {} — {}",
        opts.kind,
        summary.failures.len(),
        summary.failures[0].boundary,
        summary.failures[0].detail
    );
    assert!(
        summary.boundaries_tested > 0,
        "{}: no boundaries tested (probe saw {} events)",
        opts.kind,
        summary.probe_events[opts.arm_pools[0]]
    );
    assert!(
        summary.crashes_fired > 0,
        "{}: sweep never tripped a crash point ({} boundaries, {} events)",
        opts.kind,
        summary.boundaries_tested,
        summary.probe_events[opts.arm_pools[0]]
    );
    eprintln!(
        "{}: {} boundaries, {} fired, {} completed, {} acks, deepest unacked suffix {}",
        opts.kind,
        summary.boundaries_tested,
        summary.crashes_fired,
        summary.completed_runs,
        summary.counter("acked_total"),
        summary.counter("max_unacked")
    );
}

#[test]
fn strided_net_sweep_fptree() {
    run_green(&strided("fptree", 173, 0));
}

#[test]
fn strided_net_sweep_nvtree() {
    run_green(&strided("nvtree", 211, 0));
}

#[test]
fn strided_net_sweep_wbtree() {
    run_green(&strided("wbtree", 193, 1));
}

#[test]
fn strided_net_sweep_bztree() {
    run_green(&strided("bztree", 229, 1));
}

#[test]
fn strided_net_sweep_learned() {
    // The default-config learned index logs every write; 150 ops on a
    // 48-key range stay inside one delta-log generation, so the sweep
    // crosses append/commit boundaries on both shards' logs.
    run_green(&strided("learned", 181, 0));
}

/// A deeper client pipeline (and with it bigger server batches: one
/// fence epoch covers whatever a loop iteration read) shifts more ops
/// into the unacked window at the cut; the prefix oracle must still
/// reconcile every recovered image.
#[test]
fn deep_pipeline_sweep_wbtree() {
    let deep = Net {
        window: 64,
        ..Net::default()
    };
    run_green_with(&deep, &strided("wbtree", 307, 0));
}
