//! Crash-mid-migration integration tests: power cuts at persistence
//! boundaries while an online shard-range migration (copy → fenced
//! publish → GC) is in flight must never lose an acked write or leave
//! the routing table half-copied, and recovery must be idempotent.
//!
//! The heavy lifting lives in the `crashpoint::migration::Migration`
//! scenario (which also checks double recovery per sample); these tests pin the
//! sweep green across index kinds and both sides of the publish point.

use pm_index_bench::crashpoint::migration::Migration;
use pm_index_bench::crashpoint::{sweep, SweepOptions};

fn strided_opts(kind: &str, stride: u64) -> SweepOptions {
    SweepOptions {
        kind: kind.into(),
        ops: 160,
        key_range: 64,
        seed: 0xC0FFEE,
        pool_mib: 8,
        stride,
        ..SweepOptions::default()
    }
}

/// Crash the *base* shards mid-migration: acked writes racing the copy
/// loop must survive, and a cut before publish must drop the
/// destination cleanly.
#[test]
fn base_pool_cuts_recover_for_fptree() {
    let opts = SweepOptions {
        arm_pools: vec![0, 1],
        ..strided_opts("fptree", 97)
    };
    let s = sweep(&Migration::default(), &opts);
    assert!(s.is_green(), "{:?}", &s.failures[..s.failures.len().min(3)]);
    assert!(s.crashes_fired > 0, "no boundary tripped");
}

/// Crash the *destination* pool: the migration must either vanish
/// entirely (cut before the publish word) or come back claimed — never
/// a half-copied route.
#[test]
fn destination_pool_cuts_straddle_the_publish_point() {
    let opts = SweepOptions {
        arm_pools: vec![2], // dst pool sits after the base shards
        ..strided_opts("wbtree", 61)
    };
    let s = sweep(&Migration::default(), &opts);
    assert!(s.is_green(), "{:?}", &s.failures[..s.failures.len().min(3)]);
    assert!(s.crashes_fired > 0, "no boundary tripped");
    assert!(
        s.counter("preparing_recoveries") > 0 && s.counter("claimed_recoveries") > 0,
        "sweep did not straddle the publish point: {} preparing, {} claimed",
        s.counter("preparing_recoveries"),
        s.counter("claimed_recoveries")
    );
}

/// The learned index's delta-log + segment model through the same
/// sweep — the striped delta must re-route cleanly after a mid-copy cut.
#[test]
fn learned_index_survives_mid_migration_cuts() {
    let s = sweep(&Migration::default(), &strided_opts("learned", 151));
    assert!(s.is_green(), "{:?}", &s.failures[..s.failures.len().min(3)]);
    assert!(s.crashes_fired > 0, "no boundary tripped");
}
