//! Crash-consistency torture: repeatedly run a random workload against
//! every PM index and kill it two different ways per round:
//!
//! 1. **Mid-operation power loss** via the `pmem` crash-point injection
//!    API — the pool is armed to fail at a pseudo-random persistence
//!    event, so the plug is pulled *inside* an insert/update/remove,
//!    between two flushes. Recovery must keep every acknowledged op and
//!    leave the in-flight op atomic (fully applied or fully absent).
//! 2. **End-of-workload power loss** (the classic torture): run to
//!    completion, `crash()`, recover, verify exact equality.
//!
//! Eviction chaos stays enabled throughout, so unflushed lines
//! sometimes persist anyway and recovery sees both worlds. Both plug
//! pulls use the sampled torn-write model: each dirty line left at the
//! cut independently persists with p = 1/2 (seeded, replayable).
//!
//! ```sh
//! cargo run --release --example crash_torture [rounds] [--kind <name>] [--seed N]
//! ```
//!
//! `--kind` filters to one of fptree / nvtree / wbtree / bztree /
//! learned (default: all five). `--seed` offsets the per-round seed
//! stream;
//! on failure the tool prints the exact command that replays the
//! failing round.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pm_index_bench::crashpoint::{
    apply_until_cut, install_quiet_crash_hook, kind as kind_row, verify_recovered, workload, Acked,
    Shape, PM_KINDS as KINDS,
};
use pm_index_bench::index_api::RangeIndex;
use pm_index_bench::pibench::cli::{Arg, Flags};
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmPool, ResidualPolicy};

// The indexes run in their default (large-node) shape, unlike the
// sweeps' small one: the torture's long workloads reach splits anyway.

/// Pull the plug with a sampled torn image (each dirty line left at the
/// cut persists with p = 1/2 — a different image every round,
/// replayable from the seed), recover, and hold the result to the
/// sweeps' oracle.
fn cut_and_verify(
    kind: &str,
    idx: Arc<dyn RangeIndex>,
    pool: &Arc<PmPool>,
    seed: u64,
    acked: &Acked,
) -> Arc<dyn RangeIndex> {
    drop(idx);
    pool.crash_with(ResidualPolicy::Sampled {
        seed,
        p_per_256: 128,
    });
    let alloc = PmAllocator::recover(pool.clone(), AllocMode::General);
    let idx = kind_row(kind)
        .try_recover(alloc, Shape::Default)
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
    if let Some(e) = acked.errors.first() {
        panic!("{kind}: {e}");
    }
    if let Err(e) = verify_recovered(&*idx, &acked.model, &acked.inflight) {
        panic!("{kind}: {e}");
    }
    idx
}

fn torture(kind: &str, round_seed: u64) {
    let seed = round_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let pool = Arc::new(PmPool::new(
        64 << 20,
        PmConfig::real().with_eviction_chaos(seed),
    ));
    let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
    let idx = kind_row(kind).create(alloc, Shape::Default);

    let n_ops = 2_000 + (seed % 3_000);
    let ops = workload(seed, n_ops, 4_096);

    // Phase 1: arm a mid-operation power failure at a pseudo-random
    // persistence event, then replay; the armed event count is small
    // enough that the crash reliably fires inside the stream.
    pool.arm_crash_after(1 + (seed.rotate_left(17) % (n_ops * 2)));
    let mut acked = Acked::default();
    apply_until_cut(&*idx, &ops, &mut acked);
    // Lift the halt of a trip (keeping its frozen image) or cancel an
    // unreached countdown.
    pool.disarm_crash();
    let idx = cut_and_verify(kind, idx, &pool, seed ^ 0x7061_7274_6961_6c31, &acked);

    // The in-flight op may have landed either way; sync the model with
    // whichever atomic outcome the recovered tree kept.
    for a in acked.inflight.drain(..) {
        acked.model.remove(a.key);
        acked.model.extend(idx.lookup(a.key).map(|v| (a.key, v)));
    }

    // Phase 2: run the whole workload again on the recovered tree,
    // then the classic end-of-workload plug pull with exact verify.
    apply_until_cut(&*idx, &ops, &mut acked);
    cut_and_verify(kind, idx, &pool, seed ^ 0x7061_7274_6961_6c32, &acked);
}

fn main() {
    let flags = Flags::from_env(&[
        ("rounds", Arg::Int(1)),
        ("--kind", Arg::OneOf(&KINDS)),
        ("--seed", Arg::Int(0)),
    ]);
    let rounds = flags.int("rounds").unwrap_or(5);
    let kinds: Vec<&str> = match flags.text("--kind") {
        Some(kind) => vec![kind],
        None => KINDS.to_vec(),
    };
    // `--seed` offsets the round-seed stream; round r of base seed S
    // is exactly round 0 of base seed S + r, so a failure replays as a
    // single round.
    let base_seed = flags.int("--seed").unwrap_or(0);

    install_quiet_crash_hook();
    // Flight recorder: keep the last PM events of every round so an
    // oracle violation can show what the index did right before (and
    // after) the cut, alongside the reproduce line.
    pm_index_bench::obs::set_enabled(true);
    for kind in &kinds {
        for round in 0..rounds {
            let round_seed = base_seed.wrapping_add(round);
            pm_index_bench::obs::reset();
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| torture(kind, round_seed))) {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                eprintln!("{kind}: round {round} FAILED: {msg}");
                eprintln!("flight recorder (last PM events of the failing round):");
                for line in pm_index_bench::obs::flight_tail_text(16).lines() {
                    eprintln!("    {line}");
                }
                eprintln!(
                    "REPRODUCE: cargo run --release --example crash_torture -- 1 \
                     --kind {kind} --seed {round_seed}"
                );
                std::process::exit(1);
            }
        }
        println!(
            "{kind}: {rounds} crash rounds survived ✓ (mid-op injection + sampled plug pull, \
             seeds {base_seed}..{})",
            base_seed.wrapping_add(rounds)
        );
    }
    println!(
        "{} crash-consistent across {rounds} random workloads",
        kinds.join(", ")
    );
}
