//! Media-error recovery: a poisoned (unreadable) line on the recovery
//! path must be *detected and reported* via the fallible `try_recover`
//! entry points — never surfaced as garbage records, and never escaped
//! as a raw `PoisonedRead` panic.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use common::{create_small, PM_KINDS};
use pm_index_bench::crashpoint::try_recover_shard;
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmPool};

/// A crashed pool holding a few hundred acknowledged records of `kind`.
fn crashed_pool(kind: &str) -> Arc<PmPool> {
    let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
    let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
    let idx = create_small(kind, alloc);
    for k in 0..300u64 {
        idx.insert(k, k + 1);
    }
    for k in 0..100u64 {
        idx.remove(k * 3);
    }
    drop(idx);
    pool.crash();
    pool
}

/// The root-area line each index's recovery probes first.
fn root_slot_line(kind: &str) -> u64 {
    match kind {
        "fptree" => 64,   // slots 8–13: head, split log 0, cfg
        "nvtree" => 128,  // slots 16–17: head, cfg
        "wbtree" => 192,  // slots 24–26: root, head, cfg
        "bztree" => 256,  // slots 32–34: PMwCAS area, root, cfg
        "learned" => 320, // slots 40–41: model descriptor, cfg
        other => panic!("not a PM index: {other}"),
    }
}

fn expect_reported(kind: &str, pool: Arc<PmPool>, what: &str) {
    match catch_unwind(AssertUnwindSafe(|| try_recover_shard(kind, pool))) {
        Ok(Err(e)) => {
            let msg = format!("{e}");
            assert!(
                msg.contains("poisoned line"),
                "{kind}: report should name the poisoned line, got {msg:?}"
            );
        }
        Ok(Ok(_)) => panic!("{kind}: recovery ignored the poisoned {what}"),
        Err(_) => panic!("{kind}: recovery panicked on a poisoned {what} instead of reporting it"),
    }
}

#[test]
fn poisoned_root_slots_are_reported_on_every_index() {
    for kind in PM_KINDS {
        let pool = crashed_pool(kind);
        pool.poison_line(root_slot_line(kind));
        expect_reported(kind, pool, "root slot line");
    }
}

#[test]
fn a_poisoned_fptree_split_log_line_is_reported() {
    // Split logs 1–31 have a line each from slot 64 on (byte 512), past
    // the root slots: recovery probes every one before replaying it,
    // clear or not.
    for log in [1u64, 31] {
        let pool = crashed_pool("fptree");
        pool.poison_line(512 + 64 * (log - 1));
        expect_reported("fptree", pool, "split log line");
    }
}

#[test]
fn poisoned_allocator_header_is_reported_under_every_index() {
    for kind in PM_KINDS {
        let pool = crashed_pool(kind);
        pool.poison_line(4096); // the allocator superblock line
        expect_reported(kind, pool, "allocator header");
    }
}

#[test]
fn poisoned_head_leaf_is_reported_on_chain_indexes() {
    // fptree / nvtree / wbtree recover by walking a persistent leaf
    // chain from a head pointer; the head leaf itself is always read.
    for (kind, head_slot) in [("fptree", 8u64), ("nvtree", 16), ("wbtree", 25)] {
        let pool = crashed_pool(kind);
        let head = pool.read_u64(head_slot * 8);
        assert!(head != 0, "{kind}: unformatted head slot?");
        pool.poison_line(head & !63);
        expect_reported(kind, pool, "head leaf");
    }
}

#[test]
fn poison_outside_the_recovery_path_does_not_block_recovery() {
    // A media error in never-allocated space must not stop recovery:
    // nothing reads it, so the pool recovers and stays fully usable.
    for kind in PM_KINDS {
        let pool = crashed_pool(kind);
        pool.poison_line(8 << 20); // deep in unreachable free space
        let idx = try_recover_shard(kind, pool.clone())
            .unwrap_or_else(|e| panic!("{kind}: unreferenced poison blocked recovery: {e}"))
            .index;
        assert_eq!(idx.lookup(1), Some(2), "{kind}");
        assert!(idx.insert(1_000_000, 7), "{kind}");
        assert_eq!(pool.poisoned_line_count(), 1, "{kind}: poison lost");
    }
}

#[test]
fn scrubbing_clears_poison_and_unblocks_reads() {
    let pool = crashed_pool("wbtree");
    let off = 8 << 20;
    pool.poison_line(off);
    assert!(pool.check_readable(off, 64).is_err());
    pool.scrub_poison(off, 64);
    assert_eq!(pool.poisoned_line_count(), 0);
    assert!(pool.check_readable(off, 64).is_ok());
    assert_eq!(pool.read_u64(off), 0, "scrub must zero-fill");
}
