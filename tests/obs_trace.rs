//! End-to-end observability tests: the `obs` tracing layer driven
//! through the real stack (PiBench harness, index sites, crash-point
//! explorer).

mod common;

use std::sync::{Arc, Mutex};

use common::fresh;
use pm_index_bench::bztree::{BzTree, BzTreeConfig};
use pm_index_bench::crashpoint::{self, single::Single, SweepOptions};
use pm_index_bench::index_api::RangeIndex;
use pm_index_bench::obs;
use pm_index_bench::pibench::{
    prefill, run, trace, BenchConfig, Distribution, KeySpace, OpKind, OpMix,
};
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmPool, PmStatsSnapshot};

/// `obs` is process-global state (one enabled flag, one site interner,
/// shared rings); tests that flip it must not interleave.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn insert_cfg(records: u64, ops: u64) -> BenchConfig {
    BenchConfig {
        threads: 2,
        records,
        ops_per_thread: ops / 2,
        mix: OpMix::pure(OpKind::Insert),
        distribution: Distribution::Uniform,
        scan_len: 25,
        seed: 7,
        negative_lookups: false,
    }
}

#[test]
fn insert_media_writes_are_fully_attributed() {
    let _g = lock();
    let (idx, pool) = fresh("fptree", 64, PmConfig::real());
    let pool = pool.unwrap();
    let ks = KeySpace::new(5_000);
    prefill(&*idx, &ks, 2);

    obs::reset();
    obs::set_enabled(true);
    // `run` resets the pool counters at the start of the measured
    // phase, so `r.pm` is the device-truth media delta of the run.
    let r = run(
        &*idx,
        &ks,
        std::slice::from_ref(&pool),
        &insert_cfg(5_000, 5_000),
    );
    obs::set_enabled(false);
    let delta = &r.pm;
    assert!(r.total_ops() > 0);

    // Every counter the device moved must land in the site table: the
    // taps sit beside the pool's own counting, one for one. And >= 95%
    // of the media write bytes must be attributed to *named* sites (not
    // the "other" catch-all) — the acceptance bar for the annotations.
    let sites = obs::site_table();
    assert_eq!(
        PmStatsSnapshot::merged(sites.iter().map(|s| &s.counts)),
        *delta,
        "site table and pool must agree on all ten counters"
    );
    let named: u64 = sites
        .iter()
        .filter(|s| s.name != obs::SITE_OTHER)
        .map(|s| s.counts.media_write_bytes)
        .sum();
    assert!(
        named as f64 >= 0.95 * delta.media_write_bytes as f64,
        "named sites cover {named} of {} media write bytes",
        delta.media_write_bytes
    );
    assert!(
        sites
            .iter()
            .any(|s| s.name == "fptree_insert" && s.counts.media_write_bytes > 0),
        "insert traffic must surface under the fptree_insert site"
    );

    // The flight recorder holds events and they export as a loadable
    // Chrome-trace document with both op spans and PM instants.
    let events = obs::flight_events(usize::MAX);
    assert!(!events.is_empty());
    let json = trace::chrome_trace_json(&events, &obs::site_names());
    assert!(json.starts_with(r#"{"traceEvents":["#));
    assert!(json.contains(r#""ph":"X""#), "op spans present");
    assert!(json.contains(r#""ph":"i""#), "pm instants present");
}

/// An elided (`--dram`) pool counts flushes but audits and writes back
/// none; the taps must say the same.
#[test]
fn an_elided_pool_and_its_site_table_agree() {
    let _g = lock();
    let pool = PmPool::new(1 << 20, PmConfig::dram());
    obs::reset();
    pool.reset_stats();
    obs::set_enabled(true);
    pool.write_u64(4096, 7);
    pool.persist(4096, 8);
    pool.clwb(8192, 64); // never written: clean, yet not "redundant" here
    pool.ntstore_u64(4160, 9);
    assert_eq!(pool.read_u64(4096), 7);
    obs::set_enabled(false);
    let sites = obs::site_table();
    let traced = PmStatsSnapshot::merged(sites.iter().map(|s| &s.counts));
    assert_eq!(traced, pool.stats());
    assert_eq!(traced.events(), 7);
}

#[test]
fn injected_crashpoint_run_dumps_flight_tail() {
    let _g = lock();
    obs::reset();
    obs::set_enabled(true);
    let opts = SweepOptions {
        kind: "wbtree".to_string(),
        ops: 40,
        key_range: 24,
        pool_mib: 16,
        max_boundaries: Some(3),
        ..SweepOptions::default()
    };
    let summary = crashpoint::sweep(&Single::default(), &opts);
    obs::set_enabled(false);
    assert!(summary.crashes_fired > 0, "injection never fired");
    assert!(summary.is_green(), "{:?}", summary.failures.first());
    let tail = summary
        .first_crash_flight_tail
        .expect("tracing was enabled and a crash fired");
    assert!(!tail.trim().is_empty(), "flight tail must be non-empty");
    // The tail pins down concrete PM traffic (offsets), not just labels.
    assert!(tail.contains("off=0x"), "{tail}");
}

#[test]
fn disabled_tracing_records_nothing() {
    let _g = lock();
    obs::reset();
    assert!(!obs::enabled());
    let (idx, pool) = fresh("fptree", 64, PmConfig::real());
    let ks = KeySpace::new(2_000);
    prefill(&*idx, &ks, 2);
    run(&*idx, &ks, pool.as_slice(), &insert_cfg(2_000, 2_000));
    assert!(obs::flight_events(usize::MAX).is_empty());
    assert_eq!(obs::total_ops(), 0);
    assert!(obs::site_table().iter().all(|s| s.counts.events() == 0));
}

/// A BzTree scan copies a leaf's used meta words with one access and
/// only then its records with another: an append writes its record
/// before it turns the slot `VISIBLE`, so a record copied after its
/// state is at least as new as that state.
#[test]
fn a_bztree_leaf_copy_reads_every_state_before_any_record() {
    let _g = lock();
    let pool = Arc::new(PmPool::new(8 << 20, PmConfig::real()));
    let alloc = PmAllocator::format(pool, AllocMode::General);
    let t = BzTree::create(alloc, BzTreeConfig::default());
    // 40 appends to the root leaf: 320 B of meta words and 640 B of
    // records, each across more than one media block.
    let count = 40u32;
    for k in (0..count as u64).rev() {
        assert!(t.insert(k, k + 1));
    }
    obs::reset();
    obs::set_enabled(true);
    let mut out = Vec::new();
    t.scan(0, 100, &mut out);
    obs::set_enabled(false);
    assert_eq!(
        out,
        (0..count as u64).map(|k| (k, k + 1)).collect::<Vec<_>>()
    );
    let names = obs::site_names();
    let reads: Vec<(u64, u32)> = obs::flight_events(usize::MAX)
        .iter()
        .filter(|e| e.kind == obs::EventKind::Read && names[e.site as usize] == "bztree_scan")
        .map(|e| (e.off, e.len))
        .collect();
    let copy = |len: u32| {
        let at: Vec<usize> = (0..reads.len()).filter(|&i| reads[i].1 == len).collect();
        assert_eq!(at.len(), 1, "one {len}-byte copy in {reads:?}");
        at[0]
    };
    let (metas, records) = (copy(8 * count), copy(16 * count));
    assert!(metas < records, "states after records: {reads:?}");
    assert!(reads[metas].0 < reads[records].0);
}
