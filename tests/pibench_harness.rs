//! End-to-end harness tests: PiBench driving the real indexes.

mod common;

use common::{fresh, ALL_KINDS, PM_KINDS};
use pm_index_bench::pibench::{prefill, run, BenchConfig, Distribution, KeySpace, OpKind, OpMix};
use pm_index_bench::pmem::PmConfig;

fn cfg(threads: usize, records: u64, ops: u64, mix: OpMix) -> BenchConfig {
    BenchConfig {
        threads,
        records,
        ops_per_thread: ops / threads as u64,
        mix,
        distribution: Distribution::Uniform,
        scan_len: 25,
        seed: 99,
        negative_lookups: false,
    }
}

#[test]
fn lookups_after_prefill_never_miss() {
    for kind in ALL_KINDS {
        let (idx, pool) = fresh(kind, 64, PmConfig::real());
        let ks = KeySpace::new(20_000);
        prefill(&*idx, &ks, 4);
        let r = run(
            &*idx,
            &ks,
            pool.as_slice(),
            &cfg(4, 20_000, 40_000, OpMix::pure(OpKind::Lookup)),
        );
        assert_eq!(r.misses, 0, "{kind}: prefilled lookups must all hit");
        assert_eq!(r.total_ops(), 40_000, "{kind}");
        assert!(r.mops() > 0.0, "{kind}");
    }
}

#[test]
fn inserts_after_prefill_never_collide() {
    for kind in ALL_KINDS {
        let (idx, pool) = fresh(kind, 128, PmConfig::real());
        let ks = KeySpace::new(5_000);
        prefill(&*idx, &ks, 4);
        let r = run(
            &*idx,
            &ks,
            pool.as_slice(),
            &cfg(4, 5_000, 20_000, OpMix::pure(OpKind::Insert)),
        );
        assert_eq!(r.misses, 0, "{kind}: insert keys must be fresh");
    }
}

#[test]
fn pm_counters_reflect_persistence() {
    for kind in PM_KINDS {
        let (idx, pool) = fresh(kind, 64, PmConfig::real());
        let pool = pool.unwrap();
        let ks = KeySpace::new(5_000);
        prefill(&*idx, &ks, 2);
        // Inserts must write and flush PM; lookups must not.
        let r_ins = run(
            &*idx,
            &ks,
            std::slice::from_ref(&pool),
            &cfg(2, 5_000, 5_000, OpMix::pure(OpKind::Insert)),
        );
        assert!(
            r_ins.pm.media_write_bytes > 0,
            "{kind}: inserts write media"
        );
        assert!(r_ins.pm.clwb > 0, "{kind}: inserts flush");
        assert!(r_ins.pm.fence > 0, "{kind}: inserts fence");
        // Drain epoch-deferred frees left over from the insert phase
        // (NV-Tree/BzTree retire replaced nodes after a grace period;
        // those persistent frees would otherwise bleed into the
        // read-only measurement).
        for _ in 0..3 {
            run(
                &*idx,
                &ks,
                &[],
                &cfg(2, 5_000, 2_000, OpMix::pure(OpKind::Lookup)),
            );
        }
        let r_lku = run(
            &*idx,
            &ks,
            std::slice::from_ref(&pool),
            &cfg(2, 5_000, 5_000, OpMix::pure(OpKind::Lookup)),
        );
        assert_eq!(
            r_lku.pm.media_write_bytes, 0,
            "{kind}: lookups must not write media"
        );
        assert!(r_lku.pm.media_read_bytes > 0, "{kind}: lookups read media");
    }
}

#[test]
fn skewed_runs_complete_and_hit() {
    for kind in ALL_KINDS {
        let (idx, pool) = fresh(kind, 64, PmConfig::real());
        let ks = KeySpace::new(10_000);
        prefill(&*idx, &ks, 2);
        let mut c = cfg(2, 10_000, 10_000, OpMix::pure(OpKind::Lookup));
        c.distribution = Distribution::self_similar_80_20();
        let r = run(&*idx, &ks, pool.as_slice(), &c);
        assert_eq!(r.misses, 0, "{kind}");
    }
}

#[test]
fn latency_histograms_are_populated_per_kind() {
    let (idx, pool) = fresh("fptree", 64, PmConfig::real());
    let ks = KeySpace::new(5_000);
    prefill(&*idx, &ks, 2);
    let mix = OpMix {
        lookup: 40,
        insert: 30,
        update: 10,
        remove: 10,
        scan: 10,
    };
    let r = run(&*idx, &ks, pool.as_slice(), &cfg(2, 5_000, 20_000, mix));
    for k in [
        OpKind::Lookup,
        OpKind::Insert,
        OpKind::Update,
        OpKind::Remove,
        OpKind::Scan,
    ] {
        assert!(
            !r.latency[k as usize].is_empty(),
            "{} histogram empty",
            k.label()
        );
        assert!(r.latency[k as usize].percentile(99.0) > 0);
    }
}

#[test]
fn dram_mode_elides_all_media_writes() {
    let (idx, pool) = fresh("fptree", 64, PmConfig::dram());
    let pool = pool.unwrap();
    let ks = KeySpace::new(5_000);
    prefill(&*idx, &ks, 2);
    let r = run(
        &*idx,
        &ks,
        std::slice::from_ref(&pool),
        &cfg(2, 5_000, 5_000, OpMix::pure(OpKind::Insert)),
    );
    assert_eq!(
        r.pm.media_write_bytes, 0,
        "persistence-elided mode must not touch media"
    );
    assert!(r.pm.clwb > 0, "instructions still counted");
}
