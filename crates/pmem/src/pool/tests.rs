//! Unit tests of the pool as a whole (every submodule contributes).

use super::*;
use crate::{PmConfig, PmOff};

fn pool(len: usize) -> PmPool {
    PmPool::new(len, PmConfig::real())
}

#[test]
fn u64_roundtrip() {
    let p = pool(4096 + 1024);
    p.write_u64(ROOT_AREA, 0xDEAD_BEEF);
    assert_eq!(p.read_u64(ROOT_AREA), 0xDEAD_BEEF);
}

#[test]
fn bytes_roundtrip_unaligned() {
    let p = pool(8192);
    let src: Vec<u8> = (0..100).collect();
    p.write_bytes(ROOT_AREA + 3, &src);
    let mut dst = vec![0u8; 100];
    p.read_bytes(ROOT_AREA + 3, &mut dst);
    assert_eq!(src, dst);
    // Neighbouring bytes untouched.
    let mut edge = [0u8; 1];
    p.read_bytes(ROOT_AREA + 2, &mut edge);
    assert_eq!(edge[0], 0);
}

#[test]
fn typed_roundtrip() {
    #[repr(C)]
    #[derive(Copy, Clone, PartialEq, Debug)]
    struct Rec {
        k: u64,
        v: u64,
    }
    unsafe impl PmSafe for Rec {}
    let p = pool(8192);
    let off: PmOff<Rec> = PmOff::new(ROOT_AREA + 64);
    p.write(off, &Rec { k: 7, v: 9 });
    assert_eq!(p.read(off), Rec { k: 7, v: 9 });
}

#[test]
fn unflushed_data_does_not_survive_crash() {
    let p = pool(8192);
    // Distinct cachelines: clwb of the first must not persist the second.
    p.write_u64(ROOT_AREA, 1);
    p.write_u64(ROOT_AREA + CACHELINE as u64, 2);
    p.persist(ROOT_AREA, 8); // only the first line
    p.crash();
    assert_eq!(p.read_u64(ROOT_AREA), 1);
    assert_eq!(
        p.read_u64(ROOT_AREA + CACHELINE as u64),
        0,
        "unflushed store must vanish"
    );
}

#[test]
fn clwb_persists_whole_cachelines() {
    let p = pool(8192);
    // Two words in the same cacheline; flushing a 1-byte range still
    // writes back the whole line.
    p.write_u64(ROOT_AREA, 10);
    p.write_u64(ROOT_AREA + 8, 20);
    p.persist(ROOT_AREA + 8, 1);
    p.crash();
    assert_eq!(p.read_u64(ROOT_AREA), 10);
    assert_eq!(p.read_u64(ROOT_AREA + 8), 20);
}

#[test]
fn ntstore_is_durable() {
    let p = pool(8192);
    p.ntstore_u64(ROOT_AREA, 42);
    p.sfence();
    p.crash();
    assert_eq!(p.read_u64(ROOT_AREA), 42);
}

#[test]
fn crash_is_idempotent_and_repeatable() {
    let p = pool(8192);
    p.write_u64(ROOT_AREA, 5);
    p.persist(ROOT_AREA, 8);
    p.write_u64(ROOT_AREA, 6); // not persisted
    p.crash();
    assert_eq!(p.read_u64(ROOT_AREA), 5);
    p.crash();
    assert_eq!(p.read_u64(ROOT_AREA), 5);
}

#[test]
fn elided_mode_skips_shadow() {
    let p = PmPool::new(8192, PmConfig::dram());
    p.write_u64(ROOT_AREA, 9);
    p.persist(ROOT_AREA, 8);
    // In DRAM mode the persisted image is never updated...
    p.crash();
    // ...so a crash wipes even "persisted" data back to zero.
    assert_eq!(p.read_u64(ROOT_AREA), 0);
    // But stats still counted the instructions.
    let s = p.stats();
    assert_eq!(s.clwb, 1);
    assert_eq!(s.fence, 1);
}

#[test]
fn stats_media_granularity() {
    let p = pool(1 << 20);
    p.reset_stats();
    // Read one u64: one media block (cold cache).
    let target = 512 * 1024;
    p.read_u64(target);
    let s = p.stats();
    assert_eq!(s.read_ops, 1);
    assert_eq!(s.read_bytes, 8);
    assert_eq!(s.media_read_bytes, MEDIA_BLOCK as u64);
    // Second read of the same block: cache hit, no extra media traffic.
    p.read_u64(target + 8);
    let s2 = p.stats();
    assert_eq!(s2.media_read_bytes, MEDIA_BLOCK as u64);
    assert_eq!(s2.read_bytes, 16);
}

#[test]
fn flush_media_write_accounting() {
    let p = pool(1 << 20);
    p.reset_stats();
    p.write_u64(ROOT_AREA, 1);
    p.persist(ROOT_AREA, 8);
    let s = p.stats();
    assert_eq!(s.media_write_bytes, MEDIA_BLOCK as u64);
    // A flush spanning two media blocks counts both.
    p.write_bytes(MEDIA_BLOCK as u64 * 8 - 4, &[1u8; 8]);
    p.persist(MEDIA_BLOCK as u64 * 8 - 4, 8);
    let s2 = p.stats();
    assert_eq!(s2.media_write_bytes, 3 * MEDIA_BLOCK as u64);
}

#[test]
fn root_slots() {
    let p = pool(8192);
    p.write_root(3, 777);
    p.crash();
    assert_eq!(p.read_root(3), 777);
}

#[test]
#[should_panic(expected = "root slot out of range")]
fn root_slot_bounds() {
    let p = pool(8192);
    p.write_root(512, 1);
}

#[test]
fn eviction_chaos_persists_some_unflushed_words() {
    let p = PmPool::new(1 << 16, PmConfig::real().with_eviction_chaos(42));
    for i in 0..1000u64 {
        p.write_u64(ROOT_AREA + i * 8, i + 1);
    }
    p.crash();
    let survived = (0..1000u64)
        .filter(|&i| p.read_u64(ROOT_AREA + i * 8) != 0)
        .count();
    // Roughly a quarter should have been spontaneously evicted:
    // definitely some, definitely not all.
    assert!(survived > 50, "survived={survived}");
    assert!(survived < 950, "survived={survived}");
}

#[test]
fn concurrent_counting_and_access() {
    let p = std::sync::Arc::new(pool(1 << 20));
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let p = p.clone();
            std::thread::spawn(move || {
                let base = ROOT_AREA + t * 65536;
                for i in 0..1000u64 {
                    p.write_u64(base + i * 8, i);
                    p.persist(base + i * 8, 8);
                }
                for i in 0..1000u64 {
                    assert_eq!(p.read_u64(base + i * 8), i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = p.stats();
    assert_eq!(s.write_ops, 4000);
    assert_eq!(s.read_ops, 4000);
    assert_eq!(s.clwb, 4000);
}

#[test]
fn clwb_clamps_at_pool_end() {
    let p = pool(4096 + 256);
    let last = p.len() as u64 - 8;
    p.write_u64(last, 77);
    // Flush range extends past the end; must clamp, not panic.
    p.persist(last, 8);
    p.crash();
    assert_eq!(p.read_u64(last), 77);
}

#[test]
fn empty_byte_ops_are_noops() {
    let p = pool(8192);
    p.write_bytes(ROOT_AREA, &[]);
    let mut buf = [0u8; 0];
    p.read_bytes(ROOT_AREA, &mut buf);
    p.clwb(ROOT_AREA, 0);
    assert_eq!(p.stats().clwb, 0, "zero-length clwb not counted");
}

#[test]
fn persist_all_snapshots_everything() {
    let p = pool(8192);
    for i in 0..64u64 {
        p.write_u64(ROOT_AREA + i * 8, i + 1);
    }
    p.persist_all();
    p.write_u64(ROOT_AREA, 999); // unflushed overwrite
    p.crash();
    assert_eq!(p.read_u64(ROOT_AREA), 1);
    assert_eq!(p.read_u64(ROOT_AREA + 63 * 8), 64);
}

#[test]
fn pool_len_rounds_to_media_block() {
    let p = PmPool::new(1000, PmConfig::real());
    assert_eq!(p.len() % MEDIA_BLOCK, 0);
    assert!(p.len() >= 1000);
    assert!(!p.is_empty());
}

#[test]
fn dirty_tracking_counts_unflushed_words() {
    let p = pool(8192);
    assert_eq!(p.dirty_word_count(), 0);
    p.write_u64(ROOT_AREA, 1);
    p.write_u64(ROOT_AREA + 8, 2); // same cache line
    p.write_u64(ROOT_AREA + 128, 3); // different line
    assert_eq!(p.dirty_word_count(), 3);
    assert_eq!(p.dirty_line_count(), 2);
    p.persist(ROOT_AREA, 8); // flushes the whole first line
    assert_eq!(p.dirty_word_count(), 1);
    assert_eq!(p.dirty_line_count(), 1);
    p.crash();
    assert_eq!(p.dirty_word_count(), 0, "crash discards dirty state");
}

#[test]
fn redundant_clwb_is_audited() {
    let p = pool(8192);
    p.write_u64(ROOT_AREA, 1);
    p.persist(ROOT_AREA, 8);
    assert_eq!(p.stats().clwb_redundant, 0);
    p.persist(ROOT_AREA, 8); // nothing dirty: redundant
    let s = p.stats();
    assert_eq!(s.clwb, 2);
    assert_eq!(s.clwb_redundant, 1);
    // A new store makes the next flush useful again.
    p.write_u64(ROOT_AREA, 2);
    p.persist(ROOT_AREA, 8);
    assert_eq!(p.stats().clwb_redundant, 1);
}

#[test]
fn ntstore_leaves_no_dirt() {
    let p = pool(8192);
    p.ntstore_u64(ROOT_AREA, 42);
    assert_eq!(p.dirty_word_count(), 0);
}

#[test]
fn armed_crash_fires_at_exact_event_and_freezes_pool() {
    let p = pool(8192);
    // Three persistence events per loop iteration: clwb + sfence
    // (via persist) on distinct lines, then an ntstore.
    p.arm_crash_after(5);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for i in 0..10u64 {
            let off = ROOT_AREA + i * 64;
            p.write_u64(off, i + 1);
            p.persist(off, 8); // events 1+2, 4+5, ...
            p.ntstore_u64(off + 8, 100 + i); // events 3, 6, ...
        }
    }));
    let payload = result.expect_err("crash point must fire");
    assert!(
        payload.downcast_ref::<crate::CrashPointHit>().is_some(),
        "panic payload must be CrashPointHit"
    );
    assert!(p.crash_fired());
    let report = p.crash_report().expect("report captured");
    assert_eq!(report.event_index, 5);
    assert_eq!(report.trigger, crate::PersistEventKind::Sfence);
    // Iteration 0 fully persisted; iteration 1's clwb (event 4)
    // persisted its line but the fence (event 5) was the trip; the
    // second iteration's ntstore never ran.
    assert_eq!(report.dirty_words, 0, "clwb already cleaned the line");
    // Lift the halt; while frozen, persistence is suppressed.
    p.disarm_crash();
    p.write_u64(ROOT_AREA + 1024, 7);
    p.persist(ROOT_AREA + 1024, 8);
    p.ntstore_u64(ROOT_AREA + 1032, 8);
    p.crash();
    assert_eq!(
        p.read_u64(ROOT_AREA + 1024),
        0,
        "frozen clwb must not persist"
    );
    assert_eq!(
        p.read_u64(ROOT_AREA + 1032),
        0,
        "frozen ntstore must not persist"
    );
    // Pre-crash durable state survived; post-trip events did not.
    assert_eq!(p.read_u64(ROOT_AREA), 1);
    assert_eq!(p.read_u64(ROOT_AREA + 8), 100);
    assert_eq!(
        p.read_u64(ROOT_AREA + 64),
        2,
        "clwb before the fatal fence persisted"
    );
    assert!(!p.crash_fired(), "crash() clears the frozen state");
    assert!(p.crash_report().is_some(), "report survives crash()");
}

#[test]
fn crash_on_ntstore_suppresses_the_store() {
    let p = pool(8192);
    p.arm_crash_after(1);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        p.ntstore_u64(ROOT_AREA, 99);
    }));
    assert!(result.is_err());
    assert_eq!(
        p.crash_report().unwrap().trigger,
        crate::PersistEventKind::Ntstore
    );
    p.crash();
    assert_eq!(p.read_u64(ROOT_AREA), 0, "fatal ntstore never retired");
}

#[test]
fn disarm_cancels_pending_crash() {
    let p = pool(8192);
    p.arm_crash_after(3);
    p.write_u64(ROOT_AREA, 1);
    p.persist(ROOT_AREA, 8); // events 1, 2
    assert_eq!(p.crash_events_remaining(), 1);
    p.disarm_crash();
    p.persist(ROOT_AREA, 8); // would have been the fatal event
    assert!(!p.crash_fired());
    assert!(p.crash_report().is_none());
}

#[test]
fn chaos_eviction_is_disabled_while_frozen() {
    let p = PmPool::new(1 << 16, PmConfig::real().with_eviction_chaos(7));
    p.arm_crash_after(1);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
    assert!(p.crash_fired());
    p.disarm_crash();
    // A storm of unflushed writes while frozen: none may persist.
    for i in 0..1000u64 {
        p.write_u64(ROOT_AREA + i * 8, i + 1);
    }
    p.crash();
    for i in 0..1000u64 {
        assert_eq!(p.read_u64(ROOT_AREA + i * 8), 0);
    }
}

#[test]
fn event_counter_is_monotonic_and_probe_friendly() {
    let p = pool(8192);
    let base = p.persist_event_count();
    p.write_u64(ROOT_AREA, 1);
    p.persist(ROOT_AREA, 8);
    p.ntstore_u64(ROOT_AREA + 64, 2);
    p.sfence();
    assert_eq!(p.persist_event_count() - base, 4);
}

#[test]
fn cas_and_fetch_ops() {
    let p = pool(8192);
    p.write_u64(ROOT_AREA, 10);
    assert_eq!(p.cas_u64(ROOT_AREA, 10, 11), Ok(10));
    assert_eq!(p.cas_u64(ROOT_AREA, 10, 12), Err(11));
    assert_eq!(p.fetch_or_u64(ROOT_AREA, 0x100, Ordering::AcqRel), 11);
    assert_eq!(p.fetch_and_u64(ROOT_AREA, 0xff, Ordering::AcqRel), 0x10b);
    assert_eq!(p.fetch_add_u64(ROOT_AREA, 1, Ordering::AcqRel), 0x0b);
    assert_eq!(p.read_u64(ROOT_AREA), 0x0c);
}

#[test]
fn crash_with_subset_keeps_exactly_the_masked_lines() {
    let p = pool(8192);
    // Three dirty lines, none flushed.
    p.write_u64(ROOT_AREA, 1);
    p.write_u64(ROOT_AREA + 64, 2);
    p.write_u64(ROOT_AREA + 128, 3);
    assert_eq!(p.residual_candidates().len(), 3);
    // Keep only the middle line (candidates are recency-ordered,
    // so bit 1 is the second-most-recent write: ROOT_AREA + 64).
    let n = p.crash_with(crate::ResidualPolicy::Subset { mask: 0b010 });
    assert_eq!(n, 3);
    assert_eq!(p.read_u64(ROOT_AREA), 0, "unselected line vanished");
    assert_eq!(p.read_u64(ROOT_AREA + 64), 2, "selected line persisted");
    assert_eq!(p.read_u64(ROOT_AREA + 128), 0);
    // The applied line is durable: a second plain crash keeps it.
    p.crash();
    assert_eq!(p.read_u64(ROOT_AREA + 64), 2);
}

#[test]
fn crash_with_frozen_matches_plain_crash() {
    let p = pool(8192);
    p.write_u64(ROOT_AREA, 7);
    p.persist(ROOT_AREA, 8);
    p.write_u64(ROOT_AREA + 64, 8); // dirty, unflushed
    p.crash_with(crate::ResidualPolicy::Frozen);
    assert_eq!(p.read_u64(ROOT_AREA), 7);
    assert_eq!(p.read_u64(ROOT_AREA + 64), 0);
}

#[test]
fn sampled_residual_is_deterministic_per_seed() {
    let run = |seed: u64| -> Vec<u64> {
        let p = pool(1 << 16);
        for i in 0..64u64 {
            p.write_u64(ROOT_AREA + i * 64, i + 1);
        }
        p.crash_with(crate::ResidualPolicy::Sampled {
            seed,
            p_per_256: 128,
        });
        (0..64u64).map(|i| p.read_u64(ROOT_AREA + i * 64)).collect()
    };
    let a = run(42);
    let b = run(42);
    let c = run(43);
    assert_eq!(a, b, "same seed, same residual image");
    assert_ne!(a, c, "different seed, different subset");
    let survived = a.iter().filter(|&&v| v != 0).count();
    assert!(survived > 8 && survived < 56, "p=50%: survived={survived}");
}

#[test]
fn residual_candidates_are_ordered_most_recent_first() {
    let p = pool(8192);
    p.write_u64(ROOT_AREA, 1); // line A, oldest write...
    p.write_u64(ROOT_AREA + 64, 2); // line B
    p.write_u64(ROOT_AREA + 128, 3); // line C
    p.write_u64(ROOT_AREA + 8, 4); // ...but A is rewritten last
    let offs: Vec<u64> = p.residual_candidates().iter().map(|l| l.off).collect();
    assert_eq!(offs, vec![ROOT_AREA, ROOT_AREA + 128, ROOT_AREA + 64]);
    // Flushing a line removes it without disturbing the order.
    p.persist(ROOT_AREA + 128, 8);
    let offs: Vec<u64> = p.residual_candidates().iter().map(|l| l.off).collect();
    assert_eq!(offs, vec![ROOT_AREA, ROOT_AREA + 64]);
}

#[test]
fn residual_candidates_are_frozen_at_the_trip_instant() {
    let p = pool(8192);
    p.write_u64(ROOT_AREA, 1); // dirty at trip time
    p.arm_crash_after(1);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
    assert!(p.crash_fired());
    p.disarm_crash();
    // Post-trip stores (e.g. from unwinding destructors) must not
    // enter the candidate set: they never happened.
    p.write_u64(ROOT_AREA + 512, 99);
    let cands = p.residual_candidates();
    assert_eq!(cands.len(), 1);
    assert_eq!(cands[0].off, ROOT_AREA);
    assert_eq!(cands[0].words[0], 1);
}

#[test]
fn snapshot_restore_roundtrip_resets_everything() {
    let p = pool(8192);
    p.write_u64(ROOT_AREA, 5);
    p.persist(ROOT_AREA, 8);
    let img = p.snapshot_persisted();
    p.write_u64(ROOT_AREA, 6);
    p.persist(ROOT_AREA, 8);
    p.write_u64(ROOT_AREA + 64, 7); // leave dirt
    p.poison_line(ROOT_AREA + 128);
    p.restore_persisted(&img);
    assert_eq!(p.read_u64(ROOT_AREA), 5, "snapshot image restored");
    assert_eq!(p.dirty_word_count(), 0, "restore clears dirt");
    assert_eq!(p.poisoned_line_count(), 0, "restore clears poison");
    p.crash();
    assert_eq!(p.read_u64(ROOT_AREA), 5, "restored image is durable");
}

#[test]
fn poisoned_read_raises_and_check_readable_reports() {
    let p = pool(8192);
    p.write_u64(ROOT_AREA + 256, 11);
    p.persist(ROOT_AREA + 256, 8);
    p.poison_line(ROOT_AREA + 256);
    assert_eq!(p.poisoned_line_count(), 1);
    let err = p
        .check_readable(ROOT_AREA, 1024)
        .expect_err("range covers the poisoned line");
    assert_eq!(err.off, ROOT_AREA + 256);
    assert!(p.check_readable(ROOT_AREA, 64).is_ok());
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read_u64(ROOT_AREA + 256)));
    let payload = r.expect_err("read of poisoned line must raise");
    let mce = payload
        .downcast_ref::<crate::PoisonedRead>()
        .expect("payload is PoisonedRead");
    assert_eq!(mce.off, ROOT_AREA + 256);
    // CAS is a consuming read too.
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = p.cas_u64(ROOT_AREA + 256, 0, 1);
    }));
    assert!(r.is_err(), "RMW on poisoned line must raise");
}

#[test]
fn poison_survives_crash_and_clears_on_full_rewrite() {
    let p = pool(8192);
    p.poison_line(ROOT_AREA + 64);
    p.crash();
    assert_eq!(
        p.poisoned_line_count(),
        1,
        "media errors outlive power cycles"
    );
    // Partial rewrite: still poisoned.
    for j in 0..7u64 {
        p.write_u64(ROOT_AREA + 64 + j * 8, j);
    }
    assert_eq!(p.poisoned_line_count(), 1);
    assert!(p.check_readable(ROOT_AREA + 64, 64).is_err());
    // Final word completes the line: poison clears, data readable.
    p.write_u64(ROOT_AREA + 64 + 56, 7);
    assert_eq!(p.poisoned_line_count(), 0);
    assert!(p.check_readable(ROOT_AREA + 64, 64).is_ok());
    assert_eq!(p.read_u64(ROOT_AREA + 64), 0);
}

#[test]
fn scrub_poison_zero_fills_and_clears() {
    let p = pool(8192);
    p.write_u64(ROOT_AREA + 128, 33);
    p.persist(ROOT_AREA + 128, 8);
    p.poison_line(ROOT_AREA + 128);
    p.scrub_poison(ROOT_AREA + 128, 8);
    assert_eq!(p.poisoned_line_count(), 0);
    assert_eq!(p.read_u64(ROOT_AREA + 128), 0, "scrub zero-fills");
    p.crash();
    assert_eq!(p.read_u64(ROOT_AREA + 128), 0, "scrub reaches media");
}

#[test]
fn a_trip_halts_every_access_until_disarm() {
    let p = pool(8192);
    p.write_u64(ROOT_AREA, 1); // dirty at trip time
    p.arm_crash_after(1);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
    // Any PM access from a non-panicking thread now unwinds: the
    // device is gone.
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.read_u64(ROOT_AREA)));
    assert!(
        r.unwrap_err()
            .downcast_ref::<crate::CrashPointHit>()
            .is_some(),
        "halted access unwinds with CrashPointHit"
    );
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.write_u64(ROOT_AREA, 1)));
    assert!(r.is_err());
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
    assert!(r.is_err());
    // The harness lifts the halt before dropping front-ends; the image
    // stays frozen and the cut stays captured.
    p.disarm_crash();
    assert!(p.crash_fired());
    assert_eq!(p.read_u64(ROOT_AREA), 1);
    p.write_u64(ROOT_AREA + 64, 2);
    p.persist(ROOT_AREA + 64, 8);
    assert_eq!(p.residual_candidates().len(), 1);
    assert_eq!(p.crash_report().unwrap().dirty_lines, 1);
    p.crash();
    assert!(!p.crash_fired(), "crash() clears the freeze");
    assert_eq!(p.read_u64(ROOT_AREA), 0);
    assert_eq!(
        p.read_u64(ROOT_AREA + 64),
        0,
        "frozen persist was suppressed"
    );
}

#[test]
fn unwinding_threads_pass_the_halt() {
    let p = pool(8192);
    p.arm_crash_after(1);
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| p.sfence()));
    // A destructor that stores to PM while its thread unwinds must not
    // double-panic (which would abort the process).
    struct StoreOnDrop<'a>(&'a PmPool);
    impl Drop for StoreOnDrop<'_> {
        fn drop(&mut self) {
            self.0.write_u64(ROOT_AREA, 7);
        }
    }
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = StoreOnDrop(&p);
        p.read_u64(ROOT_AREA)
    }));
    assert!(r.is_err(), "the halted read unwinds");
    p.disarm_crash();
    assert_eq!(p.read_u64(ROOT_AREA), 7, "the unwinding store landed");
}
