//! Golden accounting guard rail for the `pmem` data path.
//!
//! Everything the emulator *counts* is a hardware-independent proxy:
//! persistence events, the ten [`PmStatsSnapshot`] counters, the dirty
//! bitmap and the recency-ordered residual candidates. A change that
//! only makes the emulator cheaper must leave every one of them
//! bit-identical, so they are pinned here against constants recorded
//! from the commit *before* the data path was reworked. A mismatch
//! prints the whole actual table in the constants' own syntax.
//!
//! Rows whose `read_ops` / `read_bytes` were re-recorded since (the
//! comment above `GOLDEN_KINDS` says why, change by change):
//!
//! - `read_ops` of nvtree rows 4..8 and bztree rows 13..16, when a
//!   read charged each media block against the block before it and the
//!   two kinds stopped splitting their whole-node copies by media block.
//!
//! One `#[test]` per index kind, on whatever threads the harness picks:
//! the allocator and PMwCAS assign their per-thread slots per instance
//! (`pmem::ThreadSlots`), so the PM offsets a workload writes are a pure
//! function of its seed, whatever else the process has allocated.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use pm_index_bench::crashpoint::single::Single;
use pm_index_bench::crashpoint::{
    self, build_index, install_quiet_crash_hook, workload, ResidualConfig, SweepOptions,
};
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{
    CrashPointHit, PmConfig, PmPool, PmStatsSnapshot, CACHELINE, MEDIA_BLOCK, ROOT_AREA,
};

const KINDS: [&str; 5] = ["fptree", "nvtree", "wbtree", "bztree", "learned"];
const OPS: u64 = 2_000;
const KEY_RANGE: u64 = 512;
const SEED: u64 = 0x601D;
/// Armed boundaries (events after index creation); `u64::MAX` = the
/// whole workload, never tripping.
const BOUNDARIES: [u64; 4] = [211, 1_009, 2_003, u64::MAX];

/// Everything the pool counted at one instant:
/// `[events, read_ops, read_bytes, write_ops, write_bytes,
///   media_read_bytes, media_write_bytes, clwb, clwb_redundant, ntstore,
///   fence, dirty_words, dirty_lines, residual_lines, residual_digest]`.
type Row = [u64; 15];

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(29)
        .wrapping_add(0xD1B5_4A32_D192_ED03)
}

fn observe(pool: &PmPool) -> Row {
    let s: PmStatsSnapshot = pool.stats();
    let cands = pool.residual_candidates();
    // Order-sensitive digest of the candidates' offsets and contents.
    let digest = cands.iter().fold(0u64, |h, l| {
        l.words.iter().fold(mix(h, l.off), |h, &w| mix(h, w))
    });
    [
        pool.persist_event_count(),
        s.read_ops,
        s.read_bytes,
        s.write_ops,
        s.write_bytes,
        s.media_read_bytes,
        s.media_write_bytes,
        s.clwb,
        s.clwb_redundant,
        s.ntstore,
        s.fence,
        pool.dirty_word_count(),
        pool.dirty_line_count(),
        cands.len() as u64,
        digest,
    ]
}

/// Run the seeded workload on a fresh `kind`, armed to lose power at
/// `boundary`, and observe the pool at the trip (or at the end).
fn run_kind(kind: &str, boundary: u64) -> Row {
    let pool = Arc::new(PmPool::new(16 << 20, PmConfig::real()));
    let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
    let idx = build_index(kind, alloc);
    if boundary != u64::MAX {
        pool.arm_crash_after(boundary);
    }
    let ops = workload(SEED, OPS, KEY_RANGE);
    let tripped = catch_unwind(AssertUnwindSafe(|| {
        for (i, op) in ops.iter().enumerate() {
            op.apply(&*idx, &mut Vec::new());
            if i % 7 == 0 {
                idx.lookup(op.key());
            }
            if i % 97 == 0 {
                idx.scan(op.key(), 20, &mut Vec::new());
            }
            // The live set fits the modelled block cache; evict it now
            // and then so index reads reach the media again.
            if i % 53 == 0 {
                for b in 0..512u64 {
                    pool.read_u64((8 << 20) + b * MEDIA_BLOCK as u64);
                }
            }
        }
    }));
    match tripped {
        Err(p) if p.downcast_ref::<CrashPointHit>().is_none() => resume_unwind(p),
        Err(_) => assert!(pool.crash_fired(), "{kind}: unwound without a trip"),
        Ok(()) => assert_eq!(
            boundary,
            u64::MAX,
            "{kind}: boundary {boundary} never fired"
        ),
    }
    let row = observe(&pool);
    // The candidates captured at the trip are what `crash_with` uses.
    if boundary != u64::MAX {
        assert_eq!(pool.crash_report().expect("report").event_index, row[0]);
    }
    row
}

/// What one `crashpoint` sweep of the `Single` scenario decided:
/// `[total_events, boundaries_tested, crashes_fired, completed_runs,
///   clwb trips, ntstore trips, sfence trips, max_dirty_lines,
///   max_dirty_words, probe_redundant_clwb, samples_run,
///   exhaustive_boundaries, max_residual_candidates]` — and no failing
/// boundary, i.e. the per-boundary verdict vector is all green.
type Sweep = [u64; 13];

fn sweep(kind: &str, residual: ResidualConfig) -> Sweep {
    let opts = SweepOptions {
        kind: kind.to_string(),
        ops: 60,
        key_range: 48,
        seed: 21,
        pool_mib: 16,
        stride: 9,
        residual,
        ..SweepOptions::default()
    };
    let s = crashpoint::sweep(&Single::default(), &opts);
    let failing: Vec<u64> = s.failures.iter().map(|f| f.boundary).collect();
    assert!(failing.is_empty(), "{kind}: red boundaries {failing:?}");
    [
        s.probe_events[0],
        s.boundaries_tested,
        s.crashes_fired,
        s.completed_runs,
        s.trigger_histogram[0],
        s.trigger_histogram[1],
        s.trigger_histogram[2],
        s.max_dirty_lines,
        s.max_dirty_words,
        s.probe_redundant_clwb,
        s.samples_run,
        s.exhaustive_boundaries,
        s.max_residual_candidates,
    ]
}

/// `None` when `actual` is the golden table, else the actual table in
/// the constants' syntax.
fn moved<const N: usize>(what: &str, actual: &[[u64; N]], golden: &[[u64; N]]) -> Option<String> {
    let rows: Vec<String> = actual.iter().map(|r| format!("    {r:?},")).collect();
    (actual != golden).then(|| format!("{what} moved; actual table:\n{}", rows.join("\n")))
}

// Recorded from commit a156a18 (the parent of the data-path rework),
// then re-recorded on purpose, kind by kind. Two kinds in the commit
// after e615c77:
// - fptree (rows 0..4, sweeps 0 and 5): its leaf stores each record as
//   one 16-byte (key, value) cell, so writing a record flushes one pair
//   line instead of a key line and a value line, and insert / update /
//   remove no longer read the value they discard;
// - wbtree (rows 8..12): `Node::route` lost a `debug_assert` that read
//   the node bitmap through the counted path, so these rows are the
//   release-build counts, and debug and release now agree for every kind.
// And bztree (rows 12..16, sweep 3) in the commit after 8e6c60f: a k-word
// PMwCAS writes back 2k + 2 lines and fences 4 times (one describe
// persist, one fence per phase, an unpersisted retire), an append runs
// two 2-word PMwCAS (reserve, commit) instead of three, an insert
// re-checks only the slots its probe did not decide, and a new node
// writes and persists only its used prefix.
// And learned (rows 16..20) in the commit after ebebdd3: a generation
// no longer persists its trained segments (a chunk, a chunk directory
// and 3 descriptor words; recovery retrains them from the keys), so a
// merge writes, flushes and frees less, and each armed boundary falls
// later in the workload (rows 16..18 read more: they run more ops, and
// their block-cache eviction passes, before the trip). Its frozen sweep
// (sweep 4, 60 ops) never merges and did not move.
// And only the read_ops and read_bytes columns of nvtree, wbtree and
// bztree (rows 4..16) in the commit after 3a628c2: NV-Tree and BzTree
// copy a leaf's entry and meta arrays one media block per access instead
// of one word per access (more bytes copied, far fewer accesses, the same
// media blocks), an NV-Tree write reads its leaf's count word once, a
// BzTree inner-node copy no longer reads the status word it never used,
// and a wB+Tree insert / update / remove reuses the bitmap, slot array
// and rank its probe read. Media bytes and every write, flush, fence, dirty and
// residual column stayed put.
// And only the read_ops column of nvtree (rows 4..8) and bztree (rows
// 13..16) in the commit after 684b5ff: NV-Tree copies a leaf's entries
// and its used flag words with one access each, BzTree a leaf's used meta
// words and its records with one access each and an inner node's records
// with one, where each read one media block per access; the same bytes
// are copied from the same blocks.
#[rustfmt::skip]
const GOLDEN_KINDS: [Row; 20] = [
    [229, 1111, 9496, 16922, 135425, 132352, 165376, 131, 1, 0, 98, 188, 33, 33, 8779647027965650296],
    [1027, 5237, 45568, 18040, 144558, 160256, 284672, 589, 1, 0, 438, 198, 43, 43, 12279532017243445233],
    [2021, 10565, 92672, 19480, 156301, 230144, 432896, 1157, 8, 0, 864, 207, 52, 52, 4578296664713945052],
    [5272, 33224, 291248, 24598, 197868, 615168, 917248, 3034, 48, 0, 2238, 223, 68, 68, 9542032231336094624],
    [229, 1638, 24824, 17028, 136224, 135680, 166400, 134, 2, 0, 95, 192, 36, 36, 8892888665750465592],
    [1027, 5245, 107856, 18706, 149648, 168960, 291840, 596, 2, 0, 431, 216, 60, 60, 12571008749128085570],
    [2021, 11023, 227000, 20649, 165192, 262144, 446720, 1177, 2, 0, 844, 239, 84, 84, 6774367785807556427],
    [5677, 32577, 691432, 28034, 224272, 738560, 1014528, 3306, 2, 0, 2371, 308, 153, 153, 693060505903811951],
    [231, 1146, 9083, 16793, 134372, 132352, 163328, 125, 1, 0, 106, 186, 31, 31, 13481685062997594245],
    [1029, 4327, 34326, 17347, 138909, 143872, 273664, 557, 1, 0, 472, 187, 32, 32, 17120724689833639400],
    [2023, 9226, 73400, 17995, 144219, 175872, 412160, 1097, 1, 0, 926, 186, 31, 31, 13481685062997594245],
    [10832, 67144, 538507, 23377, 188413, 932608, 1630720, 5857, 1, 0, 4975, 186, 31, 31, 13481685062997594245],
    [233, 1001, 8504, 17886, 144184, 132864, 173824, 136, 0, 0, 97, 202, 35, 35, 6862848875245412488],
    [1031, 2804, 26552, 18650, 155584, 140800, 293376, 598, 0, 0, 433, 211, 51, 51, 13484566424171294570],
    [2025, 5202, 49768, 19612, 169600, 146688, 442368, 1174, 0, 0, 851, 227, 67, 67, 14073206204726850790],
    [22564, 80102, 751648, 39618, 457144, 1584128, 3537920, 13174, 0, 0, 9390, 501, 335, 335, 10520299578853944158],
    [235, 2309, 18472, 16758, 137424, 138752, 162048, 118, 0, 0, 117, 196, 33, 33, 964687993648681745],
    [1033, 8807, 70456, 17157, 163792, 212736, 275968, 517, 0, 0, 516, 196, 33, 33, 18241358908674399658],
    [2027, 17671, 141368, 17654, 194384, 303360, 414720, 1014, 0, 0, 1013, 320, 48, 48, 2719999653718536999],
    [2530, 22160, 177280, 17905, 210464, 353280, 486656, 1265, 0, 0, 1265, 192, 32, 32, 10133909501135342628],
];

#[rustfmt::skip]
const GOLDEN_SWEEPS: [Sweep; 7] = [
    [169, 19, 19, 0, 11, 0, 8, 35, 207, 2, 19, 0, 35],
    [157, 18, 18, 0, 10, 0, 8, 35, 192, 2, 18, 0, 35],
    [343, 39, 39, 0, 18, 0, 21, 33, 196, 1, 39, 0, 33],
    [678, 76, 76, 0, 45, 0, 31, 42, 208, 0, 76, 0, 42],
    [60, 7, 7, 0, 4, 0, 3, 33, 196, 0, 7, 0, 33],
    [169, 19, 19, 0, 11, 0, 8, 35, 207, 2, 171, 19, 35],
    [343, 39, 39, 0, 18, 0, 21, 33, 196, 1, 351, 39, 33],
];

#[rustfmt::skip]
const GOLDEN_RAW: [Row; 4] = [
    [2859, 30738, 442017, 3230, 221156, 611072, 633088, 1138, 854, 562, 1159, 22416, 4338, 4338, 4304648439050459343],
    [1500, 16082, 238598, 1781, 124378, 337664, 324608, 595, 509, 292, 613, 14002, 2765, 2765, 12793764386706407750],
    [2859, 30738, 442017, 3230, 221156, 611072, 633088, 1138, 882, 562, 1159, 16884, 4004, 4004, 3187370865884824480],
    [2859, 30738, 442017, 3230, 221156, 611072, 0, 1138, 0, 562, 1159, 25579, 5279, 5279, 4474642636736431032],
];

/// Kind `i` of [`KINDS`]: its four armed workloads and its frozen crash
/// sweep, plus the frontier sweep `GOLDEN_SWEEPS[frontier]` if it has
/// one (the enumeration leans on the recency order of the residual
/// candidates).
fn kind_counts_what_the_parent_counted(i: usize, frontier: Option<usize>) {
    install_quiet_crash_hook();
    let kind = KINDS[i];
    let rows: Vec<Row> = BOUNDARIES.iter().map(|&b| run_kind(kind, b)).collect();
    let mut sweeps = vec![sweep(kind, ResidualConfig::Frozen)];
    let mut golden_sweeps = vec![GOLDEN_SWEEPS[i]];
    if let Some(at) = frontier {
        let exhaustive = ResidualConfig::Exhaustive {
            max_lines: 3,
            fallback_samples: 1,
        };
        sweeps.push(sweep(kind, exhaustive));
        golden_sweeps.push(GOLDEN_SWEEPS[at]);
    }
    let diffs: Vec<String> = [
        moved(
            "per-kind accounting",
            &rows,
            &GOLDEN_KINDS[4 * i..4 * i + 4],
        ),
        moved("crash sweeps", &sweeps, &golden_sweeps),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(diffs.is_empty(), "{kind}: {}", diffs.join("\n"));
}

#[test]
fn fptree_counts_exactly_what_the_parent_counted() {
    kind_counts_what_the_parent_counted(0, Some(5));
}

#[test]
fn nvtree_counts_exactly_what_the_parent_counted() {
    kind_counts_what_the_parent_counted(1, None);
}

#[test]
fn wbtree_counts_exactly_what_the_parent_counted() {
    kind_counts_what_the_parent_counted(2, Some(6));
}

#[test]
fn bztree_counts_exactly_what_the_parent_counted() {
    kind_counts_what_the_parent_counted(3, None);
}

#[test]
fn learned_counts_exactly_what_the_parent_counted() {
    kind_counts_what_the_parent_counted(4, None);
}

/// A script over the bare pool that reaches what index code rarely
/// does: unaligned byte ranges across words, lines and media blocks,
/// multi-line and redundant flushes, RMWs, ntstores, word-array accesses.
fn raw_script(pool: &PmPool, rounds: u64) {
    let span = pool.len() as u64 - ROOT_AREA - 4096;
    let mut x = SEED;
    let mut buf = [0u8; 700];
    for i in 0..rounds {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let off = ROOT_AREA + (x >> 20) % span;
        let word = off & !7;
        let len = 1 + (x >> 8) as usize % buf.len();
        match x % 11 {
            0 => pool.write_u64(word, x),
            1 => drop(pool.read_u64(word)),
            2 => {
                buf[..len].iter_mut().for_each(|b| *b = x as u8);
                pool.write_bytes(off, &buf[..len]);
            }
            3 => pool.read_bytes(off, &mut buf[..len]),
            4 => pool.clwb(off, len),
            5 => pool.persist(word, 8),
            6 => pool.ntstore_u64(word, i),
            7 => drop(pool.cas_u64(word, 0, x)),
            8 => drop(pool.fetch_add_u64(word, 1, Ordering::AcqRel)),
            9 => {
                pool.write_words(word, &[x; 4]);
                let mut back = [0; 4];
                pool.read_words(word, &mut back);
                assert_eq!(back, [x; 4]);
            }
            _ => pool.sfence(),
        }
        // Sequential runs exercise the same-block and next-block rules.
        if x.is_multiple_of(13) {
            for j in 0..(CACHELINE as u64) {
                pool.read_u64(word + j * 8);
            }
        }
    }
}

#[test]
fn raw_pool_script_counts_exactly_what_the_parent_counted() {
    install_quiet_crash_hook();
    let mut rows = Vec::new();
    for (cfg, boundary) in [
        (PmConfig::real(), u64::MAX),
        (PmConfig::real(), 1_500),
        (PmConfig::real().with_eviction_chaos(9), u64::MAX),
        (PmConfig::dram(), u64::MAX),
    ] {
        let pool = PmPool::new(1 << 20, cfg);
        if boundary != u64::MAX {
            pool.arm_crash_after(boundary);
        }
        let r = catch_unwind(AssertUnwindSafe(|| raw_script(&pool, 6_000)));
        assert_eq!(r.is_err(), boundary != u64::MAX);
        let row = observe(&pool);
        // Power-cycle with the recency-ordered frontier kept, then make
        // sure the image that survives is the same one, too.
        pool.crash_with(pm_index_bench::pmem::ResidualPolicy::Subset { mask: 0b1011 });
        let image = pool
            .snapshot_persisted()
            .iter()
            .fold(row[14], |h, &w| mix(h, w));
        rows.push({
            let mut r = row;
            r[14] = image;
            r
        });
    }
    if let Some(diff) = moved("raw pool accounting", &rows, &GOLDEN_RAW) {
        panic!("{diff}");
    }
}
