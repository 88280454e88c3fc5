//! Inspect what an index actually does to the device.
//!
//! Subcommands:
//!
//! * `footprint` (default) — run one operation of each kind against an
//!   index (`--kind <name|all>`, default `fptree`) and print the exact
//!   PM read/write/flush/fence footprint, including redundant flushes —
//!   the per-operation cost model the paper's analysis sections reason
//!   about. For `--kind learned` the trained model's shape (segment
//!   count, ε, delta-log occupancy, merges) is printed alongside.
//! * `crashpoints` — systematic crash-point exploration: count the
//!   persistence events of a mixed workload, crash at every boundary,
//!   recover, and verify the oracle invariant (see `crates/crashpoint`).
//!   Beyond the frozen image, `--samples` turns on the torn-write model
//!   (seeded residual images per boundary), `--exhaustive` enumerates
//!   all subsets of the write frontier, and `--poison` injects a media
//!   error into one lost line per sampled image.
//! * `mtcrash` — multi-threaded crash consistency: crash while 2–8
//!   threads hammer one index, then recover sampled residual images and
//!   check the relaxed concurrent oracle.
//! * `shardcrash` — sharded crash consistency: run the workload through
//!   a range-partitioned `engine::ShardedIndex`, arm one shard's pool at
//!   a time, and verify the cross-shard oracle plus byte-level shard
//!   isolation (untouched shards bit-identical through recovery).
//! * `netcrash` — crash-through-the-server durability: drive the write
//!   workload over real TCP against a `net::Server` with group
//!   durability, arm one shard's pool at every persistence boundary,
//!   and verify after each cut that every **acked** write survives
//!   recovery and the unacked pipeline reconciles as a clean prefix
//!   (at most one torn in-flight op). `--cache-mb N` fronts the served
//!   index with an N MiB DRAM hot-key tier; recovery still reads the
//!   raw pools, so a green sweep proves the cache never serves an
//!   acked-but-lost write.
//!
//! ```sh
//! cargo run --release --example pm_inspector
//! cargo run --release --example pm_inspector -- footprint --kind learned
//! cargo run --release --example pm_inspector -- crashpoints --kind wbtree --ops 200
//! cargo run --release --example pm_inspector -- crashpoints --kind all --samples 4 --poison
//! cargo run --release --example pm_inspector -- mtcrash --kind all --threads 4
//! cargo run --release --example pm_inspector -- shardcrash --kind all --shards 4 --stride 17
//! cargo run --release --example pm_inspector -- netcrash --kind all --ops 1000 --stride 1
//! cargo run --release --example pm_inspector -- netcrash --kind fptree --stride 101 --cache-mb 4
//! ```
//!
//! `crashpoints` flags: `--kind <name|all>`, `--ops N`, `--key-range N`,
//! `--seed N`, `--chaos`, `--stride N`, `--max-boundaries N`,
//! `--samples N`, `--p-per-256 N`, `--exhaustive LINES`, `--poison`,
//! `--trace` (arm the `obs` flight recorder: every fired crash
//! snapshots the last PM events before the cut, printed on any oracle
//! violation and once per kind for the first crash).
//!
//! `mtcrash` flags: `--kind <name|all>`, `--threads N`, `--ops N` (per
//! thread), `--boundaries N`, `--seed N`, `--samples N`, `--p-per-256 N`,
//! `--exhaustive LINES`, `--poison`.
//!
//! `shardcrash` flags: `--kind <name|all>`, `--shards N`, `--ops N`,
//! `--key-range N`, `--seed N`, `--stride N`, `--max-boundaries N` (per
//! armed shard).
//!
//! `netcrash` flags: `--kind <name|all>`, `--shards N`, `--ops N`,
//! `--key-range N`, `--seed N`, `--stride N`, `--max-boundaries N`,
//! `--window N`, `--cache-mb N` (each shard's pool is armed in turn).
//!
//! Every run prints its seed; any failure is exactly reproducible by
//! re-running with the printed flags. An unknown flag, a missing or
//! non-integer value or an unknown `--kind` exits 2 before anything
//! runs.

use std::sync::Arc;

use pm_index_bench::crashpoint::mt::Mt;
use pm_index_bench::crashpoint::sharded::Sharded;
use pm_index_bench::crashpoint::single::Single;
use pm_index_bench::crashpoint::{
    kind as kind_row, kinds_and, sweep, ResidualConfig, Shape, SweepOptions, SweepSummary, PM_KINDS,
};
use pm_index_bench::index_api::RangeIndex;
use pm_index_bench::learned::{LearnedConfig, LearnedIndex};
use pm_index_bench::net::crash::Net;
use pm_index_bench::pibench::cli::{self, Arg, Flags, Spec};
use pm_index_bench::pibench::report::Table;
use pm_index_bench::pmalloc::{AllocMode, PmAllocator};
use pm_index_bench::pmem::{PmConfig, PmPool, PmStatsSnapshot};

type Flag = (&'static str, Arg);

/// `--kind <name|all>`, taken by every subcommand.
const KIND: Flag = ("--kind", Arg::OneOf(&kinds_and("all")));
const OPS: Flag = ("--ops", Arg::Int(1));
const KEY_RANGE: Flag = ("--key-range", Arg::Int(1));
const SEED: Flag = ("--seed", Arg::Int(0));
const STRIDE: Flag = ("--stride", Arg::Int(1));
const MAX_BOUNDARIES: Flag = ("--max-boundaries", Arg::Int(0));
const SHARDS: Flag = ("--shards", Arg::Int(1));
const THREADS: Flag = ("--threads", Arg::Int(1));
const SAMPLES: Flag = ("--samples", Arg::Int(0));
const P_PER_256: Flag = ("--p-per-256", Arg::Int(0));
const EXHAUSTIVE: Flag = ("--exhaustive", Arg::Int(0));
const POISON: Flag = ("--poison", Arg::Switch);

fn main() {
    let args = cli::args();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("footprint", &[][..]),
    };
    let flags = |spec: Spec| Flags::parse(rest, spec).unwrap_or_else(|msg| cli::fail(&msg));
    if let Some(row) = SWEEPS.iter().find(|row| row.name == cmd) {
        crash_sweep(row, &flags(row.flags));
        return;
    }
    match cmd {
        "footprint" => kinds(&flags(&[KIND]), "fptree")
            .into_iter()
            .for_each(footprint_one),
        other => cli::fail(&format!(
            "unknown subcommand {other:?}; expected `footprint`, `crashpoints`, `mtcrash`, \
             `shardcrash` or `netcrash`"
        )),
    }
}

/// The index kinds `--kind` selects.
fn kinds(f: &Flags, default: &str) -> Vec<&'static str> {
    let kind = f.text("--kind").unwrap_or(default);
    let all = kind == "all";
    PM_KINDS.into_iter().filter(|k| all || *k == kind).collect()
}

fn footprint_one(kind: &'static str) {
    let pool = Arc::new(PmPool::new(96 << 20, PmConfig::real()));
    let alloc = PmAllocator::format(pool.clone(), AllocMode::General);
    // The learned index keeps its concrete handle so the model stats
    // stay reachable behind the type-erased probe loop.
    let learned =
        (kind == "learned").then(|| LearnedIndex::create(alloc.clone(), LearnedConfig::default()));
    let tree: Arc<dyn RangeIndex> = match &learned {
        Some(t) => t.clone(),
        None => kind_row(kind).create(alloc, Shape::Default),
    };
    for k in 0..100_000u64 {
        tree.insert(k * 2, k);
    }

    let mut header = vec!["operation"];
    header.extend(PmStatsSnapshot::NAMES);
    let mut table = Table::new(header);
    let mut probe = |label: &str, f: &dyn Fn()| {
        pool.reset_stats();
        f();
        let mut row = vec![label.to_string()];
        row.extend(pool.stats().to_array().map(|n| n.to_string()));
        table.row(row);
    };

    probe("lookup (hit)", &|| {
        tree.lookup(50_000);
    });
    probe("lookup (miss)", &|| {
        tree.lookup(50_001);
    });
    probe("insert (no split)", &|| {
        tree.insert(50_001, 1);
    });
    probe("update", &|| {
        tree.update(50_000, 2);
    });
    probe("remove", &|| {
        tree.remove(50_001);
    });
    probe("scan 100", &|| {
        let mut out = Vec::new();
        tree.scan(10_000, 100, &mut out);
    });

    println!(
        "{} per-operation PM footprint (100k records prefilled):\n",
        tree.name()
    );
    print!("{}", table.to_text());
    if kind == "fptree" {
        println!(
            "\nNote the fingerprint effect: a miss touches almost no key words, \
             and the insert's cost is dominated by the record flush + the \
             atomic bitmap publication (2 fence rounds). A non-zero redundant \
             clwb count would flag lines flushed while already clean."
        );
    }
    if let Some(t) = learned {
        let s = t.model_stats();
        println!(
            "\nlearned model: epoch {}, {} keys in {} segments (ε = {}), \
             delta log {}/{} entries, {} merges so far",
            s.epoch, s.model_keys, s.segments, s.epsilon, s.delta_len, s.delta_cap, s.merges
        );
    }
    println!();
}

// ---------------------------------------------------------------------------
// Crash sweeps: one driver loop over a table of scenarios
// ---------------------------------------------------------------------------

/// One table column: header and cell.
type Column = (&'static str, fn(&Flags, &SweepSummary) -> String);

/// One crash-sweep subcommand.
struct SweepRow {
    name: &'static str,
    /// The flags it takes.
    flags: Spec<'static>,
    /// Defaults of `--ops`, `--key-range`, each pool's MiB and the
    /// residual model.
    ops: u64,
    key_range: u64,
    pool_mib: usize,
    residual: ResidualConfig,
    /// What the banner says about the scenario.
    describe: fn(&Flags) -> String,
    /// Build the scenario from the flags and sweep it: one summary per
    /// table row.
    run: fn(&Flags, SweepOptions) -> Vec<SweepSummary>,
    title: &'static str,
    /// The columns between `index` and `failures`.
    columns: &'static [Column],
    /// RESULT text: what kind of violation a red sweep found, and what
    /// a green one proved.
    violations: &'static str,
    green: &'static str,
}

fn joined(xs: &[impl ToString]) -> String {
    let xs: Vec<String> = xs.iter().map(ToString::to_string).collect();
    xs.join("/")
}

const PROBE: Column = ("probe events", |_, s| joined(&s.probe_events));
const BOUNDARIES: Column = ("boundaries", |_, s| s.boundaries_tested.to_string());
const CRASHES: Column = ("crashes", |_, s| s.crashes_fired.to_string());
const SAMPLES_RUN: Column = ("samples", |_, s| s.samples_run.to_string());
const MAX_CANDS: Column = ("max cands", |_, s| s.max_residual_candidates.to_string());
const POISONED: Column = ("poison inj/rep", |_, s| {
    format!("{}/{}", s.poison_injected, s.poison_reported)
});

fn shards(f: &Flags, default: u64) -> usize {
    f.int("--shards").unwrap_or(default) as usize
}

fn threads(f: &Flags) -> usize {
    f.int("--threads").unwrap_or(4) as usize
}

fn net_scenario(f: &Flags) -> Net {
    Net {
        shards: shards(f, 2),
        window: f.int("--window").unwrap_or(32) as usize,
        cache_mb: f.int("--cache-mb").unwrap_or(0) as usize,
    }
}

static SWEEPS: [SweepRow; 4] = [
    SweepRow {
        name: "crashpoints",
        flags: &[
            KIND,
            OPS,
            KEY_RANGE,
            SEED,
            STRIDE,
            MAX_BOUNDARIES,
            SAMPLES,
            P_PER_256,
            EXHAUSTIVE,
            POISON,
            ("--chaos", Arg::Switch),
            ("--trace", Arg::Switch),
        ],
        ops: 200,
        key_range: 128,
        pool_mib: 32,
        residual: ResidualConfig::Frozen,
        describe: |f| format!("trace {}", f.on("--trace")),
        run: |f, o| {
            let chaos_seed = f.on("--chaos").then_some(o.seed ^ 0x9e3779b97f4a7c15);
            vec![sweep(&Single { chaos_seed }, &o)]
        },
        title: "Crash-point exploration",
        columns: &[
            ("chaos", |f, _| f.on("--chaos").to_string()),
            ("events", PROBE.1),
            BOUNDARIES,
            CRASHES,
            SAMPLES_RUN,
            ("exhaustive", |_, s| s.exhaustive_boundaries.to_string()),
            MAX_CANDS,
            POISONED,
            ("max dirty lines", |_, s| s.max_dirty_lines.to_string()),
            ("redundant clwb", |_, s| s.probe_redundant_clwb.to_string()),
        ],
        violations: "oracle",
        green: "every explored crash image recovered correctly — no \
                acknowledged-but-unflushed state, no torn structure, no \
                garbage from poisoned lines.",
    },
    SweepRow {
        name: "mtcrash",
        flags: &[
            KIND,
            THREADS,
            OPS,
            ("--boundaries", Arg::Int(0)),
            SEED,
            SAMPLES,
            P_PER_256,
            EXHAUSTIVE,
            POISON,
        ],
        ops: 200,
        key_range: 128,
        pool_mib: 32,
        // Sampled torn writes unless the flags pick another model.
        residual: ResidualConfig::Sampled {
            samples: 3,
            p_per_256: 128,
        },
        describe: |f| format!("{} threads", threads(f)),
        run: |f, mut o| {
            o.max_boundaries = f.int("--boundaries");
            let threads = threads(f);
            vec![sweep(&Mt { threads }, &o)]
        },
        title: "Multi-threaded crash consistency",
        columns: &[
            ("threads", |f, _| threads(f).to_string()),
            BOUNDARIES,
            CRASHES,
            ("threads cut", |_, s| s.counter("threads_cut").to_string()),
            SAMPLES_RUN,
            MAX_CANDS,
            POISONED,
        ],
        violations: "concurrent-crash",
        green: "every concurrent crash recovered to a state satisfying \
                the relaxed oracle — acknowledged operations survive, in-flight \
                operations are atomic, no torn values.",
    },
    SweepRow {
        name: "shardcrash",
        flags: &[KIND, SHARDS, OPS, KEY_RANGE, SEED, STRIDE, MAX_BOUNDARIES],
        ops: 400,
        key_range: 96,
        pool_mib: 8,
        residual: ResidualConfig::Frozen,
        describe: |f| format!("{} shards (one pool + allocator each)", shards(f, 4)),
        run: |f, o| {
            let shards = shards(f, 4);
            vec![sweep(&Sharded { shards }, &o)]
        },
        title: "Sharded crash consistency",
        columns: &[
            ("shards", |f, _| shards(f, 4).to_string()),
            ("probe events/shard", PROBE.1),
            BOUNDARIES,
            CRASHES,
            ("isolation checks", |_, s| {
                s.counter("isolation_checks").to_string()
            }),
        ],
        violations: "cross-shard",
        green: "every armed-shard crash recovered correctly — \
                acknowledged operations on every shard survive, the in-flight \
                op is atomic, and untouched shards stay bit-identical through \
                the armed shard's recovery.",
    },
    SweepRow {
        name: "netcrash",
        flags: &[
            KIND,
            SHARDS,
            OPS,
            KEY_RANGE,
            SEED,
            STRIDE,
            MAX_BOUNDARIES,
            ("--window", Arg::Int(1)),
            ("--cache-mb", Arg::Int(0)),
        ],
        ops: 400,
        key_range: 96,
        pool_mib: 8,
        residual: ResidualConfig::Frozen,
        describe: |f| {
            let n = net_scenario(f);
            format!(
                "{} shards behind one TCP server (window {}, cache {} MiB), \
                 arming each shard in turn",
                n.shards, n.window, n.cache_mb
            )
        },
        // One sweep, and one table row, per armed shard.
        run: |f, o| {
            let net = net_scenario(f);
            let arm = |shard| SweepOptions {
                arm_pools: vec![shard],
                ..o.clone()
            };
            (0..net.shards).map(|i| sweep(&net, &arm(i))).collect()
        },
        title: "Crash-through-the-server durability",
        columns: &[
            ("armed shard", |_, s| joined(&s.armed_pools)),
            ("probe events", |_, s| {
                let armed = s.armed_pools.iter().map(|&p| s.probe_events[p]);
                joined(&armed.collect::<Vec<_>>())
            }),
            BOUNDARIES,
            CRASHES,
            ("completed", |_, s| s.completed_runs.to_string()),
            ("acks", |_, s| s.counter("acked_total").to_string()),
            ("max unacked", |_, s| s.counter("max_unacked").to_string()),
        ],
        violations: "durable-ack",
        green: "every boundary cut behind the serving layer recovered \
                correctly — every acked write survives, the unacked pipeline \
                reconciles as a clean prefix, nothing is torn.",
    },
];

/// The residual model selected by `--samples` / `--p-per-256` /
/// `--exhaustive` (`--poison` implies sampling so there are lost lines
/// to poison), else the row's default.
fn residual(f: &Flags, default: ResidualConfig) -> ResidualConfig {
    let samples = f.int("--samples");
    if let Some(max_lines) = f.int("--exhaustive") {
        ResidualConfig::Exhaustive {
            max_lines: max_lines as u32,
            fallback_samples: samples.unwrap_or(2) as u32,
        }
    } else if samples.is_some() || f.on("--poison") {
        ResidualConfig::Sampled {
            samples: samples.unwrap_or(4) as u32,
            p_per_256: f.int("--p-per-256").unwrap_or(128) as u32,
        }
    } else {
        default
    }
}

fn print_tail(tail: &str) {
    for line in tail.lines() {
        println!("    {line}");
    }
}

/// Run one row of [`SWEEPS`] over the selected kinds; exits 1 on any
/// violation.
fn crash_sweep(row: &SweepRow, f: &Flags) {
    let seed = f.int("--seed").unwrap_or(1);
    let base = SweepOptions {
        ops: f.int("--ops").unwrap_or(row.ops),
        key_range: f.int("--key-range").unwrap_or(row.key_range),
        seed,
        pool_mib: row.pool_mib,
        stride: f.int("--stride").unwrap_or(1),
        max_boundaries: f.int("--max-boundaries"),
        residual: residual(f, row.residual),
        poison: f.on("--poison"),
        ..SweepOptions::default()
    };
    let trace = f.on("--trace");
    if trace {
        // Flight recorder on: every crash snapshots the last PM events
        // before the cut, and any oracle violation prints that tail.
        pm_index_bench::obs::reset();
        pm_index_bench::obs::set_enabled(true);
    }
    println!(
        "{}: seed {seed}, residual model {:?}, poison {}, {}",
        row.name,
        base.residual,
        base.poison,
        (row.describe)(f)
    );

    let mut headers = vec!["index"];
    headers.extend(row.columns.iter().map(|c| c.0));
    headers.push("failures");
    let mut table = Table::new(headers);
    let mut any_failures = false;
    for kind in kinds(f, "all") {
        let opts = SweepOptions {
            kind: kind.to_string(),
            ..base.clone()
        };
        for s in (row.run)(f, opts) {
            if s.counter("insert ops") > 0 {
                let per_op = |op: &str, ops: &str, events: &str| {
                    let (ops, events) = (s.counter(ops), s.counter(events));
                    format!("{op} {ops} ops / {events} events")
                };
                println!(
                    "{kind}: {} events over {} ops; per-op windows: {}, {}, {}",
                    joined(&s.probe_events),
                    base.ops,
                    per_op("insert", "insert ops", "insert events"),
                    per_op("remove", "remove ops", "remove events"),
                    per_op("update", "update ops", "update events"),
                );
            }
            for fail in &s.failures {
                any_failures = true;
                println!(
                    "  {kind} FAIL: pool {} armed, boundary {} ({}) under {:?}{}: {}",
                    fail.pool,
                    fail.boundary,
                    fail.report
                        .map_or("no trip".to_string(), |r| r.trigger.to_string()),
                    fail.policy,
                    fail.poisoned_off
                        .map(|o| format!(", poisoned line {o:#x}"))
                        .unwrap_or_default(),
                    fail.detail
                );
                if let Some(tail) = &fail.flight_tail {
                    println!("  flight recorder (last PM events before the cut):");
                    print_tail(tail);
                }
            }
            if trace {
                match &s.first_crash_flight_tail {
                    Some(tail) => {
                        println!("{kind}: flight recorder at the first fired crash:");
                        print_tail(tail);
                    }
                    None => println!("{kind}: no crash fired, flight recorder empty"),
                }
            }
            let mut cells = vec![s.kind.clone()];
            cells.extend(row.columns.iter().map(|c| (c.1)(f, &s)));
            cells.push(s.failures.len().to_string());
            table.row(cells);
        }
    }
    println!("\n{}:\n", row.title);
    print!("{}", table.to_text());
    if any_failures {
        println!(
            "\nRESULT: {} violations found (see FAIL lines above). \
             Reproduce with --seed {seed}.",
            row.violations
        );
        std::process::exit(1);
    }
    println!("\nRESULT: {}", row.green);
}
