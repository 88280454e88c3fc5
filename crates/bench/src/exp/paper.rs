//! E1–E15: the paper's tables and figures.

use pibench::report::{fmt_bytes, fmt_ns, Table};
use pibench::{prefill, Distribution, KeySpace, OpKind, OpMix, RunResult};
use pmem::PmConfig;

use super::sweep::{
    fresh, labels, ladder_header, ladder_points, op_points, single_thread, subject, subject_as,
    Grid, Points, CLWBS, FENCES, MOPS, READ_B,
};
use super::{pm_cfg, render, ExpReport};
use crate::cli::ExpCtx;
use crate::registry::{self, AllocMode, Shape, ALL_KINDS, PM_KINDS};

use Distribution::Uniform;
use OpKind::{Insert, Lookup, Remove, Scan, Update};

/// E1 — single-threaded throughput per operation (uniform). Ops in run
/// order: read-only first, then mutating (inserts grow the tree,
/// removes run last).
pub fn e01(ctx: &ExpCtx) -> ExpReport {
    let header = labels(&["index", "lookup", "scan", "update", "insert", "remove"]);
    let title = "E1: single-threaded throughput (Mops/s, uniform)";
    let mut grid = Grid::new(title, header, Uniform);
    grid.keep_grown = true;
    for kind in ALL_KINDS {
        let ops = single_thread(&[Lookup, Scan, Update, Insert, Remove]);
        grid.row(labels(&[kind]), subject(kind, pm_cfg()), ops);
    }
    grid.report(ctx, &[])
}

/// Shared machinery for the scalability sweeps (E2/E3, and E13 on
/// DRAM): kind × op rows over the thread ladder. wB+Tree is
/// single-threaded by design and the paper only ran it at one thread;
/// we still sweep it (mutex-serialized) so the flat line is visible.
fn scalability(
    mut grid: Grid,
    ctx: &ExpCtx,
    kinds: &[&'static str],
    label: fn(&str) -> String,
    ops: &[OpKind],
    pm: PmConfig,
) -> ExpReport {
    for kind in kinds {
        for &op in ops {
            let cells = vec![label(kind), op.label().to_string()];
            let points = ladder_points(ctx, OpMix::pure(op));
            grid.row(cells, subject(kind, pm.clone()), points);
        }
    }
    grid.report(ctx, &[])
}

/// E2 — multi-threaded scalability under the uniform distribution.
pub fn e02(ctx: &ExpCtx) -> ExpReport {
    let title = "E2: scalability, uniform distribution (Mops/s)";
    let grid = Grid::new(title, ladder_header(&["index", "op"], ctx), Uniform);
    let ops = [Lookup, Insert, Update, Scan];
    scalability(grid, ctx, &ALL_KINDS, str::to_string, &ops, pm_cfg())
}

/// E3 — multi-threaded scalability under self-similar 80/20 skew.
pub fn e03(ctx: &ExpCtx) -> ExpReport {
    let title = "E3: scalability, self-similar 80/20 skew (Mops/s)";
    let skew = Distribution::self_similar_80_20();
    let grid = Grid::new(title, ladder_header(&["index", "op"], ctx), skew);
    let ops = [Lookup, Update, Scan];
    scalability(grid, ctx, &ALL_KINDS, str::to_string, &ops, pm_cfg())
}

/// E4 — mixed lookup/insert workloads across thread counts.
pub fn e04(ctx: &ExpCtx) -> ExpReport {
    let title = "E4: mixed lookup/insert workloads (Mops/s, uniform)";
    let mut grid = Grid::new(title, ladder_header(&["index", "mix"], ctx), Uniform);
    for kind in ALL_KINDS {
        for lookup_pct in [90u8, 50, 10] {
            let mix = format!("{lookup_pct}r/{}w", 100 - lookup_pct);
            let points = ladder_points(ctx, OpMix::read_insert(lookup_pct));
            grid.row(labels(&[kind, &mix]), subject(kind, pm_cfg()), points);
        }
    }
    grid.report(ctx, &[])
}

/// E5 — tail latency percentiles (one op in eight sampled, close to the
/// paper's 10%).
pub fn e05(ctx: &ExpCtx) -> ExpReport {
    fn pct(r: &RunResult, op: OpKind, p: f64) -> String {
        fmt_ns(r.latency[op as usize].percentile(p))
    }
    let mut points = Vec::new();
    for threads in [1, ctx.mid_threads()] {
        for mut p in op_points(ctx, &[Lookup, Insert, Scan], threads) {
            p.0.push(threads.to_string());
            points.push(p);
        }
    }
    let list = Points {
        title: "E5: tail latency (uniform)",
        labels: vec!["index", "op", "threads"],
        metrics: vec![
            ("p50", |r, op| pct(r, op, 50.0)),
            ("p90", |r, op| pct(r, op, 90.0)),
            ("p99", |r, op| pct(r, op, 99.0)),
            ("p99.9", |r, op| pct(r, op, 99.9)),
            ("p99.99", |r, op| pct(r, op, 99.99)),
            ("max", |r, op| fmt_ns(r.latency[op as usize].max())),
        ],
        subjects: ALL_KINDS.to_vec(),
        points,
    };
    list.report(ctx)
}

/// E6 — PM traffic per operation (read/write amplification).
pub fn e06(ctx: &ExpCtx) -> ExpReport {
    let list = Points {
        title: "E6: PM media traffic per operation (mid thread count)",
        labels: vec!["index", "op"],
        metrics: vec![
            READ_B,
            ("writeB/op", |r, _| {
                format!("{:.0}", r.pm_write_bytes_per_op())
            }),
            ("read-amp", |r, _| {
                format!("{:.2}", r.pm.read_amplification())
            }),
            ("write-amp", |r, _| {
                format!("{:.2}", r.pm.write_amplification())
            }),
            CLWBS,
            FENCES,
        ],
        subjects: PM_KINDS.to_vec(),
        points: op_points(ctx, &[Lookup, Insert, Scan], ctx.mid_threads()),
    };
    list.report(ctx)
}

/// E7 — PM bandwidth consumption.
pub fn e07(ctx: &ExpCtx) -> ExpReport {
    let list = Points {
        title: "E7: PM bandwidth during each workload",
        labels: vec!["index", "op"],
        metrics: vec![
            ("readGiB/s", |r, _| format!("{:.3}", r.pm_read_gibps())),
            ("writeGiB/s", |r, _| format!("{:.3}", r.pm_write_gibps())),
            MOPS,
        ],
        subjects: PM_KINDS.to_vec(),
        points: op_points(ctx, &[Lookup, Insert, Scan], ctx.mid_threads()),
    };
    list.report(ctx)
}

/// E8 — memory consumption after loading (the paper's space table).
pub fn e08(ctx: &ExpCtx) -> ExpReport {
    let mut t = Table::new(vec![
        "index",
        "PM",
        "DRAM",
        "PM B/rec",
        "raw data",
        "bound chunks",
    ]);
    for kind in ALL_KINDS {
        let (b, _ks) = fresh(kind, ctx, pm_cfg());
        let f = b.index.footprint();
        let chunks: u64 = b.allocs.iter().map(|a| a.stats().bound_chunks).sum();
        t.row(vec![
            kind.to_string(),
            fmt_bytes(f.pm_bytes),
            fmt_bytes(f.dram_bytes),
            format!("{:.1}", f.pm_bytes as f64 / ctx.records as f64),
            fmt_bytes(ctx.records * 16),
            if b.allocs.is_empty() {
                "-".to_string()
            } else {
                chunks.to_string()
            },
        ]);
    }
    render("E8: memory consumption after prefill", ctx, &t, &[])
}

/// E9 — fingerprinting ablation (FPTree ± fingerprints, positive and
/// negative lookups).
pub fn e09(ctx: &ExpCtx) -> ExpReport {
    let mut points = Vec::new();
    for (negative, label) in [(false, "positive"), (true, "negative")] {
        for threads in [1, ctx.mid_threads()] {
            let mut cfg = ctx.point(threads, OpMix::pure(Lookup), Uniform);
            cfg.negative_lookups = negative;
            points.push((labels(&[label, &threads.to_string()]), Lookup, cfg));
        }
    }
    let list = Points {
        title: "E9: fingerprinting ablation (FPTree)",
        labels: vec!["variant", "lookups", "threads"],
        metrics: vec![MOPS, READ_B],
        subjects: vec!["fptree", "fptree-nofp"],
        points,
    };
    list.report(ctx)
}

/// E10 — allocator impact on insert throughput (general vs. striped
/// magazines).
pub fn e10(ctx: &ExpCtx) -> ExpReport {
    let title = "E10: PM allocator ablation, insert throughput (Mops/s)";
    let header = ladder_header(&["index", "allocator"], ctx);
    let mut grid = Grid::new(title, header, Uniform);
    for kind in ["fptree", "bztree"] {
        for (mode, label) in [
            (AllocMode::General, "general"),
            (AllocMode::Striped, "striped"),
        ] {
            let points = ladder_points(ctx, OpMix::pure(Insert));
            let subject = subject_as(kind, Shape::Default, mode);
            grid.row(labels(&[kind, label]), subject, points);
        }
    }
    grid.report(ctx, &[])
}

/// E11 — recovery time vs. data size.
pub fn e11(ctx: &ExpCtx) -> ExpReport {
    let mut t = Table::new(vec!["index", "records", "recovery", "ms/Mrec"]);
    for kind in PM_KINDS {
        for frac in [4u64, 2, 1] {
            let records = (ctx.records / frac).max(1);
            let b = registry::build(kind, records, pm_cfg());
            let ks = KeySpace::new(records);
            prefill(&*b.index, &ks, ctx.max_threads);
            let pool = b.pools[0].clone();
            drop(b);
            pool.crash();
            let (b2, took) = registry::recover(kind, pool);
            // Sanity: a few keys must be present after recovery.
            for i in (0..records).step_by((records / 7 + 1) as usize) {
                assert_eq!(
                    b2.index.lookup(ks.key(i)),
                    Some(ks.value_for(ks.key(i))),
                    "{kind} lost key {i} across recovery"
                );
            }
            let ms = took.as_secs_f64() * 1e3;
            t.row(vec![
                kind.to_string(),
                records.to_string(),
                format!("{ms:.2}ms"),
                format!("{:.2}", ms / (records as f64 / 1e6)),
            ]);
        }
    }
    render("E11: restart/recovery time vs data size", ctx, &t, &[])
}

/// E12 — node-size sensitivity.
pub fn e12(ctx: &ExpCtx) -> ExpReport {
    let sweeps: [(&str, [usize; 3]); 4] = [
        ("fptree", [16, 32, 64]),
        ("nvtree", [32, 64, 128]),
        ("wbtree", [15, 31, 62]),
        ("bztree", [30, 62, 124]),
    ];
    let title = "E12: node-size sensitivity (single thread, Mops/s)";
    let header = labels(&["index", "entries", "lookup", "insert", "scan"]);
    let mut grid = Grid::new(title, header, Uniform);
    grid.keep_grown = true;
    for (kind, sizes) in sweeps {
        for entries in sizes {
            let subject = subject_as(kind, Shape::NodeEntries(entries), AllocMode::General);
            let ops = single_thread(&[Lookup, Insert, Scan]);
            grid.row(labels(&[kind, &entries.to_string()]), subject, ops);
        }
    }
    grid.report(ctx, &[])
}

/// E13 — PM indexes on DRAM (persistence elided) vs. the volatile
/// baseline.
pub fn e13(ctx: &ExpCtx) -> ExpReport {
    let title = "E13: PM indexes with persistence elided (DRAM) vs volatile baseline (Mops/s)";
    let grid = Grid::new(title, ladder_header(&["index", "op"], ctx), Uniform);
    let kinds = ["fptree", "nvtree", "wbtree", "bztree", "dram"];
    let label = |kind: &str| match kind {
        "dram" => "dram-btree".to_string(),
        pm_kind => format!("{pm_kind}@dram"),
    };
    let ops = [Lookup, Insert, Scan];
    scalability(grid, ctx, &kinds, label, &ops, PmConfig::dram())
}

/// E14 — variable-length key support: inline vs pointer-stored keys
/// (same 8-byte keys forced through the out-of-line path, as in the
/// paper's var-key methodology).
pub fn e14(ctx: &ExpCtx) -> ExpReport {
    let list = Points {
        title: "E14: variable-length key support (inline vs pointer, 1 thread)",
        labels: vec!["variant", "op"],
        metrics: vec![MOPS, READ_B],
        subjects: vec!["fptree", "fptree-varkey"],
        points: op_points(ctx, &[Lookup, Insert, Scan], 1),
    };
    list.report(ctx)
}

/// E15 — wB+Tree slot-array ablation: slot+bitmap (binary search, more
/// fences) vs bitmap-only (linear search, fewer fences).
pub fn e15(ctx: &ExpCtx) -> ExpReport {
    let list = Points {
        title: "E15: wB+Tree slot-array ablation (1 thread)",
        labels: vec!["variant", "op"],
        metrics: vec![MOPS, FENCES, CLWBS],
        subjects: vec!["wbtree", "wbtree-noslots"],
        points: op_points(ctx, &[Lookup, Insert], 1),
    };
    list.report(ctx)
}
