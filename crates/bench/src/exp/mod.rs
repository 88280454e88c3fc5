//! The experiments (E1–E20): one row of [`EXPERIMENTS`] each.
//!
//! A row's function returns the rendered report; `e00_run_all` runs
//! the selected rows and collects them into `results/`. Most rows are
//! declared over the two sweep shapes of [`sweep`]; adding an experiment
//! is a function over them (or its own table) and one row here.

use pibench::report::{JsonObj, Table};
use pmem::PmConfig;

use crate::cli::ExpCtx;

mod paper;
mod stack;
pub mod sweep;

pub use paper::*;
pub use stack::*;

/// Device config used by the PM experiments: full emulation with the
/// calibrated Optane-like latency model.
pub fn pm_cfg() -> PmConfig {
    PmConfig::optane_like()
}

/// One rendered experiment: the human-readable report plus a
/// machine-readable JSON document (for `BENCH_E*.json` trajectory
/// tracking across PRs).
pub struct ExpReport {
    /// Title, scale line and text table.
    pub text: String,
    /// JSON object: run parameters plus the table as row objects.
    pub json: String,
}

/// Render a report, appending `extra` raw-JSON fields to the document
/// (e.g. E17 attaches the per-index site-attribution arrays). The JSON
/// goes through the shared [`JsonObj`] builder, the same emitter the
/// `pibench --json` path uses.
fn render(title: &str, ctx: &ExpCtx, table: &Table, extra: &[(String, String)]) -> ExpReport {
    let text = format!(
        "== {title} ==\n(records={}, ops/point={}, max_threads={}, shards={})\n\n{}\n",
        ctx.records,
        ctx.ops_per_point,
        ctx.max_threads,
        ctx.shards,
        table.to_text()
    );
    let mut o = JsonObj::new();
    o.str("title", title)
        .u64("records", ctx.records)
        .u64("ops_per_point", ctx.ops_per_point)
        .u64("max_threads", ctx.max_threads as u64)
        .u64("shards", ctx.shards as u64)
        .raw("rows", &table.to_json());
    for (key, value) in extra {
        o.raw(key, value);
    }
    ExpReport {
        text,
        json: o.finish(),
    }
}

/// One registered experiment: its short id (`e01` …, also the
/// `BENCH_E*.json` stem) and its entry point.
pub type Experiment = (&'static str, fn(&ExpCtx) -> ExpReport);

/// All experiments, in id order.
pub static EXPERIMENTS: [Experiment; 20] = [
    ("e01", e01),
    ("e02", e02),
    ("e03", e03),
    ("e04", e04),
    ("e05", e05),
    ("e06", e06),
    ("e07", e07),
    ("e08", e08),
    ("e09", e09),
    ("e10", e10),
    ("e11", e11),
    ("e12", e12),
    ("e13", e13),
    ("e14", e14),
    ("e15", e15),
    ("e16", e16),
    ("e17", e17),
    ("e18", e18),
    ("e19", e19),
    ("e20", e20),
];

#[cfg(test)]
mod tests {
    use super::sweep::{fresh, run_point};
    use super::*;
    use crate::registry::{ALL_KINDS, PM_KINDS};
    use pibench::{Distribution, OpKind, OpMix};

    fn tiny() -> ExpCtx {
        ExpCtx {
            records: 3_000,
            ops_per_point: 2_000,
            max_threads: 2,
            shards: 1,
        }
    }

    #[test]
    fn experiment_ids_are_unique_sorted_and_every_row_runs() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{ids:?}");
        // One thread: twenty experiments build BzTree some 25 times, and
        // two threads prefilling a small BzTree livelock about once in a
        // few thousand builds (ROADMAP item 1(a)); the smoke tests below keep
        // the two-thread paths covered.
        let ctx = ExpCtx {
            records: 1_500,
            ops_per_point: 1_000,
            max_threads: 1,
            ..tiny()
        };
        for (id, run) in &EXPERIMENTS {
            eprintln!("running {id}");
            let r = run(&ctx);
            let number: u32 = id[1..].parse().unwrap();
            assert!(r.text.starts_with(&format!("== E{number}:")), "{}", r.text);
            assert!(r.json.contains("\"rows\":[{"), "{id}: {}", r.json);
        }
    }

    #[test]
    fn e18_smoke() {
        let r = e18(&tiny());
        let rows: Vec<&str> = r.text.lines().filter(|l| l.contains("closed")).collect();
        let (local, remote) = (
            rows.iter().filter(|l| l.contains("local")).count(),
            rows.iter().filter(|l| l.contains("remote")).count(),
        );
        // Two connection counts locally and against the server; one
        // open-loop point on top.
        assert_eq!((local, remote), (2, 2), "{}", r.text);
        assert!(r.text.contains("open 25000qps"), "{}", r.text);
        assert!(!r.text.contains("skipped") && !r.text.contains("FAILED"));
        for row in r.json.split("},{") {
            assert!(row.contains("\"errors\":\"0\""), "{row}");
        }
    }

    #[test]
    fn e01_smoke() {
        let out = e01(&tiny()).text;
        assert!(out.contains("E1"));
        for kind in ALL_KINDS {
            assert!(out.contains(kind), "{kind} missing:\n{out}");
        }
    }

    #[test]
    fn e08_reports_footprints() {
        let out = e08(&tiny()).text;
        assert!(out.contains("PM"));
        assert!(out.contains("dram"));
    }

    #[test]
    fn e11_recovers_all_kinds() {
        let out = e11(&tiny()).text;
        for kind in PM_KINDS {
            assert!(out.contains(kind));
        }
        assert!(out.contains("ms"));
    }

    #[test]
    fn e16_smoke_and_json() {
        let r = e16(&ExpCtx {
            records: 2_000,
            ops_per_point: 1_000,
            max_threads: 2,
            shards: 2,
        });
        assert!(r.text.contains("E16"));
        assert!(r.text.contains("shards"));
        assert!(r.json.starts_with('{'));
        assert!(r.json.contains("\"shards\":2"));
        assert!(r.json.contains("\"rows\":["));
    }

    #[test]
    fn e19_covers_every_pm_kind_and_attaches_model_stats() {
        let r = e19(&tiny());
        for kind in PM_KINDS {
            assert!(r.text.contains(kind), "{kind} missing:\n{}", r.text);
        }
        assert!(r.text.contains("lookup-heavy"));
        assert!(r.text.contains("scan-heavy"));
        assert!(r.json.contains("\"learned_model\":{"), "{}", r.json);
        assert!(r.json.contains("\"segments\":"), "{}", r.json);
        assert!(r.json.contains("\"merges\":"), "{}", r.json);
    }

    #[test]
    fn e20_smoke_and_json() {
        let r = e20(&tiny());
        assert!(r.text.contains("E20"), "{}", r.text);
        assert!(r.text.contains("cached-64MiB"), "{}", r.text);
        assert!(r.json.contains("\"cache_tier\":{"), "{}", r.json);
        assert!(r.json.contains("\"storm_speedup\""), "{}", r.json);
    }

    #[test]
    fn e17_attributes_insert_traffic() {
        let r = e17(&tiny());
        assert!(r.text.contains("E17"));
        // Both indexes appear with their annotated insert sites.
        assert!(r.text.contains("fptree_insert"), "{}", r.text);
        assert!(r.text.contains("bztree"), "{}", r.text);
        assert!(r.json.contains("\"fptree_sites\":["), "{}", r.json);
        assert!(r.json.contains("\"bztree_sites\":["), "{}", r.json);
        assert!(r.json.contains("\"media_write_share\""), "{}", r.json);
    }

    #[test]
    fn sharded_fresh_runs_experiment_point() {
        let ctx = ExpCtx {
            records: 2_000,
            ops_per_point: 1_000,
            max_threads: 2,
            shards: 3,
        };
        let (b, ks) = fresh("wbtree", &ctx, pm_cfg());
        assert_eq!(b.pools.len(), 3);
        let cfg = ctx.point(2, OpMix::pure(OpKind::Lookup), Distribution::Uniform);
        let r = run_point(&b, &ks, &cfg);
        assert_eq!(r.misses, 0);
        // The merged PM delta must see traffic (lookups read all shards).
        assert!(r.pm.read_ops > 0);
    }
}
