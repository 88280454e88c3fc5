//! E16–E20: the layers above a single index — the sharded engine, the
//! `obs` attribution, the serving layer, the learned index and the DRAM
//! cache tier.

use std::sync::Arc;

use net::{run_load, LoadConfig, LoadResult, Server, ServerConfig};
use pibench::report::{fmt_bytes, fmt_mops, fmt_ns, JsonObj, Table};
use pibench::{run, trace, Distribution, KeySpace, LatencyHistogram, OpKind, OpMix};

use super::sweep::{
    fresh, labels, ladder_header, ladder_points, run_point, sharded_subject, subject, Grid,
};
use super::{pm_cfg, render, ExpReport};
use crate::cli::ExpCtx;
use crate::registry::{self, AllocMode, PM_KINDS};

use Distribution::Uniform;

/// E16 — sharding: shard-count × thread-count sweep through the engine
/// layer. Every shard is an independent pool + allocator, so this
/// isolates how much of the scalability ceiling is shared-resource
/// contention (allocator class locks, pool state) rather than the index
/// algorithm itself.
pub fn e16(ctx: &ExpCtx) -> ExpReport {
    let mut shard_ladder = vec![1usize, 2, 4];
    if !shard_ladder.contains(&ctx.shards) {
        shard_ladder.push(ctx.shards);
        shard_ladder.sort_unstable();
    }
    let title = "E16: sharded engine, shard-count x thread-count (Mops/s, uniform)";
    let header = ladder_header(&["index", "op", "shards"], ctx);
    let mut grid = Grid::new(title, header, Uniform);
    for kind in ["fptree", "bztree"] {
        for op in [OpKind::Insert, OpKind::Lookup] {
            for &shards in &shard_ladder {
                let cells = labels(&[kind, op.label(), &shards.to_string()]);
                let points = ladder_points(ctx, OpMix::pure(op));
                grid.row(cells, sharded_subject(kind, shards), points);
            }
        }
    }
    grid.report(ctx, &[])
}

/// E17 — per-site PM traffic attribution: FPTree vs BzTree uniform
/// inserts with the `obs` tracing layer enabled around the measured
/// phase. The paper reports *how much* media traffic each index
/// generates (E6); this shows *where* it comes from — leaf appends vs
/// structure modification vs allocator metadata — via the scoped
/// `obs::site(..)` annotations inside the index crates.
pub fn e17(ctx: &ExpCtx) -> ExpReport {
    let mut t = Table::new(vec![
        "index",
        "site",
        "events",
        "clwb",
        "redundant",
        "ntstore",
        "media_write",
        "share%",
    ]);
    let mut extra: Vec<(String, String)> = Vec::new();
    for kind in ["fptree", "bztree"] {
        let (b, ks) = fresh(kind, ctx, pm_cfg());
        // Trace only the measured insert phase: prefill traffic above is
        // deliberately outside the enabled window.
        obs::reset();
        obs::set_enabled(true);
        let _ = run_point(&b, &ks, &ctx.point(1, OpMix::pure(OpKind::Insert), Uniform));
        obs::set_enabled(false);
        let sites = obs::site_table();
        for (s, share) in trace::write_shares(&sites) {
            let c = &s.counts;
            t.row(vec![
                kind.to_string(),
                s.name.clone(),
                c.events().to_string(),
                c.clwb.to_string(),
                c.clwb_redundant.to_string(),
                c.ntstore.to_string(),
                fmt_bytes(c.media_write_bytes),
                format!("{:.1}", 100.0 * share),
            ]);
        }
        extra.push((format!("{kind}_sites"), trace::site_table_json(&sites)));
    }
    let title = "E17: per-site PM write attribution, uniform inserts (1 thread)";
    render(title, ctx, &t, &extra)
}

/// One E18 row: where the ops ran and how they were offered (`path`,
/// `loop`, `conns`), and what the run measured.
fn e18_row(t: &mut Table, setup: [&str; 3], run: (f64, &[LatencyHistogram], u64, u64)) {
    let (mops, hists, acked, errors) = run;
    let mut all = LatencyHistogram::new();
    for h in hists {
        all.merge(h);
    }
    let mut cells = labels(&setup);
    cells.extend([
        fmt_mops(mops),
        fmt_ns(all.percentile(50.0)),
        fmt_ns(all.percentile(99.0)),
        fmt_ns(all.percentile(99.9)),
        acked.to_string(),
        errors.to_string(),
    ]);
    t.row(cells);
}

/// E18 — remote serving layer vs. local direct calls: the same mixed
/// workload (60% lookups, 10% each of insert/update/remove/scan — all
/// five wire op types on every point) through a `net::Server` over
/// loopback TCP, driven by `net::run_load` (closed-loop across
/// connection counts, plus one open-loop Poisson point), against the
/// in-process baseline. The paper benchmarks indexes behind
/// function calls; this measures what the missing deployment path —
/// wire codec, group-durability batching, backpressure — costs.
pub fn e18(ctx: &ExpCtx) -> ExpReport {
    let mut t = Table::new(vec![
        "path", "loop", "conns", "Mops/s", "p50", "p99", "p99.9", "acked", "errors",
    ]);
    let mix = LoadConfig::default().mix;
    let conn_ladder = [1usize, ctx.max_threads.clamp(2, 4)];
    let build = sharded_subject("fptree", ctx.shards.max(2));

    // Local baseline: the identical sharded build driven by direct
    // in-process calls, one "connection" = one worker thread.
    for threads in conn_ladder {
        let (b, ks) = build(ctx);
        let r = run_point(&b, &ks, &ctx.point(threads, mix, Uniform));
        let setup = ["local", "closed", &threads.to_string()];
        e18_row(&mut t, setup, (r.mops(), &r.latency, r.total_ops(), 0));
    }

    // Remote: one server, the connection counts swept against it, then
    // one open-loop Poisson point.
    let remote_ops = ctx.ops_per_point.clamp(1_000, 100_000);
    let (b, _ks) = build(ctx);
    let cfg = ServerConfig {
        workers: conn_ladder[1],
        ..ServerConfig::default()
    };
    let server = Server::start(b.index.clone(), b.pools.clone(), cfg).expect("bind loopback");
    let load = |conns: usize, ops: u64, open_loop_qps: Option<f64>| -> LoadResult {
        run_load(&LoadConfig {
            addr: server.local_addr().to_string(),
            records: ctx.records,
            ops,
            conns,
            window: 32,
            mix,
            open_loop_qps,
            ..LoadConfig::default()
        })
        .expect("loopback load")
    };
    let mut row = |how: &str, conns: usize, r: LoadResult| {
        let setup = ["remote", how, &conns.to_string()];
        e18_row(&mut t, setup, (r.mops(), &r.hists, r.acked, r.errors));
    };
    for conns in conn_ladder {
        row("closed", conns, load(conns, remote_ops, None));
    }
    // Open loop: Poisson arrivals at a rate the closed loop sustains
    // comfortably, so the row reads as latency-under-offered-load, not
    // saturation.
    let qps = 25_000.0;
    let r = load(conn_ladder[1], remote_ops.min(50_000), Some(qps));
    row(&format!("open {qps:.0}qps"), conn_ladder[1], r);
    server.handle().drain();
    server.join();
    let title = "E18: remote serving layer vs local direct calls (fptree, mixed 60/10/10/10/10)";
    render(title, ctx, &t, &[])
}

/// E19 — the learned index against the PM trees on its home turf and
/// off it: pure uniform lookups (one segment predict + ε-window search
/// in DRAM, a single PM value read, no pointer chase), a lookup-heavy
/// 90/10 mix, an insert-heavy 10/90 mix (every insert pays a delta-log
/// append and amortized merges), and a scan-heavy 20/80 mix (the
/// model's sorted run is scan-friendly; the delta overlay is not).
/// The JSON report attaches the trained model's shape — segment count,
/// ε, delta-log occupancy, merge count — from a prefilled
/// default-config instance.
pub fn e19(ctx: &ExpCtx) -> ExpReport {
    let scan_heavy = OpMix {
        lookup: 20,
        insert: 0,
        update: 0,
        remove: 0,
        scan: 80,
    };
    let mixes: [(&str, OpMix); 4] = [
        ("lookup", OpMix::pure(OpKind::Lookup)),
        ("lookup-heavy", OpMix::read_insert(90)),
        ("insert-heavy", OpMix::read_insert(10)),
        ("scan-heavy", scan_heavy),
    ];
    let threads = ctx.mid_threads();
    let title = format!("E19: learned index vs PM trees ({threads} threads, Mops/s, uniform)");
    let mut header = vec!["index".to_string()];
    header.extend(mixes.iter().map(|(name, _)| name.to_string()));
    let mut grid = Grid::new(title, header, Uniform);
    for kind in PM_KINDS {
        let points = mixes.iter().map(|(_, mix)| (threads, *mix)).collect();
        grid.row(labels(&[kind]), subject(kind, pm_cfg()), points);
    }

    // Model-shape sidecar: what the learned index actually trained on
    // this record count (the dyn-erased harness path can't see it).
    let stats = {
        let pool_bytes = registry::pool_bytes_for_shard(ctx.records, 1);
        let pool = Arc::new(pmem::PmPool::new(pool_bytes, pm_cfg()));
        let alloc = pmalloc::PmAllocator::format(pool, AllocMode::General);
        let idx = learned::LearnedIndex::create(alloc, learned::LearnedConfig::default());
        pibench::prefill(&*idx, &KeySpace::new(ctx.records), ctx.max_threads);
        idx.model_stats()
    };
    let mut model = JsonObj::new();
    model
        .u64("epoch", stats.epoch)
        .u64("model_keys", stats.model_keys as u64)
        .u64("segments", stats.segments as u64)
        .u64("epsilon", stats.epsilon)
        .u64("delta_len", stats.delta_len as u64)
        .u64("delta_cap", stats.delta_cap as u64)
        .u64("merges", stats.merges);
    grid.report(ctx, &[("learned_model".to_string(), model.finish())])
}

/// The E20 access pattern: 90% lookups / 10% updates, the read-mostly
/// mix the DRAM hot-key tier targets.
const E20_MIX: OpMix = OpMix {
    lookup: 90,
    insert: 0,
    update: 10,
    remove: 0,
    scan: 0,
};

/// E20 — the DRAM hot-key tier under skew. Two parts: (a) cached vs
/// uncached throughput on the same fptree build under self-similar
/// 80/20 and hot-storm access; (b) tail latency of the cached storm vs
/// the uncached *uniform* baseline (the tier's promise: a hot-key storm
/// should not be worse than an even load).
pub fn e20(ctx: &ExpCtx) -> ExpReport {
    use cache::CachedIndex;
    use index_api::RangeIndex;

    let threads = ctx.mid_threads();
    let mut t = Table::new(vec![
        "part", "config", "dist", "Mops/s", "p50", "p99", "hit%",
    ]);
    let dists: [(&str, Distribution); 2] = [
        ("selfsimilar", Distribution::self_similar_80_20()),
        ("storm", Distribution::storm(ctx.records)),
    ];

    // One point of parts A and B: a fresh fptree, optionally behind a
    // cold 64 MiB cache tier; returns throughput and lookup p99.
    let mut measure = |part: &str, cached: bool, dname: &str, dist: Distribution| {
        let (b, ks) = fresh("fptree", ctx, pm_cfg());
        let handle = cached.then(|| Arc::new(CachedIndex::new(b.index.clone(), 64 << 20)));
        let under_test: Arc<dyn RangeIndex> = match &handle {
            Some(c) => c.clone(),
            None => b.index.clone(),
        };
        let cfg = ctx.point(threads, E20_MIX, dist);
        let r = run(&*under_test, &ks, &b.pools, &cfg);
        let h = &r.latency[OpKind::Lookup as usize];
        let hit = handle
            .map(|c| format!("{:.1}", c.counters().hit_rate() * 100.0))
            .unwrap_or_else(|| "-".to_string());
        t.row(vec![
            part.to_string(),
            if cached { "cached-64MiB" } else { "uncached" }.to_string(),
            dname.to_string(),
            fmt_mops(r.mops()),
            fmt_ns(h.percentile(50.0)),
            fmt_ns(h.percentile(99.0)),
            hit,
        ]);
        (r.mops(), h.percentile(99.0))
    };

    // Part A: cached vs uncached under skew (equal threads, same kind).
    let mut part_a = JsonObj::new();
    let mut storm_cached_p99 = 0u64;
    for (dname, dist) in dists {
        let (uncached, _) = measure("A", false, dname, dist);
        let (cached, p99) = measure("A", true, dname, dist);
        if dname == "storm" {
            storm_cached_p99 = p99;
        }
        part_a
            .f64(&format!("{dname}_uncached_mops"), uncached)
            .f64(&format!("{dname}_cached_mops"), cached)
            .f64(&format!("{dname}_speedup"), cached / uncached.max(1e-9));
    }

    // Part B: the uncached uniform baseline the storm tail is held to.
    let (_, uniform_p99) = measure("B", false, "uniform", Distribution::Uniform);

    let mut tails = JsonObj::new();
    tails
        .u64("storm_p99_cached_ns", storm_cached_p99)
        .u64("uniform_p99_uncached_ns", uniform_p99);

    let title = format!("E20: DRAM hot-key tier under skew ({threads} threads, fptree)");
    render(
        &title,
        ctx,
        &t,
        &[
            ("cache_tier".to_string(), part_a.finish()),
            ("tail".to_string(), tails.finish()),
        ],
    )
}
