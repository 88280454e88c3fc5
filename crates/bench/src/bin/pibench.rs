//! The PiBench command-line tool: run one configurable workload
//! against one index and print the full metric set.
//!
//! ```text
//! pibench --index fptree --records 1000000 --threads 8 --shards 4 \
//!         --mix 90,10,0,0,0 --dist uniform --ops 1000000 \
//!         [--dram] [--json out.json]
//! ```
//!
//! `--index` takes one of the five PM kinds or `dram`; `--mix` is
//! `lookup,insert,update,remove,scan` percentages; `--dist` one of
//! `uniform|selfsimilar|zipfian|storm` (`--theta X` skews zipfian,
//! default 0.99). `--trace PATH` / `--sample-ms N` turn the `obs` layer
//! on around the measured phase; `--cache-mb N` fronts the index with
//! an N MiB DRAM hot-key tier. A bad flag or value prints one line
//! and exits 2 before anything is built.
//!
//! ```text
//! pibench --index learned --records 20000 --dist storm --cache-mb 16
//! ```

use std::sync::Arc;

use bench::registry::{self, ALL_KINDS};
use cache::CachedIndex;
use index_api::RangeIndex;
use pibench::cli::{fail, Arg, Flags, Spec};
use pibench::report::{cache_rows, fmt_bytes, latency_json, latency_rows, JsonObj, Table};
use pibench::{prefill, run, trace, BenchConfig, Distribution, KeySpace, OpKind, OpMix};
use pmem::PmConfig;

const FLAGS: Spec = &[
    ("--index", Arg::OneOf(&ALL_KINDS)),
    ("--records", Arg::Int(1)),
    ("--threads", Arg::Int(1)),
    ("--shards", Arg::Int(1)),
    ("--ops", Arg::Int(1)),
    ("--mix", Arg::Text),
    ("--dist", Arg::OneOf(&pibench::dist::NAMES)),
    ("--theta", Arg::Float),
    ("--scan-len", Arg::Int(0)),
    ("--seed", Arg::Int(0)),
    ("--dram", Arg::Switch),
    ("--json", Arg::Text),
    ("--trace", Arg::Text),
    ("--sample-ms", Arg::Int(1)),
    ("--cache-mb", Arg::Int(1)),
];

fn main() {
    let f = Flags::from_env(FLAGS);
    let Some(index_kind) = f.text("--index") else {
        fail(&format!(
            "--index is required: one of {}",
            ALL_KINDS.join("|")
        ));
    };
    let records = f.int("--records").unwrap_or(1_000_000);
    let threads = f.int("--threads").unwrap_or(1) as usize;
    let shards = f.int("--shards").unwrap_or(1) as usize;
    let ops = f.int("--ops").unwrap_or(1_000_000);
    let mix = f.parsed("--mix", OpMix::parse);
    let theta = f.float("--theta");
    let dist = f.parsed("--dist", |name| Distribution::parse(name, theta, records));
    let (json_path, trace_path) = (f.text("--json"), f.text("--trace"));
    let sample_ms = f.int("--sample-ms");
    let cache_mb = f.int("--cache-mb").map(|mb| mb as usize);

    let pm_cfg = if f.on("--dram") {
        PmConfig::dram()
    } else {
        PmConfig::optane_like()
    };
    eprintln!("building {index_kind} (shards={shards}) and prefilling {records} records …");
    let built = if shards > 1 {
        registry::build_sharded(index_kind, shards, records, pm_cfg).into()
    } else {
        registry::build(index_kind, records, pm_cfg)
    };
    let ks = KeySpace::new(records);
    let load = prefill(&*built.index, &ks, threads);
    eprintln!(
        "prefill took {:.2}s ({:.3} Mops/s)",
        load.as_secs_f64(),
        records as f64 / load.as_secs_f64() / 1e6
    );
    // The DRAM hot-key tier wraps the built index *after* prefill so
    // the cache starts cold, as a freshly warmed server would.
    let cached: Option<Arc<CachedIndex>> =
        cache_mb.map(|mb| Arc::new(CachedIndex::new(built.index.clone(), mb << 20)));
    let under_test: Arc<dyn RangeIndex> = match &cached {
        Some(c) => c.clone(),
        None => built.index.clone(),
    };

    let cfg = BenchConfig {
        threads,
        records,
        ops_per_thread: (ops / threads as u64).max(1),
        mix: mix.unwrap_or(OpMix::pure(OpKind::Lookup)),
        distribution: dist.unwrap_or(Distribution::Uniform),
        scan_len: f.int("--scan-len").unwrap_or(100) as usize,
        seed: f.int("--seed").unwrap_or(0x5EED),
        negative_lookups: false,
    };
    // Tracing / sampling is scoped to the measured phase: prefill
    // traffic above is not attributed, teardown is not sampled.
    let tracing = trace_path.is_some() || sample_ms.is_some();
    let sampler = if tracing {
        obs::reset();
        obs::set_enabled(true);
        sample_ms.map(|ms| {
            let pools = built.pools.clone();
            obs::Sampler::start(ms, move || trace::pool_counters(&pools))
        })
    } else {
        None
    };

    let r = run(&*under_test, &ks, &built.pools, &cfg);

    let series = sampler.map(|s| s.stop());
    if tracing {
        obs::set_enabled(false);
    }

    let mut t = Table::new(vec!["metric", "value"]);
    t.kv("index", under_test.name());
    t.kv("threads", threads);
    t.kv("shards", shards);
    t.kv("elapsed", format!("{:.3}s", r.elapsed.as_secs_f64()));
    t.kv("total ops", r.total_ops());
    t.kv("throughput", format!("{:.3} Mops/s", r.mops()));
    t.kv("misses", r.misses);
    latency_rows(&mut t, &r.latency);
    if !built.pools.is_empty() {
        let (rd, wr) = (r.pm.media_read_bytes, r.pm.media_write_bytes);
        let per_op = |bytes, per| format!("{} ({per:.0} B/op)", fmt_bytes(bytes));
        t.kv("PM media read", per_op(rd, r.pm_read_bytes_per_op()));
        t.kv("PM media write", per_op(wr, r.pm_write_bytes_per_op()));
        t.kv(
            "PM bandwidth",
            format!(
                "{:.3} / {:.3} GiB/s (r/w)",
                r.pm_read_gibps(),
                r.pm_write_gibps()
            ),
        );
        t.kv("clwb / fence", format!("{} / {}", r.pm.clwb, r.pm.fence));
    }
    let fp = under_test.footprint();
    t.kv(
        "footprint",
        format!(
            "PM {} / DRAM {}",
            fmt_bytes(fp.pm_bytes),
            fmt_bytes(fp.dram_bytes)
        ),
    );
    let cache_counters = cached.as_ref().map(|c| c.counters());
    if let Some(cc) = &cache_counters {
        let churn = [cc.fills, cc.evictions, cc.invalidations];
        cache_rows(&mut t, cc.hits, cc.misses, churn);
    }
    print!("{}", t.to_text());

    let sites = if tracing {
        obs::site_table()
    } else {
        Vec::new()
    };
    if tracing {
        println!("\nper-site PM traffic attribution:");
        print!("{}", trace::site_table(&sites).to_text());
        if let Some(ts) = &series {
            let steady = ts.steady_start();
            println!(
                "sampled {} intervals @ {}ms; steady state from t={}ms: \
                 {:.3} Mops/s (whole run: {:.3})",
                ts.points.len(),
                ts.interval_ms,
                ts.points.get(steady).map_or(0, |p| p.t_ms),
                ts.mops_from(steady),
                ts.mops_from(0),
            );
        }
    }
    if let Some(path) = trace_path {
        let events = obs::flight_events(usize::MAX);
        let json = trace::chrome_trace_json(&events, &obs::site_names());
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("chrome trace ({} events) written to {path}", events.len());
        if let Some(ts) = &series {
            let csv_path = format!("{path}.timeseries.csv");
            std::fs::write(&csv_path, trace::timeseries_csv(ts))
                .unwrap_or_else(|e| panic!("write {csv_path}: {e}"));
            eprintln!("time series written to {csv_path}");
        }
    }
    if let Some(path) = json_path {
        let json = result_json(
            index_kind,
            shards,
            &cfg,
            &r,
            fp,
            &sites,
            series.as_ref(),
            cache_mb.zip(cache_counters.as_ref()),
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("json written to {path}");
    }
}

/// Machine-readable run summary: parameters, throughput, per-kind tail
/// latency, media traffic per op, and (when tracing) the per-site
/// attribution. Built with the shared [`JsonObj`] helpers (no serde
/// in-tree).
#[allow(clippy::too_many_arguments)]
fn result_json(
    index_kind: &str,
    shards: usize,
    cfg: &BenchConfig,
    r: &pibench::RunResult,
    f: index_api::Footprint,
    sites: &[obs::SiteAgg],
    series: Option<&obs::TimeSeries>,
    cache: Option<(usize, &cache::CacheCounters)>,
) -> String {
    let mut o = JsonObj::new();
    o.str("index", index_kind)
        .u64("shards", shards as u64)
        .u64("threads", cfg.threads as u64)
        .u64("total_ops", r.total_ops())
        .f64("elapsed_s", r.elapsed.as_secs_f64())
        .f64("throughput_mops", r.mops())
        .u64("misses", r.misses);

    o.obj("latency_ns", latency_json(&r.latency));

    let mut pm = JsonObj::new();
    for (name, n) in r.pm.named() {
        pm.u64(name, n);
    }
    pm.f64("read_bytes_per_op", r.pm_read_bytes_per_op())
        .f64("write_bytes_per_op", r.pm_write_bytes_per_op())
        .f64("read_amplification", r.pm.read_amplification())
        .f64("write_amplification", r.pm.write_amplification());
    o.obj("pm", pm);

    let mut fp = JsonObj::new();
    fp.u64("pm_bytes", f.pm_bytes)
        .u64("dram_bytes", f.dram_bytes);
    o.obj("footprint", fp);

    if let Some((mb, cc)) = cache {
        let mut c = JsonObj::new();
        c.u64("capacity_mb", mb as u64)
            .u64("hits", cc.hits)
            .u64("misses", cc.misses)
            .f64("hit_rate", cc.hit_rate())
            .u64("fills", cc.fills)
            .u64("evictions", cc.evictions)
            .u64("invalidations", cc.invalidations);
        o.obj("cache", c);
    }

    if !sites.is_empty() {
        o.raw("sites", &trace::site_table_json(sites));
    }
    if let Some(ts) = series {
        let steady = ts.steady_start();
        let mut s = JsonObj::new();
        s.u64("interval_ms", ts.interval_ms)
            .u64("intervals", ts.points.len() as u64)
            .u64(
                "steady_start_ms",
                ts.points.get(steady).map_or(0, |p| p.t_ms),
            )
            .f64("steady_mops", ts.mops_from(steady));
        o.obj("timeseries", s);
    }
    o.finish()
}
