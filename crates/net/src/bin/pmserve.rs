//! `pmserve` — serve a PM range index over TCP.
//!
//! ```text
//! pmserve --index fptree --shards 4 --records 100000 --addr 127.0.0.1:7777 \
//!         --workers 4 --window 256 --sample-ms 500 --selfcheck
//! ```
//!
//! Prints `pmserve listening on <addr>` once ready (drivers parse this
//! line), then serves until SIGTERM/SIGINT or a wire `Shutdown`
//! request, drains gracefully, and prints a serving summary. With
//! `--selfcheck` it power-cycles the pools after drain and verifies the
//! recovered index matches the served one record for record — the
//! durable-ack invariant at process scale. With `--sample-ms N` an
//! `obs::Sampler` records per-interval served-QPS / batch-size /
//! fence-rate next to the PM bandwidth columns. With `--cache-mb N`
//! the served index sits behind an N MiB DRAM hot-key tier.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use index_api::{RangeIndex, OP_KINDS};
use net::build::{build_sharded, recover_sharded, ALL_KINDS};
use net::server::{Server, ServerConfig};
use pibench::cli::{Arg, Flags, Spec};
use pibench::report::{cache_rows, Table};
use pibench::{trace, KeySpace};
use pmem::PmConfig;

const FLAGS: Spec = &[
    ("--index", Arg::OneOf(&ALL_KINDS)),
    ("--shards", Arg::Int(1)),
    ("--records", Arg::Int(1)),
    ("--addr", Arg::Text),
    ("--workers", Arg::Int(0)),
    ("--window", Arg::Int(1)),
    ("--max-conns", Arg::Int(1)),
    ("--pm", Arg::OneOf(&["real", "optane"])),
    ("--sample-ms", Arg::Int(1)),
    ("--selfcheck", Arg::Switch),
    ("--trace", Arg::Switch),
    ("--cache-mb", Arg::Int(1)),
];

static TERM: AtomicBool = AtomicBool::new(false);

// SIGTERM/SIGINT → graceful drain, without adding a signal-handling
// dependency: std already links libc, so declare `signal` directly.
extern "C" fn on_signal(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: *const ()) -> *const ();
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_signal as *const ());
        signal(SIGINT, on_signal as *const ());
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let f = Flags::from_env(FLAGS);
    let index_kind = f.text("--index").unwrap_or("fptree");
    let shards = f.int("--shards").unwrap_or(4) as usize;
    let records = f.int("--records").unwrap_or(100_000);
    let d = ServerConfig::default();
    let cfg = ServerConfig {
        addr: f.text("--addr").unwrap_or("127.0.0.1:7777").to_string(),
        workers: f.int("--workers").map_or(d.workers, |n| n as usize),
        window: f.int("--window").map_or(d.window, |n| n as usize),
        max_conns: f.int("--max-conns").map_or(d.max_conns, |n| n as usize),
    };
    let pm = match f.text("--pm") {
        Some("real") => PmConfig::real(),
        _ => PmConfig::optane_like(),
    };
    let sample_ms = f.int("--sample-ms");
    let trace = f.on("--trace");
    let cache_mb = f.int("--cache-mb").map(|mb| mb as usize);

    install_signal_handlers();

    eprintln!("pmserve: building {index_kind} x{shards}, prefilling {records} records");
    let env = build_sharded(index_kind, shards, records, pm);
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get());
    pibench::prefill(&*env.index, &KeySpace::new(records), threads);
    for p in &env.pools {
        p.reset_stats();
    }

    // With --cache-mb the served index is wrapped in the DRAM hot-key
    // tier; `env.index` stays raw so the selfcheck below compares
    // persistent state, not cache contents.
    let cached = cache_mb.map(|mb| {
        let c = Arc::new(cache::CachedIndex::new(
            env.index.clone() as Arc<dyn RangeIndex>,
            mb << 20,
        ));
        let slots = c.cache().capacity();
        eprintln!("pmserve: cache tier on ({mb} MiB, {slots} slots)");
        c
    });
    let served: Arc<dyn RangeIndex> = match &cached {
        Some(c) => c.clone(),
        None => env.index.clone(),
    };

    let server = Server::start(served, env.pools.clone(), cfg)
        .unwrap_or_else(|e| panic!("bind failed: {e}"));
    let handle = server.handle();
    // Drivers wait for this exact line before connecting.
    println!("pmserve listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let sampling = sample_ms.is_some() || trace;
    if sampling {
        obs::reset();
        obs::set_enabled(true);
    }
    // One obs::Sampler carries both axes: its closure reads the merged
    // PM counters for the bandwidth columns and, as a synchronized side
    // effect, snapshots the serving counters for batch-size/fence-rate.
    let net_series: Arc<Mutex<Vec<(u64, u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let sampler = sample_ms.map(|ms| {
        let pools = env.pools.clone();
        let stats = server.stats();
        let net_series = net_series.clone();
        obs::Sampler::start(ms, move || {
            net_series.lock().unwrap().push(stats.batch_counters());
            trace::pool_counters(&pools)
        })
    });

    // Serve until a signal or a wire Shutdown begins the drain.
    loop {
        if TERM.load(Ordering::SeqCst) {
            eprintln!("pmserve: signal received, draining");
            handle.drain();
        }
        if handle.draining() {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let report = server.join();
    let series = sampler.map(|s| s.stop());
    if sampling {
        obs::set_enabled(false);
    }

    // Per-interval table: served QPS + batch shape next to the PM
    // bandwidth columns.
    if let Some(ts) = &series {
        let net_pts = net_series.lock().unwrap();
        let mut t = Table::new(vec![
            "t_ms", "qps", "batch", "fence/s", "rd GiB/s", "wr GiB/s",
        ]);
        let mut prev = (0u64, 0u64, 0u64);
        for (i, p) in ts.points.iter().enumerate() {
            let cur = net_pts.get(i + 1).copied().unwrap_or(prev);
            let (db, dops, df) = (cur.0 - prev.0, cur.1 - prev.1, cur.2 - prev.2);
            prev = cur;
            let avg_batch = if db > 0 { dops as f64 / db as f64 } else { 0.0 };
            let dt_s = (p.dt_ms as f64 / 1e3).max(1e-9);
            t.row(vec![
                p.t_ms.to_string(),
                format!("{:.0}", p.ops as f64 / dt_s),
                format!("{avg_batch:.1}"),
                format!("{:.0}", df as f64 / dt_s),
                format!("{:.3}", p.read_gibps()),
                format!("{:.3}", p.write_gibps()),
            ]);
        }
        eprintln!("\nper-interval serving samples:");
        eprint!("{}", t.to_text());
    }
    if trace {
        eprintln!("\nper-site PM traffic attribution:");
        eprint!("{}", trace::site_table(&obs::site_table()).to_text());
    }

    let st = &report.stats;
    let total = st.total_served();
    let (batches, batch_ops, fences) = st.batch_counters();
    let mut t = Table::new(vec!["metric", "value"]);
    t.kv("served ops", total);
    for kind in OP_KINDS {
        let served = st.served[kind as usize].load(Ordering::Relaxed);
        t.kv(&format!("  {}", kind.label()), served);
    }
    t.kv("acked writes", st.acked_writes.load(Ordering::Relaxed));
    let avg = batch_ops as f64 / batches.max(1) as f64;
    t.kv(
        "batches",
        format!("{batches} (avg {avg:.1} writes, {fences} fence epochs)"),
    );
    t.kv(
        "conns",
        format!(
            "{} accepted, {} overload-rejected, {} shed",
            st.conns_accepted.load(Ordering::Relaxed),
            st.overload_rejected.load(Ordering::Relaxed),
            st.shed_conns.load(Ordering::Relaxed)
        ),
    );
    t.kv(
        "time split",
        format!(
            "wire {}ms, index {}ms, fence {}ms",
            st.wire_ns.load(Ordering::Relaxed) / 1_000_000,
            st.index_ns.load(Ordering::Relaxed) / 1_000_000,
            st.fence_ns.load(Ordering::Relaxed) / 1_000_000
        ),
    );
    if let Some(c) = &cached {
        let cc = c.counters();
        let churn = [cc.fills, cc.evictions, cc.invalidations];
        cache_rows(&mut t, cc.hits, cc.misses, churn);
    }
    t.kv(
        "halted",
        if report.halted {
            "yes (crash point)"
        } else {
            "no"
        },
    );
    eprintln!("\npmserve drained:");
    eprint!("{}", t.to_text());

    if report.halted {
        eprintln!("pmserve: halted by an armed crash point");
        std::process::exit(3);
    }

    if f.on("--selfcheck") {
        if env.pools.is_empty() {
            eprintln!("selfcheck: skipped (dram index has no pools)");
        } else {
            // At drain nothing is in flight, so the served state and
            // the post-power-cycle state must agree exactly.
            let mut live = Vec::new();
            env.index.scan(0, usize::MAX >> 1, &mut live);
            let pools = env.pools.clone();
            drop(env);
            for p in &pools {
                p.crash();
            }
            let rec = recover_sharded(index_kind, pools);
            let mut post = Vec::new();
            rec.index.scan(0, usize::MAX >> 1, &mut post);
            if live != post {
                eprintln!(
                    "selfcheck FAILED: served {} records, recovered {}",
                    live.len(),
                    post.len()
                );
                std::process::exit(1);
            }
            eprintln!(
                "selfcheck ok: {} records survived the power cycle",
                live.len()
            );
        }
    }
}
