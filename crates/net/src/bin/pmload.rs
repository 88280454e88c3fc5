//! `pmload` — drive a remote `pmserve` with a pibench-style workload.
//!
//! ```text
//! pmload --addr 127.0.0.1:7777 --records 100000 --ops 200000 \
//!        --conns 4 --window 32 --mix 60,10,10,10,10
//! pmload --addr ... --open-loop-qps 50000          # Poisson arrivals
//! pmload --addr ... --conns 1 --oracle             # model-checked run
//! ```
//!
//! Emits a human table on stderr and one JSON document line on stdout
//! (same latency-percentile shape as local `pibench` runs). `--dist`
//! takes `uniform|selfsimilar|zipfian|storm` with the same meaning (and
//! `--theta`, default 0.99) as `pibench`'s. With `--shutdown` it asks
//! the server to drain after the run. A bad flag or value prints one
//! line and exits 2.

use std::time::Duration;

use net::client::{run_load, send_shutdown, LoadConfig};
use pibench::cli::{fail, Arg, Flags, Spec};
use pibench::report::{latency_json, latency_rows, JsonObj, Table};
use pibench::{Distribution, OpMix};

const FLAGS: Spec = &[
    ("--addr", Arg::Text),
    ("--records", Arg::Int(1)),
    ("--ops", Arg::Int(1)),
    ("--conns", Arg::Int(1)),
    ("--window", Arg::Int(1)),
    ("--mix", Arg::Text),
    ("--dist", Arg::OneOf(&pibench::dist::NAMES)),
    ("--theta", Arg::Float),
    // A longer scan has no wire form (`ReqOp::try_from`).
    ("--scan-len", Arg::IntIn(0, net::wire::MAX_SCAN as u64)),
    ("--seed", Arg::Int(0)),
    ("--open-loop-qps", Arg::Float),
    ("--oracle", Arg::Switch),
    ("--shutdown", Arg::Switch),
];

fn main() {
    let f = Flags::from_env(FLAGS);
    let d = LoadConfig::default();
    let records = f.int("--records").unwrap_or(d.records);
    let theta = f.float("--theta");
    let cfg = LoadConfig {
        addr: f.text("--addr").map_or(d.addr, str::to_string),
        records,
        ops: f.int("--ops").unwrap_or(d.ops),
        conns: f.int("--conns").map_or(d.conns, |n| n as usize),
        window: f.int("--window").map_or(d.window, |n| n as usize),
        mix: f.parsed("--mix", OpMix::parse).unwrap_or(d.mix),
        dist: f
            .parsed("--dist", |name| Distribution::parse(name, theta, records))
            .unwrap_or(d.dist),
        scan_len: f.int("--scan-len").map_or(d.scan_len, |n| n as usize),
        seed: f.int("--seed").unwrap_or(d.seed),
        open_loop_qps: f.float("--open-loop-qps"),
        oracle: f.on("--oracle"),
    };
    if cfg.oracle && cfg.conns != 1 {
        fail("--oracle expects --conns 1 (FIFO execution order)");
    }

    let r = run_load(&cfg).unwrap_or_else(|e| {
        eprintln!("pmload: {e}");
        std::process::exit(1);
    });

    let loop_mode = if cfg.open_loop_qps.is_some() {
        "open"
    } else {
        "closed"
    };
    let mut t = Table::new(vec!["metric", "value"]);
    t.kv("loop", loop_mode);
    t.kv("conns x window", format!("{} x {}", cfg.conns, cfg.window));
    t.kv("sent", r.sent);
    t.kv("acked", r.acked);
    t.kv("misses", r.misses);
    t.kv("errors", r.errors);
    t.kv("throughput", format!("{:.3} Mops/s", r.mops()));
    latency_rows(&mut t, &r.hists);
    if cfg.oracle {
        let (checked, violations) = (r.oracle_checked, r.oracle_violations);
        t.kv(
            "oracle",
            format!("{checked} checked, {violations} violations"),
        );
    }
    if r.server_closed {
        t.kv("server", "closed mid-run (drain or halt)");
    }
    eprint!("{}", t.to_text());

    // JSON document (one line, pibench-compatible latency shape).
    let mut o = JsonObj::new();
    o.str("tool", "pmload")
        .str("addr", &cfg.addr)
        .str("loop", loop_mode)
        .u64("conns", cfg.conns as u64)
        .u64("window", cfg.window as u64)
        .u64("records", cfg.records)
        .u64("sent", r.sent)
        .u64("acked", r.acked)
        .u64("misses", r.misses)
        .u64("errors", r.errors)
        .f64("elapsed_s", r.elapsed.as_secs_f64())
        .f64("throughput_mops", r.mops())
        .bool("server_closed", r.server_closed);
    if let Some(q) = cfg.open_loop_qps {
        o.f64("target_qps", q);
    }
    o.obj("latency_ns", latency_json(&r.hists));
    if cfg.oracle {
        let mut or = JsonObj::new();
        or.u64("checked", r.oracle_checked)
            .u64("violations", r.oracle_violations);
        o.obj("oracle", or);
    }
    println!("{}", o.finish());

    if f.on("--shutdown") {
        if let Err(e) = send_shutdown(&cfg.addr) {
            eprintln!("pmload: shutdown request failed: {e}");
        } else {
            // Give the server a beat to finish draining before we exit
            // (useful for scripted two-process runs).
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    if r.errors > 0 || (cfg.oracle && r.oracle_violations > 0) {
        std::process::exit(1);
    }
}
