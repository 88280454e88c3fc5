//! The built `pmserve` and `pmload` binaries: a bad command line is one
//! line on stderr and exit 2 before anything is built or connected.

use std::process::Command;

fn rejected(exe: &str, args: &[&str], message: &str) {
    let out = Command::new(exe).args(args).output();
    let out = out.unwrap_or_else(|e| panic!("spawning {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
}

#[test]
fn pmserve_rejects_input_it_used_to_assert_on() {
    let pmserve = env!("CARGO_BIN_EXE_pmserve");
    rejected(
        pmserve,
        &["--shards", "0"],
        "--shards expects an integer >= 1",
    );
    rejected(
        pmserve,
        &["--index", "btree"],
        "--index expects one of fptree|",
    );
    rejected(
        pmserve,
        &["--pm", "fast"],
        "--pm expects one of real|optane",
    );
    // A removed flag: one fence epoch per loop iteration is the only
    // policy.
    rejected(
        pmserve,
        &["--batch-max", "8"],
        "unknown flag \"--batch-max\"",
    );
    rejected(pmserve, &["--conns", "2"], "unknown flag \"--conns\"");
    // Removed: `--cache-mb N` alone turns the cache tier on. (A port
    // that cannot bind, so a binary that still takes it stops.)
    rejected(
        pmserve,
        &["--cache", "--records", "1000", "--addr", "127.0.0.1:99999"],
        "unknown flag \"--cache\"",
    );
}

#[test]
fn pmload_rejects_input_it_used_to_panic_on() {
    let pmload = env!("CARGO_BIN_EXE_pmload");
    rejected(pmload, &["--conns", "0"], "--conns expects an integer >= 1");
    rejected(
        pmload,
        &["--mix", "50,x,50,0,0,0"],
        "--mix expects five percentages",
    );
    rejected(
        pmload,
        &["--mix", "50,40,0,0,0"],
        "--mix expects five percentages",
    );
    rejected(
        pmload,
        &["--dist", "hot"],
        "--dist expects one of uniform|selfsimilar|zipfian|storm",
    );
    rejected(
        pmload,
        &["--dist", "zipfian", "--theta", "2"],
        "--theta in (0, 1)",
    );
    rejected(
        pmload,
        &["--oracle", "--conns", "2"],
        "--oracle expects --conns 1",
    );
    rejected(pmload, &["--shards", "2"], "unknown flag \"--shards\"");
    // One past the wire's scan bound used to die mid-run with protocol
    // errors (the count was truncated, refused, and the connection
    // closed).
    rejected(
        pmload,
        &["--scan-len", "70000"],
        "--scan-len expects an integer in 0..=65536",
    );
}

#[test]
fn pmload_prints_one_json_line_and_no_result_line() {
    use net::build::build_sharded;
    use net::{Server, ServerConfig};
    let env = build_sharded("fptree", 2, 2_000, pmem::PmConfig::real());
    pibench::prefill(&*env.index, &pibench::KeySpace::new(2_000), 2);
    let server = Server::start(
        env.index.clone(),
        env.pools.clone(),
        ServerConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let args = [
        "--addr",
        &addr,
        "--records",
        "2000",
        "--ops",
        "3000",
        "--conns",
        "2",
        "--dist",
        "storm",
    ];
    let out = Command::new(env!("CARGO_BIN_EXE_pmload"))
        .args(args)
        .output()
        .unwrap();
    server.handle().drain();
    server.join();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
    assert!(stdout.starts_with("{\"tool\":\"pmload\""), "{stdout}");
    assert!(
        stdout.contains("\"errors\":0") && stdout.contains("\"acked\":3000"),
        "{stdout}"
    );
    assert!(
        stdout.contains("\"latency_ns\":{\"lookup\":{\"count\":"),
        "{stdout}"
    );
}
