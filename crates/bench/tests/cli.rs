//! The built `pibench` and `e00_run_all` binaries: a bad command line
//! is one line on stderr and exit 2 before anything is built; a good
//! one runs.

use std::process::{Command, Output};

fn run(exe: &str, args: &[&str], dir: &std::path::Path) -> Output {
    let mut cmd = Command::new(exe);
    let out = cmd.args(args).current_dir(dir).output();
    out.unwrap_or_else(|e| panic!("spawning {exe}: {e}"))
}

fn rejected(exe: &str, args: &[&str], message: &str) {
    let out = run(exe, args, &std::env::temp_dir());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
}

#[test]
fn pibench_rejects_input_it_used_to_panic_on_or_misread() {
    let pibench = env!("CARGO_BIN_EXE_pibench");
    let fptree = ["--index", "fptree"];
    // Divided by zero.
    rejected(
        pibench,
        &[&fptree[..], &["--threads", "0"]].concat(),
        "--threads expects an integer >= 1",
    );
    // Panicked with a backtrace.
    rejected(
        pibench,
        &["--index", "nosuch"],
        "--index expects one of fptree|",
    );
    rejected(
        pibench,
        &[&fptree[..], &["--shards", "0"]].concat(),
        "--shards expects",
    );
    // Dropped the bad part, took six parts for five, ran 50/50.
    rejected(
        pibench,
        &[&fptree[..], &["--mix", "50,x,50,0,0,0"]].concat(),
        "--mix expects five percentages",
    );
    rejected(
        pibench,
        &[&fptree[..], &["--mix", "50,40,0,0,0"]].concat(),
        "--mix expects",
    );
    rejected(
        pibench,
        &[&fptree[..], &["--dist", "zipf"]].concat(),
        "--dist expects one of uniform|",
    );
    rejected(
        pibench,
        &[&fptree[..], &["--dist", "zipfian", "--theta", "1"]].concat(),
        "--theta in (0, 1)",
    );
    rejected(pibench, &["--records", "10"], "--index is required");
    rejected(
        pibench,
        &[&fptree[..], &["--conns", "2"]].concat(),
        "unknown flag \"--conns\"",
    );
    // Removed: the JSON report is the machine-readable one, and
    // `--cache-mb N` alone turns the cache tier on. (Small scale, so a
    // binary that still takes them runs briefly and fails the check.)
    let small = ["--index", "fptree", "--records", "1000", "--ops", "1000"];
    for removed in ["--csv", "--cache"] {
        rejected(
            pibench,
            &[&small[..], &[removed]].concat(),
            &format!("unknown flag {removed:?}"),
        );
    }
}

#[test]
fn pibench_runs_a_small_storm_with_theta_and_json() {
    let dir = std::env::temp_dir().join(format!("pibench-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let args = [
        "--index",
        "learned",
        "--records",
        "4000",
        "--ops",
        "4000",
        "--threads",
        "2",
        "--mix",
        "80,10,10,0,0",
        "--dist",
        "storm",
        "--theta",
        "0.5",
        "--json",
        "out.json",
    ];
    let out = run(env!("CARGO_BIN_EXE_pibench"), &args, &dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("out.json")).unwrap();
    for key in [
        "\"index\":\"learned\"",
        "\"throughput_mops\"",
        "\"latency_ns\":{\"lookup\":{\"count\":",
        "\"pm\":{",
        "\"footprint\":{",
    ] {
        assert!(json.contains(key), "{key} missing: {json}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_all_rejects_unknown_experiments_and_runs_a_known_one() {
    let run_all = env!("CARGO_BIN_EXE_e00_run_all");
    // Used to run nothing and exit 0.
    rejected(
        run_all,
        &["--only", "e99"],
        "--only expects ids among e01,e02",
    );
    rejected(run_all, &["--only", "e01,e1"], "got \"e1\"");
    rejected(
        run_all,
        &["--threads", "0"],
        "--threads expects an integer >= 1",
    );
    rejected(run_all, &["--index", "fptree"], "unknown flag \"--index\"");
    // Removed: `--records 30000` is the smoke scale, BENCH_E*.json the
    // machine-readable report.
    for removed in ["--quick", "--csv"] {
        rejected(
            run_all,
            &[removed, "--only", "e01", "--records", "1000"],
            &format!("unknown flag {removed:?}"),
        );
    }

    let dir = std::env::temp_dir().join(format!("run-all-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let args = ["--only", "e01", "--records", "3000", "--threads", "2"];
    let out = run(run_all, &args, &dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(dir.join("results/BENCH_E01.json")).unwrap();
    assert!(
        json.contains("\"title\":\"E1:") && json.contains("\"records\":3000"),
        "{json}"
    );
    assert!(dir.join("results/experiments.txt").is_file());
    assert!(!dir.join("results/BENCH_E02.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
