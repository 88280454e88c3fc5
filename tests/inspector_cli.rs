//! `pm_inspector`'s flag handling: a typo must stop the run with exit
//! code 2, never silently fall back to a default (a mistyped
//! `--stride` used to mean a full stride-1 sweep).

use std::process::{Command, Output};

/// Run the `pm_inspector` example that a plain `cargo test` builds
/// beside this test (`cargo test --test inspector_cli` alone does not:
/// `cargo build --example pm_inspector` first).
fn pm_inspector(args: &[&str]) -> Output {
    let mut exe = std::env::current_exe().expect("test binary path");
    exe.pop(); // deps/
    exe.pop(); // the profile directory
    exe.push("examples/pm_inspector");
    Command::new(&exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {}: {e}", exe.display()))
}

fn rejected(args: &[&str], message: &str) {
    let out = pm_inspector(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran before rejecting");
}

#[test]
fn bad_flags_exit_2_before_anything_runs() {
    rejected(
        &[
            "crashpoints",
            "--kind",
            "wbtree",
            "--ops",
            "20",
            "--strde",
            "5",
        ],
        "unknown flag \"--strde\"",
    );
    rejected(
        &["crashpoints", "--ops", "many"],
        "--ops expects an integer",
    );
    rejected(&["crashpoints", "--ops"], "--ops expects a value");
    rejected(&["shardcrash", "--kind", "btree"], "--kind expects one of");
    // A flag of another sweep is as unknown as a typo.
    rejected(&["shardcrash", "--threads", "4"], "unknown flag");
    // A removed flag: `--cache-mb N` alone turns the cache tier on.
    rejected(
        &[
            "netcrash", "--cache", "--kind", "wbtree", "--ops", "20", "--stride", "40",
        ],
        "unknown flag \"--cache\"",
    );
    // A removed flag: the server has no batch size to sweep.
    rejected(
        &["netcrash", "--batch-max", "8"],
        "unknown flag \"--batch-max\"",
    );
    rejected(&["crashpoint"], "unknown subcommand");
    // A removed subcommand: CI's pibench storm smoke checks the cache
    // tier hits.
    rejected(&["cachestat"], "unknown subcommand \"cachestat\"");
}

#[test]
fn a_small_strided_sweep_exits_0() {
    let out = pm_inspector(&[
        "crashpoints",
        "--kind",
        "wbtree",
        "--ops",
        "20",
        "--stride",
        "40",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("RESULT: every explored crash image recovered"));
}
