//! Every workload at toy size (2 000 records, one segment) finishes in
//! seconds without a failure, the per-layer run reports exactly the
//! metrics the contract names, and an index that loses updates is caught.

use std::process::Command;

use pm_stack_benchmark::layers;
use pm_stack_benchmark::spec::{per_layer, END_TO_END};
use pm_stack_benchmark::workloads::{self, Options, Sizes, WORKLOADS};

fn toy(seed: u64) -> Options {
    Options {
        seed,
        seconds: 0.05,
        sizes: Sizes::toy(),
        lossy: false,
    }
}

#[test]
fn every_workload_at_toy_size_is_correct_and_reports_every_end_to_end_metric() {
    for w in WORKLOADS {
        let r = workloads::run(w, &toy(3)).expect("known workload");
        assert_eq!(r.failed, 0, "{w}: {}", r.lines());
        assert!(r.correct() && r.failed_share() == 0.0);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name), "{w}");
        assert!(
            r.metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0),
            "{w}: {}",
            r.lines()
        );
    }
}

#[test]
fn per_layer_run_reports_the_contract_metrics_and_a_loadable_trace() {
    let out = std::env::temp_dir().join(format!("pm-bench-smoke-{}", std::process::id()));
    for w in WORKLOADS {
        let r = layers::run(w, &toy(4), &out).expect("trace written");
        assert_eq!(r.failed, 0, "{w}: {}", r.lines());
        let mut got: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        let spec = per_layer();
        let mut want: Vec<&str> = spec.iter().map(|m| m.name.as_str()).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{w}");
        for m in &r.metrics {
            let unit = spec
                .iter()
                .find(|s| s.name == m.name)
                .expect("named above")
                .unit;
            assert_eq!(m.unit, unit, "{}", m.name);
            assert!(m.value.is_finite(), "{}", m.name);
        }
        let trace =
            std::fs::read_to_string(out.join(format!("trace-{w}.json"))).expect("trace file");
        assert!(trace.starts_with("{\"displayTimeUnit\"") && trace.trim_end().ends_with("]}"));
        assert!(trace.contains("\"ph\":\"X\""), "{w}: no spans in the trace");
        if w == "serve-uniform-rw" {
            // Client, cache, engine and kind spans all made it out.
            for cat in ["client", "cache", "engine", "fptree"] {
                assert!(trace.contains(&format!("\"cat\":\"{cat}\"")), "{cat}");
            }
            let cover = r
                .notes
                .iter()
                .find(|n| n.contains("self times cover"))
                .expect("stack table");
            assert!(cover.contains("cover 100.00 %"), "{cover}");
        }
    }
    let _ = std::fs::remove_dir_all(out);
}

#[test]
fn a_lossy_index_fails_the_command() {
    for w in ["local-uniform-rw", "serve-storm-open"] {
        let out = Command::new(env!("CARGO_BIN_EXE_pm-stack-benchmark"))
            .args([
                "--toy",
                "--seconds",
                "0.05",
                "--seed",
                "5",
                "--workload",
                w,
                "--inject-lossy",
            ])
            .output()
            .expect("run the benchmark binary");
        assert!(!out.status.success(), "{w}: lost updates went unnoticed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": false"), "{last}");
        assert!(!last.contains("\"failed\": 0,"), "{last}");
    }
    let ok = Command::new(env!("CARGO_BIN_EXE_pm-stack-benchmark"))
        .args([
            "--toy",
            "--seconds",
            "0.05",
            "--seed",
            "5",
            "--workload",
            "local-uniform-rw",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(ok.status.success());
}
