//! `cargo run --release --manifest-path benchmark/Cargo.toml -- --seed N
//! [--workload NAME] [--seconds S] [--trace 0|1] [--json PATH]
//! [--repeat-check]`
//!
//! Builds each stack, runs the workloads, checks every result, prints
//! every metric as `name value unit` and, last, one JSON result line per
//! workload. Exits non-zero on any correctness failure.

use std::path::PathBuf;
use std::process::ExitCode;

use pm_stack_benchmark::report::Report;
use pm_stack_benchmark::spec::{benchmark_json, END_TO_END, RUN_SECONDS};
use pm_stack_benchmark::workloads::{self, Options, Sizes, WORKLOADS};
use pm_stack_benchmark::{layers, stats};

const USAGE: &str = "usage: --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--json PATH] [--out DIR] [--repeat-check] [--toy]";

struct Args {
    workloads: Vec<&'static str>,
    options: Options,
    trace: bool,
    json: Option<PathBuf>,
    out_dir: PathBuf,
    repeat_check: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.to_vec(),
        options: Options {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            sizes: Sizes::full(),
            lossy: false,
        },
        trace: false,
        json: None,
        out_dir: PathBuf::from("benchmark/out"),
        repeat_check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| **w == name.as_str());
                args.workloads = vec![known
                    .ok_or_else(|| format!("unknown workload {name:?}; one of {WORKLOADS:?}"))?];
            }
            "--seed" => args.options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.options.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--json" => args.json = Some(PathBuf::from(value()?)),
            "--out" => args.out_dir = PathBuf::from(value()?),
            "--repeat-check" => args.repeat_check = true,
            "--toy" => args.options.sizes = Sizes::toy(),
            // Smoke test only: proves the correctness gates bite.
            "--inject-lossy" => args.options.lossy = true,
            "--print-benchmark-json" => {
                print!("{}", benchmark_json());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_all(args: &Args) -> std::io::Result<Vec<Report>> {
    let mut reports = Vec::new();
    for &w in &args.workloads {
        let report = if args.trace {
            layers::run(w, &args.options, &args.out_dir)?
        } else {
            workloads::run(w, &args.options).expect("workload names were checked")
        };
        print!("{}", report.lines());
        reports.push(report);
    }
    Ok(reports)
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn reports_json(reports: &[Report], extra: &str) -> String {
    let rows: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"result\": {}}}",
                r.workload,
                r.json_line()
            )
        })
        .collect();
    format!("{{\n{extra}  \"runs\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

/// Runs the untraced set twice with the same seed and compares every
/// workload × end-to-end metric with its bound.
fn repeat_check(args: &Args) -> std::io::Result<bool> {
    let first = run_all(args)?;
    let second = run_all(args)?;
    let mut ok = first.iter().chain(&second).all(Report::correct);
    println!(
        "# repeat check, seed {}: workload metric first second worse-by bound",
        args.options.seed
    );
    for (a, b) in first.iter().zip(&second) {
        for spec in &END_TO_END {
            let get = |r: &Report| {
                r.metrics
                    .iter()
                    .find(|m| m.name == spec.name)
                    .map_or(f64::NAN, |m| m.value)
            };
            let (x, y) = (get(a), get(b));
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            let apart = (hi - lo) / stats::median(&[x, y]);
            let verdict = if apart <= spec.bound { "ok" } else { "APART" };
            ok &= apart <= spec.bound;
            println!(
                "{} {} {x} {y} {apart:.4} {} {verdict}",
                a.workload, spec.name, spec.bound
            );
        }
    }
    if ok {
        let reference = PathBuf::from("benchmark/baselines/reference.json");
        if !reference.exists() {
            let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
            let extra = format!(
                "  \"nproc\": {nproc},\n  \"rustc\": \"{}\",\n  \"commit\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n",
                command_output("rustc", &["--version"]),
                command_output("git", &["rev-parse", "HEAD"]),
                args.options.seed,
                args.options.seconds,
            );
            if let Some(dir) = reference.parent() {
                std::fs::create_dir_all(dir)?;
            }
            std::fs::write(&reference, reports_json(&first, &extra))?;
            println!("# stored {} as the reference", reference.display());
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.repeat_check {
        return match repeat_check(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("repeat check: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let reports = match run_all(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, reports_json(&reports, "")) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    for r in &reports {
        println!("{}", r.json_line());
    }
    if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
