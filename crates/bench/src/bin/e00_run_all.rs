//! Run the experiments (E1–E20, or the `--only eNN[,eMM...]` subset)
//! and write the collected reports to `results/experiments.txt` (and
//! stdout), plus one machine-readable `results/BENCH_E*.json` per
//! experiment so the perf trajectory can be tracked across commits.
//! Scale: `--records N --ops N --threads N --shards N`
//! (`--records 30000` is the smoke scale CI runs).

use std::io::Write;

use bench::exp::EXPERIMENTS;
use pibench::cli::{fail, Flags};

fn main() {
    let flags = Flags::from_env(bench::cli::FLAGS);
    let ctx = bench::cli::ExpCtx::from_flags(&flags);
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    let only: Vec<&str> = match flags.text("--only") {
        Some(list) => list.split(',').collect(),
        None => ids.clone(),
    };
    if let Some(bad) = only.iter().find(|id| !ids.contains(id)) {
        let ids = ids.join(",");
        fail(&format!("--only expects ids among {ids}, got {bad:?}"));
    }
    let mut all_out = String::new();
    std::fs::create_dir_all("results").expect("create results dir");
    for (id, run) in EXPERIMENTS.iter().filter(|e| only.contains(&e.0)) {
        eprintln!(">> running {id} …");
        let t0 = std::time::Instant::now();
        let out = run(&ctx);
        eprintln!("   {id} done in {:.1}s", t0.elapsed().as_secs_f64());
        print!("{}", out.text);
        all_out.push_str(&out.text);
        let json_path = format!("results/BENCH_{}.json", id.to_uppercase());
        std::fs::write(&json_path, format!("{}\n", out.json))
            .unwrap_or_else(|e| panic!("write {json_path}: {e}"));
    }
    let mut f = std::fs::File::create("results/experiments.txt").expect("create results file");
    f.write_all(all_out.as_bytes()).expect("write results");
    eprintln!("results written to results/experiments.txt (+ results/BENCH_E*.json)");
}
