//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics. `BENCHMARK.json` at the repo
//! root is [`benchmark_json`] written out; a test holds the two equal.

use crate::stack::KINDS;
use crate::workloads::WORKLOADS;

/// How long one run's timed segments last, seconds.
pub const RUN_SECONDS: u64 = 10;

/// Why each workload exists, in [`WORKLOADS`] order.
pub const WHY: [&str; 4] = [
    "each of the five PM index kinds alone on one pool, one thread, mixed ops with scans: index kind + pmalloc + pmem do all the work, net/cache/engine none",
    "the full in-process PM stack (2-shard fptree, 2 threads, reads beside writes), no cache, no network: where PmPool per-access overhead must show",
    "the same ops through server, cache (25x smaller than the working set, so it only costs) and engine: serve minus local is the serving path",
    "hot-set traffic the cache absorbs: open-loop latency at 20k/s on the worker's idle path, closed-loop capacity on its busy path, PM does little",
];

/// An end-to-end metric: reported by every workload with tracing off.
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// The end-to-end metrics.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_mops",
        unit: "Mops/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p95_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "pm_b_per_user_b",
        unit: "B/B",
        better: "lower",
        bound: 0.03,
    },
];

/// A per-layer metric: reported by the `--trace 1` run.
pub struct PerLayer {
    /// Name; the part before the first dot is the layer (crate).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

fn pl(name: impl Into<String>, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name: name.into(),
        unit,
        better,
    }
}

/// The per-layer metrics, in the order the run reports them.
pub fn per_layer() -> Vec<PerLayer> {
    let lo = "lower";
    let hi = "higher";
    let mut v = vec![
        pl("core.gen_ns_per_op.uniform", "ns", lo),
        pl("core.gen_ns_per_op.storm", "ns", lo),
        pl("pmem.read_u64_ns", "ns", lo),
        pl("pmem.write_u64_ns", "ns", lo),
        pl("pmem.clwb_ns", "ns", lo),
        pl("pmem.sfence_ns", "ns", lo),
        pl("pmem.read_u64_optane_ns", "ns", lo),
        pl("pmem.persist_line_optane_ns", "ns", lo),
        pl("pmalloc.alloc_ns", "ns", lo),
        pl("pmalloc.free_ns", "ns", lo),
        pl("dram-index.lookup_ns", "ns", lo),
        pl("dram-index.insert_ns", "ns", lo),
        pl("net.codec_ns_per_req", "ns", lo),
        pl("net.null_rtt_p50_us", "us", lo),
        pl("net.null_pipelined_mops", "Mops/s", hi),
        pl("cache.hit_ns", "ns", lo),
        pl("cache.miss_overhead_ns", "ns", lo),
        pl("cache.write_overhead_ns", "ns", lo),
        pl("engine.route_ns_per_op", "ns", lo),
    ];
    for kind in KINDS {
        v.push(pl(format!("{kind}.mixed_mops"), "Mops/s", hi));
        v.push(pl(format!("{kind}.lookup_ns"), "ns", lo));
        v.push(pl(format!("{kind}.media_read_b_per_lookup"), "B/op", lo));
        if kind == "fptree" {
            v.push(pl("obs.enabled_slowdown", "ratio", lo));
        }
        for class in ["insert", "update", "remove"] {
            v.push(pl(format!("{kind}.{class}_ns"), "ns", lo));
        }
        v.push(pl(format!("{kind}.media_write_b_per_write"), "B/op", lo));
        v.push(pl(format!("{kind}.fences_per_write"), "count", lo));
        v.push(pl(format!("{kind}.scan50_ns"), "ns", lo));
        v.push(pl(format!("{kind}.pm_b_per_record"), "B", lo));
        v.push(pl(format!("{kind}.recover_ms"), "ms", lo));
    }
    for config in ["optane", "latency_off", "elided"] {
        v.push(pl(format!("pmem.fptree_lookup_ns.{config}"), "ns", lo));
        v.push(pl(format!("pmem.fptree_insert_ns.{config}"), "ns", lo));
    }
    v.extend([
        pl("pmem.media_read_b_per_op", "B/op", lo),
        pl("pmem.media_write_b_per_op", "B/op", lo),
        pl("pmem.clwb_per_write", "count", lo),
        pl("pmem.fence_per_write", "count", lo),
        pl("pmem.clwb_redundant_share", "ratio", lo),
        pl("pmalloc.allocs_per_kwrite", "count", lo),
        pl("pmalloc.live_b_per_record", "B", lo),
        pl("engine.recover_ms", "ms", lo),
        pl("net.wire_ns_per_req", "ns", lo),
        pl("net.index_ns_per_req", "ns", lo),
        pl("net.fence_ns_per_write", "ns", lo),
        pl("net.batch_writes_avg", "count", hi),
        pl("net.fence_epochs_per_write", "count", lo),
        pl("cache.hit_rate.uniform", "ratio", hi),
        pl("cache.fill_skip_share", "ratio", lo),
        pl("net.open_p99_us.r20k", "us", lo),
        pl("net.open_p99_us.r300k", "us", lo),
        pl("net.open_p50_us.r300k", "us", lo),
        pl("net.gen_late_p99_us.r300k", "us", lo),
        pl("net.backlog_max.r300k", "count", lo),
        pl("cache.hit_rate.storm", "ratio", hi),
        pl("cache.evictions_per_kop.storm", "count", lo),
        pl("net.refused", "count", lo),
        pl("bench.trace_overhead_share", "ratio", lo),
        pl("net.self_us_per_req", "us", lo),
        pl("cache.self_ns_per_op", "ns", lo),
        pl("engine.self_ns_per_op", "ns", lo),
    ]);
    v
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .zip(WHY)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_repo_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
    }

    #[test]
    fn names_and_counts_meet_the_contract() {
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(WORKLOADS);
        let ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        assert!(names.iter().all(|n| ok(n)));
        let unique: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
        assert!(benchmark_json().len() < 64 << 10);
    }
}
