//! Exporters for the `obs` observability subsystem.
//!
//! * [`chrome_trace_json`] — the merged event tail as a Chrome-trace /
//!   Perfetto "traceEvents" document (op spans as `X` complete events,
//!   PM events as `i` instants with offset/length/media args).
//! * [`timeseries_csv`] — the sampler's [`obs::TimeSeries`] as CSV.
//! * [`site_table`] — per-site traffic attribution (events, media
//!   bytes, share of total media writes), ready for text/CSV/JSON
//!   rendering via [`Table`].
//!
//! All JSON goes through the shared [`JsonObj`]/[`JsonArr`] builders.

use std::sync::Arc;

use crate::report::{fmt_bytes, JsonArr, JsonObj, Table};
use obs::{Event, EventKind, PmCounts, SiteAgg, TimeSeries};
use pmem::PmPool;

/// The merged device counters of `pools`: what [`crate::run`] reports
/// and the `obs::Sampler` closure of a tool's `--sample-ms` samples.
pub fn pool_counters(pools: &[Arc<PmPool>]) -> PmCounts {
    let snaps: Vec<PmCounts> = pools.iter().map(|p| p.stats()).collect();
    PmCounts::merged(&snaps)
}

fn event_json(e: &Event, site_names: &[String]) -> JsonObj {
    let site = site_names
        .get(e.site as usize)
        .map(|s| s.as_str())
        .unwrap_or("?");
    let ts_us = e.ts_ns as f64 / 1e3;
    let mut o = JsonObj::new();
    match e.kind {
        EventKind::OpSpan => {
            let name = obs::OP_LABELS.get(e.len as usize).copied().unwrap_or("op");
            o.str("name", name)
                .str("cat", "op")
                .str("ph", "X")
                .f64("ts", ts_us)
                .f64("dur", e.dur_ns as f64 / 1e3)
                .u64("pid", 0)
                .u64("tid", e.thread as u64);
            let mut args = JsonObj::new();
            args.str("site", site);
            o.obj("args", args);
        }
        kind => {
            o.str("name", kind.label())
                .str("cat", "pm")
                .str("ph", "i")
                .str("s", "t")
                .f64("ts", ts_us)
                .u64("pid", 0)
                .u64("tid", e.thread as u64);
            let mut args = JsonObj::new();
            args.str("site", site)
                .u64("off", e.off)
                .u64("len", e.len as u64)
                .u64("media_bytes", e.media_bytes as u64);
            o.obj("args", args);
        }
    }
    o
}

/// Render the event tail as a Chrome-trace JSON document (loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)).
pub fn chrome_trace_json(events: &[Event], site_names: &[String]) -> String {
    let mut arr = JsonArr::new();
    for e in events {
        arr.push_obj(event_json(e, site_names));
    }
    let mut doc = JsonObj::new();
    doc.arr("traceEvents", arr).str("displayTimeUnit", "ns");
    doc.finish()
}

/// Render a sampled [`TimeSeries`] as CSV: one row per interval with
/// both raw deltas and the derived rates the figures plot.
pub fn timeseries_csv(ts: &TimeSeries) -> String {
    let mut header = vec!["t_ms", "dt_ms", "ops", "mops"];
    header.extend(PmCounts::NAMES);
    header.extend([
        "read_gibps",
        "write_gibps",
        "write_amplification",
        "fence_per_s",
    ]);
    let mut t = Table::new(header);
    for p in &ts.points {
        let mut row = vec![
            p.t_ms.to_string(),
            p.dt_ms.to_string(),
            p.ops.to_string(),
            format!("{:.4}", p.mops()),
        ];
        row.extend(p.pm.to_array().map(|n| n.to_string()));
        row.extend([
            format!("{:.4}", p.read_gibps()),
            format!("{:.4}", p.write_gibps()),
            format!("{:.3}", p.pm.write_amplification()),
            format!("{:.0}", p.fence_rate()),
        ]);
        t.row(row);
    }
    t.to_csv()
}

/// The sites that saw traffic, each with its fraction of all media
/// write bytes in `sites`, in the order given (media-write-heavy first
/// from [`obs::site_table`]).
pub fn write_shares(sites: &[SiteAgg]) -> Vec<(&SiteAgg, f64)> {
    let total_wr: u64 = sites.iter().map(|s| s.counts.media_write_bytes).sum();
    let share = |s: &SiteAgg| s.counts.media_write_bytes as f64 / total_wr.max(1) as f64;
    let live = sites.iter().filter(|s| s.counts.events() > 0);
    live.map(|s| (s, share(s))).collect()
}

/// Per-site attribution table; `share%` is each site's part of all
/// media write bytes.
pub fn site_table(sites: &[SiteAgg]) -> Table {
    let mut t = Table::new(vec![
        "site",
        "events",
        "clwb",
        "redundant",
        "ntstore",
        "fence",
        "media_read",
        "media_write",
        "share%",
    ]);
    for (s, share) in write_shares(sites) {
        let c = &s.counts;
        t.row(vec![
            s.name.clone(),
            c.events().to_string(),
            c.clwb.to_string(),
            c.clwb_redundant.to_string(),
            c.ntstore.to_string(),
            c.fence.to_string(),
            fmt_bytes(c.media_read_bytes),
            fmt_bytes(c.media_write_bytes),
            format!("{:.1}", 100.0 * share),
        ]);
    }
    t
}

/// The site table as JSON rows with raw byte counts (for result files).
pub fn site_table_json(sites: &[SiteAgg]) -> String {
    let mut arr = JsonArr::new();
    for (s, share) in write_shares(sites) {
        let mut o = JsonObj::new();
        o.str("site", &s.name).u64("events", s.counts.events());
        for (name, n) in s.counts.named() {
            o.u64(name, n);
        }
        o.f64("media_write_share", share);
        arr.push_obj(o);
    }
    arr.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind) -> Event {
        Event {
            ts_ns: 1_500,
            thread: 0,
            site: 1,
            kind,
            off: 4096,
            len: 64,
            media_bytes: 256,
            dur_ns: 0,
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let names = vec!["other".to_string(), "leaf_split".to_string()];
        let span = Event {
            kind: EventKind::OpSpan,
            len: 1, // insert
            dur_ns: 2_000,
            ..ev(EventKind::OpSpan)
        };
        let json = chrome_trace_json(&[ev(EventKind::Clwb), span], &names);
        assert!(json.starts_with(r#"{"traceEvents":["#), "{json}");
        assert!(json.contains(r#""name":"clwb""#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""site":"leaf_split""#));
        assert!(json.contains(r#""name":"insert""#));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""dur":2"#));
        assert!(json.ends_with(r#""displayTimeUnit":"ns"}"#));
    }

    #[test]
    fn timeseries_csv_has_header_and_rows() {
        let ts = TimeSeries {
            interval_ms: 100,
            points: vec![obs::SamplePoint {
                t_ms: 100,
                dt_ms: 100,
                ops: 50_000,
                pm: PmCounts {
                    media_write_bytes: 1 << 20,
                    clwb: 10,
                    fence: 10,
                    ..Default::default()
                },
            }],
        };
        let csv = timeseries_csv(&ts);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("t_ms,dt_ms,ops,mops"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("100,100,50000,0.5000"), "{row}");
    }

    fn site(name: &str, clwb: u64, media_write_bytes: u64) -> SiteAgg {
        let counts = PmCounts {
            clwb,
            media_write_bytes,
            ..Default::default()
        };
        SiteAgg {
            name: name.into(),
            counts,
        }
    }

    #[test]
    fn site_table_shares_sum_to_100() {
        let sites = vec![
            site("leaf_split", 10, 3 << 10),
            site("other", 5, 1 << 10),
            site("silent", 0, 0),
        ];
        let t = site_table(&sites);
        let text = t.to_text();
        assert!(text.contains("leaf_split"));
        assert!(text.contains("75.0"));
        assert!(text.contains("25.0"));
        assert!(!text.contains("silent"));
        let json = site_table_json(&sites);
        assert!(json.contains(r#""media_write_share":0.75"#));
        // Every counter is a key, beside the row's own three.
        assert!(json.starts_with(r#"[{"site":"leaf_split","events":10,"read_ops":0,"#));
        assert!(PmCounts::NAMES
            .iter()
            .all(|n| json.contains(&format!(r#""{n}":"#))));
        assert!(!json.contains("silent"));
    }
}
