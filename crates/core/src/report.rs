//! Plain-text and CSV reporting: the series the paper's figures plot.

use std::fmt::Write as _;

use crate::hist::LatencyHistogram;
use index_api::OP_KINDS;

/// A simple aligned table builder.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Append a `metric, value` row to a two-column table.
    pub fn kv(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.row(vec![key.to_string(), value.to_string()])
    }

    /// Render as an aligned text table.
    pub fn to_text(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>width$}", c, width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Render as a JSON array of row objects keyed by column header
    /// (handwritten — the workspace deliberately has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (ri, row) in self.rows.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            out.push('{');
            for (ci, cell) in row.iter().enumerate() {
                if ci > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{}:{}",
                    json_string(&self.header[ci]),
                    json_string(cell)
                );
            }
            out.push('}');
        }
        out.push(']');
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Incremental JSON object builder (handwritten — the workspace
/// deliberately has no serde). Shared by every emitter in the tree:
/// `pibench --json`, the `e00_run_all` result files, and the obs
/// trace/time-series exporters.
///
/// ```
/// # use pibench::report::{JsonArr, JsonObj};
/// let mut o = JsonObj::new();
/// o.str("index", "fptree").u64("threads", 8).f64("mops", 1.25);
/// assert_eq!(o.finish(), r#"{"index":"fptree","threads":8,"mops":1.25}"#);
/// ```
#[derive(Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    pub fn new() -> JsonObj {
        JsonObj::default()
    }

    /// Append `key: value` with `value` already JSON-encoded.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        let _ = write!(self.buf, "{}:{}", json_string(key), value);
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let v = json_string(value);
        self.raw(key, &v)
    }

    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.raw(key, &value.to_string())
    }

    /// Floats render shortest-roundtrip; non-finite values become
    /// `null` (JSON has no NaN/inf).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        let v = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_string()
        };
        self.raw(key, &v)
    }

    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Append a nested object.
    pub fn obj(&mut self, key: &str, value: JsonObj) -> &mut Self {
        let v = value.finish();
        self.raw(key, &v)
    }

    /// Append a nested array.
    pub fn arr(&mut self, key: &str, value: JsonArr) -> &mut Self {
        let v = value.finish();
        self.raw(key, &v)
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Incremental JSON array builder, companion to [`JsonObj`].
#[derive(Default)]
pub struct JsonArr {
    buf: String,
}

impl JsonArr {
    pub fn new() -> JsonArr {
        JsonArr::default()
    }

    /// Append an element that is already JSON-encoded.
    pub fn push_raw(&mut self, value: &str) -> &mut Self {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push_str(value);
        self
    }

    pub fn push_obj(&mut self, value: JsonObj) -> &mut Self {
        let v = value.finish();
        self.push_raw(&v)
    }

    pub fn push_str(&mut self, value: &str) -> &mut Self {
        let v = json_string(value);
        self.push_raw(&v)
    }

    pub fn push_u64(&mut self, value: u64) -> &mut Self {
        let v = value.to_string();
        self.push_raw(&v)
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(&self) -> String {
        format!("[{}]", self.buf)
    }
}

/// Quote and escape a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One `<op> p50/p99/p99.9` row per op kind that recorded a latency
/// (`hists` in [`OP_KINDS`] order), on a `metric, value` table.
pub fn latency_rows(t: &mut Table, hists: &[LatencyHistogram]) {
    for (kind, h) in OP_KINDS.iter().zip(hists).filter(|(_, h)| !h.is_empty()) {
        let pct = |p| fmt_ns(h.percentile(p));
        t.kv(
            &format!("{} p50/p99/p99.9", kind.label()),
            format!("{} / {} / {}", pct(50.0), pct(99.0), pct(99.9)),
        );
    }
}

/// The `latency_ns` object of a result document: per op kind that
/// recorded a latency, its sample count, percentiles and mean.
pub fn latency_json(hists: &[LatencyHistogram]) -> JsonObj {
    let mut latency = JsonObj::new();
    for (kind, h) in OP_KINDS.iter().zip(hists).filter(|(_, h)| !h.is_empty()) {
        let mut one = JsonObj::new();
        one.u64("count", h.len())
            .u64("p50", h.percentile(50.0))
            .u64("p99", h.percentile(99.0))
            .u64("p999", h.percentile(99.9))
            .f64("mean", h.mean());
        latency.obj(kind.label(), one);
    }
    latency
}

/// The DRAM cache tier's counters as two rows of a `metric, value`
/// table (plain numbers: this crate does not link `cache`).
pub fn cache_rows(t: &mut Table, hits: u64, misses: u64, churn: [u64; 3]) {
    let rate = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
    t.kv(
        "cache hits / misses",
        format!("{hits} / {misses} ({rate:.1}% hit rate)"),
    );
    let [fills, evictions, invalidations] = churn;
    t.kv(
        "cache fills / evictions / invalidations",
        format!("{fills} / {evictions} / {invalidations}"),
    );
}

/// Format an ops/s figure the way the paper's axes do (Mops/s).
pub fn fmt_mops(v: f64) -> String {
    format!("{v:.3}")
}

/// Format nanoseconds human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{:.1}ms", ns as f64 / 1e6)
    }
}

/// Format a byte count with binary units.
pub fn fmt_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else if b < 1024 * 1024 * 1024 {
        format!("{:.2}MiB", b as f64 / (1 << 20) as f64)
    } else {
        format!("{:.2}GiB", b as f64 / (1 << 30) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_csv() {
        let mut t = Table::new(vec!["index", "threads", "mops"]);
        t.row(vec!["fptree", "1", "1.234"]);
        t.row(vec!["bztree", "40", "0.567"]);
        let text = t.to_text();
        assert!(text.contains("index"));
        assert!(text.lines().count() == 4);
        // Columns right-aligned to equal width per column.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len());
        let csv = t.to_csv();
        assert_eq!(csv.lines().next().unwrap(), "index,threads,mops");
        assert!(csv.contains("bztree,40,0.567"));
    }

    #[test]
    fn json_rows_and_escaping() {
        let mut t = Table::new(vec!["index", "mops"]);
        t.row(vec!["fptree", "1.234"]);
        t.row(vec!["a\"b", "x\ny"]);
        assert_eq!(
            t.to_json(),
            r#"[{"index":"fptree","mops":"1.234"},{"index":"a\"b","mops":"x\ny"}]"#
        );
        assert_eq!(Table::new(vec!["a"]).to_json(), "[]");
        assert_eq!(json_string("p\\q"), r#""p\\q""#);
    }

    #[test]
    fn json_builders_nest_and_escape() {
        let mut inner = JsonObj::new();
        inner.u64("p50", 120).u64("p99", 4096);
        let mut arr = JsonArr::new();
        arr.push_str("a\"b").push_u64(7);
        let mut o = JsonObj::new();
        o.str("index", "fptree")
            .f64("mops", 0.5)
            .f64("bad", f64::NAN)
            .bool("dram", false)
            .obj("latency", inner)
            .arr("tags", arr);
        assert_eq!(
            o.finish(),
            r#"{"index":"fptree","mops":0.5,"bad":null,"dram":false,"latency":{"p50":120,"p99":4096},"tags":["a\"b",7]}"#
        );
        assert_eq!(JsonObj::new().finish(), "{}");
        assert_eq!(JsonArr::new().finish(), "[]");
        assert!(JsonArr::new().is_empty());
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["x,y"]);
        assert!(t.to_csv().contains("\"x,y\""));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        Table::new(vec!["a", "b"]).row(vec!["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(50_000), "50.0us");
        assert_eq!(fmt_ns(50_000_000), "50.0ms");
        assert_eq!(fmt_bytes(100), "100B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.00MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00GiB");
        assert_eq!(fmt_mops(1.23456), "1.235");
    }
}
