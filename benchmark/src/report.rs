//! Metrics by name, printed as `name value unit`, and the result line.

use crate::stats::Summary;

/// One named number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// The reported value (a median unless `detail` says otherwise).
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Spread and sample count, for the human reader.
    pub detail: String,
}

impl Metric {
    /// A metric that is a median over segments or repetitions.
    pub fn of(name: impl Into<String>, unit: &'static str, s: &Summary) -> Metric {
        Metric {
            name: name.into(),
            value: s.median,
            unit,
            detail: format!(
                "q1 {:.4} q3 {:.4} min {:.4} max {:.4} n {}",
                s.q1, s.q3, s.min, s.max, s.n
            ),
        }
    }

    /// A metric that is one exact count or ratio.
    pub fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        assert!(value.is_finite(), "metric is not a number");
        Metric {
            name: name.into(),
            value,
            unit,
            detail: String::new(),
        }
    }
}

/// What one run of one workload found.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Ops issued in timed segments plus records checked after the
    /// power cycle.
    pub attempted: u64,
    /// Wrong results, refused or unanswered requests, and records that
    /// differ from the model after the power cycle.
    pub failed: u64,
    /// The metrics the run reports (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Further lines for the reader (per-kind rows, tables).
    pub notes: Vec<String>,
}

impl Report {
    /// No op failed and every stack came back from its power cycle
    /// holding exactly the acknowledged records.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// `failed ÷ attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Every metric as `name value unit`, then the notes.
    pub fn lines(&self) -> String {
        let mut out = format!("# workload {}\n", self.workload);
        for m in &self.metrics {
            out += &format!("{} {} {}", m.name, m.value, m.unit);
            if !m.detail.is_empty() {
                out += &format!("    # {}", m.detail);
            }
            out.push('\n');
        }
        out += &format!(
            "failed_share {} ratio    # {} failed of {} attempted\n",
            self.failed_share(),
            self.failed,
            self.attempted
        );
        for n in &self.notes {
            out += n;
            out.push('\n');
        }
        out
    }

    /// The one-object result line the driver reads.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = Report {
            workload: "w",
            attempted: 10,
            failed: 0,
            metrics: vec![Metric::exact("setup_s", "s", 0.8127)],
            notes: vec![],
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(r.lines().contains("setup_s 0.8127 s\n"));
        assert!(!Report { failed: 1, ..r }.correct());
    }
}
