//! Background time-series sampler.
//!
//! A sampler thread wakes every `interval_ms`, reads a caller-supplied
//! cumulative [`PmCounts`] source (obs cannot depend on `pmem`, so
//! the caller closes over its pools and merges their snapshots) plus
//! the global op counter, and appends the *delta* since the previous
//! wake as one [`SamplePoint`]. The result is a [`TimeSeries`] of
//! throughput / bandwidth / flush-rate over the run, with a simple
//! steady-state detector so reports can exclude warmup.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::PmCounts;

/// One sampling interval: `ops` and `pm` are deltas over `dt_ms`;
/// `t_ms` is milliseconds from sampler start to the interval's *end*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplePoint {
    pub t_ms: u64,
    pub dt_ms: u64,
    pub ops: u64,
    pub pm: PmCounts,
}

impl SamplePoint {
    fn dt_s(&self) -> f64 {
        (self.dt_ms.max(1)) as f64 / 1e3
    }

    /// Throughput over this interval, Mops/s.
    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.dt_s() / 1e6
    }

    /// Media read / write bandwidth over this interval, GiB/s.
    pub fn read_gibps(&self) -> f64 {
        self.pm.media_read_bytes as f64 / self.dt_s() / (1u64 << 30) as f64
    }

    pub fn write_gibps(&self) -> f64 {
        self.pm.media_write_bytes as f64 / self.dt_s() / (1u64 << 30) as f64
    }

    /// Fences per second over this interval.
    pub fn fence_rate(&self) -> f64 {
        self.pm.fence as f64 / self.dt_s()
    }
}

/// The sampled series for one run.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    pub interval_ms: u64,
    pub points: Vec<SamplePoint>,
}

impl TimeSeries {
    /// Index of the first steady-state sample: the first point whose
    /// op rate reaches 80% of the median rate over the second half of
    /// the series (the second half is taken as "warmed up"). Returns 0
    /// for short or flat series, so callers can use it unconditionally.
    pub fn steady_start(&self) -> usize {
        let n = self.points.len();
        if n < 4 {
            return 0;
        }
        let mut tail: Vec<f64> = self.points[n / 2..].iter().map(|p| p.mops()).collect();
        tail.sort_by(|a, b| a.total_cmp(b));
        let median = tail[tail.len() / 2];
        let threshold = 0.8 * median;
        self.points
            .iter()
            .position(|p| p.mops() >= threshold)
            .unwrap_or(0)
    }

    /// Mean throughput (Mops/s) over `points[from..]`, time-weighted.
    pub fn mops_from(&self, from: usize) -> f64 {
        let pts = &self.points[from.min(self.points.len())..];
        let ops: u64 = pts.iter().map(|p| p.ops).sum();
        let ms: u64 = pts.iter().map(|p| p.dt_ms).sum();
        if ms == 0 {
            0.0
        } else {
            ops as f64 / (ms as f64 / 1e3) / 1e6
        }
    }
}

/// Handle for the background sampling thread. `stop()` joins it and
/// returns the collected series; dropping without `stop()` detaches
/// and stops the thread without collecting.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<Vec<SamplePoint>>>,
    interval_ms: u64,
}

impl Sampler {
    /// Start sampling every `interval_ms` (clamped to ≥ 1 ms).
    /// `source` returns the *cumulative* counters at each wake.
    pub fn start(interval_ms: u64, source: impl Fn() -> PmCounts + Send + 'static) -> Sampler {
        let interval_ms = interval_ms.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || sample_loop(interval_ms, &stop2, &source))
            .expect("spawn obs-sampler");
        Sampler {
            stop,
            handle: Some(handle),
            interval_ms,
        }
    }

    /// Stop the thread (taking one final partial sample) and return
    /// the series.
    pub fn stop(mut self) -> TimeSeries {
        self.stop.store(true, Ordering::SeqCst);
        let points = self
            .handle
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        TimeSeries {
            interval_ms: self.interval_ms,
            points,
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn sample_loop(
    interval_ms: u64,
    stop: &AtomicBool,
    source: &dyn Fn() -> PmCounts,
) -> Vec<SamplePoint> {
    let t0 = Instant::now();
    let mut prev = source();
    let mut prev_ops = crate::total_ops();
    let mut prev_t = t0;
    let mut points = Vec::new();
    loop {
        let stopping = stop.load(Ordering::Relaxed);
        if !stopping {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        let now = Instant::now();
        let cur = source();
        let ops = crate::total_ops();
        let dt_ms = now.duration_since(prev_t).as_millis() as u64;
        // Skip empty final partials (stop raced the last regular wake).
        if dt_ms > 0 || !stopping {
            points.push(SamplePoint {
                t_ms: now.duration_since(t0).as_millis() as u64,
                dt_ms,
                ops: ops.saturating_sub(prev_ops),
                pm: cur.since(&prev),
            });
        }
        if stopping {
            return points;
        }
        prev = cur;
        prev_ops = ops;
        prev_t = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn ramp_series(rates: &[u64]) -> TimeSeries {
        TimeSeries {
            interval_ms: 100,
            points: rates
                .iter()
                .enumerate()
                .map(|(i, &ops)| SamplePoint {
                    t_ms: (i as u64 + 1) * 100,
                    dt_ms: 100,
                    ops,
                    ..SamplePoint::default()
                })
                .collect(),
        }
    }

    #[test]
    fn steady_start_skips_warmup_ramp() {
        let ts = ramp_series(&[10, 50, 90, 100, 100, 100, 100, 100]);
        // Median of the second half is 100; first point at ≥ 80 is idx 2.
        assert_eq!(ts.steady_start(), 2);
        // Flat series: steady from the start.
        assert_eq!(ramp_series(&[100; 8]).steady_start(), 0);
        // Too short to judge: start at 0.
        assert_eq!(ramp_series(&[1, 100]).steady_start(), 0);
    }

    #[test]
    fn mops_from_is_time_weighted() {
        let ts = ramp_series(&[0, 100_000, 100_000]);
        // Over all 300 ms: 200k ops -> ~0.667 Mops/s.
        assert!((ts.mops_from(0) - 0.6667).abs() < 1e-3);
        // Excluding warmup: 1.0 Mops/s.
        assert!((ts.mops_from(1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sampler_collects_counter_deltas() {
        let counter = Arc::new(AtomicU64::new(0));
        let src = counter.clone();
        let sampler = Sampler::start(5, move || PmCounts {
            media_write_bytes: src.load(Ordering::Relaxed),
            ..PmCounts::default()
        });
        for _ in 0..10 {
            counter.fetch_add(1024, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(3));
        }
        let ts = sampler.stop();
        assert!(!ts.points.is_empty());
        let total: u64 = ts.points.iter().map(|p| p.pm.media_write_bytes).sum();
        // All increments that happened between the first and last wake
        // are accounted; allow the first pre-start increment to be lost.
        assert!(total >= 1024 * 8, "total={total}");
        assert!(total <= 1024 * 10);
        assert!(ts.points.iter().all(|p| p.pm.write_amplification() == 0.0));
    }
}
