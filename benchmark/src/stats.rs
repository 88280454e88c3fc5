//! Percentiles over raw samples and medians over segments.
//!
//! `pibench::hist::LatencyHistogram` has 4 sub-buckets per octave, so a
//! p50 read off it flips between 49 152 and 57 344 ns (17 %) on
//! identical runs. Every percentile here is read off the sorted raw
//! `u32` ns samples of one segment instead; a reported number is the
//! median of those per-segment values.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice, in
/// the samples' own unit. Empty input reads 0.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `samples` in place and reads one percentile off them.
pub fn percentile(samples: &mut [u32], p: f64) -> f64 {
    samples.sort_unstable();
    percentile_sorted(samples, p)
}

/// What one metric looked like across the segments (or repetitions) of
/// a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub median: f64,
    /// First quartile (inclusive method; equals the median for n < 2).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value seen.
    pub min: f64,
    /// Largest value seen.
    pub max: f64,
    /// How many values the summary is over.
    pub n: usize,
}

/// Combines summaries field by field (`f` gets the parts' medians, then
/// their first quartiles, …); `n` is the parts' total.
pub fn combine(parts: &[Summary], f: impl Fn(&[f64]) -> f64) -> Summary {
    let field = |get: fn(&Summary) -> f64| f(&parts.iter().map(get).collect::<Vec<f64>>());
    Summary {
        median: field(|s| s.median),
        q1: field(|s| s.q1),
        q3: field(|s| s.q3),
        min: field(|s| s.min),
        max: field(|s| s.max),
        n: parts.iter().map(|s| s.n).sum(),
    }
}

/// Linear-interpolated quantile of an ascending slice (Python's
/// `statistics.quantiles(..., method="inclusive")`).
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles and range of `values`. Panics on empty input or a
/// non-finite value: both mean the benchmark itself is broken.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of no values");
    assert!(
        values.iter().all(|v| v.is_finite()),
        "non-finite value in {values:?}"
    );
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        median: quantile_sorted(&v, 0.5),
        q1: quantile_sorted(&v, 0.25),
        q3: quantile_sorted(&v, 0.75),
        min: v[0],
        max: v[v.len() - 1],
        n: v.len(),
    }
}

/// Median of `values` (see [`summarize`]).
pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Runs `f` five times and summarizes what it returned: the shape of
/// every isolation micro-run (median-of-5 with min/max).
pub fn median_of_5(mut f: impl FnMut() -> f64) -> Summary {
    let vals: Vec<f64> = (0..5).map(|_| f()).collect();
    summarize(&vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_raw_samples() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7], 99.0), 7.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
        // No bucketing: two values 17 % apart stay distinct.
        assert_eq!(percentile_sorted(&[49_152, 57_344], 50.0), 49_152.0);
        assert_eq!(percentile_sorted(&[49_152, 57_344], 51.0), 57_344.0);
    }

    #[test]
    fn median_of_segments_ignores_one_stalled_segment() {
        let s = summarize(&[10.0, 11.0, 10.5, 130_000.0, 10.2]);
        assert_eq!(s.median, 10.5);
        assert_eq!((s.min, s.max, s.n), (10.0, 130_000.0, 5));
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn quartiles_match_the_inclusive_method() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn combine_works_field_by_field() {
        let parts = [summarize(&[1.0, 2.0, 3.0]), summarize(&[10.0, 20.0, 30.0])];
        let mean = combine(&parts, |v| v.iter().sum::<f64>() / v.len() as f64);
        assert_eq!(
            (mean.median, mean.min, mean.max, mean.n),
            (11.0, 5.5, 16.5, 6)
        );
    }

    #[test]
    fn median_of_5_calls_five_times() {
        let mut n = 0.0;
        let s = median_of_5(|| {
            n += 1.0;
            n
        });
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 5));
    }
}
