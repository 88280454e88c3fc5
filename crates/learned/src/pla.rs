//! Piecewise-linear approximation (PLA) of the key→rank function.
//!
//! The classic PGM-index construction: a greedy pass keeps a feasible
//! slope cone open while points still fit within ±ε of some line, and
//! closes a segment the moment the cone collapses. Because the cone is
//! maintained in `f64` while keys span the full `u64` range, rounding
//! can nudge a chosen slope slightly outside the exact-arithmetic
//! feasible region — so a verify pass re-checks every key against the
//! *stored* slope and splits the segment at the first violator. The
//! ε-bound therefore holds by construction, not by numerical luck,
//! which is what the crash-recovery window search (and the proptest in
//! `tests/learned_index.rs`) relies on.

/// One linear segment of the model: keys in `[first_key, next
/// segment's first_key)` map to ranks near `base + slope * (key -
/// first_key)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Smallest key the segment covers.
    pub first_key: u64,
    /// Rank of `first_key` in the sorted key array.
    pub base: u64,
    /// Ranks per key unit (non-negative; 0 for single-point segments).
    pub slope: f64,
}

impl Segment {
    /// Predicted rank for `key` (clamped below at `base`; the caller
    /// clamps above at `n`).
    pub fn predict(&self, key: u64) -> u64 {
        let dx = key.saturating_sub(self.first_key) as f64;
        let off = self.slope * dx;
        // A pathological slope*dx can exceed u64; saturate.
        if off >= u64::MAX as f64 {
            u64::MAX
        } else {
            self.base.saturating_add(off as u64)
        }
    }
}

/// Train an ε-bounded PLA over strictly-sorted `keys`. Every key's
/// predicted rank is guaranteed within ±`eps` of its true rank.
pub fn build_segments(keys: &[u64], eps: u64) -> Vec<Segment> {
    let _site = obs::site("learned_train");
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted");
    let mut segs = Vec::new();
    let mut start = 0usize;
    while start < keys.len() {
        let mut limit = keys.len();
        loop {
            let (end, slope) = cone(keys, start, limit, eps);
            let seg = Segment {
                first_key: keys[start],
                base: start as u64,
                slope,
            };
            // The cone guarantees a feasible slope in exact arithmetic;
            // verify the f64 one actually chosen and shrink to the
            // first violator if rounding pushed it out. Terminates:
            // `limit` strictly decreases, and a single-point segment
            // (slope 0) is always exact.
            match (start + 1..end).find(|&r| seg.predict(keys[r]).abs_diff(r as u64) > eps) {
                Some(violator) => limit = violator,
                None => {
                    segs.push(seg);
                    start = end;
                    break;
                }
            }
        }
    }
    segs
}

/// Greedy cone pass over `keys[start..limit]`: the largest `end` such
/// that one line keeps every covered rank within ±ε, plus the midpoint
/// slope of the final feasible cone (clamped non-negative; 0 is always
/// feasible when the cone admits it, and single-point segments are
/// exact with slope 0).
fn cone(keys: &[u64], start: usize, limit: usize, eps: u64) -> (usize, f64) {
    let k0 = keys[start];
    let eps = eps as f64;
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    let mut end = start + 1;
    while end < limit {
        let dx = (keys[end] - k0) as f64;
        let dr = (end - start) as f64;
        let new_lo = (dr - eps) / dx;
        let new_hi = (dr + eps) / dx;
        if lo.max(new_lo) > hi.min(new_hi) {
            break;
        }
        lo = lo.max(new_lo);
        hi = hi.min(new_hi);
        end += 1;
    }
    if end == start + 1 {
        return (end, 0.0);
    }
    let slope = ((lo + hi) / 2.0).clamp(lo.max(0.0), hi);
    (end, slope)
}

/// Index of the segment covering `key` (the last segment whose
/// `first_key <= key`; 0 when `key` precedes every segment).
pub fn segment_for(segs: &[Segment], key: u64) -> usize {
    let _site = obs::site("learned_seg_search");
    debug_assert!(!segs.is_empty());
    segs.partition_point(|s| s.first_key <= key)
        .saturating_sub(1)
}

/// The rank window `[lo, hi)` guaranteed to bracket `key`'s insertion
/// point in `keys` (`n` = key count). The ±ε member bound widens by 2
/// for non-member keys (their rank sits between two member
/// predictions), and a final guarded expansion makes the bracket
/// unconditional even for adversarial float behavior.
pub fn locate(segs: &[Segment], keys: &[u64], key: u64, eps: u64) -> (usize, usize) {
    let n = keys.len();
    if n == 0 {
        return (0, 0);
    }
    let seg = &segs[segment_for(segs, key)];
    let pred = seg.predict(key).min(n as u64 - 1);
    let mut lo = pred.saturating_sub(eps + 2) as usize;
    let mut hi = ((pred + eps + 2).min(n as u64)) as usize;
    // Guarded expansion: the window must satisfy keys[lo-1] < key (or
    // lo == 0) and keys[hi-1] >= key or hi == n.
    while lo > 0 && keys[lo - 1] >= key {
        lo = lo.saturating_sub(eps as usize + 1);
    }
    while hi < n && keys[hi] < key {
        hi = (hi + eps as usize + 1).min(n);
    }
    (lo, hi.max(lo))
}

/// `key`'s insertion point (lower bound) in `keys`, via the model.
pub fn lower_bound(segs: &[Segment], keys: &[u64], key: u64, eps: u64) -> usize {
    let (lo, hi) = locate(segs, keys, key, eps);
    lo + keys[lo..hi].partition_point(|&k| k < key)
}

/// Model lookup: `Some(rank)` when `key` is present in `keys`.
pub fn find(segs: &[Segment], keys: &[u64], key: u64, eps: u64) -> Option<usize> {
    let r = lower_bound(segs, keys, key, eps);
    (r < keys.len() && keys[r] == key).then_some(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_invariant(keys: &[u64], eps: u64) {
        let segs = build_segments(keys, eps);
        if keys.is_empty() {
            assert!(segs.is_empty());
            return;
        }
        assert_eq!(segs[0].base, 0);
        for (i, w) in segs.windows(2).enumerate() {
            assert!(w[0].first_key < w[1].first_key, "segment {i} unsorted");
            assert!(w[0].base < w[1].base);
        }
        for (r, &k) in keys.iter().enumerate() {
            let s = &segs[segment_for(&segs, k)];
            assert!(
                s.predict(k).abs_diff(r as u64) <= eps,
                "key {k} rank {r} predicted {}",
                s.predict(k)
            );
            assert_eq!(find(&segs, keys, k, eps), Some(r));
        }
    }

    #[test]
    fn linear_keys_collapse_to_one_segment() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 7 + 3).collect();
        let segs = build_segments(&keys, 8);
        assert_eq!(segs.len(), 1);
        check_invariant(&keys, 8);
    }

    #[test]
    fn skewed_and_clustered_keys_hold_the_bound() {
        let mut keys: Vec<u64> = (0..500u64).collect();
        keys.extend((0..500u64).map(|i| (1 << 40) | (i * 1000)));
        keys.extend((0..500u64).map(|i| u64::MAX - 5_000 + i * 10));
        keys.sort_unstable();
        keys.dedup();
        for eps in [1, 4, 32] {
            check_invariant(&keys, eps);
        }
    }

    #[test]
    fn extreme_span_keys_survive_f64_rounding() {
        // Keys spanning the full u64 range with microscopic gaps mixed
        // in: the f64 cone loses precision, the verify pass must save
        // the invariant.
        let mut keys = vec![0, 1, 2, 3, u64::MAX / 2, u64::MAX / 2 + 1, u64::MAX - 1];
        keys.extend((0..100u64).map(|i| (1u64 << 50) + i));
        keys.sort_unstable();
        keys.dedup();
        for eps in [1, 2, 16] {
            check_invariant(&keys, eps);
        }
    }

    #[test]
    fn absent_key_lower_bound_matches_binary_search() {
        let keys: Vec<u64> = (0..3_000u64).map(|i| i * i + 17).collect();
        let segs = build_segments(&keys, 4);
        let mut x = 12345u64;
        for _ in 0..5_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = x % (3_000 * 3_000);
            let want = keys.partition_point(|&k| k < key);
            assert_eq!(lower_bound(&segs, &keys, key, 4), want, "key {key}");
        }
    }

    #[test]
    fn smaller_eps_never_uses_fewer_segments() {
        let keys: Vec<u64> = (0..5_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) >> 3)
            .collect();
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let tight = build_segments(&keys, 2).len();
        let loose = build_segments(&keys, 64).len();
        assert!(tight >= loose, "tight={tight} loose={loose}");
        assert!(loose >= 1);
    }
}
