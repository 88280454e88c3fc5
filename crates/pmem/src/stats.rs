//! Access statistics with striped, cache-padded counters.
//!
//! Every PM access is counted twice: once at *software* granularity (the
//! bytes the program asked for) and once at *media* granularity (the
//! 256-byte blocks the device actually touches, like DCPMM's XPLine).
//! The ratio of the two is the read/write amplification the paper
//! reports; the media totals divided by wall time give the bandwidth
//! figures.
//!
//! An atomic read-modify-write costs more than the access it counts,
//! and a shared one serializes the threads. So a stripe has one writer:
//! each live thread holds one of [`N_STRIPES`] slots (handed back when
//! it exits) and updates its stripe with plain loads and stores; threads
//! beyond that share a last stripe with atomic adds. Snapshots sum the
//! stripes: exact whenever the counting threads are quiescent.

use std::array::from_fn;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crossbeam_utils::CachePadded;

/// Number of single-writer stripes. More than any realistic thread
/// count on the target machines.
const N_STRIPES: usize = 64;

// Counter indices within a stripe.
pub(crate) const CLWB: usize = 0;
pub(crate) const NTSTORE: usize = 1;
pub(crate) const FENCE: usize = 2;
pub(crate) const CLWB_REDUNDANT: usize = 3;
const READ_OPS: usize = 4;
const READ_BYTES: usize = 5;
const WRITE_OPS: usize = 6;
const WRITE_BYTES: usize = 7;
const MEDIA_READ_BYTES: usize = 8;
pub(crate) const MEDIA_WRITE_BYTES: usize = 9;
const N_COUNTERS: usize = 10;

type Stripe = [AtomicU64; N_COUNTERS];

/// Striped counter set owned by a pool. The counters only ever count
/// up: the pool's persistence-event count and store stamps are read off
/// them.
pub(crate) struct PmStats {
    /// `N_STRIPES` single-writer stripes, then the shared one.
    stripes: Box<[CachePadded<Stripe>]>,
    /// Totals at the last [`PmStats::reset`], which moves this base
    /// instead of zeroing counters that must stay monotonic.
    base: Mutex<PmStatsSnapshot>,
}

/// Bit `i` set: stripe slot `i` is not held by any live thread.
static FREE_SLOTS: AtomicU64 = AtomicU64::new(u64::MAX);

/// A thread's hold on a stripe slot; `N_STRIPES` = the shared stripe.
struct Slot(usize);

impl Slot {
    fn acquire() -> Self {
        // Take the lowest free slot. Acquire pairs with the Release in
        // `drop`: the previous holder's plain counter stores are visible
        // before ours.
        let take = |free: u64| (free != 0).then(|| free & (free - 1));
        match FREE_SLOTS.fetch_update(Ordering::Acquire, Ordering::Relaxed, take) {
            Ok(free) => Slot(free.trailing_zeros() as usize),
            Err(_) => Slot(N_STRIPES),
        }
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        if self.0 < N_STRIPES {
            FREE_SLOTS.fetch_or(1 << self.0, Ordering::Release);
        }
    }
}

thread_local! {
    static SLOT: Slot = Slot::acquire();
}

impl PmStats {
    pub(crate) fn new() -> Self {
        Self {
            stripes: (0..=N_STRIPES).map(|_| Default::default()).collect(),
            base: Mutex::default(),
        }
    }

    /// `add(i, n)` adds `n` to counter `i` of the calling thread's
    /// stripe and returns the counter's previous value.
    #[inline]
    fn adder(&self) -> impl Fn(usize, u64) -> u64 + '_ {
        // A thread past its TLS teardown counts on the shared stripe.
        let slot = SLOT.try_with(|s| s.0).unwrap_or(N_STRIPES);
        move |i, n| {
            let c = &self.stripes[slot][i];
            if slot == N_STRIPES {
                return c.fetch_add(n, Ordering::Relaxed);
            }
            // No other live thread writes this stripe.
            let v = c.load(Ordering::Relaxed);
            c.store(v + n, Ordering::Relaxed);
            v
        }
    }

    #[inline]
    pub(crate) fn count_read(&self, bytes: u64, media_blocks: u64) {
        let add = self.adder();
        add(READ_OPS, 1);
        add(READ_BYTES, bytes);
        if media_blocks != 0 {
            add(MEDIA_READ_BYTES, media_blocks * super::MEDIA_BLOCK as u64);
        }
    }

    /// Count one store and return its stamp: how many stores this
    /// thread's stripe had counted before it, so a thread's later store
    /// always carries a larger stamp.
    #[inline]
    pub(crate) fn count_write(&self, bytes: u64) -> u64 {
        let add = self.adder();
        add(WRITE_BYTES, bytes);
        add(WRITE_OPS, 1)
    }

    /// Add `n` to one counter of the calling thread's stripe.
    #[inline]
    pub(crate) fn count(&self, counter: usize, n: u64) {
        self.adder()(counter, n);
    }

    fn total(&self, counter: usize) -> u64 {
        self.stripes
            .iter()
            .map(|s| s[counter].load(Ordering::Relaxed))
            .sum()
    }

    /// Persistence events (clwb + ntstore + fence) since creation;
    /// [`PmStats::reset`] does not rewind it.
    pub(crate) fn events(&self) -> u64 {
        self.total(CLWB) + self.total(NTSTORE) + self.total(FENCE)
    }

    pub(crate) fn snapshot(&self) -> PmStatsSnapshot {
        PmStatsSnapshot::from_counts(from_fn(|i| self.total(i))).since(&crate::lock(&self.base))
    }

    pub(crate) fn reset(&self) {
        *crate::lock(&self.base) = PmStatsSnapshot::from_counts(from_fn(|i| self.total(i)));
    }
}

/// A point-in-time aggregate of a pool's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PmStatsSnapshot {
    /// Number of load operations issued against PM.
    pub read_ops: u64,
    /// Bytes the software asked to read.
    pub read_bytes: u64,
    /// Number of store operations issued against PM.
    pub write_ops: u64,
    /// Bytes the software asked to write.
    pub write_bytes: u64,
    /// Bytes the emulated media served for reads (256 B granularity).
    pub media_read_bytes: u64,
    /// Bytes the emulated media absorbed from write-backs (256 B granularity).
    pub media_write_bytes: u64,
    /// `clwb`/`clflushopt` instructions issued.
    pub clwb: u64,
    /// Redundant write-backs: `clwb` calls whose covered cache lines
    /// were all already clean (pmemcheck-style durability audit).
    pub clwb_redundant: u64,
    /// Non-temporal stores issued.
    pub ntstore: u64,
    /// Store fences issued.
    pub fence: u64,
}

impl PmStatsSnapshot {
    fn from_counts(c: [u64; N_COUNTERS]) -> Self {
        Self {
            read_ops: c[READ_OPS],
            read_bytes: c[READ_BYTES],
            write_ops: c[WRITE_OPS],
            write_bytes: c[WRITE_BYTES],
            media_read_bytes: c[MEDIA_READ_BYTES],
            media_write_bytes: c[MEDIA_WRITE_BYTES],
            clwb: c[CLWB],
            clwb_redundant: c[CLWB_REDUNDANT],
            ntstore: c[NTSTORE],
            fence: c[FENCE],
        }
    }

    fn counts(&self) -> [u64; N_COUNTERS] {
        let mut c = [0; N_COUNTERS];
        c[READ_OPS] = self.read_ops;
        c[READ_BYTES] = self.read_bytes;
        c[WRITE_OPS] = self.write_ops;
        c[WRITE_BYTES] = self.write_bytes;
        c[MEDIA_READ_BYTES] = self.media_read_bytes;
        c[MEDIA_WRITE_BYTES] = self.media_write_bytes;
        c[CLWB] = self.clwb;
        c[CLWB_REDUNDANT] = self.clwb_redundant;
        c[NTSTORE] = self.ntstore;
        c[FENCE] = self.fence;
        c
    }

    /// Counter-wise difference `self - earlier` (saturating, so a
    /// concurrent reset cannot panic).
    pub fn since(&self, earlier: &PmStatsSnapshot) -> PmStatsSnapshot {
        let (a, b) = (self.counts(), earlier.counts());
        Self::from_counts(from_fn(|i| a[i].saturating_sub(b[i])))
    }

    /// Counter-wise sum `self + other`, for aggregating the pools of a
    /// multi-shard index into one set of amplification/bandwidth figures.
    pub fn merge(&mut self, other: &PmStatsSnapshot) {
        let (a, b) = (self.counts(), other.counts());
        *self = Self::from_counts(from_fn(|i| a[i] + b[i]));
    }

    /// Sum an iterator of snapshots (one per shard pool).
    pub fn merged<'a, I: IntoIterator<Item = &'a PmStatsSnapshot>>(iter: I) -> PmStatsSnapshot {
        iter.into_iter().fold(Self::default(), |mut out, s| {
            out.merge(s);
            out
        })
    }

    /// Read amplification: media bytes per software byte read.
    pub fn read_amplification(&self) -> f64 {
        amplification(self.media_read_bytes, self.read_bytes)
    }

    /// Write amplification: media bytes per software byte written.
    pub fn write_amplification(&self) -> f64 {
        amplification(self.media_write_bytes, self.write_bytes)
    }
}

fn amplification(media_bytes: u64, bytes: u64) -> f64 {
    if bytes == 0 {
        0.0
    } else {
        media_bytes as f64 / bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sums_and_resets() {
        let st = PmStats::new();
        st.count_read(8, 1);
        st.count_read(16, 2);
        st.count_write(8);
        st.count(MEDIA_WRITE_BYTES, 256);
        st.count(CLWB, 1);
        st.count(FENCE, 1);
        st.count(NTSTORE, 1);
        let s = st.snapshot();
        assert_eq!(s.read_ops, 2);
        assert_eq!(s.read_bytes, 24);
        assert_eq!(s.media_read_bytes, 3 * 256);
        assert_eq!(s.write_ops, 1);
        assert_eq!(s.write_bytes, 8);
        assert_eq!(s.media_write_bytes, 256);
        assert_eq!(s.clwb, 1);
        assert_eq!(s.fence, 1);
        assert_eq!(s.ntstore, 1);
        st.reset();
        assert_eq!(st.snapshot(), PmStatsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let st = PmStats::new();
        st.count_read(8, 1);
        let a = st.snapshot();
        st.count_read(8, 1);
        let b = st.snapshot();
        let d = b.since(&a);
        assert_eq!(d.read_ops, 1);
        assert_eq!(d.read_bytes, 8);
    }

    #[test]
    fn amplification_ratios() {
        let s = PmStatsSnapshot {
            read_bytes: 64,
            media_read_bytes: 256,
            write_bytes: 8,
            media_write_bytes: 256,
            ..Default::default()
        };
        assert_eq!(s.read_amplification(), 4.0);
        assert_eq!(s.write_amplification(), 32.0);
        assert_eq!(PmStatsSnapshot::default().read_amplification(), 0.0);
    }

    #[test]
    fn merge_sums_counterwise() {
        let a = PmStatsSnapshot {
            read_ops: 1,
            read_bytes: 8,
            media_read_bytes: 256,
            clwb: 2,
            ..Default::default()
        };
        let b = PmStatsSnapshot {
            read_ops: 3,
            read_bytes: 24,
            media_read_bytes: 512,
            fence: 1,
            ..Default::default()
        };
        let m = PmStatsSnapshot::merged([&a, &b]);
        assert_eq!(m.read_ops, 4);
        assert_eq!(m.read_bytes, 32);
        assert_eq!(m.media_read_bytes, 768);
        assert_eq!(m.clwb, 2);
        assert_eq!(m.fence, 1);
        assert_eq!(
            PmStatsSnapshot::merged(std::iter::empty()),
            PmStatsSnapshot::default()
        );
    }

    mod algebra {
        //! `PmStatsSnapshot` forms a commutative monoid under `merge`
        //! with `default()` as identity, and `since` is its counter-wise
        //! inverse. Sharded aggregation and the time-series sampler both
        //! lean on these laws, so pin them down with property tests.

        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Arbitrary snapshot with counters bounded so that merging a
        /// handful can never overflow `u64` (merge uses plain `+=`).
        fn arb_snapshot() -> impl Strategy<Value = PmStatsSnapshot> {
            vec(any::<u32>(), 10..11).prop_map(|v| PmStatsSnapshot {
                read_ops: v[0] as u64,
                read_bytes: v[1] as u64,
                write_ops: v[2] as u64,
                write_bytes: v[3] as u64,
                media_read_bytes: v[4] as u64,
                media_write_bytes: v[5] as u64,
                clwb: v[6] as u64,
                clwb_redundant: v[7] as u64,
                ntstore: v[8] as u64,
                fence: v[9] as u64,
            })
        }

        fn plus(a: &PmStatsSnapshot, b: &PmStatsSnapshot) -> PmStatsSnapshot {
            let mut m = *a;
            m.merge(b);
            m
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            #[test]
            fn merge_is_commutative(a in arb_snapshot(), b in arb_snapshot()) {
                prop_assert_eq!(plus(&a, &b), plus(&b, &a));
            }

            #[test]
            fn merge_is_associative(
                a in arb_snapshot(),
                b in arb_snapshot(),
                c in arb_snapshot(),
            ) {
                prop_assert_eq!(plus(&plus(&a, &b), &c), plus(&a, &plus(&b, &c)));
            }

            #[test]
            fn default_is_merge_identity(a in arb_snapshot()) {
                let id = PmStatsSnapshot::default();
                prop_assert_eq!(plus(&a, &id), a);
                prop_assert_eq!(plus(&id, &a), a);
            }

            #[test]
            fn since_inverts_merge(a in arb_snapshot(), b in arb_snapshot()) {
                // (a ⊕ b).since(a) == b, counter-wise.
                prop_assert_eq!(plus(&a, &b).since(&a), b);
                prop_assert_eq!(a.since(&a), PmStatsSnapshot::default());
                // since never underflows even when "earlier" is larger.
                prop_assert_eq!(
                    PmStatsSnapshot::default().since(&a),
                    PmStatsSnapshot::default()
                );
            }
        }
    }

    #[test]
    fn counting_from_many_threads_is_complete() {
        let st = std::sync::Arc::new(PmStats::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let st = st.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        st.count_read(8, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(st.snapshot().read_ops, 8000);
    }
}
