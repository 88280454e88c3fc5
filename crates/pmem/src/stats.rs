//! Access statistics with striped, cache-padded counters. The counter
//! set itself is [`obs::PmCounts`], which the crate re-exports as
//! `PmStatsSnapshot`; this module counts into it.
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

use crate::PmStatsSnapshot;

/// Number of single-writer stripes. More than any realistic thread
/// count on the target machines.
const N_STRIPES: usize = 64;

// Counter indices within a stripe: positions in `PmCounts::NAMES`.
const READ_OPS: usize = 0;
const READ_BYTES: usize = 1;
const WRITE_OPS: usize = 2;
const WRITE_BYTES: usize = 3;
const MEDIA_READ_BYTES: usize = 4;
pub(crate) const MEDIA_WRITE_BYTES: usize = 5;
pub(crate) const CLWB: usize = 6;
pub(crate) const CLWB_REDUNDANT: usize = 7;
pub(crate) const NTSTORE: usize = 8;
pub(crate) const FENCE: usize = 9;
const N_COUNTERS: usize = PmStatsSnapshot::NAMES.len();

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

    /// Every counter's total since creation.
    fn totals(&self) -> PmStatsSnapshot {
        PmStatsSnapshot::from_array(from_fn(|i| self.total(i)))
    }

    pub(crate) fn snapshot(&self) -> PmStatsSnapshot {
        self.totals().since(&crate::lock(&self.base))
    }

    pub(crate) fn reset(&self) {
        *crate::lock(&self.base) = self.totals();
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
        st.count(CLWB, 2);
        st.count(CLWB_REDUNDANT, 1);
        st.count(FENCE, 3);
        st.count(NTSTORE, 4);
        // Every index constant lands in the field it is named after.
        let expect = PmStatsSnapshot {
            read_ops: 2,
            read_bytes: 24,
            media_read_bytes: 3 * 256,
            write_ops: 1,
            write_bytes: 8,
            media_write_bytes: 256,
            clwb: 2,
            clwb_redundant: 1,
            fence: 3,
            ntstore: 4,
        };
        assert_eq!(st.snapshot(), expect);
        st.count_read(8, 0);
        let later = st.snapshot().since(&expect);
        assert_eq!((later.read_ops, later.read_bytes), (1, 8));
        st.reset();
        assert_eq!(st.snapshot(), PmStatsSnapshot::default());
        assert_eq!(st.events(), 9, "reset does not rewind the event count");
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
            vec(any::<u32>(), N_COUNTERS..N_COUNTERS + 1)
                .prop_map(|v| PmStatsSnapshot::from_array(from_fn(|i| v[i] as u64)))
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
