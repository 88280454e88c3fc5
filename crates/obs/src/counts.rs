//! The PM counter set, declared once.
//!
//! Every PM access is counted twice: once at *software* granularity (the
//! bytes the program asked for) and once at *media* granularity (the
//! 256-byte blocks the device actually touches, like DCPMM's XPLine).
//! The ratio of the two is the read/write amplification the paper
//! reports; the media totals divided by wall time give the bandwidth
//! figures.
//!
//! [`PmCounts`] is that vocabulary: a pool's snapshot (`pmem` re-exports
//! it as `PmStatsSnapshot`), a row of the site table, a sampler interval
//! and every report that prints them are this one type. A new counter is
//! one field here, its stripe index in `pmem::stats` and one tap.

use std::array::from_fn;
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the counter struct and, from the same field list, its array
/// form: `NAMES`, `to_array` and `from_array` cannot drift from the fields.
macro_rules! counter_set {
    ($(#[$meta:meta])* pub struct $ty:ident { $($(#[$doc:meta])* pub $field:ident: u64,)* }) => {
        $(#[$meta])*
        pub struct $ty { $($(#[$doc])* pub $field: u64,)* }

        /// How many counters the set has.
        const N: usize = [$(stringify!($field),)*].len();

        impl $ty {
            /// The counters' names, in field order: the order of
            /// [`Self::to_array`] and the key every report prints them under.
            pub const NAMES: [&'static str; N] = [$(stringify!($field),)*];

            /// The counters in [`Self::NAMES`] order.
            pub fn to_array(&self) -> [u64; N] {
                [$(self.$field,)*]
            }

            /// Inverse of [`Self::to_array`].
            pub fn from_array(c: [u64; N]) -> Self {
                let [$($field,)*] = c;
                Self { $($field,)* }
            }
        }
    };
}

counter_set! {
    /// A set of PM counters: a pool's totals at one instant, or a delta
    /// between two of them.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct PmCounts {
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
}

impl PmCounts {
    /// Every counter beside its name, in [`PmCounts::NAMES`] order: what
    /// a report that prints all of them iterates.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
        Self::NAMES.into_iter().zip(self.to_array())
    }

    /// Counter-wise difference `self - earlier` (saturating, so a
    /// concurrent reset cannot panic).
    pub fn since(&self, earlier: &PmCounts) -> PmCounts {
        let (a, b) = (self.to_array(), earlier.to_array());
        Self::from_array(from_fn(|i| a[i].saturating_sub(b[i])))
    }

    /// Counter-wise sum `self + other`, for aggregating the pools of a
    /// multi-shard index into one set of amplification/bandwidth figures.
    pub fn merge(&mut self, other: &PmCounts) {
        let (a, b) = (self.to_array(), other.to_array());
        *self = Self::from_array(from_fn(|i| a[i] + b[i]));
    }

    /// Sum an iterator of counter sets (one per shard pool, or one per
    /// site).
    pub fn merged<'a, I: IntoIterator<Item = &'a PmCounts>>(iter: I) -> PmCounts {
        iter.into_iter().fold(Self::default(), |mut out, s| {
            out.merge(s);
            out
        })
    }

    /// PM events counted: one per load, store, write-back, non-temporal
    /// store and fence — one per tap call.
    pub fn events(&self) -> u64 {
        self.read_ops + self.write_ops + self.clwb + self.ntstore + self.fence
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

/// The atomic twin of [`PmCounts`]: one thread's counters for one site.
/// Only the owning thread writes, so a relaxed `fetch_add` costs a plain
/// add; readers sum across threads.
#[derive(Default)]
pub(crate) struct PmCells([AtomicU64; N]);

impl PmCells {
    pub(crate) fn add(&self, c: &PmCounts) {
        for (cell, n) in self.0.iter().zip(c.to_array()) {
            if n != 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn clear(&self) {
        for cell in &self.0 {
            cell.store(0, Ordering::Relaxed);
        }
    }

    pub(crate) fn load(&self) -> PmCounts {
        PmCounts::from_array(from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A set whose every counter differs, so a swapped pair shows.
    fn distinct() -> PmCounts {
        PmCounts::from_array(from_fn(|i| 1 << i))
    }

    #[test]
    fn array_form_roundtrips_in_field_order() {
        let x = distinct();
        assert_eq!(PmCounts::from_array(x.to_array()), x);
        // NAMES[i] names the field to_array()[i] reads.
        let by_name = [
            ("read_ops", x.read_ops),
            ("read_bytes", x.read_bytes),
            ("write_ops", x.write_ops),
            ("write_bytes", x.write_bytes),
            ("media_read_bytes", x.media_read_bytes),
            ("media_write_bytes", x.media_write_bytes),
            ("clwb", x.clwb),
            ("clwb_redundant", x.clwb_redundant),
            ("ntstore", x.ntstore),
            ("fence", x.fence),
        ];
        assert_eq!(x.named().collect::<Vec<_>>(), by_name);
    }

    #[test]
    fn since_saturates_and_merge_adds() {
        let (zero, x) = (PmCounts::default(), distinct());
        let mut twice = x;
        twice.merge(&x);
        assert_eq!(twice.to_array(), x.to_array().map(|n| 2 * n));
        assert_eq!(twice.since(&x), x);
        assert_eq!(x.since(&twice), zero, "an earlier that is larger gives 0");
        assert_eq!(PmCounts::merged([&x, &x, &zero]), twice);
        assert_eq!(PmCounts::merged(std::iter::empty()), zero);
    }

    #[test]
    fn amplification_ratios() {
        let s = PmCounts {
            read_bytes: 64,
            media_read_bytes: 256,
            write_bytes: 8,
            media_write_bytes: 256,
            ..Default::default()
        };
        assert_eq!(s.read_amplification(), 4.0);
        assert_eq!(s.write_amplification(), 32.0);
        assert_eq!(PmCounts::default().read_amplification(), 0.0);
    }

    #[test]
    fn cells_add_then_load_then_clear() {
        let cells = PmCells::default();
        cells.add(&distinct());
        cells.add(&distinct());
        let mut twice = distinct();
        twice.merge(&distinct());
        assert_eq!(cells.load(), twice);
        cells.clear();
        assert_eq!(cells.load(), PmCounts::default());
    }
}
