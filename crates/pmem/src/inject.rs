//! Crash-point injection: power failure at the N-th persistence event,
//! with a configurable post-crash residual image and media errors.
//!
//! The emulator's [`crate::PmPool::crash`] models power loss *between*
//! operations; the interleavings that actually break PM indexes are the
//! ones *inside* an operation, between one `clwb`/`sfence` and the
//! next (RECIPE, SOSP 2019). This module provides the machinery to
//! explore those windows:
//!
//! * [`crate::PmPool::arm_crash_after`]`(n)` arms the pool so the n-th
//!   subsequent *persistence event* — a [`crate::PmPool::clwb`],
//!   [`crate::PmPool::ntstore_u64`] or [`crate::PmPool::sfence`] call —
//!   does **not** take effect. Instead the pool freezes its persisted
//!   image (as if power was cut just before the instruction retired)
//!   and unwinds out of the in-flight operation by panicking with a
//!   [`CrashPointHit`] payload.
//! * The harness catches the unwind (`std::panic::catch_unwind`),
//!   drops the index and allocator front-ends, calls
//!   [`crate::PmPool::crash`] to discard the volatile image, and runs
//!   recovery exactly as it would after a real power cycle.
//! * While frozen, every later persistence primitive is a no-op and
//!   eviction chaos is disabled, so destructors and deferred frees that
//!   run during unwinding cannot retroactively persist anything.
//!
//! Arming also snapshots a pmemcheck-style **durability audit** at the
//! moment of the crash: how many dirty (written but unflushed) words
//! and cache lines existed, and how many redundant flushes (a `clwb`
//! covering only already-clean lines) had been issued.
//!
//! Event counting is exact only when one thread drives the pool, which
//! is what a deterministic boundary sweep needs. Multi-threaded crash
//! runs use [`crate::PmPool::set_halt_on_crash`]: once the armed crash
//! fires, every other thread's next PM access unwinds with
//! [`CrashPointHit`] too — the device is gone, so no thread can keep
//! executing (and in particular no thread can spin forever on a lock
//! word the dead thread left set).
//!
//! # The residual image
//!
//! The frozen persisted image is only one of the legal post-crash
//! states. Real PM promises nothing stronger than *8-byte failure
//! atomicity*: at power loss, any subset of the dirty (written but
//! unflushed) cache lines may have been evicted to media, so a
//! multi-line structure can land torn, with each of its lines
//! independently present or absent. [`ResidualPolicy`] describes how to
//! pick that subset: keep the frozen image, sample each dirty line with
//! a seeded probability, or enumerate an explicit subset mask (the
//! exhaustive 2^k mode for small dirty sets). The candidate set — every
//! dirty line with its CPU contents — is captured at the instant the
//! crash fires, before unwinding code can dirty anything else.
//!
//! # Media errors
//!
//! A power cut mid-write can also leave a cache line *unreadable*: the
//! media reports poison (a machine-check on real hardware) instead of
//! data. [`crate::PmPool::poison_line`] models that. Reads of a
//! poisoned line panic with [`PoisonedRead`] (the emulator's MCE);
//! recovery code is expected to probe with
//! [`crate::PmPool::check_readable`] first and turn the [`MediaError`]
//! into a graceful "rebuild or report" path instead of ever surfacing
//! garbage.

/// Panic payload used by crash-point injection.
///
/// Harness code should `catch_unwind` and downcast the payload to this
/// type; any other payload is a genuine panic and must be propagated
/// with `std::panic::resume_unwind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPointHit;

/// Which primitive tripped the injected crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistEventKind {
    /// A cache-line write-back ([`crate::PmPool::clwb`]).
    Clwb,
    /// A non-temporal store ([`crate::PmPool::ntstore_u64`]).
    Ntstore,
    /// A store fence ([`crate::PmPool::sfence`]).
    Sfence,
}

impl std::fmt::Display for PersistEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PersistEventKind::Clwb => "clwb",
            PersistEventKind::Ntstore => "ntstore",
            PersistEventKind::Sfence => "sfence",
        })
    }
}

/// Durability audit captured at the instant an injected crash fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashReport {
    /// Global persistence-event index (since pool creation) at which
    /// the crash fired; the event itself did not take effect.
    pub event_index: u64,
    /// The primitive that would have been the `event_index`-th event.
    pub trigger: PersistEventKind,
    /// Written-but-unflushed 8-byte words at crash time (lost data).
    pub dirty_words: u64,
    /// Cache lines containing at least one dirty word at crash time.
    pub dirty_lines: u64,
    /// Cumulative count of redundant flushes (a `clwb` whose covered
    /// lines were all already clean) up to the crash.
    pub redundant_clwb: u64,
}

/// One dirty cache line captured at a crash: the candidate unit of
/// residual-image sampling (lines persist or vanish independently;
/// words within a line are never torn).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidualLine {
    /// Cache-line-aligned pool offset.
    pub off: u64,
    /// The line's CPU-image contents at the instant of the crash.
    pub words: [u64; 8],
}

/// SplitMix64: the workspace's standard seeded mixer (residual-image
/// and crash-sweep seeds, poison junk, the learned index's on-media
/// checksums).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How the post-crash media image is constructed from the dirty lines
/// captured at the crash instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidualPolicy {
    /// Deterministic: exactly the flushed data survives (the PR 1
    /// model — the most pessimistic legal execution).
    Frozen,
    /// Each dirty line survives independently with probability
    /// `p_per_256 / 256`, drawn from a SplitMix64 stream seeded with
    /// `seed`. The same `(seed, candidate set)` always yields the same
    /// subset, so any failure is replayable from its seed.
    Sampled {
        /// RNG seed (print it on failure; it is the whole repro).
        seed: u64,
        /// Survival probability numerator out of 256 (128 = 50 %).
        p_per_256: u32,
    },
    /// Explicit subset: candidate line `i` survives iff bit `i` of
    /// `mask` is set. Candidates are ordered most-recently-written
    /// first, so enumerating `0..2^j` masks visits every residual image
    /// of the `j`-line write frontier; with `k <= 64` total dirty lines
    /// and `j = k` the whole torn-write space is covered.
    Subset {
        /// Survival bitmask over the recency-ordered candidates.
        mask: u64,
    },
}

impl ResidualPolicy {
    /// Decide, per candidate line, whether it survives the crash.
    pub fn select(&self, n_candidates: usize) -> Vec<bool> {
        match *self {
            ResidualPolicy::Frozen => vec![false; n_candidates],
            ResidualPolicy::Sampled { seed, p_per_256 } => (0..n_candidates as u64)
                .map(|i| (splitmix64(seed ^ splitmix64(i)) & 0xFF) < p_per_256 as u64)
                .collect(),
            ResidualPolicy::Subset { mask } => (0..n_candidates)
                .map(|i| i < 64 && (mask >> i) & 1 == 1)
                .collect(),
        }
    }
}

/// Panic payload raised when a load touches a poisoned cache line —
/// the emulator's equivalent of the machine-check exception real PM
/// raises on consuming poisoned data. Recovery code must never let
/// this escape: probe with [`crate::PmPool::check_readable`] first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoisonedRead {
    /// Cache-line-aligned offset of the poisoned line.
    pub off: u64,
}

/// A detected media error: the byte range a recovery path asked about
/// contains an unreadable (poisoned) line. This is the graceful,
/// report-don't-crash counterpart of [`PoisonedRead`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaError {
    /// Cache-line-aligned offset of the first poisoned line found.
    pub off: u64,
    /// What the reader was trying to interpret (for diagnostics).
    pub context: &'static str,
}

impl MediaError {
    /// Attach a more specific context label ("fptree leaf", …).
    pub fn context(mut self, what: &'static str) -> Self {
        self.context = what;
        self
    }
}

impl std::fmt::Display for MediaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "media error: poisoned line at {:#x} while reading {}",
            self.off, self.context
        )
    }
}

impl std::error::Error for MediaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_kind_display() {
        assert_eq!(PersistEventKind::Clwb.to_string(), "clwb");
        assert_eq!(PersistEventKind::Ntstore.to_string(), "ntstore");
        assert_eq!(PersistEventKind::Sfence.to_string(), "sfence");
    }
}
