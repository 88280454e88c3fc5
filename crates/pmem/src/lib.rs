//! # pmem — an emulated persistent-memory device
//!
//! This crate is the hardware substrate for the whole workspace: a
//! software stand-in for Intel Optane DCPMM in App Direct mode. Real PM
//! is unavailable (and discontinued), so the device is emulated with a
//! model that preserves exactly the properties the evaluated indexes are
//! designed around:
//!
//! * **Volatile caches in front of durable media.** A [`PmPool`] keeps two
//!   images of its address space: the *CPU image* that loads and stores
//!   observe, and the *persisted image* that survives a simulated crash.
//!   Data moves from the CPU image to the persisted image only through
//!   the persistence primitives ([`PmPool::clwb`], [`PmPool::ntstore_u64`]).
//! * **8-byte failure atomicity.** The persisted image is updated in
//!   aligned 8-byte words, never smaller, so torn words are impossible —
//!   matching the atomicity guarantee PM indexes rely on for pointer and
//!   bitmap publication.
//! * **256-byte media granularity.** Like DCPMM's internal XPLine, every
//!   media access is accounted at 256-byte granularity, which powers the
//!   read/write-amplification and bandwidth experiments.
//! * **Asymmetric latency.** An optional calibrated [`LatencyModel`]
//!   charges reads and (flushed) writes per touched media block, so the
//!   DRAM-vs-PM performance shape of the paper is reproduced.
//! * **Crash simulation.** [`PmPool::crash`] discards everything that was
//!   not explicitly persisted, after which each index runs its recovery
//!   procedure. An optional *eviction chaos* mode additionally persists
//!   random unflushed words, modelling cache evictions: recovery code
//!   must tolerate both the presence and the absence of unflushed data.
//!
//! All counters are striped across cache-padded cells so that statistics
//! collection does not serialize multi-threaded benchmarks.

#![forbid(unsafe_code)]

mod config;
mod inject;
mod latency;
mod pool;
mod slots;
mod stats;

pub use config::{PersistenceMode, PmConfig};
pub use inject::{
    splitmix64, CrashPointHit, CrashReport, MediaError, PersistEventKind, PoisonedRead,
    ResidualLine, ResidualPolicy,
};
pub use latency::LatencyModel;
pub use pool::{PmPool, CACHELINE, MEDIA_BLOCK, ROOT_AREA};
pub use slots::ThreadSlots;

/// A point-in-time aggregate of a pool's counters: the one PM counter
/// set, declared in `obs` (which this crate taps into) so the site table
/// and the sampler hold the same type.
pub use obs::PmCounts as PmStatsSnapshot;

/// Lock the emulator's own bookkeeping. An injected crash unwinds
/// through arbitrary code, so a poisoned mutex is expected and harmless.
fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Convenience: round `n` up to the next multiple of `align` (a power of two).
#[inline]
pub const fn align_up(n: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (n + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_up_basics() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 8), 16);
        assert_eq!(align_up(255, 256), 256);
        assert_eq!(align_up(257, 256), 512);
    }
}
