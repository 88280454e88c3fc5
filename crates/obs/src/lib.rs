//! # obs — low-overhead PM observability
//!
//! Three layers, all behind one near-zero-cost [`enabled`] check so the
//! disabled path stays off the hot path (a single relaxed load + branch
//! per PM access):
//!
//! 1. **Event tracer** ([`ring`]): per-thread lock-free ring buffers
//!    recording PM events (clwb / ntstore / fence / read / write with
//!    offset + length) and op-lifecycle spans, tapped at the `PmPool`
//!    stats choke point. The rings double as the *flight recorder*: a
//!    bounded tail of the most recent events, dumpable when a crash
//!    oracle trips.
//! 2. **Site attribution** ([`site`]): a scoped tag API
//!    (`obs::site("leaf_split")`) the index crates, allocator and
//!    PMwCAS layer annotate, so every traced event — and the per-site
//!    aggregate counters — are attributed to the code path that issued
//!    it (leaf split, log append, alloc, …).
//! 3. **Time-series sampler** ([`sampler`]): a background thread
//!    snapshotting counter deltas at a fixed interval into throughput /
//!    bandwidth / fence-rate series, with a steady-state detector so
//!    reported numbers can exclude warmup.
//!
//! The crate sits *below* `pmem` in the dependency graph (it is the
//! only thing `pmem` taps into), so it depends on nothing but `std`.
//! Exporters (Chrome-trace JSON, CSV) live in the `pibench` core crate,
//! which owns the shared JSON/CSV machinery.

mod counts;
mod ring;
mod sampler;
mod site;

pub use counts::PmCounts;
pub use ring::{Event, EventKind, MAX_TRACE_LEN, OP_LABELS};
pub use sampler::{SamplePoint, Sampler, TimeSeries};
pub use site::{SiteAgg, SiteGuard, MAX_SITES, SITE_OTHER};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The emulated device's internal media granularity (DCPMM's
/// "XPLine"): every media access moves this many bytes regardless of
/// the request size. Declared here, beside the traces that count media
/// bytes, and re-exported by `pmem`, which depends on this crate.
pub const MEDIA_BLOCK: usize = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether tracing/attribution is currently on. This is the fast gate:
/// every tap checks it first and returns immediately when off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn the whole subsystem on or off. Cheap; flip around the measured
/// phase so prefill/teardown traffic is not attributed.
pub fn set_enabled(on: bool) {
    epoch(); // pin the epoch before the first event can be stamped
    ENABLED.store(on, Ordering::SeqCst);
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (the first [`set_enabled`] call).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Reset all rings, site aggregates and op counters (the interned site
/// names survive). Call between runs when no traced worker threads are
/// live — benchmark workers are scoped threads, so between `run()`
/// calls is safe.
pub fn reset() {
    ring::reset_rings();
}

// ----- taps (called by pmem / the benchmark runner) ------------------------

/// Tap: a software read of `len` bytes at `off` that moved
/// `media_bytes` from the emulated media (0 = served from cache).
#[inline]
pub fn pm_read(off: u64, len: usize, media_bytes: u64) {
    if !enabled() {
        return;
    }
    let counts = PmCounts {
        read_ops: 1,
        read_bytes: len as u64,
        media_read_bytes: media_bytes,
        ..PmCounts::default()
    };
    ring::record_pm(EventKind::Read, off, len as u64, media_bytes, &counts);
}

/// Tap: a software write of `len` bytes at `off` (store-buffer level;
/// media traffic is attributed at flush time).
#[inline]
pub fn pm_write(off: u64, len: usize) {
    if !enabled() {
        return;
    }
    let counts = PmCounts {
        write_ops: 1,
        write_bytes: len as u64,
        ..PmCounts::default()
    };
    ring::record_pm(EventKind::Write, off, len as u64, 0, &counts);
}

/// Tap: a `clwb`/`clflushopt` covering `len` bytes at `off`, writing
/// `media_bytes` back at media granularity. `redundant` marks flushes
/// whose covered lines were all already clean.
#[inline]
pub fn pm_clwb(off: u64, len: usize, media_bytes: u64, redundant: bool) {
    if !enabled() {
        return;
    }
    let kind = if redundant {
        EventKind::ClwbRedundant
    } else {
        EventKind::Clwb
    };
    let counts = PmCounts {
        clwb: 1,
        clwb_redundant: redundant as u64,
        media_write_bytes: media_bytes,
        ..PmCounts::default()
    };
    ring::record_pm(kind, off, len as u64, media_bytes, &counts);
}

/// Tap: a non-temporal store at `off` writing `media_bytes` to media.
/// (The software-write bytes are accounted by the separate write tap
/// the store itself hits; this records only the nt-store + media side.)
#[inline]
pub fn pm_ntstore(off: u64, media_bytes: u64) {
    if !enabled() {
        return;
    }
    let counts = PmCounts {
        ntstore: 1,
        media_write_bytes: media_bytes,
        ..PmCounts::default()
    };
    ring::record_pm(EventKind::Ntstore, off, 8, media_bytes, &counts);
}

/// Tap: a store fence.
#[inline]
pub fn pm_fence() {
    if !enabled() {
        return;
    }
    let counts = PmCounts {
        fence: 1,
        ..PmCounts::default()
    };
    ring::record_pm(EventKind::Fence, 0, 0, 0, &counts);
}

/// Tap: one completed benchmark operation (for the throughput series).
#[inline]
pub fn count_op() {
    if !enabled() {
        return;
    }
    ring::count_op();
}

/// Tap: a latency-sampled operation completed. `op_kind` indexes the
/// workload op table (lookup/insert/update/remove/scan); the span is
/// recorded as one ring event with its start time and duration so the
/// exporter can emit a Chrome-trace complete event.
#[inline]
pub fn op_complete(op_kind: u8, dur_ns: u64) {
    if !enabled() {
        return;
    }
    ring::record_op_span(op_kind, dur_ns);
}

// ----- site tagging --------------------------------------------------------

/// Enter a scoped attribution site: until the returned guard drops,
/// every traced PM event on this thread is attributed to `name`.
/// Scopes nest (the innermost wins) and the guard restores the outer
/// site on drop. When tracing is disabled this is a single load+branch.
#[inline]
pub fn site(name: &'static str) -> SiteGuard {
    site::enter(name)
}

/// Per-site aggregate counters, one row per interned site that saw
/// traffic, ordered by media write bytes (descending). Site
/// [`SITE_OTHER`] collects everything outside any scope.
pub fn site_table() -> Vec<SiteAgg> {
    site::table()
}

/// Names of all interned sites, indexed by site id (for exporters).
pub fn site_names() -> Vec<String> {
    site::names()
}

// ----- flight recorder -----------------------------------------------------

/// The merged flight-recorder tail: the last `max` traced events across
/// all thread rings, in timestamp order. The rings are bounded
/// ([`MAX_TRACE_LEN`] events per thread), so this is the last-N-events
/// context leading up to a crash or oracle violation.
pub fn flight_events(max: usize) -> Vec<Event> {
    ring::collect_events(max)
}

/// Total benchmark ops counted via [`count_op`] since the last
/// [`reset`].
pub fn total_ops() -> u64 {
    ring::total_ops()
}

/// Human-readable flight-recorder tail (for crash harness dumps).
pub fn flight_tail_text(max: usize) -> String {
    let events = flight_events(max);
    if events.is_empty() {
        return "  (flight recorder empty — tracing disabled?)\n".to_string();
    }
    let names = site_names();
    let mut out = String::new();
    for e in &events {
        out.push_str(&e.render(&names));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// obs state is process-global; serialize the tests that flip it.
    pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_taps_are_noops() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(false);
        reset();
        pm_read(64, 8, 256);
        pm_clwb(64, 8, 256, false);
        pm_fence();
        count_op();
        assert!(flight_events(16).is_empty());
        assert_eq!(total_ops(), 0);
        assert!(site_table().iter().all(|s| s.counts.events() == 0));
    }

    #[test]
    fn events_flow_into_ring_and_sites() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_enabled(true);
        {
            let _s = site("unit_test_site");
            pm_write(128, 16);
            pm_clwb(128, 16, 256, false);
            pm_fence();
        }
        pm_read(4096, 8, 256); // outside any scope -> SITE_OTHER
        count_op();
        op_complete(1, 1234);
        set_enabled(false);

        let events = flight_events(64);
        assert!(events.len() >= 5, "events: {events:?}");
        // Timestamps are monotone in the merged tail.
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
        let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::Clwb));
        assert!(kinds.contains(&EventKind::Fence));
        assert!(kinds.contains(&EventKind::OpSpan));

        let table = site_table();
        let test_site = table
            .iter()
            .find(|s| s.name == "unit_test_site")
            .expect("site interned");
        let expect = PmCounts {
            write_ops: 1,
            write_bytes: 16,
            clwb: 1,
            media_write_bytes: 256,
            fence: 1,
            ..PmCounts::default()
        };
        assert_eq!(test_site.counts, expect);
        assert_eq!(expect.events(), 3, "one event per tap call");
        let other = table.iter().find(|s| s.name == SITE_OTHER).unwrap();
        assert_eq!(other.counts.media_read_bytes, 256);
        assert_eq!(other.counts.events(), 1);
        assert_eq!(total_ops(), 1);

        let text = flight_tail_text(8);
        assert!(text.contains("clwb"), "{text}");
        reset();
        assert_eq!(total_ops(), 0);
        assert!(flight_events(8).is_empty());
    }

    #[test]
    fn nested_sites_restore_outer_scope() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        set_enabled(true);
        {
            let _outer = site("outer_site");
            pm_fence();
            {
                let _inner = site("inner_site");
                pm_fence();
            }
            pm_fence();
        }
        set_enabled(false);
        let table = site_table();
        let get = |n: &str| table.iter().find(|s| s.name == n).map(|s| s.counts.fence);
        assert_eq!(get("outer_site"), Some(2));
        assert_eq!(get("inner_site"), Some(1));
        reset();
    }
}
