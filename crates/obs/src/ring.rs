//! Per-thread lock-free event rings (the tracer + flight recorder).
//!
//! Each traced thread owns one ring of [`MAX_TRACE_LEN`] slots. The
//! owning thread is the only writer, so the write path is two relaxed
//! stores per word plus a release publish of the slot sequence — no
//! CAS, no sharing. Readers (exporters, the flight-recorder dump) scan
//! all registered rings and validate each slot's sequence word before
//! and after reading the payload, seqlock-style, discarding slots that
//! were concurrently overwritten.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::counts::PmCells;
use crate::{site, PmCounts};

/// Events retained per thread ring (power of two). The rings double as
/// the flight recorder, so this bounds the "last N events" context a
/// crash dump can show per thread.
pub const MAX_TRACE_LEN: usize = 8192;

/// What a traced event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A software load (`len` bytes at `off`; `media_bytes` moved).
    Read,
    /// A software store (`len` bytes at `off`; volatile until flushed).
    Write,
    /// A write-back that had dirty lines to persist.
    Clwb,
    /// A write-back whose covered lines were all already clean.
    ClwbRedundant,
    /// A non-temporal store.
    Ntstore,
    /// A store fence.
    Fence,
    /// A completed benchmark operation (latency-sampled span).
    OpSpan,
}

impl EventKind {
    fn from_u8(v: u8) -> EventKind {
        match v {
            0 => EventKind::Read,
            1 => EventKind::Write,
            2 => EventKind::Clwb,
            3 => EventKind::ClwbRedundant,
            4 => EventKind::Ntstore,
            5 => EventKind::Fence,
            _ => EventKind::OpSpan,
        }
    }

    /// Short label used by text dumps and the Chrome-trace exporter.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Read => "read",
            EventKind::Write => "write",
            EventKind::Clwb => "clwb",
            EventKind::ClwbRedundant => "clwb_redundant",
            EventKind::Ntstore => "ntstore",
            EventKind::Fence => "fence",
            EventKind::OpSpan => "op",
        }
    }
}

/// Labels for the `op_kind` carried by [`EventKind::OpSpan`] events
/// (mirrors the workload op table in the benchmark core).
pub const OP_LABELS: [&str; 5] = ["lookup", "insert", "update", "remove", "scan"];

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the trace epoch (for spans: the start time).
    pub ts_ns: u64,
    /// Ring id of the recording thread (registration order).
    pub thread: u32,
    /// Attribution site id (index into [`crate::site_names`]).
    pub site: u8,
    /// Event kind.
    pub kind: EventKind,
    /// Pool offset (0 for fences and spans).
    pub off: u64,
    /// Software length in bytes; for spans, the op-kind index.
    pub len: u32,
    /// Media traffic of this event in bytes (256 B granularity).
    pub media_bytes: u32,
    /// Span duration (0 for plain PM events).
    pub dur_ns: u64,
}

impl Event {
    /// One-line rendering for flight-recorder dumps.
    pub fn render(&self, site_names: &[String]) -> String {
        let site = site_names
            .get(self.site as usize)
            .map(|s| s.as_str())
            .unwrap_or("?");
        let t_us = self.ts_ns as f64 / 1e3;
        match self.kind {
            EventKind::OpSpan => {
                let op = OP_LABELS.get(self.len as usize).unwrap_or(&"?");
                format!(
                    "  [{t_us:>12.1}us t{} {site}] op {op} dur={}ns",
                    self.thread, self.dur_ns
                )
            }
            EventKind::Fence => {
                format!("  [{t_us:>12.1}us t{} {site}] fence", self.thread)
            }
            k => format!(
                "  [{t_us:>12.1}us t{} {site}] {} off={:#x} len={} media={}B",
                self.thread,
                k.label(),
                self.off,
                self.len,
                self.media_bytes
            ),
        }
    }
}

/// One ring slot: `w[0]` is the seqlock word (absolute event index + 1,
/// 0 = empty/in-progress), `w[1..4]` the payload.
struct Slot {
    w: [AtomicU64; 4],
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            w: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

pub(crate) struct ThreadRing {
    tid: u32,
    /// Next absolute event index; only the owning thread stores it.
    head: AtomicU64,
    slots: Box<[Slot]>,
    /// This thread's counters per site id.
    sites: Box<[PmCells]>,
    ops: AtomicU64,
}

impl ThreadRing {
    fn new(tid: u32) -> ThreadRing {
        ThreadRing {
            tid,
            head: AtomicU64::new(0),
            slots: (0..MAX_TRACE_LEN).map(|_| Slot::default()).collect(),
            sites: (0..site::MAX_SITES).map(|_| PmCells::default()).collect(),
            ops: AtomicU64::new(0),
        }
    }

    #[inline]
    fn push(&self, ts_ns: u64, off: u64, packed: u64) {
        let i = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(i as usize) & (MAX_TRACE_LEN - 1)];
        slot.w[0].store(0, Ordering::Release); // invalidate for readers
        slot.w[1].store(ts_ns, Ordering::Relaxed);
        slot.w[2].store(off, Ordering::Relaxed);
        slot.w[3].store(packed, Ordering::Relaxed);
        slot.w[0].store(i + 1, Ordering::Release); // publish
        self.head.store(i + 1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.head.store(0, Ordering::Relaxed);
        for s in self.slots.iter() {
            s.w[0].store(0, Ordering::Relaxed);
        }
        for c in self.sites.iter() {
            c.clear();
        }
        self.ops.store(0, Ordering::Relaxed);
    }
}

// Payload word 3 layout: kind(0..8) | site(8..16) | media_blocks(16..36)
// | len(36..56). len and media are saturated into their fields — trace
// fidelity, not accounting (the counters carry exact values).
#[inline]
fn pack(kind: u8, site: u8, media_bytes: u64, len: u64) -> u64 {
    let blocks = (media_bytes / crate::MEDIA_BLOCK as u64).min((1 << 20) - 1);
    let len = len.min((1 << 20) - 1);
    kind as u64 | (site as u64) << 8 | blocks << 16 | len << 36
}

fn registry() -> MutexGuard<'static, Vec<Arc<ThreadRing>>> {
    static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// Thread-local tracing state: this thread's ring, its current
/// attribution site, and a per-thread site-name cache (keyed by the
/// `&'static str` data pointer) so scope entry never takes the global
/// interner lock after the first use of a name.
pub(crate) struct Handle {
    pub(crate) ring: Arc<ThreadRing>,
    pub(crate) current_site: Cell<u8>,
    pub(crate) site_cache: RefCell<HashMap<usize, u8>>,
}

thread_local! {
    static HANDLE: Handle = {
        let mut reg = registry();
        let ring = Arc::new(ThreadRing::new(reg.len() as u32));
        reg.push(ring.clone());
        Handle {
            ring,
            current_site: Cell::new(site::SITE_OTHER_ID),
            site_cache: RefCell::new(HashMap::new()),
        }
    };
}

#[inline]
pub(crate) fn with_handle<R>(f: impl FnOnce(&Handle) -> R) -> R {
    HANDLE.with(f)
}

/// Record one PM event: ring entry + per-site counter update.
#[inline]
pub(crate) fn record_pm(kind: EventKind, off: u64, len: u64, media_bytes: u64, counts: &PmCounts) {
    let ts = crate::now_ns();
    with_handle(|h| {
        let site = h.current_site.get();
        h.ring.sites[site as usize].add(counts);
        h.ring
            .push(ts, off, pack(kind as u8, site, media_bytes, len));
    });
}

/// Record a completed-operation span (ts = start, `off` word = dur).
#[inline]
pub(crate) fn record_op_span(op_kind: u8, dur_ns: u64) {
    let end = crate::now_ns();
    let start = end.saturating_sub(dur_ns);
    with_handle(|h| {
        let site = h.current_site.get();
        h.ring.push(
            start,
            dur_ns,
            pack(EventKind::OpSpan as u8, site, 0, op_kind as u64),
        );
    });
}

#[inline]
pub(crate) fn count_op() {
    with_handle(|h| h.ring.ops.fetch_add(1, Ordering::Relaxed));
}

pub(crate) fn total_ops() -> u64 {
    registry()
        .iter()
        .map(|r| r.ops.load(Ordering::Relaxed))
        .sum()
}

pub(crate) fn reset_rings() {
    for r in registry().iter() {
        r.reset();
    }
}

/// Sum the per-thread per-site cells across every registered ring into
/// one [`PmCounts`] per site id (first `n` sites).
pub(crate) fn site_sums(n: usize) -> Vec<PmCounts> {
    let mut sums = vec![PmCounts::default(); n];
    for ring in registry().iter() {
        for (sum, cell) in sums.iter_mut().zip(ring.sites.iter()) {
            sum.merge(&cell.load());
        }
    }
    sums
}

/// Snapshot every ring, seqlock-validate each slot, merge by timestamp
/// and keep the last `max` events.
pub(crate) fn collect_events(max: usize) -> Vec<Event> {
    let mut out = Vec::new();
    for ring in registry().iter() {
        let head = ring.head.load(Ordering::Acquire);
        let first = head.saturating_sub(MAX_TRACE_LEN as u64);
        for i in first..head {
            let slot = &ring.slots[(i as usize) & (MAX_TRACE_LEN - 1)];
            let seq = slot.w[0].load(Ordering::Acquire);
            if seq != i + 1 {
                continue; // overwritten or in-progress
            }
            let ts = slot.w[1].load(Ordering::Relaxed);
            let off = slot.w[2].load(Ordering::Relaxed);
            let packed = slot.w[3].load(Ordering::Relaxed);
            if slot.w[0].load(Ordering::Acquire) != seq {
                continue; // torn by a concurrent writer lap
            }
            let kind = EventKind::from_u8((packed & 0xFF) as u8);
            let (off, dur_ns) = match kind {
                EventKind::OpSpan => (0, off),
                _ => (off, 0),
            };
            out.push(Event {
                ts_ns: ts,
                thread: ring.tid,
                site: ((packed >> 8) & 0xFF) as u8,
                kind,
                off,
                len: ((packed >> 36) & ((1 << 20) - 1)) as u32,
                media_bytes: (((packed >> 16) & ((1 << 20) - 1)) * crate::MEDIA_BLOCK as u64)
                    as u32,
                dur_ns,
            });
        }
    }
    out.sort_by_key(|e| e.ts_ns);
    if out.len() > max {
        out.drain(..out.len() - max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips_fields() {
        let p = pack(EventKind::Clwb as u8, 7, 512, 64);
        assert_eq!(p & 0xFF, EventKind::Clwb as u8 as u64);
        assert_eq!((p >> 8) & 0xFF, 7);
        assert_eq!(((p >> 16) & ((1 << 20) - 1)) * 256, 512);
        assert_eq!((p >> 36) & ((1 << 20) - 1), 64);
    }

    #[test]
    fn pack_saturates_oversized_fields() {
        let p = pack(0, 0, u64::MAX, u64::MAX);
        assert_eq!((p >> 16) & ((1 << 20) - 1), (1 << 20) - 1);
        assert_eq!((p >> 36) & ((1 << 20) - 1), (1 << 20) - 1);
    }

    #[test]
    fn ring_overwrites_oldest_and_keeps_tail() {
        let _g = crate::tests::TEST_LOCK
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        crate::reset();
        crate::set_enabled(true);
        // Overfill the ring: only the most recent MAX_TRACE_LEN survive.
        for i in 0..(MAX_TRACE_LEN as u64 + 100) {
            crate::pm_fence();
            let _ = i;
        }
        crate::set_enabled(false);
        let events = collect_events(usize::MAX);
        let mine: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == EventKind::Fence)
            .collect();
        assert!(mine.len() <= MAX_TRACE_LEN);
        assert!(mine.len() >= MAX_TRACE_LEN - 1, "len={}", mine.len());
        crate::reset();
    }
}
