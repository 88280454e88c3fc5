//! Spans recorded from outside the program, around the calls into each
//! layer.
//!
//! A [`Traced`] decorator implements `RangeIndex` and sits at every
//! `Arc<dyn RangeIndex>` boundary the public constructors expose: above
//! `CachedIndex`, between it and `ShardedIndex`, and in each
//! `Shard.index` above the kind. The client loop adds one span per
//! request. Spans of one request share `seq`: a local client sets it on
//! its own thread before the call; behind a server the one connection
//! executes FIFO, so the n-th call reaching the outermost decorator
//! belongs to request n, and the inner decorators run inside that call
//! on the same thread.
//!
//! Spans go to per-thread buffers (reserved on first use) and are handed
//! over when the thread ends or calls [`flush_thread`]. A layer's self
//! time is its span minus its child span.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use index_api::{Footprint, Key, RangeIndex, Value};

use pibench::workload::OpKind;

/// Where a span was recorded, outermost first. A span's parent is the
/// span of the same `seq` one layer out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Layer {
    /// The client loop: send (or call) to checked reply.
    Client = 0,
    /// The call into `CachedIndex`.
    Cache = 1,
    /// The call into `ShardedIndex`.
    Engine = 2,
    /// The call into the index kind of one shard.
    Kind = 3,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 4;

impl Layer {
    /// Crate name of the layer (`kind` stands for the index kind's).
    pub fn name(self) -> &'static str {
        ["client", "cache", "engine", "kind"][self as usize]
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer whose call this is.
    pub layer: Layer,
    /// Layer of the span that caused it (`None` for a root).
    pub parent: Option<Layer>,
    /// Op class of the request.
    pub class: OpKind,
    /// Request number within the traced segment.
    pub seq: u32,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// End, ns since the trace epoch.
    pub end_ns: u64,
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Ns since the trace epoch: `obs`'s clock, so these spans line up with
/// the program's own trace once a later change records one.
pub fn now_ns() -> u64 {
    obs::now_ns()
}

struct LocalBuf(Vec<Span>);

impl Drop for LocalBuf {
    fn drop(&mut self) {
        if let Ok(mut sink) = SINK.lock() {
            sink.append(&mut self.0);
        }
    }
}

thread_local! {
    static BUF: RefCell<LocalBuf> = const { RefCell::new(LocalBuf(Vec::new())) };
    /// The request being executed on this thread: `(seq, layer of the
    /// innermost open span)`.
    static CURRENT: Cell<Option<(u32, Layer)>> = const { Cell::new(None) };
}

/// Spans a thread's buffer is reserved for on first use.
const RESERVE: usize = 1 << 20;

/// Starts (or stops) recording. Starting drops what was handed over
/// before.
pub fn set_recording(on: bool) {
    if on {
        SINK.lock().expect("span sink poisoned").clear();
    }
    RECORDING.store(on, Ordering::SeqCst);
}

fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Records one span on the calling thread's buffer.
pub fn record(span: Span) {
    BUF.with(|b| {
        let buf = &mut b.borrow_mut().0;
        if buf.capacity() == 0 {
            buf.reserve(RESERVE);
        }
        buf.push(span);
    });
}

/// Hands the calling thread's spans over (threads that end do so on
/// their own).
pub fn flush_thread() {
    BUF.with(|b| {
        SINK.lock()
            .expect("span sink poisoned")
            .append(&mut b.borrow_mut().0);
    });
}

/// Takes every span handed over so far, ordered by request then layer.
pub fn take_spans() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SINK.lock().expect("span sink poisoned"));
    spans.sort_unstable_by_key(|s| (s.seq, s.layer, s.start_ns));
    spans
}

/// Marks request `seq` as the one the calling thread is about to issue
/// (local client loops); `None` once it returned.
pub fn set_current(seq: Option<u32>) {
    CURRENT.with(|c| c.set(seq.map(|s| (s, Layer::Client))));
}

/// A `RangeIndex` that records a span around every call into `inner`.
pub struct Traced {
    inner: Arc<dyn RangeIndex>,
    layer: Layer,
    /// Calls seen since recording started; numbers requests when no
    /// outer span is open on the thread (the first decorator behind a
    /// server).
    calls: AtomicU32,
}

impl Traced {
    /// Wraps `inner`, whose calls are `layer`'s spans.
    pub fn wrap(inner: Arc<dyn RangeIndex>, layer: Layer) -> Arc<Traced> {
        Arc::new(Traced {
            inner,
            layer,
            calls: AtomicU32::new(0),
        })
    }

    /// Restarts request numbering (call before a traced segment).
    pub fn reset(&self) {
        self.calls.store(0, Ordering::SeqCst);
    }

    #[inline]
    fn span<R>(&self, class: OpKind, f: impl FnOnce(&dyn RangeIndex) -> R) -> R {
        if !recording() {
            return f(&*self.inner);
        }
        let outer = CURRENT.with(Cell::get);
        let (seq, parent) = match outer {
            Some((seq, layer)) => (seq, Some(layer)),
            None => (
                self.calls.fetch_add(1, Ordering::Relaxed),
                Some(Layer::Client),
            ),
        };
        CURRENT.with(|c| c.set(Some((seq, self.layer))));
        let start_ns = now_ns();
        let r = f(&*self.inner);
        let end_ns = now_ns();
        CURRENT.with(|c| c.set(outer));
        record(Span {
            layer: self.layer,
            parent,
            class,
            seq,
            start_ns,
            end_ns,
        });
        r
    }
}

impl RangeIndex for Traced {
    fn insert(&self, key: Key, value: Value) -> bool {
        self.span(OpKind::Insert, |i| i.insert(key, value))
    }
    fn lookup(&self, key: Key) -> Option<Value> {
        self.span(OpKind::Lookup, |i| i.lookup(key))
    }
    fn update(&self, key: Key, value: Value) -> bool {
        self.span(OpKind::Update, |i| i.update(key, value))
    }
    fn remove(&self, key: Key) -> bool {
        self.span(OpKind::Remove, |i| i.remove(key))
    }
    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.span(OpKind::Scan, |i| i.scan(start, count, out))
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn footprint(&self) -> Footprint {
        self.inner.footprint()
    }
}

/// Mean self time per request, by layer, of one op-class group.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTimes {
    /// Requests of the group that have a client span.
    pub requests: u64,
    /// Mean client span, ns.
    pub client_span_ns: f64,
    /// Mean self time of each layer, ns, indexed by `Layer as usize`;
    /// a layer a request never reached adds 0.
    pub self_ns: [f64; LAYERS],
}

impl SelfTimes {
    /// The layers' self times over the client span: 1 when every child
    /// span nests inside its parent.
    pub fn coverage(&self) -> f64 {
        if self.client_span_ns == 0.0 {
            return 1.0;
        }
        self.self_ns.iter().sum::<f64>() / self.client_span_ns
    }
}

/// Self time = a span minus the spans of the same request one recorded
/// layer further in. `spans` must come from [`take_spans`] (ordered by
/// request). Only requests whose class passes `keep` count.
pub fn self_times(spans: &[Span], keep: impl Fn(OpKind) -> bool) -> SelfTimes {
    let mut out = SelfTimes::default();
    let mut sums = [0f64; LAYERS];
    let mut client_sum = 0f64;
    for req in spans.chunk_by(|a, b| a.seq == b.seq) {
        let Some(client) = req.iter().find(|s| s.layer == Layer::Client) else {
            continue;
        };
        if !keep(client.class) {
            continue;
        }
        out.requests += 1;
        client_sum += (client.end_ns - client.start_ns) as f64;
        // Per layer, the total of its spans (an engine call may fan out
        // into one kind call per shard).
        let mut total = [0f64; LAYERS];
        let mut seen = [false; LAYERS];
        for s in req {
            total[s.layer as usize] += (s.end_ns.saturating_sub(s.start_ns)) as f64;
            seen[s.layer as usize] = true;
        }
        let present: Vec<usize> = (0..LAYERS).filter(|&l| seen[l]).collect();
        for (i, &l) in present.iter().enumerate() {
            let child = present.get(i + 1).map_or(0.0, |&c| total[c]);
            sums[l] += total[l] - child;
        }
    }
    if out.requests > 0 {
        let n = out.requests as f64;
        out.client_span_ns = client_sum / n;
        out.self_ns = sums.map(|s| s / n);
    }
    out
}

/// Most spans a trace file holds (about 130 bytes each).
const TRACE_FILE_SPANS: usize = 60_000;

/// Writes the first spans of each group as Chrome trace-event JSON (open
/// in `chrome://tracing` or <https://ui.perfetto.dev>). A group is
/// `(process name, name of its kind layer, spans)`; each layer is one
/// track, and `args.seq` ties a request's spans together.
pub fn write_chrome_trace(
    path: &std::path::Path,
    groups: &[(&str, &str, &[Span])],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let per_group = TRACE_FILE_SPANS / groups.len().max(1);
    for (g, (process, kind, spans)) in groups.iter().enumerate() {
        let pid = g + 1;
        writeln!(
            w,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{process}\"}}}},"
        )?;
        let tracks = [
            Layer::Client.name(),
            Layer::Cache.name(),
            Layer::Engine.name(),
            kind,
        ];
        for (tid, name) in tracks.iter().enumerate() {
            writeln!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}},"
            )?;
        }
        let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        for s in &spans[..spans.len().min(per_group)] {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"seq\":{},\"parent\":\"{}\"}}}},",
                s.class.label(),
                tracks[s.layer as usize],
                s.layer as u8,
                (s.start_ns - t0) as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.seq,
                s.parent.map_or("none", Layer::name),
            )?;
        }
    }
    // A closing metadata event, so every line above may end in a comma.
    writeln!(
        w,
        "{{\"name\":\"trace_end\",\"ph\":\"M\",\"pid\":0,\"args\":{{}}}}"
    )?;
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, seq: u32, start_ns: u64, end_ns: u64, class: OpKind) -> Span {
        let parent = (layer != Layer::Client).then_some(Layer::Client);
        Span {
            layer,
            parent,
            class,
            seq,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_child_and_sums_to_the_client_span() {
        let spans = [
            // A miss: client 100, cache 60, engine 50, kind 45.
            span(Layer::Client, 0, 0, 100, OpKind::Lookup),
            span(Layer::Cache, 0, 20, 80, OpKind::Lookup),
            span(Layer::Engine, 0, 25, 75, OpKind::Lookup),
            span(Layer::Kind, 0, 27, 72, OpKind::Lookup),
            // A hit: nothing below the cache.
            span(Layer::Client, 1, 200, 260, OpKind::Lookup),
            span(Layer::Cache, 1, 220, 230, OpKind::Lookup),
            // A write, filtered out below.
            span(Layer::Client, 2, 300, 400, OpKind::Update),
        ];
        let t = self_times(&spans, |c| c == OpKind::Lookup);
        assert_eq!(t.requests, 2);
        assert_eq!(t.client_span_ns, 80.0);
        assert_eq!(t.self_ns, [45.0, 10.0, 2.5, 22.5]);
        assert!((t.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(
            self_times(&spans, crate::gen::is_write).client_span_ns,
            100.0
        );
    }
}
