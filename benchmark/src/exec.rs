//! The client loops: one timed segment of generated ops against a local
//! index or through one connection to a server, every result checked
//! against its precomputed expectation outside the timed call.

use std::time::{Duration, Instant};

use index_api::RangeIndex;
use net::{ClientConn, ReqOp, Response, Status};

use crate::gen::{Op, Segment};
use crate::trace::{self, Layer, Span};
use pibench::workload::OpKind;

/// A request without a reply for this long is a counted failure, never
/// a hang.
pub const REPLY_DEADLINE: Duration = Duration::from_secs(5);

/// Local loops time 1 op in this many (PiBench's sampling rule);
/// throughput comes from the segment's wall clock.
pub const SAMPLE_EVERY: usize = 8;

/// Raw latency samples of one segment, ns.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Lookups.
    pub read: Vec<u32>,
    /// Inserts, updates and removes.
    pub write: Vec<u32>,
}

impl Samples {
    fn push(&mut self, class: OpKind, ns: u64) {
        let ns = u32::try_from(ns).unwrap_or(u32::MAX);
        match class {
            OpKind::Lookup => self.read.push(ns),
            // Scans count towards throughput only.
            OpKind::Scan => {}
            _ => self.write.push(ns),
        }
    }

    /// Moves `other`'s samples in.
    pub fn append(&mut self, other: &mut Samples) {
        self.read.append(&mut other.read);
        self.write.append(&mut other.write);
    }
}

/// What one timed segment did.
#[derive(Debug, Default, Clone)]
pub struct SegmentRun {
    /// Ops issued.
    pub attempted: u64,
    /// Wrong result, refused, connection closed, or no reply in time.
    pub failed: u64,
    /// First op issued to last result checked, ns.
    pub wall_ns: u64,
    /// Latency samples.
    pub samples: Samples,
    /// What the first failure was.
    pub first_failure: Option<String>,
}

impl SegmentRun {
    fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        if count > 0 {
            self.failed += count;
            self.first_failure.get_or_insert_with(why);
        }
    }

    /// Completed ops per µs of wall clock (= Mops/s).
    pub fn mops(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_ns.max(1) as f64 * 1e3
    }
}

enum Outcome {
    Value(Option<u64>),
    Done(bool),
    Scanned,
}

impl Outcome {
    fn describe(&self, out: &[(u64, u64)]) -> String {
        match self {
            Outcome::Value(v) => format!("{v:?}"),
            Outcome::Done(ok) => format!("{ok}"),
            Outcome::Scanned => format!("{} records", out.len()),
        }
    }
}

#[inline]
fn call(idx: &dyn RangeIndex, op: &Op, scan_len: usize, out: &mut Vec<(u64, u64)>) -> Outcome {
    match op.class {
        OpKind::Lookup => Outcome::Value(idx.lookup(op.key)),
        OpKind::Insert => Outcome::Done(idx.insert(op.key, op.arg)),
        OpKind::Update => Outcome::Done(idx.update(op.key, op.arg)),
        OpKind::Remove => Outcome::Done(idx.remove(op.key)),
        OpKind::Scan => {
            idx.scan(op.key, scan_len, out);
            Outcome::Scanned
        }
    }
}

#[inline]
fn as_expected(seg: &Segment, op: &Op, got: &Outcome, out: &[(u64, u64)]) -> bool {
    match got {
        Outcome::Value(v) => *v == Some(op.arg),
        Outcome::Done(ok) => *ok,
        Outcome::Scanned => seg.scan_expect(op) == out,
    }
}

/// Runs `seg` closed-loop on the calling thread. With `traced`, every
/// op is timed and leaves a client span numbered `seq_base + i`.
pub fn run_local(
    idx: &dyn RangeIndex,
    seg: &Segment,
    scan_len: usize,
    traced: Option<u32>,
) -> SegmentRun {
    let mut run = SegmentRun {
        attempted: seg.ops.len() as u64,
        ..SegmentRun::default()
    };
    let per_class = seg.ops.len() / SAMPLE_EVERY + 1;
    run.samples.read.reserve(per_class);
    run.samples.write.reserve(per_class);
    let mut out = Vec::with_capacity(scan_len);
    let start = Instant::now();
    for (i, op) in seg.ops.iter().enumerate() {
        let got = if let Some(seq_base) = traced {
            let seq = seq_base + i as u32;
            trace::set_current(Some(seq));
            let start_ns = trace::now_ns();
            let got = call(idx, op, scan_len, &mut out);
            let end_ns = trace::now_ns();
            trace::set_current(None);
            trace::record(Span {
                layer: Layer::Client,
                parent: None,
                class: op.class,
                seq,
                start_ns,
                end_ns,
            });
            run.samples.push(op.class, end_ns - start_ns);
            got
        } else if i % SAMPLE_EVERY == 0 {
            let t0 = Instant::now();
            let got = call(idx, op, scan_len, &mut out);
            run.samples.push(op.class, t0.elapsed().as_nanos() as u64);
            got
        } else {
            call(idx, op, scan_len, &mut out)
        };
        if !as_expected(seg, op, &got, &out) {
            run.fail(1, || format!("op {i} {op:?} got {}", got.describe(&out)));
        }
    }
    run.wall_ns = start.elapsed().as_nanos() as u64;
    if traced.is_some() {
        trace::flush_thread();
    }
    run
}

/// Runs one segment per thread (thread `t` gets `segs[t]`), released
/// together; the segment's wall clock is the slower thread's.
pub fn run_local_threads(
    idx: &dyn RangeIndex,
    segs: &[Segment],
    scan_len: usize,
    traced: bool,
) -> SegmentRun {
    let barrier = std::sync::Barrier::new(segs.len());
    let mut seq_base = 0u32;
    let runs: Vec<SegmentRun> = std::thread::scope(|s| {
        let handles: Vec<_> = segs
            .iter()
            .map(|seg| {
                let barrier = &barrier;
                let base = traced.then_some(seq_base);
                seq_base += seg.ops.len() as u32;
                s.spawn(move || {
                    barrier.wait();
                    run_local(idx, seg, scan_len, base)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = SegmentRun::default();
    for mut r in runs {
        total.attempted += r.attempted;
        total.fail(r.failed, || r.first_failure.take().unwrap_or_default());
        total.wall_ns = total.wall_ns.max(r.wall_ns);
        total.samples.append(&mut r.samples);
    }
    total
}

fn to_req(op: &Op, scan_len: usize) -> ReqOp {
    match op.class {
        OpKind::Lookup => ReqOp::Lookup(op.key),
        OpKind::Insert => ReqOp::Insert(op.key, op.arg),
        OpKind::Update => ReqOp::Update(op.key, op.arg),
        OpKind::Remove => ReqOp::Remove(op.key),
        OpKind::Scan => ReqOp::Scan(op.key, scan_len as u32),
    }
}

fn reply_as_expected(seg: &Segment, op: &Op, r: &Response) -> bool {
    if r.status != Status::Ok {
        return false;
    }
    match op.class {
        OpKind::Lookup => r.value == Some(op.arg),
        OpKind::Scan => seg.scan_expect(op) == r.pairs.as_slice(),
        _ => true,
    }
}

/// How a served segment paces its requests.
pub enum Pace<'a> {
    /// Closed loop: at most `window` requests in flight, each timed from
    /// the instant it was handed to the connection.
    Closed {
        /// In-flight cap.
        window: usize,
    },
    /// Open loop: request `i` is due `arrivals[i]` ns after the start
    /// whatever the server does, and is timed from that instant. At most
    /// [`open_in_flight_max`] are outstanding; a request held back by
    /// that still counts its wait, from its due instant.
    Open {
        /// Due instants, ascending.
        arrivals: &'a [u64],
    },
}

/// Most requests the open loop keeps outstanding: one less than the
/// server's per-connection window. At the window the server stops
/// decoding mid-buffer, and frames it has already buffered are only
/// decoded after the *next* socket read, so the tail of a burst is never
/// answered once the client has nothing more to send (seen as ~200 of
/// 10 000 requests unanswered after the generator was descheduled for
/// ~13 ms at 20 000/s).
pub fn open_in_flight_max() -> usize {
    net::ServerConfig::default().window - 1
}

/// What only an open-loop run has to say.
#[derive(Debug, Default, Clone)]
pub struct OpenLoopStats {
    /// How long after its due instant each request was sent, ns.
    pub late_ns: Vec<u32>,
    /// Most requests in flight at once.
    pub backlog_max: u64,
}

/// Runs `seg` through `conn`, busy-polling `pump()` (no sleeps), every
/// request timed at the client. With `traced`, each leaves a client
/// span numbered by its position.
pub fn run_served(
    conn: &mut ClientConn,
    seg: &Segment,
    scan_len: usize,
    pace: &Pace<'_>,
    traced: bool,
) -> (SegmentRun, OpenLoopStats) {
    let n = seg.ops.len();
    let mut run = SegmentRun {
        attempted: n as u64,
        ..SegmentRun::default()
    };
    run.samples.read.reserve(n);
    run.samples.write.reserve(n);
    let mut open = OpenLoopStats::default();
    if let Pace::Open { arrivals } = pace {
        assert_eq!(arrivals.len(), n);
        open.late_ns.reserve(n);
    }
    // Start instant of request i (ns since the trace epoch); 0 once answered.
    let mut started = vec![0u64; n];
    let (mut sent, mut done) = (0usize, 0usize);
    let mut first_id = 0u64;
    let t0 = trace::now_ns();
    let mut last_reply = Instant::now();
    let mut idle_polls = 0u32;
    let mut gave_up = String::new();
    let in_flight_max = open_in_flight_max();

    while done < n {
        let now = trace::now_ns();
        while sent < n {
            let start_ns = match pace {
                Pace::Closed { window } => {
                    if sent - done >= *window {
                        break;
                    }
                    now
                }
                Pace::Open { arrivals } => {
                    let due = t0 + arrivals[sent];
                    if due > now || sent - done >= in_flight_max {
                        break;
                    }
                    open.late_ns
                        .push(u32::try_from(now - due).unwrap_or(u32::MAX));
                    due
                }
            };
            let id = conn.send(to_req(&seg.ops[sent], scan_len));
            if sent == 0 {
                first_id = id;
            }
            started[sent] = start_ns.max(1);
            sent += 1;
        }
        open.backlog_max = open.backlog_max.max((sent - done) as u64);

        let replies = match conn.pump() {
            Ok(r) => r,
            Err(e) => {
                gave_up = format!("connection error: {e}");
                break;
            }
        };
        if replies.is_empty() {
            idle_polls += 1;
            if conn.server_closed {
                gave_up = "server closed the connection".to_string();
                break;
            }
            if idle_polls.is_multiple_of(4096)
                && sent > done
                && last_reply.elapsed() > REPLY_DEADLINE
            {
                gave_up = format!("no reply within {REPLY_DEADLINE:?}");
                break;
            }
            continue;
        }
        idle_polls = 0;
        last_reply = Instant::now();
        let end_ns = trace::now_ns();
        for r in &replies {
            let i = r.req_id.wrapping_sub(first_id) as usize;
            if i >= sent || started[i] == 0 {
                // Not an answer to anything in flight (`Overload`/`Bad`
                // frames carry id 0): the request it displaced fails below.
                continue;
            }
            let op = &seg.ops[i];
            let start_ns = std::mem::take(&mut started[i]);
            done += 1;
            if !reply_as_expected(seg, op, r) {
                run.fail(1, || {
                    format!("request {i} {op:?} answered {:?} {:?}", r.status, r.value)
                });
                continue;
            }
            run.samples.push(op.class, end_ns.saturating_sub(start_ns));
            if traced {
                trace::record(Span {
                    layer: Layer::Client,
                    parent: None,
                    class: op.class,
                    seq: i as u32,
                    start_ns,
                    end_ns,
                });
            }
        }
    }
    // Whatever was never answered, or never sent because the connection
    // died or the deadline passed, failed.
    run.fail((n - done) as u64, || {
        format!("{gave_up} with {} of {n} requests unanswered", n - done)
    });
    run.wall_ns = trace::now_ns() - t0;
    (run, open)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Generator;
    use index_api::testing::MapIndex;
    use pibench::dist::Distribution;
    use pibench::workload::OpMix;

    #[test]
    fn local_loop_checks_every_op_and_samples_one_in_eight() {
        let mix = OpMix {
            lookup: 50,
            insert: 15,
            update: 15,
            remove: 15,
            scan: 5,
        };
        let mut g = Generator::new(1, 500, 0, 1, Distribution::Uniform, mix, 10);
        let idx = MapIndex::new();
        for &(k, v) in g.live() {
            assert!(idx.insert(k, v));
        }
        let seg = g.segment(4_000);
        let run = run_local(&idx, &seg, 10, None);
        assert_eq!((run.attempted, run.failed), (4_000, 0));
        let sampled = run.samples.read.len() + run.samples.write.len();
        assert!((400..=4_000 / SAMPLE_EVERY).contains(&sampled), "{sampled}");
        // The same segment again: inserts collide, removed keys are gone.
        let again = run_local(&idx, &seg, 10, None);
        assert!(again.failed > 1_000, "{}", again.failed);
    }
}
