//! The serving half: a thread-per-core accept/worker model over one
//! [`RangeIndex`] front-end (typically an `engine::ShardedIndex`).
//!
//! ## Threading model
//!
//! One acceptor thread owns the listener; `workers` worker threads each
//! own a disjoint set of connections (handed over round-robin at accept
//! time) and run a read → execute → fence → write loop over them with
//! nonblocking sockets. Nothing is shared between workers except the
//! index itself, the pools, and the relaxed-atomic [`ServeStats`]
//! counters — the classic thread-per-core shape.
//!
//! ## Group durability
//!
//! Write operations (insert/update/delete) are executed immediately but
//! their acks are *held back*: the worker executes until every
//! connection's queue is empty, then issues **one fence epoch** per loop
//! iteration that executed a write — `PmPool::fence_epoch` once on every
//! pool the server holds, under the `net_batch_fence` obs site — and
//! only then releases the held acks to the output buffers. Fencing every
//! pool keeps the server blind to which pool a key lives on: it holds an
//! opaque front-end and a list of pools, and routing stays inside the
//! front-end (an engine, a cache over one, or one flat index). There is
//! no size cap on a batch:
//! output buffers reach the sockets only in the write phase, which
//! follows the commit, so a fence issued earlier in the iteration could
//! not deliver any ack sooner. An acked write therefore always sits
//! behind a completed fence epoch on its shard's pool, which is what
//! the crash harness ([`crate::crash::Net`]) proves end to end: arm
//! any persistence boundary through this path and every acked write
//! survives `try_recover`.
//!
//! If a crash point trips inside an operation or inside the fence
//! epoch itself, the worker unwinds via [`CrashPointHit`], the server
//! **halts** — no further ops execute, buffered-but-unsent acks are
//! dropped, every connection closes — exactly the observable behaviour
//! of a power cut at that instant.
//!
//! ## Backpressure and admission
//!
//! Per connection: at most `window` decoded-but-unanswered requests
//! (beyond it the worker stops reading that socket, pushing back
//! through TCP flow control), and at most `MAX_OUTBUF` (4 MiB) of
//! buffered responses (beyond it the connection is shed as a slow
//! reader). Globally: at most `max_conns` connections; excess accepts
//! receive a [`Status::Overload`] load-shed frame and are closed.
//!
//! ## Graceful drain
//!
//! `ServerHandle::drain` (or a `Shutdown` request, or SIGTERM in
//! `pmserve`) stops the acceptor, lets workers finish executing and
//! acking everything already read — including the final fence epoch —
//! flushes, closes, and joins. `Server::join` returns the final
//! [`ServeStats`] snapshot.
//!
//! ## Idle path
//!
//! A worker whose iteration moved nothing keeps polling its sockets
//! (`yield_now` between passes) for [`IDLE_SPIN`] of idle *time*, then
//! blocks in `poll(2)` ([`crate::wait`]) on exactly the sockets it would
//! act on — `POLLIN` where it would read, `POLLOUT` where output is
//! pending — plus its wake channel. Whatever another thread must notice
//! (`drain`, `halt`, a handed-over connection) goes through
//! [`Shared::signal`], which makes the change and then pokes every wake
//! channel; the acceptor blocks the same way on listener + waker. No
//! thread sleeps on a timer.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use index_api::RangeIndex;
use pmem::{CrashPointHit, PmPool};

use crate::wait::{drain, poke, wait, wake_channel, PollFd, POLLIN, POLLOUT};
use crate::wire::{FrameBuf, Opcode, Request, Response, Status};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads (thread-per-core; 0 = available parallelism).
    pub workers: usize,
    /// Per-connection bound on decoded-but-unanswered requests.
    pub window: usize,
    /// Admission-control cap on concurrent connections.
    pub max_conns: usize,
}

/// Slow-reader shed threshold: max buffered response bytes per
/// connection.
const MAX_OUTBUF: usize = 4 << 20;

/// How long a worker with nothing to do keeps polling before it blocks.
/// A budget of idle time, not of iterations: it has to outlast the gaps
/// of a live connection, because a worker that blocks in a gap is woken
/// onto the busy-polling client's core and then yields a timeslice
/// away, so the budget is about what a wake-up can cost — one scheduler
/// timeslice. At 20 k req/s (Poisson, 50 µs mean gap) no gap outlasts
/// 1 ms; 200 µs is outlived by 2 % of gaps, which puts the wake-up into
/// p99, and 64 yields or 100 µs by 14–28 %, which puts it into p95 (the
/// ladder is in EXPERIMENTS.md E18). Blocking is for a server that is
/// actually idle. `run_load`'s driver spins the same budget, for the
/// same reason, on its side of the socket.
pub(crate) const IDLE_SPIN: Duration = Duration::from_millis(1);

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            window: 256,
            max_conns: 1024,
        }
    }
}

/// Relaxed-atomic serving counters, shared by all threads and sampled
/// live by `pmserve --sample-ms`.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests served per op kind, indexed by `index_api::OpKind`.
    pub served: [AtomicU64; 5],
    /// Write acks released (always behind a fence epoch).
    pub acked_writes: AtomicU64,
    /// Group-durability batches committed.
    pub batches: AtomicU64,
    /// Writes carried by those batches (avg batch = this / batches).
    pub batch_ops: AtomicU64,
    /// Per-pool fence calls issued by batch commits.
    pub fence_epochs: AtomicU64,
    /// Connections refused with the load-shed error code.
    pub overload_rejected: AtomicU64,
    /// Connections shed as slow readers.
    pub shed_conns: AtomicU64,
    /// Malformed frames answered with `Status::Bad`.
    pub bad_frames: AtomicU64,
    /// Connections accepted into service.
    pub conns_accepted: AtomicU64,
    /// Currently-active connections.
    pub conns_active: AtomicUsize,
    /// Wall time in socket IO + codec work, ns.
    pub wire_ns: AtomicU64,
    /// Wall time executing index operations, ns.
    pub index_ns: AtomicU64,
    /// Wall time in batch fence epochs, ns.
    pub fence_ns: AtomicU64,
}

impl ServeStats {
    /// Total requests served across all op kinds.
    pub fn total_served(&self) -> u64 {
        self.served.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Cumulative (batches, batched ops, fence calls) — the sampler's
    /// batch-size / fence-rate source.
    pub fn batch_counters(&self) -> (u64, u64, u64) {
        (
            self.batches.load(Ordering::Relaxed),
            self.batch_ops.load(Ordering::Relaxed),
            self.fence_epochs.load(Ordering::Relaxed),
        )
    }
}

/// What `Server::join` hands back after drain.
#[derive(Debug)]
pub struct DrainReport {
    /// Final counters.
    pub stats: Arc<ServeStats>,
    /// True if a crash point tripped through the serving path (the
    /// server power-cut itself rather than draining).
    pub halted: bool,
}

struct Shared {
    index: Arc<dyn RangeIndex>,
    pools: Vec<Arc<PmPool>>,
    cfg: ServerConfig,
    stats: Arc<ServeStats>,
    drain: AtomicBool,
    halt: AtomicBool,
    /// Poke ends of the wake channels: one per worker, then the
    /// acceptor's.
    wakers: Vec<UnixStream>,
}

impl Shared {
    /// The one way a thread tells the others anything — raise `drain` or
    /// `halt`, hand a connection over: make the change, then poke every
    /// wake channel, so a thread blocked in `wait` sees it as surely as
    /// one that is polling.
    fn signal(&self, change: impl FnOnce(&Shared)) {
        change(self);
        self.wakers.iter().for_each(poke);
    }

    fn stopping(&self) -> bool {
        self.drain.load(Ordering::SeqCst) || self.halt.load(Ordering::SeqCst)
    }
}

/// Cloneable handle for initiating graceful drain from another thread
/// (signal handlers, tests, the wire `Shutdown` op).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin graceful drain: stop accepting, finish acked work, exit.
    pub fn drain(&self) {
        self.shared
            .signal(|sh| sh.drain.store(true, Ordering::SeqCst));
    }

    /// Whether the server has begun draining (or halted).
    pub fn draining(&self) -> bool {
        self.shared.stopping()
    }

    /// Live counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        self.shared.stats.clone()
    }
}

/// A running server: acceptor + workers over one index.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `cfg.addr` and start serving `index` (whose PM pools are
    /// `pools`, one per shard — empty for DRAM indexes).
    pub fn start(
        index: Arc<dyn RangeIndex>,
        pools: Vec<Arc<PmPool>>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let workers_n = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8)
        } else {
            cfg.workers
        };
        let (wakers, mut woken): (Vec<_>, Vec<_>) = (0..=workers_n)
            .map(|_| wake_channel())
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        let shared = Arc::new(Shared {
            index,
            pools,
            cfg,
            stats: Arc::new(ServeStats::default()),
            drain: AtomicBool::new(false),
            halt: AtomicBool::new(false),
            wakers,
        });

        let acceptor_woken = woken.pop().expect("one channel more than workers");
        let mut senders = Vec::with_capacity(workers_n);
        let mut workers = Vec::with_capacity(workers_n);
        for (w, woken) in woken.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            senders.push(tx);
            let sh = shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("net-worker-{w}"))
                    .spawn(move || worker_loop(&sh, &rx, &woken))
                    .expect("spawn net worker"),
            );
        }

        let sh = shared.clone();
        let acceptor = std::thread::Builder::new()
            .name("net-acceptor".into())
            .spawn(move || accept_loop(&sh, &listener, &senders, &acceptor_woken))
            .expect("spawn net acceptor");

        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (for ephemeral-port tests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A drain/stats handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Live counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        self.shared.stats.clone()
    }

    /// Whether a crash point has tripped through the serving path.
    pub fn halted(&self) -> bool {
        self.shared.halt.load(Ordering::SeqCst)
    }

    /// Join all threads after drain (blocks until they exit).
    pub fn join(mut self) -> DrainReport {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        DrainReport {
            stats: self.shared.stats.clone(),
            halted: self.shared.halt.load(Ordering::SeqCst),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shared
            .signal(|sh| sh.drain.store(true, Ordering::SeqCst));
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn accept_loop(
    sh: &Shared,
    listener: &TcpListener,
    senders: &[mpsc::Sender<TcpStream>],
    woken: &UnixStream,
) {
    let mut next = 0usize;
    loop {
        if sh.stopping() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if sh.stats.conns_active.load(Ordering::Relaxed) >= sh.cfg.max_conns {
                    // Admission control: answer with the load-shed
                    // error code, then close.
                    sh.stats.overload_rejected.fetch_add(1, Ordering::Relaxed);
                    let mut out = Vec::new();
                    Response::basic(0, Opcode::Shutdown, Status::Overload).encode_into(&mut out);
                    let mut s = stream;
                    let _ = s.set_nonblocking(false);
                    let _ = s.set_write_timeout(Some(Duration::from_millis(100)));
                    let _ = s.write_all(&out);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                sh.stats.conns_active.fetch_add(1, Ordering::Relaxed);
                sh.stats.conns_accepted.fetch_add(1, Ordering::Relaxed);
                let mut adopted = false;
                sh.signal(|_| adopted = senders[next % senders.len()].send(stream).is_ok());
                if !adopted {
                    // Worker gone (halt): stop accepting.
                    return;
                }
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                wait(
                    &mut [PollFd::new(listener, POLLIN), PollFd::new(woken, POLLIN)],
                    None,
                );
            }
            // The listener may stay ready while `accept` keeps failing
            // (out of descriptors): back off on the waker alone.
            Err(_) => wait(
                &mut [PollFd::new(woken, POLLIN)],
                Some(Duration::from_millis(1)),
            ),
        }
        drain(woken);
    }
}

struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    queue: std::collections::VecDeque<Request>,
    outbuf: Vec<u8>,
    outpos: usize,
    /// Decoded-but-unanswered requests (the backpressure window).
    inflight: usize,
    eof: bool,
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: FrameBuf::new(),
            queue: std::collections::VecDeque::new(),
            outbuf: Vec::new(),
            outpos: 0,
            inflight: 0,
            eof: false,
            close_after_flush: false,
        }
    }

    fn out_pending(&self) -> usize {
        self.outbuf.len() - self.outpos
    }

    /// Whether the read phase would read this socket now. Backpressure:
    /// past the in-flight window (or a swollen output buffer) we simply
    /// stop reading; TCP flow control pushes back to the client.
    fn wants_read(&self, sh: &Shared, draining: bool) -> bool {
        !(self.close_after_flush
            || self.eof
            || draining
            || self.inflight >= sh.cfg.window
            || self.out_pending() >= MAX_OUTBUF)
    }

    fn push_response(&mut self, r: &Response) {
        r.encode_into(&mut self.outbuf);
        self.inflight = self.inflight.saturating_sub(1);
    }
}

/// One executed-but-unacked write waiting for its batch's fence epoch.
struct PendingAck {
    conn: usize,
    resp: Response,
}

/// Decode buffered frames into the connection's queue until the window
/// is full or no whole frame is left. Returns whether any was decoded.
fn decode_buffered(sh: &Shared, conn: &mut Conn) -> bool {
    let mut decoded = false;
    while conn.inflight < sh.cfg.window && !conn.close_after_flush {
        match conn.inbuf.next_frame().map(|f| f.map(Request::decode)) {
            Ok(Some(Ok(req))) => {
                conn.queue.push_back(req);
                conn.inflight += 1;
                decoded = true;
            }
            Ok(None) => break,
            // A malformed request, or an unrecoverable framing error.
            Ok(Some(Err(_))) | Err(_) => {
                sh.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                Response::basic(0, Opcode::Shutdown, Status::Bad).encode_into(&mut conn.outbuf);
                conn.close_after_flush = true;
            }
        }
    }
    decoded
}

#[allow(clippy::too_many_lines)]
fn worker_loop(sh: &Shared, rx: &mpsc::Receiver<TcpStream>, woken: &UnixStream) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut pending: Vec<PendingAck> = Vec::new();
    let mut idle_since: Option<Instant> = None;

    'outer: loop {
        if sh.halt.load(Ordering::SeqCst) {
            // Power-cut semantics: drop everything unflushed.
            return;
        }
        let mut progressed = false;

        // Adopt newly accepted connections.
        while let Ok(stream) = rx.try_recv() {
            conns.push(Some(Conn::new(stream)));
            progressed = true;
        }

        let draining = sh.drain.load(Ordering::SeqCst);

        // Read + decode phase. `wire_ns` is charged only for a phase
        // that moved bytes or decoded a frame, never for idle polling.
        let t_wire = Instant::now();
        let mut moved = false;
        for slot in conns.iter_mut() {
            let Some(conn) = slot else { continue };
            if conn.inflight >= sh.cfg.window || conn.out_pending() >= MAX_OUTBUF {
                continue;
            }
            // Frames a full window left buffered come first: the client
            // may have nothing more to send, so no later read would ever
            // get to them.
            moved |= decode_buffered(sh, conn);
            if !conn.wants_read(sh, draining) {
                continue;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.eof = true;
                    progressed = true;
                }
                Ok(n) => {
                    moved = true;
                    conn.inbuf.push(&scratch[..n]);
                    decode_buffered(sh, conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => {
                    conn.eof = true;
                    progressed = true;
                }
            }
        }
        if moved {
            progressed = true;
            sh.stats
                .wire_ns
                .fetch_add(t_wire.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }

        // Execute phase: round-robin one queued request per connection
        // until queues drain. Write acks are held for the commit below.
        loop {
            let mut any = false;
            for (ci, slot) in conns.iter_mut().enumerate() {
                let Some(conn) = slot else { continue };
                let Some(req) = conn.queue.pop_front() else {
                    continue;
                };
                any = true;
                progressed = true;
                let Some(op) = req.op.op() else {
                    sh.signal(|sh| sh.drain.store(true, Ordering::SeqCst));
                    conn.push_response(&Response::basic(req.req_id, Opcode::Shutdown, Status::Ok));
                    continue;
                };
                let t0 = Instant::now();
                // May unwind with `CrashPointHit` when a crash point is
                // armed on a pool the op reaches.
                let result = {
                    let _site = obs::enabled().then(|| obs::site("net_exec"));
                    catch_unwind(AssertUnwindSafe(|| op.apply(&*sh.index, &mut Vec::new())))
                };
                let resp = match result {
                    Ok(outcome) => Response::of(req.req_id, req.op.opcode(), outcome),
                    Err(payload) => {
                        if payload.downcast_ref::<CrashPointHit>().is_none() {
                            resume_unwind(payload);
                        }
                        // Power cut through the serving path: halt
                        // everything, ack nothing more.
                        sh.signal(|sh| sh.halt.store(true, Ordering::SeqCst));
                        continue 'outer;
                    }
                };
                let dt = t0.elapsed().as_nanos() as u64;
                sh.stats.index_ns.fetch_add(dt, Ordering::Relaxed);
                let kind = op.kind() as usize;
                sh.stats.served[kind].fetch_add(1, Ordering::Relaxed);
                if obs::enabled() {
                    obs::op_complete(kind as u8, dt);
                    obs::count_op();
                }
                if op.is_write() && !sh.pools.is_empty() {
                    pending.push(PendingAck { conn: ci, resp });
                } else {
                    conn.push_response(&resp);
                }
            }
            if !any {
                break;
            }
        }

        // Group durability: one fence epoch covers every write this
        // iteration executed. Nothing more is queued right now, so
        // waiting longer would only add latency (linger = 0).
        if !pending.is_empty() && !commit_batch(sh, &mut conns, &mut pending) {
            continue 'outer;
        }

        // Write phase.
        let t_wire = Instant::now();
        let mut moved = false;
        for slot in conns.iter_mut() {
            let Some(conn) = slot else { continue };
            if conn.out_pending() > 0 {
                match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                    Ok(n) => {
                        conn.outpos += n;
                        moved = true;
                        if conn.outpos == conn.outbuf.len() {
                            conn.outbuf.clear();
                            conn.outpos = 0;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    // The peer is gone and will never take the rest:
                    // drop it, or this connection is never done and the
                    // worker never idle.
                    Err(_) => {
                        conn.eof = true;
                        conn.outbuf.clear();
                        conn.outpos = 0;
                        progressed = true;
                    }
                }
            }
            // Slow-reader shedding: the client is not draining its
            // socket and the buffered backlog keeps growing.
            if conn.out_pending() > MAX_OUTBUF {
                sh.stats.shed_conns.fetch_add(1, Ordering::Relaxed);
                sh.stats.conns_active.fetch_sub(1, Ordering::Relaxed);
                *slot = None;
                progressed = true;
                continue;
            }
            let done = conn.out_pending() == 0 && conn.queue.is_empty();
            if done && (conn.close_after_flush || conn.eof) {
                sh.stats.conns_active.fetch_sub(1, Ordering::Relaxed);
                *slot = None;
                progressed = true;
            }
        }
        if moved {
            progressed = true;
            sh.stats
                .wire_ns
                .fetch_add(t_wire.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        conns.retain(|c| c.is_some());

        // Drain completion: every complete frame read has been
        // executed, acked and flushed. A partial trailing frame is
        // discarded: nothing more is read, so it can never complete.
        if draining
            && pending.is_empty()
            && conns
                .iter()
                .flatten()
                .all(|c| c.queue.is_empty() && c.out_pending() == 0 && !c.inbuf.has_frame())
        {
            for c in conns.iter_mut().flatten() {
                let _ = c.stream.shutdown(std::net::Shutdown::Both);
                sh.stats.conns_active.fetch_sub(1, Ordering::Relaxed);
            }
            return;
        }

        if progressed {
            idle_since = None;
        } else if t_wire.duration_since(*idle_since.get_or_insert(t_wire)) < IDLE_SPIN {
            std::thread::yield_now();
        } else {
            // Idle past the budget: block until a socket is ready for
            // what the phases above would do with it, or a poke.
            let mut fds = vec![PollFd::new(woken, POLLIN)];
            fds.extend(conns.iter().flatten().map(|c| {
                let reads = c.wants_read(sh, draining);
                let read = if reads { POLLIN } else { 0 };
                let write = if c.out_pending() > 0 { POLLOUT } else { 0 };
                PollFd::new(&c.stream, read | write)
            }));
            wait(&mut fds, None);
            drain(woken);
            idle_since = None;
        }
    }
}

/// Commit one group-durability batch: fence every pool once, then
/// release the held write acks. Returns false (after setting the halt
/// flag) when the fence epoch itself trips a crash point — the acks are dropped, exactly like a power cut before the
/// fence retired.
fn commit_batch(sh: &Shared, conns: &mut [Option<Conn>], pending: &mut Vec<PendingAck>) -> bool {
    let t0 = Instant::now();
    let fenced = {
        let _site = obs::enabled().then(|| obs::site("net_batch_fence"));
        catch_unwind(AssertUnwindSafe(|| {
            for pool in &sh.pools {
                pool.fence_epoch();
            }
        }))
    };
    if let Err(payload) = fenced {
        if payload.downcast_ref::<CrashPointHit>().is_none() {
            resume_unwind(payload);
        }
        sh.signal(|sh| sh.halt.store(true, Ordering::SeqCst));
        pending.clear();
        return false;
    }
    sh.stats
        .fence_ns
        .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let fences = sh.pools.len() as u64;
    sh.stats.fence_epochs.fetch_add(fences, Ordering::Relaxed);
    sh.stats.batches.fetch_add(1, Ordering::Relaxed);
    sh.stats
        .batch_ops
        .fetch_add(pending.len() as u64, Ordering::Relaxed);
    sh.stats
        .acked_writes
        .fetch_add(pending.len() as u64, Ordering::Relaxed);
    for ack in pending.drain(..) {
        if let Some(conn) = &mut conns[ack.conn] {
            conn.push_response(&ack.resp);
        }
    }
    true
}
