//! The driving half: a pipelined client connection plus a
//! pibench-compatible remote workload driver.
//!
//! Two loop disciplines, mirroring the serving-systems literature:
//!
//! * **closed loop** — `conns` connections, think-time 0, each keeps up
//!   to `window` requests pipelined; latency is measured from the
//!   moment a request is handed to the socket.
//! * **open loop** — requests arrive on a Poisson schedule at
//!   `target_qps` ([`pibench::dist::Arrivals`]); latency is measured
//!   from the *intended* arrival instant, so server queueing delay
//!   lands in the tail percentiles instead of being absorbed by the
//!   loop, the classic coordinated-omission fix.
//!
//! With a single connection the driver can also run in **oracle mode**:
//! the server executes one connection's requests in FIFO order, so
//! `index_api::Oracle` applied in send order predicts every response
//! (status, lookup value, full scan body) exactly. CI uses this to
//! check ack-count == oracle count over all five op types.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use index_api::Oracle;
use pibench::dist::{Arrivals, Distribution};
use pibench::hist::LatencyHistogram;
use pibench::keys::KeySpace;
use pibench::workload::{OpMix, OpStream};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::server::IDLE_SPIN;
use crate::wait::{wait, PollFd, POLLIN, POLLOUT};
use crate::wire::{FrameBuf, ReqOp, Request, Response, Status};

/// A pipelined client connection (nonblocking socket, caller-polled).
pub struct ClientConn {
    stream: TcpStream,
    inbuf: FrameBuf,
    outbuf: Vec<u8>,
    outpos: usize,
    next_req_id: u64,
    scratch: Vec<u8>,
    /// Set once the server closes its end (drain or power cut).
    pub server_closed: bool,
}

impl ClientConn {
    /// Connect to `addr` and switch to nonblocking mode.
    pub fn connect(addr: &str) -> std::io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(ClientConn {
            stream,
            inbuf: FrameBuf::new(),
            outbuf: Vec::new(),
            outpos: 0,
            next_req_id: 1,
            scratch: vec![0u8; 64 << 10],
            server_closed: false,
        })
    }

    /// Queue one request, returning its request id. Call [`Self::pump`]
    /// to actually move bytes.
    pub fn send(&mut self, op: ReqOp) -> u64 {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        Request { req_id, op }.encode_into(&mut self.outbuf);
        req_id
    }

    /// Unsent bytes still queued.
    pub fn unflushed(&self) -> usize {
        self.outbuf.len() - self.outpos
    }

    /// Nonblocking IO pump: write queued bytes, read whatever the
    /// server sent. Returns decoded responses (possibly none).
    pub fn pump(&mut self) -> std::io::Result<Vec<Response>> {
        if self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(n) => {
                    self.outpos += n;
                    if self.outpos == self.outbuf.len() {
                        self.outbuf.clear();
                        self.outpos = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
                    self.server_closed = true;
                }
                Err(e) => return Err(e),
            }
        }
        let mut out = Vec::new();
        loop {
            match self.stream.read(&mut self.scratch) {
                Ok(0) => {
                    self.server_closed = true;
                    break;
                }
                Ok(n) => self.inbuf.push(&self.scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                    self.server_closed = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        while let Ok(Some(payload)) = self.inbuf.next_frame() {
            match Response::decode(payload) {
                Ok(r) => out.push(r),
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad response frame: {e}"),
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Block until [`Self::pump`] could move bytes or `timeout` passes
    /// (`None`: until it could).
    fn wait_io(&self, timeout: Option<Duration>) {
        let write = if self.unflushed() > 0 { POLLOUT } else { 0 };
        wait(&mut [PollFd::new(&self.stream, POLLIN | write)], timeout);
    }

    /// Pump until a response arrives or `timeout` passes.
    pub fn recv_timeout(&mut self, timeout: Duration) -> std::io::Result<Option<Response>> {
        let deadline = Instant::now() + timeout;
        loop {
            let mut got = self.pump()?;
            if let Some(r) = got.pop() {
                // Single-response convenience used by control paths;
                // callers needing bulk traffic use pump() directly.
                return Ok(Some(r));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if self.server_closed || left.is_zero() {
                return Ok(None);
            }
            self.wait_io(Some(left));
        }
    }
}

/// Ask a server to drain gracefully via the wire `Shutdown` op.
pub fn send_shutdown(addr: &str) -> std::io::Result<()> {
    let mut conn = ClientConn::connect(addr)?;
    conn.send(ReqOp::Shutdown);
    let _ = conn.recv_timeout(Duration::from_secs(5))?;
    Ok(())
}

/// Remote workload configuration (`pmload`'s core).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Records the server was prefilled with (keyspace must match).
    pub records: u64,
    /// Total operations across all connections.
    pub ops: u64,
    /// Client connections (one thread each).
    pub conns: usize,
    /// Pipelined in-flight requests per connection.
    pub window: usize,
    /// Operation mix.
    pub mix: OpMix,
    /// Key access distribution.
    pub dist: Distribution,
    /// Records per scan.
    pub scan_len: usize,
    /// RNG seed.
    pub seed: u64,
    /// `Some(qps)` switches to open-loop Poisson arrivals.
    pub open_loop_qps: Option<f64>,
    /// Check every response against a local model (requires 1 conn).
    pub oracle: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7777".into(),
            records: 100_000,
            ops: 100_000,
            conns: 4,
            window: 32,
            mix: OpMix {
                lookup: 60,
                insert: 10,
                update: 10,
                remove: 10,
                scan: 10,
            },
            dist: Distribution::Uniform,
            scan_len: 100,
            seed: 0x5EED,
            open_loop_qps: None,
            oracle: false,
        }
    }
}

/// What one run of [`run_load`] measured.
#[derive(Debug)]
pub struct LoadResult {
    /// Requests sent.
    pub sent: u64,
    /// Responses received (acks).
    pub acked: u64,
    /// `Status::Miss` responses (clean negatives).
    pub misses: u64,
    /// Protocol-level failures (overload/bad).
    pub errors: u64,
    /// Measured wall time of the op phase.
    pub elapsed: Duration,
    /// Latency per op kind, `OP_KINDS` order.
    pub hists: Vec<LatencyHistogram>,
    /// Oracle-mode: responses checked against the model.
    pub oracle_checked: u64,
    /// Oracle-mode: responses contradicting the model.
    pub oracle_violations: u64,
    /// Server closed mid-run (drain or halt) — remaining ops unsent.
    pub server_closed: bool,
}

impl LoadResult {
    /// Throughput in Mops over acked responses.
    pub fn mops(&self) -> f64 {
        self.acked as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    fn empty() -> LoadResult {
        LoadResult {
            sent: 0,
            acked: 0,
            misses: 0,
            errors: 0,
            elapsed: Duration::ZERO,
            hists: (0..5).map(|_| LatencyHistogram::new()).collect(),
            oracle_checked: 0,
            oracle_violations: 0,
            server_closed: false,
        }
    }

    /// Fold in another connection's result, which ran beside this one.
    fn merge(mut self, o: LoadResult) -> LoadResult {
        self.sent += o.sent;
        self.acked += o.acked;
        self.misses += o.misses;
        self.errors += o.errors;
        self.elapsed = self.elapsed.max(o.elapsed);
        for (dst, src) in self.hists.iter_mut().zip(&o.hists) {
            dst.merge(src);
        }
        self.oracle_checked += o.oracle_checked;
        self.oracle_violations += o.oracle_violations;
        self.server_closed |= o.server_closed;
        self
    }
}

struct InFlight {
    kind: usize,
    t_ns: u64,
    /// Oracle mode: the response the model predicts. It is computed at
    /// send time, which is valid because a single connection's requests
    /// execute FIFO on the server.
    expect: Option<Response>,
}

/// Drive `cfg.ops` operations against a remote server and collect
/// pibench-style latency/throughput results.
pub fn run_load(cfg: &LoadConfig) -> std::io::Result<LoadResult> {
    assert!(cfg.conns > 0 && cfg.window > 0);
    if cfg.oracle {
        assert_eq!(
            cfg.conns, 1,
            "oracle mode needs a single connection (FIFO execution order)"
        );
    }
    let keyspace = KeySpace::new(cfg.records);
    let start = Instant::now();
    let per_conn = cfg.ops / cfg.conns as u64;
    let qps_per_conn = cfg.open_loop_qps.map(|q| q / cfg.conns as f64);

    let outcomes: Vec<std::io::Result<LoadResult>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..cfg.conns {
            let keyspace = &keyspace;
            let ops = if c == 0 {
                per_conn + cfg.ops % cfg.conns as u64
            } else {
                per_conn
            };
            handles.push(scope.spawn(move || {
                drive_conn(cfg, keyspace, cfg.seed + 1 + c as u64, ops, qps_per_conn)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();
    let mut r = LoadResult::empty();
    for o in outcomes {
        r = r.merge(o?);
    }
    // The wall time of the whole run, connection set-up included.
    Ok(LoadResult { elapsed, ..r })
}

#[allow(clippy::too_many_lines)]
fn drive_conn(
    cfg: &LoadConfig,
    keyspace: &KeySpace,
    seed: u64,
    ops: u64,
    qps: Option<f64>,
) -> std::io::Result<LoadResult> {
    let mut conn = ClientConn::connect(&cfg.addr)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let stream = OpStream::new(
        cfg.mix,
        cfg.dist.sampler(cfg.records),
        keyspace,
        cfg.scan_len,
    );
    let mut arrivals = qps.map(Arrivals::poisson);
    let mut model: Option<Oracle> = cfg.oracle.then(|| {
        let mut prefilled = Oracle::new();
        prefilled.extend((0..cfg.records).map(|i| {
            let k = keyspace.key(i);
            (k, keyspace.value_for(k))
        }));
        prefilled
    });

    let mut out = LoadResult::empty();
    let mut inflight: HashMap<u64, InFlight> = HashMap::new();
    let t0 = Instant::now();
    let mut next_arrival: Option<u64> = arrivals.as_mut().map(|a| a.next(&mut rng));
    let mut idle_since: Option<Instant> = None;

    while (out.sent < ops || !inflight.is_empty()) && !conn.server_closed {
        let mut progressed = false;

        // Send phase.
        while out.sent < ops && inflight.len() < cfg.window {
            let now_ns = t0.elapsed().as_nanos() as u64;
            // Open loop: the request's clock starts at its intended
            // arrival; if we are ahead of schedule, wait.
            let t_ns = if let Some(at) = next_arrival {
                if now_ns < at {
                    break;
                }
                next_arrival = arrivals.as_mut().map(|a| a.next(&mut rng));
                at
            } else {
                now_ns
            };
            let op = stream.next_op(&mut rng);
            let req = ReqOp::try_from(op)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            let req_id = conn.send(req);
            let expect = model
                .as_mut()
                .map(|m| Response::of(req_id, req.opcode(), m.apply(op)));
            inflight.insert(
                req_id,
                InFlight {
                    kind: op.kind() as usize,
                    t_ns,
                    expect,
                },
            );
            out.sent += 1;
            progressed = true;
        }

        // Receive phase.
        for resp in conn.pump()? {
            progressed = true;
            match resp.status {
                Status::Overload => {
                    out.errors += 1;
                    out.server_closed = true;
                    continue;
                }
                Status::Bad => {
                    out.errors += 1;
                    continue;
                }
                Status::Ok | Status::Miss => {}
            }
            let Some(inf) = inflight.remove(&resp.req_id) else {
                out.errors += 1;
                continue;
            };
            out.acked += 1;
            if resp.status == Status::Miss {
                out.misses += 1;
            }
            let now_ns = t0.elapsed().as_nanos() as u64;
            out.hists[inf.kind].record(now_ns.saturating_sub(inf.t_ns));
            if let Some(expect) = &inf.expect {
                out.oracle_checked += 1;
                if *expect != resp {
                    out.oracle_violations += 1;
                }
            }
        }

        if progressed {
            idle_since = None;
        } else if idle_since.get_or_insert_with(Instant::now).elapsed() < IDLE_SPIN {
            std::thread::yield_now();
        } else {
            // Nothing to do until the server answers or, with a send
            // still allowed, until it falls due.
            let due = next_arrival.filter(|_| out.sent < ops && inflight.len() < cfg.window);
            conn.wait_io(due.map(|at| Duration::from_nanos(at).saturating_sub(t0.elapsed())));
        }
    }
    out.server_closed |= conn.server_closed;
    out.elapsed = t0.elapsed();
    Ok(out)
}
