//! Liveness of the serving idle path: a worker (or the acceptor) that
//! has spun out its idle budget blocks in `poll(2)`, and everything that
//! used to be noticed by a timed re-poll — a request, a new connection,
//! drain, a wire `Shutdown`, room in a full socket — must now *wake* it.
//! The bounds are generous: these tests assert wakes, not latencies.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pm_index_bench::dram_index::DramTree;
use pm_index_bench::index_api::RangeIndex;
use pm_index_bench::net::wire::FrameBuf;
use pm_index_bench::net::{
    send_shutdown, ClientConn, ReqOp, Request, Response, Server, ServerConfig, Status,
};

/// Far longer than the server's idle spin budget (1 ms): after this
/// every thread with nothing to do is blocked.
const WELL_PAST_IDLE_SPIN: Duration = Duration::from_millis(100);
const ANSWER_BY: Duration = Duration::from_secs(5);

/// A two-worker server over a DRAM tree holding keys `0..records`.
fn server(records: u64) -> Server {
    let index = Arc::new(DramTree::new());
    for k in 0..records {
        assert!(index.insert(k, k + 1));
    }
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    Server::start(index, Vec::new(), cfg).expect("bind")
}

fn connect(server: &Server) -> ClientConn {
    ClientConn::connect(&server.local_addr().to_string()).expect("connect")
}

/// One lookup of `key` (present, value `key + 1`) answered in time.
fn lookup_is_answered(conn: &mut ClientConn, key: u64) {
    let id = conn.send(ReqOp::Lookup(key));
    let r = conn
        .recv_timeout(ANSWER_BY)
        .expect("client io")
        .expect("no answer: the worker was not woken");
    assert_eq!(
        (r.req_id, r.status, r.value),
        (id, Status::Ok, Some(key + 1))
    );
}

/// Runs `f` on its own thread and returns its result, or panics if it
/// takes longer than `limit` (leaving the thread behind, so that a
/// missed wake fails the test instead of hanging it).
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("{what} did not finish within {limit:?}"))
}

#[test]
fn a_request_on_an_idle_connection_is_answered() {
    let server = server(100);
    let mut conn = connect(&server);
    lookup_is_answered(&mut conn, 1);
    for key in 2..5 {
        std::thread::sleep(WELL_PAST_IDLE_SPIN);
        lookup_is_answered(&mut conn, key);
    }
}

#[test]
fn a_new_connection_is_adopted_by_a_worker_blocked_on_another() {
    let server = server(100);
    // Round-robin hand-off: the first and third connection share a
    // worker, which is blocked on the first when the third arrives.
    let mut first = connect(&server);
    let mut second = connect(&server);
    lookup_is_answered(&mut first, 1);
    lookup_is_answered(&mut second, 2);
    std::thread::sleep(WELL_PAST_IDLE_SPIN);
    let mut third = connect(&server);
    lookup_is_answered(&mut third, 3);
    std::thread::sleep(WELL_PAST_IDLE_SPIN);
    lookup_is_answered(&mut first, 4);
    assert_eq!(server.stats().conns_accepted.load(Ordering::Relaxed), 3);
}

#[test]
fn drain_and_drop_stop_blocked_threads_within_a_second() {
    let second = Duration::from_secs(1);

    let idle = server(0);
    let mut conn = connect(&idle);
    conn.send(ReqOp::Insert(7, 8));
    assert!(conn.recv_timeout(ANSWER_BY).expect("client io").is_some());
    std::thread::sleep(WELL_PAST_IDLE_SPIN);
    idle.handle().drain();
    let report = within(second, "join after drain", move || idle.join());
    assert!(!report.halted);

    // Never connected to: both workers and the acceptor are blocked.
    let untouched = server(0);
    std::thread::sleep(WELL_PAST_IDLE_SPIN);
    within(second, "drop", move || drop(untouched));
}

#[test]
fn a_wire_shutdown_on_one_worker_stops_the_other() {
    let server = server(100);
    let mut first = connect(&server);
    let mut second = connect(&server);
    lookup_is_answered(&mut first, 1);
    lookup_is_answered(&mut second, 2);
    std::thread::sleep(WELL_PAST_IDLE_SPIN);
    // A third connection lands on the first's worker; the second's
    // worker sees neither it nor the `Shutdown` it carries.
    send_shutdown(&server.local_addr().to_string()).expect("shutdown");
    within(
        Duration::from_secs(1),
        "join after wire shutdown",
        move || server.join(),
    );
    for conn in [&mut first, &mut second] {
        assert!(conn.pump().expect("client io").is_empty());
        assert!(conn.server_closed, "a drained server closes its sockets");
    }
}

/// Bytes a loopback connection takes from a writer whose peer reads
/// nothing (kernel send + receive buffers; ~4 MB with Linux defaults).
fn unread_capacity() -> usize {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut writer = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
    let _peer = listener.accept().expect("accept");
    writer.set_nonblocking(true).expect("nonblocking");
    let chunk = vec![0u8; 64 << 10];
    let (mut taken, mut refusals) = (0, 0);
    // Full is two refusals a pause apart, not one in mid-transfer.
    while refusals < 2 {
        match writer.write(&chunk) {
            Ok(n) => (taken, refusals) = (taken + n, 0),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                refusals += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("probe write: {e}"),
        }
    }
    taken
}

/// Records per scan: a 16 KB reply.
const SCAN: u32 = 1_000;
const REPLY_BYTES: usize = 16 * SCAN as usize;

/// Sends scans on a raw socket without reading a byte back until the
/// replies outgrow what the kernel buffers by ~2 MiB, which therefore
/// sits in the server's output buffer — half its 4 MiB slow-reader
/// bound. In steps of 1 MiB, each executed before the next is sent, so
/// the bound is never crossed in passing. Returns the socket and the
/// number of replies owed on it.
fn pile_up_unread_replies(server: &Server) -> (TcpStream, u64) {
    let owed = ((unread_capacity() + (2 << 20)) / REPLY_BYTES) as u64;
    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    let stats = server.stats();
    let mut sent = 0;
    while sent < owed {
        let mut out = Vec::new();
        for _ in 0..64.min(owed - sent) {
            sent += 1;
            let op = ReqOp::Scan(0, SCAN);
            Request { req_id: sent, op }.encode_into(&mut out);
        }
        sock.write_all(&out).expect("send");
        let deadline = Instant::now() + ANSWER_BY;
        while stats.total_served() < sent {
            assert!(Instant::now() < deadline, "scans not executed");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    (sock, owed)
}

#[test]
fn a_reader_that_stalls_until_the_socket_fills_then_resumes_gets_every_reply() {
    let server = server(u64::from(SCAN));
    let (mut sock, owed) = pile_up_unread_replies(&server);
    // The worker cannot write the rest and has nothing to read: it
    // blocks, and only room in the socket (POLLOUT) can wake it.
    std::thread::sleep(WELL_PAST_IDLE_SPIN);

    sock.set_read_timeout(Some(ANSWER_BY)).expect("timeout");
    let mut inbuf = FrameBuf::new();
    let mut scratch = vec![0u8; 64 << 10];
    let mut next_id = 1;
    while next_id <= owed {
        let n = sock.read(&mut scratch).expect("replies stopped coming");
        assert!(n > 0, "server closed with replies outstanding");
        inbuf.push(&scratch[..n]);
        while let Some(frame) = inbuf.next_frame().expect("framing") {
            let r = Response::decode(frame).expect("reply");
            assert_eq!((r.req_id, r.status), (next_id, Status::Ok));
            assert_eq!(r.pairs.len(), SCAN as usize);
            next_id += 1;
        }
    }
    assert_eq!(server.stats().shed_conns.load(Ordering::Relaxed), 0);
}

#[test]
fn a_peer_that_vanishes_with_replies_unsent_is_dropped() {
    let server = server(u64::from(SCAN));
    let (sock, _) = pile_up_unread_replies(&server);
    std::thread::sleep(WELL_PAST_IDLE_SPIN);
    drop(sock);
    // The write now fails; the connection must be given up, not kept
    // (and retried, at full speed, for ever).
    let stats = server.stats();
    let deadline = Instant::now() + ANSWER_BY;
    while stats.conns_active.load(Ordering::Relaxed) != 0 {
        assert!(Instant::now() < deadline, "dead connection still held");
        std::thread::sleep(Duration::from_millis(1));
    }
}
