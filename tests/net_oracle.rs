//! The server and the oracle agree: every response a real `net::Server`
//! sends is the one `Response::of` derives from `Oracle::apply`, for all
//! five op kinds over colliding keys — and the wire's scan bound is
//! decided in one place, the `Op -> ReqOp` conversion.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_index_bench::index_api::oracle::random_ops;
use pm_index_bench::index_api::testing::MapIndex;
use pm_index_bench::index_api::{Op, Oracle, OP_KINDS};
use pm_index_bench::net::wire::MAX_SCAN;
use pm_index_bench::net::{ClientConn, ReqOp, Response, Server, ServerConfig, Status, WireError};

/// Pipeline `ops` over `conn`, at most 64 in flight, and hold every
/// response to the one the oracle predicts at send time (one
/// connection's requests execute FIFO).
fn check_against_oracle(conn: &mut ClientConn, model: &mut Oracle, ops: &[Op]) {
    let mut expected: VecDeque<Response> = VecDeque::new();
    let mut next = 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    while next < ops.len() || !expected.is_empty() {
        assert!(Instant::now() < deadline, "{} unanswered", expected.len());
        assert!(!conn.server_closed, "server closed the connection");
        while next < ops.len() && expected.len() < 64 {
            let op = ops[next];
            let req = ReqOp::try_from(op).expect("within the wire's bounds");
            let req_id = conn.send(req);
            expected.push_back(Response::of(req_id, req.opcode(), model.apply(op)));
            next += 1;
        }
        for got in conn.pump().expect("pump") {
            let want = expected.pop_front().expect("an unsolicited response");
            assert_eq!(got, want, "op {:?}", ops[next - expected.len() - 1]);
        }
    }
}

#[test]
fn every_response_is_the_one_the_oracle_predicts() {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::new(MapIndex::new()), Vec::new(), cfg).expect("bind");
    let mut conn = ClientConn::connect(&server.local_addr().to_string()).expect("connect");
    let mut model = Oracle::new();

    let ops = random_ops(0x5E27E, 12_000, 512);
    check_against_oracle(&mut conn, &mut model, &ops);
    for kind in OP_KINDS {
        let generated = ops.iter().filter(|op| op.kind() == kind).count() as u64;
        let served = server.stats().served[kind as usize].load(Ordering::Relaxed);
        assert!(generated > 0, "{kind:?} never generated");
        assert_eq!(served, generated, "{kind:?} counted in its own slot");
    }

    // The longest scan the wire carries is answered like any other.
    let longest = MAX_SCAN as usize;
    check_against_oracle(&mut conn, &mut model, &[Op::Scan(0, longest)]);
    // One more has no wire form: the conversion refuses it before a
    // frame exists, without truncating the count...
    assert_eq!(
        ReqOp::try_from(Op::Scan(0, longest + 1)),
        Err(WireError::ScanTooLarge(MAX_SCAN + 1))
    );
    assert_eq!(
        ReqOp::try_from(Op::Scan(0, (1 << 32) + 5)),
        Err(WireError::ScanTooLarge(u32::MAX))
    );
    // ...and a client that builds the frame anyway is told `Bad` and
    // disconnected, so the two sides cannot drift apart.
    conn.send(ReqOp::Scan(0, MAX_SCAN + 1));
    let refused = conn.recv_timeout(Duration::from_secs(5)).expect("pump");
    assert_eq!(refused.map(|r| r.status), Some(Status::Bad));

    server.handle().drain();
    let stats = server.join().stats;
    assert_eq!(stats.bad_frames.load(Ordering::Relaxed), 1);
    assert_eq!(stats.total_served(), ops.len() as u64 + 1);
}
