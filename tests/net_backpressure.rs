//! The server's per-connection window is backpressure, not a filter: a
//! burst larger than the window is answered in full even when the
//! client sends nothing after it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_index_bench::dram_index::DramTree;
use pm_index_bench::net::{ClientConn, ReqOp, Server, ServerConfig, Status};

#[test]
fn a_burst_of_three_windows_in_one_write_is_answered_in_full() {
    const WINDOW: usize = 16;
    let cfg = ServerConfig {
        workers: 1,
        window: WINDOW,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::new(DramTree::new()), Vec::new(), cfg).expect("bind");
    let mut conn = ClientConn::connect(&server.local_addr().to_string()).expect("connect");

    // 3 x window requests, queued first and sent as one write.
    let burst = 3 * WINDOW as u64;
    for k in 0..burst {
        conn.send(ReqOp::Insert(k, k + 100));
    }
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut replies = Vec::new();
    while replies.len() < burst as usize && Instant::now() < deadline {
        replies.extend(conn.pump().expect("pump"));
        assert!(!conn.server_closed, "server closed the connection");
        std::thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(conn.unflushed(), 0, "the burst went out");
    if replies.len() != burst as usize {
        // A server with stranded frames never finishes draining either:
        // leak it so the failure is reported instead of hanging in join.
        std::mem::forget(server);
        panic!(
            "{} of {burst} requests answered within 1 s, nothing sent after the burst",
            replies.len()
        );
    }
    // In order, each acknowledged.
    for (k, r) in replies.iter().enumerate() {
        assert_eq!((r.req_id, r.status), (k as u64 + 1, Status::Ok));
    }

    server.handle().drain();
    server.join();
}
