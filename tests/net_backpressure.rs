//! The server's per-connection window is backpressure, not a filter: a
//! burst larger than the window is answered in full even when the
//! client sends nothing after it — and, over PM, each window of writes
//! is acked behind one fence epoch, however many writes that is.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pm_index_bench::dram_index::DramTree;
use pm_index_bench::index_api::RangeIndex;
use pm_index_bench::net::build::build_sharded;
use pm_index_bench::net::{ClientConn, ReqOp, Server, ServerConfig, Status};
use pm_index_bench::pmem::{PmConfig, PmPool};

/// Serves `index` with one worker and `window`, sends 3 x `window`
/// inserts as one write and nothing after it, and checks that every one
/// is acknowledged, in order. Returns the still-running server.
fn three_windows_in_one_write(
    index: Arc<dyn RangeIndex>,
    pools: Vec<Arc<PmPool>>,
    window: usize,
) -> Server {
    let cfg = ServerConfig {
        workers: 1,
        window,
        ..ServerConfig::default()
    };
    let server = Server::start(index, pools, cfg).expect("bind");
    let mut conn = ClientConn::connect(&server.local_addr().to_string()).expect("connect");

    // 3 x window requests, queued first and sent as one write.
    let burst = 3 * window as u64;
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
    server
}

#[test]
fn a_burst_of_three_windows_in_one_write_is_answered_in_full() {
    let server = three_windows_in_one_write(Arc::new(DramTree::new()), Vec::new(), 16);
    server.handle().drain();
    server.join();
}

/// The same burst over PM: acks are held for the fence epoch at the end
/// of the loop iteration that executed them, and nothing caps how many
/// one epoch covers — a window of 64 is acked 64 at a time.
#[test]
fn a_pm_backed_burst_is_acked_one_fence_epoch_per_window() {
    let env = build_sharded("fptree", 1, 1_000, PmConfig::real());
    let server = three_windows_in_one_write(env.index.clone(), env.pools.clone(), 64);
    server.handle().drain();
    let stats = server.join().stats;
    let ld = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    let (batches, batch_ops) = (ld(&stats.batches), ld(&stats.batch_ops));
    assert_eq!((ld(&stats.acked_writes), batch_ops), (192, 192));
    // One shard, so one pool fence per committed batch.
    assert_eq!(ld(&stats.fence_epochs), batches);
    assert!(
        batch_ops / batches > 32,
        "{batch_ops} writes in {batches} batches"
    );
    for k in 0..192 {
        assert_eq!(env.index.lookup(k), Some(k + 100));
    }
}

/// A committed batch fences every pool the server holds, once each,
/// wherever its writes landed: which pool a key lives on is the
/// engine's routing, which a published migration changes.
#[test]
fn a_committed_batch_fences_every_pool_once() {
    let env = build_sharded("dram", 3, 0, PmConfig::real());
    let pools: Vec<Arc<PmPool>> = (0..3)
        .map(|_| Arc::new(PmPool::new(1 << 20, PmConfig::real())))
        .collect();
    let server = three_windows_in_one_write(env.index.clone(), pools.clone(), 8);
    // Every key the burst wrote lies in the first of three equal ranges.
    assert!((0..24).all(|k| pm_index_bench::engine::shard_of(k, 3) == 0));
    server.handle().drain();
    let batches = server.join().stats.batches.load(Ordering::Relaxed);
    assert!(batches > 0);
    for (i, pool) in pools.iter().enumerate() {
        assert_eq!(pool.stats().fence, batches, "pool {i}");
    }
}
