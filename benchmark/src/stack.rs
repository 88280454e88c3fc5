//! Building the measured stacks through the crates' public
//! constructors, and the post-run power-cycle check.
//!
//! PM is always `PmConfig::optane_like()`, `AllocMode::General` and the
//! default index configs: what `net::build::build_sharded` builds. The
//! flush policy is the code's own (every index op durable on return,
//! server acks behind `fence_epoch`, default `batch_max`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cache::CachedIndex;
use engine::{Shard, ShardedIndex};
use index_api::{Footprint, Key, RangeIndex, Value};
use net::build::{build_sharded, recover_sharded, BuiltEnv};
use net::{ClientConn, Server, ServerConfig};
use pmem::{PmConfig, PmPool};

use crate::trace::{Layer, Traced};

/// The five PM index kinds the paper compares.
pub const KINDS: [&str; 5] = ["fptree", "nvtree", "wbtree", "bztree", "learned"];

/// DRAM the served stacks give `CachedIndex`.
pub const CACHE_BYTES: usize = 1 << 20;

/// An index that does nothing: isolates the layers above it.
pub struct NullIndex;

impl RangeIndex for NullIndex {
    fn insert(&self, _: Key, _: Value) -> bool {
        true
    }
    fn lookup(&self, key: Key) -> Option<Value> {
        Some(key)
    }
    fn update(&self, _: Key, _: Value) -> bool {
        true
    }
    fn remove(&self, _: Key) -> bool {
        true
    }
    fn scan(&self, _: Key, _: usize, out: &mut Vec<(Key, Value)>) -> usize {
        out.clear();
        0
    }
    fn name(&self) -> &'static str {
        "null"
    }
}

/// Acknowledges every update but drops each 100th: the fault the smoke
/// test injects to prove the correctness gates bite.
pub struct Lossy {
    inner: Arc<dyn RangeIndex>,
    updates: AtomicU64,
}

impl Lossy {
    /// Wraps `inner`.
    pub fn wrap(inner: Arc<dyn RangeIndex>) -> Arc<dyn RangeIndex> {
        Arc::new(Lossy {
            inner,
            updates: AtomicU64::new(0),
        })
    }
}

impl RangeIndex for Lossy {
    fn insert(&self, key: Key, value: Value) -> bool {
        self.inner.insert(key, value)
    }
    fn lookup(&self, key: Key) -> Option<Value> {
        self.inner.lookup(key)
    }
    fn update(&self, key: Key, value: Value) -> bool {
        if self.updates.fetch_add(1, Ordering::Relaxed) % 100 == 99 {
            return true;
        }
        self.inner.update(key, value)
    }
    fn remove(&self, key: Key) -> bool {
        self.inner.remove(key)
    }
    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        self.inner.scan(start, count, out)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn footprint(&self) -> Footprint {
        self.inner.footprint()
    }
}

/// A PM stack: `shards` pools, each with its allocator and one index of
/// `kind`, behind one `ShardedIndex`.
pub struct Stack {
    /// Index kind of every shard.
    pub kind: &'static str,
    /// What `build_sharded` returned (shards re-wrapped when traced).
    pub env: BuiltEnv,
}

impl Stack {
    /// Builds an empty stack sized for `records`. With `traced`, a
    /// [`Traced`] decorator sits in each `Shard.index` above the kind.
    pub fn build(
        kind: &'static str,
        shards: usize,
        records: u64,
        pm: PmConfig,
        traced: bool,
    ) -> Stack {
        let mut env = build_sharded(kind, shards, records, pm);
        if traced {
            let wrapped = env
                .index
                .shards()
                .into_iter()
                .map(|s| Shard {
                    index: Traced::wrap(s.index, Layer::Kind),
                    ..s
                })
                .collect();
            env.index = ShardedIndex::from_parts(wrapped);
        }
        Stack { kind, env }
    }

    /// The kind itself, without the engine above it (one-shard stacks).
    pub fn kind_index(&self) -> Arc<dyn RangeIndex> {
        assert_eq!(self.env.index.shard_count(), 1);
        self.env.index.shards().remove(0).index
    }

    /// The sharded front-end as a plain index.
    pub fn index(&self) -> Arc<dyn RangeIndex> {
        self.env.index.clone()
    }

    /// PM bytes allocated, over all shards.
    pub fn pm_bytes(&self) -> u64 {
        self.env.allocs.iter().map(|a| a.live_bytes()).sum()
    }

    /// Merged PM counters of all pools.
    pub fn pm_stats(&self) -> pmem::PmStatsSnapshot {
        self.env.index.merged_stats()
    }

    /// Power-cycles every pool and reopens the stack from what was
    /// persisted. Returns the reopened stack and how long recovery took.
    pub fn crash_and_recover(self) -> (Stack, std::time::Duration) {
        let Stack { kind, env } = self;
        let pools: Vec<Arc<PmPool>> = env.pools.clone();
        // Nothing of the old incarnation may outlive the power cut.
        drop(env);
        for p in &pools {
            p.crash();
        }
        let t0 = std::time::Instant::now();
        let env = recover_sharded(kind, pools);
        (Stack { kind, env }, t0.elapsed())
    }
}

/// Inserts `records` through `idx`, an equal share on each of `threads`
/// threads. One thread builds the same structure every time, so PM
/// event counts repeat exactly; two use both cores of the box.
pub fn prefill(idx: &dyn RangeIndex, records: &[(u64, u64)], threads: usize) {
    std::thread::scope(|s| {
        for half in records.chunks(records.len().div_ceil(threads).max(1)) {
            s.spawn(move || {
                for &(k, v) in half {
                    assert!(idx.insert(k, v), "prefill collision on key {k:#x}");
                }
            });
        }
    });
}

/// Reads everything `idx` holds, in key order.
pub fn contents(idx: &dyn RangeIndex) -> Vec<(u64, u64)> {
    let mut all = Vec::new();
    let mut chunk = Vec::new();
    let mut from = 0u64;
    loop {
        idx.scan(from, 4096, &mut chunk);
        all.extend_from_slice(&chunk);
        match chunk.last() {
            Some(&(k, _)) if chunk.len() == 4096 && k < u64::MAX => from = k + 1,
            _ => return all,
        }
    }
}

/// Records in `got` or `want` but not in both (both ascending by key).
pub fn diff_count(got: &[(u64, u64)], want: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < got.len() && j < want.len() {
        match got[i].cmp(&want[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (got.len() - i) as u64 + (want.len() - j) as u64
}

/// Starts a one-worker server over `front` on an ephemeral loopback
/// port and connects the one client connection.
pub fn start_server(front: Arc<dyn RangeIndex>, pools: Vec<Arc<PmPool>>) -> (Server, ClientConn) {
    let cfg = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(front, pools, cfg).expect("bind loopback");
    let conn = ClientConn::connect(&server.local_addr().to_string()).expect("connect loopback");
    (server, conn)
}

/// A server (one worker) over `CachedIndex` over a stack's index, plus
/// the one client connection.
pub struct Served {
    /// The running server.
    pub server: Server,
    /// The cache layer, for its counters.
    pub cached: Arc<CachedIndex>,
    /// The client side.
    pub conn: ClientConn,
    /// The outermost decorator when traced (numbers the requests).
    pub top: Option<Arc<Traced>>,
}

impl Served {
    /// Puts `inner` (with `pools` under it) behind cache and server.
    /// With `traced`, decorators sit above and below `CachedIndex`.
    pub fn start(inner: Arc<dyn RangeIndex>, pools: Vec<Arc<PmPool>>, traced: bool) -> Served {
        let below: Arc<dyn RangeIndex> = if traced {
            Traced::wrap(inner, Layer::Engine)
        } else {
            inner
        };
        let cached = Arc::new(CachedIndex::new(below, CACHE_BYTES));
        let top = traced.then(|| Traced::wrap(cached.clone(), Layer::Cache));
        let front: Arc<dyn RangeIndex> = match &top {
            Some(t) => t.clone(),
            None => cached.clone(),
        };
        let (server, conn) = start_server(front, pools);
        Served {
            server,
            cached,
            conn,
            top,
        }
    }

    /// Drains the server and waits for its threads; returns its final
    /// counters.
    pub fn drain(self) -> Arc<net::ServeStats> {
        let Served { server, conn, .. } = self;
        server.handle().drain();
        let report = server.join();
        drop(conn);
        report.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::testing::MapIndex;

    #[test]
    fn contents_pages_through_the_whole_index() {
        let idx = MapIndex::new();
        let want: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i * 3, i)).collect();
        prefill(&idx, &want, 2);
        assert_eq!(contents(&idx), want);
        assert_eq!(contents(&MapIndex::new()), vec![]);
    }

    #[test]
    fn diff_counts_missing_extra_and_changed_records() {
        let want = [(1, 1), (2, 2), (3, 3)];
        assert_eq!(diff_count(&want, &want), 0);
        assert_eq!(diff_count(&[(1, 1), (3, 3)], &want), 1);
        assert_eq!(diff_count(&[(1, 1), (2, 9), (3, 3), (4, 4)], &want), 3);
        assert_eq!(diff_count(&[], &want), 3);
    }

    #[test]
    fn lossy_drops_each_hundredth_update() {
        let idx = Lossy::wrap(Arc::new(MapIndex::new()));
        assert!(idx.insert(1, 0));
        for v in 1..=100 {
            assert!(idx.update(1, v));
        }
        assert_eq!(idx.lookup(1), Some(99));
    }
}
