//! # engine — sharded multi-pool index layer with adaptive routing
//!
//! Range-partitions the u64 keyspace across N shards, each an independent
//! inner [`RangeIndex`] on its **own** [`PmPool`] and [`PmAllocator`].
//! Threads operating on different shards share no locks, no allocator
//! size classes, and no pool state — the structural bottlenecks of the
//! single-pool design (allocator class locks, pool mutexes) become
//! per-shard and therefore tunable with `--shards N`.
//!
//! ## Partitioning scheme
//!
//! The *initial* partition is multiplicative: shard `i` of `n` owns the
//! contiguous key range `[shard_start(i, n), shard_start(i + 1, n))`,
//! computed by `shard_of(key, n) = (key * n) >> 64`. This is monotonic
//! in `key` (so concatenating per-shard scans in shard order yields a
//! globally sorted result).
//!
//! Since the hot-traffic tier landed, routing goes through an explicit
//! **routing table** — a sorted, contiguous cover of the keyspace by
//! [`RouteEntry`] ranges — so a hot shard's range can be *split online*:
//! a new sub-shard takes over `[split_at, old_end]` while serving
//! continues (see below). With no migrations the table is exactly the
//! arithmetic partition.
//!
//! ## Online shard-range migration
//!
//! [`ShardedIndex::begin_migration`] carves the tail `[split_at, last]`
//! off the route entry owning `split_at` and returns a [`Migrator`]
//! that drives the three-phase, crash-consistent protocol:
//!
//! 1. **Copy** ([`Migrator::copy_chunk`]): scan the source range and
//!    insert into the destination shard. Writes to the migrating range
//!    keep landing on the source (still the routed owner) and are
//!    *mirrored* to the destination under the migration lock; the
//!    copier holds the same lock and never overwrites an existing
//!    destination entry (it was mirrored from a newer acked write).
//!    Crash anywhere here: the destination claim is still `PREPARING`,
//!    so recovery drops the destination pool outright — copies are
//!    logically invisible until publish.
//! 2. **Publish** ([`Migrator::publish`]): one fence on the destination
//!    pool, then a *single fenced 8-byte root write* flips the
//!    destination's claim to `ACTIVE` — that word is the migration's
//!    durable commit point. The in-DRAM routing table is then split
//!    under the state write-lock (acquiring it drains every in-flight
//!    reader, so no late mirror can race the flip).
//! 3. **GC** ([`Migrator::gc`]): scrub keys of the migrated range from
//!    every shard the routing table no longer points at, then mark the
//!    claim `SETTLED`. Idempotent, so recovery simply re-runs it for
//!    claims found `ACTIVE`.
//!
//! The claim lives in the destination pool's root area (slots
//! [`SLOT_MIG_MAGIC`]..=[`SLOT_MIG_STATE`]): range, sequence number and
//! state. [`ShardedIndex::recover_routed`] rebuilds the routing table
//! from the base pools' arithmetic partition plus the persisted claims
//! (overlaid in sequence order), finishing interrupted GC on the way —
//! double recovery is idempotent. The `crashpoint::migration` sweep
//! verifies the whole protocol at every persistence-event boundary.
//!
//! ## What a routed op touches
//!
//! Route, execute, return: a point op takes the routing `RwLock` for
//! reading (its reader count is the only shared word the engine writes)
//! and calls the owning shard's index. Nothing is sampled on the op
//! path; whoever wants a split picks `split_at` and calls
//! [`ShardedIndex::begin_migration`].
//!
//! ## Cross-shard scan continuation
//!
//! `scan(start, count)` walks route entries in key order and truncates
//! each shard's contribution to its routed range — which also hides
//! not-yet-GC'd source leftovers after a publish.

use std::sync::Arc;

use index_api::{prefixed_name, Footprint, Key, RangeIndex, Value};
use parking_lot::{Mutex, RwLock};
use pmalloc::PmAllocator;
use pmem::{MediaError, PmPool, PmStatsSnapshot};

/// Root slots (destination pool) holding a migration claim.
pub const SLOT_MIG_MAGIC: u64 = 48;
pub const SLOT_MIG_START: u64 = 49;
pub const SLOT_MIG_LAST: u64 = 50;
pub const SLOT_MIG_SEQ: u64 = 51;
pub const SLOT_MIG_STATE: u64 = 52;

/// "ENGSHARD" — marks a pool as a migration destination.
pub const MIG_MAGIC: u64 = 0x454e_4753_4841_5244;
/// Claim states. `PREPARING` destinations are dropped at recovery;
/// `ACTIVE` ones own their range (GC may still be owed); `SETTLED`
/// ones own their range and the source leftovers are gone.
pub const MIG_PREPARING: u64 = 1;
pub const MIG_ACTIVE: u64 = 2;
pub const MIG_SETTLED: u64 = 3;

/// One shard: an inner index plus the PM state backing it (absent for
/// DRAM-only inners).
#[derive(Clone)]
pub struct Shard {
    pub index: Arc<dyn RangeIndex>,
    pub pool: Option<Arc<PmPool>>,
    pub alloc: Option<Arc<PmAllocator>>,
}

/// Which shard owns `key` when the keyspace is split into `n` equal
/// ranges. Monotonic in `key`; `shard_of(0, n) == 0` and
/// `shard_of(u64::MAX, n) == n - 1`.
#[inline]
pub fn shard_of(key: Key, n: usize) -> usize {
    debug_assert!(n >= 1);
    ((key as u128 * n as u128) >> 64) as usize
}

/// Smallest key owned by shard `i` of `n` (`i < n`), i.e.
/// `ceil(i * 2^64 / n)`.
#[inline]
pub fn shard_start(i: usize, n: usize) -> Key {
    debug_assert!(i < n);
    (((i as u128) << 64).div_ceil(n as u128)) as Key
}

/// One routing-table row: keys in `[start, last]` (inclusive) belong to
/// `shards[shard]`. The table is sorted by `start` and tiles the whole
/// keyspace with no gaps or overlaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    pub start: Key,
    pub last: Key,
    pub shard: usize,
}

/// The arithmetic partition as a routing table.
fn base_routes(n: usize) -> Vec<RouteEntry> {
    (0..n)
        .map(|i| RouteEntry {
            start: shard_start(i, n),
            last: if i + 1 == n {
                u64::MAX
            } else {
                shard_start(i + 1, n) - 1
            },
            shard: i,
        })
        .collect()
}

/// Index of the route entry owning `key`.
#[inline]
fn route_idx(routes: &[RouteEntry], key: Key) -> usize {
    debug_assert!(!routes.is_empty() && routes[0].start == 0);
    routes.partition_point(|e| e.start <= key) - 1
}

/// Carve `[start, last] → shard` into the table, trimming or splitting
/// whatever it overlaps. Keeps the table sorted and contiguous.
fn overlay_route(routes: &mut Vec<RouteEntry>, start: Key, last: Key, shard: usize) {
    let mut out = Vec::with_capacity(routes.len() + 2);
    for e in routes.drain(..) {
        if e.last < start || e.start > last {
            out.push(e);
            continue;
        }
        if e.start < start {
            out.push(RouteEntry {
                start: e.start,
                last: start - 1,
                shard: e.shard,
            });
        }
        if e.last > last {
            out.push(RouteEntry {
                start: last + 1,
                last: e.last,
                shard: e.shard,
            });
        }
    }
    out.push(RouteEntry { start, last, shard });
    out.sort_by_key(|e| e.start);
    *routes = out;
}

/// An in-flight migration: writes to `[start, last]` are mirrored from
/// the source shard to the destination under `lock`, which the copier
/// also holds — so the destination always reflects the latest *acked*
/// state for every key it contains.
pub struct Migration {
    pub start: Key,
    pub last: Key,
    pub src: usize,
    pub dst: usize,
    pub seq: u64,
    lock: Mutex<()>,
}

impl Migration {
    #[inline]
    fn covers(&self, key: Key) -> bool {
        self.start <= key && key <= self.last
    }
}

/// One persisted destination claim, as read back at recovery.
#[derive(Debug, Clone)]
struct Claim {
    start: Key,
    last: Key,
    seq: u64,
    state: u64,
    pool: Arc<PmPool>,
}

struct EngineState {
    shards: Vec<Shard>,
    routes: Vec<RouteEntry>,
    migration: Option<Arc<Migration>>,
    next_seq: u64,
}

/// A range-partitioned federation of inner indexes that itself
/// implements the full [`RangeIndex`] contract.
pub struct ShardedIndex {
    state: RwLock<EngineState>,
    name: &'static str,
}

impl ShardedIndex {
    /// Assemble from pre-built shards (shard `i` must hold key range
    /// `[shard_start(i, n), shard_start(i + 1, n))`; the builder is
    /// responsible for routing prefill through this wrapper so that
    /// invariant holds).
    pub fn from_parts(shards: Vec<Shard>) -> Arc<Self> {
        let routes = base_routes(shards.len());
        Self::assemble(shards, routes, 1)
    }

    fn assemble(shards: Vec<Shard>, routes: Vec<RouteEntry>, next_seq: u64) -> Arc<Self> {
        assert!(!shards.is_empty(), "ShardedIndex needs at least one shard");
        let name = prefixed_name("sharded", shards[0].index.name());
        Arc::new(Self {
            state: RwLock::new(EngineState {
                shards,
                routes,
                migration: None,
                next_seq,
            }),
            name,
        })
    }

    /// Recover one shard per pool with `f` — sequentially when
    /// `parallel` is false, on one scoped thread per shard otherwise.
    /// The first [`MediaError`] aborts the open (on the parallel path the
    /// error of the lowest-indexed failing shard is reported, so both
    /// paths fail deterministically).
    fn recover_shards<F>(
        pools: &[Arc<PmPool>],
        parallel: bool,
        f: &F,
    ) -> Result<Vec<Shard>, MediaError>
    where
        F: Fn(Arc<PmPool>) -> Result<Shard, MediaError> + Sync,
    {
        if !parallel || pools.len() <= 1 {
            return pools.iter().map(|p| f(Arc::clone(p))).collect();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = pools
                .iter()
                .map(|p| {
                    let p = Arc::clone(p);
                    s.spawn(move || f(p))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard recovery thread panicked"))
                .collect()
        })
    }

    /// Re-open every shard from its pool's persisted image (`f` recovers
    /// one pool's allocator and index, see `recover_shards`).
    /// `base_pools` are the original arithmetic shards, positionally;
    /// `claim_pools` are migration destinations (any order; empty for a
    /// deployment that never migrated, whose routing table is then the
    /// arithmetic partition).
    /// A claim pool whose root area carries a valid `ACTIVE`/`SETTLED`
    /// claim is recovered and its range overlaid on the routing table
    /// (in claim-sequence order); anything else — `PREPARING`, torn, or
    /// never written — is dropped: its contents were never published,
    /// so they are logically invisible.
    ///
    /// For `ACTIVE` claims the interrupted GC is re-run (idempotent)
    /// and the claim is settled, so recovering twice is a no-op.
    pub fn recover_routed<F>(
        base_pools: Vec<Arc<PmPool>>,
        claim_pools: Vec<Arc<PmPool>>,
        parallel: bool,
        f: F,
    ) -> Result<Arc<Self>, MediaError>
    where
        F: Fn(Arc<PmPool>) -> Result<Shard, MediaError> + Sync,
    {
        let _site = obs::site("engine_recovery");
        assert!(!base_pools.is_empty(), "need at least one base shard");
        let mut claims: Vec<Claim> = claim_pools
            .iter()
            .filter_map(|p| {
                if p.read_root(SLOT_MIG_MAGIC) != MIG_MAGIC {
                    return None;
                }
                let state = p.read_root(SLOT_MIG_STATE);
                if state != MIG_ACTIVE && state != MIG_SETTLED {
                    return None;
                }
                Some(Claim {
                    start: p.read_root(SLOT_MIG_START),
                    last: p.read_root(SLOT_MIG_LAST),
                    seq: p.read_root(SLOT_MIG_SEQ),
                    state,
                    pool: Arc::clone(p),
                })
            })
            .collect();
        claims.sort_by_key(|c| c.seq);

        let mut all_pools = base_pools.clone();
        all_pools.extend(claims.iter().map(|c| Arc::clone(&c.pool)));
        let shards = Self::recover_shards(&all_pools, parallel, &f)?;

        let mut routes = base_routes(base_pools.len());
        for (i, c) in claims.iter().enumerate() {
            overlay_route(&mut routes, c.start, c.last, base_pools.len() + i);
        }
        let next_seq = claims.iter().map(|c| c.seq + 1).max().unwrap_or(1);
        let engine = Self::assemble(shards, routes, next_seq);
        // Finish interrupted GC: an ACTIVE claim owns its range but the
        // source leftovers may still be on media. Scrub + settle, in
        // sequence order (idempotent; double recovery re-runs safely).
        for c in &claims {
            if c.state == MIG_ACTIVE {
                engine.scrub_range(c.start, c.last);
                c.pool.write_root(SLOT_MIG_STATE, MIG_SETTLED);
            }
        }
        Ok(engine)
    }

    pub fn shard_count(&self) -> usize {
        self.state.read().shards.len()
    }

    /// Snapshot of the shards, in shard-id order.
    pub fn shards(&self) -> Vec<Shard> {
        self.state.read().shards.clone()
    }

    /// Snapshot of the routing table (sorted, contiguous cover).
    pub fn routes(&self) -> Vec<RouteEntry> {
        self.state.read().routes.clone()
    }

    /// Index of the shard owning `key` (routing-table lookup).
    #[inline]
    pub fn shard_of(&self, key: Key) -> usize {
        let st = self.state.read();
        st.routes[route_idx(&st.routes, key)].shard
    }

    /// First key owned by shard `i` of the *arithmetic* partition (the
    /// pre-migration layout; scan continuation and the crash harness's
    /// spread math use this).
    #[inline]
    pub fn shard_start(&self, i: usize) -> Key {
        let n = self.state.read().shards.len();
        shard_start(i, n)
    }

    /// The backing pools, in shard order (empty for DRAM inners).
    pub fn pools(&self) -> Vec<Arc<PmPool>> {
        self.state
            .read()
            .shards
            .iter()
            .filter_map(|s| s.pool.clone())
            .collect()
    }

    /// The backing allocators, in shard order (empty for DRAM inners).
    pub fn allocs(&self) -> Vec<Arc<PmAllocator>> {
        self.state
            .read()
            .shards
            .iter()
            .filter_map(|s| s.alloc.clone())
            .collect()
    }

    /// Counter-wise sum of every shard pool's statistics.
    pub fn merged_stats(&self) -> PmStatsSnapshot {
        let snaps: Vec<PmStatsSnapshot> = self
            .state
            .read()
            .shards
            .iter()
            .filter_map(|s| s.pool.as_ref().map(|p| p.stats()))
            .collect();
        PmStatsSnapshot::merged(snaps.iter())
    }

    /// Reset every shard pool's counters.
    pub fn reset_stats(&self) {
        for s in &self.state.read().shards {
            if let Some(p) = &s.pool {
                p.reset_stats();
            }
        }
    }

    /// Start migrating `[split_at, last-of-entry]` to `dst` (a freshly
    /// built shard; its pool — when present — receives the durable
    /// claim). `split_at` must lie strictly inside its route entry.
    /// Returns the [`Migrator`] that drives copy/publish/GC; exactly
    /// one migration may be in flight.
    pub fn begin_migration(self: &Arc<Self>, split_at: Key, dst: Shard) -> Migrator {
        let mut st = self.state.write();
        assert!(st.migration.is_none(), "one migration at a time");
        let e = st.routes[route_idx(&st.routes, split_at)];
        assert!(
            split_at > e.start,
            "split_at must be strictly inside its route entry"
        );
        if let Some(p) = &dst.pool {
            // Claim fields first, state last: an ACTIVE state word
            // implies the fields under it are valid. Each write_root
            // persists its word.
            p.write_root(SLOT_MIG_MAGIC, MIG_MAGIC);
            p.write_root(SLOT_MIG_START, split_at);
            p.write_root(SLOT_MIG_LAST, e.last);
            p.write_root(SLOT_MIG_SEQ, st.next_seq);
            p.write_root(SLOT_MIG_STATE, MIG_PREPARING);
        }
        let dst_idx = st.shards.len();
        st.shards.push(dst);
        let mig = Arc::new(Migration {
            start: split_at,
            last: e.last,
            src: e.shard,
            dst: dst_idx,
            seq: st.next_seq,
            lock: Mutex::new(()),
        });
        st.next_seq += 1;
        st.migration = Some(Arc::clone(&mig));
        Migrator {
            engine: Arc::clone(self),
            mig,
            cursor: split_at,
            copy_done: false,
            published: false,
        }
    }

    /// Remove every key in `[start, last]` from shards the routing
    /// table does not point at for that key (stale source leftovers
    /// after a publish). Idempotent; runs while serving continues.
    fn scrub_range(&self, start: Key, last: Key) {
        let _site = obs::site("engine_migrate_gc");
        const CHUNK: usize = 128;
        let st = self.state.read();
        for (j, sh) in st.shards.iter().enumerate() {
            let mut cursor = start;
            let mut buf = Vec::new();
            loop {
                let got = sh.index.scan(cursor, CHUNK, &mut buf);
                let mut past_end = got < CHUNK;
                let mut next = cursor;
                for &(k, _) in &buf[..got] {
                    if k > last {
                        past_end = true;
                        break;
                    }
                    if st.routes[route_idx(&st.routes, k)].shard != j {
                        sh.index.remove(k);
                    }
                    if k == u64::MAX {
                        past_end = true;
                        break;
                    }
                    next = k + 1;
                }
                cursor = next;
                if past_end {
                    break;
                }
            }
        }
    }
}

/// Drives one migration through copy → publish → GC. Hold it on the
/// thread doing the split; serving continues concurrently throughout.
pub struct Migrator {
    engine: Arc<ShardedIndex>,
    mig: Arc<Migration>,
    cursor: Key,
    copy_done: bool,
    published: bool,
}

impl Migrator {
    pub fn range(&self) -> (Key, Key) {
        (self.mig.start, self.mig.last)
    }

    pub fn src(&self) -> usize {
        self.mig.src
    }

    pub fn dst(&self) -> usize {
        self.mig.dst
    }

    pub fn copy_done(&self) -> bool {
        self.copy_done
    }

    /// Copy up to `n` records from the source range into the
    /// destination. Returns true when the copy pass is complete.
    pub fn copy_chunk(&mut self, n: usize) -> bool {
        if self.copy_done {
            return true;
        }
        let st = self.engine.state.read();
        let _g = self.mig.lock.lock();
        let _site = obs::site("engine_migrate_copy");
        let src = &st.shards[self.mig.src].index;
        let dst = &st.shards[self.mig.dst].index;
        let mut buf = Vec::new();
        let got = src.scan(self.cursor, n.max(1), &mut buf);
        if got < n.max(1) {
            self.copy_done = true; // source exhausted (maybe after this batch)
        }
        for &(k, v) in &buf[..got] {
            if k > self.mig.last {
                self.copy_done = true;
                break;
            }
            // A destination entry that already exists was mirrored from
            // a newer acked write — never overwrite it.
            let _ = dst.insert(k, v);
            if k == u64::MAX {
                self.copy_done = true;
                break;
            }
            self.cursor = k + 1;
        }
        self.copy_done
    }

    /// Commit: fence the destination, flip its claim to `ACTIVE` (the
    /// single durable publish word), then split the routing table.
    /// Requires the copy pass to be complete.
    pub fn publish(&mut self) {
        assert!(self.copy_done, "publish before copy completed");
        assert!(!self.published, "already published");
        {
            let st = self.engine.state.read();
            let _site = obs::site("engine_migrate_publish");
            if let Some(p) = &st.shards[self.mig.dst].pool {
                // Everything the copier/mirrors wrote is already
                // persisted by the inner index ops; the fence makes the
                // ordering explicit before the commit word.
                p.sfence();
                p.write_root(SLOT_MIG_STATE, MIG_ACTIVE);
            }
        }
        // Acquiring the write lock drains in-flight ops (and their
        // mirrors); after the flip, the range routes to the
        // destination and the mirror path is gone.
        let mut st = self.engine.state.write();
        overlay_route(&mut st.routes, self.mig.start, self.mig.last, self.mig.dst);
        st.migration = None;
        self.published = true;
    }

    /// Scrub source leftovers of the migrated range and settle the
    /// claim. Idempotent.
    pub fn gc(&mut self) {
        assert!(self.published, "gc before publish");
        self.engine.scrub_range(self.mig.start, self.mig.last);
        let st = self.engine.state.read();
        if let Some(p) = &st.shards[self.mig.dst].pool {
            p.write_root(SLOT_MIG_STATE, MIG_SETTLED);
        }
    }

    /// Drive the whole protocol to completion in `chunk`-record steps.
    pub fn run(&mut self, chunk: usize) {
        while !self.copy_chunk(chunk) {}
        self.publish();
        self.gc();
    }
}

impl RangeIndex for ShardedIndex {
    fn insert(&self, key: Key, value: Value) -> bool {
        let st = self.state.read();
        let shard = st.routes[route_idx(&st.routes, key)].shard;
        match st.migration.as_ref().filter(|m| m.covers(key)) {
            Some(mig) => {
                let _g = mig.lock.lock();
                let ok = st.shards[shard].index.insert(key, value);
                if ok {
                    let dst = &st.shards[mig.dst].index;
                    if !dst.insert(key, value) {
                        dst.update(key, value);
                    }
                }
                ok
            }
            None => st.shards[shard].index.insert(key, value),
        }
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        let st = self.state.read();
        let shard = st.routes[route_idx(&st.routes, key)].shard;
        st.shards[shard].index.lookup(key)
    }

    fn update(&self, key: Key, value: Value) -> bool {
        let st = self.state.read();
        let shard = st.routes[route_idx(&st.routes, key)].shard;
        match st.migration.as_ref().filter(|m| m.covers(key)) {
            Some(mig) => {
                let _g = mig.lock.lock();
                let ok = st.shards[shard].index.update(key, value);
                if ok {
                    let dst = &st.shards[mig.dst].index;
                    if !dst.update(key, value) {
                        // Not copied yet: install the fresh value now;
                        // the copier will skip it.
                        let _ = dst.insert(key, value);
                    }
                }
                ok
            }
            None => st.shards[shard].index.update(key, value),
        }
    }

    fn remove(&self, key: Key) -> bool {
        let st = self.state.read();
        let shard = st.routes[route_idx(&st.routes, key)].shard;
        match st.migration.as_ref().filter(|m| m.covers(key)) {
            Some(mig) => {
                let _g = mig.lock.lock();
                let ok = st.shards[shard].index.remove(key);
                if ok {
                    // May be a no-op if the copier never reached it.
                    let _ = st.shards[mig.dst].index.remove(key);
                }
                ok
            }
            None => st.shards[shard].index.remove(key),
        }
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        let _site = obs::site("engine_scan_merge");
        out.clear();
        if count == 0 {
            return 0;
        }
        let st = self.state.read();
        let mut tmp = Vec::new();
        let mut ri = route_idx(&st.routes, start);
        let mut from = start;
        while ri < st.routes.len() && out.len() < count {
            let e = st.routes[ri];
            let mut exhausted = false;
            // One route entry can need several inner scans: the inner
            // index may return keys past `e.last` (un-GC'd leftovers on
            // a split source), which are dropped here.
            while out.len() < count && !exhausted {
                let got = st.shards[e.shard]
                    .index
                    .scan(from, count - out.len(), &mut tmp);
                exhausted = got < count - out.len();
                for &(k, v) in &tmp[..got] {
                    if k > e.last {
                        exhausted = true;
                        break;
                    }
                    out.push((k, v));
                    if out.len() == count || k == u64::MAX {
                        exhausted = true;
                        break;
                    }
                    from = k + 1;
                }
            }
            ri += 1;
            if ri < st.routes.len() {
                from = st.routes[ri].start;
            }
        }
        out.len()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn footprint(&self) -> Footprint {
        let mut total = Footprint::default();
        for s in &self.state.read().shards {
            let f = s.index.footprint();
            total.pm_bytes += f.pm_bytes;
            total.dram_bytes += f.dram_bytes;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::testing::MapIndex;
    use pmalloc::AllocMode;
    use pmem::PmConfig;

    fn map_shard() -> Shard {
        Shard {
            index: Arc::new(MapIndex::new()) as Arc<dyn RangeIndex>,
            pool: None,
            alloc: None,
        }
    }

    fn map_sharded(n: usize) -> Arc<ShardedIndex> {
        ShardedIndex::from_parts((0..n).map(|_| map_shard()).collect())
    }

    #[test]
    fn partition_math_is_monotonic_and_covers_boundaries() {
        for n in [1usize, 2, 3, 4, 7, 16, 64] {
            assert_eq!(shard_of(0, n), 0);
            assert_eq!(shard_of(u64::MAX, n), n - 1);
            assert_eq!(shard_start(0, n), 0);
            for i in 0..n {
                let s = shard_start(i, n);
                assert_eq!(shard_of(s, n), i, "start of shard {i}/{n}");
                if s > 0 {
                    assert_eq!(shard_of(s - 1, n), i - 1, "key before shard {i}/{n}");
                }
            }
        }
    }

    #[test]
    fn base_routes_match_arithmetic_partition() {
        for n in [1usize, 2, 3, 5, 8] {
            let routes = base_routes(n);
            assert_eq!(routes.len(), n);
            assert_eq!(routes[0].start, 0);
            assert_eq!(routes[n - 1].last, u64::MAX);
            for w in routes.windows(2) {
                assert_eq!(w[0].last + 1, w[1].start, "contiguous cover");
            }
            for k in [0u64, 1, u64::MAX / 3, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
                assert_eq!(routes[route_idx(&routes, k)].shard, shard_of(k, n));
            }
        }
    }

    #[test]
    fn overlay_trims_and_splits() {
        let mut routes = base_routes(2);
        // Carve the tail of shard 0's range to a new shard 2.
        let split = u64::MAX / 4;
        let end = routes[0].last;
        overlay_route(&mut routes, split, end, 2);
        assert_eq!(
            routes,
            vec![
                RouteEntry {
                    start: 0,
                    last: split - 1,
                    shard: 0
                },
                RouteEntry {
                    start: split,
                    last: end,
                    shard: 2
                },
                RouteEntry {
                    start: end + 1,
                    last: u64::MAX,
                    shard: 1
                },
            ]
        );
        // Overlay spanning several entries replaces them all.
        overlay_route(&mut routes, 10, u64::MAX - 10, 3);
        assert_eq!(
            routes,
            vec![
                RouteEntry {
                    start: 0,
                    last: 9,
                    shard: 0
                },
                RouteEntry {
                    start: 10,
                    last: u64::MAX - 10,
                    shard: 3
                },
                RouteEntry {
                    start: u64::MAX - 9,
                    last: u64::MAX,
                    shard: 1
                },
            ]
        );
    }

    #[test]
    fn routing_respects_partition() {
        let idx = map_sharded(4);
        let keys = [0u64, 1, u64::MAX / 4, u64::MAX / 2, u64::MAX - 1, u64::MAX];
        for &k in &keys {
            assert!(idx.insert(k, k ^ 1));
        }
        // Each key landed in exactly the shard the partition function says.
        for &k in &keys {
            let owner = idx.shard_of(k);
            for (i, sh) in idx.shards().iter().enumerate() {
                assert_eq!(sh.index.lookup(k).is_some(), i == owner);
            }
        }
    }

    #[test]
    fn sharded_map_passes_conformance() {
        for n in [1usize, 2, 3, 5, 8] {
            let idx = map_sharded(n);
            // Full-width keys so the stream actually straddles shards.
            index_api::oracle::check_conformance(&*idx, 0xBEEF + n as u64, 4_000, u64::MAX);
        }
    }

    #[test]
    fn scan_continues_across_empty_shards() {
        let idx = map_sharded(8);
        // Populate only shards 0 and 6.
        let lo = [1u64, 2, 3];
        let hi_base = shard_start(6, 8);
        let hi = [hi_base, hi_base + 1, hi_base + 2];
        for &k in lo.iter().chain(hi.iter()) {
            assert!(idx.insert(k, k));
        }
        let mut out = Vec::new();
        // Scan from 0 must walk through five empty shards and keep going.
        assert_eq!(idx.scan(0, 5, &mut out), 5);
        assert_eq!(
            out.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![1, 2, 3, hi_base, hi_base + 1]
        );
        // count larger than the total record count drains everything.
        assert_eq!(idx.scan(0, 100, &mut out), 6);
        // Scan starting inside a trailing empty shard returns nothing.
        assert_eq!(idx.scan(shard_start(7, 8), 10, &mut out), 0);
    }

    #[test]
    fn scan_zero_count_and_clears_out() {
        let idx = map_sharded(3);
        idx.insert(10, 1);
        let mut out = vec![(99u64, 99u64)];
        assert_eq!(idx.scan(0, 0, &mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn footprint_aggregates_shards() {
        let idx = map_sharded(2);
        idx.insert(1, 1); // shard 0
        idx.insert(u64::MAX, 1); // shard 1
        let f = idx.footprint();
        assert_eq!(f.dram_bytes, 32); // 16 bytes/record in MapIndex
    }

    #[test]
    fn merged_stats_sums_pools_and_resets() {
        let mk_pool = || Arc::new(PmPool::new(1 << 20, PmConfig::default()));
        let pools = [mk_pool(), mk_pool()];
        pools[0].write_u64(pmem::ROOT_AREA, 7);
        pools[0].read_u64(pmem::ROOT_AREA);
        pools[1].read_u64(pmem::ROOT_AREA);
        let shards = pools
            .iter()
            .map(|p| Shard {
                index: Arc::new(MapIndex::new()) as Arc<dyn RangeIndex>,
                pool: Some(Arc::clone(p)),
                alloc: None,
            })
            .collect();
        let idx = ShardedIndex::from_parts(shards);
        let m = idx.merged_stats();
        assert_eq!(m.read_ops, 2);
        assert_eq!(m.write_ops, 1);
        idx.reset_stats();
        assert_eq!(idx.merged_stats(), PmStatsSnapshot::default());
    }

    #[test]
    fn recover_with_runs_both_paths() {
        let formatted = || {
            let p = Arc::new(PmPool::new(4 << 20, PmConfig::default()));
            PmAllocator::format(Arc::clone(&p), AllocMode::General);
            p.persist_all();
            p
        };
        let recover = |pool: Arc<PmPool>| {
            let alloc = PmAllocator::try_recover(Arc::clone(&pool))?;
            Ok(Shard {
                index: Arc::new(MapIndex::new()) as Arc<dyn RangeIndex>,
                pool: Some(pool),
                alloc: Some(alloc),
            })
        };
        // Lines allocator recovery reads: its header, an in-flight slot.
        let (header, slot) = (pmem::ROOT_AREA, pmem::ROOT_AREA + 320);
        for parallel in [false, true] {
            let pools: Vec<_> = (0..3).map(|_| formatted()).collect();
            let idx = ShardedIndex::recover_routed(pools.clone(), Vec::new(), parallel, recover)
                .expect("recovery succeeds");
            // No claim pools: pool `i` is shard `i` of the arithmetic
            // partition and nothing is scrubbed.
            assert_eq!(idx.routes(), base_routes(3));
            assert_eq!(idx.shard_count(), 3);
            assert_eq!(idx.pools().len(), 3);
            assert_eq!(idx.allocs().len(), 3);
            assert!(idx.insert(42, 42));

            // Shards 1 and 2 both fail, at different lines: either path
            // reports shard 1's.
            let pools: Vec<_> = (0..3).map(|_| formatted()).collect();
            pools[1].poison_line(slot);
            pools[2].poison_line(header);
            let opened = ShardedIndex::recover_routed(pools, Vec::new(), parallel, recover);
            let err = opened.err().expect("a poisoned shard fails the open");
            assert_eq!(err.off, slot, "parallel = {parallel}: {err}");
        }
    }

    #[test]
    fn sharded_name_table() {
        let idx = map_sharded(2);
        assert_eq!(idx.name(), "sharded-map-index");
    }

    #[test]
    fn live_migration_preserves_contents_and_routing() {
        let idx = map_sharded(2);
        let mut model = std::collections::BTreeMap::new();
        // Keys spread over shard 0's range plus a few in shard 1.
        for i in 0..500u64 {
            let k = i * (u64::MAX / 600);
            idx.insert(k, i);
            model.insert(k, i);
        }
        let split = u64::MAX / 8;
        let mut mig = idx.begin_migration(split, map_shard());
        assert_eq!(mig.src(), 0);
        assert_eq!(mig.dst(), 2);
        // Interleave copying with live writes into the migrating range.
        let mut step = 0u64;
        while !mig.copy_chunk(32) {
            let k = split + 1 + step * 7919;
            if idx.insert(k, step) {
                model.insert(k, step);
            } else {
                idx.update(k, step + 1);
                model.insert(k, step + 1);
            }
            step += 1;
        }
        // Mutations in-range during migration are mirrored.
        let probe = split + 12345;
        idx.insert(probe, 777);
        model.insert(probe, 777);
        mig.publish();
        // After publish the range routes to the new shard.
        assert_eq!(idx.shard_of(split), 2);
        assert_eq!(idx.shard_of(split - 1), 0);
        assert_eq!(idx.routes().len(), 3);
        mig.gc();
        // Contents identical to the model, scan sorted and ghost-free.
        let mut out = Vec::new();
        idx.scan(0, usize::MAX >> 1, &mut out);
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(out, want);
        for (&k, &v) in &model {
            assert_eq!(idx.lookup(k), Some(v), "key {k}");
        }
        // Source shard no longer holds the migrated range.
        let shards = idx.shards();
        let mut src_scan = Vec::new();
        shards[0].index.scan(split, 10, &mut src_scan);
        assert!(src_scan.is_empty(), "GC must empty the source range");
        // Updates and removes keep working across the new boundary.
        assert!(idx.update(probe, 778));
        assert_eq!(idx.lookup(probe), Some(778));
        assert!(idx.remove(probe));
        assert_eq!(idx.lookup(probe), None);
    }

    #[test]
    fn migrator_run_drives_to_completion() {
        let idx = map_sharded(1);
        for k in 0..200u64 {
            idx.insert(k << 32, k);
        }
        let mut mig = idx.begin_migration(100u64 << 32, map_shard());
        mig.run(16);
        assert_eq!(idx.shard_count(), 2);
        assert_eq!(idx.routes().len(), 2);
        let mut out = Vec::new();
        assert_eq!(idx.scan(0, 500, &mut out), 200);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    #[should_panic(expected = "one migration at a time")]
    fn second_migration_is_rejected_while_active() {
        let idx = map_sharded(1);
        idx.insert(1, 1);
        let _m1 = idx.begin_migration(1 << 32, map_shard());
        let _m2 = idx.begin_migration(1 << 40, map_shard());
    }
}
