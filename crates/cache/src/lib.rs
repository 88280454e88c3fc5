//! # cache — a lock-free DRAM hot-key tier for PM range indexes
//!
//! Production traffic is skewed: a small hot set absorbs most point
//! lookups. On the emulated PM substrate every lookup pays the media
//! latency model, so a DRAM front fed by the hot set converts most of
//! that cost into a few nanoseconds of DRAM probing — *without*
//! weakening durability, because the cache is strictly write-through:
//!
//! * **Lookups** are read-through. A hit is served from DRAM; a miss
//!   consults the inner PM index and (on success) installs the entry.
//! * **Mutations** go to the inner index FIRST. Only after the inner
//!   operation returns — i.e. after the PM store + fence that makes it
//!   durable — does the cache invalidate. The durable-ack oracle
//!   (`crashpoint`, `net::crash::Net`) therefore sees exactly the same
//!   persistence-event stream with or without the cache.
//!
//! ## Coherence: generation-stamped fills
//!
//! The cache is an array of fixed-size buckets, each with a 64-bit
//! **generation counter** and eight seqlock-guarded slots. The rules:
//!
//! 1. Every *successful* mutation of key `k` bumps `k`'s bucket
//!    generation — after the inner index acknowledged, before the
//!    wrapper returns. (Writers never install values: a writer's value
//!    can already be stale relative to a concurrent, later-acked
//!    writer.)
//! 2. A fill captures the bucket generation **before** issuing the
//!    inner lookup, and stamps the slot with that value.
//! 3. A hit is only valid if the slot's stamp equals the bucket
//!    generation loaded at probe start.
//!
//! If a mutation raced a fill, the mutation's bump makes the fill's
//! stamp stale, so the filled entry is dead on arrival: no stale value
//! can be observed after its overwrite was acknowledged. The
//! linearization point of a cached mutation is the wrapper's return
//! (inner ack happens-before the bump, bump happens-before return).
//!
//! Slots are seqlocked (odd = writer active) so readers never see torn
//! key/value pairs; fill claims use a single CAS and simply *skip* the
//! fill on contention — it is only a cache. Eviction prefers a slot
//! holding the same key, then any dead slot (stamp ≠ generation), then
//! CLOCK second-chance over the bucket's reference bits.
//!
//! Scans bypass the cache entirely (the inner index is the only source
//! of ordered truth).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use index_api::{prefixed_name, Footprint, Key, RangeIndex, Value};

/// Slots per bucket (set-associativity of the cache).
pub const WAYS: usize = 8;

/// An empty/never-valid stamp. Bucket generations start at 0 and only
/// increment, so a slot stamped `DEAD_STAMP` never matches.
const DEAD_STAMP: u64 = u64::MAX;

/// One cache entry, guarded by a per-slot seqlock (`seq` odd = a writer
/// owns the slot; readers retry/reject on instability).
struct Slot {
    seq: AtomicU64,
    key: AtomicU64,
    value: AtomicU64,
    /// Bucket generation captured before the fill's inner lookup.
    stamp: AtomicU64,
    /// CLOCK reference bit (set on hit, cleared by the sweeping hand).
    refbit: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            key: AtomicU64::new(0),
            value: AtomicU64::new(0),
            stamp: AtomicU64::new(DEAD_STAMP),
            refbit: AtomicU64::new(0),
        }
    }
}

/// One set of [`WAYS`] slots plus the bucket generation and CLOCK hand.
struct Bucket {
    gen: AtomicU64,
    hand: AtomicUsize,
    slots: [Slot; WAYS],
}

impl Bucket {
    fn new() -> Bucket {
        Bucket {
            gen: AtomicU64::new(0),
            hand: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| Slot::new()),
        }
    }
}

/// Monotonic counters for the cache's behaviour. All relaxed: these are
/// statistics, not synchronization.
#[derive(Default)]
pub struct CacheStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub fills: AtomicU64,
    /// Fills abandoned because the slot CAS lost a race.
    pub fill_skips: AtomicU64,
    /// Fills that displaced a *live* (stamp == generation) entry.
    pub evictions: AtomicU64,
    /// Generation bumps issued by acknowledged mutations.
    pub invalidations: AtomicU64,
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub fills: u64,
    pub fill_skips: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl CacheCounters {
    /// Hit rate over all probes, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

/// Fibonacci-style 64-bit hash: full-width multiply spreads low-entropy
/// keys (sequential, strided) across the bucket array.
#[inline]
fn hash64(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(29)
}

/// The lock-free DRAM hot-key cache. See the module docs for the
/// coherence protocol.
pub struct HotCache {
    buckets: Box<[Bucket]>,
    mask: usize,
    stats: CacheStats,
}

impl HotCache {
    /// A cache budgeted to roughly `bytes` of DRAM (bucket count is the
    /// largest power of two fitting the budget; at least one bucket).
    pub fn with_capacity(bytes: usize) -> HotCache {
        let per_bucket = std::mem::size_of::<Bucket>().max(1);
        let want = (bytes / per_bucket).max(1);
        let n = if want.is_power_of_two() {
            want
        } else {
            (want.next_power_of_two()) >> 1
        }
        .max(1);
        HotCache {
            buckets: (0..n).map(|_| Bucket::new()).collect(),
            mask: n - 1,
            stats: CacheStats::default(),
        }
    }

    /// DRAM consumed by the bucket array.
    pub fn footprint_bytes(&self) -> u64 {
        (self.buckets.len() * std::mem::size_of::<Bucket>()) as u64
    }

    /// Number of entries the cache can hold.
    pub fn capacity(&self) -> usize {
        self.buckets.len() * WAYS
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Snapshot the counters.
    pub fn counters(&self) -> CacheCounters {
        let s = &self.stats;
        CacheCounters {
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            fills: s.fills.load(Ordering::Relaxed),
            fill_skips: s.fill_skips.load(Ordering::Relaxed),
            evictions: s.evictions.load(Ordering::Relaxed),
            invalidations: s.invalidations.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn bucket(&self, key: Key) -> &Bucket {
        &self.buckets[(hash64(key) as usize) & self.mask]
    }

    /// Probe for `key`. Returns the cached value and, on miss, the
    /// bucket generation to stamp a subsequent [`Self::fill`] with.
    /// The returned generation was loaded *before* the probe, so a fill
    /// stamped with it is invalidated by any mutation that completes
    /// after this call began — exactly the coherence rule we need.
    pub fn probe(&self, key: Key) -> Result<Value, u64> {
        let b = self.bucket(key);
        let gen = b.gen.load(Ordering::Acquire);
        for slot in &b.slots {
            let s0 = slot.seq.load(Ordering::Acquire);
            if s0 & 1 != 0 {
                continue; // writer active
            }
            let k = slot.key.load(Ordering::Relaxed);
            let v = slot.value.load(Ordering::Relaxed);
            let st = slot.stamp.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != s0 {
                continue; // torn read; treat as miss for this slot
            }
            if st == gen && k == key {
                slot.refbit.store(1, Ordering::Relaxed);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v);
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        Err(gen)
    }

    /// Install `key → value` stamped with `gen` (the generation
    /// returned by the miss [`Self::probe`], i.e. loaded before the
    /// inner lookup ran). Contention is resolved by giving up: a
    /// skipped fill only costs a future miss.
    pub fn fill(&self, key: Key, value: Value, gen: u64) {
        let b = self.bucket(key);
        let victim = self.pick_victim(b, key);
        let slot = &b.slots[victim];
        let s0 = slot.seq.load(Ordering::Acquire);
        if s0 & 1 != 0
            || slot
                .seq
                .compare_exchange(s0, s0 + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
        {
            self.stats.fill_skips.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // We own the slot (seq is odd). Count live displacements.
        let cur_gen = b.gen.load(Ordering::Acquire);
        let old_stamp = slot.stamp.load(Ordering::Relaxed);
        if old_stamp == cur_gen && slot.key.load(Ordering::Relaxed) != key {
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        slot.key.store(key, Ordering::Relaxed);
        slot.value.store(value, Ordering::Relaxed);
        slot.stamp.store(gen, Ordering::Relaxed);
        slot.refbit.store(1, Ordering::Relaxed);
        slot.seq.store(s0 + 2, Ordering::Release);
        self.stats.fills.fetch_add(1, Ordering::Relaxed);
    }

    /// Victim choice: same key (refresh) → dead slot (stamp stale) →
    /// CLOCK second-chance over the reference bits.
    fn pick_victim(&self, b: &Bucket, key: Key) -> usize {
        let gen = b.gen.load(Ordering::Acquire);
        let mut dead = None;
        for (i, slot) in b.slots.iter().enumerate() {
            let st = slot.stamp.load(Ordering::Relaxed);
            if st == gen && slot.key.load(Ordering::Relaxed) == key {
                return i;
            }
            if st != gen && dead.is_none() {
                dead = Some(i);
            }
        }
        if let Some(i) = dead {
            return i;
        }
        // CLOCK: clear refbits until one comes up already clear. Bounded
        // at two sweeps so a racing refbit-setter cannot spin us.
        let mut hand = b.hand.load(Ordering::Relaxed);
        for _ in 0..(2 * WAYS) {
            let i = hand % WAYS;
            hand = hand.wrapping_add(1);
            if b.slots[i].refbit.swap(0, Ordering::Relaxed) == 0 {
                b.hand.store(hand, Ordering::Relaxed);
                return i;
            }
        }
        b.hand.store(hand, Ordering::Relaxed);
        hand % WAYS
    }

    /// Invalidate every cached entry for `key`'s bucket: bump the
    /// generation so all current stamps (and any in-flight fill whose
    /// generation was captured earlier) go stale. Called by the
    /// write-through wrapper *after* the inner index acknowledged.
    pub fn invalidate(&self, key: Key) {
        self.bucket(key).gen.fetch_add(1, Ordering::SeqCst);
        self.stats.invalidations.fetch_add(1, Ordering::Relaxed);
    }
}

/// Read-through / write-through wrapper: [`HotCache`] in front of any
/// [`RangeIndex`]. Durability semantics are the inner index's,
/// unchanged — see the module docs.
pub struct CachedIndex {
    inner: Arc<dyn RangeIndex>,
    cache: HotCache,
    name: &'static str,
}

impl CachedIndex {
    /// Wrap `inner` with a cache budgeted to `cache_bytes` of DRAM.
    pub fn new(inner: Arc<dyn RangeIndex>, cache_bytes: usize) -> CachedIndex {
        let name = prefixed_name("cached", inner.name());
        CachedIndex {
            inner,
            cache: HotCache::with_capacity(cache_bytes),
            name,
        }
    }

    pub fn cache(&self) -> &HotCache {
        &self.cache
    }

    pub fn inner(&self) -> &Arc<dyn RangeIndex> {
        &self.inner
    }

    pub fn counters(&self) -> CacheCounters {
        self.cache.counters()
    }
}

impl RangeIndex for CachedIndex {
    fn insert(&self, key: Key, value: Value) -> bool {
        // Inner first: the PM fence inside the inner index is the ack.
        let ok = self.inner.insert(key, value);
        if ok {
            self.cache.invalidate(key);
        }
        ok
    }

    fn lookup(&self, key: Key) -> Option<Value> {
        match self.cache.probe(key) {
            Ok(v) => Some(v),
            Err(gen) => {
                let _site = obs::site("cache_miss");
                let got = self.inner.lookup(key);
                if let Some(v) = got {
                    self.cache.fill(key, v, gen);
                }
                got
            }
        }
    }

    fn update(&self, key: Key, value: Value) -> bool {
        let ok = self.inner.update(key, value);
        if ok {
            self.cache.invalidate(key);
        }
        ok
    }

    fn remove(&self, key: Key) -> bool {
        let ok = self.inner.remove(key);
        if ok {
            self.cache.invalidate(key);
        }
        ok
    }

    fn scan(&self, start: Key, count: usize, out: &mut Vec<(Key, Value)>) -> usize {
        // Ordered truth lives only in the inner index.
        self.inner.scan(start, count, out)
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn footprint(&self) -> Footprint {
        let mut f = self.inner.footprint();
        f.dram_bytes += self.cache.footprint_bytes();
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::testing::MapIndex;
    use std::sync::atomic::AtomicBool;

    fn cached(bytes: usize) -> CachedIndex {
        CachedIndex::new(Arc::new(MapIndex::new()), bytes)
    }

    #[test]
    fn read_through_hit_and_miss() {
        let c = cached(1 << 16);
        assert!(c.insert(7, 70));
        assert_eq!(c.lookup(7), Some(70)); // miss + fill
        assert_eq!(c.lookup(7), Some(70)); // hit
        let s = c.counters();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.fills, 1);
        assert_eq!(c.lookup(999), None);
        assert_eq!(c.counters().fills, 1, "absent keys are not cached");
    }

    #[test]
    fn write_through_invalidates() {
        let c = cached(1 << 16);
        assert!(c.insert(1, 10));
        assert_eq!(c.lookup(1), Some(10));
        assert!(c.update(1, 11));
        assert_eq!(c.lookup(1), Some(11), "update must kill the cached 10");
        assert!(c.remove(1));
        assert_eq!(c.lookup(1), None);
        assert!(!c.update(1, 12), "update of removed key fails");
        assert!(c.counters().invalidations >= 3);
    }

    #[test]
    fn stale_fill_is_dead_on_arrival() {
        // Manually interleave: capture gen, mutate, then fill with the
        // stale gen — the fill must not produce a hit.
        let inner: Arc<dyn RangeIndex> = Arc::new(MapIndex::new());
        inner.insert(5, 50);
        let cache = HotCache::with_capacity(1 << 14);
        let gen = match cache.probe(5) {
            Err(g) => g,
            Ok(_) => panic!("cold cache cannot hit"),
        };
        // A mutation completes between the probe and the fill.
        inner.update(5, 51);
        cache.invalidate(5);
        cache.fill(5, 50, gen); // stale value, stale stamp
        assert!(cache.probe(5).is_err(), "stale fill must not be served");
    }

    #[test]
    fn eviction_under_pressure() {
        let c = cached(1); // single bucket: WAYS entries max
        for k in 0..(WAYS as u64 * 4) {
            c.insert(k, k);
        }
        // Read-only pressure: the generation is stable, so once the
        // bucket's slots are all live, further fills must displace.
        for k in 0..(WAYS as u64 * 4) {
            c.lookup(k);
        }
        let s = c.counters();
        assert!(s.evictions > 0, "overfull bucket must evict: {s:?}");
        assert!(c.cache.capacity() >= WAYS);
        // Everything still reads correctly through the inner index.
        for k in 0..(WAYS as u64 * 4) {
            assert_eq!(c.lookup(k), Some(k));
        }
    }

    #[test]
    fn scan_bypasses_cache() {
        let c = cached(1 << 14);
        for k in [3u64, 1, 2] {
            c.insert(k, k * 10);
        }
        let mut out = Vec::new();
        assert_eq!(c.scan(0, 10, &mut out), 3);
        assert_eq!(out, vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn names_and_footprint() {
        let c = cached(1 << 16);
        assert_eq!(c.name(), "cached-map-index");
        assert!(c.footprint().dram_bytes >= c.cache.footprint_bytes());
    }

    #[test]
    fn concurrent_readers_never_see_stale_after_ack() {
        // Each key is owned by exactly one writer thread, which bumps
        // its value monotonically and raises a shared "floor" only
        // after the update was acknowledged. Readers check that a
        // (possibly cached) lookup never lands below an acked floor —
        // i.e. no stale value is observable after its overwrite's ack.
        let c = Arc::new(cached(1 << 14));
        const KEYS: u64 = 8;
        const WRITERS: u64 = 4;
        for k in 0..KEYS {
            c.insert(k, 0);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let floors: Arc<Vec<AtomicU64>> = Arc::new((0..KEYS).map(|_| AtomicU64::new(0)).collect());
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let c = c.clone();
                let stop = stop.clone();
                let floors = floors.clone();
                s.spawn(move || {
                    let mut k = t;
                    while !stop.load(Ordering::Relaxed) {
                        let f = &floors[k as usize];
                        let next = f.load(Ordering::SeqCst) + 1;
                        assert!(c.update(k, next));
                        // Ack happened inside update(); now publish it.
                        f.store(next, Ordering::SeqCst);
                        k = (k + WRITERS) % KEYS;
                    }
                });
            }
            for _ in 0..4 {
                let c = c.clone();
                let stop = stop.clone();
                let floors = floors.clone();
                s.spawn(move || {
                    let mut k = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        k = (k + 1) % KEYS;
                        let floor = floors[k as usize].load(Ordering::SeqCst);
                        let got = c.lookup(k).expect("hot keys never removed");
                        assert!(
                            got >= floor,
                            "stale read: key {k} returned {got} after floor {floor} was acked"
                        );
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(120));
            stop.store(true, Ordering::Relaxed);
        });
        let s = c.counters();
        assert!(s.hits > 0, "the hot set must actually hit: {s:?}");
    }
}
