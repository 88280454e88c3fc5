//! The per-layer run (`--trace 1`): isolation micro-runs, single-class
//! phases per kind, counter deltas on the stack workloads, and one
//! traced segment whose spans give each layer's self time.
//!
//! A layer is a crate. Everything is measured from outside: isolation
//! runs put a [`NullIndex`] under the layer in question, primitives are
//! called in a loop, counts are `PmPool::stats()` / `PmAllocator::stats()`
//! / `ServeStats` / `CacheCounters` deltas around fixed-count segments,
//! and self times come from [`Traced`](crate::trace::Traced) decorators.
//! The work is a fixed op count; `--seconds` does not apply.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use cache::CachedIndex;
use engine::{Shard, ShardedIndex};
use index_api::RangeIndex;
use net::wire::FrameBuf;
use net::{Opcode, ReqOp, Request, Response, ServeStats, Status};
use pibench::dist::Distribution;
use pibench::keys::mix as mix64;
use pmalloc::{AllocMode, PmAllocator};
use pmem::{PmConfig, PmPool, PmStatsSnapshot, ROOT_AREA};

use crate::exec::{run_local, run_local_threads, run_served, Pace, SegmentRun};
use crate::gen::{arrivals, is_write, Generator, Op, Segment};
use crate::report::{Metric, Report};
use crate::stack::{start_server, NullIndex, Stack, CACHE_BYTES, KINDS};
use crate::stats::{median_of_5, percentile, percentile_sorted, summarize, Summary};
use crate::trace::{self, Layer, SelfTimes, Span, Traced};
use crate::workloads::{
    power_cycle_check, setup_kind, setup_served, setup_stack, Options, KINDS_MIX, RATE_HIGH,
    RATE_LOW, RW_MIX, SCAN_LEN, STACK_KIND, STORM_MIX, WINDOW,
};
use pibench::workload::{OpKind, OpMix};

/// Block size of the allocator micro-run: an FPTree leaf's class.
const NODE_BYTES: usize = 1280;

/// Collects the run's metrics and its checked-op counts.
#[derive(Default)]
struct Layers {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Connections or frames any server of the run refused.
    refused: u64,
}

impl Layers {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, s: &Summary) {
        self.metrics.push(Metric::of(name, unit, s));
    }

    fn exact(&mut self, name: impl Into<String>, unit: &'static str, v: f64) {
        self.metrics.push(Metric::exact(name, unit, v));
    }

    fn get(&self, name: &str) -> f64 {
        let found = self.metrics.iter().find(|m| m.name == name);
        found
            .unwrap_or_else(|| panic!("{name} was not measured yet"))
            .value
    }

    /// Counts what a drained server refused: overload + shed + bad frames.
    fn drained(&mut self, s: &ServeStats) {
        self.refused += s.overload_rejected.load(Ordering::Relaxed)
            + s.shed_conns.load(Ordering::Relaxed)
            + s.bad_frames.load(Ordering::Relaxed);
    }

    /// Adds the power-cycle check of `stack`; returns the recovery time.
    fn power_cycled(&mut self, stack: Stack, gens: &[Generator]) -> std::time::Duration {
        let (checked, differ, took) = power_cycle_check(stack, gens);
        self.attempted += checked;
        self.failed += differ;
        took
    }

    fn checked(&mut self, run: &SegmentRun) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        if let (Some(why), true) = (&run.first_failure, self.notes.is_empty()) {
            self.notes.push(format!("# first failure: {why}"));
        }
    }

    /// Runs `reps` segments of `ops` ops of `mix`; ns per op of each.
    fn phase_ns(
        &mut self,
        idx: &dyn RangeIndex,
        gen: &mut Generator,
        mix: OpMix,
        ops: usize,
        reps: usize,
    ) -> Vec<f64> {
        gen.set_mix(mix);
        (0..reps)
            .map(|_| {
                let seg = gen.segment(ops);
                let run = run_local(idx, &seg, SCAN_LEN, None);
                self.checked(&run);
                run.wall_ns as f64 / ops as f64
            })
            .collect()
    }

    /// [`Self::phase_ns`], summarized.
    fn phase(
        &mut self,
        idx: &dyn RangeIndex,
        gen: &mut Generator,
        mix: OpMix,
        ops: usize,
        reps: usize,
    ) -> Summary {
        summarize(&self.phase_ns(idx, gen, mix, ops, reps))
    }
}

fn ns_per(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

fn core_gen(l: &mut Layers, o: &Options) {
    let n = o.sizes.serve_seg_ops;
    for (name, dist, mix) in [
        ("uniform", Distribution::Uniform, RW_MIX),
        ("storm", o.storm(), STORM_MIX),
    ] {
        let mut g = Generator::new(o.seed, o.sizes.stack_records, 0, 1, dist, mix, 0);
        let s = median_of_5(|| {
            let t0 = Instant::now();
            black_box(g.segment(n));
            t0.elapsed().as_nanos() as f64 / n as f64
        });
        l.put(format!("core.gen_ns_per_op.{name}"), "ns", &s);
    }
}

fn pmem_primitives(l: &mut Layers, o: &Options) {
    const POOL: usize = 32 << 20;
    let lines = (POOL as u64 - ROOT_AREA) / 64 - 1;
    let offs: Vec<u64> = (0..o.sizes.prim_ops as u64)
        .map(|i| ROOT_AREA + (mix64(o.seed ^ i) % lines) * 64)
        .collect();
    let pool = PmPool::new(POOL, PmConfig::real());
    let (mut rd, mut wr, mut cl, mut fe) = (vec![], vec![], vec![], vec![]);
    for _ in 0..5 {
        rd.push(ns_per(offs.len(), |i| {
            black_box(pool.read_u64(offs[i]));
        }));
        wr.push(ns_per(offs.len(), |i| pool.write_u64(offs[i], i as u64)));
        cl.push(ns_per(offs.len(), |i| pool.clwb(offs[i], 8)));
        pool.sfence();
        let unfenced = ns_per(offs.len(), |i| {
            pool.write_u64(offs[i], i as u64);
            pool.clwb(offs[i], 8);
        });
        pool.sfence();
        let fenced = ns_per(offs.len(), |i| {
            pool.write_u64(offs[i], i as u64);
            pool.clwb(offs[i], 8);
            pool.sfence();
        });
        fe.push((fenced - unfenced).max(0.0));
    }
    l.put("pmem.read_u64_ns", "ns", &summarize(&rd));
    l.put("pmem.write_u64_ns", "ns", &summarize(&wr));
    l.put("pmem.clwb_ns", "ns", &summarize(&cl));
    l.put("pmem.sfence_ns", "ns", &summarize(&fe));

    let pool = PmPool::new(POOL, PmConfig::optane_like());
    let few = &offs[..offs.len() / 4];
    let s = median_of_5(|| {
        ns_per(few.len(), |i| {
            black_box(pool.read_u64(few[i]));
        })
    });
    l.put("pmem.read_u64_optane_ns", "ns", &s);
    let s = median_of_5(|| {
        ns_per(few.len(), |i| {
            pool.write_u64(few[i], i as u64);
            pool.persist(few[i], 64);
        })
    });
    l.put("pmem.persist_line_optane_ns", "ns", &s);
}

fn pmalloc_primitives(l: &mut Layers, o: &Options) {
    let blocks = o.sizes.prim_ops / 5;
    let pool = Arc::new(PmPool::new(64 << 20, PmConfig::optane_like()));
    let alloc = PmAllocator::format(pool, AllocMode::General);
    let (mut a_ns, mut f_ns) = (vec![], vec![]);
    let mut held = Vec::with_capacity(blocks);
    for _ in 0..5 {
        a_ns.push(ns_per(blocks, |_| {
            held.push(
                alloc
                    .alloc(NODE_BYTES)
                    .expect("micro-run pool is large enough"),
            )
        }));
        f_ns.push(ns_per(blocks, |i| alloc.free(held[i])));
        held.clear();
    }
    l.put("pmalloc.alloc_ns", "ns", &summarize(&a_ns));
    l.put("pmalloc.free_ns", "ns", &summarize(&f_ns));
}

fn dram_floor(l: &mut Layers, o: &Options) {
    let (stack, mut gen, first) = setup_kind("dram", o, PmConfig::real(), false);
    let idx = stack.kind_index();
    l.checked(&run_local(&*idx, &first, SCAN_LEN, None));
    let s = l.phase(
        &*idx,
        &mut gen,
        OpMix::pure(OpKind::Lookup),
        o.sizes.phase_ops * 5,
        5,
    );
    l.put("dram-index.lookup_ns", "ns", &s);
    let s = l.phase(
        &*idx,
        &mut gen,
        OpMix::pure(OpKind::Insert),
        o.sizes.phase_ops,
        5,
    );
    l.put("dram-index.insert_ns", "ns", &s);
}

/// `n` lookups whose expected value is what [`NullIndex`] answers.
fn null_lookups(n: usize) -> Segment {
    Segment {
        ops: (0..n as u64)
            .map(|i| Op {
                class: OpKind::Lookup,
                key: mix64(i),
                arg: mix64(i),
            })
            .collect(),
        ..Segment::default()
    }
}

fn net_isolation(l: &mut Layers, o: &Options) {
    // Codec: one request and its reply through encode, framing, decode.
    let (mut wire, mut rx_req, mut rx_resp) = (Vec::new(), FrameBuf::new(), FrameBuf::new());
    let s = median_of_5(|| {
        ns_per(o.sizes.prim_ops, |i| {
            let i = i as u64;
            wire.clear();
            Request {
                req_id: i,
                op: ReqOp::Lookup(i),
            }
            .encode_into(&mut wire);
            rx_req.push(&wire);
            let frame = rx_req
                .next_frame()
                .expect("own frame")
                .expect("whole frame");
            let req = Request::decode(frame).expect("own request");
            wire.clear();
            let mut resp = Response::basic(req.req_id, Opcode::Lookup, Status::Ok);
            resp.value = Some(i);
            resp.encode_into(&mut wire);
            rx_resp.push(&wire);
            let frame = rx_resp
                .next_frame()
                .expect("own frame")
                .expect("whole frame");
            black_box(Response::decode(frame).expect("own response"));
        })
    });
    l.put("net.codec_ns_per_req", "ns", &s);

    let (server, mut conn) = start_server(Arc::new(NullIndex), Vec::new());
    let ping = null_lookups(o.sizes.prim_ops / 20);
    let mut rtt = Vec::new();
    for _ in 0..5 {
        let (mut run, _) = run_served(&mut conn, &ping, 0, &Pace::Closed { window: 1 }, false);
        l.checked(&run);
        rtt.push(percentile(&mut run.samples.read, 50.0) / 1e3);
    }
    l.put("net.null_rtt_p50_us", "us", &summarize(&rtt));
    let burst = null_lookups(o.sizes.prim_ops);
    let mut mops = Vec::new();
    for _ in 0..5 {
        let (run, _) = run_served(
            &mut conn,
            &burst,
            0,
            &Pace::Closed { window: WINDOW },
            false,
        );
        l.checked(&run);
        mops.push(run.mops());
    }
    l.put("net.null_pipelined_mops", "Mops/s", &summarize(&mops));
    server.handle().drain();
    l.drained(&server.join().stats);
}

fn cache_isolation(l: &mut Layers, o: &Options) {
    let cached = CachedIndex::new(Arc::new(NullIndex), CACHE_BYTES);
    let resident = (cached.cache().capacity() / 4) as u64;
    for k in 0..resident {
        black_box(cached.lookup(mix64(k)));
    }
    let s = median_of_5(|| {
        ns_per(o.sizes.prim_ops, |i| {
            black_box(cached.lookup(mix64(i as u64 % resident)));
        })
    });
    l.put("cache.hit_ns", "ns", &s);
    // Keys never seen before: probe, inner lookup (free), fill, evict.
    let mut fresh = 1u64 << 40;
    let s = median_of_5(|| {
        ns_per(o.sizes.prim_ops, |_| {
            fresh += 1;
            black_box(cached.lookup(mix64(fresh)));
        })
    });
    l.put("cache.miss_overhead_ns", "ns", &s);
    let s = median_of_5(|| {
        ns_per(o.sizes.prim_ops, |i| {
            black_box(cached.update(mix64(i as u64 % resident), 1));
        })
    });
    l.put("cache.write_overhead_ns", "ns", &s);
}

fn engine_isolation(l: &mut Layers, o: &Options) {
    let shard = || Shard {
        index: Arc::new(NullIndex),
        pool: None,
        alloc: None,
    };
    let engine = ShardedIndex::from_parts(vec![shard(), shard()]);
    let s = median_of_5(|| {
        ns_per(o.sizes.prim_ops, |i| {
            black_box(engine.lookup(mix64(i as u64)));
        })
    });
    l.put("engine.route_ns_per_op", "ns", &s);
}

/// Ten metrics per kind from single-class fixed-count phases, the
/// kind's mixed-workload rate, and (FPTree) the cost of `obs` tracing.
fn kind_phases(l: &mut Layers, o: &Options, want_trace: bool) -> Vec<(&'static str, Vec<Span>)> {
    let mut traces = Vec::new();
    for kind in KINDS {
        let (stack, mut gen, first) = setup_kind(kind, o, PmConfig::optane_like(), want_trace);
        let idx = stack.kind_index();
        l.checked(&run_local(&*idx, &first, SCAN_LEN, None));
        let pool = &stack.env.pools[0];

        let mixed = l.phase_ns(
            &*idx,
            &mut gen,
            KINDS_MIX,
            o.sizes.phase_ops * 2,
            o.sizes.phase_reps,
        );
        let mops: Vec<f64> = mixed.iter().map(|ns| 1e3 / ns).collect();
        l.put(format!("{kind}.mixed_mops"), "Mops/s", &summarize(&mops));

        let before = pool.stats();
        let s = l.phase(
            &*idx,
            &mut gen,
            OpMix::pure(OpKind::Lookup),
            o.sizes.phase_ops,
            o.sizes.phase_reps,
        );
        let reads = pool.stats().since(&before);
        l.put(format!("{kind}.lookup_ns"), "ns", &s);
        let lookups = (o.sizes.phase_ops * o.sizes.phase_reps) as f64;
        l.exact(
            format!("{kind}.media_read_b_per_lookup"),
            "B/op",
            reads.media_read_bytes as f64 / lookups,
        );

        if kind == "fptree" {
            obs::set_enabled(true);
            let on = l.phase(
                &*idx,
                &mut gen,
                OpMix::pure(OpKind::Lookup),
                o.sizes.phase_ops,
                o.sizes.phase_reps,
            );
            obs::set_enabled(false);
            l.exact("obs.enabled_slowdown", "ratio", on.median / s.median);
        }

        let before = pool.stats();
        for class in [OpKind::Insert, OpKind::Update, OpKind::Remove] {
            let s = l.phase(
                &*idx,
                &mut gen,
                OpMix::pure(class),
                o.sizes.phase_ops,
                o.sizes.phase_reps,
            );
            l.put(format!("{kind}.{}_ns", class.label()), "ns", &s);
        }
        let writes_stats = pool.stats().since(&before);
        let writes = (3 * o.sizes.phase_ops * o.sizes.phase_reps) as f64;
        l.exact(
            format!("{kind}.media_write_b_per_write"),
            "B/op",
            writes_stats.media_write_bytes as f64 / writes,
        );
        l.exact(
            format!("{kind}.fences_per_write"),
            "count",
            writes_stats.fence as f64 / writes,
        );

        let s = l.phase(
            &*idx,
            &mut gen,
            OpMix::pure(OpKind::Scan),
            o.sizes.phase_ops / 10,
            o.sizes.phase_reps,
        );
        l.put(format!("{kind}.scan50_ns"), "ns", &s);
        l.exact(
            format!("{kind}.pm_b_per_record"),
            "B",
            stack.pm_bytes() as f64 / gen.live().len() as f64,
        );

        if want_trace {
            gen.set_mix(KINDS_MIX);
            let seg = gen.segment(o.sizes.phase_ops);
            trace::set_recording(true);
            l.checked(&run_local(&*idx, &seg, SCAN_LEN, Some(0)));
            trace::set_recording(false);
            traces.push((kind, trace::take_spans()));
        }

        drop(idx);
        let took = l.power_cycled(stack, std::slice::from_ref(&gen));
        l.exact(format!("{kind}.recover_ms"), "ms", took.as_secs_f64() * 1e3);
    }
    traces
}

/// ROADMAP's ledger: one fixed FPTree op stream under three pool
/// configs. optane − latency_off = modelled PM cost; latency_off −
/// elided = persistence emulation; elided − dram-index = bookkeeping.
fn fptree_ledger(l: &mut Layers, o: &Options) {
    for (name, pm) in [
        ("optane", PmConfig::optane_like()),
        ("latency_off", PmConfig::real()),
        ("elided", PmConfig::dram()),
    ] {
        let (stack, mut gen, first) = setup_kind("fptree", o, pm, false);
        let idx = stack.kind_index();
        l.checked(&run_local(&*idx, &first, SCAN_LEN, None));
        let s = l.phase(
            &*idx,
            &mut gen,
            OpMix::pure(OpKind::Lookup),
            o.sizes.phase_ops,
            o.sizes.phase_reps,
        );
        l.put(format!("pmem.fptree_lookup_ns.{name}"), "ns", &s);
        let s = l.phase(
            &*idx,
            &mut gen,
            OpMix::pure(OpKind::Insert),
            o.sizes.phase_ops,
            o.sizes.phase_reps,
        );
        l.put(format!("pmem.fptree_insert_ns.{name}"), "ns", &s);
    }
}

fn writes_in(segs: &[Segment]) -> f64 {
    segs.iter()
        .flat_map(|s| &s.ops)
        .filter(|op| is_write(op.class))
        .count() as f64
}

/// PM and allocator counts per op on `local-uniform-rw`, the stack's
/// recovery time, and (when asked) its traced segment.
fn local_stack_counts(l: &mut Layers, o: &Options, want_trace: bool) -> Option<Vec<Span>> {
    let (stack, mut gens, first) = setup_stack(
        o,
        2,
        Distribution::Uniform,
        RW_MIX,
        o.sizes.local_seg_ops,
        want_trace,
    );
    let idx: Arc<dyn RangeIndex> = if want_trace {
        Traced::wrap(stack.index(), Layer::Engine)
    } else {
        stack.index()
    };
    l.checked(&run_local_threads(&*idx, &first, 0, false));

    let pm0 = stack.pm_stats();
    let allocs0: u64 = stack.env.allocs.iter().map(|a| a.stats().allocs).sum();
    let segs: Vec<Segment> = gens
        .iter_mut()
        .map(|g| g.segment(o.sizes.local_seg_ops))
        .collect();
    l.checked(&run_local_threads(&*idx, &segs, 0, false));
    let pm: PmStatsSnapshot = stack.pm_stats().since(&pm0);
    let allocs = stack
        .env
        .allocs
        .iter()
        .map(|a| a.stats().allocs)
        .sum::<u64>()
        - allocs0;
    let ops = segs.iter().map(|s| s.ops.len()).sum::<usize>() as f64;
    let writes = writes_in(&segs);
    let live: usize = gens.iter().map(|g| g.live().len()).sum();
    l.exact(
        "pmem.media_read_b_per_op",
        "B/op",
        pm.media_read_bytes as f64 / ops,
    );
    l.exact(
        "pmem.media_write_b_per_op",
        "B/op",
        pm.media_write_bytes as f64 / ops,
    );
    l.exact("pmem.clwb_per_write", "count", pm.clwb as f64 / writes);
    l.exact("pmem.fence_per_write", "count", pm.fence as f64 / writes);
    l.exact(
        "pmem.clwb_redundant_share",
        "ratio",
        pm.clwb_redundant as f64 / pm.clwb.max(1) as f64,
    );
    l.exact(
        "pmalloc.allocs_per_kwrite",
        "count",
        allocs as f64 / writes * 1e3,
    );
    l.exact(
        "pmalloc.live_b_per_record",
        "B",
        stack.pm_bytes() as f64 / live as f64,
    );

    let spans = want_trace.then(|| {
        let segs: Vec<Segment> = gens
            .iter_mut()
            .map(|g| g.segment(o.sizes.local_seg_ops / 4))
            .collect();
        trace::set_recording(true);
        l.checked(&run_local_threads(&*idx, &segs, 0, true));
        trace::set_recording(false);
        trace::take_spans()
    });

    drop(idx);
    let took = l.power_cycled(stack, &gens);
    l.exact("engine.recover_ms", "ms", took.as_secs_f64() * 1e3);
    spans
}

#[derive(Clone, Copy)]
struct ServeSnap {
    served: u64,
    acked_writes: u64,
    batches: u64,
    batch_ops: u64,
    fence_epochs: u64,
    wire_ns: u64,
    index_ns: u64,
    fence_ns: u64,
}

impl ServeSnap {
    fn of(s: &ServeStats) -> ServeSnap {
        let ld = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        ServeSnap {
            served: s.total_served(),
            acked_writes: ld(&s.acked_writes),
            batches: ld(&s.batches),
            batch_ops: ld(&s.batch_ops),
            fence_epochs: ld(&s.fence_epochs),
            wire_ns: ld(&s.wire_ns),
            index_ns: ld(&s.index_ns),
            fence_ns: ld(&s.fence_ns),
        }
    }
}

/// `serve-uniform-rw` untraced: `ServeStats` and cache counter deltas,
/// and the throughput the traced segment is compared with.
fn serve_counts(l: &mut Layers, o: &Options) -> f64 {
    let (stack, mut served, mut gen, first) = setup_served(o, Distribution::Uniform, RW_MIX, false);
    let pace = Pace::Closed { window: WINDOW };
    l.checked(&run_served(&mut served.conn, &first, 0, &pace, false).0);
    let stats = served.server.stats();
    let (s0, c0) = (ServeSnap::of(&stats), served.cached.counters());
    let mut mops = Vec::new();
    for _ in 0..3 {
        let seg = gen.segment(o.sizes.serve_seg_ops);
        let (run, _) = run_served(&mut served.conn, &seg, 0, &pace, false);
        l.checked(&run);
        mops.push(run.mops());
    }
    let (s1, c1) = (ServeSnap::of(&stats), served.cached.counters());
    let reqs = (s1.served - s0.served) as f64;
    let writes = (s1.acked_writes - s0.acked_writes) as f64;
    l.exact(
        "net.wire_ns_per_req",
        "ns",
        (s1.wire_ns - s0.wire_ns) as f64 / reqs,
    );
    l.exact(
        "net.index_ns_per_req",
        "ns",
        (s1.index_ns - s0.index_ns) as f64 / reqs,
    );
    l.exact(
        "net.fence_ns_per_write",
        "ns",
        (s1.fence_ns - s0.fence_ns) as f64 / writes,
    );
    l.exact(
        "net.batch_writes_avg",
        "count",
        (s1.batch_ops - s0.batch_ops) as f64 / (s1.batches - s0.batches).max(1) as f64,
    );
    l.exact(
        "net.fence_epochs_per_write",
        "count",
        (s1.fence_epochs - s0.fence_epochs) as f64 / writes,
    );
    let probes = ((c1.hits - c0.hits) + (c1.misses - c0.misses)).max(1) as f64;
    l.exact(
        "cache.hit_rate.uniform",
        "ratio",
        (c1.hits - c0.hits) as f64 / probes,
    );
    let fills = ((c1.fills - c0.fills) + (c1.fill_skips - c0.fill_skips)).max(1) as f64;
    l.exact(
        "cache.fill_skip_share",
        "ratio",
        (c1.fill_skips - c0.fill_skips) as f64 / fills,
    );
    l.drained(&served.drain());
    l.power_cycled(stack, std::slice::from_ref(&gen));
    summarize(&mops).median
}

/// One traced closed-loop segment on the decorated served stack.
fn serve_traced(l: &mut Layers, o: &Options) -> (Vec<Span>, f64) {
    let (stack, mut served, mut gen, first) = setup_served(o, Distribution::Uniform, RW_MIX, true);
    let pace = Pace::Closed { window: WINDOW };
    l.checked(&run_served(&mut served.conn, &first, 0, &pace, false).0);
    let seg = gen.segment(o.sizes.serve_seg_ops);
    served.top.as_ref().expect("traced stack").reset();
    trace::set_recording(true);
    let (run, _) = run_served(&mut served.conn, &seg, 0, &pace, true);
    trace::set_recording(false);
    l.checked(&run);
    trace::flush_thread();
    // The worker hands its spans over when it ends.
    l.drained(&served.drain());
    l.power_cycled(stack, std::slice::from_ref(&gen));
    (trace::take_spans(), run.mops())
}

/// The storm at both fixed rates: open-loop tails, generator lateness,
/// backlog, and what the cache did.
fn storm_counts(l: &mut Layers, o: &Options, want_trace: bool) -> Option<Vec<Span>> {
    let (stack, mut served, mut gen, first) = setup_served(o, o.storm(), STORM_MIX, want_trace);
    l.checked(
        &run_served(
            &mut served.conn,
            &first,
            0,
            &Pace::Closed { window: WINDOW },
            false,
        )
        .0,
    );
    let c0 = served.cached.counters();
    let mut ops = 0usize;
    for (tag, rate, n) in [
        ("r20k", RATE_LOW, o.sizes.open_low_seg_ops),
        ("r300k", RATE_HIGH, o.sizes.open_high_seg_ops),
    ] {
        let (mut p50, mut p99, mut late, mut backlog) = (vec![], vec![], vec![], vec![]);
        for rep in 0..2u64 {
            let seg = gen.segment(n);
            let due = arrivals(o.seed ^ rep, rate, n);
            let (mut run, mut open) = run_served(
                &mut served.conn,
                &seg,
                0,
                &Pace::Open { arrivals: &due },
                false,
            );
            l.checked(&run);
            ops += n;
            let mut all = std::mem::take(&mut run.samples.read);
            all.append(&mut run.samples.write);
            all.sort_unstable();
            p50.push(percentile_sorted(&all, 50.0) / 1e3);
            p99.push(percentile_sorted(&all, 99.0) / 1e3);
            late.push(percentile(&mut open.late_ns, 99.0) / 1e3);
            backlog.push(open.backlog_max as f64);
        }
        l.put(format!("net.open_p99_us.{tag}"), "us", &summarize(&p99));
        if tag == "r300k" {
            l.put("net.open_p50_us.r300k", "us", &summarize(&p50));
            l.put("net.gen_late_p99_us.r300k", "us", &summarize(&late));
            l.exact("net.backlog_max.r300k", "count", summarize(&backlog).max);
        }
    }
    let c1 = served.cached.counters();
    let probes = ((c1.hits - c0.hits) + (c1.misses - c0.misses)).max(1) as f64;
    l.exact(
        "cache.hit_rate.storm",
        "ratio",
        (c1.hits - c0.hits) as f64 / probes,
    );
    l.exact(
        "cache.evictions_per_kop.storm",
        "count",
        (c1.evictions - c0.evictions) as f64 / ops as f64 * 1e3,
    );

    if want_trace {
        let seg = gen.segment(o.sizes.open_low_seg_ops);
        let due = arrivals(o.seed ^ 7, RATE_LOW, seg.ops.len());
        served.top.as_ref().expect("traced stack").reset();
        trace::set_recording(true);
        let pace = Pace::Open { arrivals: &due };
        let (run, _) = run_served(&mut served.conn, &seg, 0, &pace, true);
        trace::set_recording(false);
        l.checked(&run);
        trace::flush_thread();
    }
    // The worker hands its spans over when it ends.
    l.drained(&served.drain());
    l.power_cycled(stack, std::slice::from_ref(&gen));
    want_trace.then(trace::take_spans)
}

fn stack_table(title: &str, kind: &str, t: &SelfTimes) -> Vec<String> {
    let mut rows = vec![format!(
        "# cost stack: {title} ({} requests, mean ns per request)",
        t.requests
    )];
    let names = ["client + net", "cache", "engine", kind];
    for (name, ns) in names.iter().zip(t.self_ns) {
        rows.push(format!(
            "#   {name:<14} {ns:>12.1}  {:>5.1} %",
            100.0 * ns / t.client_span_ns.max(1.0)
        ));
    }
    rows.push(format!(
        "#   {:<14} {:>12.1}  self times cover {:.2} % of the client span",
        "client span",
        t.client_span_ns,
        100.0 * t.coverage()
    ));
    rows
}

/// Below the kind nothing can be wrapped from outside: price what the
/// kind spent in `pmalloc` and `pmem` as counts per op (from the stats
/// deltas on `local-uniform-rw`) times the isolation costs.
fn below_the_kind(l: &Layers) -> Vec<String> {
    let lat = PmConfig::optane_like().latency;
    let write_share = f64::from(RW_MIX.insert + RW_MIX.update + RW_MIX.remove) / 100.0;
    let allocs_per_op = l.get("pmalloc.allocs_per_kwrite") / 1e3 * write_share;
    let pmalloc = allocs_per_op * (l.get("pmalloc.alloc_ns") + l.get("pmalloc.free_ns"));
    let modelled = l.get("pmem.media_read_b_per_op") / 256.0 * f64::from(lat.read_ns)
        + l.get("pmem.media_write_b_per_op") / 256.0 * f64::from(lat.write_ns);
    let persist = write_share
        * (l.get("pmem.clwb_per_write") * l.get("pmem.clwb_ns")
            + l.get("pmem.fence_per_write") * l.get("pmem.sfence_ns"));
    vec![
        "# below the kind, per op of the uniform-rw mix (counts x isolation costs):".to_string(),
        format!("#   pmalloc        {pmalloc:>12.1}  ({allocs_per_op:.4} alloc+free pairs per op)"),
        format!("#   pmem modelled  {modelled:>12.1}  (media blocks x {} / {} ns, before the sequential discount)", lat.read_ns, lat.write_ns),
        format!("#   pmem persist   {persist:>12.1}  (clwb + sfence bookkeeping, latency off)"),
    ]
}

/// Runs the whole per-layer set; `workload` picks whose traced segment
/// is written to `out_dir/trace-<workload>.json`.
pub fn run(workload: &'static str, o: &Options, out_dir: &Path) -> std::io::Result<Report> {
    let mut l = Layers::default();

    core_gen(&mut l, o);
    pmem_primitives(&mut l, o);
    pmalloc_primitives(&mut l, o);
    dram_floor(&mut l, o);
    net_isolation(&mut l, o);
    cache_isolation(&mut l, o);
    engine_isolation(&mut l, o);
    let kind_traces = kind_phases(&mut l, o, workload == "kinds-local");
    fptree_ledger(&mut l, o);
    let local_spans = local_stack_counts(&mut l, o, workload == "local-uniform-rw");
    let untraced_mops = serve_counts(&mut l, o);
    let (serve_spans, traced_mops) = serve_traced(&mut l, o);
    let storm_spans = storm_counts(&mut l, o, workload == "serve-storm-open");
    l.exact("net.refused", "count", l.refused as f64);
    l.exact(
        "bench.trace_overhead_share",
        "ratio",
        1.0 - traced_mops / untraced_mops,
    );

    let all = trace::self_times(&serve_spans, |_| true);
    l.exact(
        "net.self_us_per_req",
        "us",
        all.self_ns[Layer::Client as usize] / 1e3,
    );
    l.exact(
        "cache.self_ns_per_op",
        "ns",
        all.self_ns[Layer::Cache as usize],
    );
    l.exact(
        "engine.self_ns_per_op",
        "ns",
        all.self_ns[Layer::Engine as usize],
    );
    let mut notes = Vec::new();
    notes.extend(stack_table(
        "serve-uniform-rw, lookup",
        STACK_KIND,
        &trace::self_times(&serve_spans, |c| c == OpKind::Lookup),
    ));
    notes.extend(stack_table(
        "serve-uniform-rw, insert/update/remove",
        STACK_KIND,
        &trace::self_times(&serve_spans, is_write),
    ));
    notes.extend(stack_table("serve-uniform-rw, all ops", STACK_KIND, &all));
    notes.extend(below_the_kind(&l));

    let path = out_dir.join(format!("trace-{workload}.json"));
    let groups: Vec<(&str, &str, &[Span])> = match workload {
        "kinds-local" => kind_traces
            .iter()
            .map(|(k, s)| (*k, *k, s.as_slice()))
            .collect(),
        "local-uniform-rw" => vec![(workload, STACK_KIND, local_spans.as_deref().unwrap_or(&[]))],
        "serve-storm-open" => vec![(workload, STACK_KIND, storm_spans.as_deref().unwrap_or(&[]))],
        _ => vec![(workload, STACK_KIND, &serve_spans)],
    };
    for (name, kind, spans) in &groups {
        if *name != "serve-uniform-rw" {
            notes.extend(stack_table(
                &format!("{workload} ({name}), all ops"),
                kind,
                &trace::self_times(spans, |_| true),
            ));
        }
    }
    trace::write_chrome_trace(&path, &groups)?;
    notes.push(format!("# trace written to {}", path.display()));

    l.notes.extend(notes);
    Ok(Report {
        workload,
        attempted: l.attempted,
        failed: l.failed,
        metrics: l.metrics,
        notes: l.notes,
    })
}
