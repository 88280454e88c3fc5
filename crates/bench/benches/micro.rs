//! Criterion microbenchmarks for the substrates and single-threaded
//! index hot paths. These complement the experiments (`e00_run_all`)
//! with statistically rigorous per-operation timings.

use std::sync::Arc;

use bench::registry::{self, ALL_KINDS};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pibench::keys::mix;
use pmalloc::{AllocMode, PmAllocator};
use pmem::{PmConfig, PmPool};

fn pm_primitives(c: &mut Criterion) {
    let pool = PmPool::new(16 << 20, PmConfig::real());
    let mut g = c.benchmark_group("pmem");
    g.bench_function("read_u64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % (8 << 20);
            std::hint::black_box(pool.read_u64(4096 + i))
        })
    });
    g.bench_function("write_u64", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 8) % (8 << 20);
            pool.write_u64(4096 + i, i);
        })
    });
    g.bench_function("persist_cacheline", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 64) % (8 << 20);
            pool.write_u64(4096 + i, i);
            pool.persist(4096 + i, 8);
        })
    });
    g.finish();
}

fn allocator(c: &mut Criterion) {
    let mut g = c.benchmark_group("pmalloc");
    for (mode, label) in [
        (AllocMode::General, "general"),
        (AllocMode::Striped, "striped"),
    ] {
        let pool = Arc::new(PmPool::new(256 << 20, PmConfig::real()));
        let alloc = PmAllocator::format(pool, mode);
        g.bench_function(format!("alloc_free_256/{label}"), |b| {
            b.iter(|| {
                let off = alloc.alloc(256).unwrap();
                alloc.free(std::hint::black_box(off));
            })
        });
    }
    g.finish();
}

fn index_ops(c: &mut Criterion) {
    const N: u64 = 100_000;
    for name in ALL_KINDS {
        let idx = registry::build(name, N, PmConfig::real()).index;
        for i in 0..N {
            idx.insert(mix(i), i);
        }
        let mut g = c.benchmark_group(format!("index/{name}"));
        g.bench_function("lookup_hit", |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 7) % N;
                std::hint::black_box(idx.lookup(mix(i)))
            })
        });
        g.bench_function("lookup_miss", |b| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                std::hint::black_box(idx.lookup(mix((1 << 62) + i)))
            })
        });
        g.bench_function("scan_100", |b| {
            let mut out = Vec::with_capacity(128);
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 13) % N;
                idx.scan(mix(i), 100, &mut out)
            })
        });
        g.bench_function("insert_fresh", |b| {
            let counter = std::cell::Cell::new(N);
            b.iter_batched(
                || {
                    let i = counter.get();
                    counter.set(i + 1);
                    mix(i)
                },
                |k| idx.insert(k, k),
                BatchSize::SmallInput,
            )
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(1)).warm_up_time(std::time::Duration::from_millis(300));
    targets = pm_primitives, allocator, index_ops
}
criterion_main!(benches);
