//! Component bench: Algorithm 2's grid search (sequential vs parallel) and
//! Algorithm 1's region division.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harl_core::{
    divide_regions, optimize_region, MultiProfileModel, OptimizerConfig, RegionDivisionConfig,
    RegionRequests, TraceRecord,
};
use harl_devices::OpKind;
use harl_pfs::ClusterConfig;
use harl_simcore::{MemoryRecorder, SimContext, SimNanos};
use std::hint::black_box;
use std::sync::Arc;

fn records(n: usize, size: u64) -> Vec<TraceRecord> {
    (0..n)
        .map(|i| TraceRecord {
            rank: (i % 16) as u32,
            fd: 0,
            op: OpKind::Read,
            offset: i as u64 * size,
            size,
            timestamp: SimNanos::from_nanos(i as u64),
        })
        .collect()
}

fn optimizer(c: &mut Criterion) {
    let model = MultiProfileModel::from_cluster(&ClusterConfig::paper_default());
    let mut group = c.benchmark_group("optimizer");
    group.sample_size(10);

    let recs = records(1024, 512 * 1024);
    let reqs = RegionRequests::new(&recs, 0);
    for threads in [1usize, 4] {
        let cfg = OptimizerConfig {
            threads,
            max_requests_per_eval: 256,
            ..OptimizerConfig::default()
        };
        let ctx = SimContext::new();
        group.bench_with_input(BenchmarkId::new("grid_512K", threads), &cfg, |b, cfg| {
            b.iter(|| black_box(optimize_region(&ctx, &model, &reqs, 512 * 1024, cfg, 0)))
        });
        // Same search under an enabled in-memory recorder: the instrumented
        // path must track grid_512K within noise (the observability
        // acceptance bar — instrumentation stays off the hot loop).
        let recorded = SimContext::recorded(Arc::new(MemoryRecorder::new()));
        group.bench_with_input(
            BenchmarkId::new("grid_512K_memory_recorder", threads),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    black_box(optimize_region(
                        &recorded,
                        &model,
                        &reqs,
                        512 * 1024,
                        cfg,
                        0,
                    ))
                })
            },
        );
    }

    // Region division over a large trace.
    let mut mixed = records(4096, 128 * 1024);
    let base = mixed.last().map_or(0, |r| r.offset + r.size);
    mixed.extend(records(4096, 1024 * 1024).into_iter().map(|mut r| {
        r.offset += base;
        r
    }));
    group.bench_function("region_division_8k_requests", |b| {
        b.iter(|| {
            black_box(divide_regions(
                &mixed,
                base * 10,
                &RegionDivisionConfig::default(),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, optimizer);
criterion_main!(benches);
