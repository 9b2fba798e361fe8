//! Fig. 9 benchmark: request-size sensitivity (128 KiB vs 1024 KiB).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harl_bench::support::{bench_ior, plan_for, run_once, BENCH_FILE};
use harl_core::RegionStripeTable;
use harl_devices::OpKind;
use harl_pfs::ClusterConfig;
use std::hint::black_box;

fn fig9(c: &mut Criterion) {
    let cluster = ClusterConfig::paper_default();
    let mut group = c.benchmark_group("fig9");
    group.sample_size(10);

    for req_k in [128u64, 1024] {
        let w = bench_ior(OpKind::Read, 16, req_k * 1024);
        let default = RegionStripeTable::uniform(BENCH_FILE, vec![64 * 1024, 64 * 1024]);
        let harl_rst = plan_for(&cluster, &w);
        group.bench_with_input(BenchmarkId::new("default", req_k), &w, |b, w| {
            b.iter(|| black_box(run_once(&cluster, &default, w)))
        });
        group.bench_with_input(BenchmarkId::new("harl", req_k), &w, |b, w| {
            b.iter(|| black_box(run_once(&cluster, &harl_rst, w)))
        });
    }
    group.finish();
}

criterion_group!(benches, fig9);
criterion_main!(benches);
