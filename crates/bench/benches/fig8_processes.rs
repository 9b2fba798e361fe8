//! Fig. 8 benchmark: scaling the process count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use harl_bench::support::{bench_ior, plan_for, run_once, BENCH_FILE};
use harl_core::RegionStripeTable;
use harl_devices::OpKind;
use harl_pfs::ClusterConfig;
use std::hint::black_box;

fn fig8(c: &mut Criterion) {
    let cluster = ClusterConfig::paper_default();
    let mut group = c.benchmark_group("fig8");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(BENCH_FILE));

    for procs in [8usize, 32, 128] {
        let w = bench_ior(OpKind::Read, procs, 512 * 1024);
        let default = RegionStripeTable::uniform(BENCH_FILE, vec![64 * 1024, 64 * 1024]);
        let harl_rst = plan_for(&cluster, &w);
        group.bench_with_input(BenchmarkId::new("default", procs), &w, |b, w| {
            b.iter(|| black_box(run_once(&cluster, &default, w)))
        });
        group.bench_with_input(BenchmarkId::new("harl", procs), &w, |b, w| {
            b.iter(|| black_box(run_once(&cluster, &harl_rst, w)))
        });
    }
    group.finish();
}

criterion_group!(benches, fig8);
criterion_main!(benches);
