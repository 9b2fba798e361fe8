//! Fig. 10 benchmark: HServer:SServer ratio sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harl_bench::support::{bench_ior, plan_for, run_once, BENCH_FILE};
use harl_core::RegionStripeTable;
use harl_devices::OpKind;
use harl_pfs::ClusterConfig;
use std::hint::black_box;

fn fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10");
    group.sample_size(10);

    for (m, n) in [(7usize, 1usize), (6, 2), (2, 6)] {
        let cluster = ClusterConfig::hybrid(m, n);
        let w = bench_ior(OpKind::Read, 16, 512 * 1024);
        let default = RegionStripeTable::uniform(BENCH_FILE, vec![64 * 1024, 64 * 1024]);
        let harl_rst = plan_for(&cluster, &w);
        let label = format!("{m}H{n}S");
        group.bench_with_input(BenchmarkId::new("default", &label), &w, |b, w| {
            b.iter(|| black_box(run_once(&cluster, &default, w)))
        });
        group.bench_with_input(BenchmarkId::new("harl", &label), &w, |b, w| {
            b.iter(|| black_box(run_once(&cluster, &harl_rst, w)))
        });
    }
    group.finish();
}

criterion_group!(benches, fig10);
criterion_main!(benches);
