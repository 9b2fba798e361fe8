//! Fig. 12 benchmark: BTIO with collective I/O.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harl_bench::support::{plan_for, run_once};
use harl_core::RegionStripeTable;
use harl_pfs::ClusterConfig;
use harl_workloads::BtioConfig;
use std::hint::black_box;

fn fig12(c: &mut Criterion) {
    let cluster = ClusterConfig::paper_default();
    let mut group = c.benchmark_group("fig12");
    group.sample_size(10);

    for procs in [4usize, 16] {
        let mut cfg = BtioConfig::paper_default(procs);
        cfg.grid = 32; // miniature grid for bench iterations
        let w = cfg.build();
        let default = RegionStripeTable::uniform(cfg.file_size(), vec![64 * 1024, 64 * 1024]);
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

criterion_group!(benches, fig12);
criterion_main!(benches);
