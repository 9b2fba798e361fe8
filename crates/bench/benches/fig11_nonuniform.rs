//! Fig. 11 benchmark: the non-uniform four-region workload, including the
//! region-division pass it exercises.

use criterion::{criterion_group, criterion_main, Criterion};
use harl_bench::support::{bench_harl, plan_for, run_once};
use harl_core::{LayoutPolicy, RegionStripeTable};
use harl_devices::OpKind;
use harl_middleware::{collect_trace_lowered, CollectiveConfig};
use harl_pfs::ClusterConfig;
use harl_simcore::SimContext;
use harl_workloads::MultiRegionIorConfig;
use std::hint::black_box;

fn fig11(c: &mut Criterion) {
    let cluster = ClusterConfig::paper_default();
    let mut group = c.benchmark_group("fig11");
    group.sample_size(10);

    // 1/128 of paper scale keeps each simulated run around 100 ms.
    let w = MultiRegionIorConfig::paper_default(OpKind::Read, 1.0 / 128.0).build();
    let file_size = w.extent().max(1);
    let default = RegionStripeTable::uniform(file_size, vec![64 * 1024, 64 * 1024]);
    let harl_rst = plan_for(&cluster, &w);

    group.bench_function("default_64K", |b| {
        b.iter(|| black_box(run_once(&cluster, &default, &w)))
    });
    group.bench_function("harl", |b| {
        b.iter(|| black_box(run_once(&cluster, &harl_rst, &w)))
    });

    let trace = collect_trace_lowered(&cluster, &w, &CollectiveConfig::default());
    let mut policy = bench_harl(&cluster);
    policy.division.fixed_region_size = 2 << 20;
    group.bench_function("region_division_and_planning", |b| {
        b.iter(|| black_box(policy.plan(&SimContext::new(), &trace, file_size)))
    });
    group.finish();
}

criterion_group!(benches, fig11);
criterion_main!(benches);
