//! Fig. 7 benchmark: IOR under the default, the best fixed stripe, and the
//! HARL plan (plus the cost of planning itself).

use criterion::{criterion_group, criterion_main, Criterion};
use harl_bench::support::{bench_harl, bench_ior, plan_for, run_once};
use harl_core::{LayoutPolicy, RegionStripeTable};
use harl_devices::OpKind;
use harl_middleware::{collect_trace_lowered, CollectiveConfig};
use harl_pfs::ClusterConfig;
use harl_simcore::SimContext;
use std::hint::black_box;

fn fig7(c: &mut Criterion) {
    let cluster = ClusterConfig::paper_default();
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);

    for op in [OpKind::Read, OpKind::Write] {
        let w = bench_ior(op, 16, 512 * 1024);
        let default = RegionStripeTable::uniform(64 << 20, vec![64 * 1024, 64 * 1024]);
        let harl_rst = plan_for(&cluster, &w);
        group.bench_function(format!("{op}_default_64K"), |b| {
            b.iter(|| black_box(run_once(&cluster, &default, &w)))
        });
        group.bench_function(format!("{op}_harl"), |b| {
            b.iter(|| black_box(run_once(&cluster, &harl_rst, &w)))
        });
    }

    // The off-line Analysis Phase itself (trace -> regions -> grid search).
    let w = bench_ior(OpKind::Read, 16, 512 * 1024);
    let trace = collect_trace_lowered(&cluster, &w, &CollectiveConfig::default());
    let policy = bench_harl(&cluster);
    group.bench_function("analysis_phase", |b| {
        b.iter(|| black_box(policy.plan(&SimContext::new(), &trace, 64 << 20)))
    });
    group.finish();
}

criterion_group!(benches, fig7);
criterion_main!(benches);
