//! Fig. 1 benchmark: the motivation runs — per-server imbalance under the
//! 64 KiB default (a) and the request-size x stripe-size sweep (b).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harl_bench::support::{bench_ior, run_once};
use harl_core::RegionStripeTable;
use harl_devices::OpKind;
use harl_pfs::ClusterConfig;
use std::hint::black_box;

fn fig1(c: &mut Criterion) {
    let cluster = ClusterConfig::paper_default();
    let mut group = c.benchmark_group("fig1");
    group.sample_size(10);

    // (a) default layout, 512 KiB requests.
    let w = bench_ior(OpKind::Read, 16, 512 * 1024);
    let rst = RegionStripeTable::uniform(64 << 20, vec![64 * 1024, 64 * 1024]);
    group.bench_function("a_default_64K", |b| {
        b.iter(|| black_box(run_once(&cluster, &rst, &w)))
    });

    // (b) one representative cell per sweep axis.
    for (req_k, stripe_k) in [(128u64, 16u64), (512, 64), (2048, 2048)] {
        let w = bench_ior(OpKind::Read, 16, req_k * 1024);
        let rst = RegionStripeTable::uniform(64 << 20, vec![stripe_k * 1024, stripe_k * 1024]);
        group.bench_with_input(
            BenchmarkId::new("b_sweep", format!("req{req_k}K_stripe{stripe_k}K")),
            &(w, rst),
            |b, (w, rst)| b.iter(|| black_box(run_once(&cluster, rst, w))),
        );
    }
    group.finish();
}

criterion_group!(benches, fig1);
criterion_main!(benches);
