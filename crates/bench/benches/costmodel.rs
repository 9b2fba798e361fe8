//! Component bench: the Sec. III-D cost model evaluation (the inner loop
//! of Algorithm 2 — millions of calls per plan).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use harl_core::{server_loads, CostKernel, MultiProfileModel};
use harl_devices::OpKind;
use harl_pfs::ClusterConfig;
use std::hint::black_box;

fn costmodel(c: &mut Criterion) {
    let kernel = CostKernel::new(&MultiProfileModel::from_cluster(
        &ClusterConfig::paper_default(),
    ));
    let mut group = c.benchmark_group("costmodel");

    group.throughput(Throughput::Elements(1));
    for (h_k, s_k) in [(32u64, 160u64), (0, 64), (2048, 2048)] {
        // The searches' form: widths placed once, then costed per request.
        let spans = kernel.spans(&[h_k * 1024, s_k * 1024]);
        group.bench_with_input(
            BenchmarkId::new("cost", format!("{h_k}K_{s_k}K")),
            &spans,
            |b, spans| {
                let mut offset = 0u64;
                b.iter(|| {
                    offset = (offset + 512 * 1024) % (1 << 30);
                    black_box(kernel.cost(spans, offset, 512 * 1024, OpKind::Read))
                })
            },
        );
    }

    group.bench_function("server_loads", |b| {
        let mut offset = 0u64;
        b.iter(|| {
            offset = (offset + 512 * 1024) % (1 << 30);
            black_box(server_loads(
                offset,
                512 * 1024,
                6,
                32 * 1024,
                2,
                160 * 1024,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, costmodel);
criterion_main!(benches);
