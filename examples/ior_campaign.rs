//! A benchmarking campaign over layouts and request sizes — the scenario
//! from the paper's motivation: the same cluster serves applications with
//! very different request sizes, and no fixed stripe suits them all.
//!
//! ```sh
//! cargo run --release --example ior_campaign
//! ```

use harl_repro::prelude::*;

fn main() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    let file_size = GIB;
    let request_sizes = [128 * KIB, 512 * KIB, 1024 * KIB, 2048 * KIB];
    let fixed_stripes = [16 * KIB, 64 * KIB, 256 * KIB, 1024 * KIB];

    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());

    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>10}  HARL (h, s)",
        "req size", "16K", "64K", "256K", "1M", "HARL"
    );
    for &rs in &request_sizes {
        let workload = IorConfig {
            processes: 16,
            request_size: rs,
            file_size,
            op: OpKind::Read,
            order: AccessOrder::Random,
            seed: 7,
        }
        .build();

        let mut row = format!("{:<10}", ByteSize(rs).to_string());
        for &stripe in &fixed_stripes {
            let (_, report) = trace_plan_run(
                &SimContext::new(),
                &cluster,
                &FixedPolicy::new(stripe),
                &workload,
                &ccfg,
            );
            row.push_str(&format!(" {:>8.0}", report.throughput_mib_s()));
        }
        let harl = HarlPolicy::new(model.clone());
        let (rst, report) = trace_plan_run(&SimContext::new(), &cluster, &harl, &workload, &ccfg);
        let e = &rst.entries()[0];
        row.push_str(&format!(
            " {:>10.0}  ({}, {})",
            report.throughput_mib_s(),
            ByteSize(e.width(0)),
            ByteSize(e.width(1))
        ));
        println!("{row}");
    }
    println!("\n(throughput in MiB/s; HARL adapts the stripe pair per request size,");
    println!(" including SServer-only placement for small requests)");
}
