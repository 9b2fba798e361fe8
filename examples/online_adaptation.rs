//! Space-aware re-layout — the paper's Sec. IV-D discussion and future
//! work: HARL loads SServers heavily, so when the SSD pool is small, data
//! must migrate back toward HServers with the least performance loss.
//!
//! The flow: trace the first run, plan with HARL, notice the plan exceeds
//! the SServer capacity budget, balance it with [`SpaceBalancer`], and
//! replay the workload under both plans to measure the real cost of the
//! space constraint.
//!
//! ```sh
//! cargo run --release --example online_adaptation
//! ```

use harl_repro::harl::projected_sserver_bytes;
use harl_repro::prelude::*;

fn main() {
    let cluster = ClusterConfig::paper_default();
    let ccfg = CollectiveConfig::default();
    let workload = IorConfig::paper_default(OpKind::Read, GIB).build();
    let file_size = 16 * GIB; // the file HARL lays out is much bigger than the SSD budget

    // First run: trace and plan.
    let trace = collect_trace_lowered(&cluster, &workload, &ccfg);
    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
    let harl = HarlPolicy::new(model.clone());
    let rst = harl.plan(&SimContext::new(), &trace, file_size);
    let ssd_bytes = projected_sserver_bytes(&model, &rst);
    println!(
        "HARL plan: (h, s) = ({}, {}), projected SServer usage {} of a {} file",
        ByteSize(rst.entries()[0].width(0)),
        ByteSize(rst.entries()[0].width(1)),
        ByteSize(ssd_bytes),
        ByteSize(file_size)
    );

    // The SSD pool only has room for half of that.
    let budget = ssd_bytes / 2;
    let balancer = SpaceBalancer {
        model: model.clone(),
        sserver_capacity: budget,
        optimizer: OptimizerConfig::default(),
    };
    let sorted = trace.sorted_by_offset();
    let outcome = balancer.balance(&rst, &sorted);
    println!(
        "balanced to {} (budget {}): {} region(s) adjusted, predicted cost {:+.1}%",
        ByteSize(outcome.sserver_bytes_after),
        ByteSize(budget),
        outcome.regions_adjusted,
        100.0 * outcome.cost_increase_frac
    );
    for e in outcome.rst.entries() {
        println!(
            "  region [{}, {}): h = {}, s = {}",
            ByteSize(e.offset),
            ByteSize(e.end()),
            ByteSize(e.width(0)),
            ByteSize(e.width(1))
        );
    }

    // Replay under both plans: how much throughput does the space
    // constraint actually cost?
    let unconstrained = run_workload(&SimContext::new(), &cluster, &rst, &workload, &ccfg);
    let constrained = run_workload(&SimContext::new(), &cluster, &outcome.rst, &workload, &ccfg);
    let (u, c) = (
        unconstrained.throughput_mib_s(),
        constrained.throughput_mib_s(),
    );
    println!("\nunconstrained HARL : {u:.1} MiB/s");
    println!(
        "space-balanced     : {c:.1} MiB/s ({:+.1}%)",
        100.0 * (c - u) / u
    );
    assert!(outcome.sserver_bytes_after <= outcome.sserver_bytes_before);
}
