//! Shared helpers for the criterion benches.
//!
//! The criterion targets measure the *code* (planning cost, simulation
//! throughput) on miniature instances; the actual paper figures come from
//! the `experiments` binary, which runs the full-size configurations once
//! and prints the tables. Keeping the two separate means `cargo bench`
//! finishes in minutes while still covering every figure's code path.

use harl_core::{HarlPolicy, LayoutPolicy, MultiProfileModel, OptimizerConfig, RegionStripeTable};
use harl_devices::{CalibrationConfig, OpKind};
use harl_middleware::{collect_trace_lowered, run_workload, CollectiveConfig, Workload};
use harl_pfs::ClusterConfig;
use harl_simcore::SimContext;
use harl_workloads::{AccessOrder, IorConfig};

/// Miniature IOR file size used by the benches.
pub const BENCH_FILE: u64 = 64 << 20;

/// A miniature IOR workload.
pub fn bench_ior(op: OpKind, processes: usize, request_size: u64) -> Workload {
    IorConfig {
        processes,
        request_size,
        file_size: BENCH_FILE,
        op,
        order: AccessOrder::Random,
        seed: 0xBE,
    }
    .build()
}

/// A calibrated HARL policy with a small optimizer sample.
pub fn bench_harl(cluster: &ClusterConfig) -> HarlPolicy {
    let model = MultiProfileModel::from_cluster_calibrated(cluster, &CalibrationConfig::default());
    let mut policy = HarlPolicy::new(model);
    policy.optimizer = OptimizerConfig {
        max_requests_per_eval: 256,
        ..OptimizerConfig::default()
    };
    policy
}

/// Plan once (outside the measured loop) so run-only benches measure the
/// simulator, not the optimizer.
pub fn plan_for(cluster: &ClusterConfig, workload: &Workload) -> RegionStripeTable {
    let trace = collect_trace_lowered(cluster, workload, &CollectiveConfig::default());
    bench_harl(cluster).plan(&SimContext::new(), &trace, workload.extent().max(1))
}

/// One full simulated run; returns throughput so criterion cannot
/// dead-code-eliminate it.
pub fn run_once(cluster: &ClusterConfig, rst: &RegionStripeTable, workload: &Workload) -> f64 {
    run_workload(
        &SimContext::new(),
        cluster,
        rst,
        workload,
        &CollectiveConfig::default(),
    )
    .throughput_mib_s()
}
