//! Multiple applications sharing one hybrid PFS — the paper's Sec. IV-D
//! discussion: *"While HARL is currently implemented for a single
//! application, it can also apply to multiple applications with varying
//! I/O workloads … we may apply our method on different workloads
//! separately to find their individual data access patterns."*
//!
//! [`run_shared`] places each application's RST on its own logical file
//! (physical file ids are offset per app) and runs all rank programs
//! concurrently on one cluster, so the applications contend for the same
//! servers, NICs and MDS. Per-app throughput is reported separately.
//!
//! Restriction: collective I/O synchronises over *all* clients of a
//! simulation, so shared runs accept independent-I/O workloads only
//! (asserted); that matches the IOR-style scenario the paper discusses.

use crate::collective::CollectiveConfig;
use crate::logical::{LogicalStep, Workload};
use crate::placement::place;
use crate::runtime::translate_workload;
use harl_core::RegionStripeTable;
use harl_pfs::{simulate, ClusterConfig, FileLayout, SimReport};
use harl_simcore::{throughput_mib_s, SimContext, SimNanos};
use serde::{Deserialize, Serialize};

/// Per-application outcome of a shared run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppStats {
    /// Bytes the app moved (read + written).
    pub bytes: u64,
    /// When the app's last rank finished.
    pub finish: SimNanos,
    /// The app's own throughput: its bytes over its finish time.
    pub throughput_mib_s: f64,
}

/// Outcome of a multi-application shared run.
#[derive(Debug, Clone)]
pub struct MultiAppReport {
    /// The combined simulation report (cluster-wide view).
    pub combined: SimReport,
    /// Per-application statistics, in input order.
    pub per_app: Vec<AppStats>,
}

/// Run several `(layout, workload)` pairs concurrently on one cluster.
///
/// # Panics
/// Panics if any workload contains collective steps (see module docs) or
/// the input is empty.
pub fn run_shared(
    ctx: &SimContext,
    cluster: &ClusterConfig,
    apps: &[(&RegionStripeTable, &Workload)],
    ccfg: &CollectiveConfig,
) -> MultiAppReport {
    assert!(!apps.is_empty(), "no applications to run");
    for (i, (_, w)) in apps.iter().enumerate() {
        let has_collectives = w.ranks.iter().any(|r| {
            r.steps
                .iter()
                .any(|s| matches!(s, LogicalStep::Collective(_)))
        });
        assert!(
            !has_collectives,
            "shared runs support independent I/O only (app {i} uses collectives)"
        );
    }

    let mut files: Vec<FileLayout> = Vec::new();
    let mut programs = Vec::new();
    let mut app_client_ranges = Vec::with_capacity(apps.len());
    for (rst, workload) in apps {
        let placed = place(cluster, rst, files.len());
        let mut app_programs = translate_workload(ctx, cluster, &placed, workload, ccfg);
        files.extend(placed.files);
        let start = programs.len();
        programs.append(&mut app_programs);
        app_client_ranges.push(start..programs.len());
    }

    let combined = simulate(ctx, cluster, &files, &programs);

    let per_app = apps
        .iter()
        .zip(&app_client_ranges)
        .map(|((_, workload), range)| {
            let (read, written) = workload.total_bytes();
            let bytes = read + written;
            let finish = combined.client_finish[range.clone()]
                .iter()
                .copied()
                .max()
                .unwrap_or(SimNanos::ZERO);
            AppStats {
                bytes,
                finish,
                throughput_mib_s: throughput_mib_s(bytes, finish),
            }
        })
        .collect();

    MultiAppReport { combined, per_app }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::LogicalRequest;
    use harl_devices::OpKind;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn ior_like(procs: usize, request: u64, total: u64, op: OpKind) -> Workload {
        let mut w = Workload::with_ranks(procs);
        let per_rank = total / procs as u64 / request;
        for (r, prog) in w.ranks.iter_mut().enumerate() {
            let base = r as u64 * (total / procs as u64);
            for i in 0..per_rank {
                prog.push_request(LogicalRequest {
                    op,
                    offset: base + i * request,
                    size: request,
                });
            }
        }
        w
    }

    #[test]
    fn two_apps_share_the_cluster() {
        let cluster = ClusterConfig::paper_default();
        let a = ior_like(4, 512 * KB, 32 * MB, OpKind::Read);
        let b = ior_like(4, 128 * KB, 16 * MB, OpKind::Read);
        let rst_a = RegionStripeTable::uniform(32 * MB, vec![32 * KB, 160 * KB]);
        let rst_b = RegionStripeTable::uniform(16 * MB, vec![0, 64 * KB]);
        let report = run_shared(
            &SimContext::new(),
            &cluster,
            &[(&rst_a, &a), (&rst_b, &b)],
            &CollectiveConfig::default(),
        );
        assert_eq!(report.per_app.len(), 2);
        assert_eq!(report.per_app[0].bytes, 32 * MB);
        assert_eq!(report.per_app[1].bytes, 16 * MB);
        assert_eq!(report.combined.bytes_read, 48 * MB);
        assert!(report.per_app.iter().all(|a| a.throughput_mib_s > 0.0));
    }

    #[test]
    fn contention_slows_both_apps() {
        let cluster = ClusterConfig::paper_default();
        let a = ior_like(8, 512 * KB, 64 * MB, OpKind::Read);
        let rst = RegionStripeTable::uniform(64 * MB, vec![64 * KB, 64 * KB]);
        let ccfg = CollectiveConfig::default();
        let alone = run_shared(&SimContext::new(), &cluster, &[(&rst, &a)], &ccfg);
        let shared = run_shared(
            &SimContext::new(),
            &cluster,
            &[(&rst, &a), (&rst, &a)],
            &ccfg,
        );
        assert!(
            shared.per_app[0].finish > alone.per_app[0].finish,
            "competition must slow the app: {} vs {}",
            shared.per_app[0].finish,
            alone.per_app[0].finish
        );
    }

    #[test]
    fn separate_files_do_not_alias() {
        // Both apps write their whole files; total device bytes must be the
        // sum (no accidental sharing of physical file ids).
        let cluster = ClusterConfig::paper_default();
        let a = ior_like(2, 256 * KB, 8 * MB, OpKind::Write);
        let b = ior_like(2, 256 * KB, 8 * MB, OpKind::Write);
        let rst = RegionStripeTable::uniform(8 * MB, vec![16 * KB, 64 * KB]);
        let report = run_shared(
            &SimContext::new(),
            &cluster,
            &[(&rst, &a), (&rst, &b)],
            &CollectiveConfig::default(),
        );
        let device_bytes: u64 = report.combined.servers.iter().map(|s| s.bytes).sum();
        assert_eq!(device_bytes, 16 * MB);
    }

    #[test]
    #[should_panic(expected = "independent I/O only")]
    fn collectives_rejected() {
        let cluster = ClusterConfig::paper_default();
        let mut w = Workload::with_ranks(2);
        w.ranks[0].push_collective(vec![LogicalRequest::write(0, 1024)]);
        w.ranks[1].push_collective(vec![]);
        let rst = RegionStripeTable::uniform(MB, vec![4 * KB, 8 * KB]);
        run_shared(
            &SimContext::new(),
            &cluster,
            &[(&rst, &w)],
            &CollectiveConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "no applications")]
    fn empty_input_rejected() {
        run_shared(
            &SimContext::new(),
            &ClusterConfig::paper_default(),
            &[],
            &CollectiveConfig::default(),
        );
    }
}
