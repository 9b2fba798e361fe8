//! Property tests: Algorithm 2's result is the true grid minimum, for
//! arbitrary small workloads (brute-force verified), and the region
//! division invariants hold for adversarial inputs.

mod oracle;

use harl_core::{
    coordinate_descent, optimize_region, server_loads, MultiProfileModel, OptimizerConfig,
    RegionRequests, TraceRecord,
};
use harl_devices::OpKind;
use harl_pfs::ClusterConfig;
use harl_simcore::{SimContext, SimNanos};
use oracle::{server_loads_scan, total_cost};
use proptest::prelude::*;

fn model() -> MultiProfileModel {
    MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
}

prop_compose! {
    fn small_workload()(
        sizes in prop::collection::vec(1u64..64, 1..12),
        op_read in any::<bool>(),
    ) -> Vec<TraceRecord> {
        let op = if op_read { OpKind::Read } else { OpKind::Write };
        let mut offset = 0;
        sizes.iter().enumerate().map(|(i, &s)| {
            let size = s * 8192;
            let r = TraceRecord {
                rank: 0, fd: 0, op, offset, size,
                timestamp: SimNanos::from_nanos(i as u64),
            };
            offset += size;
            r
        }).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// optimize_region returns the exact minimum of the candidate grid.
    #[test]
    fn optimizer_is_grid_optimal(records in small_workload()) {
        let m = model();
        let avg = (records.iter().map(|r| r.size).sum::<u64>()
            / records.len() as u64).max(1);
        let cfg = OptimizerConfig {
            step: 32 * 1024,
            max_grid_points: 64,
            max_requests_per_eval: records.len(),
            threads: 1,
        };
        let reqs = RegionRequests::new(&records, 0);
        let choice = optimize_region(&SimContext::new(), &m, &reqs, avg, &cfg, 0);

        // Brute force over the same candidate set, with the plain formula.
        let sample: Vec<(u64, u64, OpKind)> =
            records.iter().map(|r| (r.offset, r.size, r.op)).collect();
        let step = cfg.effective_step(avg);
        let r_bar = avg.max(step).div_ceil(step) * step;
        let mut h = 0u64;
        while h <= r_bar {
            let mut s = h + step;
            while s <= r_bar + step {
                let cost = total_cost(&m, &sample, &[h, s]);
                prop_assert!(
                    cost >= choice.cost - 1e-12,
                    "candidate ({h}, {s}) cost {cost} beats chosen {:?} cost {}",
                    choice.widths, choice.cost
                );
                s += step;
            }
            h += step;
        }
        // The single-HServer extreme too.
        prop_assert!(total_cost(&m, &sample, &[r_bar, 0]) >= choice.cost - 1e-12);
    }

    /// On a two-class cluster, the K-class coordinate descent and the
    /// paper's exhaustive K=2 grid agree: for arbitrary small workloads
    /// the descent cost lands within 5% of the grid minimum (it can stop
    /// at a nearby local optimum but never drifts).
    #[test]
    fn descent_agrees_with_grid_on_two_classes(records in small_workload()) {
        let m = model();
        let avg = (records.iter().map(|r| r.size).sum::<u64>()
            / records.len() as u64).max(1);
        let cfg = OptimizerConfig {
            step: 32 * 1024,
            max_grid_points: 64,
            max_requests_per_eval: records.len(),
            threads: 1,
        };
        let reqs = RegionRequests::new(&records, 0);
        let choice = optimize_region(&SimContext::new(), &m, &reqs, avg, &cfg, 0);

        let sample: Vec<(u64, u64, OpKind)> =
            records.iter().map(|r| (r.offset, r.size, r.op)).collect();
        let (descent, _) = coordinate_descent(&m, cfg.effective_step(avg), &sample, avg);
        let (widths, cost) = (descent.widths, descent.cost);
        prop_assert_eq!(widths.len(), 2);
        prop_assert!(
            cost <= choice.cost * 1.05 + 1e-9,
            "descent cost {cost} is >5% above grid minimum {g} (widths {widths:?} vs {:?})",
            choice.widths, g = choice.cost
        );
        prop_assert!(
            choice.cost <= cost * 1.05 + 1e-9,
            "grid minimum {g} is >5% above descent cost {cost} — descent escaped the grid \
             candidate set (widths {widths:?} vs {:?})",
            choice.widths, g = choice.cost
        );
    }

    /// Per-request loads shrink (weakly) in both s_m and m when the
    /// request shrinks from the right.
    #[test]
    fn loads_monotone_in_size(
        h in 1u64..64, s in 1u64..64,
        offset in 0u64..(1 << 28),
        size in 2u64..(1 << 22),
    ) {
        let (h, s) = (h * 4096, s * 4096);
        let big = server_loads(offset, size, 6, h, 2, s);
        let small = server_loads(offset, size / 2, 6, h, 2, s);
        prop_assert!(small.s_m <= big.s_m);
        prop_assert!(small.s_n <= big.s_n);
        prop_assert!(small.m <= big.m);
        prop_assert!(small.n <= big.n);
    }

    /// The O(1) closed form agrees exactly with the per-server scan for
    /// arbitrary geometry, including one-sided layouts (h == 0 / s == 0).
    #[test]
    fn closed_form_matches_scan(
        m_servers in 1usize..12, n_servers in 1usize..8,
        h in 0u64..48, s in 0u64..48,
        offset in 0u64..(1 << 28),
        size in 0u64..(1 << 22),
    ) {
        let (mut h, s) = (h * 4096, s * 4096);
        if m_servers as u64 * h + n_servers as u64 * s == 0 {
            h = 4096; // zero-capacity layouts panic by contract; skip them
        }
        let fast = server_loads(offset, size, m_servers, h, n_servers, s);
        let scan = server_loads_scan(offset, size, m_servers, h, n_servers, s);
        prop_assert_eq!(fast, scan);
    }

    /// Same agreement when both endpoints sit exactly on stripe, class-span
    /// or group boundaries — the degenerate fragments of the case analysis.
    #[test]
    fn closed_form_matches_scan_on_boundaries(
        m_servers in 1usize..8, n_servers in 1usize..4,
        h in 1u64..16, s in 1u64..16,
        start_stripe in 0u64..40,
        len_stripes in 0u64..40,
    ) {
        let (h, s) = (h * 4096, s * 4096);
        let group = m_servers as u64 * h + n_servers as u64 * s;
        // Walk the endpoints along every stripe edge of a few groups,
        // plus the exact class-span and group edges.
        let mut edges = vec![0u64];
        for g in 0..3u64 {
            let base = g * group;
            for i in 0..=m_servers as u64 {
                edges.push(base + i * h);
            }
            for j in 0..=n_servers as u64 {
                edges.push(base + m_servers as u64 * h + j * s);
            }
        }
        let offset = edges[(start_stripe as usize) % edges.len()];
        let size = edges[(len_stripes as usize) % edges.len()];
        let fast = server_loads(offset, size, m_servers, h, n_servers, s);
        let scan = server_loads_scan(offset, size, m_servers, h, n_servers, s);
        prop_assert_eq!(fast, scan);
    }
}
