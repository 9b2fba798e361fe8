//! SServer space balancing — the paper's Sec. IV-D discussion.
//!
//! HARL deliberately over-weights SServers, so a small SSD pool can fill
//! up. The paper's answer: *"we could use a data migration method to
//! balance the storage space by moving data from SServers to HServers, so
//! the remaining available space on SServers can be guaranteed for new
//! incoming requests."*
//!
//! [`SpaceBalancer`] implements that: given a planned RST and the SServer
//! capacity budget, it projects per-class space usage and, if SServers
//! would overflow, re-plans the *least-hurt* regions under a constrained
//! optimizer (the same Algorithm 2 grid, restricted to candidates whose
//! SServer share fits) — regions are picked in order of smallest predicted
//! cost increase per byte reclaimed, which is a migration plan in the
//! "move data from SServers to HServers" sense. Balancing is inherently
//! two-tier: it needs a `K = 2` model, class 0 the HServers and class 1
//! the SServers.

use crate::model::{CostKernel, MultiProfileModel};
use crate::optimizer::{candidates, pick_better, OptimizerConfig, RegionRequests, StripeChoice};
use crate::rst::{RegionStripeTable, RstEntry};
use crate::trace::TraceRecord;
use serde::{Deserialize, Serialize};

/// Result of a balancing pass.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BalanceOutcome {
    /// The adjusted table.
    pub rst: RegionStripeTable,
    /// Projected SServer bytes before balancing.
    pub sserver_bytes_before: u64,
    /// Projected SServer bytes after balancing.
    pub sserver_bytes_after: u64,
    /// Regions whose stripes were adjusted.
    pub regions_adjusted: usize,
    /// Relative predicted cost increase across adjusted regions (0.0 when
    /// nothing moved).
    pub cost_increase_frac: f64,
}

/// The `[M, N]` server counts of a two-class model.
///
/// # Panics
/// Panics unless the model has exactly two classes.
#[expect(
    clippy::panic,
    reason = "space balancing documents its two-class precondition (# Panics): it moves bytes \
              from the SServer class to the HServer class, which no other class count defines"
)]
fn server_counts(model: &MultiProfileModel) -> [usize; 2] {
    match model.classes.as_slice() {
        [h, s] => [h.count, s.count],
        _ => panic!(
            "space balancing needs a two-class model, got {} classes",
            model.class_count()
        ),
    }
}

/// SServer share of one region's bytes under widths `[h, s]` on an
/// `[M, N]` cluster.
fn sserver_fraction([m, n]: [usize; 2], [h, s]: [u64; 2]) -> f64 {
    let total = m as u64 * h + n as u64 * s;
    if total == 0 {
        return 0.0;
    }
    (n as u64 * s) as f64 / total as f64
}

/// Projected SServer bytes of a whole RST.
///
/// # Panics
/// Panics unless `model` has exactly two classes.
pub fn projected_sserver_bytes(model: &MultiProfileModel, rst: &RegionStripeTable) -> u64 {
    let counts = server_counts(model);
    rst.entries()
        .iter()
        .map(|e| (e.len as f64 * sserver_fraction(counts, [e.width(0), e.width(1)])) as u64)
        .sum()
}

/// The space balancer.
#[derive(Debug, Clone)]
pub struct SpaceBalancer {
    /// Two-class platform model used for re-planning.
    pub model: MultiProfileModel,
    /// Total bytes the SServer pool may hold for this file.
    pub sserver_capacity: u64,
    /// Optimizer settings for the constrained re-plan.
    pub optimizer: OptimizerConfig,
}

impl SpaceBalancer {
    /// Best Algorithm 2 grid candidate for a region whose SServer share
    /// must not exceed `max_frac`. Returns `None` if no candidate satisfies
    /// the bound (cannot happen for `max_frac >= 0` when M > 0 thanks to
    /// the `[R̄, 0]` extreme).
    fn constrained_choice(
        &self,
        kernel: &CostKernel,
        requests: &RegionRequests<'_>,
        avg: u64,
        max_frac: f64,
    ) -> Option<StripeChoice> {
        let counts = server_counts(&self.model);
        let step = self.optimizer.effective_step(avg.max(1));
        candidates(avg, step, counts)
            .into_iter()
            .filter(|&widths| sserver_fraction(counts, widths) <= max_frac + 1e-12)
            .map(|widths| StripeChoice {
                widths,
                cost: requests.cost_under(kernel, &widths, self.optimizer.max_requests_per_eval),
            })
            .reduce(pick_better)
    }

    /// Balance `rst` so projected SServer usage fits the capacity.
    ///
    /// `sorted` is the offset-sorted trace the plan was built from (used to
    /// re-cost regions). Regions are re-planned greedily in order of least
    /// cost-increase per SServer byte reclaimed until the budget holds.
    ///
    /// # Panics
    /// Panics unless the model has exactly two classes.
    pub fn balance(&self, rst: &RegionStripeTable, sorted: &[TraceRecord]) -> BalanceOutcome {
        let counts = server_counts(&self.model);
        let before = projected_sserver_bytes(&self.model, rst);
        if before <= self.sserver_capacity {
            return BalanceOutcome {
                rst: rst.clone(),
                sserver_bytes_before: before,
                sserver_bytes_after: before,
                regions_adjusted: 0,
                cost_increase_frac: 0.0,
            };
        }

        // Iteratively re-plan the region with the best reclaim-per-cost
        // under a halved SServer share bound until the budget holds or
        // nothing more can be reclaimed.
        let kernel = CostKernel::new(&self.model);
        let mut entries: Vec<RstEntry> = rst.entries().to_vec();
        let mut adjusted = vec![false; entries.len()];
        let mut old_cost_total = crate::fold::OrderedSum::new();
        let mut new_cost_total = crate::fold::OrderedSum::new();
        let mut current = before;

        // Precompute per-region request slices.
        let slices: Vec<(usize, usize)> = entries
            .iter()
            .map(|e| {
                let lo = sorted.partition_point(|r| r.offset < e.offset);
                let hi = sorted.partition_point(|r| r.offset < e.end());
                (lo, hi)
            })
            .collect();

        while current > self.sserver_capacity {
            let mut best_idx: Option<usize> = None;
            let mut best_score = f64::NEG_INFINITY;
            let mut best_plan: Option<(StripeChoice, f64, u64)> = None;
            for (i, e) in entries.iter().enumerate() {
                if adjusted[i] {
                    continue;
                }
                let cur_frac = sserver_fraction(counts, [e.width(0), e.width(1)]);
                if cur_frac == 0.0 {
                    continue;
                }
                let (lo, hi) = slices[i];
                let reqs = RegionRequests::new(&sorted[lo..hi], e.offset);
                let avg = if hi > lo {
                    (sorted[lo..hi].iter().map(|r| r.size).sum::<u64>() / (hi - lo) as u64).max(1)
                } else {
                    e.width(0).max(e.width(1))
                };
                let old_cost =
                    reqs.cost_under(&kernel, e.widths(), self.optimizer.max_requests_per_eval);
                let Some(plan) = self.constrained_choice(&kernel, &reqs, avg, cur_frac / 2.0)
                else {
                    continue;
                };
                let new_frac = sserver_fraction(counts, plan.widths);
                let reclaimed = ((cur_frac - new_frac).max(0.0) * e.len as f64) as u64;
                if reclaimed == 0 {
                    continue;
                }
                let cost_delta = (plan.cost - old_cost).max(0.0);
                let score = reclaimed as f64 / (cost_delta + 1e-12);
                if score > best_score {
                    best_score = score;
                    best_idx = Some(i);
                    best_plan = Some((plan, old_cost, reclaimed));
                }
            }
            let (Some(i), Some((plan, old_cost, reclaimed))) = (best_idx, best_plan) else {
                break; // nothing left to reclaim
            };
            entries[i] = RstEntry::new(entries[i].offset, entries[i].len, plan.widths.to_vec());
            adjusted[i] = true;
            old_cost_total.add(old_cost);
            new_cost_total.add(plan.cost);
            current = current.saturating_sub(reclaimed);
        }

        let regions_adjusted = adjusted.iter().filter(|&&a| a).count();
        let mut new_rst = RegionStripeTable::new(entries);
        new_rst.merge_adjacent();
        let after = projected_sserver_bytes(&self.model, &new_rst);
        BalanceOutcome {
            rst: new_rst,
            sserver_bytes_before: before,
            sserver_bytes_after: after,
            regions_adjusted,
            cost_increase_frac: if old_cost_total.value() > 0.0 {
                (new_cost_total.value() - old_cost_total.value()) / old_cost_total.value()
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_devices::OpKind;
    use harl_pfs::ClusterConfig;
    use harl_simcore::SimNanos;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    fn trace(n: u64, size: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                rank: 0,
                fd: 0,
                op: OpKind::Read,
                offset: i * size,
                size,
                timestamp: SimNanos::ZERO,
            })
            .collect()
    }

    fn ssd_heavy_rst(file_size: u64) -> RegionStripeTable {
        RegionStripeTable::uniform(file_size, vec![32 * KB, 160 * KB])
    }

    #[test]
    fn fraction_math() {
        assert!((sserver_fraction([6, 2], [32 * KB, 160 * KB]) - 320.0 / 512.0).abs() < 1e-12);
        assert_eq!(sserver_fraction([6, 2], [64 * KB, 0]), 0.0);
        assert_eq!(sserver_fraction([0, 2], [0, 64 * KB]), 1.0);
    }

    #[test]
    fn projection_matches_fraction() {
        let rst = ssd_heavy_rst(512 * MB);
        let bytes = projected_sserver_bytes(&model(), &rst);
        let expect = (512.0 * MB as f64 * 320.0 / 512.0) as u64;
        assert_eq!(bytes, expect);
    }

    #[test]
    fn within_budget_is_untouched() {
        let rst = ssd_heavy_rst(512 * MB);
        let balancer = SpaceBalancer {
            model: model(),
            sserver_capacity: u64::MAX,
            optimizer: OptimizerConfig {
                threads: 1,
                ..OptimizerConfig::default()
            },
        };
        let out = balancer.balance(&rst, &trace(64, 512 * KB));
        assert_eq!(out.regions_adjusted, 0);
        assert_eq!(out.rst, rst);
        assert_eq!(out.cost_increase_frac, 0.0);
    }

    #[test]
    fn over_budget_reclaims_space() {
        let rst = ssd_heavy_rst(512 * MB);
        let m = model();
        let before = projected_sserver_bytes(&m, &rst);
        let budget = before / 2;
        let balancer = SpaceBalancer {
            model: m.clone(),
            sserver_capacity: budget,
            optimizer: OptimizerConfig {
                threads: 1,
                max_requests_per_eval: 64,
                ..OptimizerConfig::default()
            },
        };
        let out = balancer.balance(&rst, &trace(64, 512 * KB));
        assert!(out.regions_adjusted >= 1);
        assert!(
            out.sserver_bytes_after < before,
            "no space reclaimed: {} -> {}",
            out.sserver_bytes_before,
            out.sserver_bytes_after
        );
        // Balancing trades space for cost: predicted cost must not decrease
        // (else the original plan was not optimal).
        assert!(out.cost_increase_frac >= 0.0);
    }

    #[test]
    fn multi_region_balancing_adjusts_some_regions() {
        let m = model();
        let mut records = trace(32, 2 * MB);
        let boundary = 32 * 2 * MB;
        records.extend((0..32u64).map(|i| TraceRecord {
            rank: 0,
            fd: 0,
            op: OpKind::Read,
            offset: boundary + i * 128 * KB,
            size: 128 * KB,
            timestamp: SimNanos::ZERO,
        }));
        let rst = RegionStripeTable::new(vec![
            RstEntry::new(0, boundary, vec![64 * KB, 832 * KB]),
            RstEntry::new(boundary, 32 * 128 * KB, vec![0, 64 * KB]),
        ]);
        let before = projected_sserver_bytes(&m, &rst);
        let balancer = SpaceBalancer {
            model: m,
            sserver_capacity: before * 3 / 4,
            optimizer: OptimizerConfig {
                threads: 1,
                max_requests_per_eval: 32,
                ..OptimizerConfig::default()
            },
        };
        let out = balancer.balance(&rst, &records);
        assert!(out.sserver_bytes_after < before);
        assert!(out.regions_adjusted >= 1);
    }

    #[test]
    fn impossible_budget_degrades_gracefully() {
        // Capacity zero: balancer pushes as much as it can toward HServers
        // and stops rather than looping forever.
        let rst = ssd_heavy_rst(64 * MB);
        let balancer = SpaceBalancer {
            model: model(),
            sserver_capacity: 0,
            optimizer: OptimizerConfig {
                threads: 1,
                max_requests_per_eval: 16,
                ..OptimizerConfig::default()
            },
        };
        let out = balancer.balance(&rst, &trace(16, 512 * KB));
        assert!(out.sserver_bytes_after <= out.sserver_bytes_before);
    }

    #[test]
    #[should_panic(expected = "two-class model")]
    fn three_class_model_is_rejected() {
        let cluster =
            ClusterConfig::hybrid(4, 2).with_extra_class(2, harl_devices::nvme_2020_preset());
        let rst = RegionStripeTable::uniform(64 * MB, vec![32 * KB, 64 * KB, 128 * KB]);
        projected_sserver_bytes(&MultiProfileModel::from_cluster(&cluster), &rst);
    }
}
