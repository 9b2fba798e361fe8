//! K-profile extension — the paper's stated future work: *"we would like
//! to extend our cost model to accommodate more than two server
//! performance profiles."*
//!
//! The cost model generalises directly (see [`crate::model`]): a request's
//! cost is still `T_X + T_S + T_T`, each term the maximum over the K
//! classes. What does not generalise is Algorithm 2's 2-D grid — K nested
//! loops are exponential — so for `K ≥ 3` [`crate::optimize_region`] runs
//! [`coordinate_descent`]: optimise one class's stripe width at a time (a
//! 1-D scan identical in spirit to the paper's loops) and iterate to a
//! fixed point. On two-class inputs it recovers the exhaustive grid's
//! optima to within a few percent (see the tests), and the fixed point is
//! deterministic.
//!
//! Each candidate is scored like a grid candidate (see [`crate::optimizer`]):
//! the sample is split once into strided runs, each run's offset residues
//! are costed once per cycle and replayed in sample order, and a candidate
//! is dropped once its running sum strictly exceeds the incumbent's. Every
//! descent result is bit-identical to scoring each candidate with a plain
//! per-request sum (`crates/harl/tests/descent_props.rs` holds that oracle).

use crate::fold::OrderedSum;
use crate::model::{ClassSpans, CostKernel, MultiProfileModel};
use crate::optimizer::{strided_runs, LayoutChoice, StridedRun};
use harl_devices::OpKind;

/// Full descent sweeps before [`coordinate_descent`] stops at the current
/// point.
const MAX_SWEEPS: usize = 16;

/// Coordinate descent over per-class widths for a region's request
/// sample (offsets region-relative) with average request size `avg`, on
/// grid `step` (already raised to the effective step, see
/// [`crate::OptimizerConfig::effective_step`]) — the `K ≥ 3` arm of
/// [`crate::optimize_region`].
///
/// Returns the chosen widths with their cost, and how many candidates were
/// costed (pruned ones included). Deterministic: descent runs from several
/// fixed starting points (balanced, bandwidth-proportional, and one
/// per-class-favoured start), axes are scanned in class order, ties prefer
/// larger widths, and the best fixed point wins.
pub fn coordinate_descent(
    model: &MultiProfileModel,
    step: u64,
    sample: &[(u64, u64, OpKind)],
    avg: u64,
) -> (LayoutChoice, u64) {
    let k = model.class_count();
    assert!(k > 0, "no classes");
    let r_bar = avg.max(step).div_ceil(step) * step;

    let zero_out = |mut w: Vec<u64>| -> Vec<u64> {
        for (c, wi) in model.classes.iter().zip(w.iter_mut()) {
            if c.count == 0 {
                *wi = 0;
            }
        }
        w
    };
    let balanced = zero_out(vec![r_bar.div_ceil(k as u64 * step) * step; k]);
    assert!(balanced.iter().any(|&w| w > 0), "no servers in any class");
    if sample.is_empty() {
        let choice = LayoutChoice {
            widths: balanced,
            cost: 0.0,
        };
        return (choice, 0);
    }

    // Starting points: balanced, read-bandwidth-proportional, and each
    // class alone at R̄.
    let mut starts: Vec<Vec<u64>> = vec![balanced];
    let inv_beta: Vec<f64> = model
        .classes
        .iter()
        .map(|c| {
            if c.read.beta_s_per_byte > 0.0 {
                1.0 / c.read.beta_s_per_byte
            } else {
                1.0
            }
        })
        .collect();
    let total_inv = crate::fold::sum_f64(
        model
            .classes
            .iter()
            .zip(&inv_beta)
            .map(|(c, &b)| c.count as f64 * b),
    );
    if total_inv > 0.0 {
        let proportional: Vec<u64> = inv_beta
            .iter()
            .map(|&b| {
                let w = (r_bar as f64 * b / total_inv) as u64;
                w.div_ceil(step).max(1) * step
            })
            .collect();
        starts.push(zero_out(proportional));
    }
    for solo in 0..k {
        if model.classes[solo].count == 0 {
            continue;
        }
        let mut w = vec![0u64; k];
        w[solo] = r_bar;
        starts.push(w);
    }

    let mut scorer = Scorer::new(model, sample);
    let (widths, cost) = starts
        .into_iter()
        .filter(|w| model.has_capacity(w))
        .map(|start| scorer.descend(start, step, r_bar))
        // The infinite-cost sentinel loses to every real descent (and
        // on a cost tie, any non-empty widths vector orders above the
        // empty one), so it only surfaces if no start survives the
        // filter — impossible for a cluster with servers.
        .fold((Vec::new(), f64::INFINITY), |a, b| {
            if b.1 < a.1 || (b.1 == a.1 && b.0 > a.0) {
                b
            } else {
                a
            }
        });
    (LayoutChoice { widths, cost }, scorer.scored)
}

/// Scores candidate widths over one sample, split once into the grid's
/// strided runs (see [`crate::optimizer`]).
struct Scorer<'a> {
    model: &'a MultiProfileModel,
    kernel: CostKernel,
    runs: Vec<StridedRun>,
    /// The candidate being scored (reused scratch).
    spans: ClassSpans,
    /// Per-residue costs of the run being scored (reused scratch).
    cycle: Vec<f64>,
    /// Candidates costed so far.
    scored: u64,
}

impl<'a> Scorer<'a> {
    fn new(model: &'a MultiProfileModel, sample: &[(u64, u64, OpKind)]) -> Self {
        Scorer {
            model,
            kernel: CostKernel::new(model),
            runs: strided_runs(sample),
            spans: ClassSpans::default(),
            cycle: Vec::new(),
            scored: 0,
        }
    }

    /// The sample's summed cost under `widths` — or, as soon as the
    /// running sum strictly exceeds `bound`, that partial sum.
    ///
    /// Each run costs one kernel call per residue of its offset cycle,
    /// then replays those costs in sample order into one left fold: the
    /// same values added in the same order as a per-request sum, so the
    /// result is bit-identical to it. Costs are non-negative, so a cut-off
    /// candidate's full sum would also exceed `bound`: a caller comparing
    /// against `bound` rejects the partial sum as it would the full one.
    fn cost(&mut self, widths: &[u64], bound: f64) -> f64 {
        self.scored += 1;
        self.kernel.place(widths, &mut self.spans);
        let group = self.spans.group();
        let mut sum = OrderedSum::new();
        for run in &self.runs {
            let (period, d) = run.cycle(group);
            self.cycle.clear();
            let mut r = run.o0 % group;
            for _ in 0..period {
                let c = self.kernel.cost(&self.spans, r, run.size, run.op);
                self.cycle.push(c);
                sum.add(c);
                if sum.value() > bound {
                    return sum.value();
                }
                r += d;
                if r >= group {
                    r -= group;
                }
            }
            for &c in self.cycle.iter().cycle().take(run.count - period) {
                sum.add(c);
                if sum.value() > bound {
                    return sum.value();
                }
            }
        }
        sum.value()
    }

    /// One coordinate-descent run from a fixed starting point.
    fn descend(&mut self, mut widths: Vec<u64>, step: u64, r_bar: u64) -> (Vec<u64>, f64) {
        let mut best_cost = self.cost(&widths, f64::INFINITY);

        for _sweep in 0..MAX_SWEEPS {
            let mut improved = false;
            for axis in 0..widths.len() {
                if self.model.classes[axis].count == 0 {
                    continue;
                }
                // The incumbent already costs `best_cost` and, under the
                // larger-width tie rule, can never displace `best_w`.
                let incumbent = widths[axis];
                let mut best_w = incumbent;
                let mut w = 0u64;
                while w <= r_bar + step {
                    widths[axis] = w;
                    if w != incumbent && self.model.has_capacity(&widths) {
                        let cost = self.cost(&widths, best_cost);
                        if cost < best_cost || (cost == best_cost && w > best_w) {
                            improved |= cost < best_cost;
                            best_cost = cost;
                            best_w = w;
                        }
                    }
                    w += step;
                }
                widths[axis] = best_w;
            }
            if !improved {
                break;
            }
        }
        (widths, best_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{optimize_region, OptimizerConfig, RegionRequests};
    use crate::trace::TraceRecord;
    use harl_devices::{hdd_2015_preset, nvme_2020_preset, ssd_2015_preset, NetworkProfile};
    use harl_pfs::ClusterConfig;
    use harl_simcore::{SimContext, SimNanos};

    const KB: u64 = 1024;

    fn sample(n: usize, size: u64, op: OpKind) -> Vec<(u64, u64, OpKind)> {
        (0..n).map(|i| (i as u64 * size, size, op)).collect()
    }

    /// The descent at the default optimizer's effective step.
    fn descend(model: &MultiProfileModel, sample: &[(u64, u64, OpKind)], avg: u64) -> LayoutChoice {
        let step = OptimizerConfig::default().effective_step(avg);
        coordinate_descent(model, step, sample, avg).0
    }

    #[test]
    fn coordinate_descent_matches_grid_on_two_classes() {
        let model = MultiProfileModel::from_cluster(&ClusterConfig::paper_default());
        let records: Vec<TraceRecord> = (0..32)
            .map(|i| TraceRecord {
                rank: 0,
                fd: 0,
                op: OpKind::Read,
                offset: i as u64 * 512 * KB,
                size: 512 * KB,
                timestamp: SimNanos::ZERO,
            })
            .collect();
        let grid = optimize_region(
            &SimContext::new(),
            &model,
            &RegionRequests::new(&records, 0),
            512 * KB,
            &OptimizerConfig {
                threads: 1,
                ..OptimizerConfig::default()
            },
            0,
        );
        let LayoutChoice { widths, cost } =
            descend(&model, &sample(32, 512 * KB, OpKind::Read), 512 * KB);
        // Coordinate descent can stop at a local optimum; it must get
        // within a few percent of the exhaustive grid and produce the same
        // qualitative shape (s >> h).
        assert!(
            cost <= grid.cost * 1.05,
            "descent cost {cost} vs grid {g}",
            g = grid.cost
        );
        assert!(widths[1] > widths[0], "SSD class must get larger stripes");
    }

    #[test]
    fn three_classes_order_by_speed() {
        // HDD / SSD / NVMe: faster classes should be assigned larger (or
        // equal) stripes.
        let cluster = ClusterConfig::hybrid(4, 2).with_extra_class(2, nvme_2020_preset());
        let model = MultiProfileModel::from_cluster(&cluster);
        assert_eq!(model.class_count(), 3);
        let LayoutChoice { widths, cost } =
            descend(&model, &sample(32, 512 * KB, OpKind::Read), 512 * KB);
        assert!(cost.is_finite());
        assert!(
            widths[2] >= widths[1] && widths[1] >= widths[0],
            "stripe order should follow device speed: {widths:?}"
        );
        assert!(widths[2] > widths[0], "NVMe must out-stripe HDD");
    }

    #[test]
    fn zero_count_class_is_skipped() {
        let model = MultiProfileModel::new(
            &NetworkProfile::gigabit_ethernet(),
            vec![(0, hdd_2015_preset()), (2, ssd_2015_preset())],
        );
        let choice = descend(&model, &sample(8, 128 * KB, OpKind::Read), 128 * KB);
        assert_eq!(choice.widths[0], 0);
        assert!(choice.widths[1] > 0);
        assert!(choice.cost.is_finite());
    }

    #[test]
    fn empty_sample_returns_balanced_default() {
        let model = MultiProfileModel::from_cluster(&ClusterConfig::paper_default());
        let (choice, scored) = coordinate_descent(&model, 4 * KB, &[], 128 * KB);
        assert_eq!(choice.cost, 0.0);
        assert_eq!(scored, 0, "nothing to cost");
        assert!(choice.widths.iter().all(|&w| w > 0));
    }
}
