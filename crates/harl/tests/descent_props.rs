//! Bit-identity of the K-class coordinate descent against a plain
//! per-request oracle.
//!
//! The descent scores candidates with the strided-run replay and monotone
//! pruning of the `K = 2` grid. Neither may move a result: the oracle
//! below is the straightforward descent — every candidate costed as a
//! left fold of `request_cost` over the whole sample, every grid point
//! evaluated, each with the plain per-request formula — and both must
//! return the same widths and the same cost bits, on ascending,
//! descending, random and mixed samples, for K ∈ {2, 3, 4} including
//! zero-count classes.

mod oracle;

use harl_core::{
    coordinate_descent, optimize_region, MultiProfileModel, OptimizerConfig, RegionRequests,
    TraceRecord,
};
use harl_devices::{
    hdd_2015_preset, nvme_2020_preset, object_store_preset, ssd_2015_preset, NetworkProfile,
    OpKind, StorageProfile,
};
use harl_simcore::{SimContext, SimNanos};
use proptest::prelude::*;

type Sample = Vec<(u64, u64, OpKind)>;

/// The descent as a plain per-request search: no run decomposition, no
/// pruning, no incumbent skip.
mod plain {
    use super::*;
    use crate::oracle::total_cost;

    pub fn effective_step(step: u64, max_grid_points: usize, avg: u64) -> u64 {
        let min_step = avg.div_ceil(max_grid_points.max(1) as u64);
        step * min_step.div_ceil(step).max(1)
    }

    pub fn optimize(
        model: &MultiProfileModel,
        step: u64,
        max_grid_points: usize,
        max_sweeps: usize,
        sample: &[(u64, u64, OpKind)],
        avg: u64,
    ) -> (Vec<u64>, f64) {
        let k = model.class_count();
        let step = effective_step(step, max_grid_points, avg.max(1));
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
        if sample.is_empty() {
            return (balanced, 0.0);
        }
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
        let total_inv = harl_core::fold::sum_f64(
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
        starts
            .into_iter()
            .filter(|w| {
                model
                    .classes
                    .iter()
                    .zip(w)
                    .any(|(c, &wi)| c.count > 0 && wi > 0)
            })
            .map(|start| descend(model, max_sweeps, sample, start, step, r_bar))
            .fold((Vec::new(), f64::INFINITY), |a, b| {
                if b.1 < a.1 || (b.1 == a.1 && b.0 > a.0) {
                    b
                } else {
                    a
                }
            })
    }

    fn descend(
        model: &MultiProfileModel,
        max_sweeps: usize,
        sample: &[(u64, u64, OpKind)],
        mut widths: Vec<u64>,
        step: u64,
        r_bar: u64,
    ) -> (Vec<u64>, f64) {
        let k = widths.len();
        let mut best_cost = total_cost(model, sample, &widths);
        for _sweep in 0..max_sweeps {
            let mut improved = false;
            for axis in 0..k {
                if model.classes[axis].count == 0 {
                    continue;
                }
                let mut best_w = widths[axis];
                let mut w = 0u64;
                while w <= r_bar + step {
                    let saved = widths[axis];
                    widths[axis] = w;
                    let valid = model
                        .classes
                        .iter()
                        .zip(&widths)
                        .any(|(c, &cw)| c.count > 0 && cw > 0);
                    if valid {
                        let cost = total_cost(model, sample, &widths);
                        if cost < best_cost || (cost == best_cost && w > best_w) {
                            if cost < best_cost {
                                improved = true;
                            }
                            best_cost = cost;
                            best_w = w;
                        }
                    }
                    widths[axis] = saved;
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

const STEP: u64 = 4096;
/// A coarse grid keeps the oracle's exhaustive scans quick.
const GRID_POINTS: usize = 24;
const SWEEPS: usize = 16;

fn preset(i: usize) -> StorageProfile {
    match i % 4 {
        0 => hdd_2015_preset(),
        1 => ssd_2015_preset(),
        2 => nvme_2020_preset(),
        _ => object_store_preset(),
    }
}

prop_compose! {
    /// `min_k..=4` classes drawn from the device presets, with server
    /// counts in 0..=3 (zero-count classes included) and at least one
    /// populated class.
    fn model_k(min_k: usize)(
        classes in prop::collection::vec((0usize..4, 0usize..=3), min_k..5),
    ) -> MultiProfileModel {
        let mut classes: Vec<(usize, StorageProfile)> =
            classes.into_iter().map(|(p, n)| (n, preset(p))).collect();
        if classes.iter().all(|&(n, _)| n == 0) {
            classes[0].0 = 1;
        }
        MultiProfileModel::new(&NetworkProfile::gigabit_ethernet(), classes)
    }
}

fn op(read: bool) -> OpKind {
    if read {
        OpKind::Read
    } else {
        OpKind::Write
    }
}

prop_compose! {
    /// A request size: a whole number of KiB or an arbitrary byte count.
    fn size()(kib in 1u64..=1024, bytes in 1u64..(1 << 20), whole in any::<bool>()) -> u64 {
        if whole { kib * 1024 } else { bytes }
    }
}

prop_compose! {
    /// One request size at offsets `o0 + j·d`: contiguous (`d = size`),
    /// repeated (`d = 0`) or an arbitrary stride, optionally reversed.
    fn run(descending: bool)(
        o0 in 0u64..(1 << 30),
        size in size(),
        kind in 0u8..3,
        gap in 0u64..(2 << 20),
        (n, read) in (1usize..48, any::<bool>()),
    ) -> Sample {
        let d = match kind {
            0 => size,
            1 => 0,
            _ => gap,
        };
        let mut s: Sample = (0..n as u64).map(|j| (o0 + j * d, size, op(read))).collect();
        if descending {
            s.reverse();
        }
        s
    }
}

prop_compose! {
    /// Random offsets under one request size.
    fn scattered()(
        offsets in prop::collection::vec(0u64..(1 << 30), 1..48),
        size in size(),
        read in any::<bool>(),
    ) -> Sample {
        offsets.into_iter().map(|o| (o, size, op(read))).collect()
    }
}

prop_compose! {
    /// Mixed sizes and ops: ascending runs, descending runs and short
    /// random stretches glued together.
    fn mixed()(
        parts in prop::collection::vec(
            (
                0u8..3,
                run(false),
                run(true),
                prop::collection::vec((0u64..(1 << 30), size(), any::<bool>()), 1..8),
            ),
            1..5,
        ),
    ) -> Sample {
        parts
            .into_iter()
            .flat_map(|(pick, up, down, loose)| match pick {
                0 => up,
                1 => down,
                _ => loose.into_iter().map(|(o, r, rd)| (o, r, op(rd))).collect(),
            })
            .collect()
    }
}

fn avg(sample: &[(u64, u64, OpKind)]) -> u64 {
    (sample.iter().map(|s| s.1).sum::<u64>() / sample.len().max(1) as u64).max(1)
}

fn check(model: MultiProfileModel, sample: &[(u64, u64, OpKind)]) -> Result<(), String> {
    let avg = avg(sample);
    let (want_w, want_c) = plain::optimize(&model, STEP, GRID_POINTS, SWEEPS, sample, avg);
    let step = plain::effective_step(STEP, GRID_POINTS, avg);
    let (got, _) = coordinate_descent(&model, step, sample, avg);
    let (got_w, got_c) = (got.widths, got.cost);
    prop_assert_eq!(&got_w, &want_w);
    prop_assert_eq!(
        got_c.to_bits(),
        want_c.to_bits(),
        "cost {} vs oracle {}",
        got_c,
        want_c
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ascending_runs_match_oracle(model in model_k(2), sample in run(false)) {
        check(model, &sample)?;
    }

    #[test]
    fn descending_runs_match_oracle(model in model_k(2), sample in run(true)) {
        check(model, &sample)?;
    }

    #[test]
    fn random_offsets_match_oracle(model in model_k(2), sample in scattered()) {
        check(model, &sample)?;
    }

    #[test]
    fn mixed_sizes_and_ops_match_oracle(model in model_k(2), sample in mixed()) {
        check(model, &sample)?;
    }

    /// The planner's `K ≥ 3` arm must land on the same bits too.
    #[test]
    fn optimize_region_matches_oracle(model in model_k(3), sample in mixed()) {
        let records: Vec<TraceRecord> = sample
            .iter()
            .map(|&(offset, size, op)| TraceRecord {
                rank: 0,
                fd: 0,
                op,
                offset,
                size,
                timestamp: SimNanos::ZERO,
            })
            .collect();
        let avg = avg(&sample);
        let cfg = OptimizerConfig {
            step: STEP,
            max_grid_points: GRID_POINTS,
            max_requests_per_eval: records.len(),
            threads: 1,
        };
        let choice = optimize_region(
            &SimContext::new(),
            &model,
            &RegionRequests::new(&records, 0),
            avg,
            &cfg,
            0,
        );
        let (widths, cost) = plain::optimize(&model, STEP, GRID_POINTS, SWEEPS, &sample, avg);
        prop_assert_eq!(&choice.widths, &widths);
        prop_assert_eq!(choice.cost.to_bits(), cost.to_bits());
    }
}

/// A zero-count middle class on a three-tier cluster, under a long
/// descending run: the class keeps width 0 and the result matches.
#[test]
fn zero_count_class_under_descending_run_matches_oracle() {
    let model = MultiProfileModel::new(
        &NetworkProfile::gigabit_ethernet(),
        vec![
            (4, hdd_2015_preset()),
            (0, ssd_2015_preset()),
            (2, object_store_preset()),
        ],
    );
    let sample: Sample = (0..97u64)
        .rev()
        .map(|j| (j * 700 * 1024, 700 * 1024, OpKind::Read))
        .collect();
    let avg = avg(&sample);
    let (want_w, want_c) = plain::optimize(&model, STEP, GRID_POINTS, SWEEPS, &sample, avg);
    let step = plain::effective_step(STEP, GRID_POINTS, avg);
    let (got, _) = coordinate_descent(&model, step, &sample, avg);
    let (got_w, got_c) = (got.widths, got.cost);
    assert_eq!(got_w[1], 0);
    assert_eq!(got_w, want_w);
    assert_eq!(got_c.to_bits(), want_c.to_bits());
}
