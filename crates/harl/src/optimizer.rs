//! Region stripe-size determination — the paper's Algorithm 2, for any
//! class count.
//!
//! [`optimize_region`] dispatches on the model's class count: `K = 2` runs
//! the paper's exhaustive grid below (bit-identical to the original
//! two-tier optimizer); `K ≥ 3` runs the deterministic
//! [`crate::multiprofile::coordinate_descent`] under the same
//! configuration. Both score candidates through the one
//! [`CostKernel`]. The rest of this doc describes the `K = 2` grid.
//!
//! For each region, grid-search the stripe widths `[h, s]` in `step`
//! (4 KiB) increments, summing the cost-model prediction over the region's
//! requests, and keep the cheapest pair. Bounds follow the paper: `h` runs
//! from 0 (no data on HServers — the Fig. 9 optimum) to the region's
//! average request size `R̄`, and `s` from `h + step` upward ("s starts
//! from a size which is larger than h because this configuration can lead
//! to load balance among heterogeneous servers"). Two deviations, both
//! documented in DESIGN.md:
//!
//! * the paper's loop leaves `h = R̄` with an empty `s` range; we extend
//!   `s` to one step past `R̄` so that configuration is actually evaluated,
//!   and also evaluate the "single HServer" extreme `(R̄, 0)` the text
//!   calls out;
//! * region cost may be evaluated over an evenly-strided sample of at most
//!   `max_requests_per_eval` requests to bound off-line analysis time (the
//!   paper bounds it by running off-line; the sample is deterministic).
//!
//! The candidate grid is chunked across `std::thread::scope` workers; ties
//! break toward the lexicographically *largest* `[h, s]` (see
//! `pick_better`: fewer stripe fragments, and the paper's Fig. 9 optima)
//! so results are identical no matter how many threads run. Whole-file
//! planning ([`crate::policy::HarlPolicy`]) and on-line re-planning
//! ([`crate::online::OnlineMonitor`]) additionally fan out across
//! *regions* under the same [`OptimizerConfig::threads`] budget (see
//! `fan_out`); with more than one region in flight the inner grid search
//! runs sequentially, so the budget is never over-subscribed.
//!
//! Two hot-path optimizations keep each candidate cheap without changing
//! the result, on both paths. Both start from the sample's split into
//! maximal strided runs (`strided_runs`), made once per search; a request's
//! cost depends on its offset only through `offset mod group` (the layout
//! repeats every `G = Σ count·w` bytes), so a run's residues cycle and each
//! residue of the cycle is costed once per candidate.
//!
//! * **run folding** — the `K = 2` grid folds each residue's cost in with
//!   its multiplicity (`mult · c`), so uniform IOR-style regions collapse
//!   thousands of requests into a handful of weighted evaluations. The
//!   `K ≥ 3` descent instead *replays* the per-residue costs one request
//!   at a time, in sample order: the same values added in the same order
//!   as a plain per-request sum, so its results are bit-identical to that
//!   sum. A weighted fold rounds differently in the low bits, which could
//!   move the descent's exact-tie decisions.
//! * **monotone pruning** — per-request costs are non-negative, so a
//!   candidate is abandoned as soon as its running sum strictly exceeds
//!   the best cost found so far; an abandoned candidate can at best tie
//!   the incumbent on cost and is never reported, leaving the winner (and
//!   its exact summation order) unchanged.
//!
//! Both rely on runs only ascending and never overflowing (`o0 + count·d`
//! fits in a `u64`): stepping `o0 mod G` by `d mod G` yields the offsets'
//! true residues only then. A descending pair starts a new run.

use crate::cast::{u64_to_usize, usize_to_u64};
use crate::model::{ClassSpans, CostKernel, MultiProfileModel};
use crate::multiprofile::coordinate_descent;
use crate::trace::TraceRecord;
use harl_simcore::{registry, SimContext};
use serde::{Deserialize, Serialize};

/// Optimizer tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Grid step (paper: 4 KiB; "finer step values result in more precise
    /// h and s values, but with increased cost calculation overhead").
    pub step: u64,
    /// Upper bound on grid points per axis. For large `R̄` (e.g. the
    /// multi-MiB requests collective I/O produces) a fixed 4 KiB step would
    /// explode the grid; the effective step is raised to keep at most this
    /// many points per axis — the same precision/overhead dial the paper
    /// assigns to the user's choice of step.
    pub max_grid_points: usize,
    /// Cap on requests per cost evaluation (deterministic stride sample).
    pub max_requests_per_eval: usize,
    /// Worker threads for the grid search (1 = sequential).
    pub threads: usize,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            step: 4 * 1024,
            max_grid_points: 128,
            max_requests_per_eval: 4096,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl OptimizerConfig {
    /// The step actually used for a region with average request size `avg`:
    /// the configured step, raised so the axis has at most
    /// `max_grid_points` points.
    pub fn effective_step(&self, avg: u64) -> u64 {
        let min_step = avg.div_ceil(usize_to_u64(self.max_grid_points.max(1)));
        self.step * min_step.div_ceil(self.step).max(1)
    }
}

/// The chosen per-class stripe widths for one region, with the predicted
/// cost — what [`optimize_region`] returns for any class count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutChoice {
    /// Stripe width per server class, in `ClusterConfig::classes` order.
    pub widths: Vec<u64>,
    /// Summed model cost of the (sampled) region requests, seconds.
    pub cost: f64,
}

impl LayoutChoice {
    /// Stripe width of one class (0 past the vector's end).
    #[inline]
    pub fn width(&self, class: usize) -> u64 {
        self.widths.get(class).copied().unwrap_or(0)
    }
}

/// A grid candidate of the `K = 2` exhaustive search (internal; the public
/// result type is [`LayoutChoice`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StripeChoice {
    pub(crate) widths: [u64; 2],
    pub(crate) cost: f64,
}

/// A borrowed view of a region's requests with offsets made
/// region-relative (each region maps to its own physical file, so request
/// offsets inside it start from the region origin — paper Sec. III-G).
pub struct RegionRequests<'a> {
    records: &'a [TraceRecord],
    region_offset: u64,
}

impl<'a> RegionRequests<'a> {
    /// Wrap the offset-sorted records of one region.
    pub fn new(records: &'a [TraceRecord], region_offset: u64) -> Self {
        RegionRequests {
            records,
            region_offset,
        }
    }

    /// Model cost of this region under per-class widths, summed over the
    /// (sampled) requests — exposed for baseline policies that search a
    /// restricted candidate set. Tabulates `model` on every call; a caller
    /// that costs many candidates builds one [`CostKernel`] and calls
    /// [`Self::cost_under`].
    pub fn cost_of_widths(&self, model: &MultiProfileModel, widths: &[u64], cap: usize) -> f64 {
        self.cost_under(&CostKernel::new(model), widths, cap)
    }

    /// [`Self::cost_of_widths`] under an already tabulated model.
    pub fn cost_under(&self, kernel: &CostKernel, widths: &[u64], cap: usize) -> f64 {
        let spans = kernel.spans(widths);
        crate::fold::sum_f64(
            self.sample(cap)
                .iter()
                .map(|&(o, r, op)| kernel.cost(&spans, o, r, op)),
        )
    }

    /// Deterministic stride sample of at most `cap` requests.
    pub(crate) fn sample(&self, cap: usize) -> Vec<(u64, u64, harl_devices::OpKind)> {
        let n = self.records.len();
        let stride = n.div_ceil(cap.max(1)).max(1);
        self.records
            .iter()
            .step_by(stride)
            .map(|r| (r.offset.saturating_sub(self.region_offset), r.size, r.op))
            .collect()
    }
}

/// Candidate widths `[h, s]` for a given `R̄` on a cluster of `[M, N]`
/// servers, per Algorithm 2's loops plus the two extremes.
pub(crate) fn candidates(avg: u64, step: u64, [m, n]: [usize; 2]) -> Vec<[u64; 2]> {
    let r_bar = avg.max(step).div_ceil(step) * step; // round up to the grid
    let mut out = Vec::new();
    if m == 0 {
        // No HServers: only the h = 0 column is meaningful.
        for s in (step..=r_bar).step_by(u64_to_usize(step)) {
            out.push([0, s]);
        }
        return out;
    }
    for h in (0..=r_bar).step_by(u64_to_usize(step)) {
        let mut s = h + step;
        while s <= r_bar + step {
            // s > h per the paper's load-balance argument; the +step slack
            // makes h = R̄ evaluable (see module docs).
            if n > 0 {
                out.push([h, s]);
            }
            s += step;
        }
    }
    // The "single HServer" extreme: all data on HServers at width R̄.
    out.push([r_bar, 0]);
    // Drop pairs that would have zero total capacity on this cluster.
    out.retain(|&[h, s]| usize_to_u64(m) * h + usize_to_u64(n) * s > 0);
    out
}

/// Run Algorithm 2 for one region — the single layout-planning entry
/// point, dispatching on the model's class count.
///
/// * `K = 2` — the paper's exhaustive `[h, s]` grid, bit-identical to the
///   pre-generalisation optimizer (fig7-golden-guarded): ties break to the
///   largest `[h, s]` (see `pick_better`).
/// * `K ≥ 3` — deterministic coordinate descent
///   ([`crate::coordinate_descent`]), sharing the step / grid-point / sample
///   budget of the same [`OptimizerConfig`].
///
/// `avg_request_size` is the region's `R̄` from Algorithm 1.
///
/// When the context's recorder is enabled, the search additionally records
/// the winning widths, their predicted cost and the number of candidates
/// costed under the `region` label (`harl.optimizer.*`). The per-request
/// predicted cost (`harl.model.predicted_request_cost_s`) is the
/// "predicted" side of the model-drift residual tracked by
/// [`crate::online::OnlineMonitor`]. Callers that plan a single region
/// (baseline policies, benches) pass `region = 0`.
pub fn optimize_region(
    ctx: &SimContext,
    model: &MultiProfileModel,
    requests: &RegionRequests<'_>,
    avg_request_size: u64,
    cfg: &OptimizerConfig,
    region: usize,
) -> LayoutChoice {
    let recorder = ctx.recorder();
    if !recorder.is_enabled() {
        return search(model, requests, avg_request_size, cfg).0;
    }
    let start = std::time::Instant::now();
    let (choice, sampled, scored) = search(model, requests, avg_request_size, cfg);
    let wall = start.elapsed();
    let labels = [("region", region.to_string())];
    recorder.counter_add(registry::HARL_OPTIMIZER_CANDIDATES.name, &labels, scored);
    for (class, &w) in choice.widths.iter().enumerate() {
        recorder.gauge_set(
            registry::HARL_OPTIMIZER_STRIPE_WIDTH.name,
            &[("region", region.to_string()), ("class", class.to_string())],
            w as f64,
        );
    }
    recorder.observe_f64(
        registry::HARL_OPTIMIZER_PREDICTED_COST_S.name,
        &labels,
        choice.cost,
    );
    recorder.observe_f64(
        registry::HARL_OPTIMIZER_PLAN_WALL_S.name,
        &labels,
        wall.as_secs_f64(),
    );
    if sampled > 0 {
        recorder.observe_f64(
            registry::HARL_MODEL_PREDICTED_REQUEST_COST_S.name,
            &labels,
            choice.cost / sampled as f64,
        );
    }
    choice
}

/// The search behind [`optimize_region`], without the recording: the
/// choice, how many requests the evaluation sampled, and how many
/// candidates it costed (pruned ones included).
fn search(
    model: &MultiProfileModel,
    requests: &RegionRequests<'_>,
    avg_request_size: u64,
    cfg: &OptimizerConfig,
) -> (LayoutChoice, usize, u64) {
    assert!(cfg.step > 0, "grid step must be positive");
    let step = cfg.effective_step(avg_request_size.max(1));
    let sample = requests.sample(cfg.max_requests_per_eval);
    let sampled = sample.len();
    let [m, n] = match model.classes.as_slice() {
        [h, s] => [h.count, s.count],
        _ => {
            let (choice, scored) = coordinate_descent(model, step, &sample, avg_request_size);
            return (choice, sampled, scored);
        }
    };
    let cands = candidates(avg_request_size, step, [m, n]);
    assert!(
        !cands.is_empty(),
        "no stripe candidates (cluster has no servers?)"
    );
    // An empty region (no requests) has zero cost everywhere; fall back to
    // a balanced default: the fixed stripe at R̄ (or one step).
    if sample.is_empty() {
        let w = avg_request_size.max(step).div_ceil(step) * step;
        let choice = LayoutChoice {
            widths: vec![if m > 0 { w } else { 0 }, if n > 0 { w } else { 0 }],
            cost: 0.0,
        };
        return (choice, sampled, 0);
    }

    let kernel = CostKernel::new(model);
    let runs = strided_runs(&sample);
    let threads = cfg.threads.max(1).min(cands.len());
    let best = if threads == 1 {
        best_of(&kernel, &runs, &cands)
    } else {
        let chunk = cands.len().div_ceil(threads);
        let mut results: Vec<Option<StripeChoice>> = vec![None; threads];
        std::thread::scope(|scope| {
            for (slot, part) in results.iter_mut().zip(cands.chunks(chunk)) {
                let (kernel, runs) = (&kernel, &runs);
                scope.spawn(move || {
                    *slot = Some(best_of(kernel, runs, part));
                });
            }
        });
        // `cands` is non-empty (asserted above), so at least one slot is
        // filled and the infinite-cost sentinel always loses to a real
        // candidate under pick_better's ordering.
        results.into_iter().flatten().fold(
            StripeChoice {
                widths: [0, 0],
                cost: f64::INFINITY,
            },
            pick_better,
        )
    };
    let choice = LayoutChoice {
        widths: best.widths.to_vec(),
        cost: best.cost,
    };
    // Every candidate's first residue is costed before any pruning.
    (choice, sampled, usize_to_u64(cands.len()))
}

/// A maximal strided run of the sample: `count` requests of one `size`
/// and `op` at offsets `o0 + j·d` for `j = 0..count`.
///
/// Request cost depends on the offset only through `offset mod group`, and
/// the residues of an arithmetic progression mod `G` cycle with period
/// `P = G / gcd(d, G)` — so a run needs at most `min(P, count)` cost
/// evaluations per candidate, with no further per-request model work.
/// Uniform regions are one long run; irregular samples decompose into
/// short runs, where a length-1 run is the plain per-request evaluation.
///
/// Runs only ascend (`d ≥ 0`) and never overflow (`o0 + count·d` fits in
/// a `u64`): both cost paths compute residues as `o0 mod G` stepped by
/// `d mod G`, which is the offsets' true residue sequence only under that
/// precondition. A descending pair starts a new run instead.
pub(crate) struct StridedRun {
    pub(crate) o0: u64,
    pub(crate) d: u64,
    pub(crate) size: u64,
    pub(crate) op: harl_devices::OpKind,
    pub(crate) count: usize,
}

impl StridedRun {
    /// Cycle length of this run's offset residues mod `group`, capped at
    /// the run length, with the residue step `d mod group`.
    pub(crate) fn cycle(&self, group: u64) -> (usize, u64) {
        let d = self.d % group;
        let period = if d == 0 { 1 } else { group / gcd(d, group) };
        (u64_to_usize(period.min(usize_to_u64(self.count))), d)
    }
}

/// Greedy decomposition of the sample into maximal ascending strided runs.
pub(crate) fn strided_runs(sample: &[(u64, u64, harl_devices::OpKind)]) -> Vec<StridedRun> {
    let mut runs: Vec<StridedRun> = Vec::new();
    for &(o, r, op) in sample {
        if let Some(run) = runs.last_mut() {
            if run.size == r && run.op == op && o >= run.o0 {
                if run.count == 1 {
                    run.d = o - run.o0;
                    run.count = 2;
                    continue;
                }
                let next = usize_to_u64(run.count)
                    .checked_mul(run.d)
                    .and_then(|step| run.o0.checked_add(step));
                if next == Some(o) {
                    run.count += 1;
                    continue;
                }
            }
        }
        runs.push(StridedRun {
            o0: o,
            d: 0,
            size: r,
            op,
            count: 1,
        });
    }
    runs
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn best_of(kernel: &CostKernel, runs: &[StridedRun], cands: &[[u64; 2]]) -> StripeChoice {
    let mut best = StripeChoice {
        widths: [0, 0],
        cost: f64::INFINITY,
    };
    let mut spans = ClassSpans::default();
    'cands: for &widths in cands {
        kernel.place(&widths, &mut spans);
        let group = spans.group();
        let mut cost = crate::fold::OrderedSum::new();
        for run in runs {
            let (period, d) = run.cycle(group);
            let n = run.count;
            // Residue j of the cycle appears ⌈n/P⌉ times for j < n mod P
            // and ⌊n/P⌋ after; with P ≥ n the n residues appear once each.
            let (whole, extra) = (n / period, n % period);
            let mut r = run.o0 % group;
            for j in 0..period {
                let mult = (whole + usize::from(j < extra)) as f64;
                cost.add(mult * kernel.cost(&spans, r, run.size, run.op));
                if cost.value() > best.cost {
                    continue 'cands; // cannot win, even on the tie-break
                }
                r += d;
                if r >= group {
                    r -= group;
                }
            }
        }
        best = pick_better(
            best,
            StripeChoice {
                widths,
                cost: cost.value(),
            },
        );
    }
    best
}

/// Deterministic comparison: strictly lower cost wins; ties break to the
/// lexicographically *larger* `[h, s]`.
///
/// Ties are common: the model aggregates per-server bytes, so all stripe
/// sizes that split a request identically across servers cost the same
/// (e.g. every `s ∈ {4K..64K}` for a 128 KiB request on two SServers).
/// Preferring the larger stripe means fewer stripe fragments and less
/// metadata — and matches the paper's reported optima (Fig. 9's
/// `{0, 64K}` rather than `{0, 4K}`).
// Exact comparison, allowlisted in lint.allow.toml: a tolerance here would
// make the winner depend on evaluation order and break bit-determinism
// across thread counts.
#[allow(clippy::float_cmp)]
pub(crate) fn pick_better(a: StripeChoice, b: StripeChoice) -> StripeChoice {
    if b.cost < a.cost || (b.cost == a.cost && b.widths > a.widths) {
        b
    } else {
        a
    }
}

/// Compute `f(0..count)` across up to `threads` scoped workers, returning
/// results in index order.
///
/// The region-level fan-out used by [`crate::policy::HarlPolicy`] and
/// [`crate::online::OnlineMonitor`]: regions are independent, so planning
/// them concurrently is coarse-grained and cache-friendly. Each index
/// writes into its own slot, so the output (and therefore the planned
/// layout) is identical for every thread count.
pub(crate) fn fan_out<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(count);
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let chunk = count.div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|ci| {
                let f = &f;
                scope.spawn(move || {
                    let lo = ci * chunk;
                    let hi = count.min(lo + chunk);
                    (lo..hi).map(f).collect::<Vec<T>>()
                })
            })
            .collect();
        // Joining in spawn order keeps results index-ordered; a worker
        // panic is re-raised on the caller as thread::scope would.
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    // Tests assert exact values: outputs are deterministic by design.
    #![allow(clippy::float_cmp)]

    use super::*;
    use harl_devices::{hdd_2015_preset, ssd_2015_preset, NetworkProfile, OpKind};
    use harl_pfs::ClusterConfig;
    use harl_simcore::SimNanos;

    const KB: u64 = 1024;

    fn model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    fn recs(n: usize, size: u64, op: OpKind) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                rank: 0,
                fd: 0,
                op,
                offset: i as u64 * size,
                size,
                timestamp: SimNanos::ZERO,
            })
            .collect()
    }

    #[test]
    fn read_512k_prefers_small_h_large_s() {
        // The paper's headline result: optimal read layout on 6H+2S at
        // 512 KiB requests is ~{32K, 160K} — h well below 64K, s well above.
        let m = model();
        let trace = recs(64, 512 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let cfg = OptimizerConfig {
            threads: 2,
            ..OptimizerConfig::default()
        };
        let choice = optimize_region(&SimContext::new(), &m, &reqs, 512 * KB, &cfg, 0);
        assert!(
            choice.width(0) > 0 && choice.width(0) <= 64 * KB,
            "h = {} out of expected band",
            choice.width(0)
        );
        assert!(
            choice.width(1) >= 96 * KB,
            "s = {} should be far larger than h",
            choice.width(1)
        );
        assert!(choice.width(1) > choice.width(0));
    }

    #[test]
    fn small_requests_go_ssd_only() {
        // Fig. 9: 128 KiB requests ⇒ {0, 64K}.
        let m = model();
        let trace = recs(64, 128 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let choice = optimize_region(
            &SimContext::new(),
            &m,
            &reqs,
            128 * KB,
            &OptimizerConfig::default(),
            0,
        );
        assert_eq!(choice.width(0), 0, "expected SServer-only, got {choice:?}");
        assert_eq!(choice.width(1), 64 * KB);
    }

    #[test]
    fn write_optimum_differs_from_read() {
        let m = model();
        let reads = recs(64, 512 * KB, OpKind::Read);
        let writes = recs(64, 512 * KB, OpKind::Write);
        let r = optimize_region(
            &SimContext::new(),
            &m,
            &RegionRequests::new(&reads, 0),
            512 * KB,
            &OptimizerConfig::default(),
            0,
        );
        let w = optimize_region(
            &SimContext::new(),
            &m,
            &RegionRequests::new(&writes, 0),
            512 * KB,
            &OptimizerConfig::default(),
            0,
        );
        // SServer writes are slower, so the write optimum shifts load back
        // toward HServers (s_w <= s_r) — as in the paper ({36K,148K} vs
        // {32K,160K}).
        assert!(
            w.width(1) <= r.width(1),
            "write s {} vs read s {}",
            w.width(1),
            r.width(1)
        );
        assert!(
            w.width(0) >= r.width(0),
            "write h {} vs read h {}",
            w.width(0),
            r.width(0)
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m = model();
        let trace = recs(100, 512 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let base = OptimizerConfig::default();
        let c1 = optimize_region(
            &SimContext::new(),
            &m,
            &reqs,
            512 * KB,
            &OptimizerConfig {
                threads: 1,
                ..base.clone()
            },
            0,
        );
        let c8 = optimize_region(
            &SimContext::new(),
            &m,
            &reqs,
            512 * KB,
            &OptimizerConfig { threads: 8, ..base },
            0,
        );
        assert_eq!(c1, c8);
    }

    #[test]
    fn chosen_pair_is_grid_optimal() {
        // Exhaustively verify the optimizer result against a brute-force
        // scan on a small grid.
        let m = model();
        let trace = recs(16, 64 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let cfg = OptimizerConfig {
            step: 16 * KB,
            max_grid_points: 128,
            max_requests_per_eval: 16,
            threads: 1,
        };
        let choice = optimize_region(&SimContext::new(), &m, &reqs, 64 * KB, &cfg, 0);
        for widths in candidates(64 * KB, 16 * KB, [6, 2]) {
            let c = reqs.cost_of_widths(&m, &widths, 16);
            assert!(
                c >= choice.cost - 1e-15,
                "candidate {widths:?} cost {c} beats chosen {}",
                choice.cost
            );
        }
    }

    #[test]
    fn region_relative_offsets_used() {
        // Same requests shifted by a region offset must optimise the same.
        let m = model();
        let base = recs(32, 256 * KB, OpKind::Read);
        let shifted: Vec<TraceRecord> = base
            .iter()
            .map(|r| TraceRecord {
                offset: r.offset + 512 * 1024 * 1024,
                ..*r
            })
            .collect();
        let a = optimize_region(
            &SimContext::new(),
            &m,
            &RegionRequests::new(&base, 0),
            256 * KB,
            &OptimizerConfig::default(),
            0,
        );
        let b = optimize_region(
            &SimContext::new(),
            &m,
            &RegionRequests::new(&shifted, 512 * 1024 * 1024),
            256 * KB,
            &OptimizerConfig::default(),
            0,
        );
        assert_eq!(a.widths, b.widths);
        assert!((a.cost - b.cost).abs() < 1e-12);
    }

    #[test]
    fn strided_runs_ascend_and_replay_the_sample() {
        // Descending pairs start new runs: a wrapped stride would make
        // `d mod G` differ from the offsets' true residue step.
        let mut sample: Vec<(u64, u64, OpKind)> = (0..40u64)
            .rev()
            .map(|j| (j * 700 * KB, 700 * KB, OpKind::Read))
            .collect();
        // A stride whose next step would overflow: the wrapped offset must
        // not extend the run.
        let q = u64::MAX / 4;
        sample.extend([0, 3 * q, (3 * q).wrapping_mul(2)].map(|o| (o, 1, OpKind::Write)));
        let runs = strided_runs(&sample);
        let replayed: Vec<(u64, u64, OpKind)> = runs
            .iter()
            .flat_map(|run| {
                (0..usize_to_u64(run.count)).map(move |j| {
                    let offset = j
                        .checked_mul(run.d)
                        .and_then(|step| run.o0.checked_add(step));
                    (offset.expect("run offsets fit in u64"), run.size, run.op)
                })
            })
            .collect();
        assert_eq!(replayed, sample);
        assert_eq!(runs.len(), 40 + 2, "descending: one run per request");
    }

    #[test]
    fn reversed_trace_plans_like_forward() {
        // A reversed trace must be scored on its true residues: same
        // widths as the forward trace, and a reported cost that is the
        // plain per-request sum. (Sizes with a unique optimum: where
        // several widths tie exactly, the two summation orders may round
        // the tie differently.)
        let m = model();
        let cfg = OptimizerConfig {
            threads: 1,
            ..OptimizerConfig::default()
        };
        for (n, size) in [(97, 900 * KB), (24, 900 * KB), (97, 700 * KB)] {
            let forward = recs(n, size, OpKind::Read);
            let reversed: Vec<TraceRecord> = forward.iter().rev().copied().collect();
            let plan = |records: &[TraceRecord]| {
                let reqs = RegionRequests::new(records, 0);
                optimize_region(&SimContext::new(), &m, &reqs, size, &cfg, 0)
            };
            let (f, r) = (plan(&forward), plan(&reversed));
            assert_eq!(r.widths, f.widths, "{n} x {size} B reversed");
            let exact = RegionRequests::new(&reversed, 0).cost_of_widths(
                &m,
                &r.widths,
                cfg.max_requests_per_eval,
            );
            assert!(
                (r.cost - exact).abs() <= 1e-9 * exact,
                "{n} x {size} B reversed: grid cost {} vs exact {exact}",
                r.cost
            );
        }
    }

    #[test]
    fn empty_region_gets_balanced_default() {
        let m = model();
        let reqs = RegionRequests::new(&[], 0);
        let choice = optimize_region(
            &SimContext::new(),
            &m,
            &reqs,
            128 * KB,
            &OptimizerConfig::default(),
            0,
        );
        assert_eq!(choice.widths, vec![128 * KB, 128 * KB]);
        assert_eq!(choice.cost, 0.0);
    }

    #[test]
    fn sampling_cap_changes_cost_not_choice() {
        let m = model();
        let trace = recs(1000, 512 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let full = OptimizerConfig {
            max_requests_per_eval: 1000,
            threads: 1,
            ..OptimizerConfig::default()
        };
        let sampled = OptimizerConfig {
            max_requests_per_eval: 50,
            threads: 1,
            ..OptimizerConfig::default()
        };
        let a = optimize_region(&SimContext::new(), &m, &reqs, 512 * KB, &full, 0);
        let b = optimize_region(&SimContext::new(), &m, &reqs, 512 * KB, &sampled, 0);
        assert_eq!(a.widths, b.widths, "uniform workload: same optimum");
    }

    #[test]
    fn candidates_include_extremes() {
        let c = candidates(64 * KB, 16 * KB, [6, 2]);
        assert!(c.contains(&[0, 16 * KB]), "SServer-only start");
        assert!(c.contains(&[64 * KB, 0]), "single-HServer extreme");
        assert!(c.contains(&[64 * KB, 64 * KB + 16 * KB]), "h = R̄ evaluable");
        // s always strictly greater than h except the [R̄, 0] extreme.
        assert!(c.iter().all(|&[h, s]| s > h || s == 0));
    }

    /// `harl.optimizer.candidates` after planning one region of `records`.
    fn candidates_counted(model: &MultiProfileModel, records: &[TraceRecord], avg: u64) -> u64 {
        let recorder = std::sync::Arc::new(harl_simcore::MemoryRecorder::new());
        let cfg = OptimizerConfig {
            step: 16 * KB,
            threads: 2,
            ..OptimizerConfig::default()
        };
        let reqs = RegionRequests::new(records, 0);
        let ctx = SimContext::recorded(recorder.clone());
        optimize_region(&ctx, model, &reqs, avg, &cfg, 0);
        recorder.counter_value(
            registry::HARL_OPTIMIZER_CANDIDATES.name,
            &[("region", "0".to_string())],
        )
    }

    #[test]
    fn candidate_counter_counts_scored_candidates_on_both_paths() {
        // K = 2: every grid candidate is costed (at least its first
        // residue) — h ∈ {0..64K} × s ∈ (h, 80K] on a 16 KiB grid is
        // 5 + 4 + 3 + 2 + 1 pairs, plus the [R̄, 0] extreme.
        let trace = recs(16, 64 * KB, OpKind::Read);
        assert_eq!(candidates_counted(&model(), &trace, 64 * KB), 16);
        // Nothing to cost in an empty region.
        assert_eq!(candidates_counted(&model(), &[], 64 * KB), 0);
        // K = 3: every descent evaluation, pruned ones included.
        let three = MultiProfileModel::from_cluster(
            &ClusterConfig::hybrid(4, 2).with_extra_class(2, harl_devices::nvme_2020_preset()),
        );
        assert_eq!(candidates_counted(&three, &trace, 64 * KB), 203);
    }

    #[test]
    fn recorded_context_matches_plain_and_times_the_plan() {
        let m = model();
        let trace = recs(64, 512 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let cfg = OptimizerConfig {
            threads: 1,
            ..OptimizerConfig::default()
        };
        let recorder = std::sync::Arc::new(harl_simcore::MemoryRecorder::new());
        let ctx = SimContext::recorded(recorder.clone());
        let recorded = optimize_region(&ctx, &m, &reqs, 512 * KB, &cfg, 3);
        let plain = optimize_region(&SimContext::new(), &m, &reqs, 512 * KB, &cfg, 0);
        assert_eq!(recorded, plain);
        let labels = [("region", "3".to_string())];
        let wall = recorder
            .summary_snapshot("harl.optimizer.plan_wall_s", &labels)
            .expect("plan wall time recorded");
        assert_eq!(wall.count(), 1);
        assert!(wall.mean() > 0.0);
        let per_request = recorder
            .summary_snapshot(registry::HARL_MODEL_PREDICTED_REQUEST_COST_S.name, &labels)
            .expect("per-request predicted cost recorded");
        assert!((per_request.mean() - plain.cost / 64.0).abs() < 1e-12);
    }

    #[test]
    fn hserver_only_cluster_still_works() {
        let m = MultiProfileModel::new(
            &NetworkProfile::gigabit_ethernet(),
            vec![(4, hdd_2015_preset()), (0, ssd_2015_preset())],
        );
        let trace = recs(16, 256 * KB, OpKind::Read);
        let reqs = RegionRequests::new(&trace, 0);
        let choice = optimize_region(
            &SimContext::new(),
            &m,
            &reqs,
            256 * KB,
            &OptimizerConfig::default(),
            0,
        );
        assert!(choice.width(0) > 0);
        assert!(choice.cost.is_finite());
    }
}
