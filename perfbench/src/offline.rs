//! Offline workloads: Trace → Analysis (Alg. 1/2) → Place → Run.
//!
//! An untraced pipeline run composes exactly the public calls
//! `trace_plan_run` composes (`collect_trace_lowered`, `LayoutPolicy::plan`,
//! `run_workload`), split only so the plan step can be timed on its own,
//! and then builds and serialises the `ScenarioReport` as `Scenario::run`
//! does. Once per run, `Scenario::run` itself replays each pass at one
//! thread and must agree with the measured pipeline.
//!
//! A traced pipeline run calls the same layers one public step at a time
//! (`collect_trace_lowered` → `Trace::sorted_by_offset` → `divide_regions` →
//! `optimize_region` per region → `RegionStripeTable::new`/`merge_adjacent`
//! → `place` → `translate_workload` → `simulate` →
//! `ScenarioReport::to_json_pretty`) with a span around each, and with a
//! metrics-tier `MemoryRecorder` attached so the program's own counters can
//! be read. The engine-phase split comes from a third kind of run with a
//! `PhaseProfiler` attached, which never shares a run with the spans.

use crate::counters::Totals;
use crate::outcome::Outcome;
use crate::spans::SpanLog;
use crate::spec::{offline_scenarios, Knobs, WorkloadId, THREADS};
use crate::stats::{
    available_threads, median, peak_rss_mib, quantile, secs_since, tail_level, timed, timed_floor,
    TAIL_BEYOND,
};
use crate::{fill, note_largest_layer, END_TO_END, PER_LAYER};
use harl_repro::harl::{
    divide_regions, optimize_region, LayoutChoice, OptimizerConfig, Region, RegionRequests,
};
use harl_repro::middleware::{place, run_workload, translate_workload, LogicalStep};
use harl_repro::pfs::FileLayout;
use harl_repro::prelude::*;
use harl_repro::simcore::profiler::{Phase, PhaseProfiler};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extra set-ups timed before every untraced pipeline run; `setup_s` is
/// the median of all of a run's set-ups. Spread over the run, not bunched
/// at its start, they see the same machine as the pipeline runs.
const SETUPS_PER_ROUND: usize = 1;
/// Fewest untraced pipeline runs a run measures, however long they take.
const MIN_UNTRACED: usize = 3;
/// Fewest traced pipeline runs a traced run measures (two, so the
/// deterministic counts can be compared between them).
const MIN_TRACED: usize = 2;
/// Largest share of a traced pipeline's wall time that may fall outside
/// its layer spans before the run is reported incorrect.
pub const SPAN_RESIDUAL_LIMIT_PCT: f64 = 3.0;
/// Plan calls shorter than this are repeated and averaged.
const PLAN_TIMING_FLOOR: Duration = Duration::from_millis(5);

/// One pass of a pipeline: a scenario with its inputs built.
struct Pass {
    scenario: Scenario,
    cluster: ClusterConfig,
    workload: Workload,
    policy: Box<dyn LayoutPolicy>,
    /// The same HARL policy `Scenario::build_policy` builds, for the traced
    /// step-by-step plan; `None` for fixed layouts.
    harl: Option<HarlPolicy>,
    ccfg: CollectiveConfig,
    file_size: u64,
    total_bytes: u64,
    logical_requests: u64,
}

/// What one pass of an untraced pipeline run produced.
#[derive(Debug, Clone, PartialEq)]
struct PassOut {
    report_json: String,
    rst: RegionStripeTable,
    throughput_mib_s: f64,
    makespan_ns: u64,
    bytes: u64,
    requests_completed: u64,
    sub_requests: u64,
}

/// Deterministic work counts of one traced pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counts {
    events: u64,
    candidates: u64,
    sub_requests: u64,
    regions: u64,
    rows: u64,
    issued: u64,
    completed: u64,
    trace_records: u64,
    phys_requests: u64,
    collective_calls: u64,
    queue_rebuilds: u64,
    queue_depth_hwm: f64,
}

/// What one traced pipeline run produced.
struct TracedOp {
    wall_s: f64,
    residual_s: f64,
    plan_s: f64,
    search_busy_s: f64,
    layers: BTreeMap<&'static str, f64>,
    counts: Counts,
    outs: Vec<PassOut>,
    /// Per pass, the placed files and client programs, kept for the
    /// profiled run.
    programs: Vec<(Vec<FileLayout>, Vec<ClientProgram>)>,
}

fn setup(id: WorkloadId, seed: u64) -> (Vec<Pass>, f64) {
    let mut build_s = 0.0;
    let passes = offline_scenarios(id, seed)
        .into_iter()
        .map(|scenario| {
            if let Err(e) = scenario.validate() {
                panic!("benchmark scenario {} is invalid: {e}", scenario.name);
            }
            let cluster = scenario.build_cluster();
            let (workload, secs) = timed(|| scenario.build_workload());
            build_s += secs;
            let workload = workload.unwrap_or_else(|e| panic!("input generation failed: {e}"));
            let policy = scenario.build_policy(&cluster);
            let harl = matches!(scenario.policy, PolicySpec::Harl)
                .then(|| HarlPolicy::new(MultiProfileModel::from_cluster(&cluster)));
            let (read, written) = workload.total_bytes();
            Pass {
                ccfg: scenario.collective.unwrap_or_default(),
                file_size: workload.extent().max(1),
                total_bytes: read + written,
                logical_requests: logical_requests(&workload),
                scenario,
                cluster,
                workload,
                policy,
                harl,
            }
        })
        .collect();
    (passes, build_s)
}

fn logical_requests(w: &Workload) -> u64 {
    w.ranks
        .iter()
        .flat_map(|r| &r.steps)
        .map(|s| match s {
            LogicalStep::Independent(r) | LogicalStep::Collective(r) => r.len() as u64,
            LogicalStep::Compute(_) => 0,
        })
        .sum()
}

/// The report `Scenario::run` builds, without the dollar cost (which is
/// private to `Scenario::run` and not part of what is measured here).
fn scenario_report(
    pass: &Pass,
    ctx: &SimContext,
    rst: RegionStripeTable,
    report: &SimReport,
) -> ScenarioReport {
    ScenarioReport {
        name: pass.scenario.name.clone(),
        policy: pass.scenario.policy.label(),
        seed: ctx.seed_or(pass.cluster.seed),
        regions: rst.len(),
        file_size: rst.file_size(),
        makespan_ns: report.makespan.as_nanos(),
        throughput_mib_s: report.throughput_mib_s(),
        bytes_read: report.bytes_read,
        bytes_written: report.bytes_written,
        requests_completed: report.requests_completed,
        plan_cost_usd: None,
        rst,
    }
}

fn pass_out(report_json: String, rst: RegionStripeTable, report: &SimReport) -> PassOut {
    PassOut {
        report_json,
        rst,
        throughput_mib_s: report.throughput_mib_s(),
        makespan_ns: report.makespan.as_nanos(),
        bytes: report.bytes_read + report.bytes_written,
        requests_completed: report.requests_completed,
        sub_requests: report.servers.iter().map(|s| s.disk_jobs).sum(),
    }
}

fn trace_call(pass: &Pass, knobs: &Knobs) -> Trace {
    let trace = collect_trace_lowered(&pass.cluster, &pass.workload, &pass.ccfg);
    if !knobs.trace_delay.is_zero() {
        std::thread::sleep(knobs.trace_delay);
    }
    trace
}

/// One untraced pipeline run over every pass. Returns the pass outputs,
/// the pipeline wall time and the summed plan time.
fn run_untraced(passes: &[Pass], base: &SimContext, knobs: &Knobs) -> (Vec<PassOut>, f64, f64) {
    let ctxs: Vec<SimContext> = passes.iter().map(|p| p.scenario.context(base)).collect();
    let mut outs = Vec::with_capacity(passes.len());
    let mut wall = 0.0;
    let mut plan_s = 0.0;
    for (pass, ctx) in passes.iter().zip(&ctxs) {
        let start = Instant::now();
        let trace = trace_call(pass, knobs);
        let (rst, plan_mean, plan_total) = timed_floor(PLAN_TIMING_FLOOR, || {
            pass.policy.plan(ctx, &trace, pass.file_size)
        });
        let report = run_workload(ctx, &pass.cluster, &rst, &pass.workload, &pass.ccfg);
        let json = scenario_report(pass, ctx, rst.clone(), &report).to_json_pretty();
        wall += secs_since(start) - plan_total + plan_mean;
        plan_s += plan_mean;
        outs.push(pass_out(json, rst, &report));
    }
    (outs, wall, plan_s)
}

/// Algorithm 2 over every region with the thread split `plan_file` uses
/// (region-level fan-out in contiguous chunks, or the whole budget inside
/// a single region's grid), timing each region's search. Returns the
/// choices in region order and the summed per-region busy time.
fn search(
    ctx: &SimContext,
    harl: &HarlPolicy,
    sorted: &[TraceRecord],
    regions: &[Region],
) -> (Vec<LayoutChoice>, f64) {
    let budget = ctx.threads_or(harl.optimizer.threads);
    let outer = budget.min(regions.len().max(1));
    let inner = OptimizerConfig {
        threads: if outer > 1 { 1 } else { budget },
        ..harl.optimizer.clone()
    };
    let one = |i: usize| {
        let start = Instant::now();
        let region = &regions[i];
        let reqs = RegionRequests::new(
            &sorted[region.first_request..region.last_request],
            region.offset,
        );
        let choice = optimize_region(ctx, &harl.model, &reqs, region.avg_request_size, &inner, i);
        (choice, secs_since(start))
    };
    let count = regions.len();
    let workers = outer.max(1).min(count);
    let timed_choices: Vec<(LayoutChoice, f64)> = if workers <= 1 {
        (0..count).map(one).collect()
    } else {
        let chunk = count.div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let one = &one;
                    scope.spawn(move || {
                        (w * chunk..count.min(w * chunk + chunk))
                            .map(one)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        })
    };
    let busy = timed_choices.iter().map(|(_, s)| s).sum();
    (timed_choices.into_iter().map(|(c, _)| c).collect(), busy)
}

/// One traced pipeline run over every pass, one public step at a time.
fn run_traced(passes: &[Pass], knobs: &Knobs, log: &mut SpanLog) -> TracedOp {
    let recorder = Arc::new(MemoryRecorder::metrics_only());
    let base = SimContext::recorded(recorder.clone()).with_threads(THREADS);
    let ctxs: Vec<SimContext> = passes.iter().map(|p| p.scenario.context(&base)).collect();
    let mut counts = Counts::default();
    let mut outs = Vec::with_capacity(passes.len());
    let mut programs_kept = Vec::with_capacity(passes.len());
    let mut plan_s = 0.0;
    let mut search_busy_s = 0.0;
    // What a pass allocates is parked until the root span has closed, so
    // freeing it is not billed to the pipeline.
    let mut parked: Vec<Box<dyn Any>> = Vec::new();

    log.begin_op();
    let root = log.enter("pipeline");
    let root_id = log.spans().len() - 1;
    for (pass, ctx) in passes.iter().zip(&ctxs) {
        let (trace, _) = log.time("middleware.trace", || trace_call(pass, knobs));
        let rst = if let Some(harl) = &pass.harl {
            let (sorted, sort_s) = log.time("harl.trace.sort", || trace.sorted_by_offset());
            let (regions, divide_s) = log.time("harl.region.divide", || {
                divide_regions(&sorted, pass.file_size, &harl.division)
            });
            let ((choices, busy), search_s) = log.time("harl.optimizer.search", || {
                search(ctx, harl, &sorted, &regions)
            });
            let (rst, build_s) = log.time("harl.rst.build", || {
                let entries = regions
                    .iter()
                    .zip(&choices)
                    .map(|(r, c)| RstEntry::new(r.offset, r.len(), c.widths.clone()))
                    .collect();
                let mut table = RegionStripeTable::new(entries);
                table.merge_adjacent();
                table
            });
            plan_s += sort_s + divide_s + search_s + build_s;
            search_busy_s += busy;
            counts.regions += regions.len() as u64;
            parked.push(Box::new((sorted, regions, choices)));
            rst
        } else {
            let (rst, secs) = log.time("harl.policy.plan", || {
                pass.policy.plan(ctx, &trace, pass.file_size)
            });
            plan_s += secs;
            rst
        };
        let (placed, _) = log.time("middleware.placement.place", || {
            place(&pass.cluster, &rst, 0)
        });
        let (programs, _) = log.time("middleware.translate", || {
            translate_workload(ctx, &pass.cluster, &placed, &pass.workload, &pass.ccfg)
        });
        let (report, _) = log.time("pfs.simulate", || {
            simulate(ctx, &pass.cluster, &placed.files, &programs)
        });
        let (json, _) = log.time("report.serialize", || {
            scenario_report(pass, ctx, rst.clone(), &report).to_json_pretty()
        });
        counts.trace_records += trace.len() as u64;
        counts.collective_calls += pass
            .workload
            .ranks
            .first()
            .map_or(0, |r| r.collective_calls() as u64);
        counts.phys_requests += programs
            .iter()
            .map(|p| p.request_count() as u64)
            .sum::<u64>();
        counts.rows += rst.len() as u64;
        let out = pass_out(json, rst, &report);
        counts.sub_requests += out.sub_requests;
        counts.completed += out.requests_completed;
        outs.push(out);
        programs_kept.push((placed.files.clone(), programs));
        parked.push(Box::new((trace, placed, report)));
    }
    let wall_s = log.exit(root);
    let residual_s = wall_s - log.children_secs(root_id);
    drop(parked);

    let totals = Totals::read(&recorder);
    counts.events = totals.counter("sim.events.dispatched");
    counts.candidates = totals.counter("harl.optimizer.candidates");
    counts.issued = totals.counter("pfs.requests.issued");
    counts.queue_rebuilds = totals.counter("sim.queue.rebuilds");
    counts.queue_depth_hwm = totals.gauge_max("sim.queue_depth.hwm");

    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    for span in &log.spans()[root_id + 1..] {
        *layers.entry(span.name).or_default() += span.secs();
    }
    TracedOp {
        wall_s,
        residual_s,
        plan_s,
        search_busy_s,
        layers,
        counts,
        outs,
        programs: programs_kept,
    }
}

/// Engine-phase shares from a profiled replay of the last traced run's
/// simulations, and the profiler's own overhead against unprofiled replays
/// of the same programs. Returns `(fractions, overhead_pct, reports_agree)`.
fn profile_engine(passes: &[Pass], op: &TracedOp) -> ([f64; 4], f64, bool) {
    let base = SimContext::new().with_threads(THREADS);
    let mut plain_best = 0.0;
    let mut profiled_best = 0.0;
    let mut phase_ns = [0u64; 4];
    let mut agree = true;
    for ((pass, (files, programs)), out) in passes.iter().zip(&op.programs).zip(&op.outs) {
        let ctx = pass.scenario.context(&base);
        let (plain, first) = timed(|| simulate(&ctx, &pass.cluster, files, programs));
        // Short simulations are repeated (interleaved) and the best of each
        // kept; a multi-second one is timed once of each.
        let reps = if first > 1.0 { 1 } else { 3 };
        let mut best_plain = first;
        let mut best_prof = f64::INFINITY;
        let mut last_profiler = None;
        for rep in 0..reps {
            if rep > 0 {
                let (_, s) = timed(|| simulate(&ctx, &pass.cluster, files, programs));
                best_plain = best_plain.min(s);
            }
            let profiler = Arc::new(PhaseProfiler::new());
            let pctx = ctx.clone().with_profiler(profiler.clone());
            let (report, s) = timed(|| simulate(&pctx, &pass.cluster, files, programs));
            best_prof = best_prof.min(s);
            agree &= report.throughput_mib_s().to_bits() == out.throughput_mib_s.to_bits()
                && report.requests_completed == out.requests_completed;
            last_profiler = Some(profiler);
        }
        agree &= plain.throughput_mib_s().to_bits() == out.throughput_mib_s.to_bits();
        if let Some(p) = last_profiler {
            for (slot, phase) in phase_ns.iter_mut().zip(Phase::ALL) {
                *slot += p.phase_ns(phase);
            }
        }
        plain_best += best_plain;
        profiled_best += best_prof;
    }
    let total: u64 = phase_ns.iter().sum();
    let fractions = phase_ns.map(|ns| {
        if total == 0 {
            0.0
        } else {
            ns as f64 / total as f64
        }
    });
    let overhead = (profiled_best - plain_best) / plain_best.max(1e-12) * 100.0;
    (fractions, overhead, agree)
}

/// Problems with one pass's output, checked on every run.
fn check_pass(pass: &Pass, out: &PassOut, issued: u64) -> Vec<String> {
    let name = &pass.scenario.name;
    let mut problems = Vec::new();
    if out.requests_completed == 0 || out.requests_completed != issued {
        problems.push(format!(
            "{name}: {} requests completed, {issued} issued",
            out.requests_completed
        ));
    }
    if out.bytes != pass.total_bytes {
        problems.push(format!(
            "{name}: {} bytes moved, the workload has {}",
            out.bytes, pass.total_bytes
        ));
    }
    if !tiles(&out.rst, pass.file_size) {
        problems.push(format!(
            "{name}: the RST does not tile [0, {})",
            pass.file_size
        ));
    }
    problems
}

/// Whether `rst`'s rows tile `[0, file_size)` without gap or overlap.
pub(crate) fn tiles(rst: &RegionStripeTable, file_size: u64) -> bool {
    let mut next = 0u64;
    for entry in rst.entries() {
        if entry.offset != next || entry.len == 0 {
            return false;
        }
        next = entry.end();
    }
    next == file_size
}

/// Physical requests the pipeline issues for `rst`, counted from a
/// translation under a no-op recorder.
fn issued_requests(pass: &Pass, rst: &RegionStripeTable) -> u64 {
    let ctx = pass.scenario.context(&SimContext::new());
    let placed = place(&pass.cluster, rst, 0);
    translate_workload(&ctx, &pass.cluster, &placed, &pass.workload, &pass.ccfg)
        .iter()
        .map(|p| p.request_count() as u64)
        .sum()
}

/// Runs one offline workload.
pub fn run(id: WorkloadId, seed: u64, knobs: &Knobs) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: cluster and model construction plus input generation. The
    // first set-up's inputs are used; the extra ones are only timed.
    let ((passes, build_s), setup_s) = timed(|| setup(id, seed));
    let mut setup_times = vec![setup_s];
    let mut build_times = vec![build_s];

    let base = SimContext::new().with_threads(THREADS);
    let mut log = SpanLog::new();
    let mut untraced: Vec<(Vec<PassOut>, f64, f64)> = Vec::new();
    let mut traced: Vec<TracedOp> = Vec::new();
    let start = Instant::now();
    loop {
        for _ in 0..SETUPS_PER_ROUND {
            let ((extra, build_s), setup_s) = timed(|| setup(id, seed));
            setup_times.push(setup_s);
            build_times.push(build_s);
            drop(extra);
        }
        untraced.push(run_untraced(&passes, &base, knobs));
        if knobs.trace {
            // Only the newest traced run keeps its programs (for the
            // profiled run), so memory does not grow with the run count.
            if let Some(prev) = traced.last_mut() {
                prev.programs = Vec::new();
            }
            traced.push(run_traced(&passes, knobs, &mut log));
        }
        let enough = untraced.len() >= MIN_UNTRACED && (!knobs.trace || traced.len() >= MIN_TRACED);
        if enough && secs_since(start) >= knobs.seconds {
            break;
        }
    }
    out.attempted = (untraced.len() + traced.len()) as u64;

    // Output checks on every untraced run: the first run is the reference
    // every later one must repeat byte for byte.
    let reference = untraced[0].0.clone();
    let issued: Vec<u64> = passes
        .iter()
        .zip(&reference)
        .map(|(p, o)| issued_requests(p, &o.rst))
        .collect();
    for (i, (outs, _, _)) in untraced.iter().enumerate() {
        let mut problems = Vec::new();
        for (((pass, o), r), n) in passes.iter().zip(outs).zip(&reference).zip(&issued) {
            problems.extend(check_pass(pass, o, *n));
            if o.report_json != r.report_json {
                problems.push(format!(
                    "{}: run {i} report differs from the first run",
                    pass.scenario.name
                ));
            }
        }
        if !problems.is_empty() {
            out.fail(1, problems.join("; "));
        }
    }

    // The user path at one thread: `Scenario::run` must agree with the
    // measured two-thread pipeline.
    // Its report, less the dollar cost the measured pipeline does not
    // compute, must match byte for byte.
    for (pass, r) in passes.iter().zip(&reference) {
        match pass.scenario.run(&SimContext::new().with_threads(1)) {
            Ok(rep) => {
                let json = ScenarioReport {
                    plan_cost_usd: None,
                    ..rep
                }
                .to_json_pretty();
                out.check(json == r.report_json, 0, || {
                    format!(
                        "{}: Scenario::run at 1 thread disagrees",
                        pass.scenario.name
                    )
                });
            }
            Err(e) => out.fail(
                0,
                format!("{}: Scenario::run failed: {e}", pass.scenario.name),
            ),
        }
    }

    // End-to-end metrics.
    let walls: Vec<f64> = untraced.iter().map(|u| u.1).collect();
    let plans: Vec<f64> = untraced.iter().map(|u| u.2).collect();
    let bytes: u64 = reference.iter().map(|o| o.bytes).sum();
    let makespan_ns: u64 = reference.iter().map(|o| o.makespan_ns).sum();
    let layout_mib_s = bytes as f64 / (1024.0 * 1024.0) / (makespan_ns as f64 / 1e9).max(1e-12);
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("pipeline_s", median(&walls));
    e2e.insert("plan_s", median(&plans));
    e2e.insert("layout_mib_s", layout_mib_s);
    e2e.insert("submit_p50_ms", median(&walls) * 1e3);
    let tail = tail_level(walls.len(), 0.99);
    e2e.insert("submit_p99_ms", quantile(&walls, tail) * 1e3);
    e2e.insert("submits_per_s", 1.0 / median(&walls));
    e2e.insert("setup_s", median(&setup_times));
    out.notes.push(format!(
        "{} untraced pipeline runs at {} threads ({} available); submit_* count one \
         pipeline run as one operation; submit_p99_ms is the p{:.1}, the highest \
         percentile with {TAIL_BEYOND} runs beyond it",
        walls.len(),
        THREADS,
        available_threads(),
        tail * 100.0
    ));

    if knobs.trace {
        let mut layer = per_layer(&passes, &traced, &untraced, &reference, &issued, &mut out);
        layer.insert("workloads.build_s", median(&build_times));
        out.per_layer = fill(&PER_LAYER, &layer);
        out.spans = Some(log);
    }
    e2e.insert("peak_rss_mib", peak_rss_mib());
    out.end_to_end = fill(&END_TO_END, &e2e);
    out
}

/// Per-layer metrics from the traced runs, plus the traced-run checks.
fn per_layer(
    passes: &[Pass],
    traced: &[TracedOp],
    untraced: &[(Vec<PassOut>, f64, f64)],
    reference: &[PassOut],
    issued: &[u64],
    out: &mut Outcome,
) -> BTreeMap<&'static str, f64> {
    let first = &traced[0];
    for (i, op) in traced.iter().enumerate() {
        let mut problems = Vec::new();
        for ((pass, o), r) in passes.iter().zip(&op.outs).zip(reference) {
            if o.rst != r.rst {
                problems.push(format!(
                    "{}: step-by-step RST differs from policy.plan",
                    pass.scenario.name
                ));
            }
            if o.report_json != r.report_json {
                problems.push(format!(
                    "{}: traced report differs from the untraced one",
                    pass.scenario.name
                ));
            }
        }
        if op.counts != first.counts {
            problems.push(format!(
                "traced run {i} counts {:?} drifted from {:?}",
                op.counts, first.counts
            ));
        }
        let c = &op.counts;
        if c.issued != c.completed || c.issued != c.phys_requests || c.issued == 0 {
            problems.push(format!(
                "traced run {i}: {} requests issued, {} translated, {} completed",
                c.issued, c.phys_requests, c.completed
            ));
        }
        if c.issued != issued.iter().sum::<u64>() {
            problems.push(format!(
                "traced run {i}: issued count differs from translation"
            ));
        }
        let residual_pct = op.residual_s / op.wall_s * 100.0;
        if residual_pct > SPAN_RESIDUAL_LIMIT_PCT {
            problems.push(format!(
                "traced run {i}: {residual_pct:.2}% of the wall is outside the layer spans \
                 (limit {SPAN_RESIDUAL_LIMIT_PCT}%)"
            ));
        }
        if !problems.is_empty() {
            out.fail(1, problems.join("; "));
        }
    }

    let med = |f: &dyn Fn(&TracedOp) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(span, metric) in &crate::LAYER_SPANS {
        if traced.iter().any(|op| op.layers.contains_key(span)) {
            v.insert(
                metric,
                med(&|op| op.layers.get(span).copied().unwrap_or(0.0)),
            );
        }
    }
    let spans = v.clone();
    let c = first.counts;
    let traced_wall = med(&|op| op.wall_s);
    let search_busy = med(&|op| op.search_busy_s);
    let plan = med(&|op| op.plan_s);
    let simulate_s = v.get("pfs.simulate_s").copied().unwrap_or(0.0);
    v.insert(
        "workloads.requests",
        passes.iter().map(|p| p.logical_requests).sum::<u64>() as f64,
    );
    v.insert("middleware.trace_records", c.trace_records as f64);
    v.insert("middleware.collective_calls", c.collective_calls as f64);
    v.insert("middleware.phys_requests", c.phys_requests as f64);
    v.insert("harl.region.regions", c.regions as f64);
    v.insert("harl.optimizer.candidates", c.candidates as f64);
    if search_busy > 0.0 {
        v.insert("harl.optimizer.search_s", search_busy);
        v.insert(
            "harl.optimizer.candidates_per_s",
            c.candidates as f64 / search_busy,
        );
        v.insert(
            "harl.optimizer.parallel_eff",
            search_busy / (plan * THREADS as f64),
        );
    }
    v.insert("harl.rst.rows", c.rows as f64);
    v.insert("pfs.events", c.events as f64);
    v.insert("pfs.events_per_s", c.events as f64 / simulate_s.max(1e-12));
    v.insert("pfs.requests_completed", c.completed as f64);
    v.insert("pfs.sub_requests", c.sub_requests as f64);
    v.insert("simcore.queue_rebuilds", c.queue_rebuilds as f64);
    v.insert("simcore.queue_depth_hwm", c.queue_depth_hwm);
    v.insert("traced_pipeline_s", traced_wall);
    v.insert(
        "span_residual_pct",
        med(&|op| op.residual_s / op.wall_s * 100.0),
    );
    let untraced_wall = median(&untraced.iter().map(|u| u.1).collect::<Vec<_>>());
    v.insert(
        "trace_overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );

    let last = &traced[traced.len() - 1];
    let (fractions, overhead, agree) = profile_engine(passes, last);
    out.check(agree, 0, || {
        "profiled simulation disagrees with the plain one".into()
    });
    for (name, f) in [
        "pfs.sim.dispatch_frac",
        "pfs.sim.device_service_frac",
        "pfs.sim.queue_drain_frac",
        "pfs.sim.recorder_frac",
    ]
    .into_iter()
    .zip(fractions)
    {
        v.insert(name, f);
    }
    v.insert("pfs.sim.profiler_overhead_pct", overhead);
    note_largest_layer(&spans, &mut v, &mut out.notes);
    out.notes.push(format!(
        "{} traced pipeline runs; the search time is the summed per-region busy time",
        traced.len()
    ));
    v
}
