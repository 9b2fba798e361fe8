//! The planning-service workload: a closed loop with one caller replaying a
//! seeded multi-tenant fleet through `PlanningService::{submit,
//! observe_served, tick}` the way `ServeSpec::run` does.
//!
//! The set-up generates the trace of every template, plain and drifted (a
//! job's trace is a pure function of its template and its drift flag), and
//! each replay starts from a freshly constructed service.
//! A replay is one pass over the whole fleet; a submission is one
//! operation. Between replays the run cold-plans every trace of the
//! catalogue (`plan_s`), the path a submission takes when nothing is cached.

use crate::counters::Totals;
use crate::offline::tiles;
use crate::outcome::Outcome;
use crate::spans::SpanLog;
use crate::spec::{serve_fleet, Knobs, THREADS};
use crate::stats::{
    available_threads, median, peak_rss_mib, quantile, secs_since, tail_level, timed,
};
use crate::{fill, note_largest_layer, END_TO_END, PER_LAYER};
use harl_repro::harl::{fingerprint_sorted, plan_file, RegionRequests};
use harl_repro::middleware::ServeStats;
use harl_repro::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Planner threads of the measured service and of the cold planning passes.
/// The fleet's files are small (a few regions, about 2 ms to plan), so a
/// second thread saves little per plan, while starting and joining it on
/// every re-plan makes each one wait for the second core to be scheduled:
/// on a shared two-core host that wait swung whole replays by 2.5x while
/// single-threaded work held steady. The cross-thread check runs
/// `ServeSpec::run` at the full budget, [`THREADS`], instead.
const SERVE_THREADS: usize = 1;
/// Extra set-ups timed between replays; `setup_s` is the median of all of
/// a run's set-ups. A set-up takes about 2 ms, so spreading many of them
/// over the run costs little and lets `setup_s` see the same machine as the
/// replays, not only the run's first milliseconds.
const SETUPS_PER_ROUND: usize = 3;
/// Fewest untraced replays a run measures.
const MIN_UNTRACED: usize = 3;
/// Fewest traced replays a traced run measures.
const MIN_TRACED: usize = 2;
/// Distinct traces resubmitted to a fresh service for the exact-resubmission
/// check.
const RESUBMIT_SAMPLE: usize = 8;
/// Largest share of a traced replay's wall time that may fall outside the
/// service-call spans.
pub const SPAN_RESIDUAL_LIMIT_PCT: f64 = 5.0;

type TraceKey = (usize, bool);

/// The generated inputs of one fleet.
struct Fleet {
    spec: ServeSpec,
    model: MultiProfileModel,
    jobs: Vec<TrafficJob>,
    /// Every template's trace and file size, plain and drifted.
    traces: BTreeMap<TraceKey, (Trace, u64)>,
}

impl Fleet {
    fn input(&self, job: &TrafficJob) -> &(Trace, u64) {
        &self.traces[&(job.template, job.drifted)]
    }
}

/// What one replay of the fleet produced.
struct Replay {
    wall_s: f64,
    /// Median and tail submit latency.
    latency: Latency,
    outcomes: Vec<PlanOutcome>,
    rsts: Vec<RegionStripeTable>,
    stats: ServeStats,
    /// Span seconds by name (traced replays only).
    layers: BTreeMap<&'static str, f64>,
    residual_s: f64,
    totals: Totals,
}

/// One replay's submit latency summary, in seconds. Each replay is
/// summarised on its own (its 4096 submissions put ten and more samples
/// beyond p99) and the run reports the median over replays, so memory does
/// not grow with the replay count and one disturbed replay cannot move the
/// figure.
#[derive(Debug, Clone, Copy)]
struct Latency {
    p50: f64,
    tail: f64,
}

impl Latency {
    fn of(latencies: &[f64]) -> Latency {
        Latency {
            p50: quantile(latencies, 0.5),
            tail: quantile(latencies, tail_level(latencies.len(), 0.99)),
        }
    }
}

fn setup(seed: u64) -> (Fleet, f64) {
    let spec = serve_fleet(seed);
    if let Err(e) = spec.validate() {
        panic!("benchmark fleet is invalid: {e}");
    }
    let model = MultiProfileModel::from_cluster(&spec.build_cluster());
    let ((jobs, traces), build_s) = timed(|| {
        // The whole catalogue, not just the keys this seed's schedule
        // draws, so a cold planning pass does the same work on every seed.
        let traces = (0..spec.traffic.templates)
            .flat_map(|template| [false, true].map(|drifted| (template, drifted)))
            .map(|(template, drifted)| {
                let job = TrafficJob {
                    tick: 0,
                    tenant: 0,
                    template,
                    drifted,
                };
                let (workload, file_size) = spec.traffic.build_workload(&job);
                ((template, drifted), (collect_trace(&workload), file_size))
            })
            .collect();
        (spec.traffic.jobs(), traces)
    });
    (
        Fleet {
            spec,
            model,
            jobs,
            traces,
        },
        build_s,
    )
}

/// One set-up: the fleet's inputs plus service construction. Returns the
/// fleet, the input-generation seconds and the whole set-up's seconds.
fn timed_setup(seed: u64) -> (Fleet, f64, f64) {
    let ((fleet, build_s), secs) = timed(|| {
        let (fleet, build_s) = setup(seed);
        drop(std::hint::black_box(service(&fleet)));
        (fleet, build_s)
    });
    (fleet, build_s, secs)
}

fn service(fleet: &Fleet) -> PlanningService {
    PlanningService::new(fleet.model.clone(), fleet.spec.serve.clone())
}

/// The drift probe `ServeSpec::run` streams after a drifted arrival: small
/// off-plan reads with punishing latencies, enough to close two monitor
/// windows.
fn probe(i: u64) -> TraceRecord {
    TraceRecord {
        rank: 0,
        fd: 0,
        op: OpKind::Read,
        offset: (i % 16) * 4096,
        size: 4096,
        timestamp: SimNanos::from_nanos(i),
    }
}

fn outcome_span(outcome: PlanOutcome) -> &'static str {
    match outcome {
        PlanOutcome::CacheHit => "middleware.serve.submit_hit",
        PlanOutcome::StaleRefresh => "middleware.serve.submit_stale",
        PlanOutcome::Miss => "middleware.serve.submit_miss",
    }
}

/// Replays the fleet through `svc`. With a span log, every service call
/// gets a span and a metrics-tier recorder is attached.
fn replay(fleet: &Fleet, mut svc: PlanningService, mut log: Option<&mut SpanLog>) -> Replay {
    let recorder = Arc::new(MemoryRecorder::metrics_only());
    let ctx = if log.is_some() {
        SimContext::recorded(recorder.clone()).with_threads(SERVE_THREADS)
    } else {
        SimContext::new().with_threads(SERVE_THREADS)
    };
    let window = 2 * fleet.spec.serve.online.window as u64;
    let n = fleet.jobs.len();
    let mut latencies = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut rsts = Vec::with_capacity(n);
    let mut current_tick = 0usize;

    let root = log.as_deref_mut().map(|l| {
        l.begin_op();
        let open = l.enter("serve.replay");
        (open, l.spans().len() - 1)
    });
    let start = Instant::now();
    for job in &fleet.jobs {
        if let Some(l) = log.as_deref_mut() {
            l.begin_op();
        }
        while current_tick < job.tick {
            match log.as_deref_mut() {
                Some(l) => {
                    l.time("middleware.serve.tick", || svc.tick(&ctx));
                }
                None => {
                    svc.tick(&ctx);
                }
            }
            current_tick += 1;
        }
        let (trace, file_size) = fleet.input(job);
        let ticket = match log.as_deref_mut() {
            Some(l) => {
                let open = l.enter("middleware.serve.submit");
                let ticket = svc.submit(&ctx, job.tenant, trace, *file_size);
                let secs = l.exit_as(open, Some(outcome_span(ticket.outcome)));
                latencies.push(secs);
                ticket
            }
            None => {
                let t0 = Instant::now();
                let ticket = svc.submit(&ctx, job.tenant, trace, *file_size);
                latencies.push(secs_since(t0));
                ticket
            }
        };
        outcomes.push(ticket.outcome);
        rsts.push(ticket.rst);
        if job.drifted {
            let mut observe = || {
                for i in 0..window {
                    svc.observe_served(job.tenant, probe(i), 0.5);
                }
            };
            match log.as_deref_mut() {
                Some(l) => {
                    l.time("middleware.serve.observe", observe);
                }
                None => observe(),
            }
        }
    }
    // Close the final tick so every pending update lands.
    match log.as_deref_mut() {
        Some(l) => {
            l.time("middleware.serve.tick", || svc.tick(&ctx));
        }
        None => {
            svc.tick(&ctx);
        }
    }
    let mut wall_s = secs_since(start);
    let mut layers = BTreeMap::new();
    let mut residual_s = 0.0;
    if let (Some(l), Some((open, root_id))) = (log, root) {
        wall_s = l.exit(open);
        residual_s = wall_s - l.children_secs(root_id);
        for span in &l.spans()[root_id + 1..] {
            *layers.entry(span.name).or_default() += span.secs();
        }
    }
    Replay {
        wall_s,
        latency: Latency::of(&latencies),
        outcomes,
        rsts,
        stats: svc.stats(),
        layers,
        residual_s,
        totals: Totals::read(&recorder),
    }
}

/// Model-predicted seconds of serving `sorted` under `rst`: the paper's
/// cost model summed over every request, region by region.
fn predicted_secs(
    model: &MultiProfileModel,
    sorted: &[TraceRecord],
    rst: &RegionStripeTable,
) -> f64 {
    rst.entries()
        .iter()
        .map(|e| {
            let lo = sorted.partition_point(|r| r.offset < e.offset);
            let hi = sorted.partition_point(|r| r.offset < e.end());
            RegionRequests::new(&sorted[lo..hi], e.offset).cost_of_widths(
                model,
                e.widths(),
                usize::MAX,
            )
        })
        .sum()
}

/// Model-predicted aggregate throughput of the layouts one replay handed
/// out, over the distinct traces the fleet submitted: each trace's bytes
/// over its predicted serving time under the RST its last submission
/// returned. Each distinct trace counts once, so the figure does not swing
/// with how often the seed happens to draw each template.
fn predicted_mib_s(fleet: &Fleet, replay: &Replay) -> f64 {
    let mut last: BTreeMap<TraceKey, &RegionStripeTable> = BTreeMap::new();
    for (job, rst) in fleet.jobs.iter().zip(&replay.rsts) {
        last.insert((job.template, job.drifted), rst);
    }
    let mut bytes = 0u64;
    let mut secs = 0.0;
    for (key, rst) in last {
        let trace = &fleet.traces[&key].0;
        let (read, written) = trace.total_bytes();
        bytes += read + written;
        secs += predicted_secs(&fleet.model, &trace.sorted_by_offset(), rst);
    }
    bytes as f64 / (1024.0 * 1024.0) / secs.max(1e-12)
}

/// The counters `ServeSpec::run` reports, in its field order.
fn report_counters(rep: &ServeReport) -> [u64; 16] {
    [
        rep.plans_hit,
        rep.plans_stale,
        rep.plans_miss,
        rep.cache_hits,
        rep.cache_misses,
        rep.cache_stale,
        rep.cache_evictions,
        rep.regions_reused,
        rep.regions_planned,
        rep.region_pool_hits,
        rep.region_pool_misses,
        rep.adaptations,
        rep.batch_enqueued,
        rep.batch_applied,
        rep.batch_coalesced,
        rep.ticks,
    ]
}

/// The same counters, from a replay.
fn replay_counters(r: &Replay) -> [u64; 16] {
    let (hits, stale, misses) = split(&r.outcomes);
    let s = &r.stats;
    [
        hits,
        stale,
        misses,
        s.cache.hits,
        s.cache.misses,
        s.cache.stale,
        s.cache.evictions,
        s.regions_reused,
        s.regions_planned,
        s.region_pool.0,
        s.region_pool.1,
        s.adaptations,
        s.batch_enqueued,
        s.batch_applied,
        s.batch_coalesced,
        s.ticks,
    ]
}

fn split(outcomes: &[PlanOutcome]) -> (u64, u64, u64) {
    let count = |o: PlanOutcome| outcomes.iter().filter(|x| **x == o).count() as u64;
    (
        count(PlanOutcome::CacheHit),
        count(PlanOutcome::StaleRefresh),
        count(PlanOutcome::Miss),
    )
}

/// Checks that hold for every replay.
fn check_replay(fleet: &Fleet, r: &Replay, reference: &Replay, out: &mut Outcome) {
    let n = fleet.jobs.len() as u64;
    let (hits, stale, misses) = split(&r.outcomes);
    let s = &r.stats;
    let bad_tiles = fleet
        .jobs
        .iter()
        .zip(&r.rsts)
        .filter(|(job, rst)| !tiles(rst, fleet.input(job).1))
        .count() as u64;
    out.check(bad_tiles == 0, bad_tiles, || {
        format!("{bad_tiles} submissions returned an RST that does not tile the file")
    });
    out.check(hits + stale + misses == n && s.submits == n, 0, || {
        format!("hit {hits} + stale {stale} + miss {misses} != {n} submissions")
    });
    out.check(
        s.batch_applied + s.batch_coalesced == s.batch_enqueued,
        0,
        || {
            format!(
                "applied {} + coalesced {} != enqueued {}",
                s.batch_applied, s.batch_coalesced, s.batch_enqueued
            )
        },
    );
    let drifted = r
        .outcomes
        .iter()
        .zip(&reference.outcomes)
        .filter(|(a, b)| a != b)
        .count() as u64;
    out.check(
        drifted == 0 && r.stats == reference.stats && r.rsts == reference.rsts,
        drifted,
        || format!("replay drifted from the first: {drifted} outcomes differ"),
    );
}

/// One cold planning pass: every trace of the fleet's catalogue sorted and
/// planned by `plan_file` with nothing to reuse, the path `HarlPolicy::plan`
/// and `harl-cli plan` take. Returns the RSTs in trace-key order and the
/// pass's wall time in seconds.
fn cold_plan(fleet: &Fleet, ctx: &SimContext) -> (Vec<RegionStripeTable>, f64) {
    let cfg = &fleet.spec.serve;
    timed(|| {
        fleet
            .traces
            .values()
            .map(|(trace, file_size)| {
                plan_file(
                    ctx,
                    &fleet.model,
                    &trace.sorted_by_offset(),
                    *file_size,
                    &cfg.division,
                    &cfg.optimizer,
                    None,
                )
                .rst
            })
            .collect()
    })
}

/// Checks a cold planning pass: every RST tiles its file and equals the
/// run's first pass (`reference`, or the pass itself when it is the first).
fn check_cold(
    fleet: &Fleet,
    rsts: &[RegionStripeTable],
    reference: &[RegionStripeTable],
    out: &mut Outcome,
) {
    let bad = fleet
        .traces
        .values()
        .zip(rsts)
        .zip(reference)
        .filter(|(((_, file_size), rst), first)| !tiles(rst, *file_size) || rst != first)
        .count() as u64;
    out.check(bad == 0, bad, || {
        format!("{bad} cold plans do not tile their file or differ from the first pass")
    });
}

/// Checks replay `r` against `reference` (the run's first untraced
/// replay, or `r` itself when it is the first) and returns it. Only the
/// first replay keeps its RSTs, so memory does not grow with the number
/// of replays.
fn checked(fleet: &Fleet, mut r: Replay, reference: Option<&Replay>, out: &mut Outcome) -> Replay {
    check_replay(fleet, &r, reference.unwrap_or(&r), out);
    if reference.is_some() {
        r.rsts = Vec::new();
    }
    r
}

/// Runs the serve fleet.
pub fn run(seed: u64, knobs: &Knobs) -> Outcome {
    let mut out = Outcome::default();
    let (fleet, build_s, setup_s) = timed_setup(seed);
    let mut setup_times = vec![setup_s];
    let mut build_times = vec![build_s];

    let mut log = SpanLog::new();
    let mut untraced: Vec<Replay> = Vec::new();
    let mut traced: Vec<Replay> = Vec::new();
    let plan_ctx = SimContext::new().with_threads(SERVE_THREADS);
    let mut cold_reference: Vec<RegionStripeTable> = Vec::new();
    let mut plan_times = Vec::new();
    let start = Instant::now();
    let n = fleet.jobs.len() as u64;
    loop {
        for _ in 0..SETUPS_PER_ROUND {
            let (extra, build_s, setup_s) = timed_setup(seed);
            setup_times.push(setup_s);
            build_times.push(build_s);
            drop(extra);
        }
        out.attempted += n;
        let r = replay(&fleet, service(&fleet), None);
        let r = checked(&fleet, r, untraced.first(), &mut out);
        untraced.push(r);
        out.attempted += fleet.traces.len() as u64;
        let (rsts, secs) = cold_plan(&fleet, &plan_ctx);
        plan_times.push(secs);
        if cold_reference.is_empty() {
            cold_reference = rsts;
            check_cold(&fleet, &cold_reference, &cold_reference, &mut out);
        } else {
            check_cold(&fleet, &rsts, &cold_reference, &mut out);
        }
        if knobs.trace {
            out.attempted += n;
            let r = replay(&fleet, service(&fleet), Some(&mut log));
            let r = checked(&fleet, r, untraced.first(), &mut out);
            traced.push(r);
        }
        let enough = untraced.len() >= MIN_UNTRACED && (!knobs.trace || traced.len() >= MIN_TRACED);
        if enough && secs_since(start) >= knobs.seconds {
            break;
        }
    }
    let reference = &untraced[0];

    // The user path at the full thread budget: `ServeSpec::run` must
    // report the same counters as the measured single-thread replays.
    let (hits, stale, misses) = split(&reference.outcomes);
    let mut user_spec = fleet.spec.clone();
    user_spec.threads = Some(THREADS);
    match user_spec.run(&SimContext::new()) {
        Ok(rep) => {
            let (theirs, ours) = (report_counters(&rep), replay_counters(reference));
            out.check(theirs == ours && rep.jobs == n, 0, || {
                format!("ServeSpec::run counters {theirs:?} differ from the replay's {ours:?}")
            });
        }
        Err(e) => out.fail(0, format!("ServeSpec::run failed: {e}")),
    }
    check_resubmissions(&fleet, &cold_reference, &mut out);

    // End-to-end metrics.
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let over_replays = |f: fn(&Latency) -> f64| {
        median(&untraced.iter().map(|r| f(&r.latency)).collect::<Vec<_>>())
    };
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    e2e.insert("pipeline_s", median(&walls));
    e2e.insert("plan_s", median(&plan_times));
    e2e.insert("layout_mib_s", predicted_mib_s(&fleet, reference));
    e2e.insert("submit_p50_ms", over_replays(|l| l.p50) * 1e3);
    e2e.insert("submit_p99_ms", over_replays(|l| l.tail) * 1e3);
    e2e.insert("submits_per_s", n as f64 / median(&walls));
    e2e.insert("setup_s", median(&setup_times));
    out.notes.push(format!(
        "{} replays of {n} submissions at {} planner threads ({} available): submit \
         latency is the median over replays of each replay's p50 and p{:.1} ({hits} hit, \
         {stale} stale, {misses} miss per replay); plan_s is the median of {} cold \
         planning passes over the {} traces of the fleet's catalogue",
        untraced.len(),
        SERVE_THREADS,
        available_threads(),
        tail_level(fleet.jobs.len(), 0.99) * 100.0,
        plan_times.len(),
        fleet.traces.len()
    ));

    if knobs.trace {
        let mut v = per_layer(&fleet, &traced, &untraced, &mut out);
        v.insert("workloads.build_s", median(&build_times));
        out.per_layer = fill(&PER_LAYER, &v);
        out.spans = Some(log);
    }
    e2e.insert("peak_rss_mib", peak_rss_mib());
    out.end_to_end = fill(&END_TO_END, &e2e);
    out
}

/// Exact resubmissions: a sample of the fleet's catalogue, each
/// submitted twice by its own tenant to a fresh service. The second
/// submission must hit the plan cache and return an RST bit-identical to
/// the trace's cold `plan_file` in `cold`. The service here plans at
/// [`THREADS`] and `cold` at [`SERVE_THREADS`], so this also checks that
/// the thread count does not change a plan.
fn check_resubmissions(fleet: &Fleet, cold: &[RegionStripeTable], out: &mut Outcome) {
    let ctx = SimContext::new().with_threads(THREADS);
    let mut svc = service(fleet);
    let sample = fleet.traces.values().zip(cold).take(RESUBMIT_SAMPLE);
    for (tenant, ((trace, file_size), cold)) in sample.enumerate() {
        let tenant = tenant as u64;
        svc.submit(&ctx, tenant, trace, *file_size);
        let again = svc.submit(&ctx, tenant, trace, *file_size);
        out.check(
            again.outcome == PlanOutcome::CacheHit && again.rst == *cold,
            0,
            || format!("tenant {tenant}: exact resubmission is not a bit-identical cache hit"),
        );
    }
}

/// Per-layer metrics from the traced replays, plus the traced-run checks.
fn per_layer(
    fleet: &Fleet,
    traced: &[Replay],
    untraced: &[Replay],
    out: &mut Outcome,
) -> BTreeMap<&'static str, f64> {
    let med = |f: &dyn Fn(&Replay) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &(span, metric) in &crate::LAYER_SPANS {
        if traced.iter().any(|r| r.layers.contains_key(span)) {
            v.insert(metric, med(&|r| r.layers.get(span).copied().unwrap_or(0.0)));
        }
    }
    for (i, r) in traced.iter().enumerate() {
        let pct = r.residual_s / r.wall_s * 100.0;
        out.check(pct <= SPAN_RESIDUAL_LIMIT_PCT, 0, || {
            format!(
                "traced replay {i}: {pct:.2}% of the wall is outside the service spans \
                 (limit {SPAN_RESIDUAL_LIMIT_PCT}%)"
            )
        });
        let t = &r.totals;
        let s = &r.stats;
        out.check(
            t.counter("harl.cache.hits") == s.cache.hits
                && t.counter("harl.cache.misses") == s.cache.misses
                && t.counter("harl.cache.stale") == s.cache.stale,
            0,
            || format!("traced replay {i}: harl.cache.* counters disagree with the service stats"),
        );
    }

    // Fingerprinting, timed in its own pass over the fleet's submissions
    // (it also runs inside every submit, where it cannot be split out).
    let sorted: BTreeMap<TraceKey, Vec<TraceRecord>> = fleet
        .traces
        .iter()
        .map(|(k, (t, _))| (*k, t.sorted_by_offset()))
        .collect();
    let cfg = &fleet.spec.serve;
    let start = Instant::now();
    for job in &fleet.jobs {
        let key = (job.template, job.drifted);
        std::hint::black_box(fingerprint_sorted(
            &sorted[&key],
            fleet.input(job).1,
            &cfg.division,
            &fleet.model,
        ));
    }
    v.insert("harl.fingerprint_s", secs_since(start));

    let r = &traced[0];
    let s = &r.stats;
    let (hits, stale, misses) = split(&r.outcomes);
    let requests: usize = fleet.jobs.iter().map(|j| fleet.input(j).0.len()).sum();
    v.insert("workloads.requests", requests as f64);
    v.insert("serve.submissions", fleet.jobs.len() as f64);
    v.insert("serve.hits", hits as f64);
    v.insert("serve.stale", stale as f64);
    v.insert("serve.misses", misses as f64);
    v.insert("serve.cache_hit_rate", s.cache.hit_rate());
    v.insert("serve.regions_reused", s.regions_reused as f64);
    v.insert("serve.regions_planned", s.regions_planned as f64);
    let regions = s.regions_reused + s.regions_planned;
    v.insert(
        "serve.region_reuse_ratio",
        if regions == 0 {
            0.0
        } else {
            s.regions_reused as f64 / regions as f64
        },
    );
    v.insert("serve.adaptations", s.adaptations as f64);
    v.insert(
        "serve.batch_apply_ratio",
        if s.batch_enqueued == 0 {
            0.0
        } else {
            s.batch_applied as f64 / s.batch_enqueued as f64
        },
    );
    let traced_wall = med(&|r| r.wall_s);
    let untraced_wall = median(&untraced.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    v.insert("traced_pipeline_s", traced_wall);
    v.insert(
        "span_residual_pct",
        med(&|r| r.residual_s / r.wall_s * 100.0),
    );
    v.insert(
        "trace_overhead_pct",
        (traced_wall - untraced_wall) / untraced_wall * 100.0,
    );
    let spans = v.clone();
    note_largest_layer(&spans, &mut v, &mut out.notes);
    out.notes.push(format!("{} traced replays", traced.len()));
    v
}
