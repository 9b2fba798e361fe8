//! End-to-end, layer-by-layer benchmark of the HARL reproduction.
//!
//! One command runs one workload from a single process: the offline
//! Trace → Analysis (Alg. 1/2) → Place → Run pipeline on five workload
//! shapes, and the multi-tenant planning service on a sixth. It measures
//! every layer from outside, by timing calls into the layer's public
//! functions, and checks every output. See `README.md` for the metrics.

pub mod compare;
pub mod counters;
pub mod offline;
pub mod outcome;
pub mod serve;
pub mod spans;
pub mod spec;
pub mod stats;

use outcome::{Metric, Outcome};
use spec::{Knobs, WorkloadId};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("pipeline_s", "s"),
    ("plan_s", "s"),
    ("layout_mib_s", "MiB/s"),
    ("submit_p50_ms", "ms"),
    ("submit_p99_ms", "ms"),
    ("submits_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run, with their units. A
/// layer a workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("workloads.build_s", "s"),
    ("workloads.requests", "count"),
    ("middleware.trace_s", "s"),
    ("middleware.trace_records", "count"),
    ("middleware.collective_calls", "count"),
    ("middleware.translate_s", "s"),
    ("middleware.phys_requests", "count"),
    ("harl.trace.sort_s", "s"),
    ("harl.region.divide_s", "s"),
    ("harl.region.regions", "count"),
    ("harl.optimizer.search_s", "s"),
    ("harl.optimizer.candidates", "count"),
    ("harl.optimizer.candidates_per_s", "1/s"),
    ("harl.optimizer.parallel_eff", "ratio"),
    ("harl.policy.plan_s", "s"),
    ("harl.rst.build_s", "s"),
    ("harl.rst.rows", "count"),
    ("middleware.placement.place_s", "s"),
    ("pfs.simulate_s", "s"),
    ("pfs.events", "count"),
    ("pfs.events_per_s", "1/s"),
    ("pfs.requests_completed", "count"),
    ("pfs.sub_requests", "count"),
    ("simcore.queue_rebuilds", "count"),
    ("simcore.queue_depth_hwm", "count"),
    ("pfs.sim.dispatch_frac", "ratio"),
    ("pfs.sim.device_service_frac", "ratio"),
    ("pfs.sim.queue_drain_frac", "ratio"),
    ("pfs.sim.recorder_frac", "ratio"),
    ("pfs.sim.profiler_overhead_pct", "%"),
    ("report.serialize_s", "s"),
    ("harl.fingerprint_s", "s"),
    ("middleware.serve.submit_hit_s", "s"),
    ("middleware.serve.submit_stale_s", "s"),
    ("middleware.serve.submit_miss_s", "s"),
    ("middleware.serve.observe_s", "s"),
    ("middleware.serve.tick_s", "s"),
    ("serve.submissions", "count"),
    ("serve.hits", "count"),
    ("serve.stale", "count"),
    ("serve.misses", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.regions_reused", "count"),
    ("serve.regions_planned", "count"),
    ("serve.region_reuse_ratio", "ratio"),
    ("serve.adaptations", "count"),
    ("serve.batch_apply_ratio", "ratio"),
    ("traced_pipeline_s", "s"),
    ("span_residual_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("largest_layer_share", "ratio"),
];

/// The leaf spans of a traced run, each named after the public call it
/// times, and the per-layer metric its median wall time is reported as.
pub const LAYER_SPANS: [(&str, &str); 15] = [
    ("middleware.trace", "middleware.trace_s"),
    ("harl.trace.sort", "harl.trace.sort_s"),
    ("harl.region.divide", "harl.region.divide_s"),
    ("harl.optimizer.search", "harl.optimizer.search_s"),
    ("harl.policy.plan", "harl.policy.plan_s"),
    ("harl.rst.build", "harl.rst.build_s"),
    ("middleware.placement.place", "middleware.placement.place_s"),
    ("middleware.translate", "middleware.translate_s"),
    ("pfs.simulate", "pfs.simulate_s"),
    ("report.serialize", "report.serialize_s"),
    (
        "middleware.serve.submit_hit",
        "middleware.serve.submit_hit_s",
    ),
    (
        "middleware.serve.submit_stale",
        "middleware.serve.submit_stale_s",
    ),
    (
        "middleware.serve.submit_miss",
        "middleware.serve.submit_miss_s",
    ),
    ("middleware.serve.observe", "middleware.serve.observe_s"),
    ("middleware.serve.tick", "middleware.serve.tick_s"),
];

/// Runs one workload and returns everything it measured and checked.
pub fn run(id: WorkloadId, seed: u64, knobs: &Knobs) -> Outcome {
    match id {
        WorkloadId::ServeFleet => serve::run(seed, knobs),
        offline => offline::run(offline, seed, knobs),
    }
}

/// The metrics of `table` in table order, with values from `values` and 0
/// for any metric the workload does not produce (a bypassed layer).
pub(crate) fn fill(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// Names the layer with the largest median span wall time in `spans`
/// (per-layer metric name → seconds) and records its share of the traced
/// pipeline in `values`.
pub(crate) fn note_largest_layer(
    spans: &BTreeMap<&'static str, f64>,
    values: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) {
    let total = values.get("traced_pipeline_s").copied().unwrap_or(0.0);
    let largest = LAYER_SPANS
        .iter()
        .filter_map(|&(_, metric)| spans.get(metric).map(|v| (metric, *v)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((metric, secs)) = largest {
        let share = if total > 0.0 { secs / total } else { 0.0 };
        values.insert("largest_layer_share", share);
        notes.push(format!(
            "largest layer: {} ({:.1}% of the traced pipeline)",
            metric.trim_end_matches("_s"),
            share * 100.0
        ));
    }
}
