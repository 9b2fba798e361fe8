//! Observability demo: record a run, then mine it.
//!
//! Plans a HARL layout for a small multi-region IOR workload, replays it
//! with the in-memory [`MemoryRecorder`] attached, and then answers two
//! questions straight from the recorded data:
//!
//! 1. *Which requests were slowest, and where did their time go?* — the
//!    per-request spans break each request into mds / nic / disk hops with
//!    queue-wait and service-time deltas.
//! 2. *How well does the Sec. III-D cost model predict reality?* — each
//!    span is replayed through the model for its region's stripe widths
//!    and the residual `actual − predicted` is summarised per region (the
//!    same model-drift signal the on-line monitor uses to trigger
//!    re-optimization).
//!
//! ```sh
//! cargo run --release --example observability_demo
//! ```

use harl_repro::prelude::*;
use harl_repro::simcore::OnlineStats;
use std::sync::Arc;

fn main() {
    // A scaled-down version of the paper's Fig. 11 non-uniform workload:
    // four regions with different request sizes, so the regions get
    // different stripe pairs and visibly different residual profiles.
    let cluster = ClusterConfig::paper_default();
    let workload = MultiRegionIorConfig::paper_default(OpKind::Read, 0.05).build();
    let model = MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());

    let recorder = Arc::new(MemoryRecorder::new());
    let ctx = SimContext::recorded(recorder.clone());
    let kernel = CostKernel::new(&model);
    let policy = HarlPolicy::new(model);
    let (rst, report) = trace_plan_run(
        &ctx,
        &cluster,
        &policy,
        &workload,
        &CollectiveConfig::default(),
    );

    println!(
        "replayed {} requests at {:.1} MiB/s ({} metric series, {} spans recorded)",
        report.requests_completed,
        report.throughput_mib_s(),
        recorder.series_count(),
        recorder.spans().len()
    );

    // --- 1. Top-3 slowest requests, with their hop breakdown. ---
    let mut spans = recorder.spans();
    spans.sort_by_key(|s| std::cmp::Reverse(s.latency_ns()));
    println!("\ntop-3 slowest requests:");
    for span in spans.iter().take(3) {
        let get = |key: &str| label(span, key);
        println!(
            "  request {} ({} {} region {} @ {}): {:.3} ms end-to-end",
            span.id,
            get("op"),
            ByteSize(get("size").parse().unwrap_or(0)),
            get("file"),
            ByteSize(get("offset").parse().unwrap_or(0)),
            span.latency_ns() as f64 / 1e6
        );
        for hop in &span.hops {
            let at = match hop.server {
                Some(s) => format!("{}[{s}]", hop.stage),
                None => hop.stage.to_string(),
            };
            println!(
                "      {:<14} queued {:>9.3} ms, served {:>9.3} ms",
                at,
                hop.queue_ns() as f64 / 1e6,
                hop.service_ns() as f64 / 1e6
            );
        }
    }

    // --- 2. Per-region predicted-vs-actual cost residuals. ---
    let mut residuals: Vec<OnlineStats> = vec![OnlineStats::new(); rst.len()];
    let mut predictions: Vec<OnlineStats> = vec![OnlineStats::new(); rst.len()];
    for span in &spans {
        let Ok(region) = label(span, "file").parse::<usize>() else {
            continue;
        };
        let Some(entry) = rst.entries().get(region) else {
            continue;
        };
        let (Ok(offset), Ok(size)) = (
            label(span, "offset").parse::<u64>(),
            label(span, "size").parse::<u64>(),
        ) else {
            continue;
        };
        let op = if label(span, "op") == "write" {
            OpKind::Write
        } else {
            OpKind::Read
        };
        let predicted = kernel.request_cost(offset, size, op, entry.widths());
        predictions[region].push(predicted);
        residuals[region].push(span.latency_ns() as f64 / 1e9 - predicted);
    }
    println!("\nper-region cost-model residuals (actual − predicted):");
    println!(
        "  {:<8} {:>12} {:>8} {:>14} {:>14} {:>14}",
        "region", "(h, s) KiB", "n", "predicted", "mean residual", "std dev"
    );
    for (region, entry) in rst.entries().iter().enumerate() {
        let (p, r) = (&predictions[region], &residuals[region]);
        if r.count() == 0 {
            continue;
        }
        println!(
            "  {:<8} {:>12} {:>8} {:>11.3} ms {:>11.3} ms {:>11.3} ms",
            region,
            format!("({}, {})", entry.width(0) / 1024, entry.width(1) / 1024),
            r.count(),
            p.mean() * 1e3,
            r.mean() * 1e3,
            r.std_dev() * 1e3
        );
    }
    println!(
        "\n(the residual mean is the queueing/contention share the isolated-request \
         model cannot see; a drift of the *pattern* moves it sharply, which is what \
         OnlineMonitor::observe_served watches for)"
    );
}

fn label(span: &SpanRecord, key: &str) -> String {
    span.labels
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_default()
}
