//! Injected-slowdown self-test: a fixed delay added inside the benchmark's
//! wrapper around the trace collection call must be flagged on
//! `btio_collective` as a `pipeline_s` regression, attributed to
//! `middleware.trace_s`, and leave `serve_fleet` (which makes no trace
//! call while it measures) within every bound.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::compare::{attribute, load_bounds, regressions, Bound};
use perfbench::spec::{Knobs, WorkloadId};
use perfbench::stats::median;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

/// Over twice a BTIO pipeline run, so machine noise cannot hide it.
const DELAY: Duration = Duration::from_millis(1500);

fn bounds() -> Vec<Bound> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    load_bounds(&path).expect("BENCHMARK.json bounds")
}

/// Per-metric medians over `runs` alternating runs of `id` without and
/// with the injected delay.
fn alternate(
    id: WorkloadId,
    knobs: Knobs,
    runs: usize,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, f64>) {
    let delayed = Knobs {
        trace_delay: DELAY,
        ..knobs
    };
    let mut sides = [Vec::new(), Vec::new()];
    for _ in 0..runs {
        for (side, k) in sides.iter_mut().zip([knobs, delayed]) {
            let out = perfbench::run(id, 1, &k);
            assert!(out.correct(), "{}: {:?}", id.name(), out.failures);
            side.push(out.metric_map());
        }
    }
    let [base, slow] = sides.map(|maps| {
        maps[0]
            .keys()
            .map(|&k| (k, median(&maps.iter().map(|m| m[k]).collect::<Vec<_>>())))
            .collect()
    });
    (base, slow)
}

#[test]
fn injected_trace_delay_is_flagged_and_attributed() {
    let bounds = bounds();

    let (base, slow) = alternate(WorkloadId::BtioCollective, Knobs::new(1.0, true), 1);
    let flagged = regressions(&base, &slow, &bounds);
    assert!(
        flagged.iter().any(|m| m == "pipeline_s"),
        "pipeline_s not flagged: {flagged:?}"
    );
    assert_eq!(attribute(&base, &slow), Some("middleware.trace_s"));

    // setup_s is left out: the delay cannot reach the set-up, and inside
    // one test process each set-up inherits the heap the previous runs left,
    // so its millisecond timing differs between back-to-back runs by more
    // than the bound. A benchmark run sets up in a fresh process.
    let (base, slow) = alternate(WorkloadId::ServeFleet, Knobs::new(2.0, false), 3);
    let timed: Vec<Bound> = bounds.into_iter().filter(|b| b.name != "setup_s").collect();
    let flagged = regressions(&base, &slow, &timed);
    assert!(flagged.is_empty(), "serve_fleet flagged: {flagged:?}");
}
