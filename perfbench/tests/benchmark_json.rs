//! `BENCHMARK.json` lists exactly the workloads and metrics the benchmark
//! prints, with the same units.

use perfbench::spec::WorkloadId;
use perfbench::{END_TO_END, PER_LAYER};
use std::path::Path;

fn doc() -> serde_json::Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(doc: &serde_json::Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(serde_json::Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(serde_json::Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let doc = doc();
    assert_eq!(names_and_units(&doc, "end_to_end"), owned(&END_TO_END));
    assert_eq!(names_and_units(&doc, "per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(serde_json::Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(serde_json::Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = WorkloadId::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, ours);
}
