//! What one benchmark run produces, and how it is printed.

use crate::spans::SpanLog;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
}

/// Everything one run of one workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: pipeline runs, or fleet submissions.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// End-to-end metrics, from untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics, from the traced and profiled runs (empty when the
    /// run was not traced).
    pub per_layer: Vec<Metric>,
    /// Human-readable notes (sample counts, the largest layer).
    pub notes: Vec<String>,
    /// Spans of the traced run, if any.
    pub spans: Option<SpanLog>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// Failed operations, at most the attempted ones.
    pub fn failed_ops(&self) -> u64 {
        self.failed.min(self.attempted)
    }

    /// Records a failed check. `ops` is how many operations it condemns
    /// (0 for a check about the run as a whole, which still makes the run
    /// incorrect).
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.failures.push(what);
    }

    /// Checks `ok`, recording `what` as a failure condemning `ops`
    /// operations when it does not hold.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(ops, what());
        }
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed_ops() as f64 / self.attempted.max(1) as f64
    }

    /// All metrics of both tiers by name.
    pub fn metric_map(&self) -> BTreeMap<&'static str, f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .map(|m| (m.name, m.value))
            .collect()
    }

    /// The human-readable report printed before the result line.
    pub fn render(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {workload}  seed {seed}  {}",
            if traced { "traced" } else { "untraced" }
        );
        let tier = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        for m in tier {
            let _ = writeln!(out, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  {:<34} {:>16.6} ratio  ({} failed of {} attempted)",
            "error_rate",
            self.error_rate(),
            self.failed_ops(),
            self.attempted
        );
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED CHECK: {f}");
        }
        out
    }

    /// The machine-readable result: one JSON object on one line.
    pub fn result_line(&self, traced: bool) -> String {
        let tier = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = tier
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed_ops(),
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives; non-finite values (which JSON cannot carry) become 0.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    // `{:?}` prints the shortest round-trip form, e.g. `1e-7` (valid JSON).
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.end_to_end.push(Metric {
            name: "pipeline_s",
            value: 0.123_456_789,
            unit: "s",
        });
        let line = o.result_line(false);
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(
            v.get("correct").and_then(serde_json::Value::as_bool),
            Some(true)
        );
        assert!(line.contains("0.123456789"));
        o.fail(1, "x".into());
        assert!(!o.correct());
        assert_eq!(o.error_rate(), 0.25);
    }
}
