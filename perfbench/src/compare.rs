//! Compares two runs of one workload against the bounds in
//! `BENCHMARK.json`: which end-to-end metrics got worse by more than their
//! bound, and which layer the extra time went to.

use crate::LAYER_SPANS;
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Largest tolerated worsening, as a share of the baseline value.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .and_then(serde_json::Value::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// End-to-end metrics of `candidate` worse than `baseline` by more than
/// their bound.
pub fn regressions(
    baseline: &BTreeMap<&'static str, f64>,
    candidate: &BTreeMap<&'static str, f64>,
    bounds: &[Bound],
) -> Vec<String> {
    bounds
        .iter()
        .filter(|b| {
            let (Some(&base), Some(&cand)) = (
                baseline.get(b.name.as_str()),
                candidate.get(b.name.as_str()),
            ) else {
                return false;
            };
            let worse = if b.lower_is_better {
                cand - base
            } else {
                base - cand
            };
            worse > b.bound * base.abs()
        })
        .map(|b| b.name.clone())
        .collect()
}

/// The layer whose time grew most from `baseline` to `candidate`, as its
/// per-layer metric name.
pub fn attribute(
    baseline: &BTreeMap<&'static str, f64>,
    candidate: &BTreeMap<&'static str, f64>,
) -> Option<&'static str> {
    LAYER_SPANS
        .iter()
        .filter_map(|&(_, metric)| {
            let growth = candidate.get(metric)? - baseline.get(metric).copied().unwrap_or(0.0);
            Some((metric, growth))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .filter(|(_, growth)| *growth > 0.0)
        .map(|(metric, _)| metric)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&'static str, f64)]) -> BTreeMap<&'static str, f64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn flags_only_worsening_beyond_the_bound() {
        let bounds = vec![
            Bound {
                name: "pipeline_s".into(),
                lower_is_better: true,
                bound: 0.1,
            },
            Bound {
                name: "submits_per_s".into(),
                lower_is_better: false,
                bound: 0.1,
            },
        ];
        let base = map(&[("pipeline_s", 1.0), ("submits_per_s", 100.0)]);
        let same = map(&[("pipeline_s", 1.05), ("submits_per_s", 95.0)]);
        let slow = map(&[("pipeline_s", 1.5), ("submits_per_s", 80.0)]);
        let fast = map(&[("pipeline_s", 0.5), ("submits_per_s", 200.0)]);
        assert!(regressions(&base, &same, &bounds).is_empty());
        assert_eq!(
            regressions(&base, &slow, &bounds),
            vec!["pipeline_s".to_string(), "submits_per_s".to_string()]
        );
        assert!(regressions(&base, &fast, &bounds).is_empty());
    }

    #[test]
    fn attributes_the_layer_that_grew_most() {
        let base = map(&[("middleware.trace_s", 0.3), ("pfs.simulate_s", 0.1)]);
        let cand = map(&[("middleware.trace_s", 0.8), ("pfs.simulate_s", 0.12)]);
        assert_eq!(attribute(&base, &cand), Some("middleware.trace_s"));
        assert_eq!(attribute(&cand, &base), None);
    }
}
