//! Reads the program's own counters out of a metrics-tier recorder.

use harl_repro::simcore::MemoryRecorder;
use std::collections::BTreeMap;

/// Counter totals and gauge high-water marks of one recorder, summed over
/// every label set (a counter labelled per region or per server reads as
/// its whole-run total).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Totals {
    /// Collects the totals from `recorder`'s JSONL export.
    pub fn read(recorder: &MemoryRecorder) -> Totals {
        let mut buf = Vec::new();
        if recorder.write_jsonl(&mut buf).is_err() {
            return Totals::default();
        }
        let mut totals = Totals::default();
        for line in String::from_utf8_lossy(&buf).lines() {
            let Ok(v) = serde_json::from_str::<serde_json::Value>(line) else {
                continue;
            };
            let (Some(kind), Some(name)) = (
                v.get("type").and_then(serde_json::Value::as_str),
                v.get("name").and_then(serde_json::Value::as_str),
            ) else {
                continue;
            };
            let value = v.get("value");
            match kind {
                "counter" => {
                    let add = value.and_then(serde_json::Value::as_u64).unwrap_or(0);
                    *totals.counters.entry(name.to_string()).or_default() += add;
                }
                "gauge" => {
                    let g = value.and_then(serde_json::Value::as_f64).unwrap_or(0.0);
                    let slot = totals.gauges.entry(name.to_string()).or_insert(g);
                    *slot = slot.max(g);
                }
                _ => {}
            }
        }
        totals
    }

    /// A counter's total over all label sets (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's largest value over all label sets (0 if never written).
    pub fn gauge_max(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_repro::simcore::Recorder;

    #[test]
    fn sums_counters_over_labels_and_keeps_gauge_max() {
        let rec = MemoryRecorder::metrics_only();
        rec.counter_add("harl.optimizer.candidates", &[("region", "0".into())], 3);
        rec.counter_add("harl.optimizer.candidates", &[("region", "1".into())], 4);
        rec.gauge_set("sim.queue_depth.hwm", &[], 9.0);
        let t = Totals::read(&rec);
        assert_eq!(t.counter("harl.optimizer.candidates"), 7);
        assert_eq!(t.counter("missing"), 0);
        assert_eq!(t.gauge_max("sim.queue_depth.hwm"), 9.0);
    }
}
