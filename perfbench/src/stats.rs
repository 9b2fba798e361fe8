//! Small statistics and process helpers shared by the workload runners.

use std::time::{Duration, Instant};

/// Median of `values` (the mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` in `(0, 1]` of `values`; 0 for an empty slice.
/// With fewer than `1 / (1 - q)` samples this is the largest value.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Hardware threads the host offers (reported next to thread-dependent
/// results).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The quantile reported as a tail latency: `q`, lowered until at least
/// [`TAIL_BEYOND`] samples lie above it (a percentile with fewer samples
/// beyond it is just the largest few values), and never below the median.
pub fn tail_level(samples: usize, q: f64) -> f64 {
    let supported = 1.0 - TAIL_BEYOND as f64 / samples.max(1) as f64;
    q.min(supported).max(0.5)
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` once and returns its result with the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs_since(start))
}

/// Times a call that may be far shorter than the clock's jitter: runs `f`
/// once, and if that took less than `floor`, repeats it until `floor` has
/// passed and reports the mean. Returns the first call's result, the mean
/// and the total time spent.
pub fn timed_floor<T>(floor: Duration, mut f: impl FnMut() -> T) -> (T, f64, f64) {
    let start = Instant::now();
    let out = f();
    let mut calls = 1u32;
    while start.elapsed() < floor {
        std::hint::black_box(f());
        calls += 1;
    }
    let total = secs_since(start);
    (out, total / f64::from(calls), total)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not report it.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[1.0, 5.0, 2.0], 0.99), 5.0);
        assert_eq!(tail_level(40_000, 0.99), 0.99);
        assert_eq!(tail_level(40, 0.99), 0.75);
        assert_eq!(tail_level(6, 0.99), 0.5);
    }
}
