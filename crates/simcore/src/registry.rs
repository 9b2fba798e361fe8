//! The central metric registry: every metric name in the workspace, typed.
//!
//! Before this module existed, ~20 metric names lived as string literals
//! scattered across five crates — a typo in one call site silently forked a
//! series. Every instrumented site now names its metric through one of the
//! constants below (`REGISTRY` lists them all), and the `metric-registry`
//! rule in `harl-lint` rejects any quoted `sim.*`/`pfs.*`/`mw.*`/`harl.*`
//! literal passed to a [`Recorder`](crate::metrics::Recorder) method outside
//! this file.
//!
//! A [`MetricDef`] carries the machine-checked contract of one metric
//! family: its dotted name (validated against
//! `^[a-z0-9_]+(\.[a-z0-9_]+)+$` by the registry tests), the recorder
//! primitive it must be written through ([`MetricKind`]), and the unit of
//! its values ([`Unit`]). Call sites read `DEF.name`; tools (the
//! `harl-cli report` renderer, dashboards) read the kind and unit.
//!
//! Naming convention: `<layer>.<subject>.<quantity>[_<unit-suffix>]`, where
//! the layer prefix is the crate that owns the instrumentation site —
//! `sim.` (engine/flight recorder), `pfs.` (file-system simulator), `mw.`
//! (middleware runtime), `harl.` (planner and online monitor). Quantities
//! measured in a specific unit spell it in the suffix (`_ns`, `_s`).

/// Which [`Recorder`](crate::metrics::Recorder) primitive a metric is
/// written through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic total via `counter_add`.
    Counter,
    /// Last-value or high-water-mark reading via `gauge_set`/`gauge_max`.
    Gauge,
    /// Power-of-two bucketed `u64` distribution via `observe`.
    Histogram,
    /// Welford `f64` summary via `observe_f64`.
    Summary,
    /// Sampled `(sim-time, value)` time-series via `series_point`.
    Series,
}

/// Unit of a metric's recorded values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Dimensionless count (events, requests, jobs).
    Count,
    /// Bytes.
    Bytes,
    /// Simulated or wall-clock nanoseconds.
    Nanoseconds,
    /// Simulated or wall-clock seconds.
    Seconds,
    /// Dimensionless fraction in `[0, 1]` (utilisation and the like).
    Ratio,
    /// US dollars (object-store tier pricing).
    Dollars,
}

impl Unit {
    /// Short suffix used when rendering values (`"B"`, `"ns"`, …).
    pub fn suffix(self) -> &'static str {
        match self {
            Unit::Count => "",
            Unit::Bytes => "B",
            Unit::Nanoseconds => "ns",
            Unit::Seconds => "s",
            Unit::Ratio => "",
            Unit::Dollars => "$",
        }
    }
}

/// The declaration of one metric family.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Dotted series name, e.g. `"pfs.server.queue_wait_ns"`.
    pub name: &'static str,
    /// Recorder primitive the metric is written through.
    pub kind: MetricKind,
    /// Unit of recorded values.
    pub unit: Unit,
    /// One-line description (shown by tooling).
    pub help: &'static str,
}

macro_rules! metrics {
    ($($(#[$doc:meta])* $konst:ident = ($name:literal, $kind:ident, $unit:ident, $help:literal);)+) => {
        $(
            $(#[$doc])*
            pub const $konst: MetricDef = MetricDef {
                name: $name,
                kind: MetricKind::$kind,
                unit: Unit::$unit,
                help: $help,
            };
        )+

        /// Every metric declared in the workspace, for tooling and the
        /// registry hygiene tests.
        pub const REGISTRY: &[MetricDef] = &[$($konst),+];
    };
}

metrics! {
    // --- sim.* — discrete-event engine and flight recorder -------------
    /// Events delivered by the engine over one run.
    SIM_EVENTS_DISPATCHED = ("sim.events.dispatched", Counter, Count,
        "events delivered by the discrete-event engine");
    /// Deepest the event queue ever got.
    SIM_QUEUE_DEPTH_HWM = ("sim.queue_depth.hwm", Gauge, Count,
        "event-queue depth high-water mark");
    /// Calendar-queue geometry retunings (bucket width / ring size).
    SIM_QUEUE_REBUILDS = ("sim.queue.rebuilds", Counter, Count,
        "calendar-queue bucket-geometry retunings over one run");
    /// Wall time the engine spent popping/bookkeeping events.
    SIM_PROFILE_DISPATCH_S = ("sim.profile.dispatch_s", Gauge, Seconds,
        "wall time in event-queue dispatch (pop + loop bookkeeping)");
    /// Wall time in handlers modelling device/network service.
    SIM_PROFILE_DEVICE_SERVICE_S = ("sim.profile.device_service_s", Gauge, Seconds,
        "wall time in device/network service event handlers");
    /// Wall time in completion/control-flow handlers.
    SIM_PROFILE_QUEUE_DRAIN_S = ("sim.profile.queue_drain_s", Gauge, Seconds,
        "wall time draining completions and client control flow");
    /// Wall time inside recorder instrumentation blocks.
    SIM_PROFILE_RECORDER_S = ("sim.profile.recorder_s", Gauge, Seconds,
        "wall time spent feeding the metrics recorder");

    // --- pfs.* — file-system simulator ---------------------------------
    /// File requests issued by clients, labelled by `op`.
    PFS_REQUESTS_ISSUED = ("pfs.requests.issued", Counter, Count,
        "file requests issued by clients");
    /// File requests fully completed, labelled by `op`.
    PFS_REQUESTS_COMPLETED = ("pfs.requests.completed", Counter, Count,
        "file requests completed");
    /// Per-server device queueing delay, labelled by `server`/`kind`.
    PFS_SERVER_QUEUE_WAIT_NS = ("pfs.server.queue_wait_ns", Histogram, Nanoseconds,
        "sub-request queueing delay at the storage device");
    /// Per-server device service time, labelled by `server`/`kind`.
    PFS_SERVER_SERVICE_NS = ("pfs.server.service_ns", Histogram, Nanoseconds,
        "sub-request service time at the storage device");
    /// Bytes landed on each server, labelled by `server`/`kind`.
    PFS_SERVER_BYTES = ("pfs.server.bytes", Counter, Bytes,
        "bytes served by the storage device");
    /// Sub-requests served by each server, labelled by `server`/`kind`.
    PFS_SERVER_SUB_REQUESTS = ("pfs.server.sub_requests", Counter, Count,
        "sub-requests served by the storage device");
    /// Sampled sub-requests in flight at the device (queued + in service).
    PFS_SERVER_QUEUE_DEPTH = ("pfs.server.queue_depth", Series, Count,
        "sampled sub-requests in flight at the storage device");
    /// Sampled device utilisation over the last sample window.
    PFS_SERVER_UTIL = ("pfs.server.util", Series, Ratio,
        "sampled storage-device utilisation per sample window");
    /// Sampled bytes in flight at the device.
    PFS_SERVER_INFLIGHT_BYTES = ("pfs.server.inflight_bytes", Series, Bytes,
        "sampled bytes in flight at the storage device");

    // --- mw.* — middleware runtime --------------------------------------
    /// Routing decisions per region, labelled by `region`/`op`.
    MW_REGION_REQUESTS = ("mw.region.requests", Counter, Count,
        "logical-request pieces routed to a region");
    /// Bytes routed per region, labelled by `region`/`op`.
    MW_REGION_BYTES = ("mw.region.bytes", Counter, Bytes,
        "bytes routed to a region");
    /// Fan-out of each logical request, labelled by `op`.
    MW_REQUEST_FANOUT = ("mw.request.fanout", Histogram, Count,
        "region pieces one logical request split into");
    /// Planned stripe width per region and class, labelled by
    /// `region`/`class`.
    MW_REGION_STRIPE_WIDTH = ("mw.region.stripe_width", Gauge, Bytes,
        "planned stripe width of a region on one server class");
    /// Region length, labelled by `region`.
    MW_REGION_LEN = ("mw.region.len", Gauge, Bytes,
        "length of a region");
    /// Trace records collected during the tracing phase.
    MW_TRACE_RECORDS = ("mw.trace.records", Counter, Count,
        "trace records collected before planning");

    // --- harl.* — planner and online monitor -----------------------------
    /// Candidates the grid or the descent costed (pruned ones included),
    /// labelled by `region`.
    HARL_OPTIMIZER_CANDIDATES = ("harl.optimizer.candidates", Counter, Count,
        "stripe-width candidates costed by Algorithm 2");
    /// Winning stripe width per class, labelled by `region`/`class`.
    HARL_OPTIMIZER_STRIPE_WIDTH = ("harl.optimizer.stripe_width", Gauge, Bytes,
        "stripe width chosen by Algorithm 2 for one server class");
    /// Predicted cost of the winning widths, labelled by `region`.
    HARL_OPTIMIZER_PREDICTED_COST_S = ("harl.optimizer.predicted_cost_s", Summary, Seconds,
        "predicted cost of the chosen stripe widths");
    /// Wall time of one Algorithm 2 search, labelled by `region`.
    HARL_OPTIMIZER_PLAN_WALL_S = ("harl.optimizer.plan_wall_s", Summary, Seconds,
        "wall-clock latency of one Algorithm 2 search");
    /// Predicted per-request cost, labelled by `region`.
    HARL_MODEL_PREDICTED_REQUEST_COST_S = ("harl.model.predicted_request_cost_s", Summary, Seconds,
        "model-predicted cost per request");
    /// Predicted-vs-actual residual, labelled by `region`.
    HARL_MODEL_RESIDUAL_S = ("harl.model.residual_s", Summary, Seconds,
        "actual minus predicted request cost");
    /// Absolute residual magnitude, labelled by `region`.
    HARL_MODEL_RESIDUAL_ABS_NS = ("harl.model.residual_abs_ns", Histogram, Nanoseconds,
        "absolute model residual magnitude");
    /// Re-plans adopted by the online monitor, labelled by `region`.
    HARL_ONLINE_ADAPTATIONS = ("harl.online.adaptations", Counter, Count,
        "layout adaptations adopted by the online monitor");
    /// Projected monthly dollar cost of the adopted plan (object-store
    /// capacity rent plus per-request GET/PUT fees; 0 when every class is
    /// free on-prem).
    HARL_PLAN_COST_USD = ("harl.plan.cost_usd", Gauge, Dollars,
        "projected monthly dollar cost of the adopted layout plan");
    /// Plan-cache lookups answered from a live cached plan.
    HARL_CACHE_HITS = ("harl.cache.hits", Counter, Count,
        "workload-fingerprint plan-cache hits");
    /// Plan-cache lookups that found nothing reusable.
    HARL_CACHE_MISSES = ("harl.cache.misses", Counter, Count,
        "workload-fingerprint plan-cache misses");
    /// Plan-cache lookups that found an invalidated entry (its per-region
    /// grid results are still recycled).
    HARL_CACHE_STALE = ("harl.cache.stale", Counter, Count,
        "workload-fingerprint plan-cache stale hits");
    /// Plans evicted by the deterministic LRU when the cache is full.
    HARL_CACHE_EVICTIONS = ("harl.cache.evictions", Counter, Count,
        "plan-cache LRU evictions");
    /// Current number of cached whole-file plans.
    HARL_CACHE_SIZE = ("harl.cache.size", Gauge, Count,
        "cached whole-file plans resident in the plan cache");
    /// Per-region grid results reused from the region plan cache.
    HARL_CACHE_REGION_HITS = ("harl.cache.region_hits", Counter, Count,
        "per-region grid results reused from the region plan cache");
    /// Per-region grid searches that had to run (region-cache misses).
    HARL_CACHE_REGION_MISSES = ("harl.cache.region_misses", Counter, Count,
        "per-region grid searches not answerable from the region cache");

    // --- mw.serve.* — multi-tenant planning service ----------------------
    /// Plan requests served, labelled by `outcome` (hit/stale/miss).
    MW_SERVE_PLANS = ("mw.serve.plans", Counter, Count,
        "tenant plan submissions served by the planning service");
    /// Service ticks executed (one batched RST apply each).
    MW_SERVE_TICKS = ("mw.serve.ticks", Counter, Count,
        "planning-service ticks (one batched table apply per tick)");
    /// Regions whose grid result was reused instead of recomputed.
    MW_SERVE_REGIONS_REUSED = ("mw.serve.regions_reused", Counter, Count,
        "regions planned by reusing a cached grid result");
    /// Regions whose grid search actually ran.
    MW_SERVE_REGIONS_PLANNED = ("mw.serve.regions_planned", Counter, Count,
        "regions planned by running the grid search");
    /// Per-region RST writes applied by the batched tick path.
    MW_SERVE_BATCH_APPLIED = ("mw.serve.batch_applied", Counter, Count,
        "region stripe-table writes applied at tick boundaries");
    /// Pending RST writes coalesced away (superseded or no-op) before apply.
    MW_SERVE_BATCH_COALESCED = ("mw.serve.batch_coalesced", Counter, Count,
        "pending region writes coalesced away by tick batching");
    /// Tenants with an active placed file.
    MW_SERVE_TENANTS = ("mw.serve.tenants", Gauge, Count,
        "tenants currently tracked by the planning service");
}

/// Look up a metric declaration by name.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    REGISTRY.iter().find(|m| m.name == name)
}

/// Whether `name` is a well-formed registry metric name:
/// `^[a-z0-9_]+(\.[a-z0-9_]+)+$` (at least two dotted segments, each of
/// lowercase alphanumerics and underscores).
pub fn valid_name(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        if seg.is_empty()
            || !seg
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_name_is_unique() {
        let mut seen = BTreeSet::new();
        for m in REGISTRY {
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
        }
    }

    #[test]
    fn every_name_matches_the_pattern() {
        for m in REGISTRY {
            assert!(valid_name(m.name), "malformed metric name {}", m.name);
        }
    }

    #[test]
    fn every_name_carries_a_layer_prefix() {
        for m in REGISTRY {
            let prefix = m.name.split('.').next().unwrap_or("");
            assert!(
                matches!(prefix, "sim" | "pfs" | "mw" | "harl"),
                "metric {} must start with a layer prefix",
                m.name
            );
        }
    }

    #[test]
    fn unit_suffixes_match_names() {
        // A name ending in `_ns`/`_s` must declare the matching unit, and
        // vice versa — the suffix is the unit contract made visible.
        for m in REGISTRY {
            if m.name.ends_with("_ns") {
                assert_eq!(m.unit, Unit::Nanoseconds, "{} must be ns", m.name);
            } else if m.name.ends_with("_s") {
                assert_eq!(m.unit, Unit::Seconds, "{} must be s", m.name);
            } else {
                assert!(
                    !matches!(m.unit, Unit::Nanoseconds | Unit::Seconds),
                    "{} measures time but hides it from the name",
                    m.name
                );
            }
        }
    }

    #[test]
    fn every_metric_declares_help() {
        for m in REGISTRY {
            assert!(!m.help.is_empty(), "{} missing help", m.name);
        }
    }

    #[test]
    fn find_resolves_names() {
        assert_eq!(
            find("sim.events.dispatched").map(|m| m.kind),
            Some(MetricKind::Counter)
        );
        assert!(find("sim.events.nope").is_none());
    }

    #[test]
    fn name_validator_rejects_malformed() {
        assert!(valid_name("pfs.server.queue_wait_ns"));
        assert!(valid_name("a.b"));
        assert!(!valid_name("nosegments"));
        assert!(!valid_name("Upper.case"));
        assert!(!valid_name("trailing.dot."));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("sp ace.x"));
        assert!(!valid_name("dash-ed.x"));
    }
}
