//! Plan caching and incremental re-planning.
//!
//! Three deterministic reuse tiers. The region-level tiers (1 and 3) are
//! bit-identical to the uncached computation they replace; the
//! whole-plan tier (2) is exact for resubmissions of the same trace but
//! *approximate* across distinct traces — see below.
//!
//! 1. [`plan_file`] — the whole-file planning pipeline behind
//!    [`crate::policy::HarlPolicy`], factored out so it can optionally
//!    consult a reuse table of per-region grid results. With `reuse =
//!    None` it is exactly the old `HarlPolicy::plan` body (no keys are
//!    even computed); with a reuse table, regions whose [`RegionPlanKey`]
//!    matches a cached [`LayoutChoice`] skip Algorithm 2 entirely.
//! 2. [`PlanCache`] — whole-plan memoisation keyed by
//!    [`WorkloadFingerprint`], with deterministic LRU eviction (logical
//!    clock, ties broken by fingerprint order) and hit/miss/stale
//!    accounting. A stale entry (invalidated after online adaptation)
//!    still donates its per-region grid results for incremental re-use.
//!    The fingerprint is a lossy digest (log-bucketed counts, 5% write
//!    buckets, grid-rounded averages): equal traces always produce equal
//!    fingerprints, so a resubmission hit is bit-identical to re-planning
//!    that trace, but two *different* traces can bucket identically and
//!    then share the first submitter's plan — approximate workload
//!    matching by design, trading exactness for fleet-wide reuse.
//! 3. [`RegionPlanCache`] — the cross-tenant pool of per-region grid
//!    results, LRU-bounded the same way.
//!
//! The safety argument for bitwise equality covers the region tiers
//! only, and it is structural, not statistical: a [`RegionPlanKey`] is
//! the *exact* input of one
//! `optimize_region` call — the deterministic stride sample of the
//! region's requests (region-relative offsets, sizes, ops), the average
//! request size, and the grid geometry (`step`, `max_grid_points`).
//! `optimize_region` is a pure function of those inputs plus the model,
//! so replaying a cached result can never differ from recomputing it.
//! Thread budgets are deliberately excluded from the key: planning is
//! thread-count invariant (pinned by tests since PR 2). Caches are scoped
//! to one cost model — callers mixing models must segregate caches (the
//! fingerprint's class tags enforce this at the [`PlanCache`] tier).

// Index/iteration hygiene, ratcheted to deny: cache reuse must replay
// regions in canonical order, and an indexed loop is where an off-by-one
// would silently change which cached result a region receives.
#![deny(
    clippy::explicit_iter_loop,
    clippy::explicit_into_iter_loop,
    clippy::needless_range_loop,
    clippy::range_plus_one,
    clippy::range_minus_one
)]

use crate::fingerprint::WorkloadFingerprint;
use crate::model::MultiProfileModel;
use crate::optimizer::{optimize_region, LayoutChoice, OptimizerConfig, RegionRequests};
use crate::region::{divide_regions, RegionDivisionConfig};
use crate::rst::{RegionStripeTable, RstEntry};
use crate::trace::TraceRecord;
use harl_devices::OpKind;
use harl_simcore::SimContext;
use std::collections::BTreeMap;

/// One sampled request as the optimizer sees it (region-relative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SampledReq {
    /// Offset relative to the region start.
    pub offset: u64,
    /// Request size in bytes.
    pub size: u64,
    /// Whether the request is a write.
    pub write: bool,
}

/// The exact input of one per-region grid search — the region-cache key.
///
/// Equal keys guarantee `optimize_region` would return the identical
/// [`LayoutChoice`]; see the module docs for the argument.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionPlanKey {
    /// Average request size handed to Algorithm 2 (sets `R̄`).
    pub avg_request_size: u64,
    /// Grid step of the search.
    pub step: u64,
    /// Grid-point cap per axis (together with `step` fixes the effective
    /// step).
    pub max_grid_points: usize,
    /// The deterministic stride sample the cost evaluation runs on.
    pub sample: Vec<SampledReq>,
}

/// Build the [`RegionPlanKey`] for one region's grid search.
pub(crate) fn region_plan_key(
    reqs: &RegionRequests<'_>,
    avg_request_size: u64,
    cfg: &OptimizerConfig,
) -> RegionPlanKey {
    RegionPlanKey {
        avg_request_size,
        step: cfg.step,
        max_grid_points: cfg.max_grid_points,
        sample: reqs
            .sample(cfg.max_requests_per_eval)
            .into_iter()
            .map(|(offset, size, op)| SampledReq {
                offset,
                size,
                write: op == OpKind::Write,
            })
            .collect(),
    }
}

/// A reuse table of per-region grid results, keyed by exact search input.
pub type PlanReuse = BTreeMap<RegionPlanKey, LayoutChoice>;

/// The result of planning one file.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedFile {
    /// The merged region stripe table (what `HarlPolicy::plan` returns).
    pub rst: RegionStripeTable,
    /// Per-region grid results in pre-merge region order, with their keys
    /// — feed these back into a [`RegionPlanCache`] or the next re-plan's
    /// reuse table. Empty when planning ran without reuse (`reuse =
    /// None`), where key computation is skipped entirely.
    pub region_plans: Vec<(RegionPlanKey, LayoutChoice)>,
    /// Regions answered from the reuse table.
    pub reused: usize,
    /// Regions whose grid search actually ran.
    pub planned: usize,
}

/// Plan a whole file: Algorithm 1 region division, Algorithm 2 per-region
/// width search (fanned out across the thread budget), RST assembly and
/// adjacent-row merge.
///
/// `sorted` must be offset-sorted (from
/// [`crate::trace::Trace::sorted_by_offset`]). With `reuse = Some(table)`,
/// regions whose [`RegionPlanKey`] hits the table clone the cached choice
/// instead of searching — bit-identical output either way.
pub fn plan_file(
    ctx: &SimContext,
    model: &MultiProfileModel,
    sorted: &[TraceRecord],
    file_size: u64,
    division: &RegionDivisionConfig,
    optimizer: &OptimizerConfig,
    reuse: Option<&PlanReuse>,
) -> PlannedFile {
    match reuse {
        None => plan_cold(ctx, model, sorted, file_size, division, optimizer),
        Some(table) => plan_file_with(ctx, model, sorted, file_size, division, optimizer, |key| {
            table.get(key).cloned()
        }),
    }
}

/// The zero-overhead path: exactly the pre-cache planning pipeline, no
/// key computation, no per-region bookkeeping.
fn plan_cold(
    ctx: &SimContext,
    model: &MultiProfileModel,
    sorted: &[TraceRecord],
    file_size: u64,
    division: &RegionDivisionConfig,
    optimizer: &OptimizerConfig,
) -> PlannedFile {
    let regions = divide_regions(sorted, file_size, division);
    // One thread budget for the whole plan (the context override, else the
    // caller's config): with several regions the fan-out is region-level
    // (coarse, cache-friendly) and each region's grid search runs
    // sequentially; a single region keeps the budget for its inner grid
    // chunking. Either way each region's result is computed independently
    // and lands in its own slot, so the table is identical for every
    // thread count.
    let budget = ctx.threads_or(optimizer.threads);
    let outer = budget.min(regions.len().max(1));
    let inner = OptimizerConfig {
        threads: if outer > 1 { 1 } else { budget },
        ..optimizer.clone()
    };
    let planned = regions.len();
    let entries = crate::optimizer::fan_out(regions.len(), outer, |i| {
        let region = &regions[i];
        let records = &sorted[region.first_request..region.last_request];
        let reqs = RegionRequests::new(records, region.offset);
        let choice = optimize_region(ctx, model, &reqs, region.avg_request_size, &inner, i);
        RstEntry::new(region.offset, region.len(), choice.widths)
    });
    let mut table = RegionStripeTable::new(entries);
    table.merge_adjacent();
    PlannedFile {
        rst: table,
        region_plans: Vec::new(),
        reused: 0,
        planned,
    }
}

/// [`plan_file`] with an arbitrary (possibly stateful) reuse lookup —
/// the planning-service entry point, where one submit chains lookups
/// through the tenant's previous plan, a stale cache entry, and the
/// cross-tenant region pool.
///
/// The lookup runs sequentially in region order *before* the fan-out, so
/// a `FnMut` closure (e.g. one that bumps LRU clocks) stays deterministic
/// at any thread count.
pub fn plan_file_with(
    ctx: &SimContext,
    model: &MultiProfileModel,
    sorted: &[TraceRecord],
    file_size: u64,
    division: &RegionDivisionConfig,
    optimizer: &OptimizerConfig,
    mut lookup: impl FnMut(&RegionPlanKey) -> Option<LayoutChoice>,
) -> PlannedFile {
    let regions = divide_regions(sorted, file_size, division);
    let budget = ctx.threads_or(optimizer.threads);
    let outer = budget.min(regions.len().max(1));
    let inner = OptimizerConfig {
        threads: if outer > 1 { 1 } else { budget },
        ..optimizer.clone()
    };
    let keys: Vec<RegionPlanKey> = regions
        .iter()
        .map(|region| {
            let records = &sorted[region.first_request..region.last_request];
            let reqs = RegionRequests::new(records, region.offset);
            region_plan_key(&reqs, region.avg_request_size, optimizer)
        })
        .collect();
    let cached: Vec<Option<LayoutChoice>> = keys.iter().map(&mut lookup).collect();
    let reused = cached.iter().filter(|c| c.is_some()).count();
    let choices = crate::optimizer::fan_out(regions.len(), outer, |i| {
        if let Some(choice) = &cached[i] {
            choice.clone()
        } else {
            let region = &regions[i];
            let records = &sorted[region.first_request..region.last_request];
            let reqs = RegionRequests::new(records, region.offset);
            optimize_region(ctx, model, &reqs, region.avg_request_size, &inner, i)
        }
    });
    let entries = regions
        .iter()
        .zip(&choices)
        .map(|(region, choice)| RstEntry::new(region.offset, region.len(), choice.widths.clone()))
        .collect();
    let mut table = RegionStripeTable::new(entries);
    table.merge_adjacent();
    let planned = regions.len() - reused;
    PlannedFile {
        rst: table,
        region_plans: keys.into_iter().zip(choices).collect(),
        reused,
        planned,
    }
}

/// A whole-file plan as stored in the [`PlanCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// The merged RST to hand back on a hit.
    pub rst: RegionStripeTable,
    /// The pre-merge per-region grid results (for incremental reuse when
    /// the entry later goes stale).
    pub region_plans: Vec<(RegionPlanKey, LayoutChoice)>,
}

/// Hit/miss accounting for a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found an invalidated entry.
    pub stale: u64,
    /// Entries evicted by the LRU.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits over all lookups, 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of a [`PlanCache::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A live plan; use its RST as-is.
    Hit(CachedPlan),
    /// An invalidated plan, removed from the cache on the way out; its
    /// per-region grid results are still sound reuse candidates.
    Stale(CachedPlan),
    /// Nothing cached for this fingerprint.
    Miss,
}

#[derive(Debug, Clone)]
struct PlanSlot {
    plan: CachedPlan,
    last_used: u64,
    stale: bool,
}

/// Whole-plan memoisation keyed by [`WorkloadFingerprint`].
///
/// Eviction is least-recently-used by a logical clock that advances once
/// per lookup/insert (no wall time — the cache is part of the
/// deterministic data path); clock ties are impossible, but the backing
/// `BTreeMap` additionally fixes iteration order so behaviour is
/// reproducible even under replay.
#[derive(Debug, Clone)]
pub struct PlanCache {
    entries: BTreeMap<WorkloadFingerprint, PlanSlot>,
    capacity: usize,
    clock: u64,
    stats: CacheStats,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans. Capacity 0 turns
    /// the cache off: every lookup misses and inserts are dropped.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            entries: BTreeMap::new(),
            capacity,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Cached plans currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Accounting so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Look up a fingerprint, updating recency and counters.
    pub fn lookup(&mut self, fp: &WorkloadFingerprint) -> CacheLookup {
        self.clock += 1;
        match self.entries.get_mut(fp) {
            Some(slot) if !slot.stale => {
                slot.last_used = self.clock;
                self.stats.hits += 1;
                CacheLookup::Hit(slot.plan.clone())
            }
            Some(_) => {
                self.stats.stale += 1;
                // Remove on the way out: the caller re-plans and re-inserts.
                let slot = self.entries.remove(fp);
                slot.map_or(CacheLookup::Miss, |s| CacheLookup::Stale(s.plan))
            }
            None => {
                self.stats.misses += 1;
                CacheLookup::Miss
            }
        }
    }

    /// Insert (or refresh) a plan, evicting LRU entries past capacity.
    pub fn insert(&mut self, fp: WorkloadFingerprint, plan: CachedPlan) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        self.entries.insert(
            fp,
            PlanSlot {
                plan,
                last_used: clock,
                stale: false,
            },
        );
        while self.entries.len() > self.capacity {
            // Deterministic victim: smallest (last_used, fingerprint).
            let victim = self
                .entries
                .iter()
                .min_by(|a, b| (a.1.last_used, a.0).cmp(&(b.1.last_used, b.0)))
                .map(|(fp, _)| fp.clone());
            let Some(victim) = victim else { break };
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Mark a fingerprint's plan stale (its layout was adapted online).
    /// Returns whether a live entry was invalidated.
    pub fn invalidate(&mut self, fp: &WorkloadFingerprint) -> bool {
        match self.entries.get_mut(fp) {
            Some(slot) if !slot.stale => {
                slot.stale = true;
                true
            }
            _ => false,
        }
    }
}

/// Cross-tenant pool of per-region grid results, LRU-bounded like
/// [`PlanCache`].
#[derive(Debug, Clone)]
pub struct RegionPlanCache {
    entries: BTreeMap<RegionPlanKey, (LayoutChoice, u64)>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RegionPlanCache {
    /// An empty pool holding at most `capacity` grid results; capacity 0
    /// disables it.
    pub fn new(capacity: usize) -> Self {
        RegionPlanCache {
            entries: BTreeMap::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Cached grid results currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Look up one region's grid result, bumping recency on a hit.
    pub fn get(&mut self, key: &RegionPlanKey) -> Option<LayoutChoice> {
        self.clock += 1;
        match self.entries.get_mut(key) {
            Some((choice, last_used)) => {
                *last_used = self.clock;
                self.hits += 1;
                Some(choice.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert one grid result, evicting LRU entries past capacity.
    pub fn insert(&mut self, key: RegionPlanKey, choice: LayoutChoice) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        let clock = self.clock;
        self.entries.insert(key, (choice, clock));
        while self.entries.len() > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by(|a, b| (a.1 .1, a.0).cmp(&(b.1 .1, b.0)))
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            self.entries.remove(&victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_sorted;
    use crate::model::MultiProfileModel;
    use crate::policy::{HarlPolicy, LayoutPolicy};
    use crate::trace::Trace;
    use harl_pfs::ClusterConfig;
    use harl_simcore::SimNanos;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * 1024;

    fn model() -> MultiProfileModel {
        MultiProfileModel::from_cluster(&ClusterConfig::paper_default())
    }

    fn multi_phase_trace() -> (Trace, u64) {
        let mut records = Vec::new();
        for phase in 0..6u64 {
            let base = phase * 16 * MB;
            let size = (phase % 3 + 1) * 128 * KB;
            for i in 0..32u64 {
                records.push(TraceRecord {
                    rank: (i % 4) as u32,
                    fd: 0,
                    op: if phase % 2 == 0 {
                        OpKind::Read
                    } else {
                        OpKind::Write
                    },
                    offset: base + i * size,
                    size,
                    timestamp: SimNanos::from_nanos(phase * 1000 + i),
                });
            }
        }
        (Trace::from_records(records), 6 * 16 * MB)
    }

    fn division() -> RegionDivisionConfig {
        RegionDivisionConfig {
            fixed_region_size: 4 * MB,
            ..RegionDivisionConfig::default()
        }
    }

    #[test]
    fn cold_plan_matches_policy_plan() {
        let (trace, file_size) = multi_phase_trace();
        let mut policy = HarlPolicy::new(model());
        policy.division = division();
        let via_policy = policy.plan(&SimContext::new(), &trace, file_size);
        let sorted = trace.sorted_by_offset();
        let cold = plan_file(
            &SimContext::new(),
            &policy.model,
            &sorted,
            file_size,
            &policy.division,
            &policy.optimizer,
            None,
        );
        assert_eq!(cold.rst, via_policy);
        assert!(cold.region_plans.is_empty(), "cold path computes no keys");
        assert_eq!(cold.reused, 0);
    }

    #[test]
    fn empty_reuse_table_is_bit_identical_to_cold() {
        let (trace, file_size) = multi_phase_trace();
        let m = model();
        let sorted = trace.sorted_by_offset();
        let div = division();
        let cfg = OptimizerConfig::default();
        let ctx = SimContext::new();
        let cold = plan_file(&ctx, &m, &sorted, file_size, &div, &cfg, None);
        let empty = PlanReuse::new();
        let warm = plan_file(&ctx, &m, &sorted, file_size, &div, &cfg, Some(&empty));
        assert_eq!(warm.rst, cold.rst);
        assert_eq!(warm.reused, 0);
        assert_eq!(warm.planned, warm.region_plans.len());
    }

    #[test]
    fn full_reuse_skips_every_search_and_matches() {
        let (trace, file_size) = multi_phase_trace();
        let m = model();
        let sorted = trace.sorted_by_offset();
        let div = division();
        let cfg = OptimizerConfig::default();
        let ctx = SimContext::new();
        let first = plan_file(
            &ctx,
            &m,
            &sorted,
            file_size,
            &div,
            &cfg,
            Some(&PlanReuse::new()),
        );
        let reuse: PlanReuse = first.region_plans.iter().cloned().collect();
        let second = plan_file(&ctx, &m, &sorted, file_size, &div, &cfg, Some(&reuse));
        assert_eq!(second.rst, first.rst);
        assert_eq!(second.planned, 0, "every region should come from reuse");
        assert_eq!(second.reused, second.region_plans.len());
    }

    #[test]
    fn plan_cache_hit_returns_bit_identical_plan() {
        let (trace, file_size) = multi_phase_trace();
        let m = model();
        let sorted = trace.sorted_by_offset();
        let div = division();
        let fp = fingerprint_sorted(&sorted, file_size, &div, &m);
        let cold = plan_file(
            &SimContext::new(),
            &m,
            &sorted,
            file_size,
            &div,
            &OptimizerConfig::default(),
            Some(&PlanReuse::new()),
        );
        let mut cache = PlanCache::new(8);
        assert_eq!(cache.lookup(&fp), CacheLookup::Miss);
        cache.insert(
            fp.clone(),
            CachedPlan {
                rst: cold.rst.clone(),
                region_plans: cold.region_plans.clone(),
            },
        );
        match cache.lookup(&fp) {
            CacheLookup::Hit(plan) => assert_eq!(plan.rst, cold.rst),
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let div = RegionDivisionConfig::default();
        let m = model();
        let fp = |size: u64| {
            let records: Vec<_> = (0..8)
                .map(|i| TraceRecord {
                    rank: 0,
                    fd: 0,
                    op: OpKind::Read,
                    offset: i * size,
                    size,
                    timestamp: SimNanos::ZERO,
                })
                .collect();
            fingerprint_sorted(&records, 8 * size, &div, &m)
        };
        let plan = CachedPlan {
            rst: RegionStripeTable::uniform(MB, vec![64 * KB, 64 * KB]),
            region_plans: Vec::new(),
        };
        let mut cache = PlanCache::new(2);
        let (a, b, c) = (fp(64 * KB), fp(128 * KB), fp(256 * KB));
        cache.insert(a.clone(), plan.clone());
        cache.insert(b.clone(), plan.clone());
        // Touch `a` so `b` becomes the LRU victim.
        assert!(matches!(cache.lookup(&a), CacheLookup::Hit(_)));
        cache.insert(c.clone(), plan.clone());
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup(&a), CacheLookup::Hit(_)));
        assert!(matches!(cache.lookup(&b), CacheLookup::Miss));
        assert!(matches!(cache.lookup(&c), CacheLookup::Hit(_)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let div = RegionDivisionConfig::default();
        let m = model();
        let fp = fingerprint_sorted(&[], MB, &div, &m);
        let mut cache = PlanCache::new(0);
        cache.insert(
            fp.clone(),
            CachedPlan {
                rst: RegionStripeTable::uniform(MB, vec![64 * KB, 64 * KB]),
                region_plans: Vec::new(),
            },
        );
        assert_eq!(cache.lookup(&fp), CacheLookup::Miss);
        assert!(cache.is_empty());
    }

    #[test]
    fn invalidated_entry_surfaces_as_stale_once() {
        let div = RegionDivisionConfig::default();
        let m = model();
        let fp = fingerprint_sorted(&[], MB, &div, &m);
        let mut cache = PlanCache::new(4);
        cache.insert(
            fp.clone(),
            CachedPlan {
                rst: RegionStripeTable::uniform(MB, vec![64 * KB, 64 * KB]),
                region_plans: Vec::new(),
            },
        );
        assert!(cache.invalidate(&fp));
        assert!(!cache.invalidate(&fp), "double invalidation is a no-op");
        assert!(matches!(cache.lookup(&fp), CacheLookup::Stale(_)));
        assert!(matches!(cache.lookup(&fp), CacheLookup::Miss));
        let stats = cache.stats();
        assert_eq!((stats.stale, stats.misses), (1, 1));
    }

    #[test]
    fn region_cache_round_trips_and_evicts() {
        let mut pool = RegionPlanCache::new(2);
        let key = |avg: u64| RegionPlanKey {
            avg_request_size: avg,
            step: 4096,
            max_grid_points: 128,
            sample: vec![SampledReq {
                offset: 0,
                size: avg,
                write: false,
            }],
        };
        let choice = |w: u64| LayoutChoice {
            widths: vec![w, w],
            cost: 1.0,
        };
        pool.insert(key(1), choice(4096));
        pool.insert(key(2), choice(8192));
        assert_eq!(pool.get(&key(1)), Some(choice(4096)));
        pool.insert(key(3), choice(12288));
        // key(2) was least recently used.
        assert_eq!(pool.get(&key(2)), None);
        assert_eq!(pool.get(&key(3)), Some(choice(12288)));
        assert_eq!(pool.len(), 2);
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (2, 1));
    }
}
