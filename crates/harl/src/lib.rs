//! # harl-core — the HARL heterogeneity-aware region-level data layout
//!
//! The paper's contribution, end to end:
//!
//! 1. **Tracing** ([`trace`]) — collect `(rank, fd, op, offset, size, time)`
//!    records (the IOSIG stand-in) and sort them by offset.
//! 2. **Analysis**:
//!    * [`region`] — Algorithm 1: CV-driven division of the file into
//!      regions of similar workload, with threshold adaptation;
//!    * [`model`] — the Sec. III-D cost model (Table I, Eqs. 1–8) over K
//!      server classes: one table-driven [`CostKernel`], exact sub-request
//!      geometry, and the paper's Fig. 5 case table;
//!    * [`optimizer`] — Algorithm 2: per-region search for the optimal
//!      per-class stripe widths (exhaustive grid at `K = 2`, coordinate
//!      descent beyond), parallelised and deterministic.
//! 3. **Placement** ([`rst`], [`policy`]) — the Region Stripe Table and the
//!    policies the paper evaluates (fixed, random, segment-level, HARL).
//!
//! Extensions from the paper's discussion/future work live in
//! [`migration`] (SServer space balancing), [`multiprofile`] (more than
//! two server performance profiles) and [`online`] (on-line drift
//! detection and re-layout).

// missing_docs / rust_2018_idioms come from [workspace.lints]. The
// cfg_attr tier keeps library code panic-free at compile time: no
// unwrap/expect/panic!/unreachable! (todo!/unimplemented! are workspace
// warnings, errors under ci.sh's -D warnings). Documented-precondition
// panics carry an #[expect(clippy::panic, reason = ...)]; unit tests
// compile under cfg(test) and stay exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

// The cost-model modules (Sec. III-D, Eqs. 1–8) carry the strictest
// numeric tier, backing harl-lint's cast-hygiene and float-eq rules with
// type-aware clippy checks.
#[warn(clippy::float_cmp, clippy::cast_possible_truncation)]
pub mod analysis;
pub mod cache;
pub(crate) mod cast;
pub mod errors;
pub mod fingerprint;
pub mod fold;
pub mod migration;
#[warn(clippy::float_cmp, clippy::cast_possible_truncation)]
pub mod model;
pub mod multiprofile;
pub mod online;
#[warn(clippy::float_cmp, clippy::cast_possible_truncation)]
pub mod optimizer;
pub mod policy;
pub mod region;
pub mod rst;
pub mod trace;

pub use analysis::{size_histogram, summarize, summarize_records, TraceSummary};
pub use cache::{
    plan_file, plan_file_with, CacheLookup, CacheStats, CachedPlan, PlanCache, PlanReuse,
    PlannedFile, RegionPlanCache, RegionPlanKey, SampledReq,
};
pub use errors::LoadError;
pub use fingerprint::{
    fingerprint_sorted, ClassShape, HistBucket, RegionSignature, WorkloadFingerprint,
};
pub use migration::{projected_sserver_bytes, BalanceOutcome, SpaceBalancer};
pub use model::{
    case_a_params, server_loads, ClassParams, ClassSpans, CostKernel, MultiProfileModel,
    ServerLoads,
};
pub use multiprofile::coordinate_descent;
pub use online::{AdaptationEvent, OnlineConfig, OnlineMonitor};
pub use optimizer::{optimize_region, LayoutChoice, OptimizerConfig, RegionRequests};
pub use policy::{
    FixedPolicy, HarlPolicy, LayoutPolicy, RandomPolicy, SegmentPolicy, ServerLevelPolicy,
};
pub use region::{divide_regions, Region, RegionDivisionConfig};
pub use rst::{RegionStripeTable, RstEntry};
pub use trace::{Trace, TraceRecord};
