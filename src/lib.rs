//! # harl-repro — reproduction of HARL (ICPP 2015)
//!
//! *"A Heterogeneity-Aware Region-Level Data Layout for Hybrid Parallel
//! File Systems"*, He, Sun, Wang, Kougkas, Haider.
//!
//! This facade crate re-exports the whole workspace so examples and
//! downstream users need a single dependency:
//!
//! * [`simcore`] — discrete-event simulation kernel
//! * [`devices`] — HDD/SSD/network performance models + calibration
//! * [`pfs`] — the simulated hybrid parallel file system
//! * [`harl`] — the paper's contribution (trace, regions, cost model,
//!   optimizer, RST, policies, migration, K-profile extension)
//! * [`middleware`] — the MPI-IO-like layer (R2F, two-phase collective I/O)
//! * [`workloads`] — IOR- and BTIO-like generators
//! * [`scenario`] — declarative experiment specs ([`scenario::Scenario`])
//!   shared by the CLI, CI and programmatic callers
//!
//! Every pipeline entry point takes a [`SimContext`](prelude::SimContext)
//! first — the carrier for the metrics recorder, the seed and thread
//! overrides, and an injected fault plan:
//!
//! ```
//! use harl_repro::prelude::*;
//!
//! let cluster = ClusterConfig::paper_default();
//! let workload = IorConfig::paper_default(OpKind::Read, 256 << 20).build();
//! let policy = HarlPolicy::new(MultiProfileModel::from_cluster(&cluster));
//! let (rst, report) = trace_plan_run(
//!     &SimContext::new(), &cluster, &policy, &workload,
//!     &CollectiveConfig::default());
//! assert!(!rst.is_empty());
//! assert!(report.throughput_mib_s() > 0.0);
//! ```

// missing_docs / rust_2018_idioms come from [workspace.lints]. The
// cfg_attr tier keeps unwrap/expect/panic! out of library code at compile
// time; unit tests compile under cfg(test) and stay exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub use harl_core as harl;
pub use harl_devices as devices;
pub use harl_middleware as middleware;
pub use harl_pfs as pfs;
pub use harl_simcore as simcore;
pub use harl_workloads as workloads;

pub mod scenario;

/// The names most programs need, in one import.
pub mod prelude {
    pub use crate::scenario::{
        ClusterSpec, FaultSpec, HybridCluster, PolicySpec, Scenario, ScenarioReport, ServeReport,
        ServeSpec, TierSpec, TieredCluster, WorkloadSpec,
    };
    pub use harl_core::{
        CostKernel, FixedPolicy, HarlPolicy, LayoutPolicy, LoadError, MultiProfileModel,
        OptimizerConfig, RandomPolicy, RegionDivisionConfig, RegionStripeTable, RstEntry,
        SegmentPolicy, ServerLevelPolicy, SpaceBalancer, Trace, TraceRecord,
    };
    pub use harl_devices::{
        calibrate_network, calibrate_storage, hdd_2015_preset, nvme_2020_preset,
        object_store_preset, ssd_2015_preset, CalibrationConfig, CostProfile, DeviceKind,
        NetworkProfile, OpKind, StorageProfile,
    };
    pub use harl_middleware::{
        collect_trace, collect_trace_lowered, run_shared, run_workload, trace_plan_run,
        CollectiveConfig, LogicalRequest, PlanOutcome, PlanningService, RankProgram, ServeConfig,
        ServeStats, Workload,
    };
    pub use harl_pfs::{
        simulate, ClientProgram, ClusterConfig, Degradation, FileLayout, PhysRequest, SimReport,
    };
    pub use harl_simcore::{
        ByteSize, MemoryRecorder, NoopRecorder, Recorder, SimContext, SimNanos, SpanHop,
        SpanRecord, GIB, KIB, MIB,
    };
    pub use harl_workloads::{
        replay, AccessOrder, BtioConfig, IorConfig, MultiRegionIorConfig, Phase, PhasedConfig,
    };
    pub use harl_workloads::{TrafficConfig, TrafficJob};
}
