//! The six workloads, and how each one's inputs derive from the seed.
//!
//! Every input (access orders, the simulation seed, the traffic schedule)
//! is a pure function of the benchmark seed, so the same seed rebuilds the
//! same inputs and a different seed gives different ones. The program under
//! test only ever sees the generated inputs.

use harl_repro::prelude::*;
use harl_repro::simcore::SimRng;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// Fig. 7: IOR read then write on the paper cluster (`pfs.sim`).
    IorPaper,
    /// 64 non-uniform regions on the paper cluster (the K=2 grid).
    PhasedRegions,
    /// The same trace on a three-tier cluster (the K≥3 descent).
    PhasedThreeTier,
    /// Fig. 12: BTIO collective writes (`middleware.collective`).
    BtioCollective,
    /// Every request fans out to 4096 servers (`pfs.shard` pooled path).
    WideFanout,
    /// Multi-tenant planning-service traffic (`middleware.serve`).
    ServeFleet,
}

impl WorkloadId {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadId; 6] = [
        WorkloadId::IorPaper,
        WorkloadId::PhasedRegions,
        WorkloadId::PhasedThreeTier,
        WorkloadId::BtioCollective,
        WorkloadId::WideFanout,
        WorkloadId::ServeFleet,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::IorPaper => "ior_paper",
            WorkloadId::PhasedRegions => "phased_regions",
            WorkloadId::PhasedThreeTier => "phased_three_tier",
            WorkloadId::BtioCollective => "btio_collective",
            WorkloadId::WideFanout => "wide_fanout",
            WorkloadId::ServeFleet => "serve_fleet",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Thread budget of the planner's region fan-out and the simulator's shard
/// pool: the two cores of the machine the benchmark is sized for.
pub const THREADS: usize = 2;

/// Execution settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// Minimum measuring time in seconds.
    pub seconds: f64,
    /// Whether to add the traced and profiled runs.
    pub trace: bool,
    /// A fixed delay added inside the benchmark's wrapper around the trace
    /// collection call. Zero except in the injected-slowdown self-test.
    pub trace_delay: Duration,
}

impl Knobs {
    /// The settings the command line uses: no injected delay.
    pub fn new(seconds: f64, trace: bool) -> Self {
        Knobs {
            seconds,
            trace,
            trace_delay: Duration::ZERO,
        }
    }
}

/// An input seed drawn from the benchmark seed, independent per `tag`.
fn derive_seed(seed: u64, tag: &str) -> u64 {
    SimRng::derived(seed, tag).next_u64()
}

/// The scenarios one offline pipeline run executes, in order. `ior_paper`
/// has a read pass and a write pass; every other offline workload has one.
///
/// # Panics
/// Panics when called for [`WorkloadId::ServeFleet`], which has no
/// offline scenario.
pub fn offline_scenarios(id: WorkloadId, seed: u64) -> Vec<Scenario> {
    let sim_seed = derive_seed(seed, "simulation");
    match id {
        WorkloadId::IorPaper => [OpKind::Read, OpKind::Write]
            .into_iter()
            .map(|op| {
                let mut ior = IorConfig::paper_default(op, 16 * GIB);
                ior.seed = derive_seed(seed, &format!("ior-{op}"));
                Scenario::new(WorkloadSpec::Ior(ior))
                    .named(format!("ior_paper-{op}"))
                    .with_seed(sim_seed)
            })
            .collect(),
        WorkloadId::PhasedRegions => {
            vec![
                Scenario::new(WorkloadSpec::MultiRegionIor(phased_regions(seed)))
                    .named("phased_regions")
                    .with_seed(sim_seed),
            ]
        }
        WorkloadId::PhasedThreeTier => {
            vec![
                Scenario::new(WorkloadSpec::MultiRegionIor(phased_regions(seed)))
                    .named("phased_three_tier")
                    .with_cluster(ClusterSpec::Tiered(TieredCluster {
                        tiers: vec![
                            tier(4, "hdd-2015"),
                            tier(2, "ssd-2015"),
                            tier(2, "object-store"),
                        ],
                        compute_nodes: None,
                        seed: None,
                    }))
                    .with_seed(sim_seed),
            ]
        }
        WorkloadId::BtioCollective => {
            vec![
                Scenario::new(WorkloadSpec::Btio(BtioConfig::paper_default(64)))
                    .named("btio_collective")
                    .with_seed(sim_seed),
            ]
        }
        WorkloadId::WideFanout => {
            // 8 clients × 24 synchronous whole-stripe-round reads: with a
            // 64 KiB stripe over 4096 servers each request covers exactly
            // one round, so every request fans out to every server. 24
            // rounds per client (not the legacy engine tier's 102) keep one
            // pipeline run near half a second, so a run holds enough of
            // them for a steady median.
            const SERVERS: u64 = 4096;
            const CLIENTS: u64 = 8;
            const ROUNDS_PER_CLIENT: u64 = 24;
            let round = 64 * KIB * SERVERS;
            let ior = IorConfig {
                processes: CLIENTS as usize,
                request_size: round,
                file_size: round * CLIENTS * ROUNDS_PER_CLIENT,
                op: OpKind::Read,
                order: AccessOrder::Random,
                seed: derive_seed(seed, "wide-order"),
            };
            vec![Scenario::new(WorkloadSpec::Ior(ior))
                .named("wide_fanout")
                .with_cluster(ClusterSpec::Hybrid(HybridCluster {
                    hservers: 3072,
                    sservers: 1024,
                    compute_nodes: None,
                    seed: None,
                }))
                .with_policy(PolicySpec::Fixed(64 * KIB))
                .with_seed(sim_seed)]
        }
        WorkloadId::ServeFleet => panic!("serve_fleet has no offline scenario"),
    }
}

/// 64 regions of 64 MiB whose request sizes cycle through eight sizes from
/// 128 KiB to 1 MiB, read by 16 processes in a seeded random order.
fn phased_regions(seed: u64) -> MultiRegionIorConfig {
    MultiRegionIorConfig {
        regions: (0..64u64)
            .map(|i| (64 * MIB, 128 * KIB * (1 + i % 8)))
            .collect(),
        processes: 16,
        op: OpKind::Read,
        seed: derive_seed(seed, "phased-order"),
    }
}

fn tier(count: usize, preset: &str) -> TierSpec {
    TierSpec {
        count,
        preset: preset.to_string(),
    }
}

/// The planning-service fleet: a `multiapp`-shaped traffic mix scaled to
/// 4096 submissions from up to 256 tenants, plus the service tuning.
pub fn serve_fleet(seed: u64) -> ServeSpec {
    let mut spec = ServeSpec::new(TrafficConfig {
        tenants: 256,
        ticks: 64,
        arrivals_per_tick: 64,
        templates: 64,
        drift_pct: 8,
        processes: 4,
        base_bytes: 8 * MIB,
        seed: derive_seed(seed, "traffic"),
    });
    spec.name = "serve_fleet".into();
    spec.serve.plan_cache_capacity = 64;
    spec.serve.region_cache_capacity = 1024;
    spec.serve.online.window = 32;
    spec.serve.online.patience = 1;
    spec
}
