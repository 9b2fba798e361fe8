//! # harl-pfs — a simulated hybrid parallel file system
//!
//! This crate stands in for the paper's OrangeFS deployment: a cluster of
//! heterogeneous file servers (HDD-backed *HServers* and SSD-backed
//! *SServers*), a metadata server, compute nodes, and files striped over
//! the servers round-robin with per-server stripe widths.
//!
//! The pieces:
//!
//! * [`geometry`] — round-robin varied-size striping math (closed-form
//!   per-server byte accounting; shared with the HARL cost model).
//! * [`layout`] — [`FileLayout`]: which servers hold a file, at what widths.
//! * [`cluster`] — [`ClusterConfig`]: servers, network, compute nodes.
//! * [`request`] — client programs: synchronous requests, concurrent
//!   batches, compute phases.
//! * [`sim`] — the discrete-event simulator: every request flows through
//!   MDS → NICs → storage devices, all FIFO queues, and the report captures
//!   per-server busy time (Fig. 1(a)), request latencies and throughput.
//!
//! ```
//! use harl_pfs::{simulate, ClusterConfig, FileLayout, ClientProgram, PhysRequest};
//! use harl_simcore::SimContext;
//!
//! let cluster = ClusterConfig::paper_default(); // 6 HServers + 2 SServers
//! let file = FileLayout::fixed(&cluster, 64 * 1024);
//! let mut prog = ClientProgram::new();
//! prog.push_request(PhysRequest::read(0, 0, 512 * 1024));
//! let report = simulate(&SimContext::new(), &cluster, &[file], &[prog]);
//! assert_eq!(report.requests_completed, 1);
//! ```

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

pub mod cluster;
pub mod faults;
pub mod geometry;
pub mod layout;
pub mod report;
pub mod request;
pub mod sim;

pub use cluster::{ClusterConfig, ServerClass, ServerId};
pub use faults::{slowdown_at, Degradation};
pub use geometry::GroupLayout;
pub use layout::FileLayout;
pub use report::{BusyBuckets, MetricsRow, MetricsSummary, ServerReport, SimReport};
pub use request::{ClientProgram, FileId, PhysRequest, Step};
pub use sim::simulate;
