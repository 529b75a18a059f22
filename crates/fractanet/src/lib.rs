//! # fractanet
//!
//! Fractahedral topologies and deadlock-free ServerNet routing — a
//! complete, tested reproduction of Robert Horst, *"ServerNet Deadlock
//! Avoidance and Fractahedral Topologies"* (IPPS 1996).
//!
//! The paper proposes a family of self-similar tetrahedron-based
//! networks ("fractahedrons") for 6-port wormhole routers, a
//! depth-first routing rule that keeps them deadlock-free, and an
//! analytical comparison against meshes, hypercubes and fat trees.
//! This crate is the front door to the workspace that rebuilds all of
//! it:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`graph`] | port-aware network graphs + SCC/max-flow/matching |
//! | [`topo`]  | every topology in the paper (and §2's background list) |
//! | [`route`] | destination-table routing, one generator per family |
//! | [`deadlock`] | channel-dependency graphs, Dally–Seitz verification, path-disable synthesis |
//! | [`metrics`] | link contention, bisection bandwidth, hop stats, cost |
//! | [`lint`] | static route-table verification: rules L1–L5, structured diagnostics |
//! | [`sim`] | flit-level wormhole simulator with deadlock detection |
//! | [`servernet`] | router ASIC / cable / packet / dual-fabric substrate |
//!
//! ## Quickstart
//!
//! ```
//! use fractanet::System;
//!
//! // The paper's 64-node fat fractahedron (Fig 7, Table 2).
//! let system = System::fat_fractahedron(2);
//! let report = system.analyze();
//! assert_eq!(report.routers, 48);
//! assert!(report.deadlock_free);
//! assert_eq!(report.worst_contention, 8);
//! assert!((report.avg_hops - 4.3).abs() < 0.01);
//! ```
//!
//! See `examples/` for runnable scenarios: a quickstart tour, the
//! paper's database-cluster workload, a deadlock audit of every
//! topology, and dual-fabric fault-tolerance.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use fractanet_deadlock as deadlock;
pub use fractanet_graph as graph;
pub use fractanet_lint as lint;
pub use fractanet_metrics as metrics;
pub use fractanet_route as route;
pub use fractanet_servernet as servernet;
pub use fractanet_sim as sim;
pub use fractanet_topo as topo;

pub mod chaos;
pub mod cli;
pub mod sizing;
pub mod spec;
mod system;

pub use chaos::{incident, replay, run_campaign, ChaosOptions, ChaosReport, Incident};
pub use spec::{SpecError, TopoSpec, VcBase, VcDisc};
pub use system::{AnalysisReport, System, VcScheme};

/// Convenient glob-import surface: `use fractanet::prelude::*;`.
pub mod prelude {
    pub use crate::spec::{TopoSpec, VcBase, VcDisc};
    pub use crate::system::{AnalysisReport, System, VcScheme};
    pub use fractanet_deadlock::{verify_deadlock_free, verify_deadlock_free_tables};
    pub use fractanet_graph::{ChannelId, LinkClass, Network, NodeId, PortId};
    pub use fractanet_lint::{Diagnostic, LintReport, Linter, RuleId, Severity};
    pub use fractanet_metrics::{bisection_estimate, max_link_contention, HopStats};
    pub use fractanet_route::{Paths, RouteSet, Routes};
    pub use fractanet_servernet::{
        heal, run_with_failover, table_healing_repairer, FabricSim, FailoverOutcome, FaultSet,
        HealReport,
    };
    pub use fractanet_sim::{
        parse_trace, write_trace, DstPattern, Engine, FaultEvent, FaultKind, MetricsConfig,
        MetricsReport, RecordedTrace, RetryPolicy, SimConfig, Telemetry, TelemetryReport, Workload,
    };
    pub use fractanet_topo::{
        FatTree, Fractahedron, FullyConnectedCluster, Hypercube, Mesh2D, Ring, Topology, Variant,
    };
}
