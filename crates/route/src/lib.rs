//! # fractanet-route
//!
//! Routing for the `fractanet` workspace, in the ServerNet style: every
//! router holds a **destination-indexed table** mapping a destination
//! node ID to one output port ("these matches are actually done by
//! looking up entries in the routing table inside each router", §2.3).
//! Table routing is deterministic, so every node pair has a **fixed
//! path** — the property the paper needs for in-order delivery ("To
//! maintain in-order delivery, there must be a fixed path between each
//! pair of nodes", §3.3).
//!
//! * [`table::Routes`] — the canonical per-router destination tables:
//!   flat O(routers · destinations) storage, allocation-free walking
//!   via [`table::PathIter`], and route tracing.
//! * [`table::RouteSet`] — the derived dense view: all traced
//!   source→destination paths, for callers that want materialized
//!   per-pair slices (corrupted-fixture tests, dense baselines).
//! * [`paths::Paths`] — a unified per-pair view over either
//!   representation, so analyses never materialize a path matrix.
//! * [`forest::DestForest`] — one destination's table routes as an
//!   in-forest, resolved in O(nodes), for analyses that need every
//!   route's hops or channel dependencies without tracing N² pairs.
//! * Generators, one per topology family:
//!   [`direct`] (fully-connected clusters, Fig 3/4),
//!   [`dor`] (dimension-order mesh §3.1 and e-cube hypercube §3.2),
//!   [`ringroute`] (shortest / all-clockwise ring routing for the Fig 1
//!   deadlock demonstration),
//!   [`treeroute`] (binary tree / star, plus generic up*/down*),
//!   [`fattree`] (static up-link partitioning policies, Fig 6),
//!   [`fractal`] (the paper's depth-first fractahedral routing, §2.3,
//!   over any cluster shape, §4).
//! * [`repair`] — self-healing: fault-avoiding up*/down* regeneration
//!   over the surviving subgraph, with graceful-degradation coverage.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod direct;
pub mod dor;
pub mod fattree;
pub mod forest;
pub mod fractal;
pub mod paths;
pub mod repair;
pub mod ringroute;
pub mod table;
pub mod treeroute;

pub use forest::{DestForest, Failure, ForestConsumer, SWEEP_FORK_MIN_WORK};
pub use paths::Paths;
pub use repair::{
    repair_tables, survivor_components, DeadMask, IncrementalRepair, PairCoverage, TableRepair,
};
pub use table::{PathIter, RouteError, RouteSet, Routes};
