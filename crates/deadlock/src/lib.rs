//! # fractanet-deadlock
//!
//! Deadlock analysis after Dally & Seitz (the paper's reference \[6\]):
//! a deterministic wormhole-routed network is deadlock-free **iff** its
//! channel dependency graph is acyclic. This crate builds that graph
//! from a topology plus a traced [`RouteSet`], verifies acyclicity,
//! explains violations in terms of the Fig 1 blocked-packet picture,
//! synthesizes path disables that break cycles (the Fig 2 technique),
//! decides *whether* a deadlock-free routing exists at all and proves
//! it either way with replayable certificates ([`exact`]), and provides
//! the wait-for-graph detector the flit simulator uses to recognize a
//! deadlock that actually happened.
//!
//! [`RouteSet`]: fractanet_route::RouteSet

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cdg;
pub mod disables;
pub mod exact;
pub mod verify;
pub mod waitgraph;

pub use cdg::{CdgSweep, ChannelDependencyGraph};
pub use disables::{route_from_masked, synthesize_disables, DisableSet, SynthesisError};
pub use exact::{
    deadlock_free_routing_exists, decide, min_cycle_disables, synthesize_disables_exact,
    CycleDisables, Decision, ExactConfig, ExactSynthesis, Obstruction, Witness,
};
pub use verify::{
    verify_deadlock_free, verify_deadlock_free_cdg, verify_deadlock_free_tables, DeadlockReport,
};
pub use waitgraph::WaitGraph;
