//! # fractanet-sim
//!
//! A flit-level, cycle-driven **wormhole routing** simulator for
//! ServerNet-style networks — the tool the paper defers to future work
//! ("Future work will center on simulations of large topologies in
//! order to better understand network performance under heavy
//! loading", §4).
//!
//! The model matches the paper's router description (§1): input FIFO
//! buffers per port, a non-blocking crossbar, and byte-serial links
//! carrying one flit per cycle. Wormhole switching: "the head of a
//! packet is routed before the tail of the packet arrives at that
//! router" — a packet allocates each channel when its head advances
//! into it and releases it when its tail drains out, so a blocked head
//! leaves its tail pinning channels behind it, which is exactly how
//! Figure 1's deadlock arises. Flow control is conservative
//! credit-based: a flit advances only if the downstream input FIFO had
//! space at the start of the cycle.
//!
//! * [`config::SimConfig`] — buffer depth, packet length, cycle/stall
//!   limits, RNG seed.
//! * [`traffic::Workload`] — Bernoulli uniform / permutation / hotspot
//!   processes plus scripted one-shot patterns (the Fig 1 setup and
//!   the §3 adversarial scenarios).
//! * [`engine::Engine`] — the simulator proper, with round-robin
//!   output arbitration and wait-for-graph deadlock detection (via
//!   `fractanet-deadlock`).
//! * [`stats::SimResult`] — latency/throughput/utilization plus the
//!   deadlock verdict.
//! * [`sweep`] — parallel offered-load sweeps (crossbeam scoped
//!   threads) for load-latency curves.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod config;
pub mod engine;
pub mod fault;
mod jsonin;
pub mod pool;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod traffic;
pub mod vc;

pub use chaos::{sample_schedule, shrink, ChaosSpace, Invariant, Scenario, Violation};
pub use config::SimConfig;
pub use engine::Engine;
pub use fault::{FaultEvent, FaultKind, RetryPolicy};
pub use fractanet_telemetry::{
    Anomaly, AnomalyKind, MetricsConfig, MetricsReport, SpanKind, Telemetry, TelemetryReport,
    TraceEvent,
};
pub use pool::parallel_map;
pub use stats::{CreditStats, DeadlockEvent, RecoveryStats, SimResult};
pub use sweep::{sweep_loads, LoadPoint};
pub use trace::{parse_trace, write_trace, RecordedTrace, TraceExpectation};
pub use traffic::{DstPattern, Workload};
pub use vc::{
    dateline_ring_map, dateline_ring_routes, dateline_torus_map, dateline_torus_routes,
    ecube_hypercube_map, ecube_mesh_map, VcMap, VcRouteSet, VcSweep,
};
