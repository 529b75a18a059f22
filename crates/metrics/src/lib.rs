//! # fractanet-metrics
//!
//! The analytical metrics the paper compares topologies by:
//!
//! * **Maximum link contention** ([`contention`]) — §3's figure of
//!   merit for load imbalance ("Initially, we just use the maximum
//!   link contention as a measure of the ability to handle load
//!   imbalance"): the largest set of simultaneous transfers, with
//!   pairwise-distinct sources and destinations, that a fixed routing
//!   forces through one link. Computed exactly, per channel, as a
//!   maximum bipartite matching over groups of twin destinations.
//! * **Bisection bandwidth** ([`bisection`]) — §2's "total traffic
//!   that can flow between halves of the system when cut at its
//!   weakest point", computed as a min-cut (max-flow) over candidate
//!   balanced partitions.
//! * **Hop statistics** ([`hops`]) — maximum and average router hops,
//!   with full histograms (Tables 1 and 2).
//! * **Link utilization** ([`utilization`]) — routes per channel and
//!   their spread; quantifies §2's complaint that path disables "give
//!   uneven link utilization under uniform load".
//! * **Cost accounting** ([`cost`]) — router/cable/port counts
//!   (Table 2's "Routers" row, Fig 3's "Ports" column).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bisection;
pub mod contention;
pub mod cost;
mod groups;
pub mod hops;
pub mod utilization;

pub use bisection::{bisection_estimate, min_cut_links, BisectionReport};
pub use contention::{
    compare_contention, max_link_contention, max_link_contention_paths, ContentionComparison,
    ContentionReport, ContentionSweep,
};
pub use cost::CostSummary;
pub use hops::{HopStats, HopSweep};
pub use utilization::UtilizationReport;
