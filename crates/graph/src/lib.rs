//! # fractanet-graph
//!
//! Graph substrate for the `fractanet` workspace — the reproduction of
//! Horst, *"ServerNet Deadlock Avoidance and Fractahedral Topologies"*
//! (IPPS 1996).
//!
//! The paper reasons about **system area networks** built from routers
//! with a fixed number of ports, connected by full-duplex cables (each
//! cable is a pair of unidirectional channels). The analyses it performs
//! — hop counts, channel-dependency cycles, bisection min-cuts, and
//! worst-case link contention — all need a graph representation in which
//! *ports* and *unidirectional channels* are first-class, which is what
//! [`Network`] provides.
//!
//! On top of the network representation, this crate supplies the generic
//! algorithms every other crate in the workspace uses:
//!
//! * [`AdjList`] — a plain directed graph used for derived graphs such as
//!   channel-dependency graphs, with Tarjan SCC, acyclicity checks and
//!   topological sorting ([`adjlist`]).
//! * Breadth-first distances and all-pairs hop counts ([`bfs`]).
//! * Dinic max-flow / min-cut for bisection bandwidth ([`flow`]).
//! * Hopcroft–Karp maximum bipartite matching for the paper's
//!   "maximum link contention" metric ([`matching`]).
//! * A small union-find for connectivity checks ([`dsu`]).
//! * Exact minimum hitting set via branch and bound, for the deadlock
//!   layer's provably minimal turn-disable synthesis ([`hitting`]).
//! * The one deterministic worker pool and its width rule ([`pool`]),
//!   shared by the destination-forest sweep, load sweeps and chaos
//!   campaigns.
//!
//! The crate is dependency-free: the structures the paper needs (ports,
//! duplex link pairs, channel identities) are small and bespoke, so a
//! general-purpose graph library would be used for only a fraction of its
//! surface while still requiring the same wrapper types.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adjlist;
pub mod bfs;
pub mod dsu;
pub mod error;
pub mod flow;
pub mod hitting;
pub mod ids;
pub mod json;
pub mod matching;
pub mod network;
pub mod pool;
pub mod viz;

pub use adjlist::AdjList;
pub use dsu::DisjointSets;
pub use error::GraphError;
pub use hitting::{greedy_hitting_set, min_hitting_set, packing_lower_bound, HittingSetSolution};
pub use ids::{ChannelId, Direction, LinkId, NodeId, PortId};
pub use network::{LinkClass, LinkInfo, Network, NodeInfo, NodeKind};
