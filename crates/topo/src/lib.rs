//! # fractanet-topo
//!
//! Topology builders for the `fractanet` workspace. Every network the
//! paper mentions can be constructed here, with the 6-port ServerNet
//! router budget enforced at build time:
//!
//! * the paper's **primary contribution** — fully-connected router
//!   clusters ([`cluster`], Fig 3), the tetrahedron (Fig 4) and thin /
//!   fat **fractahedrons** ([`fractahedron`], Figs 5 & 7, Tables 1–2),
//!   over the paper's tetrahedra or any other cluster shape (§4);
//! * the **baselines** of §3 — 2-D meshes with per-router end nodes
//!   ([`mesh`], §3.1), hypercubes ([`hypercube`], Fig 2 / §3.2), and
//!   k-ary fat trees with a configurable down/up port split
//!   ([`fattree`], Fig 6 / §3.3–3.4);
//! * the **background menagerie** of §2 — ring, torus, star, binary
//!   tree, cube-connected cycles ([`ring`], [`mesh`], [`tree`],
//!   [`hypercube`]).
//!
//! Each builder returns a typed struct owning the [`Network`] plus the
//! coordinate/addressing metadata that its routing algorithm (in
//! `fractanet-route`) needs. All builders expose their end nodes in a
//! canonical *address order* via the [`Topology`] trait; routing tables
//! and metrics use that order as the destination address space, exactly
//! like ServerNet's destination-ID-indexed routing tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod fattree;
pub mod fractahedron;
pub mod hypercube;
pub mod mesh;
pub mod ring;
pub mod shuffle;
pub mod tree;

pub use cluster::FullyConnectedCluster;
pub use fattree::FatTree;
pub use fractahedron::{ClusterShape, Fractahedron, Variant};
pub use hypercube::{CubeConnectedCycles, Hypercube};
pub use mesh::{Mesh2D, Torus2D};
pub use ring::Ring;
pub use shuffle::ShuffleExchange;
pub use tree::{BinaryTree, Star};

use fractanet_graph::{Network, NodeId};

/// Common surface of every built topology.
///
/// `end_nodes()` is the canonical address order: end node *i* is
/// "destination ID *i*" for routing tables, contention analysis and the
/// simulator.
pub trait Topology {
    /// The underlying port-aware network.
    fn net(&self) -> &Network;
    /// End nodes in address order.
    fn end_nodes(&self) -> &[NodeId];
    /// Short human-readable description, e.g. `"mesh 6x6 (2/router)"`.
    fn name(&self) -> String;

    /// Address (index into [`Self::end_nodes`]) of a given end node.
    fn address_of(&self, node: NodeId) -> Option<usize> {
        self.end_nodes().iter().position(|&n| n == node)
    }
}
