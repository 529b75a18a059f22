//! A routing view over either representation.
//!
//! Contention and utilization take a [`Paths`] and branch on it (lint,
//! hop statistics and the channel dependency graph have one entry
//! point per representation): a dense [`RouteSet`] is walked pair by
//! pair in place, while canonical [`Routes`] tables are read per
//! destination through [`DestForest`](crate::DestForest), in
//! O(nodes · N) rather than O(N² · path length). Dense views keep the
//! pair walk because per-pair routes need not agree on a next hop per
//! destination.
//!
//! [`Paths::for_each_pair`] still traces a table view pair by pair
//! into one reused scratch buffer. No analysis calls it on tables any
//! more; it remains as the reference the forest readers are tested
//! against.

use crate::table::{RouteError, RouteSet, Routes};
use fractanet_graph::{ChannelId, Network, NodeId};

/// A read-only view of every ordered pair's path.
#[derive(Clone, Copy)]
pub enum Paths<'a> {
    /// A frozen dense matrix (per-pair generators, corrupted fixtures).
    Dense(&'a RouteSet),
    /// Canonical destination tables, traced lazily per pair.
    Tables {
        /// The network the tables route.
        net: &'a Network,
        /// Addressable end nodes, in address order.
        ends: &'a [NodeId],
        /// The destination-indexed tables.
        routes: &'a Routes,
    },
}

impl<'a> Paths<'a> {
    /// View over a frozen dense route set.
    pub fn dense(routes: &'a RouteSet) -> Self {
        Paths::Dense(routes)
    }

    /// View over canonical destination tables.
    pub fn tables(net: &'a Network, ends: &'a [NodeId], routes: &'a Routes) -> Self {
        Paths::Tables { net, ends, routes }
    }

    /// Number of end nodes.
    pub fn len(&self) -> usize {
        match self {
            Paths::Dense(rs) => rs.len(),
            Paths::Tables { ends, .. } => ends.len(),
        }
    }

    /// Whether there are no end nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `f` once per ordered pair (diagonal excluded) with the
    /// pair's path, or the tracing failure for table views whose route
    /// cannot be walked (dense views never fail). The path slice is
    /// only valid for the duration of the call — table views reuse one
    /// scratch buffer across pairs. On table views this is the
    /// O(N² · path length) reference that the forest readers are
    /// tested against.
    pub fn for_each_pair(&self, mut f: impl FnMut(usize, usize, Result<&[ChannelId], RouteError>)) {
        match self {
            Paths::Dense(rs) => {
                for (s, d, p) in rs.pairs() {
                    f(s, d, Ok(p));
                }
            }
            Paths::Tables { net, ends, routes } => {
                let n = ends.len();
                let mut scratch: Vec<ChannelId> = Vec::new();
                for s in 0..n {
                    for d in 0..n {
                        if s == d {
                            continue;
                        }
                        match routes.trace_into(net, ends, s, d, &mut scratch) {
                            Ok(()) => f(s, d, Ok(&scratch)),
                            Err(e) => f(s, d, Err(e)),
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_graph::{LinkClass, Network, PortId};

    fn dumbbell() -> (Network, Vec<NodeId>, Routes) {
        let mut net = Network::new();
        let r0 = net.add_router("r0", 6);
        let r1 = net.add_router("r1", 6);
        net.connect(r0, PortId(0), r1, PortId(0), LinkClass::Local)
            .unwrap();
        let n0 = net.add_end_node("n0");
        let n1 = net.add_end_node("n1");
        net.connect(r0, PortId(1), n0, PortId(0), LinkClass::Attach)
            .unwrap();
        net.connect(r1, PortId(1), n1, PortId(0), LinkClass::Attach)
            .unwrap();
        let mut routes = Routes::new(&net, 2);
        routes.set(r0, 1, PortId(0));
        routes.set(r1, 1, PortId(1));
        routes.set(r1, 0, PortId(0));
        routes.set(r0, 0, PortId(1));
        (net, vec![n0, n1], routes)
    }

    #[test]
    fn table_view_agrees_with_dense_view() {
        let (net, ends, routes) = dumbbell();
        let rs = RouteSet::from_table(&net, &ends, &routes).unwrap();
        let mut dense: Vec<(usize, usize, Vec<ChannelId>)> = Vec::new();
        Paths::dense(&rs).for_each_pair(|s, d, p| dense.push((s, d, p.unwrap().to_vec())));
        let mut tabled: Vec<(usize, usize, Vec<ChannelId>)> = Vec::new();
        Paths::tables(&net, &ends, &routes)
            .for_each_pair(|s, d, p| tabled.push((s, d, p.unwrap().to_vec())));
        assert_eq!(dense, tabled);
        assert_eq!(Paths::dense(&rs).len(), 2);
        assert_eq!(Paths::tables(&net, &ends, &routes).len(), 2);
    }

    #[test]
    fn table_view_surfaces_trace_errors() {
        let (net, ends, _) = dumbbell();
        let empty = Routes::new(&net, 2);
        let mut errors = 0;
        Paths::tables(&net, &ends, &empty).for_each_pair(|_, _, p| {
            if p.is_err() {
                errors += 1;
            }
        });
        assert_eq!(errors, 2);
    }
}
