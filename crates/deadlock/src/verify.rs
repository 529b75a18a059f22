//! One-call deadlock-freedom verification with a human-readable
//! report, used by every experiment binary and by the integration
//! tests that check the paper's §2.4 claim ("the preceding routing
//! algorithm eliminates these loops and avoids possible deadlocks").

use crate::cdg::ChannelDependencyGraph;
use fractanet_graph::{ChannelId, Network, NodeId};
use fractanet_route::{RouteSet, Routes};
use std::fmt;

/// Evidence that a routed network can deadlock.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// A dependency cycle (channel sequence).
    pub cycle: Vec<ChannelId>,
    /// Pretty description naming routers and links.
    pub description: String,
    /// Total dependencies in the CDG.
    pub dependencies: usize,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} channels in cycle, {} dependencies total)",
            self.description,
            self.cycle.len(),
            self.dependencies
        )
    }
}

/// Verifies Dally & Seitz acyclicity for a routed network. `Ok(cdg)`
/// hands back the graph for further statistics.
///
/// ```
/// use fractanet_deadlock::verify_deadlock_free;
/// use fractanet_route::{fractal, RouteSet};
/// use fractanet_topo::{Fractahedron, Topology};
///
/// let f = Fractahedron::paper_fat_64();
/// let routes = fractal::fractal_routes(&f);
/// let rs = RouteSet::from_table(f.net(), f.end_nodes(), &routes).unwrap();
/// // §2.4: the depth-first routing leaves no dependency loops.
/// assert!(verify_deadlock_free(f.net(), &rs).is_ok());
/// ```
pub fn verify_deadlock_free(
    net: &Network,
    routes: &RouteSet,
) -> Result<ChannelDependencyGraph, Box<DeadlockReport>> {
    verify_deadlock_free_cdg(net, ChannelDependencyGraph::from_routes(net, routes))
}

/// [`verify_deadlock_free`] over destination tables directly: the CDG
/// is read off one routing forest per destination
/// ([`ChannelDependencyGraph::from_tables`]), so no pair is traced and
/// no path matrix is materialized.
pub fn verify_deadlock_free_tables(
    net: &Network,
    ends: &[NodeId],
    routes: &Routes,
) -> Result<ChannelDependencyGraph, Box<DeadlockReport>> {
    verify_deadlock_free_cdg(net, ChannelDependencyGraph::from_tables(net, ends, routes))
}

/// Judges a dependency graph the caller has already built — say from
/// a [`CdgSweep`](crate::CdgSweep) that shared its forest sweep with
/// other analyses. The verdict and report are those of
/// [`verify_deadlock_free`] over the routes the graph came from.
pub fn verify_deadlock_free_cdg(
    net: &Network,
    cdg: ChannelDependencyGraph,
) -> Result<ChannelDependencyGraph, Box<DeadlockReport>> {
    match cdg.find_cycle() {
        None => Ok(cdg),
        Some(cycle) => {
            let description = cdg
                .describe_cycle(net)
                .unwrap_or_else(|| "unnamed cycle".to_string());
            Err(Box::new(DeadlockReport {
                cycle,
                description,
                dependencies: cdg.dependency_count(),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_route::fattree::{fattree_routes, UpPolicy};
    use fractanet_route::fractal::fractal_routes;
    use fractanet_route::ringroute::ring_clockwise_routes;
    use fractanet_route::treeroute::updown_routeset;
    use fractanet_route::{direct, dor, RouteSet};
    use fractanet_topo::{
        FatTree, Fractahedron, FullyConnectedCluster, Hypercube, Mesh2D, Ring, Topology, Variant,
    };

    fn table_set<T: Topology>(t: &T, routes: &fractanet_route::Routes) -> RouteSet {
        RouteSet::from_table(t.net(), t.end_nodes(), routes).unwrap()
    }

    #[test]
    fn fat_fractahedron_is_deadlock_free() {
        // §2.4: "the addition of multiple layers has also introduced
        // potential routing loops. However the preceding routing
        // algorithm eliminates these loops".
        for n in 1..=3usize {
            let f = Fractahedron::new(n, Variant::Fat, false).unwrap();
            let rs = table_set(&f, &fractal_routes(&f));
            assert!(
                verify_deadlock_free(f.net(), &rs).is_ok(),
                "fat fractahedron N={n} must be deadlock-free"
            );
        }
    }

    #[test]
    fn thin_fractahedron_is_deadlock_free() {
        for n in 1..=2usize {
            let f = Fractahedron::new(n, Variant::Thin, false).unwrap();
            let rs = table_set(&f, &fractal_routes(&f));
            assert!(verify_deadlock_free(f.net(), &rs).is_ok());
        }
    }

    #[test]
    fn fanout_fractahedron_is_deadlock_free() {
        let f = Fractahedron::new(1, Variant::Fat, true).unwrap();
        let rs = table_set(&f, &fractal_routes(&f));
        assert!(verify_deadlock_free(f.net(), &rs).is_ok());
    }

    #[test]
    fn fat_trees_are_deadlock_free() {
        for (ft, policy) in [
            (FatTree::paper_4_2_64(), UpPolicy::ByLeafRouter),
            (FatTree::paper_4_2_64(), UpPolicy::ByGroup),
            (FatTree::paper_3_3_64(), UpPolicy::ByLeafRouter),
        ] {
            let rs = table_set(&ft, &fattree_routes(&ft, policy));
            assert!(
                verify_deadlock_free(ft.net(), &rs).is_ok(),
                "{} {policy:?}",
                ft.name()
            );
        }
    }

    #[test]
    fn mesh_dor_is_deadlock_free_at_paper_size() {
        let m = Mesh2D::new(6, 6, 2, 6).unwrap();
        let rs = table_set(&m, &dor::mesh_xy_routes(&m));
        assert!(verify_deadlock_free(m.net(), &rs).is_ok());
    }

    #[test]
    fn hypercube_ecube_is_deadlock_free() {
        let h = Hypercube::new(4, 2, 6).unwrap();
        let rs = table_set(&h, &dor::ecube_routes(&h));
        assert!(verify_deadlock_free(h.net(), &rs).is_ok());
    }

    #[test]
    fn hypercube_updown_is_deadlock_free() {
        // Fig 2's disable discipline, modeled as up*/down*.
        let h = Hypercube::new(3, 2, 6).unwrap();
        let rs = updown_routeset(h.net(), h.end_nodes(), h.router(0));
        assert!(verify_deadlock_free(h.net(), &rs).is_ok());
    }

    #[test]
    fn clusters_are_deadlock_free() {
        for m in 2..=6usize {
            let c = FullyConnectedCluster::new(m, 6).unwrap();
            let rs = table_set(&c, &direct::cluster_routes(&c));
            assert!(verify_deadlock_free(c.net(), &rs).is_ok(), "m = {m}");
        }
    }

    #[test]
    fn clockwise_ring_reports_cycle() {
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = table_set(&r, &ring_clockwise_routes(&r));
        let report = verify_deadlock_free(r.net(), &rs).unwrap_err();
        assert_eq!(report.cycle.len(), 4);
        assert!(report.to_string().contains("cycle"));
    }
}
