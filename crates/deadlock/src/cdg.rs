//! Channel dependency graphs.
//!
//! A vertex per unidirectional channel; an edge `c₁ → c₂` whenever some
//! route acquires `c₂` while still holding `c₁` (consecutive channels
//! of a wormhole path). "Deadlocks can occur when a set of packets
//! cannot make further progress because of a circular dependency in
//! which each packet must wait for another to proceed before acquiring
//! access to an output link" — a cycle here is exactly that circular
//! dependency, made static.

use fractanet_graph::{AdjList, ChannelId, Network, NodeId, PortId};
use fractanet_route::{DestForest, ForestConsumer, RouteSet, Routes};

/// Where a dependency first occurs in the s-major pair walk:
/// `(source, destination, window position along the path)`.
type Occurrence = (u32, u32, u32);

/// The channel dependency graph of a routed network.
#[derive(Clone, Debug)]
pub struct ChannelDependencyGraph {
    graph: AdjList,
    /// One witness pair per distinct dependency `(a, b, src, dst)`,
    /// sorted by `(a, b)` for lookup — the pair whose path the
    /// dependency first occurs on in s-major pair order.
    witnesses: Vec<(u32, u32, usize, usize)>,
}

impl ChannelDependencyGraph {
    /// Builds the CDG from every path of `routes`. Duplicate
    /// dependencies (contributed by many pairs) are collapsed; edges
    /// are inserted in the order of their first occurrence walking the
    /// pairs source-major. Per-pair routes need not agree on a next hop
    /// per destination, so they are walked pair by pair:
    /// O(N² · path length).
    pub fn from_routes(net: &Network, routes: &RouteSet) -> Self {
        let mut graph = AdjList::new(net.channel_count());
        let mut seen = std::collections::HashSet::new();
        let mut witnesses = Vec::new();
        for (s, d, path) in routes.pairs() {
            for w in path.windows(2) {
                let (a, b) = (w[0].0, w[1].0);
                if seen.insert((a, b)) {
                    graph.add_edge(a, b);
                    witnesses.push((a, b, s, d));
                }
            }
        }
        Self::indexed(graph, witnesses)
    }

    /// Builds the CDG from destination tables, one routing forest per
    /// destination (a one-consumer [`CdgSweep`]) — no pair is traced
    /// and no dense path matrix is materialized. The result equals
    /// [`ChannelDependencyGraph::from_routes`] over the traced pairs.
    /// Pairs whose trace fails (holes, loops) contribute no
    /// dependencies; the linter reports those separately.
    pub fn from_tables(net: &Network, ends: &[NodeId], routes: &Routes) -> Self {
        let mut sweep = CdgSweep::new(net);
        DestForest::sweep(net, ends, routes, &mut [&mut sweep]);
        sweep.finish()
    }

    fn indexed(graph: AdjList, mut witnesses: Vec<(u32, u32, usize, usize)>) -> Self {
        witnesses.sort_unstable_by_key(|&(a, b, _, _)| (a, b));
        ChannelDependencyGraph { graph, witnesses }
    }

    /// Whether the network is deadlock-free under this routing
    /// (Dally & Seitz: CDG acyclic).
    pub fn is_deadlock_free(&self) -> bool {
        self.graph.is_acyclic()
    }

    /// One dependency cycle as channels, or `None` when deadlock-free.
    pub fn find_cycle(&self) -> Option<Vec<ChannelId>> {
        self.graph
            .find_cycle()
            .map(|vs| vs.into_iter().map(ChannelId).collect())
    }

    /// Number of distinct dependencies.
    pub fn dependency_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Every distinct dependency `(a, b)`, sorted.
    pub fn dependencies(&self) -> Vec<(u32, u32)> {
        self.witnesses.iter().map(|&(a, b, _, _)| (a, b)).collect()
    }

    /// The underlying directed graph (vertices are
    /// `ChannelId::index()`).
    pub fn graph(&self) -> &AdjList {
        &self.graph
    }

    /// A witness route pair `(src, dst)` whose path contains the
    /// dependency `a → b`, if that dependency exists.
    pub fn witness(&self, a: ChannelId, b: ChannelId) -> Option<(usize, usize)> {
        let i = self
            .witnesses
            .binary_search_by_key(&(a.0, b.0), |&(x, y, _, _)| (x, y))
            .ok()?;
        let (_, _, s, d) = self.witnesses[i];
        Some((s, d))
    }

    /// Pretty-prints a cycle as `router --(link)--> router` steps for
    /// experiment output.
    pub fn describe_cycle(&self, net: &Network) -> Option<String> {
        let cyc = self.find_cycle()?;
        let mut out = String::from("channel-dependency cycle:\n");
        for (i, &ch) in cyc.iter().enumerate() {
            let s = net.channel_src(ch);
            let d = net.channel_dst(ch);
            let next = cyc[(i + 1) % cyc.len()];
            let wit = self
                .witness(ch, next)
                .map(|(a, b)| format!("  [held by a {a}->{b} packet]"))
                .unwrap_or_default();
            out.push_str(&format!(
                "  {} --{:?}--> {}{}\n",
                net.label(s),
                ch.link(),
                net.label(d),
                wit
            ));
        }
        Some(out)
    }
}

/// The forest-side CDG build: each [`DestForest`] it absorbs adds
/// that destination's dependencies, O(nodes · N) over all of them. The
/// result is identical to the pair walk over the same tables — same
/// edges in the same order, same witnesses — because each dependency
/// is keyed by its first occurrence in s-major pair order and edges
/// are inserted sorted by that key. Pairs whose route fails add
/// nothing, exactly as a failed trace.
pub struct CdgSweep<'a> {
    net: &'a Network,
    /// Dependency slots per channel: a dependency a → b turns at the
    /// router a enters, so b is named by its output port there.
    ports: usize,
    /// The smallest occurrence of each `(channel, port)` slot.
    first: Vec<Occurrence>,
    /// `claimed[v] == d`: some source already walked on from `v`
    /// toward `d`, offering every later window at a smaller key.
    claimed: Vec<usize>,
}

/// An empty dependency slot.
const NEVER: Occurrence = (u32::MAX, u32::MAX, u32::MAX);

impl<'a> CdgSweep<'a> {
    /// An empty build over `net`'s channels.
    pub fn new(net: &'a Network) -> Self {
        let ports = net
            .nodes()
            .map(|v| net.kind(v).ports() as usize)
            .max()
            .unwrap_or(0);
        CdgSweep {
            net,
            ports,
            first: vec![NEVER; net.channel_count() * ports],
            claimed: vec![usize::MAX; net.node_count()],
        }
    }

    /// The dependency graph of every destination absorbed so far.
    pub fn finish(self) -> ChannelDependencyGraph {
        let (net, ports) = (self.net, self.ports);
        let mut deps: Vec<(Occurrence, usize)> = self
            .first
            .into_iter()
            .enumerate()
            .filter(|&(_, k)| k != NEVER)
            .map(|(i, k)| (k, i))
            .collect();
        deps.sort_unstable();
        let mut graph = AdjList::new(net.channel_count());
        let mut witnesses = Vec::with_capacity(deps.len());
        for ((s, d, _), i) in deps {
            let a = ChannelId((i / ports) as u32);
            let b = net
                .channel_out(net.channel_dst(a), PortId((i % ports) as u8))
                .expect("a dependency slot names a cabled port");
            graph.add_edge(a.0, b.0);
            witnesses.push((a.0, b.0, s as usize, d as usize));
        }
        ChannelDependencyGraph::indexed(graph, witnesses)
    }
}

impl ForestConsumer for CdgSweep<'_> {
    fn absorb(&mut self, forest: &DestForest<'_>) {
        let d = forest.dst();
        for s in (0..forest.addresses()).filter(|&s| s != d) {
            let (mut a, mut v) = forest.inject(s);
            let mut pos = 0u32;
            while let Some(b) = forest.hop(v) {
                let slot = &mut self.first[a.index() * self.ports + forest.channel_src_port(b)];
                *slot = (*slot).min((s as u32, d as u32, pos));
                if self.claimed[v.index()] == d {
                    break;
                }
                self.claimed[v.index()] = d;
                (a, v, pos) = (b, forest.channel_dst(b), pos + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_route::ringroute::{ring_clockwise_routes, ring_shortest_routes};
    use fractanet_route::{dor, RouteSet};
    use fractanet_topo::{Mesh2D, Ring, Topology};

    #[test]
    fn fig1_clockwise_ring_has_cycle() {
        // Figure 1: four wrap-around routes in a 4-router loop.
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = RouteSet::from_table(r.net(), r.end_nodes(), &ring_clockwise_routes(&r)).unwrap();
        let cdg = ChannelDependencyGraph::from_routes(r.net(), &rs);
        assert!(!cdg.is_deadlock_free());
        let cyc = cdg.find_cycle().unwrap();
        // The minimal cycle is the four clockwise inter-router channels.
        assert_eq!(cyc.len(), 4);
        let desc = cdg.describe_cycle(r.net()).unwrap();
        assert!(
            desc.contains("R0"),
            "diagnostic should name routers: {desc}"
        );
    }

    #[test]
    fn shortest_ring_still_cyclic_at_4() {
        // Minimal ring routing keeps both 2-hop wrap routes, which is
        // enough to close the loop.
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = RouteSet::from_table(r.net(), r.end_nodes(), &ring_shortest_routes(&r)).unwrap();
        let cdg = ChannelDependencyGraph::from_routes(r.net(), &rs);
        assert!(!cdg.is_deadlock_free());
    }

    #[test]
    fn mesh_dor_is_acyclic() {
        // The Fig 1 escape: the same four routers as a 2x2 mesh with
        // dimension-order routing ("routes A and C would be allowed,
        // but routes B and D would be disallowed").
        let m = Mesh2D::new(2, 2, 1, 6).unwrap();
        let rs = RouteSet::from_table(m.net(), m.end_nodes(), &dor::mesh_xy_routes(&m)).unwrap();
        let cdg = ChannelDependencyGraph::from_routes(m.net(), &rs);
        assert!(cdg.is_deadlock_free());
        assert!(cdg.find_cycle().is_none());
        assert!(cdg.describe_cycle(m.net()).is_none());
    }

    #[test]
    fn witnesses_identify_contributing_pairs() {
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = RouteSet::from_table(r.net(), r.end_nodes(), &ring_clockwise_routes(&r)).unwrap();
        let cdg = ChannelDependencyGraph::from_routes(r.net(), &rs);
        let cyc = cdg.find_cycle().unwrap();
        let (s, d) = cdg.witness(cyc[0], cyc[1]).unwrap();
        // The witness pair's path must actually contain the two
        // channels consecutively.
        let p = rs.path(s, d);
        let pos = p.iter().position(|&c| c == cyc[0]).unwrap();
        assert_eq!(p[pos + 1], cyc[1]);
    }

    #[test]
    fn dependency_count_collapses_duplicates() {
        let m = Mesh2D::new(3, 1, 1, 6).unwrap();
        let rs = RouteSet::from_table(m.net(), m.end_nodes(), &dor::mesh_xy_routes(&m)).unwrap();
        let cdg = ChannelDependencyGraph::from_routes(m.net(), &rs);
        // 1x3 mesh with 1 node/router: dependencies are few and unique.
        // attach->R0R1, R0R1->R1R2, R1R2->attach, and mirrored; plus
        // middle-node turns.
        assert!(cdg.dependency_count() <= m.net().channel_count() * 2);
        assert!(cdg.is_deadlock_free());
    }
}
