//! Maximum link contention (§3.1/§3.3/§3.4).
//!
//! For each unidirectional channel, collect every `(source,
//! destination)` pair whose fixed route crosses it; the worst-case
//! simultaneous load is the maximum matching between sources and
//! destinations (a transfer occupies one source and one destination,
//! and the paper's scenarios — "simultaneous transfers from A1-F6,
//! A2-E6, A3-D6, A4-C6, and A5-B6" — are exactly matchings). The
//! metric is the maximum over channels, usually quoted as `k:1`.
//!
//! Every channel's matching is solved over *twin groups*: destinations
//! reached from identical source sets merge into one group, and the
//! matching becomes `min(|S|, |D|)` for a single group or a small max
//! flow otherwise (DESIGN.md §13). Destination tables yield the groups
//! straight from their routing forests, so no pair is ever traced;
//! dense route sets group each channel's collected pairs.

use crate::groups::{dense_flows, flows_matching, Groups};
use fractanet_graph::matching::Bipartite;
use fractanet_graph::{ChannelId, LinkClass, Network};
use fractanet_route::{DestForest, ForestConsumer, Paths, RouteSet};

/// Worst-case contention of a routed network.
#[derive(Clone, Debug)]
pub struct ContentionReport {
    /// The maximum matching size over all channels (the `k` of `k:1`).
    pub worst: usize,
    /// A channel achieving it.
    pub worst_channel: ChannelId,
    /// Matching size per channel, indexed by `ChannelId::index()`.
    pub per_channel: Vec<usize>,
}

impl ContentionReport {
    /// Worst contention among channels of one link class (e.g. the
    /// Fig 3 numbers are quoted for inter-router links only).
    pub fn worst_in_class(&self, net: &Network, class: LinkClass) -> Option<(usize, ChannelId)> {
        self.per_channel
            .iter()
            .enumerate()
            .filter(|&(i, _)| net.link(ChannelId(i as u32).link()).class == class)
            .map(|(i, &c)| (c, ChannelId(i as u32)))
            .max_by_key(|&(c, ch)| (c, std::cmp::Reverse(ch.index())))
    }

    /// The example transfer set achieving `worst` on `worst_channel`
    /// can be recomputed with [`contention_of_channel`]; this helper
    /// formats the headline number the way the paper quotes it.
    pub fn ratio(&self) -> String {
        format!("{}:1", self.worst)
    }
}

/// Computes the contention report for a full route set.
///
/// ```
/// use fractanet_metrics::max_link_contention;
/// use fractanet_route::{direct, RouteSet};
/// use fractanet_topo::{FullyConnectedCluster, Topology};
///
/// let tetra = FullyConnectedCluster::tetrahedron();
/// let routes = direct::cluster_routes(&tetra);
/// let rs = RouteSet::from_table(tetra.net(), tetra.end_nodes(), &routes).unwrap();
/// // Fig 3: "at most three nodes may simultaneously attempt to use
/// // any one of the inter-router links."
/// assert_eq!(max_link_contention(tetra.net(), &rs).worst, 3);
/// ```
pub fn max_link_contention(net: &Network, routes: &RouteSet) -> ContentionReport {
    max_link_contention_paths(net, Paths::dense(routes))
}

/// [`max_link_contention`] over either routing representation. Table
/// views are read per routing forest in O(nodes · N) plus one small
/// solve per channel; pairs whose table trace fails contribute no
/// flows.
pub fn max_link_contention_paths(net: &Network, paths: Paths<'_>) -> ContentionReport {
    match paths {
        Paths::Dense(rs) => ContentionReport::from_per_channel(
            dense_flows(net, rs)
                .iter_mut()
                .map(|fl| flows_matching(fl))
                .collect(),
        ),
        Paths::Tables { net, ends, routes } => {
            DestForest::sweep(net, ends, routes, ContentionSweep::new(net, ends.len())).finish()
        }
    }
}

/// The forest-side contention build: each [`DestForest`] it absorbs
/// adds that destination's twin groups to the channels it crosses, and
/// [`ContentionSweep::finish`] solves every channel's matching — what
/// [`max_link_contention_paths`] runs over a table view, as one
/// consumer of a shared [`DestForest::sweep`].
pub struct ContentionSweep(Groups);

impl ContentionSweep {
    /// No flows yet, over `net`'s channels and `addresses` end nodes.
    pub fn new(net: &Network, addresses: usize) -> Self {
        ContentionSweep(Groups::new(net, addresses))
    }

    /// The contention report of every destination absorbed so far.
    pub fn finish(self) -> ContentionReport {
        ContentionReport::from_per_channel(self.0.matchings())
    }
}

impl ForestConsumer for ContentionSweep {
    fn absorb(&mut self, forest: &DestForest<'_>) {
        self.0.absorb(forest);
    }

    fn fork(&self) -> Self {
        ContentionSweep(self.0.fork())
    }

    fn merge(&mut self, later: Self) {
        self.0.merge(later.0);
    }
}

impl ContentionReport {
    /// The report of per-channel matchings: the worst is the first
    /// channel, in index order, reaching the maximum (channel 0 when
    /// every channel is idle).
    fn from_per_channel(per_channel: Vec<usize>) -> Self {
        let mut worst = 0usize;
        let mut worst_channel = ChannelId(0);
        for (idx, &m) in per_channel.iter().enumerate() {
            if m > worst {
                worst = m;
                worst_channel = ChannelId(idx as u32);
            }
        }
        ContentionReport {
            worst,
            worst_channel,
            per_channel,
        }
    }
}

/// Contention of one channel plus a witness transfer set
/// (source, destination) realizing it.
pub fn contention_of_channel(
    net: &Network,
    routes: &RouteSet,
    ch: ChannelId,
) -> (usize, Vec<(usize, usize)>) {
    let _ = net;
    let mut fl = Vec::new();
    for (s, d, path) in routes.pairs() {
        if path.contains(&ch) {
            fl.push((s as u32, d as u32));
        }
    }
    let n = routes.len();
    let mut b = Bipartite::new(n, n);
    for &(s, d) in &fl {
        b.add_edge(s, d);
    }
    let pairs = b.max_matching_pairs();
    (
        pairs.len(),
        pairs
            .iter()
            .map(|&(s, d)| (s as usize, d as usize))
            .collect(),
    )
}

/// Contention for a *restricted* traffic pattern: only the listed
/// (source, destination) pairs may be active. Used for the paper's
/// adversarial scenarios (§3.4: "nodes 6, 7, 14, and 15 are all trying
/// to send to nodes 54, 55, 62, and 63").
pub fn pattern_contention(
    net: &Network,
    routes: &RouteSet,
    pattern: &[(usize, usize)],
) -> (usize, ChannelId) {
    let mut flows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); net.channel_count()];
    for &(s, d) in pattern {
        for &ch in routes.path(s, d) {
            flows[ch.index()].push((s as u32, d as u32));
        }
    }
    let mut worst = (0usize, ChannelId(0));
    for (idx, fl) in flows.iter_mut().enumerate() {
        if fl.len() <= worst.0 {
            continue; // matching can't beat the flow count
        }
        let m = flows_matching(fl);
        if m > worst.0 {
            worst = (m, ChannelId(idx as u32));
        }
    }
    worst
}

/// Analytical bound vs the peaks an instrumented simulation actually
/// observed (`fractanet-telemetry`'s per-channel `peak_contention`).
///
/// On a fault-free run over the same routes the empirical figure is a
/// matching of a *subset* of the pairs the analytical metric matched,
/// so every channel must satisfy `empirical ≤ analytical` — both sides
/// are exact maximum matchings (the per-cycle telemetry side by
/// Hopcroft–Karp, the analytical side over twin groups). A violation
/// means the simulator routed a worm somewhere the tables say it
/// cannot go.
#[derive(Clone, Debug)]
pub struct ContentionComparison {
    /// The analytical worst case (the `k` of `k:1`).
    pub worst_analytical: usize,
    /// The largest per-cycle matching any channel ever saw.
    pub worst_empirical: usize,
    /// Channels whose observed peak exceeded their analytical bound:
    /// `(channel, empirical, analytical)`. Empty on conforming runs.
    pub violations: Vec<(ChannelId, usize, usize)>,
}

impl ContentionComparison {
    /// True when no channel beat its analytical bound.
    pub fn within_bounds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks a telemetry run's per-channel contention peaks against the
/// analytical report for the same network and routes. `channels` is
/// `TelemetryReport::channels`, indexed by `ChannelId::index()` like
/// `ContentionReport::per_channel`.
pub fn compare_contention(
    analytical: &ContentionReport,
    channels: &[fractanet_telemetry::ChannelSummary],
) -> ContentionComparison {
    let mut worst_empirical = 0usize;
    let mut violations = Vec::new();
    for (idx, ch) in channels.iter().enumerate() {
        let emp = ch.peak_contention as usize;
        if emp > worst_empirical {
            worst_empirical = emp;
        }
        let bound = analytical.per_channel.get(idx).copied().unwrap_or(0);
        if emp > bound {
            violations.push((ChannelId(idx as u32), emp, bound));
        }
    }
    ContentionComparison {
        worst_analytical: analytical.worst,
        worst_empirical,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_route::direct::cluster_routes;
    use fractanet_route::dor::mesh_xy_routes;
    use fractanet_route::fattree::{fattree_routes, UpPolicy};
    use fractanet_route::fractal::fractal_routes;
    use fractanet_topo::{FatTree, Fractahedron, FullyConnectedCluster, Mesh2D, Topology};

    #[test]
    fn fig3_cluster_contention_series() {
        // Fig 3: 2..6 fully-connected 6-port routers give 5:1, 4:1,
        // 3:1, 2:1, 1:1 on the inter-router links.
        for (m, want) in [(2usize, 5usize), (3, 4), (4, 3), (5, 2), (6, 1)] {
            let c = FullyConnectedCluster::new(m, 6).unwrap();
            let rs = RouteSet::from_table(c.net(), c.end_nodes(), &cluster_routes(&c)).unwrap();
            let rep = max_link_contention(c.net(), &rs);
            let (inter, _) = rep.worst_in_class(c.net(), LinkClass::Local).unwrap();
            assert_eq!(inter, want, "m = {m}");
            assert_eq!(c.predicted_contention(), Some(want));
        }
    }

    #[test]
    fn mesh_6x6_contention_is_10_to_1() {
        // §3.1: "a total of ten transfers may simultaneously try to
        // share the A6 links, giving a 10:1 contention ratio."
        let m = Mesh2D::new(6, 6, 2, 6).unwrap();
        let rs = RouteSet::from_table(m.net(), m.end_nodes(), &mesh_xy_routes(&m)).unwrap();
        let rep = max_link_contention(m.net(), &rs);
        assert_eq!(rep.worst, 10);
        assert_eq!(rep.ratio(), "10:1");
    }

    #[test]
    fn fat_tree_contention_is_12_to_1() {
        // §3.3: "All twelve transfers will contend for the single link
        // HLP, for a 12:1 contention ratio. Other static partitionings
        // … can do no better" — true for partitions that spread
        // destinations evenly (ByLeafRouter, ByNodeModulo).
        let ft = FatTree::paper_4_2_64();
        for policy in [UpPolicy::ByLeafRouter, UpPolicy::ByNodeModulo] {
            let rs = RouteSet::from_table(ft.net(), ft.end_nodes(), &fattree_routes(&ft, policy))
                .unwrap();
            let rep = max_link_contention(ft.net(), &rs);
            assert_eq!(rep.worst, 12, "{policy:?}");
        }
    }

    #[test]
    fn fat_tree_by_group_policy_is_worse() {
        // Ablation: partitioning by destination *group* funnels all 48
        // foreign transfers to a group through one top-level down link
        // — 16:1, strictly worse than the paper's 12:1 bound for
        // even partitions.
        let ft = FatTree::paper_4_2_64();
        let rs = RouteSet::from_table(
            ft.net(),
            ft.end_nodes(),
            &fattree_routes(&ft, UpPolicy::ByGroup),
        )
        .unwrap();
        assert_eq!(max_link_contention(ft.net(), &rs).worst, 16);
    }

    #[test]
    fn fat_fractahedron_contention() {
        // Table 2 quotes 4:1, attributing the worst case to "the links
        // within the second level tetrahedrons" — our intra-tetrahedron
        // (Local) channels reproduce exactly that. The exact
        // whole-network maximum is 8:1, on the level-2 → level-1 down
        // links (all 8 nodes of one destination tetrahedron reachable
        // from same-corner sources), a case §3.4's analysis does not
        // discuss. Either way the fractahedron beats the fat tree's
        // 12:1.
        let f = Fractahedron::paper_fat_64();
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &fractal_routes(&f)).unwrap();
        let rep = max_link_contention(f.net(), &rs);
        let (local_worst, _) = rep.worst_in_class(f.net(), LinkClass::Local).unwrap();
        assert_eq!(local_worst, 4, "paper's 4:1 on intra-tetrahedron links");
        assert_eq!(
            rep.worst, 8,
            "exact whole-network maximum sits on the down links"
        );
        assert_eq!(
            f.net().link(rep.worst_channel.link()).class,
            LinkClass::Level(1)
        );
    }

    #[test]
    fn table_view_equals_the_dense_matching() {
        // The forest sweep over the paper's routings, channel for
        // channel, against the dense pair-collecting path.
        let f = Fractahedron::paper_fat_64();
        let ft = FatTree::paper_4_2_64();
        let m = Mesh2D::new(6, 6, 2, 6).unwrap();
        let cases: [(&dyn Topology, fractanet_route::Routes); 3] = [
            (&f, fractal_routes(&f)),
            (&ft, fattree_routes(&ft, UpPolicy::ByNodeModulo)),
            (&m, mesh_xy_routes(&m)),
        ];
        for (topo, routes) in cases {
            let (net, ends) = (topo.net(), topo.end_nodes());
            let rs = RouteSet::from_table(net, ends, &routes).unwrap();
            let dense = max_link_contention(net, &rs);
            let tables = max_link_contention_paths(net, Paths::tables(net, ends, &routes));
            assert_eq!(tables.per_channel, dense.per_channel, "{}", topo.name());
            assert_eq!(tables.worst_channel, dense.worst_channel);
        }
    }

    #[test]
    fn paper_adversarial_pattern_on_fractahedron() {
        // §3.4: nodes 6,7,14,15 -> 54,55,62,63 all use one diagonal
        // link in one level-2 layer.
        let f = Fractahedron::paper_fat_64();
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &fractal_routes(&f)).unwrap();
        let pattern = [(6, 54), (7, 55), (14, 62), (15, 63)];
        let (worst, ch) = pattern_contention(f.net(), &rs, &pattern);
        assert_eq!(worst, 4);
        // The shared channel is an intra-tetrahedron (Local) link at
        // level 2.
        assert_eq!(f.net().link(ch.link()).class, LinkClass::Local);
        let pos = f.pos_of(f.net().channel_src(ch)).unwrap();
        assert_eq!(pos.level, 2);
    }

    #[test]
    fn paper_adversarial_pattern_on_fat_tree() {
        // §3.3: nodes 52-63 -> 36-47 share one top-level link.
        let ft = FatTree::paper_4_2_64();
        let rs = RouteSet::from_table(
            ft.net(),
            ft.end_nodes(),
            &fattree_routes(&ft, UpPolicy::ByGroup),
        )
        .unwrap();
        let pattern: Vec<(usize, usize)> = (52..64).zip(36..48).collect();
        let (worst, _) = pattern_contention(ft.net(), &rs, &pattern);
        assert_eq!(worst, 12);
    }

    #[test]
    fn compare_contention_flags_only_violations() {
        let m = Mesh2D::new(3, 3, 1, 6).unwrap();
        let rs = RouteSet::from_table(m.net(), m.end_nodes(), &mesh_xy_routes(&m)).unwrap();
        let rep = max_link_contention(m.net(), &rs);

        // Empirical peaks exactly at the bound everywhere: conforming.
        let mut chans =
            vec![fractanet_telemetry::ChannelSummary::default(); m.net().channel_count()];
        for (c, &bound) in chans.iter_mut().zip(&rep.per_channel) {
            c.peak_contention = bound as u32;
        }
        let cmp = compare_contention(&rep, &chans);
        assert!(cmp.within_bounds());
        assert_eq!(cmp.worst_analytical, rep.worst);
        assert_eq!(cmp.worst_empirical, rep.worst);

        // One channel one above its bound: exactly one violation.
        let idx = rep.worst_channel.index();
        chans[idx].peak_contention = (rep.per_channel[idx] + 1) as u32;
        let cmp = compare_contention(&rep, &chans);
        assert!(!cmp.within_bounds());
        assert_eq!(
            cmp.violations,
            vec![(
                rep.worst_channel,
                rep.per_channel[idx] + 1,
                rep.per_channel[idx]
            )]
        );
        assert_eq!(cmp.worst_empirical, rep.worst + 1);

        // An idle run (all peaks zero) trivially conforms.
        let idle = vec![fractanet_telemetry::ChannelSummary::default(); chans.len()];
        assert!(compare_contention(&rep, &idle).within_bounds());
    }

    #[test]
    fn channel_witness_is_valid() {
        let m = Mesh2D::new(3, 3, 1, 6).unwrap();
        let rs = RouteSet::from_table(m.net(), m.end_nodes(), &mesh_xy_routes(&m)).unwrap();
        let rep = max_link_contention(m.net(), &rs);
        let (k, witness) = contention_of_channel(m.net(), &rs, rep.worst_channel);
        assert_eq!(k, rep.worst);
        // Witness pairs must be pairwise distinct on both sides and
        // actually cross the channel.
        let mut ss: Vec<usize> = witness.iter().map(|p| p.0).collect();
        let mut ds: Vec<usize> = witness.iter().map(|p| p.1).collect();
        ss.sort_unstable();
        ds.sort_unstable();
        ss.dedup();
        ds.dedup();
        assert_eq!(ss.len(), k);
        assert_eq!(ds.len(), k);
        for &(s, d) in &witness {
            assert!(rs.path(s, d).contains(&rep.worst_channel));
        }
    }
}
