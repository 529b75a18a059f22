//! Fractahedral topologies — the paper's primary contribution
//! (§2.2–2.4, Figs 4/5/7, Tables 1–2) and its §4 generalization.
//!
//! A fractahedron is a self-similar recursion of **tetrahedra** (four
//! fully-connected 6-port routers). Every router's six ports follow the
//! paper's 2-3-1 partition:
//!
//! | ports | role |
//! |-------|------|
//! | 0, 1  | down — two end nodes / fan-out routers (level 1) or two lower-level tetrahedra (level ≥ 2) |
//! | 2–4   | intra-tetrahedron links to the other three corners |
//! | 5     | up — toward the next level |
//!
//! **Thin** fractahedron: each tetrahedron keeps a *single* connection
//! to the next level (we use corner 0's up port; "there are unused
//! ports at three of the four corners of each tetrahedron"). Every
//! level is then a single tetrahedron per stack and the bisection
//! bandwidth is fixed at 4 links.
//!
//! **Fat** fractahedron: all four up ports connect to *replicated
//! layers* of the next level. Level `k` is a stack of `4^(k-1)`
//! independent tetrahedron layers ("level 2 is conceptually four
//! tetrahedral layers nested inside each other, but not connected to
//! each other"). The cable discipline follows the paper's §2.3: child
//! `c`'s up links all arrive at stack corner `⌊c/2⌋`, down port
//! `c mod 2`, with child up endpoint (layer `j`, corner `l`) landing on
//! parent layer `l · (child layers) + j`.
//!
//! With `N` levels the structure hosts `8^N` directly-attached end
//! nodes, or `2·8^N` CPUs when the optional **fan-out** router level is
//! added ("one additional router level connecting each pair of CPUs to
//! the level 1 tetrahedron" — Table 1's "Maximum Nodes 2·8^N").
//!
//! # Other cluster shapes
//!
//! §4: "The current focus is on tetrahedral ensembles of 6-port
//! ServerNet routers, but the concepts easily generalize to other fully
//! connected groups of N-port routers." [`Fractahedron::with_shape`]
//! recurses over fully-connected clusters of `m` routers with `p` ports
//! each, under the port partition `(down, intra, up) = (d, m − 1, u)`
//! with `d + (m − 1) + u ≤ p` (a [`ClusterShape`]):
//!
//! * every cluster serves `m·d` children (end nodes at level 1);
//! * **thin**: one up cable per cluster (router 0's first up port);
//! * **fat**: all `m·u` up ports connect to replicated layers — level
//!   `k` carries `(m·u)^(k-1)` layers, generalizing the tetrahedral
//!   `4^(k-1)`.
//!
//! Wiring discipline (generalizing §2.3's cables): child `c`'s up
//! endpoint `(layer j, corner l, up-port q)` lands on parent layer
//! `(l·u + q)·L_child + j`, at parent cluster router `⌊c/d⌋`, down
//! port `c mod d`. Ports on every cluster router: `0..d` down,
//! `d..d+m-1` intra, `d+m-1..d+m-1+u` up. The paper's 2-3-1
//! fractahedron is exactly [`ClusterShape::PAPER`],
//! `(m, p, d, u) = (4, 6, 2, 1)`, and the only shape that takes the
//! fan-out level.

use crate::Topology;
use fractanet_graph::{GraphError, LinkClass, Network, NodeId, PortId};

/// Shape parameters of a cluster fractahedron.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClusterShape {
    /// Routers per fully-connected cluster.
    pub cluster: usize,
    /// Ports per router.
    pub ports: u8,
    /// Down ports per router.
    pub down: usize,
    /// Up ports per router.
    pub up: usize,
}

impl ClusterShape {
    /// The paper's tetrahedral 2-3-1 shape on 6-port routers.
    pub const PAPER: ClusterShape = ClusterShape {
        cluster: 4,
        ports: 6,
        down: 2,
        up: 1,
    };

    /// Validates the port budget: `down + (m−1) + up ≤ ports`.
    pub fn check(&self) {
        assert!(self.cluster >= 2, "need at least two routers per cluster");
        assert!(self.down >= 1 && self.up >= 1, "need down and up ports");
        assert!(
            self.down + self.cluster - 1 + self.up <= self.ports as usize,
            "{}-router cluster on {}-port routers leaves only {} spare ports, \
             but down {} + up {} requested",
            self.cluster,
            self.ports,
            (self.ports as usize + 1).saturating_sub(self.cluster),
            self.down,
            self.up
        );
    }

    /// Children (or end nodes) per cluster: `m · d`.
    pub fn children(&self) -> usize {
        self.cluster * self.down
    }

    /// Fat layer-replication factor per level: `m · u`.
    pub fn replication(&self) -> usize {
        self.cluster * self.up
    }

    /// Intra port on router `from` reaching router `to` of the same
    /// cluster.
    pub fn intra_port(&self, from: usize, to: usize) -> PortId {
        debug_assert!(from != to && from < self.cluster && to < self.cluster);
        let shifted = if to < from { to } else { to - 1 };
        PortId((self.down + shifted) as u8)
    }

    /// Up port `q` of a router.
    pub fn up_port(&self, q: usize) -> PortId {
        debug_assert!(q < self.up);
        PortId((self.down + self.cluster - 1 + q) as u8)
    }
}

/// Thin or fat recursion (§2.2 vs §2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    /// One up-link per cluster; bisection fixed at 4 links for the
    /// paper's tetrahedra.
    Thin,
    /// All up ports used; level `k` replicated into `(m·u)^(k-1)`
    /// layers (`4^(k-1)` for tetrahedra).
    Fat,
}

/// Position of a cluster router inside a fractahedron.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RouterPos {
    /// Level, `1..=levels`.
    pub level: usize,
    /// Stack index within the level (`0..(m·d)^(levels-level)`).
    pub stack: usize,
    /// Layer within the stack (`0` for thin and for level 1).
    pub layer: usize,
    /// Corner (router index within the cluster), `0..m`.
    pub corner: usize,
}

/// An `N`-level thin or fat fractahedron of fully-connected router
/// clusters — the paper's tetrahedra unless built
/// [`with_shape`](Self::with_shape).
///
/// ```
/// use fractanet_topo::{Fractahedron, Topology, Variant};
///
/// // The paper's Fig 7 network: 64 nodes on 48 routers.
/// let f = Fractahedron::new(2, Variant::Fat, false).unwrap();
/// assert_eq!(f.end_nodes().len(), 64);
/// assert_eq!(f.net().router_count(), 48);
/// assert_eq!(f.layer_count(2), 4); // four independent level-2 layers
/// ```
#[derive(Clone, Debug)]
pub struct Fractahedron {
    net: Network,
    shape: ClusterShape,
    levels: usize,
    variant: Variant,
    fanout: bool,
    /// Cluster routers in build order: level, stack, layer, corner.
    routers: Vec<NodeId>,
    /// `level_base[k - 1]` = index in `routers` of level `k`'s first
    /// router.
    level_base: Vec<usize>,
    /// Fan-out routers by attach-point index (empty when `!fanout`).
    fanouts: Vec<NodeId>,
    ends: Vec<NodeId>,
    /// Reverse map: `pos[node.index()]` for cluster routers.
    pos: Vec<Option<RouterPos>>,
}

impl Fractahedron {
    /// Builds an `N`-level fractahedron of the paper's tetrahedra. With
    /// `fanout`, every level-1 down port carries a fan-out router
    /// serving a pair of CPUs (2·8^N end nodes); without, end nodes
    /// attach directly (8^N).
    pub fn new(levels: usize, variant: Variant, fanout: bool) -> Result<Self, GraphError> {
        assert!(
            (1..=5).contains(&levels),
            "1 <= levels <= 5 (level 5 is already 32768 nodes)"
        );
        Self::build(ClusterShape::PAPER, levels, variant, fanout)
    }

    /// Builds an `N`-level fractahedron over clusters of any
    /// [`ClusterShape`] (§4), end nodes attached directly.
    pub fn with_shape(
        shape: ClusterShape,
        levels: usize,
        variant: Variant,
    ) -> Result<Self, GraphError> {
        shape.check();
        assert!(levels >= 1, "need at least one level");
        let top = levels as u32 - 1;
        let clusters = shape.children().checked_pow(top);
        let layers = shape.replication().checked_pow(top);
        assert!(
            clusters
                .zip(layers)
                .and_then(|(c, l)| c.checked_mul(l))
                .is_some_and(|n| n < 1_000_000),
            "configuration too large"
        );
        Self::build(shape, levels, variant, false)
    }

    fn build(
        shape: ClusterShape,
        levels: usize,
        variant: Variant,
        fanout: bool,
    ) -> Result<Self, GraphError> {
        let m = shape.cluster;
        let mut f = Fractahedron {
            net: Network::new(),
            shape,
            levels,
            variant,
            fanout,
            routers: Vec::new(),
            level_base: Vec::with_capacity(levels),
            fanouts: Vec::new(),
            ends: Vec::new(),
            pos: Vec::new(),
        };

        // Clusters, each a clique of `m` routers.
        let mut positions = Vec::new();
        for k in 1..=levels {
            f.level_base.push(f.routers.len());
            for s in 0..f.stack_count(k) {
                for y in 0..f.layer_count(k) {
                    let first = f.routers.len();
                    for c in 0..m {
                        let r = f.net.add_router(format!("L{k}S{s}Y{y}C{c}"), shape.ports);
                        f.routers.push(r);
                        positions.push(RouterPos {
                            level: k,
                            stack: s,
                            layer: y,
                            corner: c,
                        });
                    }
                    let cluster = &f.routers[first..];
                    for a in 0..m {
                        for b in (a + 1)..m {
                            f.net.connect(
                                cluster[a],
                                shape.intra_port(a, b),
                                cluster[b],
                                shape.intra_port(b, a),
                                LinkClass::Local,
                            )?;
                        }
                    }
                }
            }
        }

        // Inter-level cables.
        for k in 2..=levels {
            let child_layers = f.layer_count(k - 1);
            let class = LinkClass::Level((k - 1) as u8);
            for s in 0..f.stack_count(k) {
                for c in 0..shape.children() {
                    let child_stack = s * shape.children() + c;
                    let parent_corner = c / shape.down;
                    let parent_port = PortId((c % shape.down) as u8);
                    match variant {
                        Variant::Thin => {
                            // Single cable: child corner 0 up → parent
                            // layer 0.
                            let child = f.router(k - 1, child_stack, 0, 0);
                            let parent = f.router(k, s, 0, parent_corner);
                            f.net
                                .connect(child, shape.up_port(0), parent, parent_port, class)?;
                        }
                        Variant::Fat => {
                            for l in 0..m {
                                for q in 0..shape.up {
                                    for j in 0..child_layers {
                                        let child = f.router(k - 1, child_stack, j, l);
                                        let layer = (l * shape.up + q) * child_layers + j;
                                        let parent = f.router(k, s, layer, parent_corner);
                                        f.net.connect(
                                            child,
                                            shape.up_port(q),
                                            parent,
                                            parent_port,
                                            class,
                                        )?;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        // End nodes (and optional fan-out routers) on level-1 down
        // ports, in address order: attach = cluster·m·d + corner·d + port.
        for t in 0..f.stack_count(1) {
            for corner in 0..m {
                let attach_router = f.router(1, t, 0, corner);
                for p in 0..shape.down {
                    let port = PortId(p as u8);
                    if fanout {
                        let fr = f.net.add_router(format!("F{t}.{corner}.{p}"), shape.ports);
                        f.net.connect(
                            attach_router,
                            port,
                            fr,
                            shape.up_port(0),
                            LinkClass::Level(0),
                        )?;
                        f.fanouts.push(fr);
                        for cpu in 0..2usize {
                            let e = f.net.add_end_node(format!("CPU{}", f.ends.len()));
                            f.net.connect(
                                fr,
                                PortId(cpu as u8),
                                e,
                                PortId(0),
                                LinkClass::Attach,
                            )?;
                            f.ends.push(e);
                        }
                    } else {
                        let e = f.net.add_end_node(format!("N{}", f.ends.len()));
                        f.net
                            .connect(attach_router, port, e, PortId(0), LinkClass::Attach)?;
                        f.ends.push(e);
                    }
                }
            }
        }

        f.pos = vec![None; f.net.node_count()];
        for (&r, p) in f.routers.iter().zip(positions) {
            f.pos[r.index()] = Some(p);
        }
        Ok(f)
    }

    /// The paper's 64-node fat fractahedron of Fig 7 / Table 2
    /// (2 levels, direct attach, 48 routers).
    pub fn paper_fat_64() -> Self {
        Self::new(2, Variant::Fat, false).expect("paper configuration is valid")
    }

    /// The paper's 1024-CPU thin fractahedron (§2.2: 3 levels with the
    /// fan-out level, maximum delay 12 router hops).
    pub fn paper_thin_1024() -> Self {
        Self::new(3, Variant::Thin, true).expect("paper configuration is valid")
    }

    /// Cluster shape ([`ClusterShape::PAPER`] unless built
    /// [`with_shape`](Self::with_shape)).
    pub fn shape(&self) -> ClusterShape {
        self.shape
    }

    /// Number of levels `N`.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Thin or fat.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Whether the fan-out CPU level is present.
    pub fn has_fanout(&self) -> bool {
        self.fanout
    }

    /// Number of stacks at `level` (`(m·d)^(levels-level)`).
    pub fn stack_count(&self, level: usize) -> usize {
        self.shape.children().pow((self.levels - level) as u32)
    }

    /// Number of layers per stack at `level`.
    pub fn layer_count(&self, level: usize) -> usize {
        match (self.variant, level) {
            (Variant::Thin, _) | (_, 1) => 1,
            (Variant::Fat, _) => self.shape.replication().pow(level as u32 - 1),
        }
    }

    /// Router at `(level, stack, layer, corner)`.
    pub fn router(&self, level: usize, stack: usize, layer: usize, corner: usize) -> NodeId {
        let cluster = stack * self.layer_count(level) + layer;
        self.routers[self.level_base[level - 1] + cluster * self.shape.cluster + corner]
    }

    /// Position of a cluster router (fan-out routers and end nodes
    /// return `None`).
    pub fn pos_of(&self, node: NodeId) -> Option<RouterPos> {
        self.pos.get(node.index()).copied().flatten()
    }

    /// Fan-out router serving attach point `a` (only with fan-out).
    pub fn fanout_router(&self, attach: usize) -> Option<NodeId> {
        self.fanouts.get(attach).copied()
    }

    /// Number of end nodes per attach point (2 with fan-out, 1
    /// without).
    pub fn nodes_per_attach(&self) -> usize {
        if self.fanout {
            2
        } else {
            1
        }
    }

    /// Attach-point index (`cluster·m·d + corner·d + port`) of an
    /// address.
    pub fn attach_of_addr(&self, addr: usize) -> usize {
        addr / self.nodes_per_attach()
    }

    /// Level-1 cluster (tetrahedron) index of an address.
    pub fn tetra_of_addr(&self, addr: usize) -> usize {
        self.attach_of_addr(addr) / self.shape.children()
    }

    /// Level-1 corner (`0..m`) of an address.
    pub fn corner_of_addr(&self, addr: usize) -> usize {
        (self.attach_of_addr(addr) / self.shape.down) % self.shape.cluster
    }

    /// Level-1 down port (`0..d`) of an address.
    pub fn port_of_addr(&self, addr: usize) -> usize {
        self.attach_of_addr(addr) % self.shape.down
    }

    /// Stack index containing level-1 cluster `t` at `level`.
    pub fn stack_of_tetra(&self, t: usize, level: usize) -> usize {
        t / self.shape.children().pow((level - 1) as u32)
    }

    /// Child index (`0..m·d`) of the level-`level` stack on the path
    /// from the root down to cluster `t`; `level ≥ 2`.
    pub fn child_digit(&self, t: usize, level: usize) -> usize {
        (t / self.shape.children().pow((level - 2) as u32)) % self.shape.children()
    }

    /// Total cluster-router count (excludes fan-out routers).
    pub fn tetra_router_count(&self) -> usize {
        self.routers.len()
    }
}

impl Topology for Fractahedron {
    fn net(&self) -> &Network {
        &self.net
    }
    fn end_nodes(&self) -> &[NodeId] {
        &self.ends
    }
    fn name(&self) -> String {
        let s = self.shape;
        format!(
            "{:?}-fractahedron {}N{}{}",
            self.variant,
            if s == ClusterShape::PAPER {
                String::new()
            } else {
                format!("m{} p{} d{} u{} ", s.cluster, s.ports, s.down, s.up)
            },
            self.levels,
            if self.fanout { " +fanout" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_graph::bfs;

    #[test]
    fn one_level_is_a_tetrahedron() {
        for v in [Variant::Thin, Variant::Fat] {
            let f = Fractahedron::new(1, v, false).unwrap();
            assert_eq!(f.net().router_count(), 4);
            assert_eq!(f.end_nodes().len(), 8);
            assert_eq!(bfs::max_router_hops(f.net()), Some(2));
            f.net().validate().unwrap();
        }
    }

    #[test]
    fn paper_fat_64_router_count_is_48() {
        let f = Fractahedron::paper_fat_64();
        assert_eq!(f.end_nodes().len(), 64);
        assert_eq!(
            f.net().router_count(),
            48,
            "Table 2: fat fractahedron uses 48 routers"
        );
        assert_eq!(f.stack_count(1), 8);
        assert_eq!(f.stack_count(2), 1);
        assert_eq!(f.layer_count(2), 4);
        f.net().validate().unwrap();
    }

    #[test]
    fn fat_max_delay_is_3n_minus_1() {
        for n in 1..=3usize {
            let f = Fractahedron::new(n, Variant::Fat, false).unwrap();
            assert_eq!(
                bfs::max_router_hops(f.net()),
                Some((3 * n - 1) as u32),
                "Table 1: fat max delay 3N-1, N = {n}"
            );
        }
    }

    #[test]
    fn thin_max_delay_is_4n_minus_2() {
        for n in 1..=3usize {
            let f = Fractahedron::new(n, Variant::Thin, false).unwrap();
            assert_eq!(
                bfs::max_router_hops(f.net()),
                Some((4 * n - 2) as u32),
                "Table 1: thin max delay 4N-2, N = {n}"
            );
        }
    }

    #[test]
    fn fanout_16_cpu_system_has_max_delay_4() {
        // §2.2: "a 16-CPU system may be constructed with a maximum
        // delay between CPUs of four router hops".
        let f = Fractahedron::new(1, Variant::Thin, true).unwrap();
        assert_eq!(f.end_nodes().len(), 16);
        assert_eq!(bfs::max_router_hops(f.net()), Some(4));
    }

    #[test]
    fn thin_1024_cpu_max_delay_is_12() {
        // §2.2: "When extended to 1024 CPUs through a thin
        // fractahedron, the maximum delay is twelve."
        let f = Fractahedron::paper_thin_1024();
        assert_eq!(f.end_nodes().len(), 1024);
        // A worst-case pair: the source needs an intra-tetrahedron hop
        // toward the up corner at both level 1 and level 2, and the
        // destination needs the far corner at every level on the way
        // down. addr 124 = tetra 7 corner 3; addr 1023 = tetra 63
        // corner 3.
        let a = f.end_nodes()[124];
        let b = f.end_nodes()[1023];
        assert_eq!(bfs::router_hops(f.net(), a, b), Some(12));
        // And no pair is worse (full sweep).
        assert_eq!(bfs::max_router_hops(f.net()), Some(12));
    }

    #[test]
    fn fat_64_average_hops_matches_table_2() {
        // Table 2: 4.3 average (exact value 271/63 ≈ 4.302).
        let f = Fractahedron::paper_fat_64();
        let avg = bfs::avg_router_hops(f.net()).unwrap();
        assert!((avg - 271.0 / 63.0).abs() < 1e-9, "avg = {avg}");
    }

    #[test]
    fn node_counts_match_table_1() {
        for n in 1..=3usize {
            let thin = Fractahedron::new(n, Variant::Thin, true).unwrap();
            assert_eq!(
                thin.end_nodes().len(),
                2 * 8usize.pow(n as u32),
                "2*8^N CPUs"
            );
        }
    }

    #[test]
    fn thin_router_count_formula() {
        // 4 * (8^N - 1) / 7 tetrahedron routers.
        for n in 1..=3usize {
            let f = Fractahedron::new(n, Variant::Thin, false).unwrap();
            let expect = 4 * (8usize.pow(n as u32) - 1) / 7;
            assert_eq!(f.tetra_router_count(), expect);
            assert_eq!(f.net().router_count(), expect);
        }
    }

    #[test]
    fn fat_router_count_formula() {
        // Level k contributes 8^(N-k) * 4^k routers.
        for n in 1..=3usize {
            let f = Fractahedron::new(n, Variant::Fat, false).unwrap();
            let expect: usize = (1..=n)
                .map(|k| 8usize.pow((n - k) as u32) * 4usize.pow(k as u32))
                .sum();
            assert_eq!(f.net().router_count(), expect);
        }
    }

    #[test]
    fn intra_port_mapping() {
        let shape = ClusterShape::PAPER;
        assert_eq!(shape.intra_port(0, 1), PortId(2));
        assert_eq!(shape.intra_port(0, 3), PortId(4));
        assert_eq!(shape.intra_port(3, 0), PortId(2));
        assert_eq!(shape.intra_port(2, 1), PortId(3));
        assert_eq!(shape.up_port(0), PortId(5));
        // Symmetric consistency with the builder: the port pair really
        // connects the two corners.
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        for a in 0..4usize {
            for b in 0..4usize {
                if a == b {
                    continue;
                }
                let ra = f.router(1, 0, 0, a);
                let rb = f.router(1, 0, 0, b);
                let ch = f.net().channel_out(ra, shape.intra_port(a, b)).unwrap();
                assert_eq!(f.net().channel_dst(ch), rb, "corner {a} -> {b}");
            }
        }
    }

    #[test]
    fn fat_up_links_follow_cable_discipline() {
        // Level-1 tetra t corner l's up port reaches level-2 layer l,
        // stack corner t/2, down port t%2.
        let f = Fractahedron::paper_fat_64();
        let up = ClusterShape::PAPER.up_port(0);
        for t in 0..8usize {
            for l in 0..4usize {
                let child = f.router(1, t, 0, l);
                let ch = f.net().channel_out(child, up).unwrap();
                let parent = f.net().channel_dst(ch);
                assert_eq!(parent, f.router(2, 0, l, t / 2));
                assert_eq!(f.net().channel_dst_port(ch), PortId((t % 2) as u8));
            }
        }
    }

    #[test]
    fn thin_only_corner0_ascends() {
        let f = Fractahedron::new(2, Variant::Thin, false).unwrap();
        let up = ClusterShape::PAPER.up_port(0);
        for t in 0..8usize {
            assert!(f.net().channel_out(f.router(1, t, 0, 0), up).is_some());
            for c in 1..4usize {
                assert!(f.net().channel_out(f.router(1, t, 0, c), up).is_none());
            }
        }
    }

    #[test]
    fn address_decomposition() {
        let f = Fractahedron::paper_fat_64();
        // addr = t*8 + corner*2 + port (direct attach).
        assert_eq!(f.tetra_of_addr(0), 0);
        assert_eq!(f.corner_of_addr(0), 0);
        assert_eq!(f.port_of_addr(0), 0);
        assert_eq!(f.tetra_of_addr(63), 7);
        assert_eq!(f.corner_of_addr(63), 3);
        assert_eq!(f.port_of_addr(63), 1);
        assert_eq!(f.corner_of_addr(14), 3);
        // Addresses attach where they claim to.
        for (addr, &e) in f.end_nodes().iter().enumerate() {
            let r = f.net().neighbors(e).next().unwrap();
            let pos = f.pos_of(r).unwrap();
            assert_eq!(pos.level, 1);
            assert_eq!(pos.stack, f.tetra_of_addr(addr));
            assert_eq!(pos.corner, f.corner_of_addr(addr));
        }
    }

    #[test]
    fn fanout_addressing() {
        let f = Fractahedron::new(1, Variant::Fat, true).unwrap();
        assert_eq!(f.nodes_per_attach(), 2);
        assert_eq!(f.attach_of_addr(5), 2);
        assert_eq!(f.corner_of_addr(5), 1);
        // CPU 5 hangs off fan-out router 2.
        let e = f.end_nodes()[5];
        let fr = f.net().neighbors(e).next().unwrap();
        assert_eq!(Some(fr), f.fanout_router(2));
    }

    #[test]
    fn pos_of_covers_all_tetra_routers() {
        let f = Fractahedron::new(2, Variant::Fat, false).unwrap();
        let covered = f.net().routers().filter(|&r| f.pos_of(r).is_some()).count();
        assert_eq!(covered, 48);
        let p = f.pos_of(f.router(2, 0, 3, 2)).unwrap();
        assert_eq!(
            p,
            RouterPos {
                level: 2,
                stack: 0,
                layer: 3,
                corner: 2
            }
        );
    }

    #[test]
    fn connected_at_all_sizes() {
        for n in 1..=3usize {
            for v in [Variant::Thin, Variant::Fat] {
                let f = Fractahedron::new(n, v, false).unwrap();
                assert!(bfs::is_connected(f.net()), "{v:?} N{n}");
            }
        }
    }

    #[test]
    fn child_digit_and_stack() {
        let f = Fractahedron::new(3, Variant::Thin, false).unwrap();
        // Tetra 0o53 = 43: digit at level 2 is 3, at level 3 is 5.
        assert_eq!(f.child_digit(43, 2), 3);
        assert_eq!(f.child_digit(43, 3), 5);
        assert_eq!(f.stack_of_tetra(43, 2), 5);
        assert_eq!(f.stack_of_tetra(43, 3), 0);
    }

    const TRIANGLE: ClusterShape = ClusterShape {
        cluster: 3,
        ports: 6,
        down: 2,
        up: 2,
    };

    const EIGHT_PORT: ClusterShape = ClusterShape {
        cluster: 4,
        ports: 8,
        down: 3,
        up: 2,
    };

    #[test]
    fn eight_port_shape_builds() {
        // 8-port routers, 4-cluster, 3 down / 3 intra / 2 up: per the
        // paper's §4, "other fully connected groups of N-port routers".
        let g = Fractahedron::with_shape(EIGHT_PORT, 2, Variant::Fat).unwrap();
        // Level 1: 12 clusters of 4 routers (12 children each); level
        // 2: replication 8 layers.
        assert_eq!(g.end_nodes().len(), 12 * 12);
        assert_eq!(g.layer_count(2), 8);
        assert_eq!(g.net().router_count(), 12 * 4 + 8 * 4);
        g.net().validate().unwrap();
        assert!(bfs::is_connected(g.net()));
    }

    #[test]
    fn triangle_cluster_shape() {
        // 3 fully-connected 6-port routers: 2 intra, leaving 4 ports →
        // 2 down + 2 up.
        let g = Fractahedron::with_shape(TRIANGLE, 2, Variant::Fat).unwrap();
        assert_eq!(TRIANGLE.children(), 6);
        assert_eq!(TRIANGLE.replication(), 6);
        assert_eq!(g.end_nodes().len(), 36);
        assert_eq!(g.layer_count(2), 6);
        assert!(bfs::is_connected(g.net()));
    }

    #[test]
    fn fat_max_delay_generalizes_to_3n_minus_1() {
        for shape in [ClusterShape::PAPER, TRIANGLE, EIGHT_PORT] {
            for n in 1..=2usize {
                let g = Fractahedron::with_shape(shape, n, Variant::Fat).unwrap();
                assert_eq!(
                    bfs::max_router_hops(g.net()),
                    Some((3 * n - 1) as u32),
                    "{shape:?} N={n}"
                );
            }
        }
    }

    #[test]
    fn thin_max_delay_generalizes_to_4n_minus_2() {
        for n in 1..=3usize {
            let g = Fractahedron::with_shape(TRIANGLE, n, Variant::Thin).unwrap();
            assert_eq!(
                bfs::max_router_hops(g.net()),
                Some((4 * n - 2) as u32),
                "N={n}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "spare ports")]
    fn port_overflow_rejected() {
        let shape = ClusterShape {
            cluster: 4,
            ports: 6,
            down: 3,
            up: 1,
        };
        let _ = Fractahedron::with_shape(shape, 2, Variant::Fat);
    }

    #[test]
    #[should_panic(expected = "spare ports")]
    fn cluster_wider_than_router_rejected() {
        // Eight routers cannot form a clique of 6-port routers; the
        // message's spare-port count must not underflow.
        let shape = ClusterShape {
            cluster: 8,
            ports: 6,
            down: 1,
            up: 1,
        };
        let _ = Fractahedron::with_shape(shape, 1, Variant::Fat);
    }

    #[test]
    #[should_panic(expected = "configuration too large")]
    fn oversized_shape_rejected_without_overflow() {
        // 6^39 overflows usize; the guard must still refuse the build.
        let _ = Fractahedron::with_shape(TRIANGLE, 40, Variant::Thin);
    }

    #[test]
    fn shape_address_decomposition() {
        let g = Fractahedron::with_shape(TRIANGLE, 2, Variant::Fat).unwrap();
        // addr 17 = cluster 2, corner (17 % 6) / 2 = 2, port 1.
        assert_eq!(g.tetra_of_addr(17), 2);
        assert_eq!(g.corner_of_addr(17), 2);
        assert_eq!(g.port_of_addr(17), 1);
        assert_eq!(g.stack_of_tetra(5, 2), 0);
        assert_eq!(g.child_digit(5, 2), 5);
        // Attachment agrees with the decomposition.
        for (addr, &e) in g.end_nodes().iter().enumerate() {
            let r = g.net().neighbors(e).next().unwrap();
            let pos = g.pos_of(r).unwrap();
            assert_eq!(pos.stack, g.tetra_of_addr(addr));
            assert_eq!(pos.corner, g.corner_of_addr(addr));
        }
    }

    #[test]
    fn wiring_discipline_holds() {
        // Child cluster c corner l up-port q lands on parent layer
        // (l*u + q)*L_child + j at router c/d, port c%d.
        let g = Fractahedron::with_shape(TRIANGLE, 2, Variant::Fat).unwrap();
        for c in 0..TRIANGLE.children() {
            for l in 0..TRIANGLE.cluster {
                for q in 0..TRIANGLE.up {
                    let child = g.router(1, c, 0, l);
                    let ch = g.net().channel_out(child, TRIANGLE.up_port(q)).unwrap();
                    let parent = g.net().channel_dst(ch);
                    let want_layer = l * TRIANGLE.up + q;
                    assert_eq!(parent, g.router(2, 0, want_layer, c / TRIANGLE.down));
                    assert_eq!(
                        g.net().channel_dst_port(ch),
                        PortId((c % TRIANGLE.down) as u8)
                    );
                }
            }
        }
    }
}
