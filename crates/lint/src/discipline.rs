//! Routing-discipline models for rule L4.
//!
//! Each deadlock-free routing family in the paper obeys a *monotone
//! phase* discipline, and that is exactly what makes it statically
//! checkable: the fractahedral depth-first rule ascends the level
//! hierarchy and then only descends (§2.3–2.4), up*/down* fat-tree
//! routing climbs toward the roots and then only goes down (§3.3), and
//! dimension-order mesh/hypercube routing corrects coordinates in a
//! fixed dimension order (§3.1–3.2). A [`Discipline`] captures the
//! per-router metadata (level rank or coordinate vector) needed to
//! classify every hop of a traced path and reject the first
//! out-of-order one.

use fractanet_graph::{ChannelId, Network, NodeId};
use fractanet_topo::{FatTree, Fractahedron, Hypercube, Mesh2D, Topology};
use std::cmp::Ordering;

/// A statically checkable routing discipline over a concrete network.
#[derive(Clone, Debug)]
pub enum Discipline {
    /// Hops may increase the router rank (ascend) or keep it (lateral)
    /// freely, but once any hop *decreases* the rank, no later hop may
    /// increase it again. Covers the fractahedral depth-first rule
    /// (rank = level) and fat-tree / generic up*-down* routing
    /// (rank = tree level).
    AscendThenDescend {
        /// Human name for diagnostics, e.g. `"depth-first fractahedral"`.
        name: &'static str,
        /// Rank per `NodeId::index()`; `None` for end nodes and routers
        /// outside the discipline (their hops are not classified).
        rank: Vec<Option<u32>>,
    },
    /// Every router-router hop changes exactly one coordinate, and the
    /// indices of the changed coordinates must be non-decreasing along
    /// the path (X before Y on meshes; low bit before high bit under
    /// e-cube).
    DimensionOrder {
        /// Human name for diagnostics, e.g. `"XY dimension order"`.
        name: &'static str,
        /// Coordinate vector per `NodeId::index()`; `None` for end
        /// nodes.
        coords: Vec<Option<Vec<i64>>>,
    },
}

impl Discipline {
    /// The discipline's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Discipline::AscendThenDescend { name, .. } => name,
            Discipline::DimensionOrder { name, .. } => name,
        }
    }

    /// The paper's depth-first fractahedral rule: levels ascend, then
    /// descend; intra-tetrahedron (lateral) hops are free. Fan-out
    /// routers sit below level 1 at rank 0.
    pub fn fractahedral(f: &Fractahedron) -> Self {
        let net = f.net();
        let rank = net
            .nodes()
            .map(|v| {
                if !net.is_router(v) {
                    None
                } else {
                    match f.pos_of(v) {
                        Some(pos) => Some(pos.level as u32),
                        // Tetrahedron levels are 1-based, so rank 0 is
                        // free for the fan-out stage below them.
                        None => Some(0),
                    }
                }
            })
            .collect();
        Discipline::AscendThenDescend {
            name: "depth-first fractahedral (ascend, then descend)",
            rank,
        }
    }

    /// Static up*/down* over a fat tree: tree level ascends, then
    /// descends.
    pub fn fat_tree(t: &FatTree) -> Self {
        let net = t.net();
        let rank = net
            .nodes()
            .map(|v| t.locate(v).map(|(level, _, _)| level as u32))
            .collect();
        Discipline::AscendThenDescend {
            name: "up*/down* fat tree",
            rank,
        }
    }

    /// Generic up*/down* against an arbitrary rank assignment (e.g. a
    /// BFS level order from repair). `rank[NodeId::index()]`; `None`
    /// entries are unclassified.
    pub fn up_down(rank: Vec<Option<u32>>) -> Self {
        Discipline::AscendThenDescend {
            name: "up*/down*",
            rank,
        }
    }

    /// X-then-Y dimension order on a 2-D mesh.
    pub fn mesh_xy(m: &Mesh2D) -> Self {
        let net = m.net();
        let coords = net
            .nodes()
            .map(|v| m.coords_of(v).map(|(x, y)| vec![x as i64, y as i64]))
            .collect();
        Discipline::DimensionOrder {
            name: "XY dimension order",
            coords,
        }
    }

    /// E-cube on a hypercube: each address bit is one dimension,
    /// corrected lowest-first.
    pub fn ecube(h: &Hypercube) -> Self {
        let net = h.net();
        let dim = h.dim() as usize;
        let coords = net
            .nodes()
            .map(|v| {
                h.label_of(v)
                    .map(|corner| (0..dim).map(|b| ((corner >> b) & 1) as i64).collect())
            })
            .collect();
        Discipline::DimensionOrder {
            name: "e-cube dimension order",
            coords,
        }
    }

    /// Checks one traced path. Returns `Err(description)` naming the
    /// first hop that violates the discipline; attach hops (to or from
    /// end nodes) and hops touching unclassified routers are skipped.
    pub fn check_path(&self, net: &Network, path: &[ChannelId]) -> Result<(), String> {
        let name = |ch: ChannelId| {
            (
                net.label(net.channel_src(ch)),
                net.label(net.channel_dst(ch)),
            )
        };
        let mut descended = false;
        let mut last_dim: Option<usize> = None;
        for &ch in path {
            match self.classify(net, ch) {
                Hop::Skip => {}
                Hop::Rank(rs, rd) if rd < rs => descended = true,
                Hop::Rank(rs, rd) if rd > rs && descended => {
                    let (a, b) = name(ch);
                    return Err(format!(
                        "hop {a} -> {b} re-ascends (rank {rs} -> {rd}) after a descent"
                    ));
                }
                Hop::Rank(..) => {}
                Hop::Dims { changed: 1, dim } => {
                    if let Some(prev) = last_dim.filter(|&prev| dim < prev) {
                        let (a, b) = name(ch);
                        return Err(format!(
                            "hop {a} -> {b} corrects dimension {dim} after dimension {prev}"
                        ));
                    }
                    last_dim = Some(dim);
                }
                Hop::Dims { changed, .. } => {
                    let (a, b) = name(ch);
                    return Err(format!(
                        "hop {a} -> {b} changes {changed} dimensions at once"
                    ));
                }
            }
        }
        Ok(())
    }

    /// How hop `ch` moves through the discipline's metadata.
    fn classify(&self, net: &Network, ch: ChannelId) -> Hop {
        match self {
            Discipline::AscendThenDescend { rank, .. } => match hop_meta(net, ch, rank) {
                Some((&rs, &rd)) => Hop::Rank(rs, rd),
                None => Hop::Skip,
            },
            Discipline::DimensionOrder { coords, .. } => match hop_meta(net, ch, coords) {
                Some((cs, cd)) => {
                    let (mut changed, mut dim) = (0, 0);
                    for (i, (a, b)) in cs.iter().zip(cd).enumerate() {
                        if a != b {
                            changed += 1;
                            dim = i;
                        }
                    }
                    Hop::Dims { changed, dim }
                }
                None => Hop::Skip,
            },
        }
    }

    /// The verdict on hop `ch` followed by a path whose verdict is
    /// `rest`: [`Discipline::check_path`]'s answer, built backwards one
    /// hop at a time, so every route toward one destination is judged
    /// in O(1) from its next hop's verdict.
    pub(crate) fn prepend(&self, net: &Network, ch: ChannelId, rest: Verdict) -> Verdict {
        match self.classify(net, ch) {
            Hop::Skip => rest,
            Hop::Rank(rs, rd) => match rd.cmp(&rs) {
                Ordering::Equal => rest,
                // After a descent, any later ascent is the violation.
                Ordering::Less => Verdict {
                    bad: rest.ascends,
                    ..rest
                },
                Ordering::Greater => Verdict {
                    ascends: true,
                    ..rest
                },
            },
            Hop::Dims { changed: 1, dim } => Verdict {
                bad: rest.bad || rest.first_dim.is_some_and(|next| next < dim),
                first_dim: Some(dim),
                ..rest
            },
            Hop::Dims { .. } => Verdict { bad: true, ..rest },
        }
    }
}

/// What [`Discipline::check_path`] needs to know about a path suffix
/// to judge the path it ends: whether the suffix fails on its own, and
/// what an earlier hop must not precede. The empty path's verdict is
/// `Verdict::default()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// The path violates the discipline.
    pub(crate) bad: bool,
    /// Some hop ascends (so no earlier hop may descend).
    ascends: bool,
    /// The first corrected dimension (no earlier hop may correct a
    /// larger one).
    first_dim: Option<usize>,
}

/// One hop, classified by the discipline.
enum Hop {
    /// An attach hop or one touching an unclassified router.
    Skip,
    /// Source and destination rank.
    Rank(u32, u32),
    /// How many coordinates change, and the last one that does.
    Dims { changed: usize, dim: usize },
}

/// Metadata of both endpoints of a hop, when both are classified
/// routers; `None` skips the hop (attach links, fan-out edges outside
/// the discipline).
fn hop_meta<'a, T>(net: &Network, ch: ChannelId, table: &'a [Option<T>]) -> Option<(&'a T, &'a T)> {
    let s = net.channel_src(ch);
    let d = net.channel_dst(ch);
    match (&table[s.index()], &table[d.index()]) {
        (Some(a), Some(b)) => Some((a, b)),
        _ => None,
    }
}

/// Convenience: the set of node ranks used by repair-style BFS level
/// orders, from a closure over node ids (router-only entries).
pub fn rank_table(net: &Network, f: impl FnMut(NodeId) -> Option<u32>) -> Vec<Option<u32>> {
    net.nodes().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_route::fractal::fractal_routes;
    use fractanet_route::{dor, fattree, RouteSet};
    use fractanet_topo::Variant;

    #[test]
    fn fractahedral_routes_conform() {
        let f = Fractahedron::new(2, Variant::Fat, false).unwrap();
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &fractal_routes(&f)).unwrap();
        let d = Discipline::fractahedral(&f);
        for (s, dst, p) in rs.pairs() {
            assert!(d.check_path(f.net(), p).is_ok(), "{s}->{dst}");
        }
    }

    #[test]
    fn mesh_xy_conforms_but_yx_does_not() {
        let m = Mesh2D::new(3, 3, 1, 6).unwrap();
        let xy = RouteSet::from_table(m.net(), m.end_nodes(), &dor::mesh_xy_routes(&m)).unwrap();
        let d = Discipline::mesh_xy(&m);
        for (_, _, p) in xy.pairs() {
            assert!(d.check_path(m.net(), p).is_ok());
        }
        // YX routing violates the XY discipline on some corner pair.
        let yx = RouteSet::from_table(m.net(), m.end_nodes(), &dor::mesh_yx_routes(&m)).unwrap();
        let violations = yx
            .pairs()
            .filter(|(_, _, p)| d.check_path(m.net(), p).is_err())
            .count();
        assert!(violations > 0, "YX must trip the XY discipline");
    }

    #[test]
    fn ecube_conforms() {
        let h = Hypercube::new(3, 1, 6).unwrap();
        let rs = RouteSet::from_table(h.net(), h.end_nodes(), &dor::ecube_routes(&h)).unwrap();
        let d = Discipline::ecube(&h);
        for (_, _, p) in rs.pairs() {
            assert!(d.check_path(h.net(), p).is_ok());
        }
    }

    #[test]
    fn fat_tree_conforms() {
        let t = FatTree::paper_4_2_64();
        let rs = RouteSet::from_table(
            t.net(),
            t.end_nodes(),
            &fattree::fattree_routes(&t, fattree::UpPolicy::ByLeafRouter),
        )
        .unwrap();
        let d = Discipline::fat_tree(&t);
        for (s, dst, p) in rs.pairs() {
            assert!(d.check_path(t.net(), p).is_ok(), "{s}->{dst}");
        }
    }

    #[test]
    fn prepended_verdicts_equal_check_path() {
        // Arbitrary channel sequences (continuity is not the
        // discipline's business) on a fat tree and a mesh, judged both
        // ways.
        let t = FatTree::paper_4_2_64();
        let m = Mesh2D::new(4, 4, 1, 6).unwrap();
        let h = Hypercube::new(3, 1, 6).unwrap();
        let cases = [
            (t.net(), Discipline::fat_tree(&t)),
            (m.net(), Discipline::mesh_xy(&m)),
            (h.net(), Discipline::ecube(&h)),
        ];
        let mut state = 0x853c_49e6_748f_ea9bu64;
        for (net, d) in &cases {
            let n = net.channel_count() as u64;
            for _ in 0..2_000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                let len = (state >> 60) as usize;
                let path: Vec<ChannelId> = (0..len)
                    .map(|i| ChannelId(((state >> (i * 4)) % n) as u32))
                    .collect();
                let verdict = path
                    .iter()
                    .rev()
                    .fold(Verdict::default(), |rest, &ch| d.prepend(net, ch, rest));
                assert_eq!(verdict.bad, d.check_path(net, &path).is_err(), "{path:?}");
            }
        }
    }

    #[test]
    fn reascent_is_reported() {
        // Hand-build a path that goes down then up on a fat tree.
        let t = FatTree::paper_4_2_64();
        let net = t.net();
        // Find an up channel (leaf level 1 -> level 2) and use
        // down-then-up: reverse(up) then up.
        let up = net
            .channels()
            .find(|&ch| {
                let (s, d) = (net.channel_src(ch), net.channel_dst(ch));
                matches!(
                    (t.locate(s), t.locate(d)),
                    (Some((1, _, _)), Some((2, _, _)))
                )
            })
            .unwrap();
        let d = Discipline::fat_tree(&t);
        let err = d.check_path(net, &[up.reverse(), up]).unwrap_err();
        assert!(err.contains("re-ascends"), "{err}");
    }
}
