//! Router-hop statistics (Tables 1 & 2).

use fractanet_graph::{bfs, Network, NodeId};
use fractanet_route::{DestForest, ForestConsumer, RouteSet, Routes};

/// Hop statistics of a network or a routed network.
#[derive(Clone, Debug, PartialEq)]
pub struct HopStats {
    /// Largest router-hop count over all ordered end-node pairs.
    pub max: usize,
    /// Mean router-hop count.
    pub avg: f64,
    /// `histogram[h]` = number of ordered pairs at exactly `h` hops.
    pub histogram: Vec<usize>,
}

impl HopStats {
    /// Topological (shortest-path) statistics via BFS.
    pub fn topological(net: &Network) -> Option<Self> {
        let ends: Vec<_> = net.end_nodes().collect();
        if ends.len() < 2 {
            return None;
        }
        let mut histogram = Vec::new();
        let mut total = 0usize;
        let mut pairs = 0usize;
        for &s in &ends {
            let dist = bfs::distances(net, s);
            for &t in &ends {
                if t == s {
                    continue;
                }
                let d = dist[t.index()];
                if d == u32::MAX {
                    return None;
                }
                let hops = (d - 1) as usize;
                if histogram.len() <= hops {
                    histogram.resize(hops + 1, 0);
                }
                histogram[hops] += 1;
                total += hops;
                pairs += 1;
            }
        }
        Some(HopStats {
            max: histogram.len() - 1,
            avg: total as f64 / pairs as f64,
            histogram,
        })
    }

    /// Statistics of the *routed* paths (equals topological for
    /// minimal routings; larger for restricted ones like up*/down*).
    /// `None` when fewer than two end nodes or any pair is unrouted.
    pub fn routed(routes: &RouteSet) -> Option<Self> {
        let mut tally = HopSweep::new(routes.len());
        for (_, _, p) in routes.pairs() {
            tally.count(p.len().checked_sub(1));
        }
        tally.finish()
    }

    /// [`HopStats::routed`] over destination tables directly, reading
    /// each route's hop count off its destination's routing forest
    /// instead of tracing pairs: O(nodes · N).
    pub fn routed_tables(net: &Network, ends: &[NodeId], routes: &Routes) -> Option<Self> {
        let mut sweep = HopSweep::new(ends.len());
        DestForest::sweep(net, ends, routes, &mut [&mut sweep]);
        sweep.finish()
    }

    /// How many extra hops routing adds over shortest paths, summed
    /// over pairs (0 for minimal routings).
    pub fn stretch(net: &Network, routes: &RouteSet) -> Option<usize> {
        let topo = Self::topological(net)?;
        let routed = Self::routed(routes)?;
        let t: usize = topo.histogram.iter().enumerate().map(|(h, &c)| h * c).sum();
        let r: usize = routed
            .histogram
            .iter()
            .enumerate()
            .map(|(h, &c)| h * c)
            .sum();
        Some(r - t)
    }
}

/// The routed hop histogram, one pair at a time or one routing forest
/// at a time: each absorbed forest counts every source's hops toward
/// its destination.
pub struct HopSweep {
    addresses: usize,
    histogram: Vec<usize>,
    /// Whether some pair's route failed.
    unrouted: bool,
}

impl HopSweep {
    /// An empty tally over `addresses` end nodes.
    pub fn new(addresses: usize) -> Self {
        HopSweep {
            addresses,
            histogram: Vec::new(),
            unrouted: false,
        }
    }

    fn count(&mut self, hops: Option<usize>) {
        match hops {
            Some(h) => {
                if self.histogram.len() <= h {
                    self.histogram.resize(h + 1, 0);
                }
                self.histogram[h] += 1;
            }
            None => self.unrouted = true,
        }
    }

    /// The statistics of every pair counted, or `None` when fewer than
    /// two end nodes or any pair is unrouted.
    pub fn finish(self) -> Option<HopStats> {
        if self.addresses < 2 || self.unrouted {
            return None;
        }
        let histogram = self.histogram;
        let pairs: usize = histogram.iter().sum();
        let total: usize = histogram.iter().enumerate().map(|(h, &c)| h * c).sum();
        Some(HopStats {
            max: histogram.len() - 1,
            avg: total as f64 / pairs as f64,
            histogram,
        })
    }
}

impl ForestConsumer for HopSweep {
    fn absorb(&mut self, forest: &DestForest<'_>) {
        let d = forest.dst();
        for s in (0..self.addresses).filter(|&s| s != d) {
            self.count(forest.route_hops(s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_route::fractal::fractal_routes;
    use fractanet_route::treeroute::updown_routeset;
    use fractanet_topo::{Fractahedron, Hypercube, Topology};

    #[test]
    fn topological_matches_bfs_helpers() {
        let f = Fractahedron::paper_fat_64();
        let s = HopStats::topological(f.net()).unwrap();
        assert_eq!(s.max as u32, bfs::max_router_hops(f.net()).unwrap());
        assert!((s.avg - bfs::avg_router_hops(f.net()).unwrap()).abs() < 1e-12);
        assert_eq!(s.histogram.iter().sum::<usize>(), 64 * 63);
    }

    #[test]
    fn routed_equals_topological_for_minimal_routing() {
        let f = Fractahedron::paper_fat_64();
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &fractal_routes(&f)).unwrap();
        assert_eq!(HopStats::routed(&rs), HopStats::topological(f.net()));
        assert_eq!(HopStats::stretch(f.net(), &rs), Some(0));
    }

    #[test]
    fn updown_has_nonnegative_stretch() {
        let h = Hypercube::new(3, 1, 6).unwrap();
        let rs = updown_routeset(h.net(), h.end_nodes(), h.router(0));
        let stretch = HopStats::stretch(h.net(), &rs).unwrap();
        // up*/down* may detour; it can never be shorter than BFS.
        let routed = HopStats::routed(&rs).unwrap();
        let topo = HopStats::topological(h.net()).unwrap();
        assert!(routed.avg >= topo.avg - 1e-12);
        let _ = stretch;
    }

    #[test]
    fn histogram_shape_for_fat_64() {
        // Table 2 derivation: 1 pair/src at 1 hop, 6 at 2, and the
        // inter-tetra remainder between 3 and 5.
        let f = Fractahedron::paper_fat_64();
        let s = HopStats::topological(f.net()).unwrap();
        assert_eq!(s.histogram[1], 64);
        assert_eq!(s.histogram[2], 64 * 6);
        assert_eq!(s.max, 5);
    }
}
