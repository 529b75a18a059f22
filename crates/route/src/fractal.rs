//! Depth-first fractahedral routing — the paper's §2.3–2.4 algorithm
//! and its deadlock-avoidance core, for every cluster shape.
//!
//! "Routing in multilayer networks is done depth-first by examining
//! address bits from high-order to low order. At any level, if there is
//! no match in the address bits above those controlling that level's
//! tetrahedron, then the packet is sent to the next higher level. …
//! packets always go straight up the tree without taking any
//! inter-tetrahedral links. Those links are used only on the way down."
//!
//! Concretely, at a router of level `k` (stack `s`, corner `cr`), for a
//! destination whose attach index has base-`m·d` digits
//! `a_N … a_2 a_1`:
//!
//! * if the digits above `a_k` do not name stack `s` → ascend. Fat:
//!   the router's own up port, always ("the routing algorithm always
//!   takes a local inter-level link rather than going through a
//!   neighboring inter-level link" — §2.4's loop-elimination rule);
//!   with `u > 1` up ports the ascent spreads packets by destination
//!   over up port `dst mod u`, which keeps one fixed path per pair
//!   while using every replicated layer. Thin: move to corner 0 (the
//!   cluster's single up connection) first if needed.
//! * otherwise → descend (deliver, at level 1): digit `a_k` selects
//!   corner `⌊a_k/d⌋`, down port `a_k mod d`; move within the (current
//!   layer's) cluster to that corner if needed.
//!
//! Intra-cluster hops happen at most once per cluster and never chain
//! (the clique is fully connected), which is why the
//! channel-dependency graph stays acyclic even though the fat
//! fractahedron is full of physical loops — verified in
//! `fractanet-deadlock`.

use crate::table::Routes;
use fractanet_graph::PortId;
use fractanet_topo::{Fractahedron, Topology, Variant};

/// One destination's digit at one level: the stack that contains it
/// and the corner and down port that lead toward it.
#[derive(Clone, Copy)]
struct Digit {
    stack: u32,
    corner: u32,
    port: PortId,
}

/// Builds destination tables for a fractahedron (cluster routers and,
/// when present, fan-out routers).
pub fn fractal_routes(f: &Fractahedron) -> Routes {
    let shape = f.shape();
    let n_addr = f.end_nodes().len();
    let children = shape.children();
    // digits[(k - 1) * n_addr + dst]: every destination resolved once.
    let mut digits = Vec::with_capacity(f.levels() * n_addr);
    let mut place: Vec<usize> = (0..n_addr).map(|dst| f.attach_of_addr(dst)).collect();
    for _ in 0..f.levels() {
        for p in &mut place {
            let a = *p % children;
            *p /= children;
            digits.push(Digit {
                stack: *p as u32,
                corner: (a / shape.down) as u32,
                port: PortId((a % shape.down) as u8),
            });
        }
    }
    let ascend: Vec<PortId> = (0..n_addr)
        .map(|dst| shape.up_port(dst % shape.up))
        .collect();
    // Fan-out router -> address of its first CPU (dense by NodeId).
    let npa = f.nodes_per_attach();
    let mut fanout_first: Vec<Option<usize>> = vec![None; f.net().node_count()];
    for a in 0.. {
        match f.fanout_router(a) {
            Some(r) => fanout_first[r.index()] = Some(a * npa),
            None => break,
        }
    }
    let up0 = shape.up_port(0);
    Routes::from_fn(f.net(), n_addr, |router, dst| {
        let Some(pos) = f.pos_of(router) else {
            // Fan-out router: deliver locally or climb to the cluster
            // level.
            let first = fanout_first[router.index()]?;
            return Some(if (first..first + npa).contains(&dst) {
                PortId((dst - first) as u8)
            } else {
                up0
            });
        };
        let cr = pos.corner;
        let d = digits[(pos.level - 1) * n_addr + dst];
        if d.stack as usize != pos.stack {
            // Ascend.
            return Some(match f.variant() {
                Variant::Fat => ascend[dst],
                Variant::Thin if cr == 0 => up0,
                Variant::Thin => shape.intra_port(cr, 0),
            });
        }
        // Descend one level, or deliver at level 1.
        let corner = d.corner as usize;
        Some(if cr == corner {
            d.port
        } else {
            shape.intra_port(cr, corner)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::RouteSet;
    use fractanet_graph::{bfs, AdjList};
    use fractanet_topo::ClusterShape;

    fn routed(f: &Fractahedron) -> RouteSet {
        RouteSet::from_table(f.net(), f.end_nodes(), &fractal_routes(f)).unwrap()
    }

    #[test]
    fn single_tetrahedron_two_bit_routing() {
        // "routes packets based on exactly two bits of the destination
        // node identifier": corner bits.
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let rs = routed(&f);
        assert_eq!(rs.max_router_hops(), 2);
        assert_eq!(rs.router_hops(0, 1), 1); // same router
        assert_eq!(rs.router_hops(0, 7), 2); // corner 0 -> corner 3
    }

    #[test]
    fn fat_64_routes_are_minimal() {
        let f = Fractahedron::paper_fat_64();
        let rs = routed(&f);
        for (s, d, p) in rs.pairs() {
            let want =
                bfs::router_hops(f.net(), f.end_nodes()[s], f.end_nodes()[d]).unwrap() as usize;
            assert_eq!(p.len() - 1, want, "{s}->{d}");
        }
        assert!(
            (rs.avg_router_hops() - 271.0 / 63.0).abs() < 1e-9,
            "Table 2: 4.3 average"
        );
        assert_eq!(rs.max_router_hops(), 5, "Table 1: 3N-1");
    }

    #[test]
    fn thin_64_routes_match_delay_formula() {
        let f = Fractahedron::new(2, Variant::Thin, false).unwrap();
        let rs = routed(&f);
        assert_eq!(rs.max_router_hops(), 6, "Table 1: 4N-2");
        for (s, d, p) in rs.pairs() {
            let want =
                bfs::router_hops(f.net(), f.end_nodes()[s], f.end_nodes()[d]).unwrap() as usize;
            assert_eq!(p.len() - 1, want, "{s}->{d}");
        }
    }

    #[test]
    fn fat_ascends_by_local_up_links_only() {
        // §2.4: on the way up a packet must never take an
        // intra-tetrahedron link.
        let f = Fractahedron::paper_fat_64();
        let rs = routed(&f);
        for (s, d, p) in rs.pairs() {
            // The hop sequence must be up* (lateral|down)*: in the fat
            // variant the ascent is pure up links; the first lateral or
            // down hop ends it for good.
            let mut ascent_over = false;
            for &ch in &p[1..p.len() - 1] {
                let src_level = f.pos_of(f.net().channel_src(ch)).unwrap().level;
                let dst_level = f.pos_of(f.net().channel_dst(ch)).unwrap().level;
                if dst_level > src_level {
                    assert!(!ascent_over, "{s}->{d}: ascended after turning down");
                } else {
                    ascent_over = true;
                }
            }
        }
    }

    #[test]
    fn thin_three_levels_route_everywhere() {
        let f = Fractahedron::new(3, Variant::Thin, false).unwrap();
        let rs = routed(&f);
        assert_eq!(rs.len(), 512);
        assert_eq!(rs.max_router_hops(), 10, "4N-2 for N=3");
        assert!(rs.check_simple().is_ok());
    }

    #[test]
    fn fanout_routing_delivers() {
        let f = Fractahedron::new(1, Variant::Fat, true).unwrap();
        let rs = routed(&f);
        assert_eq!(rs.len(), 16);
        // Same fan-out router: CPU -> fanout -> CPU = 1 router hop.
        assert_eq!(rs.router_hops(0, 1), 1);
        // §2.2: 16-CPU system, max four router hops.
        assert_eq!(rs.max_router_hops(), 4);
    }

    #[test]
    fn fanout_1024_spot_routes() {
        let f = Fractahedron::paper_thin_1024();
        let routes = fractal_routes(&f);
        // Spot-check a handful of pairs rather than tracing all 1024².
        for (s, d) in [
            (0usize, 1023usize),
            (124, 1023),
            (5, 4),
            (512, 17),
            (1000, 3),
        ] {
            let p = routes.trace(f.net(), f.end_nodes(), s, d).unwrap();
            assert_eq!(f.net().channel_dst(*p.last().unwrap()), f.end_nodes()[d]);
            let want =
                bfs::router_hops(f.net(), f.end_nodes()[s], f.end_nodes()[d]).unwrap() as usize;
            assert_eq!(p.len() - 1, want, "{s}->{d} not minimal");
        }
    }

    #[test]
    fn fat_three_levels_max_delay() {
        let f = Fractahedron::new(3, Variant::Fat, false).unwrap();
        let routes = fractal_routes(&f);
        // Worst-case-ish pair: different top-level children, far
        // corners.
        let p = routes.trace(f.net(), f.end_nodes(), 511, 0).unwrap();
        assert!(p.len() - 1 <= 8, "3N-1 = 8 for N=3, got {}", p.len() - 1);
        // Sampled pairs all deliver.
        for (s, d) in [(0usize, 511usize), (8, 250), (100, 400), (77, 78)] {
            let p = routes.trace(f.net(), f.end_nodes(), s, d).unwrap();
            assert_eq!(f.net().channel_dst(*p.last().unwrap()), f.end_nodes()[d]);
        }
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
    fn paper_shape_routes_match_bfs() {
        let g = Fractahedron::with_shape(ClusterShape::PAPER, 2, Variant::Fat).unwrap();
        let rs = routed(&g);
        for (s, d, p) in rs.pairs() {
            let want =
                bfs::router_hops(g.net(), g.end_nodes()[s], g.end_nodes()[d]).unwrap() as usize;
            assert_eq!(p.len() - 1, want, "{s}->{d}");
        }
        assert!(
            (rs.avg_router_hops() - 271.0 / 63.0).abs() < 1e-9,
            "Table 2's 4.3 reproduced"
        );
    }

    #[test]
    fn triangle_shape_routes_minimal() {
        for variant in [Variant::Fat, Variant::Thin] {
            let g = Fractahedron::with_shape(TRIANGLE, 2, variant).unwrap();
            let rs = routed(&g);
            for (s, d, p) in rs.pairs() {
                let want =
                    bfs::router_hops(g.net(), g.end_nodes()[s], g.end_nodes()[d]).unwrap() as usize;
                assert_eq!(p.len() - 1, want, "{variant:?} {s}->{d}");
            }
            assert!(rs.check_simple().is_ok());
        }
    }

    #[test]
    fn eight_port_shape_routes_and_delivers() {
        let g = Fractahedron::with_shape(EIGHT_PORT, 2, Variant::Fat).unwrap();
        let rs = routed(&g);
        assert_eq!(rs.len(), 144);
        assert_eq!(rs.max_router_hops(), 5, "3N-1 generalizes");
        for (s, d, p) in rs.pairs().take(500) {
            assert_eq!(
                g.net().channel_dst(*p.last().unwrap()),
                g.end_nodes()[d],
                "{s}->{d}"
            );
        }
    }

    #[test]
    fn fat_ascent_spreads_over_up_ports() {
        // With u = 2, destinations of different parity take different
        // up ports from the same router.
        let g = Fractahedron::with_shape(TRIANGLE, 2, Variant::Fat).unwrap();
        let routes = fractal_routes(&g);
        let r = g.router(1, 0, 0, 0);
        // Destinations outside cluster 0: e.g. 12 (even) and 13 (odd).
        let even = routes.get(r, 12).unwrap();
        let odd = routes.get(r, 13).unwrap();
        assert_ne!(even, odd);
        assert_eq!(even, TRIANGLE.up_port(0));
        assert_eq!(odd, TRIANGLE.up_port(1));
    }

    #[test]
    fn generalized_routing_is_deadlock_free() {
        // A local CDG check: `fractanet-deadlock` depends on this
        // crate, so it cannot be used here.
        for (shape, variant) in [
            (TRIANGLE, Variant::Fat),
            (TRIANGLE, Variant::Thin),
            (EIGHT_PORT, Variant::Fat),
        ] {
            let g = Fractahedron::with_shape(shape, 2, variant).unwrap();
            let mut cdg = AdjList::new(g.net().channel_count());
            for (_, _, p) in routed(&g).pairs() {
                for w in p.windows(2) {
                    cdg.add_edge(w[0].0, w[1].0);
                }
            }
            assert!(cdg.is_acyclic(), "{shape:?} {variant:?}");
        }
    }
}
