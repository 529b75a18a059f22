//! Integration coverage for the library's extensions beyond the
//! paper's headline results: generalized cluster fractahedrons (§4),
//! the virtual-channel alternative (§2), sizing plans, and the
//! background topologies.

use fractanet::deadlock::verify_deadlock_free;
use fractanet::graph::bfs;
use fractanet::metrics::{bisection_estimate, max_link_contention};
use fractanet::prelude::*;
use fractanet::route::genfracta::genfracta_routes;
use fractanet::route::ringroute::ring_clockwise_routes;
use fractanet::sim::vc::{dateline_ring_map, dateline_ring_routes};
use fractanet::sizing::{bill, plan, Requirement};
use fractanet::topo::{
    ClusterShape, CubeConnectedCycles, GenFractahedron, ShuffleExchange, Torus2D,
};

/// The generalized builder with the paper's shape reproduces Table 2
/// end to end (routers, hops, contention, deadlock freedom).
#[test]
fn generalized_paper_shape_reproduces_table2() {
    let g = GenFractahedron::new(ClusterShape::PAPER, 2, true).unwrap();
    let rs = RouteSet::from_table(g.net(), g.end_nodes(), &genfracta_routes(&g)).unwrap();
    assert_eq!(g.net().router_count(), 48);
    assert!((rs.avg_router_hops() - 271.0 / 63.0).abs() < 1e-9);
    assert!(verify_deadlock_free(g.net(), &rs).is_ok());
    assert_eq!(max_link_contention(g.net(), &rs).worst, 8);
    assert_eq!(bisection_estimate(g.net(), g.end_nodes(), 4).links, 16);
}

/// Every alternative cluster shape keeps 3N−1 delay and deadlock
/// freedom, and simulates cleanly.
#[test]
fn alternative_shapes_keep_the_invariants() {
    for shape in [
        ClusterShape {
            cluster: 3,
            ports: 6,
            down: 2,
            up: 2,
        },
        ClusterShape {
            cluster: 4,
            ports: 8,
            down: 3,
            up: 2,
        },
        ClusterShape {
            cluster: 5,
            ports: 8,
            down: 2,
            up: 2,
        },
    ] {
        let g = GenFractahedron::new(shape, 2, true).unwrap();
        let routes = std::sync::Arc::new(genfracta_routes(&g));
        let rs = RouteSet::from_table(g.net(), g.end_nodes(), &routes).unwrap();
        assert_eq!(bfs::max_router_hops(g.net()), Some(5), "{shape:?}");
        assert!(verify_deadlock_free(g.net(), &rs).is_ok(), "{shape:?}");
        let cfg = SimConfig {
            packet_flits: 8,
            max_cycles: 5_000,
            stall_threshold: 2_500,
            ..SimConfig::default()
        };
        let res = Engine::new(g.net(), g.end_nodes(), routes, cfg).run(Workload::Bernoulli {
            injection_rate: 0.15,
            pattern: DstPattern::Uniform,
            until_cycle: 2_500,
        });
        assert!(res.deadlock.is_none(), "{shape:?}");
        assert!(res.delivery_ratio() > 0.9, "{shape:?}");
    }
}

/// Virtual channels fix the ring the paper's way of *not* fixing it:
/// same topology, double buffers, Fig 1 completes.
#[test]
fn virtual_channels_versus_topology_change() {
    let ring = Ring::new(4, 1, 6).unwrap();
    let cfg = SimConfig {
        packet_flits: 32,
        buffer_depth: 2,
        max_cycles: 20_000,
        stall_threshold: 300,
        ..SimConfig::default()
    };
    // 1 VC: deadlock (static and dynamic agree).
    let tables = std::sync::Arc::new(ring_clockwise_routes(&ring));
    let engine = |vcs: u8| {
        Engine::new(ring.net(), ring.end_nodes(), tables.clone(), cfg.clone())
            .with_vc_map(dateline_ring_map(&ring, vcs))
    };
    assert!(!dateline_ring_routes(&ring, 1).is_deadlock_free(ring.net()));
    let e1 = engine(1);
    let slots1 = e1.total_buffer_slots();
    assert!(e1.run(Workload::fig1_ring(4)).deadlock.is_some());
    // 2 VCs: clean, at 2x buffer cost.
    assert!(dateline_ring_routes(&ring, 2).is_deadlock_free(ring.net()));
    let e2 = engine(2);
    assert_eq!(e2.total_buffer_slots(), 2 * slots1);
    let r2 = e2.run(Workload::fig1_ring(4));
    assert!(r2.deadlock.is_none());
    assert_eq!(r2.delivered, 4);
}

/// Sizing plans agree with the networks they describe and respect the
/// requirement they were given.
#[test]
fn sizing_plans_are_sound() {
    for (cpus, min_bis) in [(16usize, 1u64), (128, 4), (128, 16), (1024, 64)] {
        for opt in plan(Requirement {
            cpus,
            min_bisection_links: min_bis,
            fanout: true,
        }) {
            assert!(opt.capacity >= cpus);
            assert!(opt.bisection >= min_bis);
            // The bill must be self-consistent with a fresh computation.
            let again = bill(opt.variant, opt.levels, true);
            assert_eq!(again, opt);
        }
    }
}

/// Background topologies (torus, CCC, shuffle-exchange) build, connect
/// and route via generic up*/down*, deadlock-free.
#[test]
fn background_topologies_route_updown() {
    use fractanet::route::treeroute::updown_routeset;
    let torus = Torus2D::new(3, 3, 1, 6).unwrap();
    let ccc = CubeConnectedCycles::new(3, 1, 6).unwrap();
    let se = ShuffleExchange::new(3, 1, 6).unwrap();
    let nets: [(&str, &fractanet::graph::Network, &[NodeId], NodeId); 3] = [
        (
            "torus",
            torus.net(),
            torus.end_nodes(),
            torus.router_at(0, 0),
        ),
        ("ccc", ccc.net(), ccc.end_nodes(), ccc.router_at(0, 0)),
        ("shuffle-exchange", se.net(), se.end_nodes(), se.router(0)),
    ];
    for (name, net, ends, root) in nets {
        let rs = updown_routeset(net, ends, root);
        assert!(verify_deadlock_free(net, &rs).is_ok(), "{name}");
        for (s, d, p) in rs.pairs() {
            assert_eq!(
                net.channel_dst(*p.last().unwrap()),
                ends[d],
                "{name} {s}->{d}"
            );
        }
        // And they simulate cleanly under the same routes.
        let cfg = SimConfig {
            packet_flits: 6,
            max_cycles: 4_000,
            stall_threshold: 2_000,
            ..SimConfig::default()
        };
        let tables = Routes::from_pair_paths(net, ends, &rs).expect("up*/down* routes are tables");
        let res = Engine::new(net, ends, std::sync::Arc::new(tables), cfg)
            .run(Workload::all_to_all_burst(ends.len()));
        assert!(res.is_clean(), "{name}: {:?}", res.deadlock);
    }
}

/// Fault injection in routing tables: a cleared entry surfaces as a
/// typed error, never a wrong delivery.
#[test]
fn routing_table_fault_injection() {
    let f = fractanet::topo::Fractahedron::paper_fat_64();
    let mut routes = fractanet::route::fractal::fractal_routes(&f);
    // Corrupt one router's entry for destination 63.
    let victim = f.router(2, 0, 1, 2);
    routes.clear(victim, 63);
    let mut failures = 0;
    for s in 0..63usize {
        match routes.trace(f.net(), f.end_nodes(), s, 63) {
            Ok(p) => {
                assert_eq!(f.net().channel_dst(*p.last().unwrap()), f.end_nodes()[63]);
            }
            Err(fractanet::route::RouteError::MissingEntry { router, dst }) => {
                assert_eq!(router, victim);
                assert_eq!(dst, 63);
                failures += 1;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    // Only sources whose fixed path crosses the victim router fail.
    assert!(failures > 0 && failures < 63, "failures = {failures}");
}
