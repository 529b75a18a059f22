//! Experiment E14 — §4's closing generalization: "the concepts easily
//! generalize to other fully connected groups of N-port routers."
//! Compares two-level fat fractahedrons built from different cluster
//! shapes, plus the virtual-channel alternative of §2 (Dally & Seitz)
//! quantified on the Fig 1 ring.

use fractanet::deadlock::verify_deadlock_free;
use fractanet::graph::bfs;
use fractanet::metrics::{bisection_estimate, max_link_contention, CostSummary};
use fractanet::prelude::*;
use fractanet::route::genfracta::genfracta_routes;
use fractanet::route::ringroute::ring_clockwise_routes;
use fractanet::sim::vc::dateline_ring_map;
use fractanet::topo::{ClusterShape, GenFractahedron};
use fractanet_bench::{emit_json, header};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    shape: String,
    nodes: usize,
    routers: usize,
    avg_hops: f64,
    max_hops: u32,
    contention: usize,
    bisection: u64,
    deadlock_free: bool,
}

fn main() {
    header(
        "E14 / §4",
        "generalized cluster fractahedrons (two levels, fat)",
    );
    println!(
        "{:<22} {:>6} {:>8} {:>9} {:>9} {:>11} {:>10} {:>8}",
        "cluster shape",
        "nodes",
        "routers",
        "avg hops",
        "max hops",
        "contention",
        "bisection",
        "dl-free"
    );
    let shapes = [
        ("4x6p 2-3-1 (paper)", ClusterShape::PAPER),
        (
            "3x6p 2-2-2",
            ClusterShape {
                cluster: 3,
                ports: 6,
                down: 2,
                up: 2,
            },
        ),
        (
            "4x8p 3-3-2",
            ClusterShape {
                cluster: 4,
                ports: 8,
                down: 3,
                up: 2,
            },
        ),
        (
            "5x8p 2-4-2",
            ClusterShape {
                cluster: 5,
                ports: 8,
                down: 2,
                up: 2,
            },
        ),
    ];
    for (label, shape) in shapes {
        let g = GenFractahedron::new(shape, 2, true).unwrap();
        let routes = genfracta_routes(&g);
        let rs = RouteSet::from_table(g.net(), g.end_nodes(), &routes).unwrap();
        let cont = max_link_contention(g.net(), &rs);
        let bis = bisection_estimate(g.net(), g.end_nodes(), 4);
        let free = verify_deadlock_free(g.net(), &rs).is_ok();
        let cost = CostSummary::of(g.net());
        let row = Row {
            shape: label.to_string(),
            nodes: g.end_nodes().len(),
            routers: cost.routers,
            avg_hops: rs.avg_router_hops(),
            max_hops: bfs::max_router_hops(g.net()).unwrap(),
            contention: cont.worst,
            bisection: bis.links,
            deadlock_free: free,
        };
        println!(
            "{:<22} {:>6} {:>8} {:>9.2} {:>9} {:>10}:1 {:>10} {:>8}",
            row.shape,
            row.nodes,
            row.routers,
            row.avg_hops,
            row.max_hops,
            row.contention,
            row.bisection,
            if row.deadlock_free { "yes" } else { "NO" }
        );
        emit_json("generalized", &row);
    }
    println!(
        "\n  every shape keeps the fractahedral properties: 3N-1 worst delay,\n\
         depth-first routing, acyclic channel dependencies. Bigger clusters\n\
         trade routers for fan-out; more up ports buy bisection."
    );

    header(
        "E14 / §2",
        "the rejected alternative: virtual channels on the Fig 1 ring",
    );
    let ring = Ring::new(4, 1, 6).unwrap();
    let cfg = SimConfig {
        packet_flits: 32,
        buffer_depth: 2,
        max_cycles: 20_000,
        stall_threshold: 300,
        ..SimConfig::default()
    };
    println!(
        "{:<8} {:>14} {:>14} {:>22}",
        "VCs", "buffer slots", "CDG verdict", "Fig 1 pattern"
    );
    let tables = std::sync::Arc::new(ring_clockwise_routes(&ring));
    let traced = RouteSet::from_table(ring.net(), ring.end_nodes(), &tables).unwrap();
    for vcs in [1u8, 2] {
        let map = dateline_ring_map(&ring, vcs);
        let free = map.annotate(&traced).is_deadlock_free(ring.net());
        let engine =
            Engine::new(ring.net(), ring.end_nodes(), tables.clone(), cfg.clone()).with_vc_map(map);
        let slots = engine.total_buffer_slots();
        let res = engine.run(Workload::fig1_ring(4));
        println!(
            "{:<8} {:>14} {:>14} {:>22}",
            vcs,
            slots,
            if free { "acyclic" } else { "cyclic" },
            match &res.deadlock {
                Some(dl) => format!("deadlock @ {}", dl.cycle),
                None => format!("completes in {}", res.cycles),
            }
        );
    }
    println!(
        "\n  Two virtual channels (the dateline discipline) do break the loop —\n\
         at double the buffer space per router, \"the cost of the buffers can\n\
         be quite significant because buffering space may dominate the area of\n\
         a typical router\" (§2). The fractahedron avoids the loop topologically\n\
         and keeps the single-FIFO router."
    );
}
