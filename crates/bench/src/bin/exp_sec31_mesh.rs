//! Experiment E7 — §3.1: 2-D mesh scaling (6x6 → 11 hops, 8x8 → 15,
//! 23x23 → 45) and the 10:1 worst-case contention corner, plus the
//! XY-vs-YX dimension-order ablation.

use fractanet::graph::bfs;
use fractanet::metrics::contention::contention_of_channel;
use fractanet::metrics::max_link_contention;
use fractanet::prelude::*;
use fractanet::route::dor::{mesh_xy_routes, mesh_yx_routes};
use fractanet_bench::{emit_json, header, system, versus};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    side: usize,
    nodes_hosted: usize,
    max_hops: u32,
    routers: usize,
}

fn main() {
    header(
        "E7 / §3.1",
        "2-D mesh scaling with 6-port routers (2 nodes per router)",
    );
    println!(
        "{:<8} {:>8} {:>9} {:>22}",
        "mesh", "routers", "capacity", "max hops"
    );
    for (target, paper_hops) in [(64usize, 11u32), (128, 15), (1024, 45)] {
        let m = Mesh2D::for_nodes(target).unwrap();
        let side = m.cols();
        // Corner-to-corner shortest path = max router hops.
        let a = m.end_at(0, 0, 0);
        let b = m.end_at(side - 1, side - 1, 0);
        let hops = bfs::router_hops(m.net(), a, b).unwrap();
        println!(
            "{:<8} {:>8} {:>9} {:>22}",
            format!("{side}x{side}"),
            m.net().router_count(),
            m.end_nodes().len(),
            versus(hops, paper_hops)
        );
        emit_json(
            "sec31_mesh",
            &Row {
                side,
                nodes_hosted: m.end_nodes().len(),
                max_hops: hops,
                routers: m.net().router_count(),
            },
        );
    }

    header(
        "E7 / §3.1",
        "worst-case contention on the 6x6 mesh (dimension-order)",
    );
    let sys = system("mesh:6x6");
    // The matching witness names pairs, so this view traces them.
    let rs = RouteSet::from_table(sys.net(), sys.end_nodes(), sys.routes())
        .expect("canonical routing covers every pair");
    let rep = max_link_contention(sys.net(), &rs);
    println!(
        "  max link contention: {}",
        versus(format!("{}:1", rep.worst), "10:1")
    );
    let (_, witness) = contention_of_channel(sys.net(), &rs, rep.worst_channel);
    let ch = rep.worst_channel;
    println!(
        "  hot corner: {} -> {} carrying {} simultaneous transfers:",
        sys.net().label(sys.net().channel_src(ch)),
        sys.net().label(sys.net().channel_dst(ch)),
        witness.len()
    );
    let list: Vec<String> = witness.iter().map(|(s, d)| format!("{s}->{d}")).collect();
    println!("    {}", list.join(", "));
    println!("  (the paper's A1-F6 ... A5-B6 turning at corner A6, times two nodes per router)");

    header(
        "E7 / ablation",
        "XY vs YX dimension order (mirrored hotspot, same worst case)",
    );
    let m = Mesh2D::new(6, 6, 2, 6).unwrap();
    for (label, routes) in [
        ("X-then-Y", mesh_xy_routes(&m)),
        ("Y-then-X", mesh_yx_routes(&m)),
    ] {
        let rs = RouteSet::from_table(m.net(), m.end_nodes(), &routes).unwrap();
        let rep = max_link_contention(m.net(), &rs);
        let ch = rep.worst_channel;
        println!(
            "  {label}: {}:1 at {} -> {}",
            rep.worst,
            m.net().label(m.net().channel_src(ch)),
            m.net().label(m.net().channel_dst(ch)),
        );
    }
}
