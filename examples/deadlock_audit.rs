//! Deadlock audit: run the Dally–Seitz channel-dependency check over
//! every topology/routing pair in the library, run the static linter
//! over the Fig 1 ring tables (full cycle enumeration, structured
//! diagnostics, a suggested disable set), then reproduce Figure 1 in
//! the flit simulator — once with looping routes (deadlock, with the
//! circular wait printed) and once with dimension-order routing
//! (completes).
//!
//! ```text
//! cargo run --release --example deadlock_audit
//! ```

use fractanet::deadlock::{verify_deadlock_free, verify_deadlock_free_tables};
use fractanet::prelude::*;
use fractanet::route::ringroute::ring_clockwise_routes;
use fractanet::route::treeroute::updown_routeset;
use fractanet::System;
use std::sync::Arc;

fn main() {
    println!("static channel-dependency audit (Dally & Seitz)\n");
    let systems = [
        ("2x2 mesh / XY", System::mesh(2, 2)),
        ("6x6 mesh / XY", System::mesh(6, 6)),
        ("tetrahedron / direct", System::tetrahedron()),
        ("4-ring / shortest", System::ring(4)),
        ("6-ring / shortest", System::ring(6)),
        ("3-cube / e-cube", System::hypercube(3, 6)),
        ("4-2 fat tree / static", System::fat_tree(64, 4, 2)),
        ("fat fractahedron N2", System::fat_fractahedron(2)),
        ("thin fractahedron N2", System::thin_fractahedron(2, false)),
        ("thin fracta N2 +fanout", System::thin_fractahedron(2, true)),
        ("binary tree d3", System::binary_tree(3, 2)),
    ];
    for (label, sys) in &systems {
        match verify_deadlock_free_tables(sys.net(), sys.end_nodes(), sys.routes()) {
            Ok(cdg) => println!(
                "  {:<24} deadlock-free  ({} dependencies, all acyclic)",
                label,
                cdg.dependency_count()
            ),
            Err(report) => println!(
                "  {:<24} CAN DEADLOCK   (cycle of {} channels)",
                label,
                report.cycle.len()
            ),
        }
    }

    // up*/down* on the hypercube: the Fig 2 discipline.
    let h = Hypercube::new(3, 1, 6).unwrap();
    let rs = updown_routeset(h.net(), h.end_nodes(), h.router(0));
    let verdict = verify_deadlock_free(h.net(), &rs).is_ok();
    println!(
        "  {:<24} {}",
        "3-cube / up*down*",
        if verdict {
            "deadlock-free  (Fig 2 discipline)"
        } else {
            "CAN DEADLOCK"
        }
    );

    // The same verdict, but as the lint subsystem reports it: every
    // elementary CDG cycle enumerated, plus a disable set that would
    // break them (`fractanet lint ring:4` gives the same output).
    println!("\nstatic lint of the Fig 1 ring tables (fractanet lint ring:4):\n");
    let ring = Ring::new(4, 1, 6).unwrap();
    let cw =
        RouteSet::from_table(ring.net(), ring.end_nodes(), &ring_clockwise_routes(&ring)).unwrap();
    let report = Linter::new(ring.net(), ring.end_nodes())
        .with_subject("fig1 ring, clockwise routes")
        .check(&cw);
    print!("{report}");
    assert!(
        report.by_rule(RuleId::L3CdgCycles).next().is_some(),
        "the Fig 1 ring must trip the cycle rule"
    );

    println!("\ndynamic reproduction of Figure 1 (4-router loop, wormhole):\n");
    let cfg = SimConfig {
        packet_flits: 32,
        buffer_depth: 2,
        max_cycles: 10_000,
        stall_threshold: 200,
        ..SimConfig::default()
    };
    let cw_tables = Arc::new(ring_clockwise_routes(&ring));
    let res = Engine::new(ring.net(), ring.end_nodes(), cw_tables, cfg.clone())
        .run(Workload::fig1_ring(4));
    match &res.deadlock {
        Some(dl) => {
            println!(
                "  clockwise routing: DEADLOCK at cycle {} with {} packets stuck;",
                dl.cycle, dl.stuck_packets
            );
            println!("  circular wait over channels:");
            for ch in &dl.cycle_channels {
                println!(
                    "    {} -> {}",
                    ring.net().label(ring.net().channel_src(*ch)),
                    ring.net().label(ring.net().channel_dst(*ch))
                );
            }
        }
        None => println!("  unexpected: clockwise routing completed"),
    }

    let mesh = Mesh2D::new(2, 2, 1, 6).unwrap();
    let xy = Arc::new(fractanet::route::dor::mesh_xy_routes(&mesh));
    let wl = Workload::Scripted(vec![(0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0)]);
    let res = Engine::new(mesh.net(), mesh.end_nodes(), xy, cfg).run(wl);
    println!(
        "\n  same shape as a 2x2 mesh under XY routing: {} ({} packets delivered in {} cycles)",
        if res.deadlock.is_none() {
            "completes"
        } else {
            "deadlocked?!"
        },
        res.delivered,
        res.cycles
    );
    println!("\n  \"routes A and C would be allowed, but routes B and D would be\n   disallowed, thus preventing the deadlock situation.\"  — §2");
}
