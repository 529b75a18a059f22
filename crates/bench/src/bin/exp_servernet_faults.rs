//! Experiment E13 — §1's fault-tolerance claim: dual fabrics with
//! dual-ported nodes mask network faults. A randomized fault campaign
//! measures single-fabric vs dual-fabric pair survival on the 64-node
//! fat fractahedron, and the ServerNet ASIC's disable logic is shown
//! rejecting corrupted-table turns.

use fractanet::graph::PortId;
use fractanet::servernet::faults::surviving_pair_fraction;
use fractanet::servernet::{DualFabric, FaultSet, RouterAsic};
use fractanet::topo::{Fractahedron, Topology};
use fractanet_bench::{emit_json, header};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    faults: usize,
    single_fabric_alive: f64,
    dual_fabric_alive: f64,
}

#[derive(Serialize)]
struct StaticTableRow {
    topological_alive: f64,
    routed_alive: f64,
    healed_alive: f64,
    healed_certified: bool,
}

#[derive(Serialize)]
struct DisableRow {
    healthy_port: u32,
    corrupted_blocked: bool,
}

fn main() {
    header(
        "E13 / §1",
        "dual-fabric fault campaign (64-node fat fractahedron, 20 trials each)",
    );
    println!(
        "{:<26} {:>18} {:>18}",
        "faults per fabric", "single fabric alive", "dual fabric alive"
    );
    let trials = 20;
    for faults in [1usize, 2, 4, 8, 12] {
        let mut single = 0.0;
        let mut dual = 0.0;
        for t in 0..trials {
            let mut pair = DualFabric::new(Fractahedron::paper_fat_64);
            let mut rng = StdRng::seed_from_u64(faults as u64 * 1000 + t);
            // Independent fault draws for X and Y (links only + one
            // router past 4 faults).
            let routers = usize::from(faults >= 4);
            pair.x_faults = FaultSet::random(pair.x.net(), faults, routers, &mut rng);
            pair.y_faults = FaultSet::random(pair.y.net(), faults, routers, &mut rng);
            single += surviving_pair_fraction(pair.x.net(), &pair.x_faults, pair.x.end_nodes());
            dual += pair.surviving_pair_fraction();
        }
        let row = Row {
            faults,
            single_fabric_alive: single / trials as f64,
            dual_fabric_alive: dual / trials as f64,
        };
        println!(
            "{:<26} {:>17.2}% {:>17.3}%",
            format!(
                "{faults} links{}",
                if faults >= 4 { " + 1 router" } else { "" }
            ),
            100.0 * row.single_fabric_alive,
            100.0 * row.dual_fabric_alive
        );
        emit_json("faults", &row);
    }
    println!("\n  dual fabrics mask nearly everything: a pair is cut only when *both*");
    println!("  fabrics independently lose it — probability ≈ (single-fabric loss)².");

    header("E13 / §2.4", "static tables vs topology under one fault");
    {
        use fractanet::prelude::RouteSet;
        use fractanet::route::fractal::fractal_routes;
        use fractanet::servernet::faults::routed_surviving_fraction;
        let f = Fractahedron::paper_fat_64();
        let routes = fractal_routes(&f);
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &routes).unwrap();
        let victim = f
            .net()
            .channel_between(f.router(2, 0, 0, 0), f.router(2, 0, 0, 3))
            .unwrap()
            .link();
        let mut faults = FaultSet::none();
        faults.kill_link(victim);
        let topo = surviving_pair_fraction(f.net(), &faults, f.end_nodes());
        let routed = routed_surviving_fraction(f.net(), &rs, &faults);
        let healed = fractanet::servernet::heal(f.net(), f.end_nodes(), &faults);
        let (healed_alive, healed_certified) = healed
            .as_ref()
            .map(|h| (h.coverage.ratio(), true))
            .unwrap_or((0.0, false));
        println!("  one level-2 diagonal cable cut:");
        println!(
            "    topological connectivity : {:.2}% of pairs (the clique detours)",
            100.0 * topo
        );
        println!(
            "    fixed-table service      : {:.2}% of pairs (routes crossing it die)",
            100.0 * routed
        );
        println!(
            "    certified healed tables  : {:.2}% of pairs (fault-avoiding regeneration)",
            100.0 * healed_alive
        );
        println!("  static destination tables cannot exploit redundancy until reprogrammed —");
        println!("  ServerNet pairs whole fabrics (§1); `servernet::heal` reprograms around");
        println!("  the fault and re-certifies deadlock freedom before installing.");
        emit_json(
            "faults_static_tables",
            &StaticTableRow {
                topological_alive: topo,
                routed_alive: routed,
                healed_alive,
                healed_certified,
            },
        );
    }

    header(
        "E13 / §2.4",
        "path-disable logic vs corrupted routing tables",
    );
    let mut asic = RouterAsic::new(6, 64);
    asic.program(42, PortId(2));
    asic.disable_turn(PortId(5), PortId(0));
    let healthy = asic.forward(PortId(5), 42);
    println!("  healthy:   forward(in 5, dest 42) = {healthy:?}");
    asic.corrupt(42, PortId(0));
    let corrupted = asic.forward(PortId(5), 42);
    println!("  corrupted: table[42] now points at port 0 (an illegal up-turn)");
    println!("  enforced:  forward(in 5, dest 42) = {corrupted:?}");
    println!("  the packet is dropped and NACKed instead of closing a dependency loop.");
    emit_json(
        "faults_path_disable",
        &DisableRow {
            healthy_port: healthy.map(|p| u32::from(p.0)).unwrap_or(u32::MAX),
            corrupted_blocked: corrupted.is_err(),
        },
    );
}
