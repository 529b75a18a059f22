//! Dual-fabric fault tolerance (§1): "Full network fault-tolerance can
//! be provided by configuring pairs of router fabrics with dual-ported
//! nodes."
//!
//! Builds paired X/Y fat-fractahedron fabrics, injects escalating
//! faults into X, and shows connectivity surviving through failover —
//! then kills a cable *live* inside a wormhole simulation and watches
//! retry, certified self-healing, and dual-fabric failover deliver
//! every transfer — and finally demonstrates the router ASIC's
//! path-disable logic rejecting a corrupted routing-table entry (§2.4).
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use fractanet::graph::PortId;
use fractanet::prelude::*;
use fractanet::servernet::faults::surviving_pair_fraction;
use fractanet::servernet::{DualFabric, RouterAsic};
use fractanet::topo::{Fractahedron, Topology};
use fractanet::System;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("dual-fabric fault tolerance on the 64-node fat fractahedron\n");
    let mut pair = DualFabric::new(Fractahedron::paper_fat_64);
    let mut rng = StdRng::seed_from_u64(1996);

    println!(
        "{:<28} {:>14} {:>14} {:>10}",
        "faults injected into X", "X-only alive", "dual alive", "failovers"
    );
    for round in 0..6 {
        let x_alone = surviving_pair_fraction(pair.x.net(), &pair.x_faults, pair.x.end_nodes());
        let dual = pair.surviving_pair_fraction();
        println!(
            "{:<28} {:>13.1}% {:>13.1}% {:>10}",
            format!("{} links + {} routers", 2 * round, round),
            100.0 * x_alone,
            100.0 * dual,
            pair.failover_pair_count()
        );
        // Escalate: two more dead cables and one more dead router.
        let extra = FaultSet::random(pair.x.net(), 2, 1, &mut rng);
        merge(&mut pair.x_faults, extra, pair.x.net());
    }
    assert!(
        (pair.surviving_pair_fraction() - 1.0).abs() < f64::EPSILON,
        "Y fabric must mask everything while it is healthy"
    );
    println!("\nwith the Y fabric healthy, every pair stays connected — the paper's");
    println!("\"pairs of router fabrics with dual-ported nodes\" configuration.\n");

    // Live fault injection: kill a cable mid-simulation and recover.
    println!("live fault injection (wormhole simulation, 0.2 offered load):");
    let sys = System::fat_fractahedron(2);
    let victim = sys
        .net()
        .links()
        .find(|&l| {
            let info = sys.net().link(l);
            sys.net().is_router(info.a.0) && sys.net().is_router(info.b.0)
        })
        .expect("an inter-router cable");
    let retry = RetryPolicy {
        ack_timeout: 32,
        max_retries: 5,
        backoff_base: 16,
        jitter_seed: 7,
    };
    let cfg_x = SimConfig {
        packet_flits: 16,
        max_cycles: 24_000,
        stall_threshold: 8_000,
        retry,
        ..SimConfig::default()
    }
    .with_fault(FaultEvent::kill_link(victim, 3_000));
    // X regenerates + certifies tables around the dead cable.
    let x = sys.fabric(cfg_x, true);
    let y = sys.fabric(
        SimConfig {
            packet_flits: 16,
            max_cycles: 24_000,
            ..SimConfig::default()
        },
        false,
    );
    let workload = Workload::Bernoulli {
        injection_rate: 0.2,
        pattern: DstPattern::Uniform,
        until_cycle: 6_000,
    };
    let out = run_with_failover(x, y, workload);
    let r = &out.x.recovery;
    println!("  cable {victim:?} killed at cycle 3000 under load:");
    println!(
        "  {} worms torn down, {} retries, {} certified repair(s) installed",
        r.dropped_worms, r.retries, r.repairs_installed
    );
    if let Some(t) = r.time_to_recover {
        println!("  first retried transfer delivered {t} cycles after the fault");
    }
    println!(
        "  {} transfers failed over to Y; total delivery {}/{} ({:.2}%)",
        out.failovers,
        out.total_delivered(),
        out.total_generated(),
        100.0 * out.delivery_ratio()
    );
    assert!(
        out.is_recovered(),
        "retry + healing + failover must deliver everything"
    );
    println!();

    // Path-disable logic under table corruption (§2.4).
    println!("router ASIC path-disable demonstration:");
    let mut asic = RouterAsic::new(6, 64);
    asic.program(7, PortId(5)); // destination 7 normally ascends
    asic.disable_turn(PortId(5), PortId(5)); // never bounce the up port back up
    println!("  table[7] = port 5; disable turn (in 5 -> out 5)");
    println!("  forward(in 0, dest 7) = {:?}", asic.forward(PortId(0), 7));
    asic.corrupt(7, PortId(5));
    println!("  ... after a fault corrupts the table, a packet arriving on port 5:");
    println!("  forward(in 5, dest 7) = {:?}", asic.forward(PortId(5), 7));
    println!("\n\"The ServerNet routers also have path disable logic that can be set to");
    println!("enforce the elimination of the loops, even if the routing table is");
    println!("corrupted by a fault.\"  — §2.4");
}

/// FaultSet has no union; apply by re-killing (ids are stable).
fn merge(into: &mut FaultSet, from: FaultSet, net: &fractanet::graph::Network) {
    for l in net.links() {
        if !from.link_ok(l) {
            into.kill_link(l);
        }
    }
    for r in net.routers() {
        if !from.router_ok(r) {
            into.kill_router(r);
        }
    }
}
