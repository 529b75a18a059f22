//! Cross-crate consistency: the analytical layers and the simulator
//! must agree with each other.

use fractanet::graph::bfs;
use fractanet::prelude::*;
use fractanet::System;

fn all_systems() -> Vec<System> {
    vec![
        System::mesh(4, 4),
        System::tetrahedron(),
        System::cluster(3),
        System::hypercube(3, 6),
        System::fat_tree(32, 4, 2),
        System::fat_fractahedron(1),
        System::fat_fractahedron(2),
        System::thin_fractahedron(2, false),
        System::binary_tree(3, 2),
    ]
}

/// Every canonical routing in the library is minimal: routed hop
/// statistics equal BFS shortest-path statistics.
#[test]
fn canonical_routings_are_minimal() {
    for sys in all_systems() {
        let routed = HopStats::routed_tables(sys.net(), sys.end_nodes(), sys.routes()).unwrap();
        let topo = HopStats::topological(sys.net()).unwrap();
        assert_eq!(routed.histogram, topo.histogram, "{}", sys.name());
    }
}

/// Statically-verified deadlock freedom implies the simulator never
/// reports a deadlock, across loads and seeds.
#[test]
fn static_freedom_implies_dynamic_freedom() {
    for sys in all_systems() {
        if !sys.analyze().deadlock_free {
            continue;
        }
        for (seed, rate) in [(1u64, 0.15), (2, 0.45)] {
            let cfg = SimConfig {
                packet_flits: 8,
                buffer_depth: 2,
                max_cycles: 4_000,
                stall_threshold: 1_500,
                seed,
                ..SimConfig::default()
            };
            let res = sys.simulate(
                Workload::Bernoulli {
                    injection_rate: rate,
                    pattern: DstPattern::Uniform,
                    until_cycle: 2_000,
                },
                cfg,
            );
            assert!(
                res.deadlock.is_none(),
                "{} deadlocked at rate {rate}, seed {seed}",
                sys.name()
            );
        }
    }
}

/// Scripted all-to-all bursts drain completely on deadlock-free
/// systems and deliver every packet.
#[test]
fn all_to_all_bursts_drain() {
    for sys in [
        System::tetrahedron(),
        System::fat_fractahedron(1),
        System::mesh(3, 3),
    ] {
        let n = sys.end_nodes().len();
        let cfg = SimConfig::default()
            .with_packet_flits(6)
            .with_max_cycles(100_000);
        let res = sys.simulate(Workload::all_to_all_burst(n), cfg);
        assert!(res.is_clean(), "{}: {:?}", sys.name(), res.deadlock);
        assert_eq!(res.delivered, n * (n - 1), "{}", sys.name());
    }
}

/// Zero-load network latency ≈ router hops + packet length: the
/// simulator's timing agrees with the analytical hop count.
#[test]
fn zero_load_latency_matches_hops() {
    let sys = System::fat_fractahedron(2);
    let flits = 16u64;
    for (s, d) in [(0usize, 63usize), (0, 1), (5, 9)] {
        let cfg = SimConfig::default()
            .with_packet_flits(flits as u32)
            .with_max_cycles(2_000);
        let res = sys.simulate(Workload::Scripted(vec![(0, s, d)]), cfg);
        assert!(res.is_clean());
        let path = sys
            .routes()
            .trace(sys.net(), sys.end_nodes(), s, d)
            .unwrap();
        let hops = path.len() as u64 - 1;
        // Head pipelines one channel per cycle over hops+1 channels;
        // the tail follows `flits` cycles behind.
        let expect = hops + 1 + flits;
        assert_eq!(res.max_latency, expect, "{s}->{d}");
    }
}

/// The simulator's per-channel busy counts sum to
/// flits × channels-per-path for scripted traffic.
#[test]
fn flit_conservation() {
    let sys = System::tetrahedron();
    let flits = 10u64;
    let wl = Workload::Scripted(vec![(0, 0, 11), (0, 3, 6), (5, 2, 9)]);
    let cfg = SimConfig::default()
        .with_packet_flits(flits as u32)
        .with_max_cycles(5_000);
    let res = sys.simulate(wl, cfg);
    assert!(res.is_clean());
    let expected: u64 = [(0usize, 11usize), (3, 6), (2, 9)]
        .iter()
        .map(|&(s, d)| {
            let path = sys
                .routes()
                .trace(sys.net(), sys.end_nodes(), s, d)
                .unwrap();
            flits * path.len() as u64
        })
        .sum();
    assert_eq!(res.channel_busy.iter().sum::<u64>(), expected);
}

/// Contention predicts simulated pain: the witness transfer set of the
/// worst link (the metrics crate's own 12:1 example) must take longer
/// end to end than the same number of transfers spread across links.
#[test]
fn contention_manifests_in_simulation() {
    use fractanet::metrics::contention::{contention_of_channel, pattern_contention};

    let ft = System::fat_tree(64, 4, 2);
    let rs = RouteSet::from_table(ft.net(), ft.end_nodes(), ft.routes()).unwrap();
    let rep = fractanet::metrics::max_link_contention(ft.net(), &rs);
    assert_eq!(rep.worst, 12);
    // The adversarial set: the maximum matching on the worst channel.
    let (k, witness) = contention_of_channel(ft.net(), &rs, rep.worst_channel);
    assert_eq!(k, 12);
    let adversarial: Vec<(u64, usize, usize)> =
        witness.iter().map(|&(s, d)| (0u64, s, d)).collect();
    // A benign set of the same size: sources spread over all four
    // groups, each to a far destination, verified low-contention.
    let benign_pairs: Vec<(usize, usize)> = (0..12).map(|i| (i * 5, (i * 5 + 32) % 64)).collect();
    let (benign_worst, _) = pattern_contention(ft.net(), &rs, &benign_pairs);
    assert!(
        benign_worst <= 4,
        "benign pattern should spread: {benign_worst}"
    );
    let benign: Vec<(u64, usize, usize)> =
        benign_pairs.iter().map(|&(s, d)| (0u64, s, d)).collect();

    let cfg = SimConfig::default()
        .with_packet_flits(24)
        .with_max_cycles(100_000);
    let bad = ft.simulate(Workload::Scripted(adversarial), cfg.clone());
    let good = ft.simulate(Workload::Scripted(benign), cfg);
    assert!(bad.is_clean() && good.is_clean());
    assert!(
        bad.max_latency > good.max_latency,
        "12 transfers through one link ({}) vs spread ({})",
        bad.max_latency,
        good.max_latency
    );
}

/// Dual-fabric failover keeps simulated traffic flowing: simulate on
/// Y's routes after X dies entirely.
#[test]
fn fabric_failover_end_to_end() {
    use fractanet::servernet::DualFabric;
    use fractanet::topo::Fractahedron;
    let pair = DualFabric::new(|| Fractahedron::new(1, Variant::Fat, false).unwrap());
    // Y is an independent, identical network: route and simulate on it.
    let routes = std::sync::Arc::new(fractanet::route::fractal::fractal_routes(&pair.y));
    let cfg = SimConfig::default()
        .with_packet_flits(8)
        .with_max_cycles(20_000);
    let res = Engine::new(pair.y.net(), pair.y.end_nodes(), routes, cfg)
        .run(Workload::all_to_all_burst(8));
    assert!(res.is_clean());
}

/// BFS, routed paths and the network agree on reachability after
/// faults.
#[test]
fn fault_reachability_consistent_with_bfs() {
    use fractanet::servernet::faults::{reachable, FaultSet};
    let sys = System::fat_fractahedron(1);
    let ends = sys.end_nodes();
    let mut faults = FaultSet::none();
    // Kill the attach link of node 0.
    faults.kill_link(sys.net().channels_from(ends[0])[0].0.link());
    assert!(!reachable(sys.net(), &faults, ends[0], ends[5]));
    assert!(reachable(sys.net(), &faults, ends[1], ends[5]));
    // BFS on the intact network says everything is connected.
    assert!(bfs::is_connected(sys.net()));
}
