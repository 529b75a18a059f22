//! End-to-end reproduction of every numbered artifact in the paper,
//! exercised through the public facade. Each test names the table or
//! figure it checks.

use fractanet::prelude::*;
use fractanet::System;

/// Fig 3 (§2.1): fully-connected configurations of 6-port routers.
#[test]
fn fig3_fully_connected_series() {
    // (routers, node ports, inter-router contention)
    let expect = [
        (1usize, 6usize, None),
        (2, 10, Some(5)),
        (3, 12, Some(4)),
        (4, 12, Some(3)),
        (5, 10, Some(2)),
        (6, 6, Some(1)),
    ];
    for (m, ports, contention) in expect {
        let c = FullyConnectedCluster::new(m, 6).unwrap();
        assert_eq!(c.total_node_ports(), ports, "Fig 3, m = {m}: ports");
        assert_eq!(
            c.predicted_contention(),
            contention,
            "Fig 3, m = {m}: prediction"
        );
        if m >= 2 {
            let sys = System::cluster(m);
            let rep = sys.analyze();
            assert_eq!(
                rep.worst_contention,
                contention.unwrap(),
                "Fig 3, m = {m}: measured"
            );
            assert!(rep.deadlock_free);
        }
    }
}

/// Fig 4 (§2.1): the tetrahedron — 12 ports, 3:1, two-bit routing.
#[test]
fn fig4_tetrahedron() {
    let rep = System::tetrahedron().analyze();
    assert_eq!(rep.nodes, 12);
    assert_eq!(rep.routers, 4);
    assert_eq!(rep.worst_contention, 3);
    assert_eq!(rep.max_hops, 2);
    assert!(rep.deadlock_free);
}

/// Table 1 (§2.3): N-level 2-3-1 fractahedral parameters.
#[test]
fn table1_fractahedral_parameters() {
    for n in 1..=3usize {
        // Maximum nodes: 2 * 8^N with the fan-out level.
        let thin_fan = Fractahedron::new(n, Variant::Thin, true).unwrap();
        assert_eq!(
            thin_fan.end_nodes().len(),
            2 * 8usize.pow(n as u32),
            "Table 1 nodes, N={n}"
        );

        // Maximum delays (without the fan-out level, per the table's
        // note): thin 4N-2, fat 3N-1.
        let thin = System::thin_fractahedron(n, false).analyze();
        assert_eq!(thin.max_hops, 4 * n - 2, "Table 1 thin delay, N={n}");
        let fat = System::fat_fractahedron(n).analyze();
        assert_eq!(fat.max_hops, 3 * n - 1, "Table 1 fat delay, N={n}");

        // Bisection: thin fixed at 4; fat grows as 4^N (the printed
        // "4N" is an OCR artifact; 4^1 = 4 agrees at N=1).
        assert_eq!(thin.bisection_links, 4, "Table 1 thin bisection, N={n}");
        if n <= 2 {
            assert_eq!(
                fat.bisection_links,
                4u64.pow(n as u32),
                "Table 1 fat bisection, N={n}"
            );
        }

        // Both variants deadlock-free (§2.4).
        assert!(thin.deadlock_free && fat.deadlock_free, "§2.4, N={n}");
    }
}

/// §2.2's worked delays: 16-CPU system at 4 hops, 1024-CPU thin at 12.
#[test]
fn section22_cpu_system_delays() {
    let sixteen = System::thin_fractahedron(1, true).analyze();
    assert_eq!(sixteen.nodes, 16);
    assert_eq!(sixteen.max_hops, 4);

    // 1024-CPU check is topological (BFS) to keep runtime sane.
    let f = Fractahedron::paper_thin_1024();
    assert_eq!(f.end_nodes().len(), 1024);
    assert_eq!(fractanet::graph::bfs::max_router_hops(f.net()), Some(12));
}

/// §2.3: 1024-CPU fat fractahedron worst case is 10 router delays
/// (4 up, 6 down), fan-out level included: 3N-1 = 8 plus 2.
#[test]
fn section23_fat_1024_delay() {
    let f = Fractahedron::new(3, Variant::Fat, true).unwrap();
    assert_eq!(f.end_nodes().len(), 1024);
    assert_eq!(fractanet::graph::bfs::max_router_hops(f.net()), Some(10));
}

/// §3.1: mesh scaling — 6x6/11 hops, 8x8/15, 23x23/45, 10:1.
#[test]
fn section31_mesh() {
    let m6 = System::mesh(6, 6).analyze();
    assert_eq!(m6.max_hops, 11);
    assert_eq!(m6.worst_contention, 10);
    assert!(m6.deadlock_free);

    let m8 = Mesh2D::new(8, 8, 2, 6).unwrap();
    assert_eq!(fractanet::graph::bfs::max_router_hops(m8.net()), Some(15));
    let m23 = Mesh2D::new(23, 23, 2, 6).unwrap();
    let a = m23.end_at(0, 0, 0);
    let b = m23.end_at(22, 22, 0);
    assert_eq!(
        fractanet::graph::bfs::router_hops(m23.net(), a, b),
        Some(45)
    );
    // Sizing helper picks the paper's dimensions.
    assert_eq!(Mesh2D::for_nodes(1024).unwrap().cols(), 23);
}

/// §3.2: a 64-node hypercube needs 7-port routers; 6-port ServerNet
/// ASICs cannot build it.
#[test]
fn section32_hypercube_port_budget() {
    assert!(std::panic::catch_unwind(|| Hypercube::new(6, 1, 6)).is_err());
    let h = Hypercube::new(6, 1, 7).unwrap();
    assert_eq!(h.net().router_count(), 64);
    // And the 5-cube fits with one node per corner.
    let five = System::hypercube(5, 6).analyze();
    assert_eq!(five.nodes, 32);
    assert!(five.deadlock_free);
}

/// Fig 6 / §3.3: the 64-node 4-2 fat tree.
#[test]
fn section33_fat_tree() {
    let rep = System::fat_tree(64, 4, 2).analyze();
    assert_eq!(rep.routers, 28, "Table 2");
    assert!((rep.avg_hops - 4.43).abs() < 0.01, "Table 2: 4.4");
    assert_eq!(rep.worst_contention, 12, "12:1 through link HLP");
    assert!(rep.deadlock_free);
}

/// Fig 7 / §3.4 / Table 2: the 64-node fat fractahedron.
#[test]
fn section34_fat_fractahedron() {
    let rep = System::fat_fractahedron(2).analyze();
    assert_eq!(rep.routers, 48, "Table 2: from 28 to 48 routers");
    assert!((rep.avg_hops - 4.30).abs() < 0.01, "Table 2: 4.3");
    assert_eq!(
        rep.local_contention, 4,
        "§3.4: 4:1 on the level-2 diagonals"
    );
    // Full-network exact maximum (down links) — see EXPERIMENTS.md.
    assert_eq!(rep.worst_contention, 8);
    assert!(rep.deadlock_free, "§2.4");
}

/// §3.4: the 3-3 fat tree alternative — 100 routers, 5.9 average hops.
#[test]
fn section34_three_three_fat_tree() {
    let rep = System::fat_tree(64, 3, 3).analyze();
    assert_eq!(rep.routers, 100);
    assert!(
        (rep.avg_hops - 5.9).abs() < 0.1,
        "measured {}",
        rep.avg_hops
    );
}

/// Table 2, assembled: every row side by side.
#[test]
fn table2_side_by_side() {
    let ft = System::fat_tree(64, 4, 2).analyze();
    let ff = System::fat_fractahedron(2).analyze();
    // Contention: 12:1 vs 4:1 (intra-stage population, as quoted).
    assert!(ff.local_contention < ft.worst_contention);
    // Average hops: 4.4 vs 4.3.
    assert!(ff.avg_hops < ft.avg_hops);
    // Routers: 28 vs 48.
    assert!(ff.routers > ft.routers);
    // Bisection comparison (measured): the fractahedron is at least as
    // wide.
    assert!(ff.bisection_links >= ft.bisection_links);
}

/// Fig 1 (§2): wormhole deadlock happens dynamically, and
/// dimension-order routing prevents it.
#[test]
fn fig1_dynamic_deadlock() {
    let ring = System::ring(4);
    assert!(
        !ring.analyze().deadlock_free,
        "static analysis flags the loop"
    );
    let cfg = SimConfig {
        packet_flits: 32,
        buffer_depth: 2,
        max_cycles: 10_000,
        stall_threshold: 200,
        ..SimConfig::default()
    };
    let res = ring.simulate(Workload::fig1_ring(4), cfg.clone());
    assert!(res.deadlock.is_some(), "the Fig 1 pattern must deadlock");

    let mesh = System::mesh(2, 2);
    let wl = Workload::Scripted(vec![(0, 0, 6), (0, 2, 4), (0, 4, 2), (0, 6, 0)]);
    let res = mesh.simulate(wl, cfg);
    assert!(res.deadlock.is_none());
    assert_eq!(res.delivered, 4);
}

/// Fig 2 (§2): hypercube path disables — deadlock-free but uneven.
#[test]
fn fig2_hypercube_disables() {
    use fractanet::deadlock::verify_deadlock_free;
    use fractanet::metrics::utilization::utilization;
    use fractanet::route::treeroute::updown_routeset;

    let h = Hypercube::new(3, 2, 6).unwrap();
    let updown = updown_routeset(h.net(), h.end_nodes(), h.router(0));
    assert!(verify_deadlock_free(h.net(), &updown).is_ok());
    let skew = utilization(h.net(), &updown, Some(LinkClass::Local));

    let ecube = RouteSet::from_table(
        h.net(),
        h.end_nodes(),
        &fractanet::route::dor::ecube_routes(&h),
    )
    .unwrap();
    let even = utilization(h.net(), &ecube, Some(LinkClass::Local));

    assert!(
        even.cv < 1e-9,
        "e-cube is perfectly even on a symmetric cube"
    );
    assert!(
        skew.cv > even.cv,
        "disables skew utilization (the §2 complaint)"
    );
    assert!(skew.max > skew.min);
}

/// FNV-1a over everything written into it, so multi-megabyte `Debug`
/// renderings of tables are hashed without being materialized.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of a fractahedron build: every node's kind (and label, when
/// `labels`) and outgoing channels, every link's endpoints and class,
/// the end-node ids in address order, and the `Debug` rendering of its
/// destination tables.
fn wiring_digest(net: &Network, ends: &[NodeId], routes: &Routes, labels: bool) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for v in net.nodes() {
        write!(h, "{:?}{:?}", net.kind(v), net.channels_from(v)).unwrap();
        if labels {
            write!(h, "{}", net.label(v)).unwrap();
        }
    }
    for l in net.links() {
        let info = net.link(l);
        write!(h, "{:?}{:?}{:?}", info.a, info.b, info.class).unwrap();
    }
    write!(h, "{ends:?}{routes:?}").unwrap();
    h.0
}

/// Fractahedral builds pinned byte for byte: the paper's thin and fat
/// fractahedrons at N = 1..3 and the fan-out builds (labels included),
/// then the §4 cluster shapes of E14, fat and thin at N = 2 (labels
/// left out). A change to the builder or to depth-first routing that
/// moves a port, a cable or a table entry fails here; the failure
/// message prints every digest the run produced.
#[test]
fn fractahedron_builds_match_golden_vectors() {
    use fractanet::route::fractal::fractal_routes;
    use fractanet::topo::ClusterShape;

    const GOLDEN_PAPER: [(usize, Variant, bool, u64); 9] = [
        (1, Variant::Thin, false, 0xedf8_0661_463b_1458),
        (2, Variant::Thin, false, 0x4e5d_6d5c_a410_0fee),
        (3, Variant::Thin, false, 0xea94_1205_787e_4bc6),
        (1, Variant::Fat, false, 0xedf8_0661_463b_1458),
        (2, Variant::Fat, false, 0x1e98_8a3d_9dce_0c98),
        (3, Variant::Fat, false, 0xca5f_7d60_63d0_5892),
        (2, Variant::Thin, true, 0x4d92_aa19_1038_ee00),
        (3, Variant::Thin, true, 0x129f_a466_bd46_e532),
        (2, Variant::Fat, true, 0xa322_9487_231b_68f3),
    ];
    const fn shape(cluster: usize, ports: u8, down: usize, up: usize) -> ClusterShape {
        ClusterShape {
            cluster,
            ports,
            down,
            up,
        }
    }
    const GOLDEN_SHAPES: [(ClusterShape, bool, u64); 6] = [
        (shape(3, 6, 2, 2), true, 0xdcf3_5e08_9ba2_b167),
        (shape(3, 6, 2, 2), false, 0x3f14_4475_f393_b12a),
        (shape(4, 8, 3, 2), true, 0xf0a7_cc24_beef_2785),
        (shape(4, 8, 3, 2), false, 0xd491_0f27_0c08_4699),
        (shape(5, 8, 2, 2), true, 0xcca1_4768_659b_575b),
        (shape(5, 8, 2, 2), false, 0x7a0d_cb1a_68a9_5bd6),
    ];

    let mut got = Vec::new();
    let mut bad = Vec::new();
    let mut check = |what: String, digest: u64, want: u64| {
        if digest != want {
            bad.push(what.clone());
        }
        got.push(format!("{what}: {digest:#018x}"));
    };
    for (levels, variant, fanout, want) in GOLDEN_PAPER {
        let f = Fractahedron::new(levels, variant, fanout).unwrap();
        let d = wiring_digest(f.net(), f.end_nodes(), &fractal_routes(&f), true);
        check(format!("{variant:?} N{levels} fanout={fanout}"), d, want);
    }
    for (shape, fat, want) in GOLDEN_SHAPES {
        let variant = if fat { Variant::Fat } else { Variant::Thin };
        let g = Fractahedron::with_shape(shape, 2, variant).unwrap();
        let d = wiring_digest(g.net(), g.end_nodes(), &fractal_routes(&g), false);
        check(format!("{shape:?} fat={fat}"), d, want);
    }
    assert!(
        bad.is_empty(),
        "digests diverged for {bad:?}; this run produced:\n{}",
        got.join("\n")
    );
}
