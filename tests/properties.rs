//! Workspace-level property tests: random configurations drawn from
//! the topology grammar must uphold the library's core invariants.

use fractanet::deadlock::verify_deadlock_free;
use fractanet::graph::bfs;
use fractanet::graph::{LinkId, NodeId};
use fractanet::lint::Precomputed;
use fractanet::metrics::{bisection_estimate, max_link_contention_paths};
use fractanet::prelude::*;
use fractanet::route::repair::trace_surviving;
use fractanet::route::ringroute::ring_clockwise_routes;
use fractanet::route::{repair_tables, DeadMask, IncrementalRepair, Paths};
use fractanet::servernet::{certify_tables, HealError};
use fractanet::System;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A small grammar of valid system configurations.
#[derive(Clone, Debug)]
enum Config {
    Mesh(usize, usize),
    Cluster(usize),
    Hypercube(u32),
    FatTree(usize, usize, usize),
    Fractahedron(usize, bool, bool), // levels, fat?, fanout?
    BinaryTree(u32, usize),
    VcSpec(&'static str),
}

impl Config {
    fn build(&self) -> System {
        match *self {
            Config::Mesh(c, r) => System::mesh(c, r),
            Config::Cluster(m) => System::cluster(m),
            Config::Hypercube(d) => System::hypercube(d, 6),
            Config::FatTree(n, d, u) => System::fat_tree(n, d, u),
            Config::Fractahedron(l, true, _) => System::fat_fractahedron(l),
            Config::Fractahedron(l, false, f) => System::thin_fractahedron(l, f),
            Config::BinaryTree(d, n) => System::binary_tree(d, n),
            Config::VcSpec(s) => s.parse::<TopoSpec>().expect("grammar spec").build(),
        }
    }
}

fn configs() -> impl Strategy<Value = Config> {
    prop_oneof![
        (2usize..6, 2usize..6).prop_map(|(c, r)| Config::Mesh(c, r)),
        (2usize..=6).prop_map(Config::Cluster),
        (2u32..=5).prop_map(Config::Hypercube),
        (6usize..40, 2usize..=4, 1usize..=2).prop_map(|(n, d, u)| Config::FatTree(n, d, u)),
        (1usize..=2, any::<bool>(), any::<bool>())
            .prop_map(|(l, fat, fan)| Config::Fractahedron(l, fat, fan)),
        (2u32..=4, 1usize..=3).prop_map(|(d, n)| Config::BinaryTree(d, n)),
    ]
}

/// The engine grammar: every `configs()` topology plus the
/// virtual-channel specs, whose *physical* dependency graphs are
/// intentionally cyclic on rings and tori — only the VC discipline
/// keeps them live. Used by the engine-parity and delivery-set
/// properties (the routing-invariant properties above assume acyclic
/// physical CDGs and keep the base grammar).
fn engine_configs() -> impl Strategy<Value = Config> {
    const VC_SPECS: [&str; 6] = [
        "ring:6:vc2",
        "ring:5:vc3",
        "torus:4x4:vc2",
        "torus:3x3:vc2:dateline",
        "mesh:4x4:vc2:ecube",
        "hypercube:3:vc2",
    ];
    prop_oneof![
        configs(),
        (0usize..VC_SPECS.len()).prop_map(|i| Config::VcSpec(VC_SPECS[i])),
    ]
}

/// The heal gate as it ran before sharing one forest sweep between
/// its CDG and its lint: the acyclicity certificate, then the full
/// masked table lint (L5 contention included) judging that CDG. The
/// reference [`certify_tables`] must match verdict for verdict and
/// byte for byte.
fn reference_gate(
    net: &Network,
    ends: &[NodeId],
    mask: &DeadMask,
    tables: &Routes,
) -> Result<usize, HealError> {
    let cdg = verify_deadlock_free_tables(net, ends, tables).map_err(HealError::Cyclic)?;
    let lint = Linter::new(net, ends)
        .with_subject("heal")
        .with_mask(mask)
        .without_suggestions()
        .with_certificate(Precomputed {
            cdg: Some(&cdg),
            ..Precomputed::default()
        })
        .check_tables(tables);
    if !lint.is_clean() {
        return Err(HealError::Lint(Box::new(lint)));
    }
    Ok(cdg.dependency_count())
}

/// Whether [`certify_tables`] and [`reference_gate`] agree on the
/// dependency count, or on the error variant and its full text.
fn gate_agrees(
    net: &Network,
    ends: &[NodeId],
    mask: &DeadMask,
    tables: &Routes,
    what: &str,
) -> Result<(), TestCaseError> {
    let got = certify_tables(net, ends, mask, tables);
    let want = reference_gate(net, ends, mask, tables);
    match (&got, &want) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{}", what),
        (Err(a), Err(b)) => {
            prop_assert_eq!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{}: {} vs {}",
                what,
                a,
                b
            );
            prop_assert_eq!(a.to_string(), b.to_string(), "{}", what);
        }
        _ => prop_assert!(false, "{}: gate {:?} vs reference {:?}", what, got, want),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every configuration builds a connected, valid network whose
    /// canonical routing delivers every pair by a simple path.
    #[test]
    fn routing_always_delivers(cfg in configs()) {
        let sys = cfg.build();
        prop_assert!(sys.net().validate().is_ok());
        prop_assert!(bfs::is_connected(sys.net()));
        let rs = RouteSet::from_table(sys.net(), sys.end_nodes(), sys.routes()).unwrap();
        prop_assert!(rs.check_simple().is_ok());
        for (s, d, p) in rs.pairs() {
            prop_assert_eq!(
                sys.net().channel_dst(*p.last().unwrap()),
                sys.end_nodes()[d],
                "{:?}: {}->{}", cfg, s, d
            );
            prop_assert_eq!(sys.net().channel_src(p[0]), sys.end_nodes()[s]);
        }
    }

    /// Canonical routings are minimal: routed max/avg equal BFS.
    #[test]
    fn routings_are_minimal(cfg in configs()) {
        let sys = cfg.build();
        let routed = HopStats::routed_tables(sys.net(), sys.end_nodes(), sys.routes()).unwrap().avg;
        let topo = bfs::avg_router_hops(sys.net()).unwrap();
        prop_assert!((routed - topo).abs() < 1e-9, "{:?}: {} vs {}", cfg, routed, topo);
    }

    /// Deadlock freedom holds for every canonical routing except the
    /// ring (which the library intentionally ships cyclic as the Fig 1
    /// exhibit — rings are excluded from the grammar).
    #[test]
    fn canonical_routings_deadlock_free(cfg in configs()) {
        let sys = cfg.build();
        prop_assert!(
            verify_deadlock_free_tables(sys.net(), sys.end_nodes(), sys.routes()).is_ok(),
            "{:?} has a dependency cycle", cfg
        );
    }

    /// Contention is bounded: at least 1 on some channel (any route
    /// uses links), at most nodes-1 (sources are distinct).
    #[test]
    fn contention_bounds(cfg in configs()) {
        let sys = cfg.build();
        let n = sys.end_nodes().len();
        let paths = Paths::tables(sys.net(), sys.end_nodes(), sys.routes());
        let rep = max_link_contention_paths(sys.net(), paths);
        prop_assert!(rep.worst >= 1);
        prop_assert!(rep.worst < n, "{:?}: {} vs {}", cfg, rep.worst, n);
    }

    /// Bisection is at least 1 on a connected network and no more than
    /// the cables leaving the smaller half's attach points.
    #[test]
    fn bisection_bounds(cfg in configs()) {
        let sys = cfg.build();
        let rep = bisection_estimate(sys.net(), sys.end_nodes(), 2);
        let half = sys.end_nodes().len() / 2;
        prop_assert!(rep.links >= 1);
        prop_assert!(rep.links <= half as u64, "{:?}: cut {} > half {}", cfg, rep.links, half);
    }

    /// Short random simulations on random configs never deadlock and
    /// deliver something — including the VC configs, whose physical
    /// dependency graphs are cyclic and only the Dally–Seitz split
    /// keeps live.
    #[test]
    fn random_sims_stay_clean(cfg in engine_configs(), seed in 0u64..1000) {
        let sys = cfg.build();
        let sim_cfg = SimConfig {
            packet_flits: 6,
            buffer_depth: 2,
            max_cycles: 2_500,
            stall_threshold: 1_200,
            seed,
            ..SimConfig::default()
        };
        let res = sys.simulate(
            Workload::Bernoulli {
                injection_rate: 0.2,
                pattern: DstPattern::Uniform,
                until_cycle: 1_000,
            },
            sim_cfg,
        );
        prop_assert!(res.deadlock.is_none(), "{:?} seed {}", cfg, seed);
        prop_assert!(res.generated == 0 || res.delivered > 0);
    }

    /// Self-healing invariants under random fault sets on the paper's
    /// two redundant families: the repaired tables always certify
    /// CDG-acyclic, and no surviving route touches a dead link or
    /// router.
    #[test]
    fn healed_tables_avoid_faults_and_certify(
        fat in any::<bool>(),
        size in 1usize..=2,
        link_picks in prop::collection::vec(0usize..100_000, 0usize..4),
        router_picks in prop::collection::vec(0usize..100_000, 0usize..2),
    ) {
        let sys = if fat {
            System::fat_fractahedron(size)
        } else {
            System::hypercube(size as u32 + 2, 6)
        };
        let net = sys.net();
        let links: Vec<LinkId> = net.links().collect();
        let routers: Vec<NodeId> = net.nodes().filter(|&v| net.is_router(v)).collect();
        let mut faults = FaultSet::none();
        let mut mask = DeadMask::new(net);
        for &p in &link_picks {
            faults.kill_link(links[p % links.len()]);
            mask.kill_link(links[p % links.len()]);
        }
        for &p in &router_picks {
            faults.kill_router(routers[p % routers.len()]);
            mask.kill_router(routers[p % routers.len()]);
        }

        let rep = heal(net, sys.end_nodes(), &faults);
        prop_assert!(rep.is_ok(), "healing must always certify: {:?}", rep.err());
        let rep = rep.unwrap();
        let routes = trace_surviving(net, sys.end_nodes(), &mask, &rep.tables);
        // Independent re-certification (heal verified internally too).
        prop_assert!(verify_deadlock_free(net, &routes).is_ok());
        // No surviving route crosses a dead component.
        let mut connected = 0usize;
        for (s, d, p) in routes.pairs() {
            if p.is_empty() {
                continue;
            }
            connected += 1;
            for &ch in p {
                prop_assert!(
                    faults.link_ok(ch.link())
                        && faults.router_ok(net.channel_src(ch))
                        && faults.router_ok(net.channel_dst(ch)),
                    "{}->{} routed through a dead component", s, d
                );
            }
        }
        prop_assert_eq!(connected, rep.coverage.connected);
        prop_assert!(rep.coverage.connected <= rep.coverage.total);

        // Table-canonical invariant: walking the installed tables
        // reproduces every surviving traced path element for element.
        let mut mismatches = Vec::new();
        Paths::tables(net, sys.end_nodes(), &rep.tables).for_each_pair(|s, d, res| {
            let frozen = routes.path(s, d);
            if frozen.is_empty() {
                return; // severed by the fault set; tables may err here
            }
            if res != Ok(frozen) {
                mismatches.push((s, d));
            }
        });
        prop_assert!(mismatches.is_empty(), "table walks diverged: {:?}", mismatches);
    }

    /// The canonical tables and the derived dense matrix describe the
    /// same routing: every pair's table walk equals its traced path.
    #[test]
    fn tables_trace_to_the_same_paths(cfg in configs()) {
        let sys = cfg.build();
        let rs = RouteSet::from_table(sys.net(), sys.end_nodes(), sys.routes()).unwrap();
        let mut mismatches = Vec::new();
        Paths::tables(sys.net(), sys.end_nodes(), sys.routes()).for_each_pair(|s, d, res| {
            if res != Ok(rs.path(s, d)) {
                mismatches.push((s, d));
            }
        });
        prop_assert!(mismatches.is_empty(), "{:?}: {:?}", cfg, mismatches);
    }

    /// Per-pair routes reach the engine only through their table
    /// projection, so that projection must be faithful: every
    /// system's traced route set projects, and simulating the
    /// projection equals simulating the canonical tables field for
    /// field.
    #[test]
    fn pair_routes_project_onto_equivalent_tables(cfg in configs(), seed in 0u64..1000) {
        let sys = cfg.build();
        let rs = RouteSet::from_table(sys.net(), sys.end_nodes(), sys.routes()).unwrap();
        let projected = Routes::from_pair_paths(sys.net(), sys.end_nodes(), &rs);
        prop_assert!(projected.is_some(), "{:?}: route set does not project", cfg);
        let sim_cfg = SimConfig {
            packet_flits: 6,
            buffer_depth: 2,
            max_cycles: 2_500,
            stall_threshold: 1_200,
            seed,
            ..SimConfig::default()
        };
        let wl = Workload::Bernoulli {
            injection_rate: 0.2,
            pattern: DstPattern::Uniform,
            until_cycle: 1_000,
        };
        let run = |routes| {
            Engine::new(sys.net(), sys.end_nodes(), routes, sim_cfg.clone()).run(wl.clone())
        };
        let from_pairs = run(std::sync::Arc::new(projected.unwrap()));
        let canonical = run(sys.shared_routes());
        prop_assert_eq!(
            format!("{from_pairs:?}"),
            format!("{canonical:?}"),
            "{:?} seed {}",
            cfg,
            seed
        );
    }

    /// The engine at widths 2, 4 and 8 is bit-identical to width 1 —
    /// one shard scanning on the calling thread — across the full
    /// config grammar, including random kill/repair/brownout/flaky
    /// schedules, healing epoch installs mid-run, and telemetry
    /// recording. Every field of the result (latencies, busy counts,
    /// recovery stats, the telemetry event ring) must match at every
    /// FIFO depth (including the unbounded sentinel) and credit delay,
    /// over the engine grammar with its virtual-channel configs. Debug
    /// builds shard down to one live item per shard, so there every
    /// width > 1 forks real shards and merges them.
    #[test]
    fn parallel_and_serial_engines_agree(
        cfg in engine_configs(),
        seed in 0u64..1000,
        heal in any::<bool>(),
        depth_pick in 0usize..3,
        delay_pick in 0usize..3,
        schedule in prop::collection::vec((0usize..100_000, 0u8..4), 0usize..3),
    ) {
        let sys = cfg.build();
        let links: Vec<LinkId> = sys.net().links().collect();
        let mut sim_cfg = SimConfig {
            packet_flits: 6,
            buffer_depth: [2, 4, SimConfig::INFINITE_DEPTH][depth_pick],
            credit_delay: [0u64, 1, 3][delay_pick],
            max_cycles: 2_500,
            stall_threshold: 1_200,
            seed,
            telemetry: Telemetry::recording(),
            ..SimConfig::default()
        };
        for (i, &(pick, kind)) in schedule.iter().enumerate() {
            let l = links[pick % links.len()];
            let at = 100 + 150 * i as u64;
            sim_cfg = sim_cfg.with_fault(match kind {
                0 => FaultEvent::kill_link(l, at),
                1 => FaultEvent::kill_link(l, at).transient(at + 500),
                2 => FaultEvent::brownout(l, 40, 60, at).transient(at + 700),
                _ => FaultEvent::flaky_link(l, 250, at).transient(at + 400),
            });
        }
        let wl = Workload::Bernoulli {
            injection_rate: 0.2,
            pattern: DstPattern::Uniform,
            until_cycle: 1_000,
        };
        let run = |threads: usize| {
            let c = sim_cfg.clone().with_threads(threads);
            if heal {
                sys.simulate_healing(wl.clone(), c)
            } else {
                sys.simulate(wl.clone(), c)
            }
        };
        let serial = format!("{:?}", run(1));
        for threads in [2usize, 4, 8] {
            let sharded = format!("{:?}", run(threads));
            prop_assert_eq!(
                &serial, &sharded,
                "{:?} seed {} heal {} threads {}", cfg, seed, heal, threads
            );
        }
    }

    /// Parking is invisible: with telemetry off the engine parks
    /// blocked worm heads and sources and skips them until what they
    /// wait on changes; with a recorder attached it parks nothing and
    /// rescans them every cycle. Both runs, at widths 1 and 2, must be
    /// bit-identical once the telemetry report is detached — over the
    /// engine grammar, FIFO depths, credit delays, random
    /// kill/brownout/flaky/corrupt schedules, healing, speculative
    /// retransmission, and loads up to saturation.
    #[test]
    fn parked_and_unparked_engines_agree(
        cfg in engine_configs(),
        seed in 0u64..1000,
        heal in any::<bool>(),
        retransmit in any::<bool>(),
        depth_pick in 0usize..3,
        delay_pick in 0usize..3,
        rate_pick in 0usize..3,
        schedule in prop::collection::vec((0usize..100_000, 0u8..5), 0usize..3),
    ) {
        let sys = cfg.build();
        let links: Vec<LinkId> = sys.net().links().collect();
        let mut sim_cfg = SimConfig {
            packet_flits: 6,
            buffer_depth: [2, 4, SimConfig::INFINITE_DEPTH][depth_pick],
            credit_delay: [0u64, 1, 3][delay_pick],
            max_cycles: 2_500,
            stall_threshold: 1_200,
            seed,
            // A short ACK timeout makes speculative copies race their
            // originals, so queued copies settle while parked.
            ack_retransmit: retransmit,
            retry: RetryPolicy {
                ack_timeout: 24,
                ..RetryPolicy::default()
            },
            ..SimConfig::default()
        };
        for (i, &(pick, kind)) in schedule.iter().enumerate() {
            let l = links[pick % links.len()];
            let at = 100 + 150 * i as u64;
            sim_cfg = sim_cfg.with_fault(match kind {
                0 => FaultEvent::kill_link(l, at),
                1 => FaultEvent::kill_link(l, at).transient(at + 500),
                2 => FaultEvent::brownout(l, 40, 60, at).transient(at + 700),
                3 => FaultEvent::flaky_link(l, 250, at).transient(at + 400),
                _ => FaultEvent::corrupt_link(l, 250, at).transient(at + 400),
            });
        }
        let wl = Workload::Bernoulli {
            injection_rate: [0.05, 0.2, 0.6][rate_pick],
            pattern: DstPattern::Uniform,
            until_cycle: 1_000,
        };
        let run = |threads: usize, telemetry: Telemetry| {
            let c = sim_cfg.clone().with_threads(threads).with_telemetry(telemetry);
            let mut r = if heal {
                sys.simulate_healing(wl.clone(), c)
            } else {
                sys.simulate(wl.clone(), c)
            };
            r.telemetry = None;
            format!("{r:?}")
        };
        let parked = run(1, Telemetry::off());
        for (threads, telemetry) in [
            (2usize, Telemetry::off()),
            (1, Telemetry::recording()),
            (2, Telemetry::recording()),
        ] {
            prop_assert_eq!(
                &parked, &run(threads, telemetry),
                "{:?} seed {} heal {} threads {} telemetry {:?}",
                cfg, seed, heal, threads, telemetry
            );
        }
    }

    /// The live-metrics pipeline is inert: turning sampling on changes
    /// nothing about a run except the attached report, at every shard
    /// width. A metrics-on run at 1/2/4/8 threads is bit-identical to
    /// the serial metrics-off oracle once the report is detached, and
    /// the report itself is bit-identical across widths.
    #[test]
    fn metrics_are_inert_at_every_width(
        cfg in engine_configs(),
        seed in 0u64..1000,
        heal in any::<bool>(),
        every_pick in 0usize..3,
    ) {
        let every = [50u64, 100, 250][every_pick];
        let sys = cfg.build();
        let sim_cfg = SimConfig {
            packet_flits: 6,
            buffer_depth: 2,
            max_cycles: 2_500,
            stall_threshold: 1_200,
            seed,
            ..SimConfig::default()
        };
        let wl = Workload::Bernoulli {
            injection_rate: 0.2,
            pattern: DstPattern::Uniform,
            until_cycle: 1_000,
        };
        let run = |threads: usize, metrics: MetricsConfig| {
            let c = sim_cfg.clone().with_threads(threads).with_metrics(metrics);
            if heal {
                sys.simulate_healing(wl.clone(), c)
            } else {
                sys.simulate(wl.clone(), c)
            }
        };
        let oracle = run(1, MetricsConfig::off());
        prop_assert!(oracle.metrics.is_none());
        let baseline = format!("{:?}", oracle);
        let mut serial_report = None;
        for threads in [1usize, 2, 4, 8] {
            let mut on = run(threads, MetricsConfig::sampling(every).with_deadline(64));
            let report = on.metrics.take().expect("metrics were on");
            prop_assert_eq!(
                &baseline, &format!("{:?}", on),
                "metrics perturbed the sim: {:?} seed {} heal {} threads {}",
                cfg, seed, heal, threads
            );
            match &serial_report {
                None => serial_report = Some(report),
                Some(first) => prop_assert_eq!(
                    first, &report,
                    "report differs across widths: {:?} seed {} heal {} threads {}",
                    cfg, seed, heal, threads
                ),
            }
        }
    }

    /// Incremental dirty-column repair produces byte-identical tables
    /// to a from-scratch rebuild, including across successive fault
    /// batches.
    #[test]
    fn incremental_repair_matches_full(
        fat in any::<bool>(),
        size in 1usize..=2,
        link_picks in prop::collection::vec(0usize..100_000, 1usize..5),
        split in 0usize..5,
    ) {
        let sys = if fat {
            System::fat_fractahedron(size)
        } else {
            System::hypercube(size as u32 + 2, 6)
        };
        let net = sys.net();
        let links: Vec<LinkId> = net.links().collect();
        let dead: Vec<LinkId> = link_picks.iter().map(|&p| links[p % links.len()]).collect();
        let cut = split.min(dead.len());

        let mut inc = IncrementalRepair::new(net, sys.end_nodes());
        // Warm the incremental state on the first batch, then grow the
        // fault set — the second repair exercises the dirty-column path.
        let first = DeadMask::from_dead(net, &dead[..cut], &[]);
        let _ = inc.repair(&first);
        let full_mask = DeadMask::from_dead(net, &dead, &[]);
        let inc_rep = inc.repair(&full_mask);
        let full = repair_tables(net, sys.end_nodes(), &full_mask);
        prop_assert_eq!(inc_rep.coverage, full.coverage);
        prop_assert!(inc_rep.tables == full.tables, "incremental diverged from full rebuild");
    }

    /// The heal gate equals its pre-sharing reference on repaired
    /// tables (after a fault batch that may revive links), on stale
    /// pre-fault tables under the mask (L2 dead channels), on repaired
    /// tables with one entry cleared (L1 holes) and on cyclic tables (a
    /// clockwise ring, a torus).
    #[test]
    fn heal_gate_matches_reference(
        pick in 0usize..5,
        link_picks in prop::collection::vec(0usize..100_000, 1usize..5),
        kill_router in any::<bool>(),
        revive in 0usize..5,
        entry in 0usize..1_000_000,
    ) {
        let sys = match pick {
            0 => System::fat_fractahedron(1),
            1 => System::fat_fractahedron(2),
            2 => System::hypercube(3, 6),
            3 => System::mesh(4, 4),
            _ => System::thin_fractahedron(2, true),
        };
        let (net, ends) = (sys.net(), sys.end_nodes());
        let links: Vec<LinkId> = net.links().collect();
        let routers: Vec<NodeId> = net.routers().collect();
        let dead: Vec<LinkId> = link_picks.iter().map(|&p| links[p % links.len()]).collect();
        let dead_routers: Vec<NodeId> = if kill_router {
            vec![routers[entry % routers.len()]]
        } else {
            Vec::new()
        };
        // Warm the incremental state on every fault, then drop some:
        // the second repair sees revived links.
        let mut inc = IncrementalRepair::new(net, ends);
        let _ = inc.repair(&DeadMask::from_dead(net, &dead, &dead_routers));
        let mask = DeadMask::from_dead(net, &dead[revive.min(dead.len())..], &dead_routers);
        let repaired = inc.repair(&mask).tables;
        gate_agrees(net, ends, &mask, &repaired, "repaired")?;
        gate_agrees(net, ends, &mask, sys.routes(), "stale")?;

        let mut holed = repaired.clone();
        let n = ends.len();
        let (r, d) = (routers[entry % routers.len()], (entry / routers.len()) % n);
        holed.clear(r, d);
        gate_agrees(net, ends, &mask, &holed, "holed")?;

        let ring = Ring::new(6, 1, 6).expect("ring");
        let ring_mask = DeadMask::from_dead(
            ring.net(),
            &[LinkId((link_picks[0] % ring.net().link_count()) as u32)],
            &[],
        );
        let clockwise = ring_clockwise_routes(&ring);
        for m in [DeadMask::new(ring.net()), ring_mask] {
            gate_agrees(ring.net(), ring.end_nodes(), &m, &clockwise, "clockwise ring")?;
        }
        let torus = System::torus(4, 4);
        let torus_mask = DeadMask::from_dead(
            torus.net(),
            &[LinkId((link_picks[0] % torus.net().link_count()) as u32)],
            &[],
        );
        for m in [DeadMask::new(torus.net()), torus_mask] {
            gate_agrees(torus.net(), torus.end_nodes(), &m, torus.routes(), "torus")?;
        }
    }

    /// The `INFINITE_DEPTH` sentinel is semantics-free: unbounded
    /// FIFOs are bit-identical — full `Debug`, telemetry ring
    /// included — to a finite depth too large to ever bind, at every
    /// shard width. This pins the acceptance criterion that
    /// `fifo depth = ∞, credit delay = 0` reproduces the pre-credit
    /// engine exactly across the config grammar.
    #[test]
    fn infinite_depth_equals_unbinding_finite_depth(
        cfg in engine_configs(),
        seed in 0u64..1000,
        threads_pick in 0usize..4,
    ) {
        let threads = [1usize, 2, 4, 8][threads_pick];
        let sys = cfg.build();
        let wl = Workload::Bernoulli {
            injection_rate: 0.2,
            pattern: DstPattern::Uniform,
            until_cycle: 1_000,
        };
        let base = SimConfig {
            packet_flits: 6,
            max_cycles: 2_500,
            stall_threshold: 1_200,
            seed,
            telemetry: Telemetry::recording(),
            ..SimConfig::default()
        }
        .with_threads(threads);
        let inf = sys.simulate(wl.clone(), base.clone().with_infinite_buffers());
        let vast = sys.simulate(wl, base.with_buffer_depth(1 << 20));
        prop_assert_eq!(
            format!("{:?}", inf), format!("{:?}", vast),
            "{:?} seed {} threads {}", cfg, seed, threads
        );
    }

    /// With unbounded FIFOs the credit loop is inert: whatever the
    /// round-trip delay, every behavioral field — deliveries,
    /// latencies, per-channel busy counts — matches the delay-0 run.
    /// Only the quiescence drain tail (`cycles`, and the throughput
    /// divisor with it) may stretch while the last in-flight credits
    /// land.
    #[test]
    fn credit_delay_is_inert_at_infinite_depth(
        cfg in engine_configs(),
        seed in 0u64..1000,
        delay in 1u64..8,
    ) {
        let sys = cfg.build();
        let wl = Workload::Bernoulli {
            injection_rate: 0.2,
            pattern: DstPattern::Uniform,
            until_cycle: 1_000,
        };
        let base = SimConfig {
            packet_flits: 6,
            max_cycles: 2_500,
            stall_threshold: 1_200,
            seed,
            ..SimConfig::default()
        }
        .with_infinite_buffers();
        let a = sys.simulate(wl.clone(), base.clone().with_credit_delay(0));
        let b = sys.simulate(wl, base.with_credit_delay(delay));
        prop_assert_eq!(a.generated, b.generated, "{:?} seed {} delay {}", cfg, seed, delay);
        prop_assert_eq!(a.delivered, b.delivered, "{:?} seed {} delay {}", cfg, seed, delay);
        prop_assert_eq!(a.avg_latency, b.avg_latency);
        prop_assert_eq!(a.avg_network_latency, b.avg_network_latency);
        prop_assert_eq!(a.p95_latency, b.p95_latency);
        prop_assert_eq!(a.max_latency, b.max_latency);
        prop_assert_eq!(&a.channel_busy, &b.channel_busy);
        prop_assert_eq!(a.deadlock.is_none(), b.deadlock.is_none());
        prop_assert_eq!(a.credits.consumed, b.credits.consumed);
        prop_assert_eq!(b.credits.stalls, 0u64, "unbounded FIFOs can never stall on credits");
    }

    /// Finite FIFOs and delayed credits change timing, never
    /// delivery: under a transient mid-run link kill — with and
    /// without healing — a scripted workload is delivered in full,
    /// exactly once with no abandonments, at every FIFO depth and
    /// credit delay, just as at infinite depth; and the finite run's
    /// credit ledger balances at quiescence.
    #[test]
    fn finite_fifos_preserve_the_delivery_set(
        cfg in engine_configs(),
        seed in 0u64..500,
        heal in any::<bool>(),
        pkts in prop::collection::vec((0u64..400, 0usize..64, 1usize..64), 1usize..20),
        link_pick in 0usize..100_000,
        depth_pick in 0usize..3,
        delay in 0u64..4,
    ) {
        let sys = cfg.build();
        let n = sys.end_nodes().len();
        let script: Vec<(u64, usize, usize)> = pkts
            .iter()
            .map(|&(at, s, hop)| (at, s % n, (s % n + hop) % n))
            .filter(|&(_, s, d)| s != d)
            .collect();
        if script.is_empty() { return Ok(()); }
        let links: Vec<LinkId> = sys.net().links().collect();
        let victim = links[link_pick % links.len()];
        let run = |depth: u32, delay: u64| {
            let c = SimConfig {
                packet_flits: 6,
                max_cycles: 60_000,
                stall_threshold: 4_000,
                seed,
                retry: RetryPolicy {
                    ack_timeout: 64,
                    max_retries: 20,
                    backoff_base: 16,
                    jitter_seed: 7,
                },
                ..SimConfig::default()
            }
            .with_buffer_depth(depth)
            .with_credit_delay(delay)
            .with_fault(FaultEvent::kill_link(victim, 150).transient(900));
            let wl = Workload::Scripted(script.clone());
            if heal {
                sys.simulate_healing(wl, c)
            } else {
                sys.simulate(wl, c)
            }
        };
        let depth = [1u32, 2, 4][depth_pick];
        let inf = run(SimConfig::INFINITE_DEPTH, 0);
        let fin = run(depth, delay);
        for (name, r) in [("infinite", &inf), ("finite", &fin)] {
            prop_assert!(
                r.deadlock.is_none(),
                "{} run deadlocked: {:?} depth {} delay {} heal {}",
                name, cfg, depth, delay, heal
            );
            prop_assert!(
                r.recovery.abandoned.is_empty(),
                "{} run abandoned {:?}: {:?} depth {} delay {} heal {}",
                name, r.recovery.abandoned, cfg, depth, delay, heal
            );
            prop_assert_eq!(
                r.delivered, r.generated,
                "{} run dropped packets: {:?} depth {} delay {} heal {}",
                name, cfg, depth, delay, heal
            );
        }
        prop_assert_eq!(fin.generated, inf.generated, "workload is depth-independent");
        prop_assert!(
            fin.credits.is_conserved(),
            "credit leak at quiescence: consumed {} returned {}",
            fin.credits.consumed, fin.credits.returned
        );
    }
}

/// A source parked behind a speculative copy wakes when the copy's
/// original is delivered: the settled copy is popped on the very next
/// scan, as an engine that parks nothing pops it. A pinned case of
/// [`parked_and_unparked_engines_agree`]: on mesh:3x3 with short ACK
/// timeouts and saturating load, a copy settles while its source is
/// parked, and the debug audit rejects a parked settled head.
#[test]
fn parked_source_wakes_when_its_copy_settles() {
    let sys = "mesh:3x3".parse::<TopoSpec>().expect("spec").build();
    let run = |telemetry: Telemetry| {
        let cfg = SimConfig {
            packet_flits: 6,
            buffer_depth: 4,
            credit_delay: 1,
            max_cycles: 2_500,
            stall_threshold: 1_200,
            seed: 3,
            ack_retransmit: true,
            retry: RetryPolicy {
                ack_timeout: 24,
                ..RetryPolicy::default()
            },
            telemetry,
            ..SimConfig::default()
        };
        let wl = Workload::Bernoulli {
            injection_rate: 0.6,
            pattern: DstPattern::Uniform,
            until_cycle: 1_000,
        };
        let mut r = sys.simulate(wl, cfg);
        r.telemetry = None;
        r
    };
    let parked = run(Telemetry::off());
    assert!(parked.recovery.retries > 0, "no speculative copy raced");
    assert_eq!(
        format!("{parked:?}"),
        format!("{:?}", run(Telemetry::recording()))
    );
}

/// Grammar specs for the sweep-width property: most have more than one
/// 64-destination column block, so two workers really split them, and
/// between them they cover every consumer of the shared sweep — VC
/// graphs, a cyclic physical graph, multi-level trees and fan-out.
/// Tori are left out: the masked lint of a torus enumerates its wrap
/// cycles for seconds, and the ring's cycles cover that case.
const WIDE_SPECS: [&str; 12] = [
    "mesh:6x6",
    "mesh:5x7",
    "mesh:6x6:vc2:ecube",
    "ring:66",
    "ring:66:vc2",
    "hypercube:7",
    "fattree:80:4:2",
    "fattree:100:3:2",
    "thin-fractahedron:2:fanout",
    "bintree:6:3",
    "fat-fractahedron:2",
    "cluster:3",
];

/// Everything a forest sweep feeds, rendered: the system's lint (text
/// and JSON), analysis and extended `(channel, vc)` graph, then —
/// under `mask`, on the repaired and
/// the stale tables — the masked lint, the dependency graph with its
/// witnesses and first cycle, per-channel contention, hop statistics
/// and the heal gate's verdict. Built from scratch, so no certificate is cached
/// across widths.
fn sweep_transcript(spec: &str, dead_links: &[usize], dead_router: Option<usize>) -> String {
    use fractanet::deadlock::ChannelDependencyGraph;
    use fractanet::graph::ChannelId;
    use fractanet::lint::Linter;
    let sys = spec.parse::<TopoSpec>().expect("grammar spec").build();
    let (net, ends) = (sys.net(), sys.end_nodes());
    let lint = sys.lint();
    let mut out = format!("{lint}\n{}\n{:?}\n", lint.to_json(), sys.analyze());
    if let Some(map) = sys.vc_map() {
        let sweep = fractanet::sim::VcSweep::new(net, map);
        let graph = fractanet::route::DestForest::sweep(net, ends, sys.routes(), sweep).finish();
        for v in 0..graph.len() as u32 {
            out.push_str(&format!("{v}:{:?};", graph.succ(v)));
        }
        out.push('\n');
    }
    let links: Vec<LinkId> = net.links().collect();
    let routers: Vec<NodeId> = net.routers().collect();
    let dead: Vec<LinkId> = dead_links.iter().map(|&p| links[p % links.len()]).collect();
    let dead_routers: Vec<NodeId> = dead_router
        .map(|p| routers[p % routers.len()])
        .into_iter()
        .collect();
    let mask = DeadMask::from_dead(net, &dead, &dead_routers);
    let repaired = repair_tables(net, ends, &mask).tables;
    for tables in [&repaired, sys.routes()] {
        let masked = Linter::new(net, ends).with_mask(&mask).check_tables(tables);
        out.push_str(&format!("{masked}\n{}\n", masked.to_json()));
        let cdg = ChannelDependencyGraph::from_tables(net, ends, tables);
        for (a, b) in cdg.dependencies() {
            let w = cdg.witness(ChannelId(a), ChannelId(b));
            out.push_str(&format!("{a}->{b} {w:?};"));
        }
        let contention = max_link_contention_paths(net, Paths::tables(net, ends, tables));
        out.push_str(&format!(
            "\n{:?}\n{:?} {:?}\n{:?}\n",
            cdg.find_cycle(),
            contention.worst,
            contention.worst_channel,
            contention.per_channel
        ));
        out.push_str(&format!(
            "{:?}\n{:?}\n",
            fractanet::metrics::HopStats::routed_tables(net, ends, tables),
            certify_tables(net, ends, &mask, tables)
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The sharded forest sweep is byte-identical at every width: one
    /// worker and two give the same lint text and JSON, analysis,
    /// dependency witnesses, per-channel contention and heal-gate
    /// verdicts, on fault-free and masked tables alike.
    #[test]
    fn sweep_is_identical_at_every_width(
        pick in 0usize..WIDE_SPECS.len(),
        dead_links in prop::collection::vec(0usize..100_000, 0usize..4),
        kill_router in any::<bool>(),
        router in 0usize..100_000,
    ) {
        let spec = WIDE_SPECS[pick];
        let dead_router = kill_router.then_some(router);
        let at = |width| {
            fractanet::graph::pool::with_width(width, || {
                sweep_transcript(spec, &dead_links, dead_router)
            })
        };
        let serial = at(1);
        prop_assert!(serial == at(2), "{} differs at width 2", spec);
    }
}

/// The fork floor keeps every paper system of the `certify` benchmark
/// workload on one shard at any width, and lets the at-scale systems
/// fork.
#[test]
fn fork_floor_keeps_paper_specs_serial() {
    use fractanet::graph::pool::workers_at;
    use fractanet::route::{DestForest, SWEEP_FORK_MIN_WORK};
    let shards = |spec: &str, width: usize| {
        let sys = spec.parse::<TopoSpec>().expect("spec").build();
        let work = DestForest::work(sys.net(), sys.end_nodes());
        workers_at(width, work, SWEEP_FORK_MIN_WORK)
    };
    for spec in [
        "fat-fractahedron:2",
        "thin-fractahedron:2",
        "mesh:6x6",
        "fattree:64:4:2",
        "hypercube:5",
        "tetrahedron",
        "torus:4x4",
        "torus:4x4:vc2:dateline",
        "ring:8",
    ] {
        assert_eq!(shards(spec, usize::MAX), 1, "{spec}");
    }
    for spec in [
        "mesh:10x10",
        "fat-fractahedron:3",
        "mesh:12x12",
        "mesh:24x24",
    ] {
        assert_eq!(shards(spec, 2), 2, "{spec}");
    }
}
