//! Property tests for the wormhole engines: conservation laws and
//! timing bounds must hold for arbitrary workloads.

use fractanet_graph::LinkId;
use fractanet_route::fractal::fractal_routes;
use fractanet_route::ringroute::ring_clockwise_routes;
use fractanet_route::{RouteSet, Routes};
use fractanet_sim::vc::dateline_ring_map;
use fractanet_sim::{Engine, FaultEvent, RetryPolicy, SimConfig, Workload};
use fractanet_topo::{Fractahedron, Ring, Topology, Variant};
use proptest::prelude::*;
use std::sync::Arc;

fn tetra() -> (Fractahedron, Arc<Routes>) {
    let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
    let rt = Arc::new(fractal_routes(&f));
    (f, rt)
}

/// Clockwise tables on a ring under the 2-VC dateline map.
fn dateline_ring(ring: &Ring, cfg: SimConfig) -> Engine<'_> {
    Engine::new(
        ring.net(),
        ring.end_nodes(),
        Arc::new(ring_clockwise_routes(ring)),
        cfg,
    )
    .with_vc_map(dateline_ring_map(ring, 2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary scripted workloads on a deadlock-free system deliver
    /// everything, conserve flits exactly, and respect the zero-load
    /// latency floor.
    #[test]
    fn scripted_workloads_conserve_flits(
        pkts in prop::collection::vec((0u64..50, 0usize..8, 0usize..8), 1..25),
        flits in 2u32..12,
    ) {
        let (f, rt) = tetra();
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &rt).unwrap();
        let script: Vec<(u64, usize, usize)> =
            pkts.into_iter().filter(|&(_, s, d)| s != d).collect();
        let n_pkts = script.len();
        let expected_flits: u64 = script
            .iter()
            .map(|&(_, s, d)| flits as u64 * rs.path(s, d).len() as u64)
            .sum();
        let floors: Vec<u64> = script
            .iter()
            .map(|&(_, s, d)| rs.path(s, d).len() as u64 + flits as u64)
            .collect();
        let cfg = SimConfig {
            packet_flits: flits,
            buffer_depth: 2,
            max_cycles: 200_000,
            stall_threshold: 5_000,
            ..SimConfig::default()
        };
        let res = Engine::new(f.net(), f.end_nodes(), rt.clone(), cfg).run(Workload::Scripted(script));
        prop_assert!(res.is_clean(), "{:?}", res.deadlock);
        prop_assert_eq!(res.delivered, n_pkts);
        prop_assert_eq!(res.channel_busy.iter().sum::<u64>(), expected_flits);
        if let Some(&floor) = floors.iter().min() {
            // The fastest packet cannot beat pipeline physics.
            prop_assert!(res.avg_latency >= floor as f64 || n_pkts == 0);
        }
    }

    /// The engine is a function of (routes, config, workload): same
    /// seed, same everything.
    #[test]
    fn engine_is_deterministic(seed in 0u64..10_000, rate in 0.05f64..0.5) {
        let (f, rt) = tetra();
        let mk = || {
            let cfg = SimConfig {
                packet_flits: 6,
                max_cycles: 3_000,
                stall_threshold: 1_500,
                seed,
                ..SimConfig::default()
            };
            Engine::new(f.net(), f.end_nodes(), rt.clone(), cfg).run(Workload::Bernoulli {
                injection_rate: rate,
                pattern: fractanet_sim::DstPattern::Uniform,
                until_cycle: 1_500,
            })
        };
        let (a, b) = (mk(), mk());
        prop_assert_eq!(a.generated, b.generated);
        prop_assert_eq!(a.delivered, b.delivered);
        prop_assert_eq!(a.channel_busy, b.channel_busy);
        prop_assert_eq!(a.avg_latency, b.avg_latency);
    }

    /// The 2-VC dateline ring never deadlocks, whatever the scripted
    /// burst looks like.
    #[test]
    fn vc_ring_never_deadlocks(
        pkts in prop::collection::vec((0u64..30, 0usize..6, 0usize..6), 1..20),
    ) {
        let ring = Ring::new(6, 1, 6).unwrap();
        let script: Vec<(u64, usize, usize)> =
            pkts.into_iter().filter(|&(_, s, d)| s != d).collect();
        let n = script.len();
        let cfg = SimConfig {
            packet_flits: 8,
            buffer_depth: 2,
            max_cycles: 200_000,
            stall_threshold: 5_000,
            ..SimConfig::default()
        };
        let res = dateline_ring(&ring, cfg).run(Workload::Scripted(script));
        prop_assert!(res.deadlock.is_none(), "{:?}", res.deadlock);
        prop_assert_eq!(res.delivered, n);
    }

    /// Throughput never exceeds offered load (open-loop conservation)
    /// and the simulator never invents packets.
    #[test]
    fn no_packet_creation_from_nothing(rate in 0.05f64..0.9, seed in 0u64..100) {
        let (f, rt) = tetra();
        let cfg = SimConfig {
            packet_flits: 8,
            max_cycles: 4_000,
            stall_threshold: 2_000,
            seed,
            ..SimConfig::default()
        };
        let res = Engine::new(f.net(), f.end_nodes(), rt.clone(), cfg).run(Workload::Bernoulli {
            injection_rate: rate,
            pattern: fractanet_sim::DstPattern::Uniform,
            until_cycle: 2_000,
        });
        prop_assert!(res.delivered <= res.generated);
        prop_assert!(res.deadlock.is_none());
        // Generated packets bounded by nodes x generation cycles.
        prop_assert!(res.generated <= 8 * 2_000);
    }

    /// Finite FIFOs and delayed credits reshape timing, never the
    /// delivery set: under a transient link kill with generous
    /// retries, every scripted packet lands exactly once at each
    /// finite depth and delay — the same set the unbounded-FIFO run
    /// delivers — and the credit ledger balances at quiescence.
    #[test]
    fn finite_fifos_deliver_the_infinite_depth_set(
        pkts in prop::collection::vec((0u64..200, 0usize..8, 0usize..8), 1..20),
        link_pick in 0usize..100_000,
        depth in 1u32..5,
        delay in 0u64..4,
    ) {
        let (f, rt) = tetra();
        let script: Vec<(u64, usize, usize)> =
            pkts.into_iter().filter(|&(_, s, d)| s != d).collect();
        if script.is_empty() { return Ok(()); }
        let n = script.len();
        let links: Vec<LinkId> = f.net().links().collect();
        let victim = links[link_pick % links.len()];
        let run = |depth: u32, delay: u64| {
            let cfg = SimConfig {
                packet_flits: 6,
                max_cycles: 60_000,
                stall_threshold: 4_000,
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
            .with_fault(FaultEvent::kill_link(victim, 100).transient(700));
            Engine::new(f.net(), f.end_nodes(), rt.clone(), cfg).run(Workload::Scripted(script.clone()))
        };
        let inf = run(SimConfig::INFINITE_DEPTH, 0);
        let fin = run(depth, delay);
        for (name, r) in [("infinite", &inf), ("finite", &fin)] {
            prop_assert!(r.deadlock.is_none(), "{} run: {:?}", name, r.deadlock);
            prop_assert!(
                r.recovery.abandoned.is_empty(),
                "{} run abandoned {:?} (depth {} delay {})",
                name, r.recovery.abandoned, depth, delay
            );
            prop_assert_eq!(r.delivered, n, "{} run (depth {} delay {})", name, depth, delay);
        }
        prop_assert!(
            fin.credits.is_conserved(),
            "credit leak: consumed {} returned {}",
            fin.credits.consumed, fin.credits.returned
        );
    }

    /// The same delivery-set law holds for the VC engine: a 2-VC
    /// dateline ring delivers every scripted packet at depth 1–4 with
    /// delayed credits, exactly as with unbounded FIFOs.
    #[test]
    fn vc_finite_fifos_deliver_the_infinite_depth_set(
        pkts in prop::collection::vec((0u64..30, 0usize..6, 0usize..6), 1..16),
        depth in 1u32..5,
        delay in 0u64..4,
    ) {
        let ring = Ring::new(6, 1, 6).unwrap();
        let script: Vec<(u64, usize, usize)> =
            pkts.into_iter().filter(|&(_, s, d)| s != d).collect();
        if script.is_empty() { return Ok(()); }
        let n = script.len();
        let run = |depth: u32, delay: u64| {
            let cfg = SimConfig {
                packet_flits: 8,
                max_cycles: 200_000,
                stall_threshold: 5_000,
                ..SimConfig::default()
            }
            .with_buffer_depth(depth)
            .with_credit_delay(delay);
            dateline_ring(&ring, cfg).run(Workload::Scripted(script.clone()))
        };
        let inf = run(SimConfig::INFINITE_DEPTH, 0);
        let fin = run(depth, delay);
        prop_assert!(inf.deadlock.is_none(), "{:?}", inf.deadlock);
        prop_assert!(fin.deadlock.is_none(), "depth {} delay {}: {:?}", depth, delay, fin.deadlock);
        prop_assert_eq!(inf.delivered, n);
        prop_assert_eq!(fin.delivered, n, "depth {} delay {}", depth, delay);
        prop_assert!(
            fin.credits.is_conserved(),
            "credit leak: consumed {} returned {}",
            fin.credits.consumed, fin.credits.returned
        );
    }
}
