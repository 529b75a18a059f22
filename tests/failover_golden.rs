//! Failover golden vectors: FNV-1a digests of the whole
//! `FailoverOutcome` debug rendering (both fabrics' `SimResult`s with
//! their recovery stats and telemetry event rings, the failover count
//! and the unrecovered pairs) for a healing X fabric that loses two
//! router-to-router links mid-run, with the abandoned transfers
//! replayed on a healthy Y twin.
//!
//! The constants pin the self-healing run bit for bit: which tables
//! each heal installs, when, and how every retried packet lands. A
//! change to how routes are represented or repaired must reproduce
//! them exactly. A deliberate behaviour change re-mints them: the
//! failure message prints every digest the run produced.

use fractanet::graph::{LinkId, Network};
use fractanet::prelude::*;
use fractanet::System;

const SYSTEMS: [&str; 5] = [
    "fat-fractahedron:2",
    "mesh:6x6",
    "torus:4x4:vc2:dateline",
    "hypercube:4",
    "fat-fractahedron:3",
];

/// One digest per entry of `SYSTEMS`.
const GOLDEN: [u64; 5] = [
    0x1fe8_fa01_030f_9edf,
    0x5a3d_48f6_c00f_3829,
    0x6aa6_cfbb_b8e6_4795,
    0xd286_79b4_af66_b916,
    0xa8fa_8f2a_5608_bc54,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Links whose both ends are routers.
fn router_links(net: &Network) -> Vec<LinkId> {
    net.links()
        .filter(|&l| {
            let info = net.link(l);
            net.is_router(info.a.0) && net.is_router(info.b.0)
        })
        .collect()
}

/// The X fabric heals around two permanent router-link kills (cycles
/// 150 and 400); Y is an unfaulted twin that replays X's abandons.
fn run(sys: &System) -> FailoverOutcome {
    let links = router_links(sys.net());
    let cfg = |seed: u64| SimConfig {
        packet_flits: 6,
        max_cycles: 6_000,
        stall_threshold: 1_500,
        seed,
        retry: RetryPolicy {
            ack_timeout: 24,
            max_retries: 1,
            backoff_base: 8,
            jitter_seed: 5,
        },
        telemetry: Telemetry::recording(),
        ..SimConfig::default()
    };
    let cfg_x = cfg(0xFA11)
        .with_fault(FaultEvent::kill_link(links[links.len() / 3], 150))
        .with_fault(FaultEvent::kill_link(links[2 * links.len() / 3], 400));
    let x = FabricSim {
        net: sys.net(),
        routes: sys.shared_routes(),
        ends: sys.end_nodes(),
        cfg: cfg_x,
        heal: true,
        vc: sys.vc_map().cloned(),
    };
    let y = FabricSim {
        net: sys.net(),
        routes: sys.shared_routes(),
        ends: sys.end_nodes(),
        cfg: cfg(0x0F11),
        heal: false,
        vc: sys.vc_map().cloned(),
    };
    let wl = Workload::Bernoulli {
        injection_rate: 0.15,
        pattern: DstPattern::Uniform,
        until_cycle: 600,
    };
    run_with_failover(x, y, wl)
}

#[test]
fn failover_matches_golden_vectors() {
    let mut got = Vec::new();
    let mut mismatches = Vec::new();
    let mut failovers = 0;
    for (i, spec) in SYSTEMS.iter().enumerate() {
        let sys = spec.parse::<TopoSpec>().expect("golden spec").build();
        let out = run(&sys);
        let rec = &out.x.recovery;
        assert_eq!(rec.faults_applied, 2, "{spec}: {rec:?}");
        assert_eq!(rec.repairs_installed, 2, "{spec}: both kills must heal");
        assert!(out.x.delivered > 0, "{spec}: nothing delivered");
        assert!(out.x.deadlock.is_none(), "{spec}: {:?}", out.x.deadlock);
        failovers += out.failovers;
        let digest = fnv1a(format!("{out:?}").as_bytes());
        got.push(format!("{spec}: {digest:#018x}"));
        if digest != GOLDEN[i] {
            mismatches.push(*spec);
        }
    }
    // A retry bound of 1 makes the second kill abandon transfers the
    // first one already tore down, so the Y replay runs too.
    assert!(failovers > 0, "no case exercised the Y fabric");
    assert!(
        mismatches.is_empty(),
        "digests diverged for {mismatches:?}; this run produced:\n{}",
        got.join("\n")
    );
}
