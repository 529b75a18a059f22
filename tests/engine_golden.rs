//! Engine golden vectors: FNV-1a digests of the whole `SimResult`
//! debug rendering (latencies, busy counts, credit ledger, recovery
//! stats and the telemetry event ring) over a fixed matrix of systems
//! and configurations, at widths 1 and 2.
//!
//! The constants pin the engine's observable behaviour bit for bit, so
//! an internal rewrite of the cycle (caches, active sets, sharding)
//! must reproduce them exactly. A deliberate behaviour change re-mints
//! them: the failure message prints every digest the run produced.

use fractanet::graph::LinkId;
use fractanet::prelude::*;
use fractanet::route::dor::torus_xy_routes;
use fractanet::route::ringroute::ring_clockwise_routes;
use fractanet::sim::vc::{dateline_ring_map, dateline_torus_map};
use fractanet::sim::SimResult;
use fractanet::topo::ring::PORT_CW;
use fractanet::topo::Torus2D;
use fractanet::System;
use std::sync::Arc;

const SYSTEMS: [&str; 4] = [
    "tetrahedron",
    "mesh:8x8",
    "torus:4x4:vc2:dateline",
    "fat-fractahedron:2",
];

const CONFIGS: [&str; 4] = ["plain", "depth2-delay2", "kill-heal", "gray-retransmit"];

/// `GOLDEN[system][config]`, in `SYSTEMS` × `CONFIGS` order.
const GOLDEN: [[u64; 4]; 4] = [
    [
        0xbef2_b2bc_c408_9f49,
        0xb710_f383_46dd_c89a,
        0x009e_c2ad_1ed3_29cc,
        0x4a0b_b0c1_2c30_570c,
    ],
    [
        0x78e2_a84e_ed8f_f3d1,
        0xda3a_979f_bf15_3c37,
        0x6a15_76e8_bf5f_9c5a,
        0xb134_c614_99ba_fd55,
    ],
    [
        0x9bef_9076_6b32_81a4,
        0x8173_7b4f_e19b_bc1d,
        0x5cf4_2201_e654_8aa0,
        0x7d00_873d_33dc_e2d9,
    ],
    [
        0x5014_ecd3_d7fc_52d7,
        0x04cd_745b_338a_4971,
        0x869a_a110_df1e_b1ae,
        0xc799_ee99_a11b_31e7,
    ],
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One run of the matrix: `config` on `sys` at `threads` workers.
fn run(sys: &System, config: &str, threads: usize) -> SimResult {
    let links: Vec<LinkId> = sys.net().links().collect();
    let pick = |num: usize, den: usize| links[links.len() * num / den];
    let mut cfg = SimConfig {
        packet_flits: 6,
        max_cycles: 4_000,
        stall_threshold: 1_500,
        seed: 0x601D,
        telemetry: Telemetry::recording(),
        ..SimConfig::default()
    }
    .with_threads(threads);
    match config {
        "plain" => {}
        "depth2-delay2" => cfg = cfg.with_buffer_depth(2).with_credit_delay(2),
        "kill-heal" => cfg = cfg.with_fault(FaultEvent::kill_link(pick(1, 2), 150)),
        "gray-retransmit" => {
            cfg = cfg
                .with_fault(FaultEvent::flaky_link(pick(1, 3), 200, 80).transient(500))
                .with_fault(FaultEvent::corrupt_link(pick(1, 2), 300, 120).transient(450))
                .with_fault(FaultEvent::brownout(pick(2, 3), 30, 50, 100).transient(600))
                .with_retry(RetryPolicy {
                    ack_timeout: 24,
                    max_retries: 6,
                    backoff_base: 8,
                    jitter_seed: 3,
                })
                .with_ack_retransmit(true)
        }
        _ => unreachable!("unknown config {config}"),
    }
    let wl = Workload::Bernoulli {
        injection_rate: 0.2,
        pattern: DstPattern::Uniform,
        until_cycle: 600,
    };
    if config == "kill-heal" {
        sys.simulate_healing(wl, cfg)
    } else {
        sys.simulate(wl, cfg)
    }
}

#[test]
fn engine_matches_golden_vectors() {
    let mut got = Vec::new();
    let mut mismatches = Vec::new();
    for (si, spec) in SYSTEMS.iter().enumerate() {
        let sys = spec.parse::<TopoSpec>().expect("golden spec").build();
        for (ci, config) in CONFIGS.iter().enumerate() {
            for threads in [1usize, 2] {
                let r = run(&sys, config, threads);
                assert!(r.delivered > 0, "{spec} {config}: nothing delivered");
                if *config == "kill-heal" {
                    assert_eq!(r.recovery.repairs_installed, 1, "{spec}: no heal");
                }
                if *config == "gray-retransmit" {
                    let rec = &r.recovery;
                    assert!(rec.retries > 0 && rec.nacks > 0, "{spec}: {rec:?}");
                }
                let digest = fnv1a(format!("{r:?}").as_bytes());
                if threads == 1 {
                    got.push(format!("{spec} {config}: {digest:#018x}"));
                }
                if digest != GOLDEN[si][ci] {
                    mismatches.push(format!("{spec} {config} threads={threads}"));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests diverged for {mismatches:?}; this run produced:\n{}",
        got.join("\n")
    );
}

/// Virtual-channel runs on the clockwise ring and the X-then-Y torus
/// under their dateline maps, in `VC_CASES` order.
const VC_CASES: [&str; 5] = [
    "ring:4 fig1 vcs1",
    "ring:4 fig1 vcs2",
    "ring:8 bernoulli depth2-delay2 vcs2",
    "ring:6 all-to-all transient-kill vcs2",
    "torus:4x3 all-to-all vcs2",
];

const GOLDEN_VC: [u64; 5] = [
    0x0afe_6651_d7f5_22ed,
    0xb127_65dc_2258_8f1c,
    0x590a_49cb_7f5e_92b6,
    0xd179_2799_77af_01e6,
    0x531c_c0fa_ecd5_6e31,
];

fn ring_vc_run(ring: &Ring, vcs: u8, cfg: SimConfig, wl: Workload) -> SimResult {
    let tables = Arc::new(ring_clockwise_routes(ring));
    Engine::new(ring.net(), ring.end_nodes(), tables, cfg)
        .with_vc_map(dateline_ring_map(ring, vcs))
        .run(wl)
}

fn torus_vc_run(t: &Torus2D, vcs: u8, cfg: SimConfig, wl: Workload) -> SimResult {
    Engine::new(t.net(), t.end_nodes(), Arc::new(torus_xy_routes(t)), cfg)
        .with_vc_map(dateline_torus_map(t, vcs))
        .run(wl)
}

/// One VC case at `threads` workers.
fn vc_run(case: usize, threads: usize) -> SimResult {
    let cfg = SimConfig {
        packet_flits: 8,
        buffer_depth: 2,
        max_cycles: 20_000,
        stall_threshold: 2_000,
        seed: 0x601D,
        ..SimConfig::default()
    }
    .with_threads(threads);
    let fig1 = SimConfig {
        packet_flits: 32,
        stall_threshold: 300,
        ..cfg.clone()
    };
    match case {
        0 | 1 => ring_vc_run(
            &Ring::new(4, 1, 6).unwrap(),
            case as u8 + 1,
            fig1,
            Workload::fig1_ring(4),
        ),
        2 => {
            let cfg = SimConfig {
                telemetry: Telemetry::recording(),
                ..cfg
            };
            let wl = Workload::Bernoulli {
                injection_rate: 0.2,
                pattern: DstPattern::Uniform,
                until_cycle: 600,
            };
            ring_vc_run(
                &Ring::new(8, 1, 6).unwrap(),
                2,
                cfg.with_credit_delay(2),
                wl,
            )
        }
        3 => {
            let ring = Ring::new(6, 1, 6).unwrap();
            let cw = ring.net().channel_out(ring.router(0), PORT_CW).unwrap();
            let cfg = cfg.with_fault(FaultEvent::kill_link(cw.link(), 5).transient(400));
            ring_vc_run(&ring, 2, cfg, Workload::all_to_all_burst(6))
        }
        4 => torus_vc_run(
            &Torus2D::new(4, 3, 1, 6).unwrap(),
            2,
            cfg,
            Workload::all_to_all_burst(12),
        ),
        _ => unreachable!("unknown VC case {case}"),
    }
}

#[test]
fn vc_dateline_runs_match_golden_vectors() {
    let mut got = Vec::new();
    let mut mismatches = Vec::new();
    for (case, label) in VC_CASES.iter().enumerate() {
        for threads in [1usize, 2] {
            let r = vc_run(case, threads);
            // One VC keeps the Fig 1 cycle; every other case delivers.
            assert_eq!(r.deadlock.is_some(), case == 0, "{label}: {:?}", r.deadlock);
            assert_eq!(r.delivered > 0, case != 0, "{label}");
            if case == 3 {
                assert!(r.recovery.retries > 0 && r.is_recovered(), "{label}");
            }
            let digest = fnv1a(format!("{r:?}").as_bytes());
            if threads == 1 {
                got.push(format!("{label}: {digest:#018x}"));
            }
            if digest != GOLDEN_VC[case] {
                mismatches.push(format!("{label} threads={threads}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests diverged for {mismatches:?}; this run produced:\n{}",
        got.join("\n")
    );
}
