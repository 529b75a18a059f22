//! Telemetry exporter golden vectors: FNV-1a digests of every artifact
//! the telemetry and metrics exporters render for one healing run.
//!
//! The run is a 64-node fat fractahedron that loses a router-to-router
//! link at cycle 500, heals around it and drains, with the event ring
//! recording and live metrics sampled every 100 cycles. The digests pin
//! the exported bytes: the Chrome trace, JSONL and text summary of the
//! event ring, the Prometheus exposition, the replayable metrics trace,
//! and the flight-recorder incident bundle with and without an extra
//! harness anomaly. A refactor of the exporters must reproduce them
//! exactly. A deliberate format change re-mints them: the failure
//! message prints every digest the run produced.

use fractanet::graph::{LinkId, Network};
use fractanet::prelude::*;
use fractanet_telemetry::{
    incident_chrome_trace, to_chrome_trace, to_jsonl, to_prometheus, to_text_summary, Anomaly,
    AnomalyKind,
};

const SPEC: &str = "fat-fractahedron:2";
const MAX_CYCLES: u64 = 20_000;

/// `(artifact, digest)`, in the order `exports` renders them.
const GOLDEN: [(&str, u64); 7] = [
    ("to_chrome_trace", 0xa69b_01d2_6979_1a7e),
    ("to_jsonl", 0xaf68_e331_1e38_f8b0),
    ("to_text_summary", 0x07f9_2ddf_19f3_b0fd),
    ("to_prometheus", 0xc0d0_5a6e_1cd7_378e),
    ("write_trace", 0x1104_a708_4012_9335),
    ("incident_chrome_trace", 0x8842_dcc5_fa48_7697),
    ("incident_chrome_trace+extra", 0x6e5a_0ec7_b444_0cb3),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn first_router_link(net: &Network) -> LinkId {
    net.links()
        .find(|&l| {
            let info = net.link(l);
            net.is_router(info.a.0) && net.is_router(info.b.0)
        })
        .expect("system has router-to-router links")
}

/// Every exported artifact of the healing run, labelled like `GOLDEN`.
fn exports() -> Vec<(&'static str, String)> {
    let sys = SPEC.parse::<TopoSpec>().expect("golden spec").build();
    let cfg = SimConfig {
        packet_flits: 8,
        max_cycles: MAX_CYCLES,
        stall_threshold: 4_000,
        seed: 0x7E1E,
        retry: RetryPolicy {
            ack_timeout: 32,
            max_retries: 5,
            backoff_base: 16,
            jitter_seed: 0x5EED,
        },
        telemetry: Telemetry::recording(),
        metrics: MetricsConfig::sampling(100).with_topology(SPEC),
        ..SimConfig::default()
    }
    .with_fault(FaultEvent::kill_link(first_router_link(sys.net()), 500));
    let wl = Workload::Bernoulli {
        injection_rate: 0.2,
        pattern: DstPattern::Uniform,
        until_cycle: 2_000,
    };
    let res = sys.simulate_healing(wl, cfg.clone());

    assert!(res.deadlock.is_none(), "{:?}", res.deadlock);
    assert!(
        res.cycles < MAX_CYCLES / 2,
        "the run must drain well before max_cycles, took {}",
        res.cycles
    );
    assert_eq!(res.recovery.faults_applied, 1);
    assert!(res.recovery.repairs_installed >= 1, "the kill must heal");
    let tel = res.telemetry.as_ref().expect("telemetry was recording");
    let m = res.metrics.as_ref().expect("metrics were sampling");
    assert!(m.has_anomalies(), "the heal install is an anomaly");

    let extra = Anomaly {
        cycle: 1_234,
        kind: AnomalyKind::InvariantViolation,
        detail: "exactly_once: lost 1".into(),
    };
    vec![
        ("to_chrome_trace", to_chrome_trace(tel)),
        ("to_jsonl", to_jsonl(tel)),
        ("to_text_summary", to_text_summary(tel)),
        ("to_prometheus", to_prometheus(m)),
        ("write_trace", write_trace(SPEC, true, &cfg, m)),
        (
            "incident_chrome_trace",
            incident_chrome_trace(m, &[]).expect("anomalies dump a bundle"),
        ),
        (
            "incident_chrome_trace+extra",
            incident_chrome_trace(m, &[extra]).expect("anomalies dump a bundle"),
        ),
    ]
}

#[test]
fn exporters_match_golden_digests() {
    let mut got = Vec::new();
    let mut mismatches = Vec::new();
    for ((name, text), (want_name, want)) in exports().iter().zip(GOLDEN) {
        assert_eq!(*name, want_name);
        let digest = fnv1a(text.as_bytes());
        got.push(format!("(\"{name}\", {digest:#018x}),"));
        if digest != want {
            mismatches.push(*name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "digests diverged for {mismatches:?}; this run produced:\n{}",
        got.join("\n")
    );
}
