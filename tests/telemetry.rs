//! End-to-end telemetry acceptance tests.
//!
//! Two gates from the observability issue:
//!
//! 1. A faulted 64-node fat-fractahedron run must export a Chrome
//!    trace whose `table_repair` + `redelivery` spans sum to exactly
//!    the `RecoveryStats::time_to_recover` the simulator reports —
//!    the scalar is now decomposable, not just asserted.
//! 2. On the paper's fault-free topologies, the empirical worst-link
//!    contention a recorded run observes must never exceed the L5
//!    analytical bound; both figures are computed by the same
//!    Hopcroft–Karp matching, so a violation means a worm travelled a
//!    channel its route table does not cross.

use fractanet::prelude::*;
use fractanet::System;
use fractanet_metrics::compare_contention;
use fractanet_telemetry::{to_chrome_trace, SpanKind};

fn first_inter_router_link(sys: &System) -> fractanet_graph::LinkId {
    let net = sys.net();
    net.links()
        .find(|&l| {
            let info = net.link(l);
            net.is_router(info.a.0) && net.is_router(info.b.0)
        })
        .expect("system has inter-router links")
}

#[test]
fn faulted_fat64_chrome_trace_decomposes_time_to_recover() {
    let sys = System::fat_fractahedron(2);
    assert_eq!(sys.end_nodes().len(), 64);
    let cfg = SimConfig {
        packet_flits: 16,
        buffer_depth: 4,
        max_cycles: 24_000,
        stall_threshold: 8_000,
        retry: RetryPolicy {
            ack_timeout: 32,
            max_retries: 5,
            backoff_base: 16,
            jitter_seed: 0x5EED,
        },
        ..SimConfig::default()
    }
    .with_fault(FaultEvent::kill_link(first_inter_router_link(&sys), 3_000))
    .with_telemetry(Telemetry::recording());
    let wl = Workload::Bernoulli {
        injection_rate: 0.2,
        pattern: DstPattern::Uniform,
        until_cycle: 6_000,
    };
    let res = sys.simulate_healing(wl, cfg);
    assert!(res.deadlock.is_none());
    assert_eq!(res.recovery.faults_applied, 1);
    assert!(res.recovery.repairs_installed >= 1);
    let want = res.recovery.time_to_recover.expect("fault must recover");

    let tel = res.telemetry.expect("telemetry was recording");
    assert_eq!(tel.recovery_span_cycles(), Some(want));
    let repair = tel
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::TableRepair)
        .expect("repair span");
    let redeliver = tel
        .spans
        .iter()
        .find(|s| s.kind == SpanKind::Redelivery)
        .expect("redelivery span");
    assert_eq!(repair.begin, 3_000, "repair starts at the fault");
    assert_eq!(redeliver.begin, repair.end, "spans telescope");
    assert_eq!(repair.duration() + redeliver.duration(), want);
    assert!(tel
        .spans
        .iter()
        .any(|s| s.kind == SpanKind::HealInstall && s.begin == repair.end));

    // The exported Chrome trace carries each span verbatim: nonzero
    // spans as complete events, zero-length ones as instants. Summing
    // the exported `dur`s reproduces `time_to_recover`.
    let chrome = to_chrome_trace(&tel);
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    assert_eq!(chrome.matches('[').count(), chrome.matches(']').count());
    for s in &tel.spans {
        let expect = if s.duration() > 0 {
            format!(
                "\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{}",
                s.kind.tag(),
                s.begin,
                s.duration()
            )
        } else {
            format!(
                "\"name\":\"{}\",\"ph\":\"i\",\"ts\":{}",
                s.kind.tag(),
                s.begin
            )
        };
        assert!(chrome.contains(&expect), "missing {expect} in {chrome}");
    }
    // Post-fault latency split saw the recovered traffic.
    assert!(tel.post_fault_latency.count() > 0);
    assert!(tel.pre_fault_latency.count() > 0);
}

#[test]
fn empirical_contention_stays_within_analytical_bounds() {
    // (spec, Table 2 / §3 analytical worst case)
    let systems = [
        ("fat-fractahedron:2", System::fat_fractahedron(2), 8),
        ("mesh:6x6", System::mesh(6, 6), 10),
        ("fattree:64:4:2", System::fat_tree(64, 4, 2), 12),
    ];
    for (name, sys, paper_worst) in systems {
        let paths = Paths::tables(sys.net(), sys.end_nodes(), sys.routes());
        let analytical = fractanet_metrics::max_link_contention_paths(sys.net(), paths);
        assert_eq!(analytical.worst, paper_worst, "{name}");
        let cfg = SimConfig {
            packet_flits: 16,
            buffer_depth: 4,
            max_cycles: 8_000,
            stall_threshold: 4_000,
            telemetry: Telemetry::recording().with_event_capacity(1_024),
            ..SimConfig::default()
        };
        // Heavy uniform load maximizes concurrent contenders.
        let wl = Workload::Bernoulli {
            injection_rate: 0.5,
            pattern: DstPattern::Uniform,
            until_cycle: 6_000,
        };
        let res = sys.simulate(wl, cfg);
        assert!(res.deadlock.is_none(), "{name}");
        assert!(res.delivered > 0, "{name}");
        let tel = res.telemetry.expect("telemetry was recording");

        let cmp = compare_contention(&analytical, &tel.channels);
        assert!(
            cmp.within_bounds(),
            "{name}: empirical contention exceeded the L5 analytical bound: {:?}",
            cmp.violations
        );
        assert!(cmp.worst_empirical >= 1, "{name} carried traffic");
        assert!(cmp.worst_empirical <= cmp.worst_analytical, "{name}");
        // The report's own headline agrees with the comparison.
        assert_eq!(
            tel.worst_contention().map(|(_, k)| k as usize),
            Some(cmp.worst_empirical),
            "{name}"
        );
    }
}
