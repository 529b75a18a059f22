//! Experiment E12 — §4 future work: "simulations of large topologies
//! in order to better understand network performance under heavy
//! loading." Load–latency curves for the three 64-node systems under
//! uniform traffic, plus the paper's adversarial patterns as sustained
//! hotspots; the saturation ordering should reflect the 10:1 / 12:1 /
//! 4:1 contention ranking.

use fractanet::prelude::*;
use fractanet::sim::sweep::{saturation_rate, sweep_loads};
use fractanet::System;
use fractanet_bench::{emit_json, header, host_cpus, system, write_bench_records, BenchRecord};
use fractanet_telemetry::LatencyHistogram;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Point {
    system: String,
    rate: f64,
    avg_latency: f64,
    /// Log-bucketed histogram percentiles from telemetry — the curve
    /// is no longer means-only, so tail inflation near saturation is
    /// visible per point.
    p50_latency: u64,
    p95_latency: u64,
    p99_latency: u64,
    max_latency: u64,
    throughput: f64,
}

fn curve(
    name: &str,
    spec: &str,
    sys: &System,
    rates: &[f64],
    bench: &mut Vec<BenchRecord>,
) -> Vec<f64> {
    let cfg = SimConfig {
        packet_flits: 16,
        buffer_depth: 4,
        max_cycles: 12_000,
        stall_threshold: 6_000,
        warmup_cycles: 2_000,
        // Histograms only: a small ring keeps sweep memory flat.
        telemetry: Telemetry::recording().with_event_capacity(256),
        ..SimConfig::default()
    }
    // Live metrics ride along (inert; see tests/properties.rs) so the
    // per-curve trajectory row carries whole-sweep latency percentiles
    // by merging each point's histogram.
    .with_metrics(MetricsConfig::sampling(1_000).with_topology(spec));
    let t0 = Instant::now();
    let pts = sweep_loads(
        sys.net(),
        sys.end_nodes(),
        &sys.shared_routes(),
        &cfg,
        &DstPattern::Uniform,
        rates,
        10_000,
    );
    let mut curve_hist = LatencyHistogram::new();
    for p in &pts {
        curve_hist.merge(&p.result.metrics.as_ref().expect("metrics were on").latency);
    }
    // One trajectory point per sweep: total simulated cycles across
    // the whole curve against its wall time, on the shared pool width.
    bench.push(
        BenchRecord::new(
            "loadlatency",
            spec,
            host_cpus(),
            pts.iter().map(|p| p.result.cycles).sum(),
            t0.elapsed(),
            sys.routes().resident_bytes(),
        )
        .with_latency(curve_hist.p50(), curve_hist.p95(), curve_hist.p99()),
    );
    print!("  {name:<22}");
    let mut lat = Vec::new();
    for p in &pts {
        assert!(
            p.result.deadlock.is_none(),
            "{name} deadlocked at {}",
            p.injection_rate
        );
        print!(" {:>8.1}", p.result.avg_latency);
        lat.push(p.result.avg_latency);
        let hist = p
            .result
            .telemetry
            .as_ref()
            .map(|t| &t.pre_fault_latency)
            .expect("sweep points record telemetry");
        emit_json(
            "loadlatency",
            &Point {
                system: name.into(),
                rate: p.injection_rate,
                avg_latency: p.result.avg_latency,
                p50_latency: hist.p50(),
                p95_latency: hist.p95(),
                p99_latency: hist.p99(),
                max_latency: hist.max(),
                throughput: p.result.throughput,
            },
        );
    }
    let sat = saturation_rate(&pts, 0.9);
    match sat {
        Some(r) => println!("   saturates ≈ {r:.2}"),
        None => println!("   keeps up at all swept loads"),
    }
    lat
}

fn main() {
    header(
        "E12 / §4",
        "load-latency under uniform traffic (64-node systems)",
    );
    let rates = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
    print!("  {:<22}", "offered load (flits/node/cycle)");
    for r in rates {
        print!(" {r:>8.2}");
    }
    println!();

    let mesh = system("mesh:6x6");
    let ft = system("fattree:64:4:2");
    let ff = system("fat-fractahedron:2");
    let thin = system("thin-fractahedron:2");

    let mut bench = Vec::new();
    let _ = curve("6x6 mesh / XY", "mesh:6x6", &mesh, &rates, &mut bench);
    let lat_ft = curve("4-2 fat tree", "fattree:64:4:2", &ft, &rates, &mut bench);
    let lat_ff = curve(
        "fat fractahedron",
        "fat-fractahedron:2",
        &ff,
        &rates,
        &mut bench,
    );
    let _ = curve(
        "thin fractahedron",
        "thin-fractahedron:2",
        &thin,
        &rates,
        &mut bench,
    );
    write_bench_records("loadlatency", &bench);

    let better = lat_ff.iter().zip(&lat_ft).filter(|(a, b)| a <= b).count();
    println!(
        "\n  fat fractahedron at or below fat-tree latency at {better}/{} load points",
        rates.len()
    );

    header(
        "E12 / adversarial",
        "sustained adversarial flows (avg latency, cycles)",
    );
    // The paper's worst-case placements, replayed continuously.
    let adversarial_ft: Vec<usize> = {
        // 12 sources of group 3 onto the 12 destinations behind one
        // top link (ByLeafRouter: routers 0,4,8 => nodes 0-3,16-19,32-35).
        let mut perm: Vec<usize> = (0..64).collect();
        let dests = [0, 1, 2, 3, 16, 17, 18, 19, 32, 33, 34, 35];
        for (i, s) in (52..64).enumerate() {
            perm[s] = dests[i];
        }
        for (s, slot) in perm.iter_mut().enumerate().take(52) {
            *slot = s; // silent
        }
        perm
    };
    let adversarial_ff: Vec<usize> = {
        let mut perm: Vec<usize> = (0..64).collect();
        for (s, d) in [(6, 54), (7, 55), (14, 62), (15, 63)] {
            perm[s] = d;
        }
        perm
    };
    let cfg = SimConfig {
        packet_flits: 16,
        buffer_depth: 4,
        max_cycles: 16_000,
        stall_threshold: 8_000,
        warmup_cycles: 2_000,
        ..SimConfig::default()
    };
    for (name, sys, perm, active) in [
        ("4-2 fat tree (12 hot flows)", &ft, adversarial_ft, 12.0),
        ("fat fractahedron (4 hot flows)", &ff, adversarial_ff, 4.0),
    ] {
        print!("  {name:<32}");
        for rate in [0.2, 0.5, 0.8] {
            let pts = sweep_loads(
                sys.net(),
                sys.end_nodes(),
                &sys.shared_routes(),
                &cfg,
                &DstPattern::Permutation(perm.clone()),
                &[rate],
                12_000,
            );
            let res = &pts[0].result;
            assert!(res.deadlock.is_none());
            if res.avg_latency == 0.0 && res.generated > res.delivered {
                // No post-warm-up packet finished inside the window:
                // the hot link is past saturation.
                print!("  @{rate:.1}: {:>8}", "(satur.)");
            } else {
                print!("  @{rate:.1}: {:>8.1}", res.avg_latency);
            }
        }
        println!("   ({active} concurrent hot flows)");
    }
    println!(
        "\n  The fat tree funnels 12 flows through one link; the fractahedron's\n\
         adversarial case tops out at 4 — the Table 2 contention gap, measured\n\
         as queueing latency."
    );
}
