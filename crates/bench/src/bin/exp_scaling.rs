//! Experiment E16 — sharded-engine scaling: wall-clock throughput of
//! the parallel wormhole engine across worker-thread counts on the
//! large targets (a 100×100 XY mesh at 0.5 offered load and a level-4
//! fat fractahedron at full load).
//!
//! Every thread count simulates the *same* run — the sharded engine is
//! bit-identical to the single-thread oracle — so each row is checked
//! against the 1-thread baseline before it is reported, and the only
//! thing that may vary with `threads` is wall time. Rows land in
//! `results/BENCH_scaling.json` (shared `BenchRecord` schema; directory
//! overridable via `FRACTANET_RESULTS_DIR`) with the measuring host's
//! CPU count stamped on every row: speedup columns are only meaningful
//! where `threads <= host_cpus`, and the CI scale-smoke job enforces
//! the 2-thread bound on multi-core runners.
//!
//! `FRACTANET_SCALING_GRID=small` shrinks the generation windows and
//! drops the 8-thread column for CI smoke budgets; the topologies stay
//! the same so the gate always measures the real targets.

use fractanet::prelude::*;
use fractanet::System;
use fractanet_bench::{emit_json, header, host_cpus, system, write_bench_records, BenchRecord};
use fractanet_sim::SimResult;
use std::time::Instant;

struct Target {
    spec: &'static str,
    load: f64,
    generate_until: u64,
    max_cycles: u64,
}

fn timed_run(sys: &System, t: &Target, threads: usize) -> (SimResult, BenchRecord) {
    let cfg = SimConfig {
        packet_flits: 8,
        buffer_depth: 4,
        max_cycles: t.max_cycles,
        stall_threshold: t.max_cycles,
        seed: 0x5CA1_AB1E,
        ..SimConfig::default()
    }
    .with_threads(threads)
    // The live-metrics pipeline rides along on every measured run: it
    // is provably inert (see tests/properties.rs), so the bit-identity
    // baseline asserts below still hold, and its latency histogram
    // stamps real latency percentiles onto each trajectory row.
    .with_metrics(MetricsConfig::sampling(500).with_topology(t.spec));
    let wl = Workload::Bernoulli {
        injection_rate: t.load,
        pattern: DstPattern::Uniform,
        until_cycle: t.generate_until,
    };
    let t0 = Instant::now();
    let res = sys.simulate(wl, cfg);
    let wall = t0.elapsed();
    let sketch = &res.metrics.as_ref().expect("metrics were on").latency;
    let rec = BenchRecord::new(
        "scaling",
        t.spec,
        threads,
        res.cycles,
        wall,
        sys.routes().resident_bytes(),
    )
    .with_latency(sketch.p50(), sketch.p95(), sketch.p99());
    (res, rec)
}

fn main() {
    let small = std::env::var("FRACTANET_SCALING_GRID").as_deref() == Ok("small");
    let threads: &[usize] = if small { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let (mesh_until, mesh_max, ff_until, ff_max) = if small {
        (300, 600, 300, 600)
    } else {
        (1_000, 1_500, 1_000, 1_500)
    };
    let targets = [
        Target {
            spec: "mesh:100x100",
            load: 0.5,
            generate_until: mesh_until,
            max_cycles: mesh_max,
        },
        Target {
            spec: "fat-fractahedron:4",
            load: 1.0,
            generate_until: ff_until,
            max_cycles: ff_max,
        },
    ];

    header(
        "E16",
        "sharded-engine scaling (identical results, wall time only)",
    );
    println!(
        "  host CPUs: {} (speedup meaningful where threads <= host CPUs)",
        host_cpus()
    );
    let mut records = Vec::new();
    for t in &targets {
        let sys = system(t.spec);
        println!(
            "\n  {} @ {} load — {} channels, {} end nodes, {} routing bytes",
            t.spec,
            t.load,
            sys.net().channels().count(),
            sys.end_nodes().len(),
            sys.routes().resident_bytes(),
        );
        println!(
            "  {:>7} {:>10} {:>12} {:>12} {:>9}",
            "threads", "cycles", "wall ms", "cycles/s", "speedup"
        );
        let mut baseline: Option<(SimResult, f64)> = None;
        for &n in threads {
            let (res, rec) = timed_run(&sys, t, n);
            if let Some((base, base_ms)) = &baseline {
                // The sharded engine is bit-identical to the oracle;
                // a mismatch here means the measurement is invalid.
                assert_eq!(res.generated, base.generated, "{} x{n}", t.spec);
                assert_eq!(res.delivered, base.delivered, "{} x{n}", t.spec);
                assert_eq!(res.cycles, base.cycles, "{} x{n}", t.spec);
                assert_eq!(res.avg_latency, base.avg_latency, "{} x{n}", t.spec);
                println!(
                    "  {:>7} {:>10} {:>12.1} {:>12.0} {:>8.2}x",
                    n,
                    rec.cycles,
                    rec.wall_ms,
                    rec.cycles_per_sec,
                    base_ms / rec.wall_ms
                );
            } else {
                assert!(res.delivered > 0, "{} delivered nothing", t.spec);
                println!(
                    "  {:>7} {:>10} {:>12.1} {:>12.0} {:>9}",
                    n, rec.cycles, rec.wall_ms, rec.cycles_per_sec, "1.00x"
                );
                baseline = Some((res, rec.wall_ms));
            }
            emit_json("scaling", &rec);
            records.push(rec);
        }
    }
    let path = write_bench_records("scaling", &records);
    println!("\n  wrote {} rows to {}", records.len(), path.display());
}
