//! Route-state memory and injection-path guard for the table-canonical
//! engine.
//!
//! Two hard assertions back the README's memory-model claim and fail
//! the bench (and the CI job that runs it) on a regression:
//!
//! 1. Destination tables (O(routers · N) bytes) must undercut the
//!    traced dense matrix (O(N² · path length) words) by at least 10×
//!    at N = 1024. The resident sizes at N ∈ {64, 256, 1024} are
//!    printed for the record.
//! 2. A seeded simulation routed hop-by-hop from the shared tables
//!    must reproduce, bit for bit, the run of the retired
//!    path-snapshot engine on the same seed — same delivered count,
//!    mean latency and per-channel busy cycles, recorded below.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fractanet::prelude::*;
use fractanet::System;
use fractanet_bench::system;

/// The three sizes the guard reports; only the largest is asserted.
const SPECS: [(&str, usize); 3] = [
    ("fat-fractahedron:2", 64),
    ("hypercube:8", 256),
    ("thin-fractahedron:3:fanout", 1024),
];

/// Guard 1: table memory undercuts the dense matrix, 10× at N=1024.
fn guard_resident_bytes(_c: &mut Criterion) {
    for (spec, nodes) in SPECS {
        let sys = system(spec);
        assert_eq!(sys.end_nodes().len(), nodes, "{spec}");
        let table_bytes = sys.routes().resident_bytes();
        let dense_bytes = RouteSet::from_table(sys.net(), sys.end_nodes(), sys.routes())
            .expect("canonical routing covers every pair")
            .resident_bytes();
        let ratio = dense_bytes as f64 / table_bytes as f64;
        println!(
            "bench route-state bytes N={nodes:>4} ({spec}): tables {table_bytes} \
             vs dense {dense_bytes} ({ratio:.1}x)"
        );
        if nodes >= 1024 {
            assert!(
                ratio >= 10.0,
                "{spec}: tables must be >=10x smaller than the dense matrix, got {ratio:.1}x"
            );
        }
    }
}

fn sim_cfg() -> SimConfig {
    SimConfig {
        packet_flits: 16,
        buffer_depth: 4,
        max_cycles: 4_000,
        stall_threshold: 3_900,
        ..SimConfig::default()
    }
}

fn workload() -> Workload {
    Workload::Bernoulli {
        injection_rate: 0.3,
        pattern: DstPattern::Uniform,
        until_cycle: 3_000,
    }
}

fn sim_tables(sys: &System) -> fractanet_sim::SimResult {
    Engine::new(sys.net(), sys.end_nodes(), sys.shared_routes(), sim_cfg()).run(workload())
}

/// FNV-1a over the little-endian bytes of every busy count.
fn busy_digest(busy: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in busy.iter().flat_map(|b| b.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Guard 2: table-walk injection matches the path-snapshot run
/// bit-for-bit.
fn guard_injection_parity(c: &mut Criterion) {
    let sys = system("fat-fractahedron:2");
    let tabled = sim_tables(&sys);
    // The path-snapshot engine's run of this seed: 3615 packets,
    // mean latency 249.616…, busy counts over 336 channels.
    assert_eq!(tabled.delivered, 3_615, "table walk diverged");
    assert_eq!(
        tabled.avg_latency.to_bits(),
        0x406f_33bd_6ed3_bd6f,
        "table walk diverged"
    );
    assert_eq!(tabled.channel_busy.len(), 336, "table walk diverged");
    assert_eq!(
        busy_digest(&tabled.channel_busy),
        0xabaf_0c01_fbde_c463,
        "table walk diverged"
    );

    c.bench_function("sim_fat64_table_walk", |b| {
        b.iter(|| black_box(sim_tables(&sys)).delivered)
    });
}

criterion_group! {
    name = table_walk;
    config = Criterion::default().sample_size(10);
    targets = guard_resident_bytes, guard_injection_parity
}
criterion_main!(table_walk);
