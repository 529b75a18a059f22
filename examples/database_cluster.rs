//! The paper's motivating commercial workload (§3): "for a given
//! database query, we may have an arbitrary set of four CPU nodes
//! trying to communicate with an arbitrary set of four disk controller
//! nodes over an extended period of time. … In commercial applications,
//! it is not possible to know the data access patterns a priori, making
//! static load balancing impossible."
//!
//! We model three concurrent queries (12 CPU→disk flows) and let the
//! *adversary pick the placement* — computed from each network's own
//! worst-contention witness, so every system faces the worst 12-flow
//! placement that exists for it. The fat tree can be forced to put all
//! 12 flows on one link (12:1); the fat fractahedron tops out at 8:1,
//! and the gap shows up as delivered latency. A bulk transfer is also
//! segmented into ServerNet packets to show the in-order interrupt
//! discipline.
//!
//! ```text
//! cargo run --release --example database_cluster
//! ```

use fractanet::metrics::contention::contention_of_channel;
use fractanet::metrics::max_link_contention;
use fractanet::prelude::*;
use fractanet::servernet::packet::segment_transfer;
use fractanet::System;

/// Repeats a query pattern for `repeats` rounds: every CPU sends one
/// packet to its disk controller per round.
fn query_workload(pairs: &[(usize, usize)], repeats: u64, gap: u64) -> Workload {
    let mut script = Vec::new();
    for round in 0..repeats {
        for &(cpu, disk) in pairs {
            script.push((round * gap, cpu, disk));
        }
    }
    Workload::Scripted(script)
}

/// The adversary's placement: the system's own worst-channel witness,
/// topped up to `flows` with spread-out fillers.
fn adversarial_pairs(sys: &System, flows: usize) -> (usize, Vec<(usize, usize)>) {
    // The matching witness names pairs, so this view traces them.
    let rs = RouteSet::from_table(sys.net(), sys.end_nodes(), sys.routes())
        .expect("canonical routing covers every pair");
    let rep = max_link_contention(sys.net(), &rs);
    let (_, mut pairs) = contention_of_channel(sys.net(), &rs, rep.worst_channel);
    pairs.truncate(flows);
    let n = sys.end_nodes().len();
    let mut s = 0usize;
    while pairs.len() < flows {
        let candidate = (s, (s + n / 2) % n);
        if !pairs
            .iter()
            .any(|&(a, b)| a == candidate.0 || b == candidate.1)
        {
            pairs.push(candidate);
        }
        s += 5;
    }
    (rep.worst, pairs)
}

fn run(label: &str, sys: &System, pairs: &[(usize, usize)]) {
    let cfg = SimConfig::default()
        .with_packet_flits(71) // a full 64-byte ServerNet packet on the wire
        .with_buffer_depth(4)
        .with_max_cycles(400_000);
    let res = sys.simulate(query_workload(pairs, 40, 100), cfg);
    assert!(
        res.deadlock.is_none(),
        "deadlock-free routing must not deadlock"
    );
    println!(
        "  {:<24} avg latency {:>8.1} cy   p95 {:>6} cy   delivered {:>4}/{}",
        label, res.avg_latency, res.p95_latency, res.delivered, res.generated
    );
}

fn main() {
    println!("database query traffic: three queries, 12 CPU->disk flows\n");

    let fat_tree = System::fat_tree(64, 4, 2);
    let fracta = System::fat_fractahedron(2);

    // A benign placement for contrast: CPUs and disks spread evenly.
    let benign: Vec<(usize, usize)> = (0..12).map(|i| (i * 5, (i * 5 + 32) % 64)).collect();

    for (name, sys) in [("4-2 fat tree", &fat_tree), ("fat fractahedron", &fracta)] {
        let (worst, adversarial) = adversarial_pairs(sys, 12);
        println!("{name} (worst any-link contention {worst}:1):");
        run("benign placement", sys, &benign);
        run("worst-case placement", sys, &adversarial);
        println!();
    }
    println!(
        "the adversary can force 12 fat-tree flows through one link (12:1), but\n\
         no fractahedral placement exceeds 8:1 — the Table 2 contention gap as\n\
         queueing delay.\n"
    );

    // The ServerNet protocol detail that forces fixed-path routing:
    // a disk read completion is data packets followed by an interrupt
    // that must not overtake them.
    println!("segmenting a 200-byte disk read completion into wire packets:");
    let packets = segment_transfer(5, 60, 0, &[0u8; 200]);
    for (i, p) in packets.iter().enumerate() {
        println!(
            "  packet {i}: {:?} {} payload bytes, {} bytes on the wire",
            p.kind,
            p.payload.len(),
            p.wire_len()
        );
    }
    println!(
        "\nin-order delivery is guaranteed because every (src,dst) pair uses one fixed path;\n\
         the trailing Interrupt cannot pass the Write packets (§3.3)."
    );
}
