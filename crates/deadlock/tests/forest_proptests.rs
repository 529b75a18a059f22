//! The forest-built channel dependency graph against the pair walk it
//! replaced: on random connected networks with random destination
//! tables — holes, vacant ports, forwarding loops and misdelivering
//! entries included — `ChannelDependencyGraph::from_tables` must give
//! the same successor lists in the same order, the same witnesses, the
//! same cycle and the same `DeadlockReport`, and `HopStats` must agree
//! with hop counts traced pair by pair.

use fractanet_deadlock::{verify_deadlock_free_tables, ChannelDependencyGraph};
use fractanet_graph::{bfs, AdjList, ChannelId, Network, NodeId, PortId};
use fractanet_metrics::HopStats;
use fractanet_route::{Paths, Routes};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashSet;

mod common;
use common::{cable_lists, connected_net};

/// Destination tables over a `connected_net`: each entry starts as a
/// shortest-path next hop and is corrupted when its byte in `entries`
/// falls below `noise` — into a hole, or into a raw port that may be
/// vacant, misdeliver into an end node, or close a forwarding loop.
fn random_tables(net: &Network, ends: &[NodeId], entries: &[u8], noise: u8) -> Routes {
    let n = ends.len();
    let routers: Vec<NodeId> = net.routers().collect();
    let mut routes = Routes::new(net, n);
    for (d, &target) in ends.iter().enumerate() {
        let dist = bfs::distances(net, target);
        for (i, &r) in routers.iter().enumerate() {
            let e = entries[(i * n + d) % entries.len()];
            if e < noise {
                if !e.is_multiple_of(4) {
                    routes.set(r, d, PortId(e % 10));
                }
                continue;
            }
            let next = net
                .channels_from(r)
                .iter()
                .find(|&&(_, v)| dist[v.index()] + 1 == dist[r.index()])
                .map(|&(ch, _)| net.channel_src_port(ch));
            if let Some(port) = next {
                routes.set(r, d, port);
            }
        }
    }
    routes
}

/// What the pair walk over the same tables produces.
struct Reference {
    graph: AdjList,
    /// `(a, b, src, dst)` in first-occurrence order.
    witnesses: Vec<(u32, u32, usize, usize)>,
    hops: Option<HopStats>,
    failed_pairs: usize,
}

/// Traces every ordered pair source-major and keeps each dependency's
/// first occurrence — the construction `from_tables` used to run.
fn pair_walk(net: &Network, ends: &[NodeId], routes: &Routes) -> Reference {
    let mut graph = AdjList::new(net.channel_count());
    let mut seen = HashSet::new();
    let mut witnesses = Vec::new();
    let mut histogram: Vec<usize> = Vec::new();
    let mut failed_pairs = 0;
    Paths::tables(net, ends, routes).for_each_pair(|s, d, res| {
        let Ok(path) = res else {
            failed_pairs += 1;
            return;
        };
        for w in path.windows(2) {
            if seen.insert((w[0].0, w[1].0)) {
                graph.add_edge(w[0].0, w[1].0);
                witnesses.push((w[0].0, w[1].0, s, d));
            }
        }
        let hops = path.len() - 1;
        if histogram.len() <= hops {
            histogram.resize(hops + 1, 0);
        }
        histogram[hops] += 1;
    });
    let hops = (failed_pairs == 0 && ends.len() >= 2).then(|| {
        let pairs: usize = histogram.iter().sum();
        let total: usize = histogram.iter().enumerate().map(|(h, &c)| h * c).sum();
        HopStats {
            max: histogram.len() - 1,
            avg: total as f64 / pairs as f64,
            histogram,
        }
    });
    Reference {
        graph,
        witnesses,
        hops,
        failed_pairs,
    }
}

/// `describe_cycle`'s text, with witnesses found by linear search.
fn describe(net: &Network, cycle: &[u32], witnesses: &[(u32, u32, usize, usize)]) -> String {
    let mut out = String::from("channel-dependency cycle:\n");
    for (i, &a) in cycle.iter().enumerate() {
        let b = cycle[(i + 1) % cycle.len()];
        let ch = ChannelId(a);
        let wit = witnesses
            .iter()
            .find(|&&(x, y, _, _)| (x, y) == (a, b))
            .map(|&(_, _, s, d)| format!("  [held by a {s}->{d} packet]"))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {} --{:?}--> {}{}\n",
            net.label(net.channel_src(ch)),
            ch.link(),
            net.label(net.channel_dst(ch)),
            wit
        ));
    }
    out
}

/// Asserts the forest build equals the pair walk on every observable;
/// returns `(cyclic, failed pairs)` for coverage accounting.
fn check_equivalent(
    net: &Network,
    ends: &[NodeId],
    routes: &Routes,
) -> Result<(bool, usize), TestCaseError> {
    let reference = pair_walk(net, ends, routes);
    let cdg = ChannelDependencyGraph::from_tables(net, ends, routes);
    for v in 0..net.channel_count() as u32 {
        prop_assert_eq!(cdg.graph().succ(v), reference.graph.succ(v));
    }
    prop_assert_eq!(cdg.dependency_count(), reference.graph.edge_count());
    for &(a, b, s, d) in &reference.witnesses {
        prop_assert_eq!(cdg.witness(ChannelId(a), ChannelId(b)), Some((s, d)));
        prop_assert_eq!(
            cdg.witness(ChannelId(b), ChannelId(a)).is_some(),
            reference.graph.succ(b).contains(&a)
        );
    }
    let cycle = reference.graph.find_cycle();
    let found: Option<Vec<u32>> = cdg.find_cycle().map(|c| c.iter().map(|ch| ch.0).collect());
    prop_assert_eq!(&found, &cycle);
    match (verify_deadlock_free_tables(net, ends, routes), &cycle) {
        (Ok(acyclic), None) => prop_assert_eq!(acyclic.dependency_count(), cdg.dependency_count()),
        (Err(report), Some(c)) => {
            let chans: Vec<u32> = report.cycle.iter().map(|ch| ch.0).collect();
            prop_assert_eq!(&chans, c);
            prop_assert_eq!(&report.description, &describe(net, c, &reference.witnesses));
            prop_assert_eq!(report.dependencies, reference.graph.edge_count());
        }
        (verdict, _) => {
            return Err(TestCaseError::fail(format!(
                "verdict {:?} disagrees with the reference cycle {cycle:?}",
                verdict.map(|g| g.dependency_count())
            )))
        }
    }
    prop_assert_eq!(HopStats::routed_tables(net, ends, routes), reference.hops);
    Ok((cycle.is_some(), reference.failed_pairs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Bit-identity of the forest CDG and hop statistics with the pair
    /// walk, clean and corrupted tables alike (a third of the cases
    /// draw `noise < 32`, which leaves the tables uncorrupted).
    #[test]
    fn forest_cdg_matches_pair_walk(
        n in 2usize..9,
        pairs in cable_lists(8),
        entries in prop::collection::vec(0u8..64, 64..65),
        noise in 0u8..96,
    ) {
        let (net, ends) = connected_net(n, &pairs);
        let routes = random_tables(&net, &ends, &entries, noise.saturating_sub(32));
        check_equivalent(&net, &ends, &routes)?;
    }
}

/// The generator really produces what the property is about: cyclic
/// dependency graphs, failing pairs, and fully routed acyclic tables.
#[test]
fn generator_covers_cycles_failures_and_clean_tables() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut cyclic, mut failing, mut clean) = (0, 0, 0);
    for case in 0..64u64 {
        let n = 3 + (case % 6) as usize;
        let pairs: Vec<(u32, u32)> = (0..next() % 20)
            .map(|_| ((next() % 8) as u32, (next() % 8) as u32))
            .collect();
        let entries: Vec<u8> = (0..64).map(|_| (next() % 64) as u8).collect();
        let noise = [0, 0, 8, 24, 64][(case % 5) as usize];
        let (net, ends) = connected_net(n, &pairs);
        let routes = random_tables(&net, &ends, &entries, noise);
        let (is_cyclic, failed) = check_equivalent(&net, &ends, &routes).expect("equivalent");
        cyclic += usize::from(is_cyclic);
        failing += usize::from(failed > 0);
        clean += usize::from(!is_cyclic && failed == 0);
    }
    assert!(
        cyclic >= 4 && failing >= 4 && clean >= 4,
        "{cyclic} cyclic, {failing} failing, {clean} clean cases"
    );
}
