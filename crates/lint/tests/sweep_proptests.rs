//! One forest sweep feeding four consumers against each consumer run
//! on its own. On random connected networks — zero to two end nodes
//! per router, some dual-ported — with random destination tables
//! (holes, vacant ports, forwarding loops and misdelivering entries),
//! random fault masks and random routing disciplines, a single
//! `DestForest::sweep` into `CdgSweep`, `HopSweep`, `ContentionSweep`
//! and `Linter::pair_sweep` must give:
//!
//! - the dependency graph of `ChannelDependencyGraph::from_tables`:
//!   every successor list in insertion order, and every witness;
//! - the `HopStats` of `HopStats::routed_tables`, `None` included;
//! - the `ContentionReport` of `max_link_contention_paths`;
//! - through `Linter::with_certificate`, the `check_tables` JSON of the
//!   same linter run alone, exact mode included.
//!
//! Exact-mode L6 reads the unrestricted routing's dependencies off the
//! synthesizer's first round; they must equal the windows of every
//! live source's shortest paths with no turn disabled.

use fractanet_deadlock::{
    route_from_masked, synthesize_disables_exact, CdgSweep, ChannelDependencyGraph, DisableSet,
    ExactConfig,
};
use fractanet_graph::{ChannelId, Network, NodeId};
use fractanet_lint::{Discipline, Linter, Precomputed};
use fractanet_metrics::{max_link_contention_paths, ContentionSweep, HopStats, HopSweep};
use fractanet_route::ringroute::ring_clockwise_routes;
use fractanet_route::{DeadMask, DestForest, Paths, Routes};
use fractanet_topo::{Ring, Topology};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;

mod common;
use common::{random_discipline, random_mask, random_net, random_tables};

/// What a case exercised, for coverage accounting.
#[derive(Default)]
struct Seen {
    cyclic: bool,
    unrouted: bool,
    findings: bool,
    dual: bool,
}

/// Asserts the shared sweep equals every standalone computation.
fn check_shared_sweep(
    net: &Network,
    ends: &[NodeId],
    routes: &Routes,
    mask: &DeadMask,
    disc: Discipline,
    exact: bool,
) -> Result<Seen, TestCaseError> {
    let n = ends.len();
    let mut linter = Linter::new(net, ends).with_mask(mask).with_discipline(disc);
    if exact {
        linter = linter.with_exact(ExactConfig::default());
    }
    let mut cdg = CdgSweep::new(net);
    let mut hops = HopSweep::new(n);
    let mut contention = ContentionSweep::new(net, n);
    let mut pairs = linter.pair_sweep(routes);
    DestForest::sweep(
        net,
        ends,
        routes,
        &mut [&mut cdg, &mut hops, &mut contention, &mut pairs],
    );
    let (cdg, hops, contention, pairs) = (
        cdg.finish(),
        hops.finish(),
        contention.finish(),
        pairs.finish(),
    );

    let alone = ChannelDependencyGraph::from_tables(net, ends, routes);
    for v in 0..net.channel_count() as u32 {
        prop_assert_eq!(cdg.graph().succ(v), alone.graph().succ(v));
    }
    prop_assert_eq!(cdg.dependencies(), alone.dependencies());
    for (a, b) in cdg.dependencies() {
        let (a, b) = (ChannelId(a), ChannelId(b));
        prop_assert_eq!(cdg.witness(a, b), alone.witness(a, b));
    }
    prop_assert_eq!(&hops, &HopStats::routed_tables(net, ends, routes));
    let rep = max_link_contention_paths(net, Paths::tables(net, ends, routes));
    prop_assert_eq!(&contention.per_channel, &rep.per_channel);
    prop_assert_eq!(contention.worst, rep.worst);
    prop_assert_eq!(contention.worst_channel, rep.worst_channel);

    let standalone = linter.check_tables(routes);
    let shared = linter
        .with_certificate(Precomputed {
            cdg: Some(&cdg),
            contention: Some(&contention),
            pairs: Some(&pairs),
        })
        .check_tables(routes);
    prop_assert_eq!(shared.to_json(), standalone.to_json());

    if exact {
        check_unrestricted(net, ends, mask)?;
    }
    Ok(Seen {
        cyclic: !cdg.is_deadlock_free(),
        unrouted: hops.is_none(),
        findings: standalone.diagnostics.iter().any(|d| d.affected_pairs > 0),
        dual: ends.iter().any(|&e| net.channels_from(e).len() == 2),
    })
}

/// The synthesizer's unrestricted dependencies are the windows of every
/// live source's shortest allowed paths with nothing disabled.
fn check_unrestricted(
    net: &Network,
    ends: &[NodeId],
    mask: &DeadMask,
) -> Result<(), TestCaseError> {
    let Ok(synth) = synthesize_disables_exact(net, ends, Some(mask), &ExactConfig::default())
    else {
        return Ok(());
    };
    let mut windows = BTreeSet::new();
    for s in (0..ends.len()).filter(|&s| mask.node_ok(ends[s])) {
        let row = route_from_masked(net, ends, &DisableSet::new(), Some(mask), s);
        for p in row.iter().flatten() {
            windows.extend(p.windows(2).map(|w| (w[0].0, w[1].0)));
        }
    }
    let got: Vec<(u32, u32)> = windows.into_iter().collect();
    prop_assert_eq!(&synth.unrestricted_dependencies, &got);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The four-consumer sweep equals each consumer alone on clean,
    /// corrupted, faulted and dual-ported networks alike.
    #[test]
    fn shared_sweep_matches_standalone_consumers(
        n in 2usize..9,
        ends_per in prop::collection::vec(0u8..3, 8..9),
        extra in prop::collection::vec((0u32..8, 0u32..8), 0..20),
        dual in prop::collection::vec(0u8..=255, 0..6),
        entries in prop::collection::vec(0u8..64, 64..65),
        noise in 0u8..96,
        faults in prop::collection::vec(0u8..=255, 32..33),
        rate in 0u8..64,
        kind in 0u8..4,
    ) {
        let (net, ends) = random_net(n, &ends_per, &extra, &dual);
        let routes = random_tables(&net, &ends, &entries, noise.saturating_sub(32));
        let mask = random_mask(&net, &faults, rate.saturating_sub(16));
        let disc = random_discipline(&net, &faults, kind);
        check_shared_sweep(&net, &ends, &routes, &mask, disc, kind >= 2)?;
    }
}

/// The generator really produces what the property is about: cyclic
/// dependency graphs, unrouted pairs, lint findings and dual-ported
/// end nodes, in both lint modes.
#[test]
fn generator_covers_cycles_unrouted_pairs_and_dual_ports() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut cyclic, mut unrouted, mut findings, mut dual) = (0, 0, 0, 0);
    for case in 0..128u64 {
        let n = 3 + (case % 6) as usize;
        let ends_per: Vec<u8> = (0..8).map(|_| (next() % 3) as u8).collect();
        let extra: Vec<(u32, u32)> = (0..next() % 20)
            .map(|_| ((next() % 8) as u32, (next() % 8) as u32))
            .collect();
        let duals: Vec<u8> = (0..next() % 6).map(|_| next() as u8).collect();
        let entries: Vec<u8> = (0..64).map(|_| (next() % 64) as u8).collect();
        let faults: Vec<u8> = (0..32).map(|_| next() as u8).collect();
        let noise = [0, 0, 8, 24, 64][(case % 5) as usize];
        let rate = [0, 16, 48][(case % 3) as usize];
        let (net, ends) = random_net(n, &ends_per, &extra, &duals);
        let routes = random_tables(&net, &ends, &entries, noise);
        let mask = random_mask(&net, &faults, rate);
        let disc = random_discipline(&net, &faults, (case % 2) as u8);
        let seen = check_shared_sweep(&net, &ends, &routes, &mask, disc, case % 4 >= 2)
            .expect("shared sweep equals the standalone consumers");
        cyclic += usize::from(seen.cyclic);
        unrouted += usize::from(seen.unrouted);
        findings += usize::from(seen.findings);
        dual += usize::from(seen.dual);
    }
    // Random shortest-path tables rarely close a dependency cycle; the
    // Fig 1 clockwise rings always do.
    for (routers, exact) in [(4, false), (4, true), (6, false), (6, true)] {
        let ring = Ring::new(routers, 1, 6).expect("valid ring");
        let (net, ends) = (ring.net(), ring.end_nodes());
        let disc = random_discipline(net, &[7, 44, 42], 1);
        let seen = check_shared_sweep(
            net,
            ends,
            &ring_clockwise_routes(&ring),
            &DeadMask::new(net),
            disc,
            exact,
        )
        .expect("shared sweep equals the standalone consumers");
        cyclic += usize::from(seen.cyclic);
    }
    assert!(
        cyclic >= 4 && unrouted >= 8 && findings >= 8 && dual >= 8,
        "{cyclic} cyclic, {unrouted} with unrouted pairs, {findings} with findings, \
         {dual} with dual-ported ends"
    );
}
