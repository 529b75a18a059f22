//! The extended `(channel, vc)` dependency graph read off destination
//! tables (`VcSweep`, one routing forest per destination) against the
//! dense reference: `VcMap::annotate` over every traced pair, failed
//! pairs left empty, and `VcRouteSet::is_deadlock_free`.
//!
//! Inputs are random connected networks with dual-ported end nodes
//! under corrupted tables (holes, vacant ports, loops, misdeliveries)
//! or up*/down* tables repaired around a random fault mask, plus
//! clockwise and shortest-path rings, whose physical graphs are
//! cyclic. Each runs under a random dateline map (promote and
//! dimension vectors) or a random class map, at 1 to 3 VCs. The sweep
//! must give the reference's verdict and its exact dependency set,
//! each dependency once. Under a class map every channel rides one
//! fixed VC, so the extended graph is the physical CDG relabelled and
//! must share its verdict too.

use fractanet::prelude::*;
use fractanet::TopoSpec;
use fractanet_deadlock::ChannelDependencyGraph;
use fractanet_graph::AdjList;
use fractanet_route::ringroute::{ring_clockwise_routes, ring_shortest_routes};
use fractanet_route::{repair_tables, DestForest};
use fractanet_sim::{dateline_ring_map, VcMap, VcSweep};
use fractanet_topo::{Ring, Topology};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeSet;

#[allow(dead_code)]
#[path = "../../lint/tests/common/mod.rs"]
mod common;
use common::{random_mask, random_net, random_tables};

/// What a case exercised, for coverage accounting.
#[derive(Default)]
struct Seen {
    cyclic: bool,
    /// Physical CDG cyclic, extended graph acyclic: the VCs did their
    /// job.
    broken_by_vcs: bool,
    unrouted: bool,
    dual: bool,
}

/// Every edge of an extended graph, as `(from, to)` vertex pairs.
fn edges(graph: &AdjList) -> BTreeSet<(u32, u32)> {
    (0..graph.len() as u32)
        .flat_map(|u| graph.succ(u).iter().map(move |&v| (u, v)))
        .collect()
}

/// The forest build equals the dense reference on one routing.
fn check(
    net: &Network,
    ends: &[NodeId],
    routes: &Routes,
    map: &VcMap,
    classes: bool,
) -> Result<Seen, TestCaseError> {
    let traced = RouteSet::from_pairs(ends.len(), |s, d| {
        routes.trace(net, ends, s, d).unwrap_or_default()
    });
    let dense = map.annotate(&traced);
    let vcs = map.vcs() as u32;
    let mut want = BTreeSet::new();
    for (s, d, _) in traced.pairs() {
        want.extend(dense.path(s, d).windows(2).map(|w| {
            (
                w[0].0 .0 * vcs + u32::from(w[0].1),
                w[1].0 .0 * vcs + u32::from(w[1].1),
            )
        }));
    }

    let mut sweep = VcSweep::new(net, map);
    DestForest::sweep(net, ends, routes, &mut [&mut sweep]);
    let graph = sweep.finish();
    prop_assert_eq!(graph.len(), net.channel_count() * vcs as usize);
    let got = edges(&graph);
    prop_assert_eq!(graph.edge_count(), got.len(), "a dependency recorded twice");
    prop_assert_eq!(&got, &want);
    let acyclic = graph.is_acyclic();
    prop_assert_eq!(acyclic, dense.is_deadlock_free(net));

    let cdg = ChannelDependencyGraph::from_tables(net, ends, routes);
    if classes {
        prop_assert_eq!(acyclic, cdg.is_deadlock_free());
    }
    let unrouted = traced.pairs().any(|(s, d, p)| s != d && p.is_empty());
    Ok(Seen {
        cyclic: !acyclic,
        broken_by_vcs: acyclic && !cdg.is_deadlock_free(),
        unrouted,
        dual: ends.iter().any(|&e| net.channels_from(e).len() == 2),
    })
}

/// A dateline map (`classes` false) or a class map over `net`'s
/// channels, drawn from `bytes`.
fn random_map(net: &Network, vcs: u8, classes: bool, bytes: &[u8]) -> VcMap {
    let byte = |c: usize, k: usize| bytes[(c * 3 + k) % bytes.len()];
    let channels = net.channel_count();
    if classes {
        return VcMap::classes(vcs, (0..channels).map(|c| byte(c, 0) % (vcs + 1)).collect());
    }
    let promote = (0..channels).map(|c| byte(c, 1) < 64).collect();
    // Dimensions 0..3, or u8::MAX: keep the VC across the hop.
    let dim = (0..channels)
        .map(|c| match byte(c, 2) % 5 {
            4 => u8::MAX,
            k => k,
        })
        .collect();
    VcMap::dateline(vcs, promote, dim)
}

/// One generated case: the network, its tables and the map.
#[allow(clippy::too_many_arguments)]
fn run_case(
    n: usize,
    ends_per: &[u8],
    extra: &[(u32, u32)],
    dual: &[u8],
    entries: &[u8],
    noise: u8,
    faults: &[u8],
    kind: u8,
    vcs: u8,
    classes: bool,
) -> Result<Seen, TestCaseError> {
    let map_for = |net: &Network| random_map(net, vcs, classes, faults);
    match kind % 4 {
        // Clockwise or shortest-path rings: cyclic physical graphs,
        // half of the dateline cases under the ring's own dateline.
        0 | 1 => {
            let ring = Ring::new(n.max(3), 1, 6).expect("valid ring");
            let routes = if kind.is_multiple_of(4) {
                ring_clockwise_routes(&ring)
            } else {
                ring_shortest_routes(&ring)
            };
            let map = if !classes && faults[0].is_multiple_of(2) {
                dateline_ring_map(&ring, vcs)
            } else {
                map_for(ring.net())
            };
            check(ring.net(), ring.end_nodes(), &routes, &map, classes)
        }
        // Corrupted shortest-path tables.
        2 => {
            let (net, ends) = random_net(n, ends_per, extra, dual);
            let routes = random_tables(&net, &ends, entries, noise);
            check(&net, &ends, &routes, &map_for(&net), classes)
        }
        // Tables repaired around a fault mask.
        _ => {
            let (net, ends) = random_net(n, ends_per, extra, dual);
            let mask = random_mask(&net, faults, noise);
            let routes = repair_tables(&net, &ends, &mask).tables;
            check(&net, &ends, &routes, &map_for(&net), classes)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn forest_vc_graph_matches_annotate(
        n in 2usize..9,
        ends_per in prop::collection::vec(0u8..3, 8..9),
        extra in prop::collection::vec((0u32..8, 0u32..8), 0..20),
        dual in prop::collection::vec(0u8..=255, 0..6),
        entries in prop::collection::vec(0u8..64, 64..65),
        noise in 0u8..64,
        faults in prop::collection::vec(0u8..=255, 32..33),
        kind in 0u8..4,
        vcs in 1u8..=3,
        classes in any::<bool>(),
    ) {
        run_case(
            n, &ends_per, &extra, &dual, &entries, noise, &faults, kind, vcs, classes,
        )?;
    }
}

/// The generator really produces what the property is about: cyclic
/// and acyclic extended graphs, cycles the VCs break, unrouted pairs
/// and dual-ported end nodes.
#[test]
fn generator_covers_cycles_unrouted_pairs_and_dual_ports() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut cyclic, mut acyclic, mut broken, mut unrouted, mut dual) = (0, 0, 0, 0, 0);
    for case in 0..256u64 {
        let n = 3 + (case % 6) as usize;
        let ends_per: Vec<u8> = (0..8).map(|_| (next() % 3) as u8).collect();
        let extra: Vec<(u32, u32)> = (0..next() % 20)
            .map(|_| ((next() % 8) as u32, (next() % 8) as u32))
            .collect();
        let duals: Vec<u8> = (0..next() % 6).map(|_| next() as u8).collect();
        let entries: Vec<u8> = (0..64).map(|_| (next() % 64) as u8).collect();
        let faults: Vec<u8> = (0..32).map(|_| next() as u8).collect();
        let noise = [0, 8, 24, 48][(case % 4) as usize];
        let vcs = 1 + (case / 4 % 3) as u8;
        let seen = run_case(
            n,
            &ends_per,
            &extra,
            &duals,
            &entries,
            noise,
            &faults,
            (case / 12 % 4) as u8,
            vcs,
            case / 48 % 2 == 1,
        )
        .expect("forest VC graph equals the dense reference");
        cyclic += usize::from(seen.cyclic);
        acyclic += usize::from(!seen.cyclic);
        broken += usize::from(seen.broken_by_vcs);
        unrouted += usize::from(seen.unrouted);
        dual += usize::from(seen.dual);
    }
    assert!(
        cyclic >= 8 && acyclic >= 8 && broken >= 8 && unrouted >= 8 && dual >= 8,
        "{cyclic} cyclic, {acyclic} acyclic, {broken} broken by VCs, \
         {unrouted} with unrouted pairs, {dual} with dual-ported ends"
    );
}

/// `System`'s VC verdict, now read off the shared forest sweep, equals
/// the dense annotate over the canonical route set on the VC specs.
#[test]
fn system_vc_verdicts_match_annotate() {
    for spec in [
        "ring:4:vc1",
        "ring:4:vc2",
        "ring:8:vc1",
        "ring:8:vc2",
        "torus:4x4:vc1:dateline",
        "torus:4x4:vc2:dateline",
        "torus:6x6:vc1:dateline",
        "torus:6x6:vc2:dateline",
        "mesh:6x6:vc2:ecube",
        "mesh:8x8:vc2:ecube",
        "hypercube:4:vc2",
        "hypercube:5:vc2",
    ] {
        let sys = spec.parse::<TopoSpec>().unwrap().build();
        let (net, ends) = (sys.net(), sys.end_nodes());
        let map = sys.vc_map().expect("a VC spec installs a map");
        let traced = RouteSet::from_table(net, ends, sys.routes()).unwrap();
        let dense = map.annotate(&traced).is_deadlock_free(net);
        assert_eq!(sys.vc_deadlock_free(), Some(dense), "{spec}");
        // Meshes and hypercubes run e-cube class maps.
        let classes = !spec.starts_with("ring") && !spec.starts_with("torus");
        check(net, ends, sys.routes(), map, classes).unwrap_or_else(|e| panic!("{spec}: {e}"));
    }
}
