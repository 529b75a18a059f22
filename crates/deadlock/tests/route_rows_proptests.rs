//! The per-source route rows against the per-pair search they
//! replaced: on random connected networks (some with dual-ported end
//! nodes, which a search can reach over either port) with random turn
//! disables and random fault masks (dead links, routers and end nodes),
//! `route_from_masked(.., s)[d]` must be exactly the path the
//! early-exit pair search returns, and `route_all`, which reuses one
//! search's scratch across sources, must agree with it pair by pair.

use fractanet_deadlock::disables::route_all;
use fractanet_deadlock::{route_from_masked, DisableSet};
use fractanet_graph::{ChannelId, LinkClass, LinkId, Network, NodeId};
use fractanet_route::DeadMask;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;

mod common;
use common::{cable_lists, connected_net};

/// The per-pair search the rows replaced, kept verbatim as the
/// reference: BFS in channel space from `ends[src]` that stops at the
/// first popped channel into `ends[dst]`.
fn route_one_masked(
    net: &Network,
    ends: &[NodeId],
    disables: &DisableSet,
    mask: Option<&DeadMask>,
    src: usize,
    dst: usize,
) -> Option<Vec<ChannelId>> {
    if src == dst {
        return Some(Vec::new());
    }
    let alive_node = |v: NodeId| mask.is_none_or(|m| m.node_ok(v));
    let alive_ch = |ch: ChannelId| mask.is_none_or(|m| m.channel_ok(net, ch));
    if !alive_node(ends[src]) || !alive_node(ends[dst]) {
        return None;
    }
    let target = ends[dst];
    let &(inject, first_router) = net.channels_from(ends[src]).first()?;
    if !alive_ch(inject) || !alive_node(first_router) {
        return None;
    }
    let nch = net.channel_count();
    let mut prev: Vec<Option<ChannelId>> = vec![None; nch];
    let mut seen = vec![false; nch];
    seen[inject.index()] = true;
    let mut q = VecDeque::from([inject]);
    while let Some(ch) = q.pop_front() {
        let here = net.channel_dst(ch);
        if here == target {
            // Rebuild.
            let mut path = vec![ch];
            let mut cur = ch;
            while let Some(p) = prev[cur.index()] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        if !net.is_router(here) {
            continue; // arrived at a foreign end node: dead end
        }
        for &(out, next) in net.channels_from(here) {
            if out == ch.reverse()
                || disables.contains(ch, out)
                || seen[out.index()]
                || !alive_ch(out)
                || !alive_node(next)
            {
                continue;
            }
            seen[out.index()] = true;
            prev[out.index()] = Some(ch);
            q.push_back(out);
        }
    }
    None
}

/// A `connected_net` whose end nodes have a second port, attached to
/// router `(i + k) % n` for each `k` in `second` (end `i = k % n`), so a
/// search can reach an end node over either port.
fn dual_net(n: usize, pairs: &[(u32, u32)], second: &[u32]) -> (Network, Vec<NodeId>) {
    let (base, _) = connected_net(n, pairs);
    let mut net = Network::new();
    let mut map = Vec::with_capacity(base.node_count());
    for v in base.nodes() {
        map.push(if base.is_router(v) {
            net.add_router(base.label(v), 10)
        } else {
            net.add_end_node_with_ports(base.label(v), 2)
        });
    }
    for l in base.links() {
        let info = base.link(l);
        let (a, b) = (map[info.a.0.index()], map[info.b.0.index()]);
        net.connect(a, info.a.1, b, info.b.1, info.class)
            .expect("copied cable");
    }
    let routers: Vec<NodeId> = net.routers().collect();
    let ends: Vec<NodeId> = net.nodes().filter(|&v| !net.is_router(v)).collect();
    for &k in second {
        let i = k as usize % n;
        // A second cable onto the same end fails on the full port and
        // is ignored.
        let _ = net.connect_any(ends[i], routers[(i + k as usize) % n], LinkClass::Attach);
    }
    (net, ends)
}

/// Every turn a route could take: `(in, out)` through a router, no
/// U-turn.
fn real_turns(net: &Network) -> Vec<(ChannelId, ChannelId)> {
    let mut turns = Vec::new();
    for r in net.routers() {
        for &(out, _) in net.channels_from(r) {
            for &(back, _) in net.channels_from(r) {
                let in_ = back.reverse();
                if out != back {
                    turns.push((in_, out));
                }
            }
        }
    }
    turns
}

/// A disable set of turns picked by `picks` from the network's real
/// turns, and a mask killing the links and nodes `links` / `nodes`
/// pick (end nodes included).
fn scenario(net: &Network, picks: &[u32], links: &[u32], nodes: &[u32]) -> (DisableSet, DeadMask) {
    let turns = real_turns(net);
    let mut disables = DisableSet::new();
    for &i in picks {
        let (a, b) = turns[i as usize % turns.len()];
        disables.insert(a, b);
    }
    let mut mask = DeadMask::new(net);
    for &l in links {
        mask.kill_link(LinkId(l % net.link_count() as u32));
    }
    for &v in nodes {
        mask.kill_router(NodeId(v % net.node_count() as u32));
    }
    (disables, mask)
}

/// What a case exercised, for the generator check.
#[derive(Default)]
struct Seen {
    unreachable: usize,
    dead_ends: usize,
}

/// Compares every row entry against the pair search, masked and not,
/// and `route_all` against the unmasked pair search.
fn check_rows(
    net: &Network,
    ends: &[NodeId],
    disables: &DisableSet,
    mask: &DeadMask,
) -> Result<Seen, TestCaseError> {
    let n = ends.len();
    let mut seen = Seen::default();
    for m in [None, Some(mask)] {
        for s in 0..n {
            let row = route_from_masked(net, ends, disables, m, s);
            prop_assert_eq!(row.len(), n);
            for (d, got) in row.iter().enumerate() {
                let want = route_one_masked(net, ends, disables, m, s, d);
                prop_assert_eq!(got, &want, "pair ({}, {}) masked={}", s, d, m.is_some());
                seen.unreachable += usize::from(want.is_none());
            }
        }
    }
    seen.dead_ends = ends.iter().filter(|&&e| !mask.node_ok(e)).count();
    let first_failure = (0..n)
        .flat_map(|s| (0..n).map(move |d| (s, d)))
        .find(|&(s, d)| route_one_masked(net, ends, disables, None, s, d).is_none());
    match route_all(net, ends, disables) {
        Ok(rs) => {
            prop_assert_eq!(first_failure, None);
            for (s, d, p) in rs.pairs() {
                let want = route_one_masked(net, ends, disables, None, s, d);
                prop_assert_eq!(Some(p.to_vec()), want, "route_all pair ({}, {})", s, d);
            }
        }
        Err(pair) => prop_assert_eq!(Some(pair), first_failure),
    }
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Row entries equal the per-pair search for every `(s, d)`.
    #[test]
    fn rows_match_pair_search(
        n in 2usize..9,
        pairs in cable_lists(8),
        second in prop::collection::vec(0u32..10_000, 0..4),
        picks in prop::collection::vec(0u32..10_000, 0..8),
        links in prop::collection::vec(0u32..10_000, 0..3),
        nodes in prop::collection::vec(0u32..10_000, 0..3),
    ) {
        let (net, ends) = if second.is_empty() {
            connected_net(n, &pairs)
        } else {
            dual_net(n, &pairs, &second)
        };
        let (disables, mask) = scenario(&net, &picks, &links, &nodes);
        check_rows(&net, &ends, &disables, &mask)?;
    }
}

/// The generator really produces what the property is about:
/// unreachable pairs, dead end nodes and dual-ported end nodes.
#[test]
fn generator_covers_unreachable_pairs_dead_and_dual_ends() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut unreachable, mut dead_ends, mut dual) = (0, 0, 0);
    for case in 0..48u64 {
        let n = 2 + (case % 7) as usize;
        let pairs: Vec<(u32, u32)> = (0..next() % 20)
            .map(|_| ((next() % 8) as u32, (next() % 8) as u32))
            .collect();
        let mut draw = |k: u64| -> Vec<u32> { (0..next() % k).map(|_| next() as u32).collect() };
        let (second, picks, links, nodes) = (draw(4), draw(8), draw(3), draw(3));
        let (net, ends) = if second.is_empty() {
            connected_net(n, &pairs)
        } else {
            dual_net(n, &pairs, &second)
        };
        dual += usize::from(ends.iter().any(|&e| net.channels_from(e).len() == 2));
        let (disables, mask) = scenario(&net, &picks, &links, &nodes);
        let seen = check_rows(&net, &ends, &disables, &mask).expect("rows match");
        unreachable += usize::from(seen.unreachable > 0);
        dead_ends += usize::from(seen.dead_ends > 0);
    }
    assert!(
        unreachable >= 8 && dead_ends >= 4 && dual >= 8,
        "{unreachable} cases with unreachable pairs, {dead_ends} with dead ends, \
         {dual} with dual-ported ends"
    );
}
