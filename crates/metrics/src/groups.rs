//! Per-channel flows with twin destinations merged.
//!
//! Channel `c`'s flows are the `(source, destination)` pairs whose
//! route crosses it. Two destinations reached over `c` from exactly
//! the same sources are *twins*: any transfer set can swap one for the
//! other. [`Groups`] stores each channel's destinations merged into
//! twin groups, each a source set and a destination count, so that
//! contention (a maximum matching) and utilization (a route count)
//! never need the pairs themselves.
//!
//! Over destination tables the groups come straight off the
//! per-destination routing forests ([`DestForest`]): in forest `d` the
//! sources behind channel `c = hop(v)` are the end nodes hanging below
//! `v`. Each subtree's end set is hash-consed bottom-up into an id, so
//! two destinations share an id on `c` only when their subtrees behind
//! `c` hold the same ends — the key is exact, never probabilistic
//! (DESIGN.md §13).

use fractanet_graph::flow::FlowNetwork;
use fractanet_graph::{Network, NodeId};
use fractanet_route::{DestForest, ForestConsumer, RouteSet, Routes};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The id of the empty end set.
const EMPTY: u32 = u32::MAX;

/// Maximum matching between the sources and destinations of one
/// channel, from its twin groups: `(sources, destinations)` with the
/// sources sorted. One group is complete bipartite, so the matching is
/// `min(|S|, |D|)`; several groups are a max flow — one unit per
/// source, each group absorbing up to its destination count.
pub(crate) fn group_matching(groups: &[(&[u32], usize)]) -> usize {
    if let [(sources, dests)] = groups {
        return sources.len().min(*dests);
    }
    let mut sources: Vec<u32> = groups.iter().flat_map(|g| g.0.iter().copied()).collect();
    sources.sort_unstable();
    sources.dedup();
    // Vertices: 0 = super-source, 1 = sink, then sources, then groups.
    let first_group = 2 + sources.len() as u32;
    let mut flow = FlowNetwork::new(first_group as usize + groups.len());
    for i in 0..sources.len() as u32 {
        flow.add_edge(0, 2 + i, 1);
    }
    for (g, &(members, dests)) in groups.iter().enumerate() {
        let gv = first_group + g as u32;
        for s in members {
            let i = sources.binary_search(s).expect("collected above") as u32;
            flow.add_edge(2 + i, gv, 1);
        }
        flow.add_edge(gv, 1, dests as u64);
    }
    flow.max_flow(0, 1) as usize
}

/// Merges one channel's flows into twin groups and returns the
/// matching: destinations with identical (deduplicated) source lists
/// are compared whole, so the grouping is exact.
pub(crate) fn flows_matching(flows: &mut [(u32, u32)]) -> usize {
    // Destination-major, so each destination's sources are one sorted
    // run.
    flows.sort_unstable_by_key(|&(s, d)| (d, s));
    let mut runs: Vec<Vec<u32>> = Vec::new();
    let mut i = 0;
    while i < flows.len() {
        let d = flows[i].1;
        let mut run: Vec<u32> = Vec::new();
        while i < flows.len() && flows[i].1 == d {
            if run.last() != Some(&flows[i].0) {
                run.push(flows[i].0);
            }
            i += 1;
        }
        runs.push(run);
    }
    runs.sort_unstable();
    let mut groups: Vec<(&[u32], usize)> = Vec::new();
    for run in &runs {
        match groups.last_mut() {
            Some((members, dests)) if *members == run.as_slice() => *dests += 1,
            _ => groups.push((run, 1)),
        }
    }
    group_matching(&groups)
}

/// Every channel's flows over destination tables, as twin groups read
/// off one routing forest per destination.
pub(crate) struct Groups {
    /// `(set id, destinations)` per channel, by `ChannelId::index()`.
    per_channel: Vec<Vec<(u32, u32)>>,
    sets: EndSets,
    /// `subtree[v]`: id of the ends in `v`'s subtree of the forest
    /// being absorbed, folded child by child.
    subtree: Vec<u32>,
}

impl Groups {
    /// No flows yet, over `net`'s channels and `addresses` end nodes.
    pub(crate) fn new(net: &Network, addresses: usize) -> Self {
        Groups {
            per_channel: vec![Vec::new(); net.channel_count()],
            sets: EndSets::new(addresses),
            subtree: vec![EMPTY; net.node_count()],
        }
    }

    /// Sweeps one routing forest per destination: O(nodes) each, plus
    /// one hash-consing step per routed router and per routed source.
    /// Pairs whose route fails to trace contribute no flows.
    pub(crate) fn from_tables(net: &Network, ends: &[NodeId], routes: &Routes) -> Self {
        let mut groups = Groups::new(net, ends.len());
        DestForest::sweep(net, ends, routes, &mut [&mut groups]);
        groups
    }

    /// Maximum matching of every channel (0 for idle channels).
    pub(crate) fn matchings(&self) -> Vec<usize> {
        self.per_channel
            .iter()
            .map(|groups| match groups[..] {
                [] => 0,
                [(id, dests)] => self.sets.len(id).min(dests as usize),
                _ => {
                    let members: Vec<Vec<u32>> = groups
                        .iter()
                        .map(|&(id, _)| self.sets.members(id))
                        .collect();
                    let twins: Vec<(&[u32], usize)> = members
                        .iter()
                        .zip(groups)
                        .map(|(m, &(_, dests))| (m.as_slice(), dests as usize))
                        .collect();
                    group_matching(&twins)
                }
            })
            .collect()
    }

    /// Routes crossing every channel: each group's sources times its
    /// destinations.
    pub(crate) fn route_counts(&self) -> Vec<usize> {
        self.per_channel
            .iter()
            .map(|groups| {
                groups
                    .iter()
                    .map(|&(id, dests)| self.sets.len(id) * dests as usize)
                    .sum()
            })
            .collect()
    }
}

impl ForestConsumer for Groups {
    fn absorb(&mut self, forest: &DestForest<'_>) {
        let (set, sets) = (&mut self.subtree, &mut self.sets);
        let d = forest.dst();
        let order = forest.routed();
        for &v in order {
            set[v.index()] = EMPTY;
        }
        // Sources hang below their first router, which their injection
        // channel enters; a failed first router routes nothing.
        for s in (0..forest.addresses()).filter(|&s| s != d) {
            let (ch, first) = forest.inject(s);
            if forest.depth(first).is_some() {
                add(&mut self.per_channel[ch.index()], s as u32);
                set[first.index()] = sets.union(set[first.index()], s as u32);
            }
        }
        // Reversed, every subtree is complete before its root's set is
        // read and folded into the next hop's.
        for &v in order.iter().rev() {
            let Some(ch) = forest.hop(v) else { continue };
            let id = set[v.index()];
            if id != EMPTY {
                add(&mut self.per_channel[ch.index()], id);
                let next = forest.channel_dst(ch).index();
                set[next] = sets.union(set[next], id);
            }
        }
    }
}

/// Counts one more destination in the twin group `id` of a channel.
/// Consecutive destinations usually share a group, and a channel
/// rarely has more than two.
fn add(groups: &mut Vec<(u32, u32)>, id: u32) {
    match groups.iter_mut().find(|g| g.0 == id) {
        Some(g) => g.1 += 1,
        None => groups.push((id, 1)),
    }
}

/// Hash-consed end sets. Ids `0..n` are the singletons `{s}`; every
/// larger id is the union of the two ids it was interned from, which
/// are disjoint (they come from disjoint subtrees), so equal ids always
/// mean equal sets.
struct EndSets {
    n: u32,
    /// `(left, right)` of every union id `n + i`.
    parts: Vec<(u32, u32)>,
    /// Set size of every union id `n + i`.
    sizes: Vec<u32>,
    interned: HashMap<u64, u32, BuildHasherDefault<PairHasher>>,
}

impl EndSets {
    fn new(n: usize) -> Self {
        EndSets {
            n: n as u32,
            parts: Vec::new(),
            sizes: Vec::new(),
            interned: HashMap::default(),
        }
    }

    /// The id of `a ∪ b` for disjoint `a` and `b` (either may be
    /// [`EMPTY`]).
    fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == EMPTY {
            return b;
        }
        if b == EMPTY {
            return a;
        }
        let next = self.n + self.parts.len() as u32;
        let id = *self
            .interned
            .entry(u64::from(a) << 32 | u64::from(b))
            .or_insert(next);
        if id == next {
            self.parts.push((a, b));
            self.sizes.push((self.len(a) + self.len(b)) as u32);
        }
        id
    }

    fn len(&self, id: u32) -> usize {
        match id {
            EMPTY => 0,
            id if id < self.n => 1,
            id => self.sizes[(id - self.n) as usize] as usize,
        }
    }

    /// The set's members, sorted.
    fn members(&self, id: u32) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len(id));
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            match id {
                EMPTY => {}
                id if id < self.n => out.push(id),
                id => {
                    let (a, b) = self.parts[(id - self.n) as usize];
                    stack.extend([a, b]);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// The SplitMix64 finalizer over the packed `(left, right)` keys: far
/// cheaper than SipHash, and every key bit reaches the bucket bits.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let mut z = self.0 ^ x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

/// Every channel's flows of a dense route set, pair by pair.
pub(crate) fn dense_flows(net: &Network, routes: &RouteSet) -> Vec<Vec<(u32, u32)>> {
    let mut flows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); net.channel_count()];
    for (s, d, path) in routes.pairs() {
        for &ch in path {
            flows[ch.index()].push((s as u32, d as u32));
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_graph::matching::Bipartite;

    fn hopcroft_karp(flows: &[(u32, u32)]) -> usize {
        let n = flows.iter().map(|&(s, d)| s.max(d) + 1).max().unwrap_or(0) as usize;
        let mut b = Bipartite::new(n, n);
        for &(s, d) in flows {
            b.add_edge(s, d);
        }
        b.max_matching()
    }

    #[test]
    fn twin_groups_match_like_the_pair_graph() {
        // Destinations 5 and 6 are twins over {0, 1, 2}; 7 only hears
        // from 0; 8 from {3}.
        let mut flows = vec![
            (0, 5),
            (1, 5),
            (2, 5),
            (2, 6),
            (0, 6),
            (1, 6),
            (0, 7),
            (3, 8),
            (3, 8),
        ];
        assert_eq!(flows_matching(&mut flows.clone()), hopcroft_karp(&flows));
        assert_eq!(flows_matching(&mut flows), 4);
        // One complete-bipartite group is min(|S|, |D|).
        let mut wide: Vec<(u32, u32)> = (0..5).flat_map(|s| [(s, 9), (s, 10)]).collect();
        assert_eq!(flows_matching(&mut wide), 2);
        assert_eq!(flows_matching(&mut []), 0);
    }

    #[test]
    fn torus_channels_split_into_twin_groups() {
        // XY routing on a 4x4 torus: some channels carry two groups of
        // destinations with different source sets, so the max-flow
        // branch runs, and still equals the pair matching.
        use fractanet_route::dor::torus_xy_routes;
        use fractanet_topo::{Topology, Torus2D};
        let t = Torus2D::new(4, 4, 1, 6).unwrap();
        let routes = torus_xy_routes(&t);
        let (net, ends) = (t.net(), t.end_nodes());
        let groups = Groups::from_tables(net, ends, &routes);
        assert!(groups.per_channel.iter().any(|g| g.len() > 1));
        let rs = RouteSet::from_table(net, ends, &routes).unwrap();
        let pairs: Vec<usize> = dense_flows(net, &rs)
            .iter()
            .map(|fl| hopcroft_karp(fl))
            .collect();
        assert_eq!(groups.matchings(), pairs);
    }

    #[test]
    fn union_ids_are_exact() {
        let mut sets = EndSets::new(4);
        let ab = sets.union(0, 1);
        let abc = sets.union(ab, 2);
        assert_eq!(sets.union(0, 1), ab);
        assert_eq!(sets.union(EMPTY, abc), abc);
        assert_eq!(sets.len(abc), 3);
        assert_eq!(sets.members(abc), vec![0, 1, 2]);
        // A different fold order of the same set is a different id:
        // grouping may split twins but never merges unequal sets.
        let bc = sets.union(1, 2);
        let a_bc = sets.union(0, bc);
        assert_ne!(a_bc, abc);
        assert_eq!(sets.members(a_bc), sets.members(abc));
    }
}
