//! Exact deadlock analysis: a decision procedure for the existence of
//! deadlock-free routing, and provably minimal turn-disable synthesis.
//!
//! The Dally & Seitz theorem reduces deadlock freedom of a routing to
//! acyclicity of its channel dependency graph. This module answers the
//! *existence* question underneath it — given the network and the set
//! of end nodes that must communicate, does **any** deadlock-free
//! routing exist? — and constructs one when it does, following the
//! necessary-and-sufficient condition of Mendlovic & Matias
//! (arXiv:2503.04583): a deadlock-free routing exists iff the turn
//! graph (channels as vertices, permitted channel-to-channel turns as
//! edges) admits an **acyclic subgraph that preserves the required
//! connectivity**. Equivalently, iff there is a total order on
//! channels under which every required pair has a strictly-increasing
//! path; that order is exactly the machine-checkable certificate this
//! module emits.
//!
//! On ServerNet-style networks every cable is full-duplex (each link
//! is a channel pair), so the condition specializes cleanly: a
//! deadlock-free routing exists **iff every required pair is connected
//! in the surviving graph** — sufficiency is constructive (an
//! up*/down*-style order always exists on a connected component), and
//! necessity is trivial (a severed pair admits no routing at all).
//! Both branches of [`Decision`] therefore carry replayable evidence:
//!
//! * [`Witness`] — a concrete routing plus a channel rank vector; the
//!   replay check walks every path and verifies ranks strictly
//!   increase, which forces the CDG acyclic without trusting any part
//!   of the synthesis.
//! * [`Obstruction`] — the severed pairs with the surviving-component
//!   labelling that proves them severed; the replay check recomputes
//!   connectivity from scratch.
//!
//! The synthesis itself ([`synthesize_disables_exact`]) replaces the
//! first-routable-turn loop of
//! [`synthesize_disables`](crate::disables::synthesize_disables) with
//! a lazy exact loop: route every pair by shortest allowed path (one
//! BFS per source, [`route_from_masked`](crate::route_from_masked)),
//! enumerate the elementary cycles of the resulting CDG, solve a
//! branch-and-bound **minimum hitting set over the enumerated cycle
//! space** (seeded with the greedy result as upper bound and pruned by
//! a disjoint-cycle packing bound), disable exactly that set, and
//! repeat until the CDG is acyclic. `proven_minimal` is scoped
//! precisely: the disable count equals the proven minimum hitting set
//! of every cycle the enumeration surfaced — and is never claimed when
//! the enumeration was truncated or the node budget ran out, in which
//! case the solver falls back to the greedy synthesis and reports the
//! gap instead.

use crate::cdg::ChannelDependencyGraph;
use crate::disables::{synthesize_greedy, DisableSet, RowRouter, SynthesisError};
use fractanet_graph::hitting::{greedy_hitting_set, min_hitting_set};
use fractanet_graph::json::{JsonArray, JsonObject};
use fractanet_graph::{ChannelId, Network, NodeId};
use fractanet_route::{DeadMask, PairCoverage, RouteSet};
use std::collections::VecDeque;

/// Component label for masked-out (dead) nodes.
const DEAD: u32 = u32::MAX;

/// How many example pairs an obstruction records before switching to a
/// count.
const SAMPLE: usize = 8;

/// Budgets for the exact analysis. The defaults are sized so every
/// paper topology decides in well under a second; raise them for
/// larger or denser networks.
#[derive(Clone, Debug)]
pub struct ExactConfig {
    /// Elementary cycles enumerated per synthesis round.
    pub max_cycles: usize,
    /// DFS step cap for each enumeration.
    pub max_cycle_steps: usize,
    /// Branch-and-bound node budget per hitting-set solve; exceeding
    /// it degrades to greedy quality and clears `proven_minimal`.
    pub bb_node_budget: usize,
    /// Re-route / enumerate / solve rounds before falling back to the
    /// greedy synthesis.
    pub max_rounds: usize,
    /// Iteration cap handed to the greedy fallback synthesis.
    pub greedy_iterations: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig {
            max_cycles: 64,
            max_cycle_steps: 200_000,
            bb_node_budget: 200_000,
            max_rounds: 32,
            greedy_iterations: 400,
        }
    }
}

/// The decision: either a replayable witness routing or a replayable
/// proof that no routing (deadlock-free or otherwise) exists.
#[derive(Clone, Debug)]
pub enum Decision {
    /// A deadlock-free routing exists; here is one, certified.
    Free(Box<ExactSynthesis>),
    /// No routing exists at all: some required pair is physically
    /// unreachable, which the obstruction proves.
    NoRouting(Box<Obstruction>),
}

/// A witness routing with its acyclicity certificate.
#[derive(Clone, Debug)]
pub struct Witness {
    /// One path per ordered pair (empty for pairs the caller accepts
    /// as severed — the full-decision entry point accepts none).
    pub routes: RouteSet,
    /// The turns the routing forswears.
    pub disables: DisableSet,
    /// `rank[ch.index()]`: a total order on channels. Every path's
    /// channel sequence strictly increases in rank, which is the
    /// certificate that the CDG is acyclic.
    pub rank: Vec<u32>,
}

impl Witness {
    /// Re-verifies the certificate from scratch: every non-empty path
    /// starts at its source end node, ends at its destination, is
    /// channel-consecutive through router interiors, takes no U-turn
    /// and no disabled turn, and climbs strictly in `rank` — which
    /// forces the channel dependency graph acyclic without trusting
    /// the synthesis. Returns the number of covered (non-empty) pairs.
    pub fn replay(&self, net: &Network, ends: &[NodeId]) -> Result<usize, String> {
        if self.rank.len() != net.channel_count() {
            return Err(format!(
                "rank vector covers {} channels, network has {}",
                self.rank.len(),
                net.channel_count()
            ));
        }
        let mut covered = 0usize;
        for (s, d, p) in self.routes.pairs() {
            if p.is_empty() {
                continue;
            }
            covered += 1;
            if net.channel_src(p[0]) != ends[s] {
                return Err(format!("pair ({s},{d}): path does not start at source"));
            }
            if net.channel_dst(*p.last().expect("non-empty")) != ends[d] {
                return Err(format!("pair ({s},{d}): path does not end at destination"));
            }
            for w in p.windows(2) {
                let (a, b) = (w[0], w[1]);
                if net.channel_dst(a) != net.channel_src(b) {
                    return Err(format!("pair ({s},{d}): discontinuous at {a:?}->{b:?}"));
                }
                if !net.is_router(net.channel_dst(a)) {
                    return Err(format!("pair ({s},{d}): routes through an end node"));
                }
                if b == a.reverse() {
                    return Err(format!("pair ({s},{d}): U-turn at {a:?}"));
                }
                if self.disables.contains(a, b) {
                    return Err(format!("pair ({s},{d}): takes disabled turn {a:?}->{b:?}"));
                }
                if self.rank[a.index()] >= self.rank[b.index()] {
                    return Err(format!(
                        "pair ({s},{d}): rank does not increase over {a:?}->{b:?}"
                    ));
                }
            }
        }
        Ok(covered)
    }
}

/// The outcome of [`synthesize_disables_exact`]: a certified witness
/// routing plus the exactness accounting the lint layer reports.
#[derive(Clone, Debug)]
pub struct ExactSynthesis {
    /// The routing and its certificate.
    pub witness: Witness,
    /// Ordered pairs with a (non-empty) route.
    pub coverage: PairCoverage,
    /// Size of the greedy synthesis' disable set, for gap reporting
    /// (`usize::MAX` when the greedy synthesis itself failed).
    pub greedy_size: usize,
    /// Proven lower bound on any set hitting the enumerated cycles.
    pub lower_bound: usize,
    /// Distinct elementary cycles the synthesis enumerated (the space
    /// the minimality claim quantifies over).
    pub cycles_seen: usize,
    /// Whether the disable count is the proven minimum hitting set of
    /// the enumerated cycle space (branch and bound exhausted, cycle
    /// enumeration untruncated, no greedy fallback).
    pub proven_minimal: bool,
    /// Whether any cycle enumeration hit its cap — when true,
    /// minimality is never claimed.
    pub truncated: bool,
    /// Branch-and-bound nodes expanded across all rounds.
    pub bb_nodes: usize,
    /// Synthesis rounds used.
    pub rounds: usize,
    /// The channel dependencies `(a, b)` of the unrestricted routing —
    /// every required pair on its shortest path with no turn disabled,
    /// as the first round routes them — sorted. Empty when
    /// [`decide`] fell back to its up*/down* backstop.
    pub unrestricted_dependencies: Vec<(u32, u32)>,
}

impl ExactSynthesis {
    /// Number of turns disabled.
    pub fn disables(&self) -> usize {
        self.witness.disables.len()
    }

    /// The certificate as one JSON object — disables, channel ranks,
    /// coverage, and the exactness accounting — replayable by any
    /// consumer that can walk the network.
    pub fn certificate_json(&self) -> String {
        let mut disables: Vec<(u32, u32)> = self
            .witness
            .disables
            .iter()
            .map(|(a, b)| (a.0, b.0))
            .collect();
        disables.sort_unstable();
        let mut darr = JsonArray::new();
        for (a, b) in disables {
            darr.push_raw(&format!("[{a},{b}]"));
        }
        let mut rarr = JsonArray::new();
        for &r in &self.witness.rank {
            rarr.push_num(r);
        }
        JsonObject::new()
            .field_raw("disables", &darr.build())
            .field_raw("rank", &rarr.build())
            .field_num("covered_pairs", self.coverage.connected)
            .field_num("total_pairs", self.coverage.total)
            .field_bool("proven_minimal", self.proven_minimal)
            .field_num("lower_bound", self.lower_bound)
            .field_num("cycles", self.cycles_seen)
            .field_bool("truncated", self.truncated)
            .build()
    }
}

/// Proof that no routing exists for some required pair.
#[derive(Clone, Debug)]
pub struct Obstruction {
    /// Sample of unreachable ordered pairs (at most [`SAMPLE`]).
    pub pairs: Vec<(usize, usize)>,
    /// Total unreachable ordered pairs.
    pub affected: usize,
    /// Surviving-component label per end address (`u32::MAX` = the end
    /// node itself is dead) — the evidence: each listed pair's labels
    /// differ.
    pub end_components: Vec<u32>,
}

impl Obstruction {
    /// Re-proves the obstruction from scratch: recomputes surviving
    /// connectivity and checks that every recorded pair is genuinely
    /// unreachable and the total count matches.
    pub fn replay(
        &self,
        net: &Network,
        ends: &[NodeId],
        mask: Option<&DeadMask>,
    ) -> Result<(), String> {
        let comp = components(net, mask);
        let labels: Vec<u32> = ends.iter().map(|&e| comp[e.index()]).collect();
        if labels != self.end_components {
            return Err("recorded component labels do not match the network".into());
        }
        let mut affected = 0usize;
        for s in 0..ends.len() {
            for d in 0..ends.len() {
                if s != d && (labels[s] == DEAD || labels[d] == DEAD || labels[s] != labels[d]) {
                    affected += 1;
                }
            }
        }
        if affected != self.affected {
            return Err(format!(
                "recorded {} unreachable pairs, recount found {affected}",
                self.affected
            ));
        }
        for &(s, d) in &self.pairs {
            if labels[s] != DEAD && labels[s] == labels[d] {
                return Err(format!("pair ({s},{d}) is reachable after all"));
            }
        }
        Ok(())
    }
}

/// Surviving-component label per node (BFS over live channels in node
/// order, so labels are deterministic). Masked-out nodes get [`DEAD`].
fn components(net: &Network, mask: Option<&DeadMask>) -> Vec<u32> {
    let node_ok = |v: NodeId| mask.is_none_or(|m| m.node_ok(v));
    let ch_ok = |ch: ChannelId| mask.is_none_or(|m| m.channel_ok(net, ch));
    let mut comp = vec![DEAD; net.node_count()];
    let mut next = 0u32;
    for root in net.nodes() {
        if comp[root.index()] != DEAD || !node_ok(root) {
            continue;
        }
        comp[root.index()] = next;
        let mut q = VecDeque::from([root]);
        while let Some(v) = q.pop_front() {
            for &(ch, w) in net.channels_from(v) {
                if ch_ok(ch) && node_ok(w) && comp[w.index()] == DEAD {
                    comp[w.index()] = next;
                    q.push_back(w);
                }
            }
        }
        next += 1;
    }
    comp
}

/// The turn (edge) sets of each cycle, for hitting-set solving.
fn cycle_turn_sets(cycles: &[Vec<u32>]) -> Vec<Vec<(u32, u32)>> {
    cycles
        .iter()
        .map(|c| (0..c.len()).map(|i| (c[i], c[(i + 1) % c.len()])).collect())
        .collect()
}

/// The exact counterpart of the linter's greedy turn hitting set: the
/// provably minimum set of turns touching every enumerated cycle, by
/// branch and bound within `bb_node_budget` nodes.
#[derive(Clone, Debug)]
pub struct CycleDisables {
    /// The chosen turns (CDG edges `held -> wanted`), sorted.
    pub turns: Vec<(u32, u32)>,
    /// Size of the greedy hitting set over the same cycles.
    pub greedy_size: usize,
    /// Proven lower bound (disjoint-cycle packing).
    pub lower_bound: usize,
    /// Whether `turns.len()` is the proven minimum over these cycles.
    pub proven_minimal: bool,
    /// Branch-and-bound nodes expanded.
    pub bb_nodes: usize,
}

/// Solves the minimum turn-disable problem over an enumerated cycle
/// list exactly. Minimality is a statement about the given cycles
/// only; callers must not claim it when their enumeration was
/// truncated.
pub fn min_cycle_disables(cycles: &[Vec<u32>], bb_node_budget: usize) -> CycleDisables {
    let sets = cycle_turn_sets(cycles);
    let greedy = greedy_hitting_set(&sets);
    let sol = min_hitting_set(&sets, bb_node_budget);
    CycleDisables {
        turns: sol.chosen,
        greedy_size: greedy.len(),
        lower_bound: sol.lower_bound,
        proven_minimal: sol.proven_minimal,
        bb_nodes: sol.nodes_explored,
    }
}

/// Builds the rank certificate from an acyclic CDG: a topological
/// order of it, one rank per channel.
fn rank_certificate(net: &Network, cdg: &ChannelDependencyGraph) -> Option<Vec<u32>> {
    let order = cdg.graph().topo_sort()?;
    let mut rank = vec![0u32; net.channel_count()];
    for (pos, &v) in order.iter().enumerate() {
        rank[v as usize] = pos as u32;
    }
    Some(rank)
}

/// Certificate-producing route synthesis with an exact minimum
/// turn-disable core. See the module docs for the algorithm and the
/// precise scope of `proven_minimal`.
///
/// Severed pairs (under `mask`) are left unrouted; every pair that is
/// connected in the surviving network gets a path. Falls back to the
/// greedy Fig 2 synthesis — with the gap recorded — when a budget is
/// exceeded or the exact solution would disconnect a pair.
pub fn synthesize_disables_exact(
    net: &Network,
    ends: &[NodeId],
    mask: Option<&DeadMask>,
    cfg: &ExactConfig,
) -> Result<ExactSynthesis, SynthesisError> {
    let comp = components(net, mask);
    // Severed pairs (different surviving components, or a dead end)
    // stay unrouted; every other pair must route.
    let required = |s: usize, d: usize| {
        let (cs, cd) = (comp[ends[s].index()], comp[ends[d].index()]);
        cs != DEAD && cs == cd
    };
    let mut router = RowRouter::new(net, ends, mask);
    // Each round's routes are those of the candidate check that
    // admitted `chosen`; only the empty start is routed up front, and
    // its dependencies are the unrestricted routing's.
    let mut chosen = DisableSet::new();
    let (mut routes, mut covered) = router
        .route_pairs(&chosen, &required)
        .map_err(|(src, dst)| SynthesisError::Unroutable { src, dst })?;
    let first_cdg = ChannelDependencyGraph::from_routes(net, &routes);
    let unrestricted = first_cdg.dependencies();
    let mut first_cdg = Some(first_cdg);

    let finalize = |disables: DisableSet,
                    routes: RouteSet,
                    cdg: &ChannelDependencyGraph,
                    covered: usize,
                    greedy_size: usize,
                    lower_bound: usize,
                    cycles_seen: usize,
                    proven: bool,
                    truncated: bool,
                    bb_nodes: usize,
                    rounds: usize|
     -> Result<ExactSynthesis, SynthesisError> {
        let rank = rank_certificate(net, cdg).ok_or(SynthesisError::DidNotConverge {
            disables: disables.len(),
        })?;
        Ok(ExactSynthesis {
            witness: Witness {
                routes,
                disables,
                rank,
            },
            coverage: PairCoverage::of(covered, ends.len()),
            greedy_size,
            lower_bound,
            cycles_seen,
            proven_minimal: proven,
            truncated,
            bb_nodes,
            rounds,
            unrestricted_dependencies: unrestricted.clone(),
        })
    };

    let mut pool: Vec<Vec<(u32, u32)>> = Vec::new();
    let mut truncated = false;
    let mut lower_bound = 0usize;
    let mut bb_nodes = 0usize;
    let mut proven = true;

    for round in 0..cfg.max_rounds {
        let cdg = first_cdg
            .take()
            .unwrap_or_else(|| ChannelDependencyGraph::from_routes(net, &routes));
        if cdg.find_cycle().is_none() {
            // Greedy baseline for the gap report; when zero disables
            // sufficed the baseline is trivially zero too.
            let greedy_size = if chosen.is_empty() {
                0
            } else {
                synthesize_greedy(&mut router, &required, cfg.greedy_iterations)
                    .map(|g| g.disables.len())
                    .unwrap_or(usize::MAX)
            };
            return finalize(
                chosen,
                routes,
                &cdg,
                covered,
                greedy_size,
                lower_bound,
                pool.len(),
                proven && !truncated,
                truncated,
                bb_nodes,
                round,
            );
        }
        let (cycles, trunc) = cdg
            .graph()
            .elementary_cycles(cfg.max_cycles, cfg.max_cycle_steps);
        truncated |= trunc;
        let mut grew = false;
        for set in cycle_turn_sets(&cycles) {
            if !pool.contains(&set) {
                pool.push(set);
                grew = true;
            }
        }
        if !grew {
            // The (truncated) enumeration shows nothing new to hit —
            // the exact loop cannot make progress.
            break;
        }
        let sol = min_hitting_set(&pool, cfg.bb_node_budget);
        bb_nodes += sol.nodes_explored;
        lower_bound = lower_bound.max(sol.lower_bound);
        proven &= sol.proven_minimal;
        let mut candidate = DisableSet::new();
        for &(a, b) in &sol.chosen {
            candidate.insert(ChannelId(a), ChannelId(b));
        }
        match router.route_pairs(&candidate, &required) {
            Ok((rs, cov)) => {
                chosen = candidate;
                routes = rs;
                covered = cov;
            }
            // The exact minimum would disconnect a pair; minimality
            // under the routability side-constraint is out of scope.
            Err(_) => break,
        }
    }

    // Greedy fallback with gap accounting.
    let greedy = synthesize_greedy(&mut router, &required, cfg.greedy_iterations)?;
    let greedy_size = greedy.disables.len();
    finalize(
        greedy.disables,
        greedy.routes,
        &greedy.cdg,
        greedy.covered,
        greedy_size,
        lower_bound,
        pool.len(),
        false,
        truncated,
        bb_nodes,
        cfg.max_rounds,
    )
}

/// The decision procedure: does a deadlock-free routing exist for all
/// ordered pairs of `ends`? Total — always returns either a certified
/// witness or a replayable obstruction. See the module docs for the
/// condition this implements.
pub fn deadlock_free_routing_exists(net: &Network, ends: &[NodeId]) -> Decision {
    decide(net, ends, None, &ExactConfig::default())
}

/// [`deadlock_free_routing_exists`] with an explicit fault mask and
/// budgets — the form the healing fallback uses. Under a mask the
/// required pairs are those still connected in the surviving network;
/// an obstruction is returned only when *no* required pair computation
/// is possible, i.e. some pair of live end nodes is severed.
pub fn decide(
    net: &Network,
    ends: &[NodeId],
    mask: Option<&DeadMask>,
    cfg: &ExactConfig,
) -> Decision {
    let comp = components(net, mask);
    let labels: Vec<u32> = ends.iter().map(|&e| comp[e.index()]).collect();
    let mut sample = Vec::new();
    let mut affected = 0usize;
    for s in 0..ends.len() {
        for d in 0..ends.len() {
            if s != d && (labels[s] == DEAD || labels[d] == DEAD || labels[s] != labels[d]) {
                affected += 1;
                if sample.len() < SAMPLE {
                    sample.push((s, d));
                }
            }
        }
    }
    if affected > 0 {
        return Decision::NoRouting(Box::new(Obstruction {
            pairs: sample,
            affected,
            end_components: labels,
        }));
    }
    match synthesize_disables_exact(net, ends, mask, cfg) {
        Ok(synth) => Decision::Free(Box::new(synth)),
        Err(_) => {
            // Constructive sufficiency backstop: on a connected
            // full-duplex component an up*/down* order always exists,
            // so the witness construction cannot actually fail — but
            // keep the procedure total by building that routing
            // explicitly.
            let empty = DeadMask::new(net);
            let the_mask = mask.unwrap_or(&empty);
            let rep = fractanet_route::repair::repair_tables(net, ends, the_mask);
            let routes = fractanet_route::repair::trace_surviving(net, ends, the_mask, &rep.tables);
            let cdg = ChannelDependencyGraph::from_routes(net, &routes);
            let rank =
                rank_certificate(net, &cdg).expect("up*/down* routing is acyclic by construction");
            Decision::Free(Box::new(ExactSynthesis {
                witness: Witness {
                    routes,
                    disables: DisableSet::new(),
                    rank,
                },
                coverage: rep.coverage,
                greedy_size: usize::MAX,
                lower_bound: 0,
                cycles_seen: 0,
                proven_minimal: false,
                truncated: false,
                bb_nodes: 0,
                rounds: 0,
                unrestricted_dependencies: Vec::new(),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_deadlock_free;
    use fractanet_topo::{Hypercube, Mesh2D, Ring, Topology};

    #[test]
    fn decision_is_free_on_connected_topologies() {
        let h = Hypercube::new(3, 1, 6).unwrap();
        let Decision::Free(synth) = deadlock_free_routing_exists(h.net(), h.end_nodes()) else {
            panic!("3-cube must admit deadlock-free routing");
        };
        let covered = synth.witness.replay(h.net(), h.end_nodes()).unwrap();
        let n = h.end_nodes().len();
        assert_eq!(covered, n * (n - 1));
        assert!(verify_deadlock_free(h.net(), &synth.witness.routes).is_ok());
    }

    #[test]
    fn decision_obstruction_on_severed_network() {
        let r = Ring::new(4, 1, 6).unwrap();
        let mut mask = DeadMask::new(r.net());
        // Killing two opposite links splits the ring in half.
        let mut router_links = r.net().links().filter(|&l| {
            let info = r.net().link(l);
            r.net().is_router(info.a.0) && r.net().is_router(info.b.0)
        });
        let l0 = router_links.next().unwrap();
        let l2 = router_links.nth(1).unwrap();
        mask.kill_link(l0);
        mask.kill_link(l2);
        let d = decide(r.net(), r.end_nodes(), Some(&mask), &ExactConfig::default());
        let Decision::NoRouting(obs) = d else {
            panic!("severed ring must yield an obstruction");
        };
        assert!(obs.affected > 0);
        obs.replay(r.net(), r.end_nodes(), Some(&mask)).unwrap();
        // The obstruction does not replay against the unmasked net.
        assert!(obs.replay(r.net(), r.end_nodes(), None).is_err());
    }

    #[test]
    fn exact_synthesis_not_larger_than_greedy_on_cube() {
        let h = Hypercube::new(3, 1, 6).unwrap();
        let synth =
            synthesize_disables_exact(h.net(), h.end_nodes(), None, &ExactConfig::default())
                .unwrap();
        assert!(verify_deadlock_free(h.net(), &synth.witness.routes).is_ok());
        assert!(synth.disables() <= synth.greedy_size, "{synth:?}");
        assert!(synth.lower_bound <= synth.disables());
        synth.witness.replay(h.net(), h.end_nodes()).unwrap();
    }

    #[test]
    fn mesh_free_routing_synthesizes_clean() {
        let m = Mesh2D::new(3, 3, 1, 6).unwrap();
        let synth =
            synthesize_disables_exact(m.net(), m.end_nodes(), None, &ExactConfig::default())
                .unwrap();
        assert!(verify_deadlock_free(m.net(), &synth.witness.routes).is_ok());
        synth.witness.replay(m.net(), m.end_nodes()).unwrap();
    }

    #[test]
    fn witness_replay_rejects_tampering() {
        let h = Hypercube::new(2, 1, 6).unwrap();
        let Decision::Free(mut synth) = deadlock_free_routing_exists(h.net(), h.end_nodes()) else {
            panic!("2-cube must be Free");
        };
        synth.witness.replay(h.net(), h.end_nodes()).unwrap();
        // Corrupt the rank of the first channel of some path: replay
        // must notice the order violation.
        let victim = synth.witness.routes.path(0, 1)[0];
        synth.witness.rank[victim.index()] = u32::MAX;
        assert!(synth.witness.replay(h.net(), h.end_nodes()).is_err());
    }

    #[test]
    fn certificate_json_is_well_formed() {
        let r = Ring::new(4, 1, 6).unwrap();
        let Decision::Free(synth) = deadlock_free_routing_exists(r.net(), r.end_nodes()) else {
            panic!("ring must be Free");
        };
        let j = synth.certificate_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"disables\":["));
        assert!(j.contains("\"rank\":["));
        assert!(j.contains("\"proven_minimal\":"));
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn min_cycle_disables_pins_the_ring() {
        // The two wrap cycles of the shortest-routed 4-ring are
        // edge-disjoint: the exact minimum is one turn each.
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = crate::disables::route_all(r.net(), r.end_nodes(), &DisableSet::new()).unwrap();
        let _ = rs; // free routing may be acyclic; use the canonical cyclic tables instead
        let cycles = vec![vec![0u32, 2, 4, 6], vec![7, 5, 3, 1]];
        let sol = min_cycle_disables(&cycles, 100_000);
        assert_eq!(sol.turns.len(), 2);
        assert!(sol.proven_minimal);
        assert_eq!(sol.lower_bound, 2);
        assert!(sol.greedy_size >= 2);
    }
}
