//! Path-disable synthesis — the Figure 2 technique, automated.
//!
//! "Figure 2 shows a 3-dimensional hypercube with certain paths
//! disallowed in order to break cycles. By designating specific paths
//! to be disabled, the routing algorithm is less restrictive than
//! dimension-order routing."
//!
//! A *disable* here is a forbidden turn: an ordered pair of channels
//! `(in, out)` that no route may take consecutively — exactly what the
//! ServerNet router's path-disable registers enforce in hardware
//! ("path disable logic that can be set to enforce the elimination of
//! the loops, even if the routing table is corrupted by a fault",
//! §2.4). Synthesis iterates: route every pair by shortest allowed
//! path, build the channel dependency graph, and when a cycle remains,
//! disable one turn on it (preferring a turn whose removal keeps every
//! pair routable), until the CDG is acyclic.
//!
//! Routing runs one channel-space BFS per source, which yields the
//! shortest allowed path to every destination at once
//! ([`route_from_masked`]); it is the only path search in the crate.

use crate::cdg::ChannelDependencyGraph;
use fractanet_graph::{ChannelId, Network, NodeId};
use fractanet_route::{DeadMask, RouteSet};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// A set of forbidden channel→channel turns.
#[derive(Clone, Debug, Default)]
pub struct DisableSet {
    forbidden: HashSet<(u32, u32)>,
}

impl DisableSet {
    /// The empty set: all turns allowed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forbids taking `out` immediately after `in_`.
    pub fn insert(&mut self, in_: ChannelId, out: ChannelId) {
        self.forbidden.insert((in_.0, out.0));
    }

    /// Whether the turn is forbidden.
    pub fn contains(&self, in_: ChannelId, out: ChannelId) -> bool {
        self.forbidden.contains(&(in_.0, out.0))
    }

    /// Number of disabled turns.
    pub fn len(&self) -> usize {
        self.forbidden.len()
    }

    /// Whether no turn is disabled.
    pub fn is_empty(&self) -> bool {
        self.forbidden.is_empty()
    }

    /// Iterates the disabled turns.
    pub fn iter(&self) -> impl Iterator<Item = (ChannelId, ChannelId)> + '_ {
        self.forbidden
            .iter()
            .map(|&(a, b)| (ChannelId(a), ChannelId(b)))
    }
}

/// Errors from [`synthesize_disables`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthesisError {
    /// Some end-node pair has no allowed path (before any disable was
    /// added — a disconnected network).
    Unroutable {
        /// Source address.
        src: usize,
        /// Destination address.
        dst: usize,
    },
    /// Every candidate turn on a remaining cycle would disconnect some
    /// pair, or the iteration cap was reached.
    DidNotConverge {
        /// Disables accumulated before giving up.
        disables: usize,
    },
}

impl fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthesisError::Unroutable { src, dst } => {
                write!(f, "no allowed path from {src} to {dst}")
            }
            SynthesisError::DidNotConverge { disables } => {
                write!(
                    f,
                    "disable synthesis did not converge ({disables} turns disabled)"
                )
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// Shortest allowed paths from one source to every destination: BFS
/// in channel space (states are channels; U-turns are always
/// forbidden), restricted to channels and routers that survive a
/// fault mask (`None` = everything alive). `row[d]` is the path to
/// `ends[d]` — empty on the diagonal, `None` when no allowed path
/// exists.
///
/// The BFS explores in FIFO order whatever the target is, and end
/// nodes are leaves, so the first popped channel into `ends[d]` carries
/// exactly the path a search that stopped at `ends[d]` would return
/// (DESIGN.md §12).
pub fn route_from_masked(
    net: &Network,
    ends: &[NodeId],
    disables: &DisableSet,
    mask: Option<&DeadMask>,
    src: usize,
) -> Vec<Option<Vec<ChannelId>>> {
    let mut bfs = RowRouter::new(net, ends, mask);
    bfs.search(disables, src);
    (0..ends.len()).map(|d| bfs.path(d)).collect()
}

/// The one shortest-allowed-path search, with its scratch kept across
/// sources: [`RowRouter::search`] runs a source's BFS, after which
/// [`RowRouter::path`] reads that source's row.
pub(crate) struct RowRouter<'a> {
    net: &'a Network,
    ends: &'a [NodeId],
    mask: Option<&'a DeadMask>,
    /// Source of the last search.
    src: usize,
    /// Predecessor channel of each reached channel.
    prev: Vec<Option<ChannelId>>,
    seen: Vec<bool>,
    /// First popped channel into each node.
    first_in: Vec<Option<ChannelId>>,
    queue: VecDeque<ChannelId>,
}

impl<'a> RowRouter<'a> {
    pub(crate) fn new(net: &'a Network, ends: &'a [NodeId], mask: Option<&'a DeadMask>) -> Self {
        RowRouter {
            net,
            ends,
            mask,
            src: 0,
            prev: vec![None; net.channel_count()],
            seen: vec![false; net.channel_count()],
            first_in: vec![None; net.node_count()],
            queue: VecDeque::new(),
        }
    }

    /// Runs the BFS from `ends[src]` to exhaustion.
    pub(crate) fn search(&mut self, disables: &DisableSet, src: usize) {
        let net = self.net;
        let mask = self.mask;
        let alive_node = |v: NodeId| mask.is_none_or(|m| m.node_ok(v));
        let alive_ch = |ch: ChannelId| mask.is_none_or(|m| m.channel_ok(net, ch));
        self.src = src;
        self.first_in.fill(None);
        if !alive_node(self.ends[src]) {
            return;
        }
        let Some(&(inject, first_router)) = net.channels_from(self.ends[src]).first() else {
            return;
        };
        if !alive_ch(inject) || !alive_node(first_router) {
            return;
        }
        self.seen.fill(false);
        self.seen[inject.index()] = true;
        self.prev[inject.index()] = None;
        self.queue.clear();
        self.queue.push_back(inject);
        while let Some(ch) = self.queue.pop_front() {
            let here = net.channel_dst(ch);
            self.first_in[here.index()].get_or_insert(ch);
            if !net.is_router(here) {
                continue; // arrived at an end node: a leaf
            }
            for &(out, next) in net.channels_from(here) {
                if out == ch.reverse()
                    || self.seen[out.index()]
                    || disables.contains(ch, out)
                    || !alive_ch(out)
                    || !alive_node(next)
                {
                    continue;
                }
                self.seen[out.index()] = true;
                self.prev[out.index()] = Some(ch);
                self.queue.push_back(out);
            }
        }
    }

    /// The last search's path to `ends[dst]`.
    pub(crate) fn path(&self, dst: usize) -> Option<Vec<ChannelId>> {
        if dst == self.src {
            return Some(Vec::new());
        }
        let mut cur = self.first_in[self.ends[dst].index()]?;
        let mut path = vec![cur];
        while let Some(p) = self.prev[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Routes every pair `required` accepts, one search per source;
    /// other pairs get empty paths. Returns the routes and the number
    /// of routed pairs, or `Err((src, dst))` naming the first required
    /// pair with no allowed path.
    pub(crate) fn route_pairs(
        &mut self,
        disables: &DisableSet,
        required: &dyn Fn(usize, usize) -> bool,
    ) -> Result<(RouteSet, usize), (usize, usize)> {
        let mut failed = None;
        let mut covered = 0usize;
        let mut searched = None;
        let rs = RouteSet::from_pairs(self.ends.len(), |s, d| {
            if !required(s, d) {
                return Vec::new();
            }
            if searched != Some(s) {
                self.search(disables, s);
                searched = Some(s);
            }
            match self.path(d) {
                Some(p) => {
                    covered += 1;
                    p
                }
                None => {
                    failed.get_or_insert((s, d));
                    Vec::new()
                }
            }
        });
        match failed {
            Some(pair) => Err(pair),
            None => Ok((rs, covered)),
        }
    }
}

/// Routes every pair under a disable set; `Err((src, dst))` names the
/// first unroutable pair.
pub fn route_all(
    net: &Network,
    ends: &[NodeId],
    disables: &DisableSet,
) -> Result<RouteSet, (usize, usize)> {
    RowRouter::new(net, ends, None)
        .route_pairs(disables, &|_, _| true)
        .map(|(rs, _)| rs)
}

/// A converged greedy synthesis.
pub(crate) struct Greedy {
    pub(crate) disables: DisableSet,
    pub(crate) routes: RouteSet,
    /// Pairs with a (non-empty) route.
    pub(crate) covered: usize,
    /// The acyclic CDG of `routes`.
    pub(crate) cdg: ChannelDependencyGraph,
}

/// The Fig 2 loop over the pairs `required` accepts: route them, and
/// while the CDG has a cycle, disable the first turn on it that keeps
/// every required pair routable.
pub(crate) fn synthesize_greedy(
    router: &mut RowRouter<'_>,
    required: &dyn Fn(usize, usize) -> bool,
    max_iterations: usize,
) -> Result<Greedy, SynthesisError> {
    let net = router.net;
    let mut disables = DisableSet::new();
    let (mut routes, mut covered) = router
        .route_pairs(&disables, required)
        .map_err(|(src, dst)| SynthesisError::Unroutable { src, dst })?;

    for _ in 0..max_iterations {
        let cdg = ChannelDependencyGraph::from_routes(net, &routes);
        let Some(cycle) = cdg.find_cycle() else {
            return Ok(Greedy {
                disables,
                routes,
                covered,
                cdg,
            });
        };
        // Try each turn on the cycle; keep the first that stays
        // routable.
        let mut advanced = false;
        for i in 0..cycle.len() {
            let a = cycle[i];
            let b = cycle[(i + 1) % cycle.len()];
            let mut candidate = disables.clone();
            candidate.insert(a, b);
            if let Ok((rs, cov)) = router.route_pairs(&candidate, required) {
                disables = candidate;
                routes = rs;
                covered = cov;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return Err(SynthesisError::DidNotConverge {
                disables: disables.len(),
            });
        }
    }
    // A disable inserted on the final allowed iteration may already
    // have made the CDG acyclic — check once more before reporting
    // non-convergence.
    let cdg = ChannelDependencyGraph::from_routes(net, &routes);
    if cdg.find_cycle().is_none() {
        return Ok(Greedy {
            disables,
            routes,
            covered,
            cdg,
        });
    }
    Err(SynthesisError::DidNotConverge {
        disables: disables.len(),
    })
}

/// Iteratively disables turns until the channel dependency graph is
/// acyclic. Returns the disable set and the final (deadlock-free)
/// routes.
pub fn synthesize_disables(
    net: &Network,
    ends: &[NodeId],
    max_iterations: usize,
) -> Result<(DisableSet, RouteSet), SynthesisError> {
    let mut router = RowRouter::new(net, ends, None);
    synthesize_greedy(&mut router, &|_, _| true, max_iterations).map(|g| (g.disables, g.routes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_deadlock_free;
    use fractanet_topo::{Hypercube, Ring, Topology};

    #[test]
    fn unrestricted_routing_is_minimal() {
        let h = Hypercube::new(3, 1, 6).unwrap();
        let rs = route_all(h.net(), h.end_nodes(), &DisableSet::new()).unwrap();
        for (s, d, p) in rs.pairs() {
            let hamming = (h.corner_of_addr(s) ^ h.corner_of_addr(d)).count_ones() as usize;
            assert_eq!(p.len() - 1, hamming + 1, "{s}->{d}");
        }
    }

    #[test]
    fn synthesis_breaks_hypercube_cycles() {
        // The Fig 2 experiment: a 3-cube routed greedily deadlocks;
        // after synthesis the CDG is acyclic and everything still
        // routes.
        let h = Hypercube::new(3, 1, 6).unwrap();
        let before = route_all(h.net(), h.end_nodes(), &DisableSet::new()).unwrap();
        // (Greedy shortest-path routing on a cube is not guaranteed
        // cyclic, but with build-order tie-breaks it is.)
        let had_cycle = verify_deadlock_free(h.net(), &before).is_err();
        let (disables, routes) = synthesize_disables(h.net(), h.end_nodes(), 200).unwrap();
        assert!(verify_deadlock_free(h.net(), &routes).is_ok());
        if had_cycle {
            assert!(!disables.is_empty(), "breaking cycles requires disables");
        }
        // Still fully routable (route_all succeeded inside synthesis).
        for (s, d, p) in routes.pairs() {
            assert_eq!(
                h.net().channel_dst(*p.last().unwrap()),
                h.end_nodes()[d],
                "{s}->{d}"
            );
        }
    }

    #[test]
    fn synthesis_fixes_rings() {
        // Greedy tie-breaks happen to route the 4-ring acyclically, so
        // sweep several sizes: whatever the starting point, synthesis
        // must end deadlock-free, and disables appear exactly when the
        // unrestricted CDG had a cycle.
        for n in 4..=7usize {
            let r = Ring::new(n, 1, 6).unwrap();
            let before = route_all(r.net(), r.end_nodes(), &DisableSet::new()).unwrap();
            let had_cycle = verify_deadlock_free(r.net(), &before).is_err();
            let (disables, routes) = synthesize_disables(r.net(), r.end_nodes(), 100).unwrap();
            assert!(verify_deadlock_free(r.net(), &routes).is_ok(), "ring {n}");
            assert_eq!(!disables.is_empty(), had_cycle, "ring {n}");
        }
    }

    #[test]
    fn synthesis_converging_exactly_at_max_iterations_succeeds() {
        // Regression: a disable inserted on the final allowed
        // iteration used to be reported as DidNotConverge without a
        // last acyclicity check. Find a ring whose greedy routing needs
        // disables, measure how many, then re-run with a budget of
        // exactly that many iterations: every iteration inserts one
        // disable, the loop ends, and only the post-loop CDG check can
        // notice success.
        let (r, k) = (4..=9usize)
            .find_map(|n| {
                let r = Ring::new(n, 1, 6).unwrap();
                let (disables, _) = synthesize_disables(r.net(), r.end_nodes(), 200).unwrap();
                let k = disables.len();
                (k > 0).then_some((r, k))
            })
            .expect("some ring size needs disables under build-order ties");
        let tight = synthesize_disables(r.net(), r.end_nodes(), k);
        let (tight_disables, routes) = tight.expect("convergence on the last iteration is success");
        assert_eq!(tight_disables.len(), k);
        assert!(verify_deadlock_free(r.net(), &routes).is_ok());
        // One fewer iteration genuinely cannot converge.
        let err = synthesize_disables(r.net(), r.end_nodes(), k - 1)
            .map(|(d, _)| d.len())
            .expect_err("k-1 iterations must not suffice");
        assert_eq!(err, SynthesisError::DidNotConverge { disables: k - 1 });
    }

    #[test]
    fn disable_set_basics() {
        let mut d = DisableSet::new();
        assert!(d.is_empty());
        d.insert(ChannelId(0), ChannelId(2));
        d.insert(ChannelId(0), ChannelId(2));
        assert_eq!(d.len(), 1);
        assert!(d.contains(ChannelId(0), ChannelId(2)));
        assert!(!d.contains(ChannelId(2), ChannelId(0)));
        assert_eq!(d.iter().count(), 1);
    }

    #[test]
    fn route_from_respects_disables() {
        // Disable the only turn of a 2-router path: the pair becomes
        // unroutable.
        use fractanet_graph::{LinkClass, Network, PortId};
        let mut net = Network::new();
        let r0 = net.add_router("r0", 6);
        let r1 = net.add_router("r1", 6);
        net.connect(r0, PortId(0), r1, PortId(0), LinkClass::Local)
            .unwrap();
        let n0 = net.add_end_node("n0");
        let n1 = net.add_end_node("n1");
        net.connect(r0, PortId(1), n0, PortId(0), LinkClass::Attach)
            .unwrap();
        net.connect(r1, PortId(1), n1, PortId(0), LinkClass::Attach)
            .unwrap();
        let ends = vec![n0, n1];

        let free = route_from_masked(&net, &ends, &DisableSet::new(), None, 0)[1]
            .clone()
            .unwrap();
        assert_eq!(free.len(), 3);
        let mut d = DisableSet::new();
        d.insert(free[0], free[1]);
        assert!(route_from_masked(&net, &ends, &d, None, 0)[1].is_none());
    }

    #[test]
    fn u_turns_never_taken() {
        let h = Hypercube::new(2, 1, 6).unwrap();
        let rs = route_all(h.net(), h.end_nodes(), &DisableSet::new()).unwrap();
        for (_, _, p) in rs.pairs() {
            for w in p.windows(2) {
                assert_ne!(w[1], w[0].reverse(), "route took a U-turn");
            }
        }
    }
}
