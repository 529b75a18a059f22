//! Per-destination routing forests.
//!
//! Table routing is a function of `(router, destination)`, so every
//! route toward one destination follows the same next hop out of each
//! router it crosses: together they form an in-forest rooted at the
//! destination end node (a forest rather than a tree when some
//! routers' entries fail). [`DestForest`] resolves that forest once
//! per destination — each node's outgoing channel, whether its walk
//! reaches the target, and its hop depth — with every result memoized,
//! so one destination costs O(nodes) and a whole table O(nodes · N)
//! instead of the O(N² · path length) of tracing every pair.
//!
//! The resolution agrees with [`Routes::trace_into`] pair for pair: a
//! pair's route succeeds exactly when its source's first-hop node
//! resolves, its channels are the injection channel followed by the
//! forest hops from there to the target, and a failing route fails
//! for the reason ([`Failure`]) recorded on that node.
//!
//! [`DestForest::routed`] lists the routed nodes, each after its next
//! hop, so one pass in that order carries a verdict from the target
//! out to every node (a path property, such as "crosses a dead
//! channel"), and one pass in reverse sums over subtrees (the sources
//! behind a channel).

use crate::table::Routes;
use fractanet_graph::{ChannelId, Network, NodeId};

/// Not yet visited for the current destination.
const UNSEEN: u32 = u32::MAX;
/// On the walk currently being resolved (meeting it again is a loop).
const ON_STACK: u32 = u32::MAX - 1;
/// The walk from here enters a forwarding loop.
const LOOPS: u32 = u32::MAX - 2;
/// The walk from here delivers into the wrong end node.
const MISDELIVERS: u32 = u32::MAX - 3;
/// The walk from here meets a missing entry or a vacant port.
const UNROUTED: u32 = u32::MAX - 4;

/// Why a node's walk toward the destination fails — the
/// [`RouteError`](crate::RouteError) a pair trace from there reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// A missing table entry or an entry naming a vacant port.
    Unrouted,
    /// Delivery into an end node other than the destination.
    Misdelivered,
    /// The walk revisits a router.
    Loop,
}

/// One destination's routes as an in-forest over the network's nodes,
/// re-resolved in place by [`DestForest::resolve`] so scratch storage
/// is allocated once for a sweep over all destinations.
pub struct DestForest<'a> {
    net: &'a Network,
    ends: &'a [NodeId],
    routes: &'a Routes,
    dst: usize,
    /// Hops from each node to the target, or one of the sentinels.
    depth: Vec<u32>,
    /// Each resolved non-target node's outgoing channel.
    out: Vec<ChannelId>,
    stack: Vec<NodeId>,
    /// Every node whose walk reaches the target, each after its next
    /// hop.
    order: Vec<NodeId>,
}

impl<'a> DestForest<'a> {
    /// Scratch for walking `routes` over `net`; call
    /// [`DestForest::resolve`] before reading it.
    pub fn new(net: &'a Network, ends: &'a [NodeId], routes: &'a Routes) -> Self {
        let n = net.node_count();
        DestForest {
            net,
            ends,
            routes,
            dst: usize::MAX,
            depth: vec![UNSEEN; n],
            out: vec![ChannelId(0); n],
            stack: Vec::new(),
            order: Vec::with_capacity(n),
        }
    }

    /// Resolves every node's route toward destination address `dst`,
    /// replacing the previous destination's forest. O(nodes).
    pub fn resolve(&mut self, dst: usize) {
        self.dst = dst;
        self.depth.fill(UNSEEN);
        self.depth[self.ends[dst].index()] = 0;
        self.order.clear();
        self.order.push(self.ends[dst]);
        for v in 0..self.depth.len() {
            if self.depth[v] == UNSEEN {
                self.resolve_from(NodeId(v as u32));
            }
        }
    }

    /// Walks forward from `start` until a resolved node, the target or
    /// a failure, then assigns depths back along the walk — so each
    /// routed node joins `order` right after its next hop resolved.
    fn resolve_from(&mut self, start: NodeId) {
        let mut v = start;
        let mut depth = loop {
            match self.depth[v.index()] {
                UNSEEN => {}
                ON_STACK => break LOOPS,
                d => break d,
            }
            let ch = match self.forward(v) {
                Ok(ch) => ch,
                Err(failed) => {
                    self.depth[v.index()] = failed;
                    break failed;
                }
            };
            self.depth[v.index()] = ON_STACK;
            self.out[v.index()] = ch;
            self.stack.push(v);
            v = self.net.channel_dst(ch);
        };
        while let Some(u) = self.stack.pop() {
            if depth < UNROUTED {
                depth += 1;
                self.order.push(u);
            }
            self.depth[u.index()] = depth;
        }
    }

    /// The channel a packet for the current destination leaves `v` by,
    /// or why the walk fails right here: no entry (end nodes have
    /// none), a vacant port, or delivery into the wrong end node.
    fn forward(&self, v: NodeId) -> Result<ChannelId, u32> {
        let port = self.routes.get(v, self.dst).ok_or(UNROUTED)?;
        let ch = self.net.channel_out(v, port).ok_or(UNROUTED)?;
        let next = self.net.channel_dst(ch);
        if self.net.is_router(next) || next == self.ends[self.dst] {
            Ok(ch)
        } else {
            Err(MISDELIVERS)
        }
    }

    /// Hops from `v` to the destination end node (0 at the target), or
    /// `None` when the walk from `v` fails.
    pub fn depth(&self, v: NodeId) -> Option<usize> {
        let d = self.depth[v.index()];
        (d < UNROUTED).then_some(d as usize)
    }

    /// Why the walk from `v` fails, or `None` when it reaches the
    /// target.
    pub fn failure(&self, v: NodeId) -> Option<Failure> {
        match self.depth[v.index()] {
            UNROUTED => Some(Failure::Unrouted),
            MISDELIVERS => Some(Failure::Misdelivered),
            LOOPS => Some(Failure::Loop),
            _ => None,
        }
    }

    /// The channel `v` forwards on, when `v`'s walk reaches the target
    /// and `v` is not the target itself.
    pub fn hop(&self, v: NodeId) -> Option<ChannelId> {
        match self.depth[v.index()] {
            0 => None,
            d if d < UNROUTED => Some(self.out[v.index()]),
            _ => None,
        }
    }

    /// Every node whose walk reaches the target, the target first and
    /// each node after the node it forwards to. Reversed, it visits
    /// every subtree before its root.
    pub fn routed(&self) -> &[NodeId] {
        &self.order
    }

    /// The injection channel of source address `src` and the node it
    /// leads to — the first hop of every route from `src`.
    pub fn inject(&self, src: usize) -> (ChannelId, NodeId) {
        *self
            .net
            .channels_from(self.ends[src])
            .first()
            .expect("end node must be attached")
    }

    /// Router hops of the route from `src` to the current destination
    /// (its channel count minus the injection channel), or `None` when
    /// the route fails to trace.
    pub fn route_hops(&self, src: usize) -> Option<usize> {
        self.depth(self.inject(src).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RouteError;
    use fractanet_graph::{LinkClass, PortId};

    /// n0 - r0 - r1 - n1, plus n2 on r1.
    fn line() -> (Network, Vec<NodeId>, NodeId, NodeId) {
        let mut net = Network::new();
        let r0 = net.add_router("r0", 6);
        let r1 = net.add_router("r1", 6);
        net.connect(r0, PortId(0), r1, PortId(0), LinkClass::Local)
            .unwrap();
        let ends: Vec<NodeId> = (0..3).map(|i| net.add_end_node(format!("n{i}"))).collect();
        net.connect(r0, PortId(1), ends[0], PortId(0), LinkClass::Attach)
            .unwrap();
        net.connect(r1, PortId(1), ends[1], PortId(0), LinkClass::Attach)
            .unwrap();
        net.connect(r1, PortId(2), ends[2], PortId(0), LinkClass::Attach)
            .unwrap();
        (net, ends, r0, r1)
    }

    /// Every pair's forest answer against the pair tracer.
    fn assert_agrees_with_trace(net: &Network, ends: &[NodeId], routes: &Routes) {
        let mut forest = DestForest::new(net, ends, routes);
        for d in 0..ends.len() {
            forest.resolve(d);
            for s in (0..ends.len()).filter(|&s| s != d) {
                let traced = routes.trace(net, ends, s, d);
                assert_eq!(
                    forest.route_hops(s),
                    traced.as_ref().ok().map(|p| p.len() - 1),
                    "{s}->{d}: {traced:?}"
                );
                let failure = match &traced {
                    Ok(_) => None,
                    Err(RouteError::MissingEntry { .. } | RouteError::DeadPort { .. }) => {
                        Some(Failure::Unrouted)
                    }
                    Err(RouteError::Misdelivered { .. }) => Some(Failure::Misdelivered),
                    Err(RouteError::ForwardingLoop { .. }) => Some(Failure::Loop),
                };
                assert_eq!(forest.failure(forest.inject(s).1), failure, "{s}->{d}");
                if let Ok(p) = traced {
                    let (inject, mut v) = forest.inject(s);
                    let mut walked = vec![inject];
                    while let Some(ch) = forest.hop(v) {
                        walked.push(ch);
                        v = net.channel_dst(ch);
                    }
                    assert_eq!(walked, p, "{s}->{d}");
                }
            }
            let order = forest.routed();
            let routed = net.nodes().filter(|&v| forest.depth(v).is_some()).count();
            assert_eq!(order.len(), routed);
            assert_eq!(order.first(), Some(&ends[d]));
            for (i, &v) in order.iter().enumerate() {
                if let Some(ch) = forest.hop(v) {
                    let next = net.channel_dst(ch);
                    assert!(order[..i].contains(&next), "{v:?} precedes {next:?}");
                }
            }
        }
    }

    #[test]
    fn complete_tables_resolve_every_route() {
        let (net, ends, r0, r1) = line();
        let mut routes = Routes::new(&net, 3);
        routes.set(r0, 0, PortId(1));
        routes.set(r1, 0, PortId(0));
        for d in 1..3 {
            routes.set(r0, d, PortId(0));
            routes.set(r1, d, PortId(d as u8));
        }
        let mut forest = DestForest::new(&net, &ends, &routes);
        forest.resolve(1);
        assert_eq!(forest.depth(ends[1]), Some(0));
        assert_eq!(forest.depth(r1), Some(1));
        assert_eq!(forest.depth(r0), Some(2));
        assert_eq!(forest.route_hops(0), Some(2));
        assert_eq!(forest.route_hops(2), Some(1));
        assert_eq!(forest.hop(ends[1]), None);
        assert_agrees_with_trace(&net, &ends, &routes);
    }

    #[test]
    fn failures_match_the_pair_tracer() {
        let (net, ends, r0, r1) = line();
        let mut routes = Routes::new(&net, 3);
        // dst 0: missing entry on r1.
        routes.set(r0, 0, PortId(1));
        // dst 1: r0 and r1 bounce it between each other (loop).
        routes.set(r0, 1, PortId(0));
        routes.set(r1, 1, PortId(0));
        // dst 2: r1 misdelivers into n1; r0 points at a vacant port.
        routes.set(r1, 2, PortId(1));
        routes.set(r0, 2, PortId(5));
        let mut forest = DestForest::new(&net, &ends, &routes);
        forest.resolve(0);
        assert_eq!(forest.depth(r0), Some(1));
        assert_eq!(forest.depth(r1), None);
        assert_eq!(forest.failure(r1), Some(Failure::Unrouted));
        for d in 1..3 {
            forest.resolve(d);
            assert_eq!(forest.depth(r0), None, "dst {d}");
            assert_eq!(forest.depth(r1), None, "dst {d}");
            assert_eq!(forest.hop(r0), None, "dst {d}");
        }
        forest.resolve(1);
        assert_eq!(forest.failure(r0), Some(Failure::Loop));
        forest.resolve(2);
        assert_eq!(forest.failure(r1), Some(Failure::Misdelivered));
        assert_eq!(forest.failure(r0), Some(Failure::Unrouted));
        assert_eq!(forest.routed(), &[ends[2]]);
        assert_agrees_with_trace(&net, &ends, &routes);
    }
}
