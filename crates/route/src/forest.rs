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
//!
//! Every hop read is one load from a flat array (DESIGN.md §13): the
//! forest snapshots the table columns destination-major, a block of
//! 64 destinations at a time, and keeps `(node, port) → channel`
//! and `channel → (far end, source port)` as dense arrays, so no walk
//! goes through a router's row, its port list and the link record.
//!
//! [`DestForest::sweep`] is the one loop over destinations: it
//! resolves each forest once and hands it to every [`ForestConsumer`],
//! so analyses reading the same tables share the resolution. Forests
//! of different destinations are independent, so the sweep shards the
//! destinations into contiguous runs of whole column blocks, one per
//! worker of the [`pool`], each with its own forest and its own
//! consumer states, and merges the shards in address order
//! (DESIGN.md §10, §13). Every consumer's merge is exact, so the result is
//! the same at every width.

use crate::table::{Routes, NO_ENTRY};
use fractanet_graph::{pool, ChannelId, Network, NodeId};
use std::ops::Range;

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

/// A `(node, port)` slot with no cable.
const VACANT: u32 = u32::MAX;

/// Destinations per column snapshot: table columns are transposed
/// destination-major this many at a time, so each router row is read
/// in runs of contiguous bytes and the snapshot stays O(nodes).
const BLOCK: usize = 64;

/// Work, in nodes × addresses, each shard of a [`DestForest::sweep`]
/// must have before the sweep forks: below twice this a sweep runs on
/// one shard at any width, so the paper's specs (at most 7 776 units,
/// `mesh:6x6`) never pay for a thread. Measured on a 2-vCPU guest
/// (DESIGN.md §13): two shards lost at 7 776 and 20 000 units, broke
/// even near 14 000 and won from about 25 000 on, so the sweep forks
/// from 32 768.
pub const SWEEP_FORK_MIN_WORK: usize = 16_384;

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

/// One analysis fed by [`DestForest::sweep`]: it reads what it needs
/// off each destination's resolved forest, in address order within
/// its shard, and folds shards together in address order.
pub trait ForestConsumer: Sized + Send + Sync {
    /// Takes in the forest of destination [`DestForest::dst`].
    fn absorb(&mut self, forest: &DestForest<'_>);

    /// An empty consumer of the same analysis, for one shard.
    fn fork(&self) -> Self;

    /// Folds in `later`, a [`ForestConsumer::fork`] that absorbed the
    /// destinations right after this consumer's, so the result is
    /// exactly that of one consumer absorbing both runs in order.
    fn merge(&mut self, later: Self);
}

/// Consumers that may be absent: `None` forks and merges to `None`.
impl<C: ForestConsumer> ForestConsumer for Option<C> {
    fn absorb(&mut self, forest: &DestForest<'_>) {
        if let Some(c) = self {
            c.absorb(forest);
        }
    }

    fn fork(&self) -> Self {
        self.as_ref().map(C::fork)
    }

    fn merge(&mut self, later: Self) {
        if let (Some(c), Some(later)) = (self, later) {
            c.merge(later);
        }
    }
}

/// Several consumers sharing one sweep, fed in tuple order.
macro_rules! consumer_tuple {
    ($($c:ident $i:tt),+) => {
        impl<$($c: ForestConsumer),+> ForestConsumer for ($($c,)+) {
            fn absorb(&mut self, forest: &DestForest<'_>) {
                $(self.$i.absorb(forest);)+
            }

            fn fork(&self) -> Self {
                ($(self.$i.fork(),)+)
            }

            fn merge(&mut self, later: Self) {
                $(self.$i.merge(later.$i);)+
            }
        }
    };
}

consumer_tuple!(A 0, B 1);
consumer_tuple!(A 0, B 1, C 2);
consumer_tuple!(A 0, B 1, C 2, D 3);
consumer_tuple!(A 0, B 1, C 2, D 3, E 4);

/// One destination's routes as an in-forest over the network's nodes,
/// re-resolved in place by [`DestForest::resolve`] so scratch storage
/// is allocated once for a sweep over all destinations.
pub struct DestForest<'a> {
    ends: &'a [NodeId],
    routes: &'a Routes,
    /// Port slots per node in `port_channel`: the widest node's ports.
    ports: usize,
    /// `port_channel[v * ports + p]`: the channel leaving node `v` by
    /// port `p`, or [`VACANT`].
    port_channel: Vec<u32>,
    /// The node each channel arrives at.
    channel_dst: Vec<NodeId>,
    /// The port each channel leaves its source by.
    channel_src_port: Vec<u8>,
    router: Vec<bool>,
    /// Each address's injection channel and the node it enters.
    injection: Vec<(ChannelId, NodeId)>,
    /// Table columns `first_col..first_col + width`, destination-major:
    /// `columns[(d - first_col) * nodes + v]` is `v`'s entry for `d`.
    columns: Vec<u8>,
    width: usize,
    first_col: usize,
    /// Offset of the current destination's column in `columns`.
    col: usize,
    dst: usize,
    target: NodeId,
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
    /// [`DestForest::resolve`] before reading it. Every end node must
    /// be attached.
    pub fn new(net: &'a Network, ends: &'a [NodeId], routes: &'a Routes) -> Self {
        let n = net.node_count();
        let ports = net
            .nodes()
            .map(|v| net.kind(v).ports() as usize)
            .max()
            .unwrap_or(0);
        let mut port_channel = vec![VACANT; n * ports];
        let mut channel_dst = Vec::with_capacity(net.channel_count());
        let mut channel_src_port = Vec::with_capacity(net.channel_count());
        for ch in net.channels() {
            let port = net.channel_src_port(ch);
            port_channel[net.channel_src(ch).index() * ports + port.index()] = ch.0;
            channel_dst.push(net.channel_dst(ch));
            channel_src_port.push(port.0);
        }
        let injection = ends
            .iter()
            .map(|&e| {
                *net.channels_from(e)
                    .first()
                    .expect("end node must be attached")
            })
            .collect();
        let width = BLOCK.min(ends.len()).max(1);
        DestForest {
            ends,
            routes,
            ports,
            port_channel,
            channel_dst,
            channel_src_port,
            router: net.nodes().map(|v| net.is_router(v)).collect(),
            injection,
            columns: vec![NO_ENTRY; width * n],
            width,
            first_col: usize::MAX,
            col: 0,
            dst: usize::MAX,
            target: NodeId(u32::MAX),
            depth: vec![UNSEEN; n],
            out: vec![ChannelId(0); n],
            stack: Vec::new(),
            order: Vec::with_capacity(n),
        }
    }

    /// Resolves every destination's forest and hands each to
    /// `consumer` (a tuple of consumers shares the pass), returning
    /// the consumer with every destination absorbed — the one pass
    /// over the tables that any number of analyses share. `consumer`
    /// comes in empty: each shard absorbs into a fork of it, one
    /// shard per [`pool::workers`] under [`SWEEP_FORK_MIN_WORK`], and
    /// the shards merge in address order.
    pub fn sweep<C: ForestConsumer>(
        net: &Network,
        ends: &[NodeId],
        routes: &Routes,
        consumer: C,
    ) -> C {
        let runs = shard_runs(
            ends.len(),
            pool::workers(Self::work(net, ends), SWEEP_FORK_MIN_WORK),
        );
        let shards = pool::parallel_map(runs.len(), runs.len(), |i| {
            let mut part = consumer.fork();
            let mut forest = DestForest::new(net, ends, routes);
            for d in runs[i].clone() {
                forest.resolve(d);
                part.absorb(&forest);
            }
            part
        });
        shards
            .into_iter()
            .reduce(|mut merged, later| {
                merged.merge(later);
                merged
            })
            .expect("a sweep has at least one shard")
    }

    /// A sweep's work in the units of [`SWEEP_FORK_MIN_WORK`]: nodes
    /// resolved per forest times forests.
    pub fn work(net: &Network, ends: &[NodeId]) -> usize {
        net.node_count().saturating_mul(ends.len())
    }

    /// Resolves every node's route toward destination address `dst`,
    /// replacing the previous destination's forest. O(nodes).
    pub fn resolve(&mut self, dst: usize) {
        if !(self.first_col..self.first_col.saturating_add(self.width)).contains(&dst) {
            self.load_columns(dst - dst % self.width);
        }
        self.col = (dst - self.first_col) * self.depth.len();
        self.dst = dst;
        self.target = self.ends[dst];
        self.depth.fill(UNSEEN);
        self.depth[self.target.index()] = 0;
        self.order.clear();
        self.order.push(self.target);
        for v in 0..self.depth.len() {
            if self.depth[v] == UNSEEN {
                self.resolve_from(NodeId(v as u32));
            }
        }
    }

    /// Snapshots table columns `first..first + width` destination-major.
    fn load_columns(&mut self, first: usize) {
        let n = self.depth.len();
        self.first_col = first;
        self.columns.fill(NO_ENTRY);
        for v in 0..n {
            let row = self.routes.row(v);
            let run = row.get(first..).unwrap_or_default();
            for (j, &port) in run.iter().take(self.width).enumerate() {
                self.columns[j * n + v] = port;
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
            v = self.channel_dst(ch);
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
    #[inline]
    fn forward(&self, v: NodeId) -> Result<ChannelId, u32> {
        let port = self.columns[self.col + v.index()] as usize;
        if port >= self.ports {
            return Err(UNROUTED);
        }
        let ch = self.port_channel[v.index() * self.ports + port];
        if ch == VACANT {
            return Err(UNROUTED);
        }
        let next = self.channel_dst[ch as usize];
        if self.router[next.index()] || next == self.target {
            Ok(ChannelId(ch))
        } else {
            Err(MISDELIVERS)
        }
    }

    /// Number of addresses (sources and destinations alike).
    pub fn addresses(&self) -> usize {
        self.ends.len()
    }

    /// The destination address this forest was resolved for.
    pub fn dst(&self) -> usize {
        self.dst
    }

    /// The node channel `ch` arrives at (one load; equals
    /// [`Network::channel_dst`]).
    #[inline]
    pub fn channel_dst(&self, ch: ChannelId) -> NodeId {
        self.channel_dst[ch.index()]
    }

    /// The port channel `ch` leaves its source by (one load; equals
    /// [`Network::channel_src_port`]).
    #[inline]
    pub fn channel_src_port(&self, ch: ChannelId) -> usize {
        self.channel_src_port[ch.index()] as usize
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
    #[inline]
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
    #[inline]
    pub fn inject(&self, src: usize) -> (ChannelId, NodeId) {
        self.injection[src]
    }

    /// Router hops of the route from `src` to the current destination
    /// (its channel count minus the injection channel), or `None` when
    /// the route fails to trace.
    pub fn route_hops(&self, src: usize) -> Option<usize> {
        self.depth(self.inject(src).1)
    }
}

/// Splits destinations `0..addresses` into at most `shards` contiguous
/// runs of whole column blocks (the last block may be partial), in
/// address order and none empty — one run when there is nothing to
/// split.
fn shard_runs(addresses: usize, shards: usize) -> Vec<Range<usize>> {
    let blocks = addresses.div_ceil(BLOCK);
    let shards = shards.clamp(1, blocks.max(1));
    let edge = |i: usize| (i * blocks / shards * BLOCK).min(addresses);
    (0..shards).map(|i| edge(i)..edge(i + 1)).collect()
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

    /// Every pair's forest answer against the pair tracer, resolving
    /// destinations in address order and then in reverse, so every
    /// column block is reloaded out of order too.
    fn assert_agrees_with_trace(net: &Network, ends: &[NodeId], routes: &Routes) {
        let mut forest = DestForest::new(net, ends, routes);
        for d in (0..ends.len()).chain((0..ends.len()).rev()) {
            forest.resolve(d);
            assert_eq!(forest.dst(), d);
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
                        assert_eq!(forest.channel_dst(ch), net.channel_dst(ch));
                        assert_eq!(
                            forest.channel_src_port(ch),
                            net.channel_src_port(ch).index()
                        );
                        v = forest.channel_dst(ch);
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

    /// A ring of routers with dual-ported end nodes on some of them and
    /// more addresses than one column block, under tables that mix
    /// shortest-path entries with holes, ports past the router's count,
    /// vacant ports, misdeliveries and loops.
    #[test]
    fn flat_kernel_matches_the_tracer_on_corrupted_dual_ported_tables() {
        use fractanet_graph::bfs;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seen = [0usize; 4];
        for (routers, noise) in [(12usize, 0u64), (36, 8), (40, 24), (40, 64)] {
            let mut net = Network::new();
            let rs: Vec<NodeId> = (0..routers)
                .map(|i| net.add_router(format!("r{i}"), 8))
                .collect();
            for i in 0..routers {
                net.connect_any(rs[i], rs[(i + 1) % routers], LinkClass::Local)
                    .unwrap();
            }
            let mut ends = Vec::new();
            for (i, &r) in rs.iter().enumerate() {
                for j in 0..2 {
                    let dual = (i + j) % 3 == 0;
                    let e = net.add_end_node_with_ports(format!("n{i}.{j}"), 1 + u8::from(dual));
                    net.connect_any(e, r, LinkClass::Attach).unwrap();
                    if dual {
                        let other = rs[(i + routers / 2) % routers];
                        net.connect_any(e, other, LinkClass::Attach).unwrap();
                    }
                    ends.push(e);
                }
            }
            assert!(ends.len() > BLOCK || routers == 12);
            let mut routes = Routes::new(&net, ends.len());
            for (d, &target) in ends.iter().enumerate() {
                let dist = bfs::distances(&net, target);
                for &r in &rs {
                    let roll = next() % 100;
                    if roll < noise {
                        // Holes, then raw ports: past the router's 8,
                        // vacant, into a foreign end node, or around
                        // the ring the wrong way.
                        if roll % 4 != 0 {
                            routes.set(r, d, PortId((next() % 10) as u8));
                        }
                        continue;
                    }
                    let port = net
                        .channels_from(r)
                        .iter()
                        .find(|&&(_, v)| dist[v.index()] + 1 == dist[r.index()])
                        .map(|&(ch, _)| net.channel_src_port(ch));
                    if let Some(port) = port {
                        routes.set(r, d, port);
                    }
                }
            }
            assert_agrees_with_trace(&net, &ends, &routes);
            let mut forest = DestForest::new(&net, &ends, &routes);
            for d in 0..ends.len() {
                forest.resolve(d);
                for s in 0..ends.len() {
                    seen[forest
                        .failure(forest.inject(s).1)
                        .map_or(0, |f| 1 + f as usize)] += 1;
                }
            }
        }
        // Routed, unrouted, misdelivered and looping pairs all occur.
        assert!(seen.iter().all(|&k| k > 0), "{seen:?}");
    }

    #[test]
    fn shard_runs_cover_whole_blocks_in_order() {
        assert_eq!(shard_runs(0, 4), vec![0..0]);
        assert_eq!(shard_runs(10, 4), vec![0..10]);
        assert_eq!(shard_runs(64, 2), vec![0..64]);
        assert_eq!(shard_runs(65, 2), vec![0..64, 64..65]);
        assert_eq!(shard_runs(65, 9), vec![0..64, 64..65]);
        assert_eq!(shard_runs(300, 1), vec![0..300]);
        assert_eq!(shard_runs(300, 2), vec![0..128, 128..300]);
        assert_eq!(shard_runs(300, 3), vec![0..64, 64..192, 192..300]);
        assert_eq!(
            shard_runs(4096, 4),
            vec![0..1024, 1024..2048, 2048..3072, 3072..4096]
        );
    }

    /// The destinations a shard saw, in order; merging concatenates.
    struct Seen(Vec<usize>);

    impl ForestConsumer for Seen {
        fn absorb(&mut self, forest: &DestForest<'_>) {
            self.0.push(forest.dst());
        }

        fn fork(&self) -> Self {
            Seen(Vec::new())
        }

        fn merge(&mut self, later: Self) {
            self.0.extend(later.0);
        }
    }

    #[test]
    fn sharded_sweeps_absorb_every_destination_in_address_order() {
        let mut ring = Network::new();
        let rs: Vec<NodeId> = (0..50)
            .map(|i| ring.add_router(format!("r{i}"), 8))
            .collect();
        for i in 0..50 {
            ring.connect_any(rs[i], rs[(i + 1) % 50], LinkClass::Local)
                .unwrap();
        }
        let ends: Vec<NodeId> = (0..200)
            .map(|i| {
                let e = ring.add_end_node(format!("n{i}"));
                ring.connect_any(e, rs[i % 50], LinkClass::Attach).unwrap();
                e
            })
            .collect();
        let routes = Routes::new(&ring, ends.len());
        for width in [1, 2, 3, 4, 7] {
            let (seen, absent) = pool::with_width(width, || {
                DestForest::sweep(&ring, &ends, &routes, (Seen(vec![]), None::<Seen>))
            });
            assert_eq!(seen.0, (0..200).collect::<Vec<_>>(), "width {width}");
            assert!(absent.is_none());
        }
    }
}
