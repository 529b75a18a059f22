//! Destination-indexed routing tables — the canonical routing object —
//! and traced route sets as a derived view.
//!
//! [`Routes`] is the ServerNet model: one flat byte row per router,
//! indexed by destination address, each entry naming an output port.
//! Everything else is derived from it on demand: [`PathIter`] walks one
//! route hop by hop without allocating, [`Routes::trace_into`] fills a
//! caller-owned scratch buffer, and [`RouteSet`] freezes every pair
//! into a dense matrix for callers that genuinely need one (or for
//! schemes built per pair, which tables cannot express). Memory-wise
//! the table is O(routers · N) single bytes while the dense matrix is
//! O(N² · path length) channel words — see `Routes::resident_bytes`
//! and `RouteSet::resident_bytes` for the measured comparison.

use fractanet_graph::{ChannelId, Network, NodeId, PortId};
use std::fmt;

/// Errors raised while tracing routes through tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// A router had no table entry for the destination.
    MissingEntry {
        /// Router whose table lacks the entry.
        router: NodeId,
        /// Destination address.
        dst: usize,
    },
    /// A table entry pointed at a port with no cable attached.
    DeadPort {
        /// Router with the dangling entry.
        router: NodeId,
        /// The vacant port.
        port: PortId,
        /// Destination address.
        dst: usize,
    },
    /// The route revisited a router (tables contain a forwarding loop).
    ForwardingLoop {
        /// Source address of the looping route.
        src: usize,
        /// Destination address.
        dst: usize,
        /// The routers traversed, in order, ending with the first
        /// repeated router (which therefore appears twice).
        visited: Vec<NodeId>,
    },
    /// A route was delivered to the wrong end node.
    Misdelivered {
        /// Source address.
        src: usize,
        /// Destination address.
        dst: usize,
        /// Where the packet actually arrived.
        arrived: NodeId,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::MissingEntry { router, dst } => {
                write!(
                    f,
                    "router {router} has no table entry for destination {dst}"
                )
            }
            RouteError::DeadPort { router, port, dst } => {
                write!(
                    f,
                    "router {router} routes destination {dst} to vacant port {port:?}"
                )
            }
            RouteError::ForwardingLoop { src, dst, visited } => {
                write!(f, "forwarding loop on route {src} -> {dst}")?;
                if !visited.is_empty() {
                    write!(f, " via")?;
                    for (i, r) in visited.iter().enumerate() {
                        write!(f, "{} {r}", if i == 0 { "" } else { " ->" })?;
                    }
                }
                Ok(())
            }
            RouteError::Misdelivered { src, dst, arrived } => {
                write!(f, "route {src} -> {dst} delivered to {arrived}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// The sentinel byte marking an empty table entry. Port numbers in
/// this workspace are tiny (routers have ≤ 8 ports), so `u8::MAX` can
/// never collide with a real port.
pub(crate) const NO_ENTRY: u8 = u8::MAX;

/// Per-router destination-indexed routing tables — the ServerNet
/// model and the workspace's single source of truth for routing.
/// `get(router, dst)` is the output port for packets addressed to end
/// node `dst`; on the destination's own attach router the entry is the
/// attach port itself.
///
/// Storage is one flat `Box<[u8]>` row per router (end-node rows stay
/// empty), so the whole object is O(routers · N) bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Routes {
    /// Indexed by `NodeId::index()`; end-node rows stay empty.
    rows: Vec<Box<[u8]>>,
    n_addr: usize,
}

impl Routes {
    /// Creates empty tables for a network routing `n_addr`
    /// destinations.
    pub fn new(net: &Network, n_addr: usize) -> Self {
        let rows = net
            .nodes()
            .map(|n| {
                if net.is_router(n) {
                    vec![NO_ENTRY; n_addr].into_boxed_slice()
                } else {
                    Box::default()
                }
            })
            .collect();
        Routes { rows, n_addr }
    }

    /// Fills every router's table from a port-choice function.
    /// `f(router, dst)` returns `None` to leave the entry empty
    /// (destinations the router should never see).
    pub fn from_fn(
        net: &Network,
        n_addr: usize,
        mut f: impl FnMut(NodeId, usize) -> Option<PortId>,
    ) -> Self {
        let mut routes = Self::new(net, n_addr);
        for r in net.routers() {
            for dst in 0..n_addr {
                if let Some(port) = f(r, dst) {
                    routes.set(r, dst, port);
                }
            }
        }
        routes
    }

    /// Projects a per-pair route set onto destination-indexed tables,
    /// or `None` when tables cannot express it.
    ///
    /// The projection is faithful: [`Routes::trace_into`] — the walk
    /// every table consumer, the engine included, performs — must
    /// reproduce each pair's path exactly, and every empty path
    /// (severed pair) must stay untraceable. That rejects route sets
    /// where two routes toward `dst` leave one router by different
    /// ports (tables are incoming-channel-agnostic), paths that inject
    /// on any attachment but the source's first, and severed pairs
    /// that other sources' entries would route anyway.
    pub fn from_pair_paths(net: &Network, ends: &[NodeId], routes: &RouteSet) -> Option<Self> {
        let mut tables = Self::new(net, ends.len());
        for (_, d, path) in routes.pairs() {
            for w in path.windows(2) {
                let router = net.channel_dst(w[0]);
                let port = net.channel_src_port(w[1]);
                match tables.get(router, d) {
                    Some(existing) if existing != port => return None,
                    Some(_) => {}
                    None => tables.set(router, d, port),
                }
            }
        }
        let mut walk = Vec::new();
        for (s, d, path) in routes.pairs() {
            let traced = tables.trace_into(net, ends, s, d, &mut walk);
            let faithful = match traced {
                Ok(()) => walk == path,
                Err(_) => path.is_empty(),
            };
            if !faithful {
                return None;
            }
        }
        Some(tables)
    }

    /// Number of destination addresses.
    pub fn n_addr(&self) -> usize {
        self.n_addr
    }

    /// Sets one table entry.
    pub fn set(&mut self, router: NodeId, dst: usize, port: PortId) {
        debug_assert_ne!(port.0, NO_ENTRY, "port collides with the empty sentinel");
        self.rows[router.index()][dst] = port.0;
    }

    /// Sets every entry of one router's row to `port`.
    pub(crate) fn fill_row(&mut self, router: NodeId, port: PortId) {
        debug_assert_ne!(port.0, NO_ENTRY, "port collides with the empty sentinel");
        self.rows[router.index()].fill(port.0);
    }

    /// Clears one table entry (used by fault-injection experiments).
    pub fn clear(&mut self, router: NodeId, dst: usize) {
        self.rows[router.index()][dst] = NO_ENTRY;
    }

    /// Clears one destination's entry in every router row — the first
    /// half of a per-column table patch during a heal.
    pub fn clear_column(&mut self, dst: usize) {
        for row in &mut self.rows {
            if let Some(e) = row.get_mut(dst) {
                *e = NO_ENTRY;
            }
        }
    }

    /// Reads one table entry.
    pub fn get(&self, router: NodeId, dst: usize) -> Option<PortId> {
        self.rows[router.index()]
            .get(dst)
            .copied()
            .filter(|&p| p != NO_ENTRY)
            .map(PortId)
    }

    /// The raw table row of node index `v` (empty for end nodes),
    /// [`NO_ENTRY`] marking a missing entry.
    pub(crate) fn row(&self, v: usize) -> &[u8] {
        &self.rows[v]
    }

    /// Bytes resident in this table, counting per-row headers — the
    /// O(routers · N) side of the memory-model comparison.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.rows.capacity() * std::mem::size_of::<Box<[u8]>>()
            + self.rows.iter().map(|r| r.len()).sum::<usize>()
    }

    /// Walks the route from `ends[src]` to `ends[dst]` hop by hop
    /// without allocating. See [`PathIter`].
    pub fn path_iter<'a>(
        &'a self,
        net: &'a Network,
        ends: &'a [NodeId],
        src: usize,
        dst: usize,
    ) -> PathIter<'a> {
        PathIter {
            routes: self,
            net,
            ends,
            src,
            dst,
            cur: None,
            started: false,
            hops: 0,
            error: None,
        }
    }

    /// Traces the route from end node `ends[src]` to `ends[dst]` into
    /// a caller-owned buffer (cleared first), so analysis layers can
    /// walk all pairs with a single scratch allocation. The traversed
    /// channels include the attach hops; `src == dst` leaves the
    /// buffer empty.
    pub fn trace_into(
        &self,
        net: &Network,
        ends: &[NodeId],
        src: usize,
        dst: usize,
        out: &mut Vec<ChannelId>,
    ) -> Result<(), RouteError> {
        out.clear();
        if src == dst {
            return Ok(());
        }
        let target = ends[dst];
        // Injection: the end node's first (for dual-ported nodes: only
        // the primary) attachment.
        let &(inject, mut cur) = net
            .channels_from(ends[src])
            .first()
            .expect("end node must be attached");
        out.push(inject);
        // A simple route visits each router at most once, so a walk
        // longer than the node count proves a revisit; the exact loop
        // sequence is reconstructed on that (cold) error path only.
        let cap = net.node_count();
        let mut hops = 0usize;
        loop {
            if cur == target {
                return Ok(());
            }
            hops += 1;
            if hops > cap {
                return Err(self.loop_error(net, ends, src, dst));
            }
            let port = self
                .get(cur, dst)
                .ok_or(RouteError::MissingEntry { router: cur, dst })?;
            let ch = net.channel_out(cur, port).ok_or(RouteError::DeadPort {
                router: cur,
                port,
                dst,
            })?;
            out.push(ch);
            let next = net.channel_dst(ch);
            if !net.is_router(next) && next != target {
                return Err(RouteError::Misdelivered {
                    src,
                    dst,
                    arrived: next,
                });
            }
            cur = next;
        }
    }

    /// Traces the route from end node `ends[src]` to `ends[dst]`.
    /// Returns the traversed channels, attach hops included. The empty
    /// path is returned for `src == dst`.
    pub fn trace(
        &self,
        net: &Network,
        ends: &[NodeId],
        src: usize,
        dst: usize,
    ) -> Result<Vec<ChannelId>, RouteError> {
        let mut path = Vec::new();
        self.trace_into(net, ends, src, dst, &mut path)?;
        Ok(path)
    }

    /// Re-walks a looping route with bookkeeping to reconstruct the
    /// visited-router sequence for the diagnostic.
    fn loop_error(&self, net: &Network, ends: &[NodeId], src: usize, dst: usize) -> RouteError {
        let mut visited: Vec<NodeId> = Vec::new();
        let mut seen = vec![false; net.node_count()];
        let target = ends[dst];
        let Some(&(_, mut cur)) = net.channels_from(ends[src]).first() else {
            return RouteError::ForwardingLoop { src, dst, visited };
        };
        loop {
            visited.push(cur);
            if seen[cur.index()] {
                return RouteError::ForwardingLoop { src, dst, visited };
            }
            seen[cur.index()] = true;
            let Some(port) = self.get(cur, dst) else {
                break;
            };
            let Some(ch) = net.channel_out(cur, port) else {
                break;
            };
            let next = net.channel_dst(ch);
            if next == target || !net.is_router(next) {
                break;
            }
            cur = next;
        }
        RouteError::ForwardingLoop { src, dst, visited }
    }
}

/// A non-allocating walk of one table route: yields the channel
/// sequence from `ends[src]` to `ends[dst]`, attach hops included,
/// looking each hop up in the table as it goes.
///
/// Tracing failures cannot be expressed mid-iteration, so the iterator
/// simply stops and records the failure; callers that care check
/// [`PathIter::error`] after exhaustion. (Certified tables never
/// fail, which is why the analyses can use this directly.)
pub struct PathIter<'a> {
    routes: &'a Routes,
    net: &'a Network,
    ends: &'a [NodeId],
    src: usize,
    dst: usize,
    cur: Option<NodeId>,
    started: bool,
    hops: usize,
    error: Option<RouteError>,
}

impl PathIter<'_> {
    /// The tracing failure that stopped the walk, if any.
    pub fn error(&self) -> Option<&RouteError> {
        self.error.as_ref()
    }

    /// Consumes the iterator, returning the tracing failure, if any.
    pub fn into_error(self) -> Option<RouteError> {
        self.error
    }
}

impl Iterator for PathIter<'_> {
    type Item = ChannelId;

    fn next(&mut self) -> Option<ChannelId> {
        if self.error.is_some() {
            return None;
        }
        if !self.started {
            self.started = true;
            if self.src == self.dst {
                return None;
            }
            let &(inject, r) = self
                .net
                .channels_from(self.ends[self.src])
                .first()
                .expect("end node must be attached");
            self.cur = Some(r);
            return Some(inject);
        }
        let cur = self.cur?;
        let target = self.ends[self.dst];
        if cur == target {
            self.cur = None;
            return None;
        }
        self.hops += 1;
        if self.hops > self.net.node_count() {
            self.error = Some(
                self.routes
                    .loop_error(self.net, self.ends, self.src, self.dst),
            );
            return None;
        }
        let Some(port) = self.routes.get(cur, self.dst) else {
            self.error = Some(RouteError::MissingEntry {
                router: cur,
                dst: self.dst,
            });
            return None;
        };
        let Some(ch) = self.net.channel_out(cur, port) else {
            self.error = Some(RouteError::DeadPort {
                router: cur,
                port,
                dst: self.dst,
            });
            return None;
        };
        let next = self.net.channel_dst(ch);
        if !self.net.is_router(next) && next != target {
            self.error = Some(RouteError::Misdelivered {
                src: self.src,
                dst: self.dst,
                arrived: next,
            });
            return None;
        }
        self.cur = Some(next);
        Some(ch)
    }
}

/// Every source→destination path of a network, traced and frozen — a
/// **derived view** of [`Routes`].
///
/// Most consumers walk tables directly now; this dense matrix remains
/// for per-pair route generators that tables cannot express (corrupted
/// or hand-built fixtures, the frozen legacy sim mode) and for tests
/// comparing the two representations.
#[derive(Clone, Debug)]
pub struct RouteSet {
    /// `paths[src][dst]`; empty vector on the diagonal.
    paths: Vec<Vec<Vec<ChannelId>>>,
}

impl RouteSet {
    /// Traces all pairs through routing tables.
    pub fn from_table(net: &Network, ends: &[NodeId], routes: &Routes) -> Result<Self, RouteError> {
        let n = ends.len();
        let mut paths = Vec::with_capacity(n);
        for s in 0..n {
            let mut row = Vec::with_capacity(n);
            for d in 0..n {
                row.push(routes.trace(net, ends, s, d)?);
            }
            paths.push(row);
        }
        Ok(RouteSet { paths })
    }

    /// Traces all pairs through routing tables, leaving pairs that fail
    /// to trace (severed destinations after a partial repair) with
    /// empty paths instead of aborting.
    pub fn from_table_lossy(net: &Network, ends: &[NodeId], routes: &Routes) -> Self {
        RouteSet::from_pairs(ends.len(), |s, d| {
            routes.trace(net, ends, s, d).unwrap_or_default()
        })
    }

    /// Builds a route set from a per-pair path generator (for path
    /// collections no destination table expresses, e.g. deliberately
    /// corrupted fixtures). `f(src, dst)` must return the channel
    /// sequence from `ends[src]` to `ends[dst]`.
    pub fn from_pairs(n: usize, mut f: impl FnMut(usize, usize) -> Vec<ChannelId>) -> Self {
        let mut paths = Vec::with_capacity(n);
        for s in 0..n {
            let mut row = Vec::with_capacity(n);
            for d in 0..n {
                row.push(if s == d { Vec::new() } else { f(s, d) });
            }
            paths.push(row);
        }
        RouteSet { paths }
    }

    /// Number of end nodes.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether there are no end nodes.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The channel sequence for `src → dst` (empty on the diagonal).
    pub fn path(&self, src: usize, dst: usize) -> &[ChannelId] {
        &self.paths[src][dst]
    }

    /// Iterates over all ordered pairs with their paths
    /// (diagonal excluded).
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, &[ChannelId])> + '_ {
        let n = self.len();
        (0..n).flat_map(move |s| {
            (0..n)
                .filter(move |&d| d != s)
                .map(move |d| (s, d, self.paths[s][d].as_slice()))
        })
    }

    /// Bytes resident in the dense matrix, counting the nested vector
    /// headers — the O(N² · path length) side of the memory-model
    /// comparison with [`Routes::resident_bytes`].
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.paths.capacity() * size_of::<Vec<Vec<ChannelId>>>()
            + self
                .paths
                .iter()
                .map(|row| {
                    row.capacity() * size_of::<Vec<ChannelId>>()
                        + row
                            .iter()
                            .map(|p| p.capacity() * size_of::<ChannelId>())
                            .sum::<usize>()
                })
                .sum::<usize>()
    }

    /// Router hops of a route (channels minus the injection channel).
    pub fn router_hops(&self, src: usize, dst: usize) -> usize {
        self.paths[src][dst].len().saturating_sub(1)
    }

    /// Mean router hops over all ordered pairs — the routed counterpart
    /// of the topological average; equal for minimal routings.
    pub fn avg_router_hops(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return 0.0;
        }
        let total: usize = self.pairs().map(|(_, _, p)| p.len() - 1).sum();
        total as f64 / (n * (n - 1)) as f64
    }

    /// Maximum router hops over all ordered pairs.
    pub fn max_router_hops(&self) -> usize {
        self.pairs()
            .map(|(_, _, p)| p.len().saturating_sub(1))
            .max()
            .unwrap_or(0)
    }

    /// Checks the fixed-path in-order-delivery property at the route
    /// level: tracing is deterministic by construction, so this
    /// verifies the paths are *simple* (no repeated channel), which the
    /// tracer guarantees for table routes but per-pair generators might
    /// violate.
    pub fn check_simple(&self) -> Result<(), (usize, usize)> {
        for (s, d, p) in self.pairs() {
            let mut seen: Vec<ChannelId> = p.to_vec();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            if seen.len() != before {
                return Err((s, d));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_graph::{LinkClass, Network};

    /// Two routers, one end node each: n0 - r0 - r1 - n1.
    fn dumbbell() -> (Network, Vec<NodeId>, NodeId, NodeId) {
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
        (net, vec![n0, n1], r0, r1)
    }

    #[test]
    fn trace_follows_tables() {
        let (net, ends, r0, r1) = dumbbell();
        let mut routes = Routes::new(&net, 2);
        routes.set(r0, 1, PortId(0));
        routes.set(r1, 1, PortId(1));
        routes.set(r1, 0, PortId(0));
        routes.set(r0, 0, PortId(1));
        let p = routes.trace(&net, &ends, 0, 1).unwrap();
        assert_eq!(p.len(), 3); // attach, inter-router, attach
        assert_eq!(net.channel_src(p[0]), ends[0]);
        assert_eq!(net.channel_dst(p[2]), ends[1]);
    }

    #[test]
    fn from_pair_paths_roundtrips_table_derived_routes() {
        // Route sets traced from tables are coherent by construction,
        // so projecting them back must reproduce every entry a route
        // actually exercises.
        let (net, ends, r0, r1) = dumbbell();
        let mut routes = Routes::new(&net, 2);
        routes.set(r0, 1, PortId(0));
        routes.set(r1, 1, PortId(1));
        routes.set(r1, 0, PortId(0));
        routes.set(r0, 0, PortId(1));
        let rs = RouteSet::from_table(&net, &ends, &routes).unwrap();
        let back = Routes::from_pair_paths(&net, &ends, &rs).expect("coherent projection");
        for s in 0..2 {
            for d in 0..2 {
                if s == d {
                    continue;
                }
                assert_eq!(
                    back.trace(&net, &ends, s, d),
                    routes.trace(&net, &ends, s, d)
                );
            }
        }
    }

    /// A router triangle r0, r1, r2 with end node `ni` on `ri`; n0 is
    /// dual-ported, its second port cabled to r1.
    fn triangle() -> (Network, Vec<NodeId>, [NodeId; 3]) {
        let mut net = Network::new();
        let r0 = net.add_router("r0", 6);
        let r1 = net.add_router("r1", 6);
        let r2 = net.add_router("r2", 6);
        net.connect(r0, PortId(0), r2, PortId(0), LinkClass::Local)
            .unwrap();
        net.connect(r1, PortId(0), r2, PortId(1), LinkClass::Local)
            .unwrap();
        net.connect(r0, PortId(2), r1, PortId(2), LinkClass::Local)
            .unwrap();
        let n0 = net.add_end_node_with_ports("n0", 2);
        let n1 = net.add_end_node("n1");
        let n2 = net.add_end_node("n2");
        net.connect(r0, PortId(1), n0, PortId(0), LinkClass::Attach)
            .unwrap();
        net.connect(r1, PortId(3), n0, PortId(1), LinkClass::Attach)
            .unwrap();
        net.connect(r1, PortId(1), n1, PortId(0), LinkClass::Attach)
            .unwrap();
        net.connect(r2, PortId(2), n2, PortId(0), LinkClass::Attach)
            .unwrap();
        (net, vec![n0, n1, n2], [r0, r1, r2])
    }

    #[test]
    fn from_pair_paths_rejects_incoherent_routes() {
        let (net, ends, [r0, r1, r2]) = triangle();
        let [n0, n1, n2] = [ends[0], ends[1], ends[2]];
        // Only pairs toward n2 are routed; every other pair is severed.
        let project = |p02: &[NodeId], p12: &[NodeId]| {
            let (p02, p12) = (pick_path(&net, p02), pick_path(&net, p12));
            let rs = RouteSet::from_pairs(3, |s, d| match (s, d) {
                (0, 2) => p02.clone(),
                (1, 2) => p12.clone(),
                _ => Vec::new(),
            });
            Routes::from_pair_paths(&net, &ends, &rs)
        };
        // Control: both routes cross r0 and leave it toward r2.
        assert!(project(&[n0, r0, r2, n2], &[n1, r1, r0, r2, n2]).is_some());
        // r0 forwards destination 2 toward r1 for pair 0 but toward r2
        // for pair 1: no single table entry serves both.
        assert!(project(&[n0, r0, r1, r2, n2], &[n1, r1, r0, r2, n2]).is_none());
        // Pair 0 is severed, yet pair 1's route writes r0's entry for
        // destination 2, which routes pair 0 after all.
        assert!(project(&[], &[n1, r1, r0, r2, n2]).is_none());
        // Pair 0 injects on n0's second port (into r1); tables inject
        // on the first attachment, into r0.
        assert!(project(&[n0, r1, r2, n2], &[n1, r1, r2, n2]).is_none());
    }

    /// Builds the channel sequence visiting the given nodes in order.
    fn pick_path(net: &Network, nodes: &[NodeId]) -> Vec<ChannelId> {
        nodes
            .windows(2)
            .map(|w| {
                net.channels_from(w[0])
                    .iter()
                    .find(|&&(_, dst)| dst == w[1])
                    .expect("adjacent nodes")
                    .0
            })
            .collect()
    }

    #[test]
    fn path_iter_matches_trace_without_allocating() {
        let (net, ends, r0, r1) = dumbbell();
        let mut routes = Routes::new(&net, 2);
        routes.set(r0, 1, PortId(0));
        routes.set(r1, 1, PortId(1));
        routes.set(r1, 0, PortId(0));
        routes.set(r0, 0, PortId(1));
        for s in 0..2 {
            for d in 0..2 {
                let traced = routes.trace(&net, &ends, s, d).unwrap();
                let mut it = routes.path_iter(&net, &ends, s, d);
                let walked: Vec<ChannelId> = it.by_ref().collect();
                assert_eq!(walked, traced, "{s}->{d}");
                assert!(it.error().is_none());
            }
        }
    }

    #[test]
    fn path_iter_reports_missing_entry() {
        let (net, ends, _, _) = dumbbell();
        let routes = Routes::new(&net, 2);
        let mut it = routes.path_iter(&net, &ends, 0, 1);
        assert_eq!(it.by_ref().count(), 1); // injection channel only
        assert!(matches!(
            it.error(),
            Some(RouteError::MissingEntry { dst: 1, .. })
        ));
    }

    #[test]
    fn missing_entry_reported() {
        let (net, ends, r0, _) = dumbbell();
        let routes = Routes::new(&net, 2);
        let err = routes.trace(&net, &ends, 0, 1).unwrap_err();
        assert_eq!(err, RouteError::MissingEntry { router: r0, dst: 1 });
    }

    #[test]
    fn dead_port_reported() {
        let (net, ends, r0, _) = dumbbell();
        let mut routes = Routes::new(&net, 2);
        routes.set(r0, 1, PortId(5));
        let err = routes.trace(&net, &ends, 0, 1).unwrap_err();
        assert_eq!(
            err,
            RouteError::DeadPort {
                router: r0,
                port: PortId(5),
                dst: 1
            }
        );
    }

    #[test]
    fn forwarding_loop_reports_visited_routers() {
        let (net, ends, r0, r1) = dumbbell();
        let mut routes = Routes::new(&net, 2);
        // r0 and r1 bounce destination 1 between each other.
        routes.set(r0, 1, PortId(0));
        routes.set(r1, 1, PortId(0));
        let err = routes.trace(&net, &ends, 0, 1).unwrap_err();
        let RouteError::ForwardingLoop { src, dst, visited } = err else {
            panic!("expected a forwarding loop, got {err:?}");
        };
        assert_eq!((src, dst), (0, 1));
        // The walk is r0 -> r1 -> r0: the repeated router bookends it.
        assert_eq!(visited, vec![r0, r1, r0]);
        // And the rendering names the loop.
        let msg = RouteError::ForwardingLoop { src, dst, visited }.to_string();
        assert!(msg.contains("via"), "{msg}");
    }

    #[test]
    fn misdelivery_detected() {
        let (net, ends, r0, _) = dumbbell();
        let mut routes = Routes::new(&net, 2);
        // r0 sends destination-1 packets into its own end node n0.
        routes.set(r0, 1, PortId(1));
        let err = routes.trace(&net, &ends, 0, 1).unwrap_err();
        assert_eq!(
            err,
            RouteError::Misdelivered {
                src: 0,
                dst: 1,
                arrived: ends[0]
            }
        );
    }

    #[test]
    fn self_route_is_empty() {
        let (net, ends, _, _) = dumbbell();
        let routes = Routes::new(&net, 2);
        assert!(routes.trace(&net, &ends, 0, 0).unwrap().is_empty());
        assert_eq!(routes.path_iter(&net, &ends, 0, 0).count(), 0);
    }

    #[test]
    fn table_is_an_order_of_magnitude_smaller_than_dense_paths() {
        let (net, ends, r0, r1) = dumbbell();
        let mut routes = Routes::new(&net, 2);
        routes.set(r0, 1, PortId(0));
        routes.set(r1, 1, PortId(1));
        routes.set(r1, 0, PortId(0));
        routes.set(r0, 0, PortId(1));
        let rs = RouteSet::from_table(&net, &ends, &routes).unwrap();
        // Even at N=2 the byte rows undercut the nested vectors.
        assert!(routes.resident_bytes() < rs.resident_bytes());
    }

    #[test]
    fn route_set_statistics() {
        let (net, ends, r0, r1) = dumbbell();
        let routes = Routes::from_fn(&net, 2, |r, dst| {
            Some(match (r, dst) {
                (x, 0) if x == r0 => PortId(1),
                (x, 1) if x == r0 => PortId(0),
                (x, 0) if x == r1 => PortId(0),
                _ => PortId(1),
            })
        });
        let rs = RouteSet::from_table(&net, &ends, &routes).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.router_hops(0, 1), 2);
        assert_eq!(rs.avg_router_hops(), 2.0);
        assert_eq!(rs.max_router_hops(), 2);
        assert!(rs.check_simple().is_ok());
        assert_eq!(rs.pairs().count(), 2);
    }
}
