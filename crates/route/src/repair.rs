//! Self-healing route regeneration: fault-avoiding up*/down* routing
//! over the surviving subgraph, emitted as destination tables.
//!
//! When links or routers die permanently, the static tables traced at
//! boot keep steering packets into the hole. This module regenerates
//! destination-indexed [`Routes`] that avoid every dead component: the
//! surviving subgraph is decomposed into connected components, each
//! component gets a BFS level order from its lowest-index live node,
//! and every table column steers `up* down*` against that order (the
//! Autonet discipline `treeroute` uses for healthy networks) —
//! deadlock-free by construction, because up channels strictly
//! decrease the `(level, node index)` order so no dependency cycle can
//! close.
//!
//! Destination tables know only the destination, not how a packet
//! arrived, so a column's entries must be **suffix-closed**: a router
//! that descends must hand the packet to a router that also descends,
//! or `up* down*` legality breaks mid-path. Each column therefore
//! follows a descend-first discipline: a router with any all-down path
//! to the destination descends along the shortest one (adjacency order
//! breaks ties), and every other router climbs toward its cheapest
//! descent point (`cost(v) = 1 + min over live up channels v→u of
//! cost(u)`, grounded at `cost = dist_dn` on the descending set). The
//! down set is closed under its own successors, so traced paths are
//! `up*` then `down*` by construction and the deadlock-freedom
//! argument carries over unchanged. Because only the columns a fault
//! actually touches change, [`IncrementalRepair`] patches tables
//! column by column instead of regenerating the whole set.
//!
//! Pairs split across components are left with **missing entries**
//! (tracing them reports the hole); the [`TableRepair`] quotes the
//! surviving-pair coverage so callers can report graceful degradation
//! when full repair is impossible.

use crate::table::{RouteSet, Routes};
use fractanet_graph::{ChannelId, LinkId, Network, NodeId};
use std::collections::VecDeque;

/// Which components are dead, in plain index-mask form (so the sim and
/// ServerNet fault layers can both feed it without depending on each
/// other's fault types).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeadMask {
    link_dead: Vec<bool>,
    node_dead: Vec<bool>,
}

impl DeadMask {
    /// All-alive mask for `net`.
    pub fn new(net: &Network) -> Self {
        DeadMask {
            link_dead: vec![false; net.link_count()],
            node_dead: vec![false; net.node_count()],
        }
    }

    /// Mask with the given dead links and routers.
    pub fn from_dead(net: &Network, links: &[LinkId], routers: &[NodeId]) -> Self {
        let mut m = DeadMask::new(net);
        for &l in links {
            m.kill_link(l);
        }
        for &r in routers {
            m.kill_router(r);
        }
        m
    }

    /// Marks a link dead.
    pub fn kill_link(&mut self, link: LinkId) {
        self.link_dead[link.index()] = true;
    }

    /// Marks a router (or end node) dead.
    pub fn kill_router(&mut self, node: NodeId) {
        self.node_dead[node.index()] = true;
    }

    /// Whether the link survives.
    pub fn link_ok(&self, link: LinkId) -> bool {
        !self.link_dead[link.index()]
    }

    /// Whether the node survives.
    pub fn node_ok(&self, node: NodeId) -> bool {
        !self.node_dead[node.index()]
    }

    /// Whether a channel survives: its link and both endpoints do.
    pub fn channel_ok(&self, net: &Network, ch: ChannelId) -> bool {
        self.link_ok(ch.link())
            && self.node_ok(net.channel_src(ch))
            && self.node_ok(net.channel_dst(ch))
    }

    /// Count of dead links plus dead nodes.
    pub fn len(&self) -> usize {
        self.link_dead.iter().filter(|&&d| d).count()
            + self.node_dead.iter().filter(|&&d| d).count()
    }

    /// Whether nothing is dead.
    pub fn is_empty(&self) -> bool {
        self.link_dead.iter().all(|&d| !d) && self.node_dead.iter().all(|&d| !d)
    }
}

/// How many ordered pairs (`src != dst`) a repaired routing still
/// connects — the graceful-degradation coverage every repair and heal
/// reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairCoverage {
    /// Ordered pairs that still have a path.
    pub connected: usize,
    /// All ordered pairs.
    pub total: usize,
}

impl PairCoverage {
    /// `connected` of the `ends · (ends − 1)` ordered pairs among
    /// `ends` end nodes.
    pub fn of(connected: usize, ends: usize) -> Self {
        PairCoverage {
            connected,
            total: ends * ends.saturating_sub(1),
        }
    }

    /// Fraction of ordered pairs still connected (1.0 = full repair).
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.connected as f64 / self.total as f64
        }
    }

    /// Whether every pair still has a route.
    pub fn is_full(&self) -> bool {
        self.connected == self.total
    }
}

/// Outcome of a table regeneration.
#[derive(Clone, Debug)]
pub struct TableRepair {
    /// The regenerated destination tables. Severed destinations have
    /// missing entries — tracing them reports the hole.
    pub tables: Routes,
    /// Pairs the tables still connect.
    pub coverage: PairCoverage,
}

/// Connected-component label per node over the channels `mask` leaves
/// alive (every channel without a mask); dead nodes read `u32::MAX`.
/// Components are numbered in the order of their lowest-index live
/// node, so labels are deterministic. Repair, lint and the exact
/// certificates all tell severed pairs from routing holes by these
/// labels.
pub fn survivor_components(net: &Network, mask: Option<&DeadMask>) -> Vec<u32> {
    SurvivorOrder::new(net, mask).comp
}

/// Per-node (component, level) order over the surviving subgraph.
struct SurvivorOrder {
    comp: Vec<u32>,
    level: Vec<u32>,
}

const UNSEEN: u32 = u32::MAX;

impl SurvivorOrder {
    fn new(net: &Network, mask: Option<&DeadMask>) -> Self {
        let n = net.node_count();
        let mut comp = vec![UNSEEN; n];
        let mut level = vec![UNSEEN; n];
        let mut next = 0u32;
        // Components are rooted at their lowest-index live node, which
        // makes the order (and hence the routes) deterministic. A live
        // channel implies both its ends are live.
        for root in net.nodes() {
            if comp[root.index()] != UNSEEN || !mask.is_none_or(|m| m.node_ok(root)) {
                continue;
            }
            comp[root.index()] = next;
            level[root.index()] = 0;
            let mut q = VecDeque::from([root]);
            while let Some(v) = q.pop_front() {
                for &(ch, w) in net.channels_from(v) {
                    if comp[w.index()] == UNSEEN && mask.is_none_or(|m| m.channel_ok(net, ch)) {
                        comp[w.index()] = next;
                        level[w.index()] = level[v.index()] + 1;
                        q.push_back(w);
                    }
                }
            }
            next += 1;
        }
        SurvivorOrder { comp, level }
    }

    /// Whether `ch` is an **up** channel: it strictly decreases the
    /// `(level, node index)` order. (Only the test oracle still walks
    /// channels through the order; the builder works off `is_up_by`.)
    #[cfg(test)]
    fn is_up(&self, net: &Network, ch: ChannelId) -> bool {
        is_up_by(&self.level, net, ch)
    }
}

/// Whether `ch` strictly decreases the `(level, node index)` order.
pub(crate) fn is_up_by(level: &[u32], net: &Network, ch: ChannelId) -> bool {
    let s = net.channel_src(ch);
    let d = net.channel_dst(ch);
    let (ls, ld) = (level[s.index()], level[d.index()]);
    ld < ls || (ld == ls && d.index() < s.index())
}

/// Routers of the (surviving) subgraph in ascending `(level, index)`
/// order — the processing order under which every up channel points at
/// an already-processed router.
fn ranked_routers(net: &Network, level: &[u32]) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = net
        .routers()
        .filter(|r| level[r.index()] != UNSEEN)
        .collect();
    v.sort_unstable_by_key(|r| (level[r.index()], r.index()));
    v
}

/// Reusable per-column working memory.
struct ColumnScratch {
    dist_dn: Vec<u32>,
    cost: Vec<u32>,
    q: VecDeque<NodeId>,
}

impl ColumnScratch {
    fn new(net: &Network) -> Self {
        ColumnScratch {
            dist_dn: vec![UNSEEN; net.node_count()],
            cost: vec![UNSEEN; net.node_count()],
            q: VecDeque::new(),
        }
    }
}

/// Rebuilds destination `d`'s table column over the surviving
/// subgraph; returns the number of sources that can reach it.
///
/// Every choice is order-independent (arg-mins over adjacency order,
/// never BFS discovery order), so a column's entries are a pure
/// function of the survivor order and the live channel set — the
/// property [`IncrementalRepair`] relies on to skip untouched columns.
#[allow(clippy::too_many_arguments)]
fn build_column(
    net: &Network,
    ends: &[NodeId],
    mask: &DeadMask,
    comp: &[u32],
    level: &[u32],
    by_rank: &[NodeId],
    d: usize,
    routes: &mut Routes,
    scratch: &mut ColumnScratch,
) -> usize {
    routes.clear_column(d);
    let dst_end = ends[d];
    if !mask.node_ok(dst_end) {
        return 0;
    }
    let Some(&(eject_rev, dst_router)) = net.channels_from(dst_end).first() else {
        return 0;
    };
    let eject = eject_rev.reverse();
    if !mask.channel_ok(net, eject) || level[dst_router.index()] == UNSEEN {
        return 0;
    }

    // Down distances: reverse BFS from the attach router over
    // surviving down channels (routers only).
    let dist_dn = &mut scratch.dist_dn;
    for x in dist_dn.iter_mut() {
        *x = UNSEEN;
    }
    dist_dn[dst_router.index()] = 0;
    scratch.q.clear();
    scratch.q.push_back(dst_router);
    while let Some(v) = scratch.q.pop_front() {
        for &(out, w) in net.channels_from(v) {
            let incoming = out.reverse(); // w -> v
            if net.is_router(w)
                && mask.channel_ok(net, incoming)
                && !is_up_by(level, net, incoming)
                && dist_dn[w.index()] == UNSEEN
            {
                dist_dn[w.index()] = dist_dn[v.index()] + 1;
                scratch.q.push_back(w);
            }
        }
    }

    // Entry pass in ascending (level, index) order, so every up
    // neighbor is already costed. Routers on the descending set (any
    // all-down path to the destination) must descend — that keeps the
    // set suffix-closed and every traced path up* then down*.
    let cost = &mut scratch.cost;
    for x in cost.iter_mut() {
        *x = UNSEEN;
    }
    let dst_comp = comp[dst_router.index()];
    for &v in by_rank {
        if comp[v.index()] != dst_comp {
            continue;
        }
        let vi = v.index();
        if v == dst_router {
            cost[vi] = 0;
            routes.set(v, d, net.channel_src_port(eject));
            continue;
        }
        if dist_dn[vi] != UNSEEN {
            // Descend along the first surviving down channel on a
            // shortest all-down path (adjacency order is the
            // tie-break). The successor's down distance is one less,
            // so it descends too.
            cost[vi] = dist_dn[vi];
            for &(ch, w) in net.channels_from(v) {
                if net.is_router(w)
                    && mask.channel_ok(net, ch)
                    && !is_up_by(level, net, ch)
                    && dist_dn[w.index()] != UNSEEN
                    && dist_dn[w.index()] + 1 == dist_dn[vi]
                {
                    routes.set(v, d, net.channel_src_port(ch));
                    break;
                }
            }
        } else {
            // Climb toward the cheapest descent point; the earliest
            // up channel in adjacency order breaks ties.
            let mut best: Option<(u32, ChannelId)> = None;
            for &(ch, w) in net.channels_from(v) {
                if net.is_router(w)
                    && mask.channel_ok(net, ch)
                    && is_up_by(level, net, ch)
                    && cost[w.index()] != UNSEEN
                    && best.is_none_or(|(b, _)| cost[w.index()] + 1 < b)
                {
                    best = Some((cost[w.index()] + 1, ch));
                }
            }
            if let Some((c, ch)) = best {
                cost[vi] = c;
                routes.set(v, d, net.channel_src_port(ch));
            }
        }
    }

    // Sources that can reach this destination.
    let mut connected = 0;
    for (s, &src_end) in ends.iter().enumerate() {
        if s == d || !mask.node_ok(src_end) {
            continue;
        }
        let Some(&(inject, src_router)) = net.channels_from(src_end).first() else {
            continue;
        };
        if mask.channel_ok(net, inject) && cost[src_router.index()] != UNSEEN {
            connected += 1;
        }
    }
    connected
}

/// Builds a full destination-table set over the surviving subgraph
/// described by `(comp, level)`. Returns the tables and, per
/// destination, how many sources reach it.
pub(crate) fn updown_tables_for(
    net: &Network,
    ends: &[NodeId],
    mask: &DeadMask,
    comp: &[u32],
    level: &[u32],
) -> (Routes, Vec<usize>) {
    let n = ends.len();
    let mut routes = Routes::new(net, n);
    let by_rank = ranked_routers(net, level);
    let mut scratch = ColumnScratch::new(net);
    let mut col_connected = vec![0usize; n];
    for (d, c) in col_connected.iter_mut().enumerate() {
        *c = build_column(
            net,
            ends,
            mask,
            comp,
            level,
            &by_rank,
            d,
            &mut routes,
            &mut scratch,
        );
    }
    (routes, col_connected)
}

/// Regenerates destination tables avoiding everything `mask` marks
/// dead. See the [module docs](self) for the discipline and its
/// deadlock-freedom argument.
pub fn repair_tables(net: &Network, ends: &[NodeId], mask: &DeadMask) -> TableRepair {
    let order = SurvivorOrder::new(net, Some(mask));
    let (tables, col_connected) = updown_tables_for(net, ends, mask, &order.comp, &order.level);
    TableRepair {
        tables,
        coverage: PairCoverage::of(col_connected.iter().sum(), ends.len()),
    }
}

/// Traces repaired tables into a dense route set, leaving every pair
/// `mask` severs empty. Tables only know surviving routers' entries,
/// so a pair whose own attach channel died would otherwise trace
/// "successfully" across the dead channel — the mask check keeps the
/// dense view honest about unreachable pairs.
pub fn trace_surviving(
    net: &Network,
    ends: &[NodeId],
    mask: &DeadMask,
    tables: &Routes,
) -> RouteSet {
    let mut scratch: Vec<ChannelId> = Vec::new();
    RouteSet::from_pairs(ends.len(), |s, d| {
        if s == d || !mask.node_ok(ends[s]) || !mask.node_ok(ends[d]) {
            return Vec::new();
        }
        let (Some(&(inject, _)), Some(&(eject_rev, _))) = (
            net.channels_from(ends[s]).first(),
            net.channels_from(ends[d]).first(),
        ) else {
            return Vec::new();
        };
        if !mask.channel_ok(net, inject) || !mask.channel_ok(net, eject_rev.reverse()) {
            return Vec::new();
        }
        match tables.trace_into(net, ends, s, d, &mut scratch) {
            Ok(()) => scratch.clone(),
            Err(_) => Vec::new(),
        }
    })
}

/// Incremental table repair: keeps the last regenerated tables and, on
/// each new fault set, rebuilds only the **dirty columns** — those
/// whose entries reference a channel the fault killed — as long as the
/// survivor order is unchanged. (A changed order re-orients up/down
/// globally, so everything is rebuilt in that case; node deaths and
/// disconnections always change it.)
///
/// Column entries are a pure function of `(survivor order, live
/// channel set)` with order-independent tie-breaks, and any cost a
/// fault can change is witnessed by a dead channel in some referenced
/// entry of the same column, so the patched tables are identical to a
/// from-scratch [`repair_tables`] run — `incremental_matches_full` in
/// the tests and the workspace proptests hold it to that.
///
/// The dirty-column witness only works for masks that **grow**: a
/// *revived* component (a brownout's up edge) can offer shorter paths
/// to columns whose entries are all still alive, so nothing marks them
/// dirty. Revival is therefore detected against the previous mask and
/// triggers a full rebuild — tables after the brownout clears are
/// bit-identical to a never-faulted run, not left on their detours.
pub struct IncrementalRepair<'a> {
    net: &'a Network,
    ends: &'a [NodeId],
    state: Option<IncState>,
    last_rebuilt: usize,
}

struct IncState {
    mask: DeadMask,
    comp: Vec<u32>,
    level: Vec<u32>,
    by_rank: Vec<NodeId>,
    tables: Routes,
    col_connected: Vec<usize>,
}

/// Whether anything dead in `prev` is alive again in `now`.
fn mask_revives(prev: &DeadMask, now: &DeadMask) -> bool {
    let link = prev
        .link_dead
        .iter()
        .zip(&now.link_dead)
        .any(|(&was, &is)| was && !is);
    let node = prev
        .node_dead
        .iter()
        .zip(&now.node_dead)
        .any(|(&was, &is)| was && !is);
    link || node
}

impl<'a> IncrementalRepair<'a> {
    /// Creates an incremental repairer with no tables yet (the first
    /// [`IncrementalRepair::repair`] call builds them in full).
    pub fn new(net: &'a Network, ends: &'a [NodeId]) -> Self {
        IncrementalRepair {
            net,
            ends,
            state: None,
            last_rebuilt: 0,
        }
    }

    /// How many table columns the last [`IncrementalRepair::repair`]
    /// call actually rebuilt.
    pub fn last_rebuilt_columns(&self) -> usize {
        self.last_rebuilt
    }

    /// Repairs against the cumulative fault mask, patching only dirty
    /// columns when possible.
    pub fn repair(&mut self, mask: &DeadMask) -> TableRepair {
        let net = self.net;
        let ends = self.ends;
        let n = ends.len();
        let order = SurvivorOrder::new(net, Some(mask));
        let reusable = self.state.as_ref().is_some_and(|st| {
            st.comp == order.comp && st.level == order.level && !mask_revives(&st.mask, mask)
        });
        if reusable {
            let st = self.state.as_mut().expect("checked above");
            st.mask = mask.clone();
            let mut scratch = ColumnScratch::new(net);
            let mut rebuilt = 0;
            for d in 0..n {
                if column_dirty(net, mask, &st.tables, d) {
                    st.col_connected[d] = build_column(
                        net,
                        ends,
                        mask,
                        &st.comp,
                        &st.level,
                        &st.by_rank,
                        d,
                        &mut st.tables,
                        &mut scratch,
                    );
                    rebuilt += 1;
                }
            }
            self.last_rebuilt = rebuilt;
        } else {
            let (tables, col_connected) =
                updown_tables_for(net, ends, mask, &order.comp, &order.level);
            let by_rank = ranked_routers(net, &order.level);
            self.state = Some(IncState {
                mask: mask.clone(),
                comp: order.comp,
                level: order.level,
                by_rank,
                tables,
                col_connected,
            });
            self.last_rebuilt = n;
        }
        let st = self.state.as_ref().expect("state just ensured");
        TableRepair {
            tables: st.tables.clone(),
            coverage: PairCoverage::of(st.col_connected.iter().sum(), n),
        }
    }
}

/// Whether destination `d`'s column references any channel that
/// `mask` now marks dead.
fn column_dirty(net: &Network, mask: &DeadMask, tables: &Routes, d: usize) -> bool {
    for r in net.routers() {
        if let Some(port) = tables.get(r, d) {
            match net.channel_out(r, port) {
                Some(ch) if mask.channel_ok(net, ch) => {}
                _ => return true,
            }
        }
    }
    false
}

/// Shortest `up* down*` path between two end nodes over surviving
/// channels only — the legacy per-pair meet construction, kept as the
/// connectivity oracle for the table builder. `None` when the pair is
/// severed.
#[cfg(test)]
fn survivor_updown_path(
    net: &Network,
    mask: &DeadMask,
    order: &SurvivorOrder,
    src: NodeId,
    dst: NodeId,
) -> Option<Vec<ChannelId>> {
    if !mask.node_ok(src) || !mask.node_ok(dst) {
        return None;
    }
    let (Some(&(inject, src_router)), Some(&(eject_rev, dst_router))) = (
        net.channels_from(src).first(),
        net.channels_from(dst).first(),
    ) else {
        return None;
    };
    let eject = eject_rev.reverse();
    if !mask.channel_ok(net, inject) || !mask.channel_ok(net, eject) {
        return None;
    }
    if order.comp[src_router.index()] != order.comp[dst_router.index()] {
        return None;
    }
    if src_router == dst_router {
        return Some(vec![inject, eject]);
    }

    // Up-phase BFS from src_router over surviving up channels.
    let mut dist_up = vec![UNSEEN; net.node_count()];
    let mut prev_up: Vec<Option<ChannelId>> = vec![None; net.node_count()];
    dist_up[src_router.index()] = 0;
    let mut q = VecDeque::from([src_router]);
    while let Some(v) = q.pop_front() {
        for &(ch, w) in net.channels_from(v) {
            if net.is_router(w)
                && mask.channel_ok(net, ch)
                && order.is_up(net, ch)
                && dist_up[w.index()] == UNSEEN
            {
                dist_up[w.index()] = dist_up[v.index()] + 1;
                prev_up[w.index()] = Some(ch);
                q.push_back(w);
            }
        }
    }
    // Down-phase reverse BFS from dst_router over surviving down
    // channels.
    let mut dist_dn = vec![UNSEEN; net.node_count()];
    let mut next_dn: Vec<Option<ChannelId>> = vec![None; net.node_count()];
    dist_dn[dst_router.index()] = 0;
    let mut q = VecDeque::from([dst_router]);
    while let Some(v) = q.pop_front() {
        for &(out, w) in net.channels_from(v) {
            let incoming = out.reverse(); // w -> v
            if net.is_router(w)
                && mask.channel_ok(net, incoming)
                && !order.is_up(net, incoming)
                && dist_dn[w.index()] == UNSEEN
            {
                dist_dn[w.index()] = dist_dn[v.index()] + 1;
                next_dn[w.index()] = Some(incoming);
                q.push_back(w);
            }
        }
    }
    // Meet at the router minimizing total length; lowest index breaks
    // ties deterministically.
    let mut best: Option<(u32, usize)> = None;
    for v in net.nodes() {
        let (u, dn) = (dist_up[v.index()], dist_dn[v.index()]);
        if u != UNSEEN && dn != UNSEEN {
            let key = (u + dn, v.index());
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
    }
    let (_, meet) = best?;
    // Reconstruct: up segment backwards from meet, then down segment
    // forwards.
    let mut path = vec![inject];
    let mut seg = Vec::new();
    let mut cur = NodeId(meet as u32);
    while cur != src_router {
        let ch = prev_up[cur.index()].expect("up-phase predecessor on the BFS tree");
        seg.push(ch);
        cur = net.channel_src(ch);
    }
    seg.reverse();
    path.extend(seg);
    let mut cur = NodeId(meet as u32);
    while cur != dst_router {
        let ch = next_dn[cur.index()].expect("down-phase successor on the BFS tree");
        path.push(ch);
        cur = net.channel_dst(ch);
    }
    path.push(eject);
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_topo::{Fractahedron, Hypercube, Ring, Topology, Variant};

    /// [`repair_tables`] with its surviving pairs traced.
    fn repair_traced(net: &Network, ends: &[NodeId], mask: &DeadMask) -> (TableRepair, RouteSet) {
        let rep = repair_tables(net, ends, mask);
        let routes = trace_surviving(net, ends, mask, &rep.tables);
        (rep, routes)
    }

    fn check_avoids(net: &Network, mask: &DeadMask, routes: &RouteSet) {
        for (_, _, p) in routes.pairs() {
            for &ch in p {
                assert!(
                    mask.channel_ok(net, ch),
                    "route crosses dead channel {ch:?}"
                );
            }
        }
    }

    fn first_router_link(net: &Network) -> LinkId {
        net.links()
            .find(|&l| {
                let info = net.link(l);
                net.is_router(info.a.0) && net.is_router(info.b.0)
            })
            .unwrap()
    }

    #[test]
    fn no_faults_full_coverage() {
        let h = Hypercube::new(3, 1, 6).unwrap();
        let (rep, routes) = repair_traced(h.net(), h.end_nodes(), &DeadMask::new(h.net()));
        assert!(rep.coverage.is_full());
        assert_eq!(rep.coverage.ratio(), 1.0);
        assert!(routes.check_simple().is_ok());
    }

    #[test]
    fn ring_survives_one_link_cut() {
        // A ring is 2-edge-connected between routers: one dead cable
        // reroutes the long way around.
        let r = Ring::new(5, 1, 6).unwrap();
        let mut mask = DeadMask::new(r.net());
        mask.kill_link(first_router_link(r.net()));
        let (rep, routes) = repair_traced(r.net(), r.end_nodes(), &mask);
        assert!(rep.coverage.is_full(), "coverage {}", rep.coverage.ratio());
        check_avoids(r.net(), &mask, &routes);
    }

    #[test]
    fn dead_router_degrades_gracefully() {
        let r = Ring::new(4, 1, 6).unwrap();
        let mut mask = DeadMask::new(r.net());
        // Kill the router end 0 attaches to: 0 is severed, others
        // reroute around the hole.
        let router0 = r.net().channels_from(r.end_nodes()[0]).first().unwrap().1;
        mask.kill_router(router0);
        let (rep, routes) = repair_traced(r.net(), r.end_nodes(), &mask);
        assert!(!rep.coverage.is_full());
        // 3 surviving ends remain mutually connected: 3 * 2 = 6 of 12.
        assert_eq!(rep.coverage.connected, 6);
        check_avoids(r.net(), &mask, &routes);
        // Severed pairs really are empty.
        assert!(routes.path(0, 1).is_empty());
        assert!(routes.path(1, 0).is_empty());
        assert!(!routes.path(1, 2).is_empty());
    }

    #[test]
    fn fractahedron_repair_is_deterministic() {
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let mut mask = DeadMask::new(f.net());
        mask.kill_link(first_router_link(f.net()));
        let (a, a_routes) = repair_traced(f.net(), f.end_nodes(), &mask);
        let (b, b_routes) = repair_traced(f.net(), f.end_nodes(), &mask);
        for (s, d, p) in a_routes.pairs() {
            assert_eq!(p, b_routes.path(s, d), "{s}->{d}");
        }
        assert_eq!(a.tables, b.tables);
        assert!(a.coverage.is_full());
        check_avoids(f.net(), &mask, &a_routes);
    }

    #[test]
    fn repaired_paths_are_up_then_down() {
        let h = Hypercube::new(3, 1, 6).unwrap();
        let mut mask = DeadMask::new(h.net());
        mask.kill_link(first_router_link(h.net()));
        let order = SurvivorOrder::new(h.net(), Some(&mask));
        let (rep, routes) = repair_traced(h.net(), h.end_nodes(), &mask);
        assert!(rep.coverage.is_full());
        for (s, d, p) in routes.pairs() {
            let interior = &p[1..p.len() - 1];
            let mut descending = false;
            for &ch in interior {
                if order.is_up(h.net(), ch) {
                    assert!(!descending, "{s}->{d} turned back up");
                } else {
                    descending = true;
                }
            }
        }
    }

    #[test]
    fn table_connectivity_matches_legacy_oracle() {
        // The column builder must connect exactly the pairs the old
        // per-pair meet construction could connect.
        for kill_router in [false, true] {
            let h = Hypercube::new(3, 1, 6).unwrap();
            let mut mask = DeadMask::new(h.net());
            mask.kill_link(first_router_link(h.net()));
            if kill_router {
                let r = h.net().channels_from(h.end_nodes()[2]).first().unwrap().1;
                mask.kill_router(r);
            }
            let order = SurvivorOrder::new(h.net(), Some(&mask));
            let (rep, routes) = repair_traced(h.net(), h.end_nodes(), &mask);
            let ends = h.end_nodes();
            let mut oracle_connected = 0;
            for s in 0..ends.len() {
                for d in 0..ends.len() {
                    if s == d {
                        continue;
                    }
                    let legacy = survivor_updown_path(h.net(), &mask, &order, ends[s], ends[d]);
                    assert_eq!(
                        legacy.is_some(),
                        !routes.path(s, d).is_empty(),
                        "{s}->{d} (kill_router={kill_router})"
                    );
                    if legacy.is_some() {
                        oracle_connected += 1;
                    }
                }
            }
            assert_eq!(rep.coverage.connected, oracle_connected);
        }
    }

    #[test]
    fn incremental_matches_full() {
        // Killing router links one at a time, the dirty-column patcher
        // must land on byte-identical tables to a from-scratch rebuild.
        let h = Hypercube::new(3, 1, 6).unwrap();
        let links: Vec<LinkId> = h
            .net()
            .links()
            .filter(|&l| {
                let info = h.net().link(l);
                h.net().is_router(info.a.0) && h.net().is_router(info.b.0)
            })
            .take(4)
            .collect();
        let mut inc = IncrementalRepair::new(h.net(), h.end_nodes());
        let mut mask = DeadMask::new(h.net());
        let first = inc.repair(&mask);
        assert_eq!(
            first.tables,
            repair_tables(h.net(), h.end_nodes(), &mask).tables
        );
        for &l in &links {
            mask.kill_link(l);
            let patched = inc.repair(&mask);
            let full = repair_tables(h.net(), h.end_nodes(), &mask);
            assert_eq!(patched.tables, full.tables, "after killing {l:?}");
            assert_eq!(patched.coverage, full.coverage);
        }
    }

    #[test]
    fn incremental_repair_skips_untouched_columns() {
        // Find a link kill that leaves the survivor order intact; the
        // patcher must then rebuild only the columns that referenced
        // the dead link instead of all of them.
        let h = Hypercube::new(4, 1, 8).unwrap();
        let healthy = SurvivorOrder::new(h.net(), Some(&DeadMask::new(h.net())));
        let victim = h
            .net()
            .links()
            .filter(|&l| {
                let info = h.net().link(l);
                h.net().is_router(info.a.0) && h.net().is_router(info.b.0)
            })
            .find(|&l| {
                let mut m = DeadMask::new(h.net());
                m.kill_link(l);
                let o = SurvivorOrder::new(h.net(), Some(&m));
                o.comp == healthy.comp && o.level == healthy.level
            })
            .expect("a hypercube has order-preserving link kills");
        let mut inc = IncrementalRepair::new(h.net(), h.end_nodes());
        let n = h.end_nodes().len();
        inc.repair(&DeadMask::new(h.net()));
        assert_eq!(inc.last_rebuilt_columns(), n);
        let mut mask = DeadMask::new(h.net());
        mask.kill_link(victim);
        inc.repair(&mask);
        assert!(
            inc.last_rebuilt_columns() < n,
            "rebuilt {} of {n} columns",
            inc.last_rebuilt_columns()
        );
    }

    #[test]
    fn incremental_repair_rebuilds_after_revival() {
        // A brownout shrinks the mask back: the detoured columns
        // reference only live channels, so the dirty witness alone
        // would leave them on the detour. Revival must force a full
        // rebuild that matches a from-scratch run on the shrunk mask.
        let h = Hypercube::new(3, 1, 6).unwrap();
        let victim = h
            .net()
            .links()
            .find(|&l| {
                let info = h.net().link(l);
                h.net().is_router(info.a.0) && h.net().is_router(info.b.0)
            })
            .unwrap();
        let empty = DeadMask::new(h.net());
        let pristine = repair_tables(h.net(), h.end_nodes(), &empty).tables;
        let mut inc = IncrementalRepair::new(h.net(), h.end_nodes());
        let mut down = DeadMask::new(h.net());
        down.kill_link(victim);
        let detour = inc.repair(&down);
        assert_ne!(detour.tables, pristine, "down phase must detour");
        let healed = inc.repair(&empty);
        assert_eq!(inc.last_rebuilt_columns(), h.end_nodes().len());
        assert_eq!(healed.tables, pristine, "revival must restore pristine");
    }
}
