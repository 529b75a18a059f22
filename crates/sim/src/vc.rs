//! Virtual channels as a first-class layer over the shared router
//! core — the Dally & Seitz alternative the paper weighs and rejects
//! (§2): "They propose adding virtual channels to routers, then
//! breaking loops by allowing some messages to pass other packets.
//! This solution requires multiple packet buffers at each router
//! stage, and severely complicates the router design."
//!
//! This module makes that trade-off measurable. Each physical channel
//! is split into `V` virtual channels, each with its **own** input
//! FIFO and credit counter (the buffer cost the paper objects to),
//! while the physical link still moves at most one flit per cycle (VCs
//! share the wire). The flit movement itself — credits, FIFOs,
//! round-robin output arbitration, faults, retries, duplicate
//! suppression, telemetry and metrics — lives in the one shared
//! [`Engine`](crate::engine::Engine), which routes on destination
//! tables and splits its channels by the [`VcMap`] installed with
//! [`Engine::with_vc_map`](crate::engine::Engine::with_vc_map) — the
//! only virtual-channel state there is. This module contributes only
//! what is genuinely VC-specific:
//!
//! - [`VcMap`], the per-channel VC *discipline*: given a worm's
//!   current `(channel, vc)` and its next physical channel, which VC
//!   does it ride? Two kinds cover the classic Dally–Seitz orderings:
//!   the dateline scheme for rings and tori (promote to VC 1 on
//!   crossing the wrap cable, reset on a dimension change), and static
//!   channel classes for e-cube orderings on meshes, hypercubes and
//!   trees.
//! - [`VcRouteSet`], all-pairs `(channel, vc)` routes with the
//!   extended-graph acyclicity check (`is_deadlock_free`): the Dally &
//!   Seitz theorem says the routing is deadlock-free iff the
//!   dependency graph over *(channel, vc)* vertices is acyclic. The
//!   hand-written [`dateline_ring_routes`] and [`dateline_torus_routes`]
//!   are the references the maps are checked against.
//! - [`VcSweep`], the same extended graph read off destination tables
//!   one routing forest at a time — no pair is traced.

use fractanet_graph::{AdjList, ChannelId, Network};
use fractanet_route::{DestForest, ForestConsumer, RouteSet};
use fractanet_topo::mesh::{PORT_EAST, PORT_NORTH, PORT_SOUTH, PORT_WEST};
use fractanet_topo::ring::{PORT_CW, PORT_NODE0};
use fractanet_topo::{Hypercube, Mesh2D, Ring, Topology, Torus2D};

/// One hop of a virtual-channel route: a physical channel plus the
/// virtual channel to ride on it.
pub type VcHop = (ChannelId, u8);

/// All-pairs virtual-channel routes.
#[derive(Clone, Debug)]
pub struct VcRouteSet {
    paths: Vec<Vec<Vec<VcHop>>>,
    vcs: u8,
}

impl VcRouteSet {
    /// Builds from a per-pair generator.
    pub fn from_pairs(n: usize, vcs: u8, mut f: impl FnMut(usize, usize) -> Vec<VcHop>) -> Self {
        assert!(vcs >= 1);
        let mut paths = Vec::with_capacity(n);
        for s in 0..n {
            let mut row = Vec::with_capacity(n);
            for d in 0..n {
                row.push(if s == d { Vec::new() } else { f(s, d) });
            }
            paths.push(row);
        }
        VcRouteSet { paths, vcs }
    }

    /// Number of end nodes.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether there are no end nodes.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Virtual channels per physical channel.
    pub fn vcs(&self) -> u8 {
        self.vcs
    }

    /// The hop sequence for a pair.
    pub fn path(&self, src: usize, dst: usize) -> &[VcHop] {
        &self.paths[src][dst]
    }

    /// Dally & Seitz on the extended graph: deadlock-free iff the
    /// dependency graph over *(channel, vc)* vertices is acyclic.
    pub fn is_deadlock_free(&self, net: &Network) -> bool {
        let v = self.vcs as usize;
        let mut g = AdjList::new(net.channel_count() * v);
        for row in &self.paths {
            for p in row {
                for w in p.windows(2) {
                    let a = w[0].0.index() * v + w[0].1 as usize;
                    let b = w[1].0.index() * v + w[1].1 as usize;
                    g.add_edge(a as u32, b as u32);
                }
            }
        }
        g.is_acyclic()
    }
}

/// Clockwise ring routes on `vcs` virtual channels with the dateline
/// discipline: packets ride VC 0 until they traverse the wrap link
/// (router n−1 → 0), from which point they ride VC 1. With `vcs = 1`
/// this degenerates to the deadlocking Fig 1 routing.
pub fn dateline_ring_routes(ring: &Ring, vcs: u8) -> VcRouteSet {
    assert!(
        (1..=2).contains(&vcs),
        "the dateline scheme uses up to 2 VCs"
    );
    let n = ring.len();
    let npr = ring.nodes_per_router();
    let net = ring.net();
    VcRouteSet::from_pairs(ring.end_nodes().len(), vcs, |s, d| {
        let rs = ring.router_of_addr(s);
        let rd = ring.router_of_addr(d);
        let mut hops: Vec<VcHop> = Vec::new();
        // Injection.
        let inject = net.channels_from(ring.end_nodes()[s])[0].0;
        hops.push((inject, 0));
        let mut cur = rs;
        let mut vc = 0u8;
        while cur != rd {
            let ch = net
                .channel_out(ring.router(cur), PORT_CW)
                .expect("ring CW port");
            // Crossing the dateline (the wrap link out of router n-1)
            // promotes the packet to VC 1 when available.
            if cur == n - 1 && vcs > 1 {
                vc = 1;
            }
            hops.push((ch, vc));
            cur = (cur + 1) % n;
        }
        let eject = net
            .channel_out(
                ring.router(rd),
                fractanet_graph::PortId(PORT_NODE0.0 + (d % npr) as u8),
            )
            .expect("attach port");
        hops.push((eject, vc));
        hops
    })
}

/// Minimal X-then-Y torus routing on `vcs` virtual channels with a
/// per-dimension dateline: a packet rides VC 0 within a dimension
/// until it traverses that dimension's wrap cable (between coordinate
/// `size−1` and `0`, in either direction), then VC 1; entering the Y
/// dimension resets to VC 0 (dimension order already breaks X↔Y
/// cycles). With `vcs = 1` the wrap routes close dependency cycles.
pub fn dateline_torus_routes(t: &Torus2D, vcs: u8) -> VcRouteSet {
    assert!(
        (1..=2).contains(&vcs),
        "the dateline scheme uses up to 2 VCs"
    );
    let (cols, rows) = (t.cols(), t.rows());
    let net = t.net();
    VcRouteSet::from_pairs(t.end_nodes().len(), vcs, |s, d| {
        let (sx, sy, _) = t.end_coords(s);
        let (dx, dy, _) = t.end_coords(d);
        let mut hops: Vec<VcHop> = Vec::new();
        let inject = net.channels_from(t.end_nodes()[s])[0].0;
        hops.push((inject, 0));
        // X dimension, minimal direction (ties go east).
        let east = (dx + cols - sx) % cols;
        let west = (sx + cols - dx) % cols;
        let (steps, port, wrap_from) = if east <= west {
            (east, PORT_EAST, cols - 1)
        } else {
            (west, PORT_WEST, 0)
        };
        let mut x = sx;
        let mut vc = 0u8;
        for _ in 0..steps {
            let ch = net
                .channel_out(t.router_at(x, sy), port)
                .expect("torus X port");
            if x == wrap_from && vcs > 1 {
                vc = 1;
            }
            hops.push((ch, vc));
            x = if port == PORT_EAST {
                (x + 1) % cols
            } else {
                (x + cols - 1) % cols
            };
        }
        // Y dimension.
        let north = (dy + rows - sy) % rows;
        let south = (sy + rows - dy) % rows;
        let (steps, port, wrap_from) = if north <= south {
            (north, PORT_NORTH, rows - 1)
        } else {
            (south, PORT_SOUTH, 0)
        };
        let mut y = sy;
        if steps > 0 {
            // Entering a new dimension resets to VC 0 (dimension order
            // already breaks X<->Y cycles); an X-only route keeps its
            // VC through ejection.
            vc = 0;
        }
        for _ in 0..steps {
            let ch = net
                .channel_out(t.router_at(dx, y), port)
                .expect("torus Y port");
            if y == wrap_from && vcs > 1 {
                vc = 1;
            }
            hops.push((ch, vc));
            y = if port == PORT_NORTH {
                (y + 1) % rows
            } else {
                (y + rows - 1) % rows
            };
        }
        let &(eject_rev, _) = net
            .channels_from(t.end_nodes()[d])
            .first()
            .expect("attached");
        hops.push((eject_rev.reverse(), vc));
        hops
    })
}

/// Dimension value meaning "no dimension: keep the current VC" —
/// attach channels (injection and ejection) under a dateline map.
const DIM_KEEP: u8 = u8::MAX;

/// The per-channel virtual-channel discipline the shared engine
/// consults on every head allocation and injection: given the worm's
/// current `(channel, vc)` and the next physical channel, which VC
/// does the next hop ride? Plain data (`Send + Sync`) so the sharded
/// decision scans can consult it from worker threads.
#[derive(Clone, Debug)]
pub struct VcMap {
    vcs: u8,
    kind: VcMapKind,
}

#[derive(Clone, Debug)]
enum VcMapKind {
    /// Dally–Seitz dateline: a worm keeps its VC while it travels
    /// within one dimension, promotes to at least VC 1 when it crosses
    /// a marked (wrap) channel, and resets to VC 0 when the dimension
    /// changes. `dim[ch] == DIM_KEEP` marks attach channels, which
    /// never reset or promote.
    Dateline { promote: Vec<bool>, dim: Vec<u8> },
    /// Static e-cube ordering: each physical channel has a class, and
    /// a worm entering it rides `min(class, vcs − 1)` regardless of
    /// history. Acyclic whenever the route's class sequence is
    /// monotone (dimension-ordered routing).
    Classes { class: Vec<u8> },
}

impl VcMap {
    /// A dateline discipline over explicit per-channel wrap marks and
    /// dimension labels (use [`DIM_KEEP`]-semantics via the topology
    /// helpers below unless building something exotic).
    pub fn dateline(vcs: u8, promote: Vec<bool>, dim: Vec<u8>) -> Self {
        assert!(vcs >= 1);
        assert_eq!(promote.len(), dim.len());
        VcMap {
            vcs,
            kind: VcMapKind::Dateline { promote, dim },
        }
    }

    /// A static class-per-channel discipline.
    pub fn classes(vcs: u8, class: Vec<u8>) -> Self {
        assert!(vcs >= 1);
        VcMap {
            vcs,
            kind: VcMapKind::Classes { class },
        }
    }

    /// Virtual channels per physical channel.
    pub fn vcs(&self) -> u8 {
        self.vcs
    }

    /// The VC the next hop rides. `cur` is the physical channel the
    /// head currently occupies (`None` for injection), `cur_vc` its VC.
    pub fn vc_for(&self, cur_vc: u8, cur: Option<ChannelId>, next: ChannelId) -> u8 {
        let top = self.vcs - 1;
        let vc = match &self.kind {
            VcMapKind::Dateline { promote, dim } => {
                let nd = dim[next.index()];
                let mut vc = if nd == DIM_KEEP {
                    cur_vc
                } else {
                    match cur {
                        Some(c) if dim[c.index()] == nd => cur_vc,
                        _ => 0,
                    }
                };
                if promote[next.index()] {
                    vc = vc.max(1);
                }
                vc
            }
            VcMapKind::Classes { class } => class[next.index()],
        };
        vc.min(top)
    }

    /// Replays the discipline over a physical route set, producing the
    /// `(channel, vc)` routes it induces — the dense reference for the
    /// Dally & Seitz extended-graph check that [`VcSweep`] reads off
    /// destination tables.
    pub fn annotate(&self, routes: &RouteSet) -> VcRouteSet {
        VcRouteSet::from_pairs(routes.len(), self.vcs, |s, d| {
            let mut cur: Option<ChannelId> = None;
            let mut vc = 0u8;
            routes
                .path(s, d)
                .iter()
                .map(|&c| {
                    vc = self.vc_for(vc, cur, c);
                    cur = Some(c);
                    (c, vc)
                })
                .collect()
        })
    }
}

/// The forest-side extended-graph build: each [`DestForest`] it absorbs
/// adds that destination's `(channel, vc)` dependencies, so the Dally &
/// Seitz verdict on the extended graph shares the one pass over the
/// tables that feeds the physical CDG (DESIGN.md §13). The edge set
/// equals that of [`VcMap::annotate`] over the traced pairs; pairs
/// whose route fails add nothing, as an empty path adds nothing.
pub struct VcSweep<'a> {
    map: &'a VcMap,
    /// Over the `channel · vcs + vc` vertices
    /// [`VcRouteSet::is_deadlock_free`] numbers, each dependency once.
    graph: AdjList,
    /// `claimed[a · vcs + x] == d`: some walk toward `d` already went
    /// on from `(a, x)`. A dateline walk's future depends on the VC it
    /// arrives with, so the claim is per state, not per node.
    claimed: Vec<u32>,
}

impl<'a> VcSweep<'a> {
    /// An empty build over `net`'s channels under `map`. A map's VC
    /// depends only on the current `(channel, vc)` and the next
    /// channel, so walks toward one destination that meet on a state
    /// share everything that follows.
    pub fn new(net: &Network, map: &'a VcMap) -> Self {
        let states = net.channel_count() * map.vcs as usize;
        VcSweep {
            map,
            graph: AdjList::new(states),
            claimed: vec![u32::MAX; states],
        }
    }

    /// The extended dependency graph of every destination absorbed so
    /// far.
    pub fn finish(self) -> AdjList {
        self.graph
    }
}

impl ForestConsumer for VcSweep<'_> {
    fn absorb(&mut self, forest: &DestForest<'_>) {
        let (d, vcs) = (forest.dst() as u32, self.map.vcs as usize);
        for s in (0..forest.addresses() as u32).filter(|&s| s != d) {
            let (mut a, mut v) = forest.inject(s as usize);
            let mut x = self.map.vc_for(0, None, a);
            while let Some(b) = forest.hop(v) {
                let state = a.index() * vcs + x as usize;
                if self.claimed[state] == d {
                    break;
                }
                self.claimed[state] = d;
                let y = self.map.vc_for(x, Some(a), b);
                // A state turns into `b` on one VC, so its successors
                // number at most its router's ports.
                let next = (b.index() * vcs + y as usize) as u32;
                if !self.graph.succ(state as u32).contains(&next) {
                    self.graph.add_edge(state as u32, next);
                }
                (a, v, x) = (b, forest.channel_dst(b), y);
            }
        }
    }
}

/// The dateline map for a ring: promote on the wrap cable in either
/// direction (CW out of router n−1, CCW out of router 0), keep the VC
/// everywhere else. On clockwise-only routing it induces exactly the
/// assignments of [`dateline_ring_routes`] (those routes never use the
/// CCW wrap); under minimal bidirectional routing both direction
/// cycles get their own dateline, so the extended graph is acyclic
/// with 2 VCs either way.
pub fn dateline_ring_map(ring: &Ring, vcs: u8) -> VcMap {
    let net = ring.net();
    let nch = net.channel_count();
    let mut promote = vec![false; nch];
    let dim = vec![DIM_KEEP; nch];
    if let Some(wrap) = net.channel_out(ring.router(ring.len() - 1), PORT_CW) {
        promote[wrap.index()] = true;
    }
    if let Some(wrap) = net.channel_out(ring.router(0), fractanet_topo::ring::PORT_CCW) {
        promote[wrap.index()] = true;
    }
    VcMap::dateline(vcs, promote, dim)
}

/// The per-dimension dateline map for a 2-D torus: X channels are
/// dimension 0, Y channels dimension 1 (so entering Y resets to VC 0),
/// and the four wrap directions promote. Induces exactly the
/// assignments of [`dateline_torus_routes`].
pub fn dateline_torus_map(t: &Torus2D, vcs: u8) -> VcMap {
    let net = t.net();
    let nch = net.channel_count();
    let mut promote = vec![false; nch];
    let mut dim = vec![DIM_KEEP; nch];
    for c in 0..nch {
        let ch = ChannelId(c as u32);
        let Some((x, y)) = t.coords_of(net.channel_src(ch)) else {
            continue; // injection channel: keep
        };
        let port = net.channel_src_port(ch);
        if port == PORT_EAST {
            dim[c] = 0;
            promote[c] = x == t.cols() - 1;
        } else if port == PORT_WEST {
            dim[c] = 0;
            promote[c] = x == 0;
        } else if port == PORT_NORTH {
            dim[c] = 1;
            promote[c] = y == t.rows() - 1;
        } else if port == PORT_SOUTH {
            dim[c] = 1;
            promote[c] = y == 0;
        } // else: attach (ejection) channel — keep the current VC
    }
    VcMap::dateline(vcs, promote, dim)
}

/// The e-cube class map for a 2-D mesh: X channels class 0, Y channels
/// class 1, attach channels class 0. XY routing visits classes
/// monotonically, so the extended graph is acyclic at any `vcs`.
pub fn ecube_mesh_map(m: &Mesh2D, vcs: u8) -> VcMap {
    let net = m.net();
    let nch = net.channel_count();
    let mut class = vec![0u8; nch];
    for (c, slot) in class.iter_mut().enumerate() {
        let ch = ChannelId(c as u32);
        if !net.is_router(net.channel_src(ch)) {
            continue;
        }
        let port = net.channel_src_port(ch);
        if port == PORT_NORTH || port == PORT_SOUTH {
            *slot = 1;
        }
    }
    VcMap::classes(vcs, class)
}

/// The e-cube class map for a hypercube: a dimension-`d` cube link is
/// class `d mod vcs`, attach channels class 0. E-cube routing resolves
/// dimensions in a fixed order, so class sequences are monotone
/// whenever `vcs ≥ dim` (and load-spread, if not provably ordered,
/// below that).
pub fn ecube_hypercube_map(h: &Hypercube, vcs: u8) -> VcMap {
    let net = h.net();
    let nch = net.channel_count();
    let mut class = vec![0u8; nch];
    for (c, slot) in class.iter_mut().enumerate() {
        let ch = ChannelId(c as u32);
        let src = net.channel_src(ch);
        if h.label_of(src).is_none() {
            continue; // injection channel
        }
        let port = net.channel_src_port(ch);
        if (port.0 as u32) < h.dim() {
            *slot = port.0 % vcs.max(1);
        }
    }
    VcMap::classes(vcs, class)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Engine;
    use crate::fault::FaultEvent;
    use crate::traffic::Workload;
    use fractanet_route::dor::torus_xy_routes;
    use fractanet_route::ringroute::ring_clockwise_routes;
    use std::sync::Arc;

    /// Clockwise ring tables under the dateline map.
    fn ring_engine(ring: &Ring, vcs: u8, cfg: SimConfig) -> Engine<'_> {
        let tables = Arc::new(ring_clockwise_routes(ring));
        Engine::new(ring.net(), ring.end_nodes(), tables, cfg)
            .with_vc_map(dateline_ring_map(ring, vcs))
    }

    /// X-then-Y torus tables under the per-dimension dateline map.
    fn torus_engine(t: &Torus2D, vcs: u8, cfg: SimConfig) -> Engine<'_> {
        Engine::new(t.net(), t.end_nodes(), Arc::new(torus_xy_routes(t)), cfg)
            .with_vc_map(dateline_torus_map(t, vcs))
    }

    fn fig1_cfg() -> SimConfig {
        SimConfig {
            packet_flits: 32,
            buffer_depth: 2,
            max_cycles: 20_000,
            stall_threshold: 300,
            ..SimConfig::default()
        }
    }

    #[test]
    fn one_vc_ring_still_deadlocks() {
        let ring = Ring::new(4, 1, 6).unwrap();
        let routes = dateline_ring_routes(&ring, 1);
        assert!(
            !routes.is_deadlock_free(ring.net()),
            "1 VC keeps the Fig 1 cycle"
        );
        let res = ring_engine(&ring, 1, fig1_cfg()).run(Workload::fig1_ring(4));
        assert!(res.deadlock.is_some());
    }

    #[test]
    fn two_vc_dateline_breaks_the_cycle() {
        let ring = Ring::new(4, 1, 6).unwrap();
        let routes = dateline_ring_routes(&ring, 2);
        assert!(
            routes.is_deadlock_free(ring.net()),
            "dateline CDG must be acyclic"
        );
        let res = ring_engine(&ring, 2, fig1_cfg()).run(Workload::fig1_ring(4));
        assert!(res.deadlock.is_none(), "{:?}", res.deadlock);
        assert_eq!(res.delivered, 4);
    }

    #[test]
    fn buffer_cost_doubles_with_two_vcs() {
        // The paper's objection, quantified.
        let ring = Ring::new(4, 1, 6).unwrap();
        let e1 = ring_engine(&ring, 1, fig1_cfg());
        let e2 = ring_engine(&ring, 2, fig1_cfg());
        assert_eq!(e2.total_buffer_slots(), 2 * e1.total_buffer_slots());
    }

    #[test]
    fn larger_ring_all_to_all_completes_with_vcs() {
        let ring = Ring::new(6, 1, 6).unwrap();
        let routes = dateline_ring_routes(&ring, 2);
        assert!(routes.is_deadlock_free(ring.net()));
        let cfg = SimConfig {
            packet_flits: 8,
            buffer_depth: 2,
            max_cycles: 100_000,
            stall_threshold: 2_000,
            ..SimConfig::default()
        };
        let res = ring_engine(&ring, 2, cfg).run(Workload::all_to_all_burst(6));
        assert!(res.deadlock.is_none());
        assert_eq!(res.delivered, 30);
    }

    #[test]
    fn vc_engine_is_deterministic() {
        let ring = Ring::new(5, 1, 6).unwrap();
        let mk = || {
            let cfg = SimConfig {
                packet_flits: 6,
                max_cycles: 4_000,
                stall_threshold: 2_000,
                ..SimConfig::default()
            };
            ring_engine(&ring, 2, cfg).run(Workload::Bernoulli {
                injection_rate: 0.2,
                pattern: crate::traffic::DstPattern::Uniform,
                until_cycle: 2_000,
            })
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.avg_latency, b.avg_latency);
    }

    #[test]
    fn torus_one_vc_is_cyclic_two_vcs_acyclic() {
        let t = Torus2D::new(4, 4, 1, 6).unwrap();
        let one = dateline_torus_routes(&t, 1);
        assert!(
            !one.is_deadlock_free(t.net()),
            "wrap routes must close a cycle on 1 VC"
        );
        let two = dateline_torus_routes(&t, 2);
        assert!(
            two.is_deadlock_free(t.net()),
            "the dateline must break every cycle"
        );
    }

    #[test]
    fn torus_routes_are_minimal_and_deliver() {
        use fractanet_graph::bfs;
        let t = Torus2D::new(4, 3, 1, 6).unwrap();
        let routes = dateline_torus_routes(&t, 2);
        for s in 0..12usize {
            for d in 0..12usize {
                if s == d {
                    continue;
                }
                let p = routes.path(s, d);
                assert_eq!(
                    t.net().channel_dst(p.last().unwrap().0),
                    t.end_nodes()[d],
                    "{s}->{d}"
                );
                let want =
                    bfs::router_hops(t.net(), t.end_nodes()[s], t.end_nodes()[d]).unwrap() as usize;
                assert_eq!(p.len() - 1, want, "{s}->{d} not minimal");
            }
        }
    }

    #[test]
    fn torus_all_to_all_completes_on_two_vcs() {
        let t = Torus2D::new(3, 3, 1, 6).unwrap();
        let cfg = SimConfig {
            packet_flits: 8,
            buffer_depth: 2,
            max_cycles: 100_000,
            stall_threshold: 2_000,
            ..SimConfig::default()
        };
        let res = torus_engine(&t, 2, cfg).run(Workload::all_to_all_burst(9));
        assert!(res.deadlock.is_none(), "{:?}", res.deadlock);
        assert_eq!(res.delivered, 72);
    }

    #[test]
    fn sharded_vc_engine_matches_serial() {
        // A 6×6 torus (>64 physical channels, so threads > 1 genuinely
        // forms shards) under Bernoulli load with telemetry on: the
        // sharded candidate collection must be bit-identical to the
        // serial scan at every thread count.
        let t = Torus2D::new(6, 6, 1, 6).unwrap();
        let run = |threads: usize| {
            let cfg = SimConfig {
                packet_flits: 8,
                buffer_depth: 2,
                max_cycles: 20_000,
                stall_threshold: 2_000,
                telemetry: fractanet_telemetry::Telemetry::recording(),
                ..SimConfig::default()
            }
            .with_threads(threads);
            torus_engine(&t, 2, cfg).run(Workload::Bernoulli {
                injection_rate: 0.3,
                pattern: crate::traffic::DstPattern::Uniform,
                until_cycle: 1_000,
            })
        };
        let oracle = run(1);
        assert!(oracle.delivered > 50, "fixture too quiet to prove parity");
        let oracle = format!("{oracle:?}");
        for threads in [2, 4, 8] {
            assert_eq!(oracle, format!("{:?}", run(threads)), "threads={threads}");
        }
    }

    #[test]
    fn dateline_routes_are_clockwise_and_switch_once() {
        let ring = Ring::new(5, 1, 6).unwrap();
        let routes = dateline_ring_routes(&ring, 2);
        for s in 0..5usize {
            for d in 0..5usize {
                if s == d {
                    continue;
                }
                let p = routes.path(s, d);
                // VC sequence must be non-decreasing (switch at most
                // once, at the dateline).
                for w in p.windows(2) {
                    assert!(w[1].1 >= w[0].1, "{s}->{d}");
                }
                // Wrap routes end on VC 1; non-wrap routes stay on 0.
                let wraps = d < s;
                assert_eq!(p.last().unwrap().1, u8::from(wraps), "{s}->{d}");
            }
        }
    }

    #[test]
    fn dateline_maps_induce_the_route_assignments() {
        // The tables the engine routes on, traced per pair and
        // annotated by the map it installs, must reproduce the
        // hand-written references hop for hop: same channels, same VCs.
        let ring = Ring::new(5, 1, 6).unwrap();
        let routes = dateline_ring_routes(&ring, 2);
        let traced =
            RouteSet::from_table(ring.net(), ring.end_nodes(), &ring_clockwise_routes(&ring))
                .unwrap();
        let induced = dateline_ring_map(&ring, 2).annotate(&traced);
        for s in 0..5 {
            for d in 0..5 {
                assert_eq!(induced.path(s, d), routes.path(s, d), "ring {s}->{d}");
            }
        }
        let t = Torus2D::new(4, 3, 1, 6).unwrap();
        let routes = dateline_torus_routes(&t, 2);
        let traced = RouteSet::from_table(t.net(), t.end_nodes(), &torus_xy_routes(&t)).unwrap();
        let induced = dateline_torus_map(&t, 2).annotate(&traced);
        for s in 0..12 {
            for d in 0..12 {
                assert_eq!(induced.path(s, d), routes.path(s, d), "torus {s}->{d}");
            }
        }
    }

    #[test]
    fn bidirectional_ring_map_is_acyclic_on_shortest_routes() {
        use fractanet_route::ringroute::ring_shortest_routes;
        let ring = Ring::new(6, 1, 6).unwrap();
        let rs = RouteSet::from_table(ring.net(), ring.end_nodes(), &ring_shortest_routes(&ring))
            .unwrap();
        assert!(
            !dateline_ring_map(&ring, 1)
                .annotate(&rs)
                .is_deadlock_free(ring.net()),
            "1 VC keeps both direction cycles"
        );
        assert!(
            dateline_ring_map(&ring, 2)
                .annotate(&rs)
                .is_deadlock_free(ring.net()),
            "each direction cycle gets its own dateline"
        );
    }

    #[test]
    fn ecube_mesh_map_is_acyclic_on_xy_routes() {
        use fractanet_route::dor::mesh_xy_routes;
        let m = Mesh2D::new(4, 4, 1, 6).unwrap();
        let table = mesh_xy_routes(&m);
        let rs = RouteSet::from_table(m.net(), m.end_nodes(), &table).unwrap();
        let map = ecube_mesh_map(&m, 2);
        let vcr = map.annotate(&rs);
        assert!(vcr.is_deadlock_free(m.net()));
        // X hops ride VC 0, Y hops VC 1.
        let p = vcr.path(0, 15); // (0,0) -> (3,3): X then Y
        assert!(p.iter().any(|&(_, vc)| vc == 0));
        assert!(p.iter().any(|&(_, vc)| vc == 1));
    }

    #[test]
    fn ecube_hypercube_map_is_acyclic_on_ecube_routes() {
        use fractanet_route::dor::ecube_routes;
        let h = Hypercube::new(3, 1, 6).unwrap();
        let table = ecube_routes(&h);
        let rs = RouteSet::from_table(h.net(), h.end_nodes(), &table).unwrap();
        let map = ecube_hypercube_map(&h, 2);
        assert!(map.annotate(&rs).is_deadlock_free(h.net()));
    }

    // --- Regression tests for drift between the old dedicated VC
    // engine and the shared core (the old engine predated the fault,
    // retry, metrics and measured-throughput work and silently lacked
    // all of it).

    #[test]
    fn vc_engine_reports_real_network_latency() {
        // Old drift: avg_network_latency was set equal to avg_latency.
        // Under queueing, injection happens after creation, so the
        // network component must be strictly smaller on average.
        let ring = Ring::new(6, 1, 6).unwrap();
        let cfg = SimConfig {
            packet_flits: 8,
            buffer_depth: 2,
            max_cycles: 100_000,
            stall_threshold: 2_000,
            ..SimConfig::default()
        };
        let res = ring_engine(&ring, 2, cfg).run(Workload::all_to_all_burst(6));
        assert_eq!(res.delivered, 30);
        assert!(
            res.avg_network_latency < res.avg_latency,
            "all-to-all bursts queue at sources: network {} vs e2e {}",
            res.avg_network_latency,
            res.avg_latency
        );
    }

    #[test]
    fn vc_engine_recovers_from_a_transient_fault() {
        // Old drift: the dedicated VC engine had no fault machinery at
        // all — a killed link silently wedged the run. The shared core
        // tears the worm down, retries with backoff, and delivers once
        // the outage clears.
        let ring = Ring::new(4, 1, 6).unwrap();
        let hit = ring
            .net()
            .channel_out(ring.router(0), PORT_CW)
            .unwrap()
            .link();
        let cfg = SimConfig {
            packet_flits: 8,
            buffer_depth: 2,
            max_cycles: 20_000,
            stall_threshold: 2_000,
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(hit, 5).transient(400));
        let res = ring_engine(&ring, 2, cfg).run(Workload::all_to_all_burst(4));
        assert!(res.recovery.faults_applied >= 1);
        assert!(res.is_recovered(), "{:?}", res.recovery);
        assert_eq!(res.delivered + res.recovery.abandoned.len(), 12);
        assert!(res.recovery.retries >= 1, "the killed path must retry");
    }

    #[test]
    fn vc_engine_throughput_counts_only_measured_cycles() {
        // Old drift: throughput divided by the total cycle count even
        // when a warm-up window excluded early deliveries.
        let ring = Ring::new(4, 1, 6).unwrap();
        let cfg = SimConfig {
            packet_flits: 8,
            buffer_depth: 2,
            max_cycles: 10_000,
            stall_threshold: 2_000,
            ..SimConfig::default()
        };
        let res = ring_engine(&ring, 2, cfg).run(Workload::all_to_all_burst(4));
        let flits = 12.0 * 8.0; // 12 pairs × 8 flits, warmup 0
        let want = flits / res.cycles as f64 / 4.0;
        assert!(
            (res.throughput - want).abs() < 1e-12,
            "throughput {} vs {}",
            res.throughput,
            want
        );
    }

    #[test]
    fn vc_engine_supports_live_metrics() {
        // Old drift: `metrics` was hardwired to `None`.
        let ring = Ring::new(4, 1, 6).unwrap();
        let cfg = fig1_cfg().with_metrics(fractanet_telemetry::MetricsConfig::sampling(50));
        let res = ring_engine(&ring, 2, cfg).run(Workload::fig1_ring(4));
        let m = res.metrics.expect("metrics recorder must run");
        assert_eq!(m.totals.delivered, 4);
    }

    #[test]
    fn vc_credit_ledger_is_conserved_at_quiescence() {
        let ring = Ring::new(6, 1, 6).unwrap();
        let cfg = SimConfig {
            packet_flits: 8,
            buffer_depth: 2,
            max_cycles: 100_000,
            stall_threshold: 2_000,
            ..SimConfig::default()
        };
        let res = ring_engine(&ring, 2, cfg).run(Workload::all_to_all_burst(6));
        assert!(res.credits.consumed > 0);
        assert!(
            res.credits.is_conserved(),
            "consumed {} != returned {}",
            res.credits.consumed,
            res.credits.returned
        );
        assert!(
            res.credits.stalls > 0,
            "depth-2 FIFOs under 8-flit worms must stall on credits"
        );
    }
}
