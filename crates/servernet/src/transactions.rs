//! The transaction layer: DMA reads and writes with acknowledgments.
//!
//! ServerNet transfers are acknowledged, which is why §2 worries about
//! *reflexive* usability: "There may be nothing wrong with any of the
//! hardware along the path from A to B, but that path may be unusable
//! due to the inability to send acknowledgments back from B to A."
//! With destination-indexed tables the B→A route generally uses
//! *different* links than A→B (each ascends from its own corner), so a
//! single fault can break a transaction in one direction only — this
//! module makes that failure mode explicit and testable.

use crate::faults::FaultSet;
use crate::healing::table_healing_repairer;
use crate::link::LinkSpec;
use crate::packet::{segment_transfer, Packet, TransactionKind, MAX_PAYLOAD};
use fractanet_graph::{ChannelId, Network, NodeId};
use fractanet_route::{RouteSet, Routes};
use fractanet_sim::{Engine, SimConfig, SimResult, VcMap, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// A requested transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transaction {
    /// Read `bytes` from `from` into `to` (request travels to → from,
    /// data travels back).
    Read {
        /// Requesting node.
        to: usize,
        /// Node holding the data.
        from: usize,
        /// Payload size.
        bytes: usize,
    },
    /// Write `bytes` from `from` to `to`, acknowledged.
    Write {
        /// Sending node.
        from: usize,
        /// Receiving node.
        to: usize,
        /// Payload size.
        bytes: usize,
    },
}

/// Why a transaction could not complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxError {
    /// The data-bearing direction is down.
    DataPathDown {
        /// First dead channel encountered.
        at: ChannelId,
    },
    /// The data path is healthy but the acknowledgment direction is
    /// not — the paper's non-reflexive failure.
    AckPathDown {
        /// First dead channel encountered on the return route.
        at: ChannelId,
    },
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::DataPathDown { at } => write!(f, "data path down at {at:?}"),
            TxError::AckPathDown { at } => {
                write!(
                    f,
                    "acknowledgment path down at {at:?} (data path is healthy)"
                )
            }
        }
    }
}

/// Result of a completed transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct TxOutcome {
    /// Data packets plus the trailing interrupt.
    pub data_packets: usize,
    /// Acknowledgments returned.
    pub ack_packets: usize,
    /// Estimated wall-clock round trip on first-generation links.
    pub round_trip_s: f64,
}

/// First dead channel on a path, if any.
fn first_fault(net: &Network, faults: &FaultSet, path: &[ChannelId]) -> Option<ChannelId> {
    path.iter().copied().find(|&ch| {
        !faults.link_ok(ch.link())
            || !faults.router_ok(net.channel_src(ch))
            || !faults.router_ok(net.channel_dst(ch))
    })
}

/// One-way pipelined wormhole transfer time for `bytes` over `hops`
/// routers: serialization of the whole payload plus one
/// cycle-and-propagation per hop for the head.
fn one_way_s(link: &LinkSpec, hops: usize, bytes: usize) -> f64 {
    link.serialization_s(bytes as u64) + hops as f64 * (link.cycle_s() + link.propagation_s())
}

/// Executes (checks and times) a transaction over fixed table routes.
/// Packets are segmented per the wire format; each data packet is
/// acknowledged.
pub fn execute(
    net: &Network,
    routes: &RouteSet,
    faults: &FaultSet,
    link: &LinkSpec,
    tx: Transaction,
) -> Result<TxOutcome, TxError> {
    let (data_src, data_dst, bytes, request_first) = match tx {
        Transaction::Read { to, from, bytes } => (from, to, bytes, true),
        Transaction::Write { from, to, bytes } => (from, to, bytes, false),
    };
    let data_path = routes.path(data_src, data_dst);
    let ack_path = routes.path(data_dst, data_src);
    if let Some(at) = first_fault(net, faults, data_path) {
        return Err(TxError::DataPathDown { at });
    }
    if let Some(at) = first_fault(net, faults, ack_path) {
        return Err(TxError::AckPathDown { at });
    }

    let packets = segment_transfer(data_dst as u16, data_src as u16, 0, &vec![0u8; bytes]);
    let data_hops = data_path.len().saturating_sub(1);
    let ack_hops = ack_path.len().saturating_sub(1);
    let ack = Packet::new(
        data_src as u16,
        data_dst as u16,
        TransactionKind::Ack,
        Vec::new(),
    );

    let mut t = 0.0;
    if request_first {
        // Read request: a header-only packet travels the ack path
        // first.
        let req = Packet::new(
            data_src as u16,
            data_dst as u16,
            TransactionKind::ReadRequest,
            Vec::new(),
        );
        t += one_way_s(link, ack_hops, req.wire_len());
    }
    for p in &packets {
        t += one_way_s(link, data_hops, p.wire_len());
    }
    // Acks pipeline behind the data; the last one bounds completion.
    t += one_way_s(link, ack_hops, ack.wire_len());

    Ok(TxOutcome {
        data_packets: packets.len(),
        ack_packets: packets.len(),
        round_trip_s: t,
    })
}

/// How many payload packets a transfer needs (excluding the
/// interrupt).
pub fn packets_for(bytes: usize) -> usize {
    bytes.div_ceil(MAX_PAYLOAD).max(1)
}

/// Destination-side exactly-once filter.
///
/// A sender whose ACK timeout races the delivery retransmits a copy of
/// the same packet; both can arrive. The destination remembers, per
/// `(src, dst)` pair, every sequence number it has accepted and
/// rejects repeats — the end-node half of the engine's
/// `duplicates_suppressed` accounting, expressed over wire packets.
#[derive(Clone, Debug, Default)]
pub struct DedupFilter {
    seen: BTreeMap<(u16, u16), BTreeSet<u32>>,
}

impl DedupFilter {
    /// An empty filter (nothing yet delivered).
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts `p` if its `(src, dst, seq)` triple is new; returns
    /// `false` (and leaves state unchanged) for a duplicate.
    pub fn accept(&mut self, p: &Packet) -> bool {
        self.seen.entry((p.src, p.dst)).or_default().insert(p.seq)
    }

    /// Packets accepted so far.
    pub fn accepted(&self) -> usize {
        self.seen.values().map(BTreeSet::len).sum()
    }
}

/// One fabric's inputs to the failover driver: a network, its fixed
/// destination tables, the shared end-node population, and a simulation
/// configuration whose [`fractanet_sim::RetryPolicy`] supplies the
/// acknowledgment timeout, the retry bound `K` (`max_retries`), and
/// the exponential-backoff/jitter parameters.
pub struct FabricSim<'a> {
    /// The fabric's network.
    pub net: &'a Network,
    /// Fixed destination-indexed routing tables — one path per
    /// ordered pair, the paper's §3.3 in-order requirement.
    pub routes: Arc<Routes>,
    /// End nodes, in the address order shared by both fabrics.
    pub ends: &'a [NodeId],
    /// Simulation config, including this fabric's fault schedule and
    /// retry policy.
    pub cfg: SimConfig,
    /// Install certified self-healing tables on permanent faults
    /// (see [`crate::healing`]).
    pub heal: bool,
    /// Virtual-channel assignment discipline for this fabric's
    /// routers, `None` for single-VC fabrics. Route-agnostic maps
    /// (dateline, e-cube classes) stay valid across healed tables.
    pub vc: Option<VcMap>,
}

/// Combined result of an X-fabric run with failover replay on Y.
#[derive(Clone, Debug)]
pub struct FailoverOutcome {
    /// The primary (X) fabric's run.
    pub x: SimResult,
    /// The Y-fabric run replaying X's abandoned transfers (`None`
    /// when X abandoned nothing).
    pub y: Option<SimResult>,
    /// Transfers that failed over after exhausting `K` attempts on X.
    pub failovers: usize,
    /// `(src, dst)` transfers abandoned on *both* fabrics.
    pub unrecovered: Vec<(usize, usize)>,
}

impl FailoverOutcome {
    /// Transfers requested of the fabric pair (failover replays are
    /// not counted twice).
    pub fn total_generated(&self) -> usize {
        self.x.generated
    }

    /// Transfers completed, on either fabric.
    pub fn total_delivered(&self) -> usize {
        self.x.delivered + self.y.as_ref().map_or(0, |r| r.delivered)
    }

    /// End-to-end delivery fraction across both fabrics.
    pub fn delivery_ratio(&self) -> f64 {
        if self.total_generated() == 0 {
            1.0
        } else {
            self.total_delivered() as f64 / self.total_generated() as f64
        }
    }

    /// Whether every transfer completed and neither fabric deadlocked.
    pub fn is_recovered(&self) -> bool {
        self.x.deadlock.is_none()
            && self.y.iter().all(|r| r.deadlock.is_none())
            && self.total_delivered() == self.total_generated()
    }
}

fn run_fabric(f: &FabricSim<'_>, workload: Workload) -> SimResult {
    let mut engine = Engine::new(f.net, f.ends, Arc::clone(&f.routes), f.cfg.clone());
    if let Some(map) = &f.vc {
        engine = engine.with_vc_map(map.clone());
    }
    if f.heal {
        engine
            .with_table_repairer(table_healing_repairer(f.net, f.ends))
            .run(workload)
    } else {
        engine.run(workload)
    }
}

/// Runs `workload` on the X fabric — with its fault schedule, ACK
/// timeouts, bounded retries, and optional self-healing — then
/// replays every transfer X abandoned on the Y fabric.
///
/// Each transfer uses one fabric end to end, and the Y replay starts
/// only after the X run fully drains, so a pair's Y-fabric deliveries
/// follow all of its X-fabric deliveries; with one fixed path per
/// pair per fabric, per-pair delivery order is preserved across the
/// failover.
pub fn run_with_failover(
    x: FabricSim<'_>,
    y: FabricSim<'_>,
    workload: Workload,
) -> FailoverOutcome {
    let xr = run_fabric(&x, workload);
    let failed = xr.recovery.abandoned.clone();
    let failovers = failed.len();
    let (y_res, unrecovered) = if failed.is_empty() {
        (None, Vec::new())
    } else {
        let script = failed.iter().map(|&(s, d)| (0, s, d)).collect();
        let yr = run_fabric(&y, Workload::Scripted(script));
        let u = yr.recovery.abandoned.clone();
        (Some(yr), u)
    };
    FailoverOutcome {
        x: xr,
        y: y_res,
        failovers,
        unrecovered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_route::fractal::fractal_routes;
    use fractanet_sim::{FaultEvent, RetryPolicy};
    use fractanet_topo::{Fractahedron, Topology, Variant};

    fn setup() -> (Fractahedron, RouteSet) {
        let f = Fractahedron::new(2, Variant::Fat, false).unwrap();
        let routes = fractal_routes(&f);
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &routes).unwrap();
        (f, rs)
    }

    #[test]
    fn healthy_write_completes() {
        let (f, rs) = setup();
        let link = LinkSpec::first_generation(10.0);
        let out = execute(
            f.net(),
            &rs,
            &FaultSet::none(),
            &link,
            Transaction::Write {
                from: 3,
                to: 60,
                bytes: 200,
            },
        )
        .unwrap();
        assert_eq!(out.data_packets, 5); // 64+64+64+8 writes + interrupt
        assert_eq!(out.ack_packets, 5);
        assert!(out.round_trip_s > 0.0 && out.round_trip_s < 1e-3);
    }

    #[test]
    fn read_costs_an_extra_request_leg() {
        let (f, rs) = setup();
        let link = LinkSpec::first_generation(10.0);
        let faults = FaultSet::none();
        let w = execute(
            f.net(),
            &rs,
            &faults,
            &link,
            Transaction::Write {
                from: 3,
                to: 60,
                bytes: 64,
            },
        )
        .unwrap();
        let r = execute(
            f.net(),
            &rs,
            &faults,
            &link,
            Transaction::Read {
                to: 3,
                from: 60,
                bytes: 64,
            },
        )
        .unwrap();
        assert!(
            r.round_trip_s > w.round_trip_s,
            "{} vs {}",
            r.round_trip_s,
            w.round_trip_s
        );
    }

    #[test]
    fn forward_fault_reported_as_data_path() {
        let (f, rs) = setup();
        let link = LinkSpec::first_generation(10.0);
        let mut faults = FaultSet::none();
        // Kill the first hop of 3 -> 60.
        let ch = rs.path(3, 60)[0];
        faults.kill_link(ch.link());
        let err = execute(
            f.net(),
            &rs,
            &faults,
            &link,
            Transaction::Write {
                from: 3,
                to: 60,
                bytes: 8,
            },
        )
        .unwrap_err();
        assert!(matches!(err, TxError::DataPathDown { .. }), "{err}");
    }

    #[test]
    fn non_reflexive_fault_breaks_only_the_ack() {
        // The paper's §2 scenario: the A->B hardware is fine, but B->A
        // uses different links (each direction ascends from its own
        // corner), and a fault there kills the transaction anyway.
        let (f, rs) = setup();
        let link = LinkSpec::first_generation(10.0);
        let fwd: Vec<_> = rs.path(3, 60).to_vec();
        let rev: Vec<_> = rs.path(60, 3).to_vec();
        // Find a reverse-only cable.
        let rev_only = rev
            .iter()
            .map(|c| c.link())
            .find(|l| !fwd.iter().any(|c| c.link() == *l))
            .expect("fractahedral reverse routes use different links");
        let mut faults = FaultSet::none();
        faults.kill_link(rev_only);
        let err = execute(
            f.net(),
            &rs,
            &faults,
            &link,
            Transaction::Write {
                from: 3,
                to: 60,
                bytes: 8,
            },
        )
        .unwrap_err();
        assert!(matches!(err, TxError::AckPathDown { .. }), "{err}");
        // The data direction alone would have been fine.
        assert!(first_fault(f.net(), &faults, &fwd).is_none());
    }

    fn fabric_pair() -> (Fractahedron, Arc<Routes>, Fractahedron, Arc<Routes>) {
        let build = || {
            let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
            let routes = Arc::new(fractal_routes(&f));
            (f, routes)
        };
        let (fx, rx) = build();
        let (fy, ry) = build();
        (fx, rx, fy, ry)
    }

    #[test]
    fn healthy_run_needs_no_failover() {
        let (fx, rx, fy, ry) = fabric_pair();
        let x = FabricSim {
            net: fx.net(),
            routes: rx.clone(),
            ends: fx.end_nodes(),
            cfg: SimConfig::default(),
            heal: false,
            vc: None,
        };
        let y = FabricSim {
            net: fy.net(),
            routes: ry.clone(),
            ends: fy.end_nodes(),
            cfg: SimConfig::default(),
            heal: false,
            vc: None,
        };
        let out = run_with_failover(x, y, Workload::all_to_all_burst(8));
        assert!(out.is_recovered());
        assert_eq!(out.failovers, 0);
        assert!(out.y.is_none());
        assert_eq!(out.delivery_ratio(), 1.0);
    }

    #[test]
    fn dead_attach_link_fails_over_to_y() {
        // Kill one of node 0's X-fabric attach links: the fixed tables
        // route some of node 0's pairs through it, and no repair hook
        // is installed, so those transfers exhaust their K attempts on
        // X and fail over to the healthy Y fabric.
        let (fx, rx, fy, ry) = fabric_pair();
        let attach = fx.net().channels_from(fx.end_nodes()[0])[0].0.link();
        let cfg_x = SimConfig {
            max_cycles: 30_000,
            retry: RetryPolicy {
                ack_timeout: 8,
                max_retries: 2,
                backoff_base: 4,
                jitter_seed: 1,
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(attach, 0));
        let x = FabricSim {
            net: fx.net(),
            routes: rx.clone(),
            ends: fx.end_nodes(),
            cfg: cfg_x,
            heal: false,
            vc: None,
        };
        let y = FabricSim {
            net: fy.net(),
            routes: ry.clone(),
            ends: fy.end_nodes(),
            cfg: SimConfig::default(),
            heal: false,
            vc: None,
        };
        let out = run_with_failover(x, y, Workload::all_to_all_burst(8));
        assert!(out.x.is_recovered(), "{:?}", out.x.recovery);
        assert!(out.failovers > 0, "some transfers must fail over");
        assert!(
            out.x
                .recovery
                .abandoned
                .iter()
                .all(|&(s, d)| s == 0 || d == 0),
            "only node 0's transfers may fail over: {:?}",
            out.x.recovery.abandoned
        );
        assert!(out.unrecovered.is_empty());
        assert!(out.is_recovered(), "{:?}", out.y);
        assert_eq!(out.delivery_ratio(), 1.0);
    }

    #[test]
    fn self_healing_x_avoids_failover() {
        // A router-to-router link fault is repairable in place, so a
        // healing X fabric delivers everything itself.
        let (fx, rx, fy, ry) = fabric_pair();
        let victim = fx
            .net()
            .links()
            .find(|&l| {
                let info = fx.net().link(l);
                fx.net().is_router(info.a.0) && fx.net().is_router(info.b.0)
            })
            .unwrap();
        let cfg_x = SimConfig {
            max_cycles: 30_000,
            retry: RetryPolicy {
                ack_timeout: 16,
                max_retries: 6,
                backoff_base: 16,
                jitter_seed: 3,
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(victim, 20));
        let x = FabricSim {
            net: fx.net(),
            routes: rx.clone(),
            ends: fx.end_nodes(),
            cfg: cfg_x,
            heal: true,
            vc: None,
        };
        let y = FabricSim {
            net: fy.net(),
            routes: ry.clone(),
            ends: fy.end_nodes(),
            cfg: SimConfig::default(),
            heal: false,
            vc: None,
        };
        let out = run_with_failover(x, y, Workload::all_to_all_burst(8));
        assert!(out.is_recovered(), "{:?}", out.x.recovery);
        assert_eq!(out.failovers, 0);
        assert_eq!(out.x.recovery.repairs_installed, 1);
    }

    #[test]
    fn packet_count_helper() {
        assert_eq!(packets_for(0), 1);
        assert_eq!(packets_for(64), 1);
        assert_eq!(packets_for(65), 2);
        assert_eq!(packets_for(200), 4);
    }

    #[test]
    fn dedup_filter_rejects_replayed_sequences() {
        let mut f = DedupFilter::new();
        let pkts = segment_transfer(9, 1, 0, &[0u8; 150]);
        for p in &pkts {
            assert!(f.accept(p), "first delivery of seq {} accepted", p.seq);
        }
        // The timeout race redelivers the whole transfer: every copy
        // is rejected, state unchanged.
        for p in &pkts {
            assert!(!f.accept(p), "duplicate of seq {} rejected", p.seq);
        }
        assert_eq!(f.accepted(), pkts.len());
        // Same sequence on a different pair is distinct traffic.
        let other = Packet::new(9, 2, TransactionKind::Write, vec![1]).with_seq(0);
        assert!(f.accept(&other));
    }

    #[test]
    fn timeout_race_duplicates_stay_exactly_once_and_in_order() {
        // The duplicate-delivery audit: an aggressive ACK timeout on a
        // healthy fabric fires while originals are still in flight, so
        // original and speculative retransmit are both in the fabric at
        // once. End to end the run must stay exactly-once, and each
        // pair's deliveries must stay in generation order.
        use fractanet_sim::{Telemetry, TraceEvent};
        let (fx, rx, fy, ry) = fabric_pair();
        let cfg_x = SimConfig {
            max_cycles: 60_000,
            packet_flits: 32,
            retry: RetryPolicy {
                ack_timeout: 1,
                max_retries: 3,
                backoff_base: 8,
                jitter_seed: 5,
            },
            ..SimConfig::default()
        }
        .with_ack_retransmit(true)
        .with_telemetry(Telemetry::recording().with_event_capacity(1 << 16));
        let x = FabricSim {
            net: fx.net(),
            routes: rx.clone(),
            ends: fx.end_nodes(),
            cfg: cfg_x,
            heal: false,
            vc: None,
        };
        let y = FabricSim {
            net: fy.net(),
            routes: ry.clone(),
            ends: fy.end_nodes(),
            cfg: SimConfig::default(),
            heal: false,
            vc: None,
        };
        let out = run_with_failover(x, y, Workload::all_to_all_burst(8));
        // Exactly-once: every duplicate arrival was suppressed, none
        // double-counted, nothing lost.
        assert!(
            out.x.recovery.duplicates_suppressed > 0,
            "the race must actually fire: {:?}",
            out.x.recovery
        );
        assert!(out.is_recovered(), "{:?}", out.x.recovery);
        assert_eq!(out.total_delivered(), out.total_generated());

        // Per-pair in-order delivery: logical packet ids are assigned
        // in generation order, so within a pair the delivered ids must
        // be strictly increasing.
        let tel = out.x.telemetry.as_ref().expect("telemetry was recording");
        let mut pair_of: std::collections::BTreeMap<u32, (u32, u32)> =
            std::collections::BTreeMap::new();
        let mut last_per_pair: std::collections::BTreeMap<(u32, u32), u32> =
            std::collections::BTreeMap::new();
        for ev in &tel.events {
            match *ev {
                TraceEvent::PacketInjected { worm, src, dst, .. } => {
                    pair_of.entry(worm).or_insert((src, dst));
                }
                TraceEvent::Delivered { worm, .. } => {
                    let pair = pair_of[&worm];
                    if let Some(&prev) = last_per_pair.get(&pair) {
                        assert!(worm > prev, "pair {pair:?} delivered {worm} after {prev}");
                    }
                    last_per_pair.insert(pair, worm);
                }
                _ => {}
            }
        }
        assert!(!last_per_pair.is_empty(), "deliveries must be traced");
    }

    #[test]
    fn longer_paths_take_longer() {
        let (f, rs) = setup();
        let link = LinkSpec::first_generation(10.0);
        let faults = FaultSet::none();
        // Same-router pair (1 hop) vs cross-hierarchy pair (5 hops).
        let near = execute(
            f.net(),
            &rs,
            &faults,
            &link,
            Transaction::Write {
                from: 0,
                to: 1,
                bytes: 64,
            },
        )
        .unwrap();
        let far = execute(
            f.net(),
            &rs,
            &faults,
            &link,
            Transaction::Write {
                from: 0,
                to: 63,
                bytes: 64,
            },
        )
        .unwrap();
        assert!(far.round_trip_s > near.round_trip_s);
    }
}
