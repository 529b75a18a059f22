//! The cycle-driven wormhole engine.
//!
//! State is per *virtual* channel: each unidirectional channel is
//! multiplexed into `cfg.vcs` VCs (1 by default — plain wormhole),
//! and each VC has the input FIFO at its downstream end, an owner
//! (the packet whose worm currently occupies it), and flit
//! accounting. One flit moves per channel per cycle; heads allocate
//! channels through round-robin output arbitration; tails release
//! them. Flow control is credit-based: the upstream arbiter holds one
//! credit per downstream FIFO slot, spends a credit per flit sent,
//! and regains it `credit_delay + 1` cycles after the flit departs
//! downstream. At `credit_delay = 0` this is exactly the historical
//! start-of-cycle space check (`credits = depth − occupancy` holds at
//! every decision point), so the default configuration is
//! bit-identical to the pre-credit engine; a persistent all-idle
//! network with traffic in flight and no credits in flight is a
//! genuine circular wait, and the wait-for graph confirms it.
//!
//! ## Live faults
//!
//! [`SimConfig::faults`](crate::SimConfig) schedules link/router
//! outages applied at the start of their cycle: every worm whose
//! occupied or remaining channels died is torn down (its channels
//! released, its flits discarded), and the source re-queues it under
//! the [`RetryPolicy`](crate::fault::RetryPolicy) — exponential
//! backoff, bounded attempts, then abandonment.
//!
//! ## Routing epochs
//!
//! Route state lives in **epochs**: immutable, shared destination
//! tables ([`Routes`]), the only route representation the engine
//! knows — what a ServerNet router holds. Each packet carries only its
//! epoch index and looks its next channel up from the current
//! router's destination row, so nothing is snapshotted per packet.
//! Per-pair route sets enter through [`Routes::from_pair_paths`],
//! which accepts exactly the sets tables can express. A repairer
//! ([`Engine::with_table_repairer`]) installs a *new* epoch mid-run;
//! worms in the fabric still resolve against the epoch they were
//! injected under, and the install drains them anyway (mixing two
//! acyclic epochs can deadlock), so only queued and retried packets
//! pick up the repaired routes.
//!
//! Because epochs never change, a hop is resolved once: when a head
//! enters a VC, the VC stores its downstream vid (or an eject mark),
//! and the scan reads that instead of walking the tables every cycle.
//! A queued head's route verdict is likewise stamped with the
//! dead-set generation it was proven under and re-walked only after
//! the dead set changes.
//!
//! ## The cycle
//!
//! A cycle visits only live work: VCs with an owner and sources with
//! a non-empty queue, both kept as bitsets and walked in ascending
//! index order. The decision scan (`par`) reads start-of-cycle state
//! and yields plans; the serial commit applies them and is the only
//! writer of channel state, the activity sets and the caches above.
//! Debug builds recompute every cache from scratch at the end of each
//! cycle and assert it matches.

use crate::config::SimConfig;
use crate::fault::FaultKind;
use crate::stats::{CreditStats, DeadlockEvent, RecoveryStats, SimResult};
use crate::traffic::Workload;
use crate::vc::VcMap;
use fractanet_deadlock::WaitGraph;
use fractanet_graph::{ChannelId, LinkId, Network, NodeId};
use fractanet_route::Routes;
use fractanet_telemetry::{MetricsRecorder, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

mod active;
pub(crate) mod par;

use active::ActiveSet;

const NO_PKT: u32 = u32::MAX;

/// [`ChanState::next`] of a worm whose head ejects from this VC.
const EJECT: u32 = u32::MAX;

/// Salt XORed into the sim seed for the gray-failure RNG stream, so
/// enabling flaky/corrupt links never perturbs the workload or jitter
/// streams (runs without gray faults stay bit-identical).
const GRAY_SEED_SALT: u64 = 0x6EA7_FA11;

#[derive(Clone)]
struct ChanState {
    /// Packet whose worm occupies this virtual channel, or `NO_PKT`.
    owner: u32,
    /// Flits of the owner that have entered (ever) since allocation.
    entered: u32,
    /// Flits currently buffered at the downstream end. `u32`: with
    /// unbounded FIFOs a blocked worm can buffer its whole payload in
    /// one channel.
    occ: u32,
    /// Index of this channel in the owner's path.
    route_pos: u32,
    /// Where the owner's flits go next: the downstream vid, or
    /// [`EJECT`]. Resolved once when the head enters; exact for the
    /// worm's whole stay, because it is a pure function of the
    /// packet's immutable epoch, its endpoints and `route_pos`.
    next: u32,
}

impl ChanState {
    fn free() -> Self {
        ChanState {
            owner: NO_PKT,
            entered: 0,
            occ: 0,
            route_pos: 0,
            next: EJECT,
        }
    }
    /// Flit index of the buffer head.
    fn front(&self) -> u32 {
        self.entered - self.occ
    }
}

struct Packet {
    src: u32,
    dst: u32,
    len: u32,
    created: u64,
    injected: u64,
    sent: u32,
    /// Routing epoch frozen at (re)queue time, so table swaps never
    /// re-route a worm that is already in the fabric.
    epoch: u32,
    /// Transmission attempts so far (0 = first try still pending).
    attempts: u32,
    /// The logical packet this transmission carries: self for
    /// originals, the original's id for speculative retransmit copies.
    /// Exactly-once accounting (delivery, abandonment, sequence-number
    /// suppression) keys on the logical id.
    logical: u32,
    /// The worm crossed a corrupting link: it still delivers, but the
    /// destination CRC check will fail and NACK it.
    corrupted: bool,
    /// This transmission's tail ejected (clean, corrupted, or
    /// suppressed) — used to invalidate stale ACK timers.
    done: bool,
    /// (Logical packets only.) The destination accepted a delivery;
    /// every later arrival with this logical id is a duplicate.
    delivered_once: bool,
    /// (Logical packets only.) The retry budget was exhausted and the
    /// packet handed to the failover layer; a straggler copy arriving
    /// afterwards is discarded by the destination's sequence tracking.
    abandoned_once: bool,
    /// The dead-set generation at which this packet's route under
    /// `epoch` was last proven live, or 0 for never. While it equals
    /// [`Engine::dead_gen`] the queue-head liveness walk is skipped;
    /// reset whenever `epoch` changes.
    live_gen: u32,
}

impl Packet {
    /// A fresh transmission queued under `epoch` at `created`.
    fn new(src: u32, dst: u32, len: u32, created: u64, epoch: u32, logical: u32) -> Self {
        Packet {
            src,
            dst,
            len,
            created,
            injected: u64::MAX,
            sent: 0,
            epoch,
            attempts: 0,
            logical,
            corrupted: false,
            done: false,
            delivered_once: false,
            abandoned_once: false,
            live_gen: 0,
        }
    }
}

/// Callback invoked after permanent faults: given the currently-dead
/// links and routers, may return repaired destination tables to
/// install as a new epoch, shared rather than copied.
type Repairer<'a> = Box<dyn FnMut(&[LinkId], &[NodeId]) -> Option<Arc<Routes>> + 'a>;

/// One timeline entry: (cycle, is_repair, kind, permanent).
type TimelineEvent = (u64, bool, FaultKind, bool);

/// One simulation instance. The network is borrowed and the tables
/// are shared, so parallel sweep runs reuse both. Per-pair routes run
/// once projected onto tables:
///
/// ```
/// use fractanet_sim::{Engine, SimConfig, Workload};
/// use fractanet_route::{fractal, RouteSet, Routes};
/// use fractanet_topo::{Fractahedron, Topology, Variant};
/// use std::sync::Arc;
///
/// let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
/// let rs = RouteSet::from_table(f.net(), f.end_nodes(), &fractal::fractal_routes(&f)).unwrap();
/// let tables = Routes::from_pair_paths(f.net(), f.end_nodes(), &rs).unwrap();
/// let cfg = SimConfig::default().with_packet_flits(8).with_max_cycles(10_000);
/// let result = Engine::new(f.net(), f.end_nodes(), Arc::new(tables), cfg)
///     .run(Workload::all_to_all_burst(8));
/// assert!(result.is_clean());
/// assert_eq!(result.delivered, 56);
/// ```
pub struct Engine<'a> {
    net: &'a Network,
    /// Routing epochs, oldest first; the last entry is current.
    epochs: Vec<Arc<Routes>>,
    /// End nodes in the address order the tables are indexed by.
    ends: Vec<NodeId>,
    cfg: SimConfig,
    /// Per-virtual-channel state, indexed `vid = phys * vcs + vc`. At
    /// `vcs == 1`, vid and physical channel index coincide.
    chans: Vec<ChanState>,
    /// Live VCs: those with an owner. A superset of the VCs holding
    /// flits, since a tail departing always empties its VC.
    live: ActiveSet,
    packets: Vec<Packet>,
    queues: Vec<VecDeque<u32>>,
    /// Sources whose queue is non-empty; its length is the drain
    /// check's queue term.
    queued: ActiveSet,
    /// Per-cycle decision and commit buffers, cleared rather than
    /// reallocated each cycle.
    scratch: par::Scratch,
    /// Round-robin pointer per virtual channel: last granted upstream.
    rr: Vec<u32>,
    /// Virtual channels multiplexed over each physical channel.
    vcs: usize,
    /// Next-hop VC assignment, required when `vcs > 1`; absent, every
    /// hop rides VC 0.
    vcmap: Option<VcMap>,
    /// Credits the upstream arbiter holds per virtual channel — the
    /// downstream FIFO slots it may still fill. Maintains
    /// `credits + occ + in-flight returns == buffer_depth`.
    credits: Vec<u32>,
    /// Credit returns in flight: `(due_cycle, vid)`, FIFO (pushes are
    /// monotone in due cycle). Empty whenever `credit_delay == 0`.
    pending_credits: VecDeque<(u64, u32)>,
    credits_consumed: u64,
    credits_returned: u64,
    credit_stalls: u64,
    /// One-flit-per-physical-wire claim stamps (`cycle + 1` = claimed
    /// this cycle). Consulted only at `vcs > 1`: with a single VC the
    /// per-wire candidate sets are disjoint by ownership.
    wire_stamp: Vec<u64>,
    /// Like `wire_stamp`, for the destination node's ingest port
    /// (ejections of distinct VCs of one attach channel).
    eject_stamp: Vec<u64>,
    busy: Vec<u64>,
    in_flight: usize,
    delivered: usize,
    delivered_flits_measured: u64,
    latencies: Vec<u64>,
    net_latencies: Vec<u64>,
    rng: StdRng,
    // Fault machinery.
    timeline: Vec<TimelineEvent>,
    next_event: usize,
    link_fault_ct: Vec<u32>,
    router_fault_ct: Vec<u32>,
    chan_dead: Vec<bool>,
    /// Generation of `chan_dead`, bumped on every recompute; stamps
    /// [`Packet::live_gen`]. Starts at 1 so a zero stamp never holds.
    dead_gen: u32,
    first_fault: Option<u64>,
    pending_retries: BinaryHeap<Reverse<(u64, u32)>>,
    retry_rng: StdRng,
    // Gray-failure machinery: per-link flaky/corrupt probabilities (‰)
    // toggled by timeline events, a count of active gray faults (the
    // per-cycle scan is skipped entirely at zero), and a dedicated RNG
    // stream so gray draws never perturb the other streams.
    flaky_pm: Vec<u16>,
    corrupt_pm: Vec<u16>,
    gray_active: u32,
    gray_rng: StdRng,
    /// Armed ACK timers, `(fire_cycle, packet, attempts_when_armed)` —
    /// only populated when `cfg.ack_retransmit` is on.
    ack_timers: BinaryHeap<Reverse<(u64, u32, u32)>>,
    repairer: Option<Repairer<'a>>,
    /// Debug builds lint every repairer-installed epoch.
    lint_on_install: bool,
    rec: RecoveryStats,
    /// Telemetry recorder — `Some` iff `cfg.telemetry` is recording.
    /// Every instrumentation site is gated on this option, so a
    /// disabled run pays one branch per site and nothing else.
    tel: Option<Recorder>,
    /// Live-metrics recorder — `Some` iff `cfg.metrics` is on. Every
    /// emit and the periodic sample run at serial commit points only
    /// (never inside the sharded scan), so metrics are inert: results
    /// are bit-identical on/off at every thread width.
    met: Option<MetricsRecorder>,
}

impl<'a> Engine<'a> {
    /// Creates an engine over destination tables: packets carry no
    /// path snapshot at all, every hop is looked up from the shared
    /// tables. `ends` is the end-node address order the tables are
    /// indexed by.
    ///
    /// ```
    /// use fractanet_sim::{Engine, SimConfig, Workload};
    /// use fractanet_route::fractal;
    /// use fractanet_topo::{Fractahedron, Topology, Variant};
    /// use std::sync::Arc;
    ///
    /// let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
    /// let routes = Arc::new(fractal::fractal_routes(&f));
    /// let cfg = SimConfig::default().with_packet_flits(8).with_max_cycles(10_000);
    /// let result = Engine::new(f.net(), f.end_nodes(), routes, cfg)
    ///     .run(Workload::all_to_all_burst(8));
    /// assert!(result.is_clean());
    /// assert_eq!(result.delivered, 56);
    /// ```
    pub fn new(net: &'a Network, ends: &[NodeId], routes: Arc<Routes>, cfg: SimConfig) -> Self {
        let n = ends.len();
        let nch = net.channel_count();
        let rng = StdRng::seed_from_u64(cfg.seed);
        let retry_rng = StdRng::seed_from_u64(cfg.retry.jitter_seed);
        let gray_rng = StdRng::seed_from_u64(cfg.seed ^ GRAY_SEED_SALT);
        let mut timeline: Vec<TimelineEvent> = Vec::with_capacity(cfg.faults.len() * 2);
        for f in &cfg.faults {
            // Brownouts expand into their alternating down/up phases
            // here, so the per-cycle machinery only ever sees plain
            // transient link outages.
            if let FaultKind::Brownout { link, down, up } = f.kind {
                if down == 0 || up == 0 {
                    continue; // degenerate; the constructor debug-asserts
                }
                let end = f.repair_cycle.unwrap_or(cfg.max_cycles);
                let mut t = f.at_cycle;
                while t < end {
                    timeline.push((t, false, FaultKind::Link(link), false));
                    timeline.push(((t + down).min(end), true, FaultKind::Link(link), false));
                    t += down + up;
                }
                continue;
            }
            timeline.push((f.at_cycle, false, f.kind, f.is_permanent()));
            if let Some(rc) = f.repair_cycle {
                timeline.push((rc, true, f.kind, false));
            }
        }
        timeline.sort_by_key(|&(cycle, is_repair, _, _)| (cycle, is_repair));
        let tel = cfg.telemetry.recorder(nch);
        let met = cfg.metrics.recorder(net, n, cfg.retry.max_retries);
        let vcs = cfg.vcs.max(1) as usize;
        let nv = nch * vcs;
        let depth = cfg.buffer_depth;
        Engine {
            net,
            epochs: vec![routes],
            ends: ends.to_vec(),
            cfg,
            chans: vec![ChanState::free(); nv],
            live: ActiveSet::new(nv),
            packets: Vec::new(),
            queues: vec![VecDeque::new(); n],
            queued: ActiveSet::new(n),
            scratch: par::Scratch::default(),
            rr: vec![0; nv],
            vcs,
            vcmap: None,
            credits: vec![depth; nv],
            pending_credits: VecDeque::new(),
            credits_consumed: 0,
            credits_returned: 0,
            credit_stalls: 0,
            wire_stamp: vec![0; nch],
            eject_stamp: vec![0; nch],
            busy: vec![0; nch],
            in_flight: 0,
            delivered: 0,
            delivered_flits_measured: 0,
            latencies: Vec::new(),
            net_latencies: Vec::new(),
            rng,
            timeline,
            next_event: 0,
            link_fault_ct: vec![0; net.link_count()],
            router_fault_ct: vec![0; net.node_count()],
            chan_dead: vec![false; nch],
            dead_gen: 1,
            first_fault: None,
            pending_retries: BinaryHeap::new(),
            retry_rng,
            flaky_pm: vec![0; net.link_count()],
            corrupt_pm: vec![0; net.link_count()],
            gray_active: 0,
            gray_rng,
            ack_timers: BinaryHeap::new(),
            repairer: None,
            lint_on_install: false,
            rec: RecoveryStats::default(),
            tel,
            met,
        }
    }

    /// Installs a virtual-channel map: every physical channel is split
    /// into `map.vcs()` VCs with their own FIFOs, owners and credits,
    /// and each hop's VC is chosen by the map (Dally–Seitz ordering,
    /// per-hop assignments, …). Overrides `cfg.vcs` and resizes the
    /// per-VC state; call before [`Engine::run`].
    pub fn with_vc_map(mut self, map: VcMap) -> Self {
        let vcs = map.vcs().max(1);
        self.cfg.vcs = vcs;
        self.vcs = vcs as usize;
        let nv = self.net.channel_count() * self.vcs;
        self.chans = vec![ChanState::free(); nv];
        self.live = ActiveSet::new(nv);
        self.rr = vec![0; nv];
        self.credits = vec![self.cfg.buffer_depth; nv];
        self.vcmap = Some(map);
        self
    }

    /// Total input-FIFO slots the configuration provisions: one FIFO
    /// of `buffer_depth` flits per virtual channel. The buffer-cost
    /// axis of the VC-vs-turn-disable comparison.
    pub fn total_buffer_slots(&self) -> usize {
        self.chans.len() * self.cfg.buffer_depth as usize
    }

    /// Installs a self-healing hook: after each cycle that applies a
    /// *permanent* fault, the repairer sees the currently-dead links
    /// and routers and may return repaired destination tables, which
    /// the engine installs as a new shared epoch for all queued and
    /// future packets. The caller is responsible for certifying the
    /// tables deadlock-free before returning them.
    pub fn with_table_repairer(
        mut self,
        f: impl FnMut(&[LinkId], &[NodeId]) -> Option<Arc<Routes>> + 'a,
    ) -> Self {
        self.repairer = Some(Box::new(f));
        self
    }

    /// The current (latest-installed) routing epoch.
    fn cur_epoch(&self) -> u32 {
        (self.epochs.len() - 1) as u32
    }

    /// Physical channel of a virtual-channel index.
    #[inline]
    fn phys(&self, vid: u32) -> ChannelId {
        ChannelId(vid / self.vcs as u32)
    }

    /// Spends one credit for a flit entering `vid`'s downstream FIFO.
    #[inline]
    fn consume_credit(&mut self, vid: u32) {
        debug_assert!(self.credits[vid as usize] > 0, "credit double-spend");
        self.credits[vid as usize] -= 1;
        self.credits_consumed += 1;
    }

    /// Returns one credit for a flit leaving `vid`'s downstream FIFO
    /// (or discarded by a teardown). Instantaneous at
    /// `credit_delay == 0` — the historical space-check semantics —
    /// otherwise the return travels upstream and lands `delay + 1`
    /// cycles later.
    #[inline]
    fn return_credit(&mut self, vid: u32, cycle: u64) {
        self.credits_returned += 1;
        if self.cfg.credit_delay == 0 {
            self.credits[vid as usize] += 1;
        } else {
            self.pending_credits
                .push_back((cycle + 1 + self.cfg.credit_delay, vid));
        }
    }

    /// Lands every in-flight credit return due by `cycle`; returns how
    /// many landed (run-loop liveness: landing credits is progress).
    fn drain_due_credits(&mut self, cycle: u64) -> usize {
        let mut landed = 0;
        while let Some(&(due, vid)) = self.pending_credits.front() {
            if due > cycle {
                break;
            }
            self.pending_credits.pop_front();
            self.credits[vid as usize] += 1;
            landed += 1;
        }
        landed
    }

    /// Appends `pid` to source `s`'s queue.
    fn enqueue(&mut self, s: usize, pid: u32) {
        self.queues[s].push_back(pid);
        self.queued.insert(s as u32);
    }

    /// Re-derives source `s`'s queued-set membership after pops.
    fn sync_queued(&mut self, s: usize) {
        self.queued.set(s as u32, !self.queues[s].is_empty());
    }

    /// Frees `vid` of its owner (a tail left, or a teardown).
    fn release_vc(&mut self, vid: u32) {
        self.chans[vid as usize] = ChanState::free();
        self.live.remove(vid);
    }

    /// Whether the packet's route under its epoch is unusable: absent
    /// (severed pair, missing table entry, forwarding loop) or crossing
    /// a currently-dead channel. Checked before injection.
    fn route_dead_or_missing(&self, p: &Packet) -> bool {
        self.scan_view().route_dead_or_missing(p)
    }

    /// Whether any channel the worm has yet to traverse — beyond its
    /// head on `ch` — is currently dead.
    fn remainder_dead(&self, p: &Packet, ch: ChannelId) -> bool {
        self.scan_view().remainder_dead(p, ch)
    }

    /// Debug-assertion guard for repairers that promise *certified*
    /// tables: in debug builds, every repairer-returned table is
    /// statically linted (coverage, liveness, well-formedness, CDG
    /// acyclicity — fault-aware against the currently-dead set) before
    /// installation, and an unclean table panics. Release builds skip
    /// the check entirely. Do not enable for repairers that
    /// intentionally return partial or stale tables.
    pub fn with_lint_on_install(mut self) -> Self {
        self.lint_on_install = true;
        self
    }

    /// Runs `workload` to completion (or `max_cycles`, or deadlock) and
    /// returns the aggregate result.
    pub fn run(mut self, mut workload: Workload) -> SimResult {
        let n = self.ends.len();
        let mut idle_cycles = 0u64;
        let mut cycle = 0u64;
        let mut generated = 0usize;
        let mut deadlock = None;

        while cycle < self.cfg.max_cycles {
            // 0. Outages and repairs scheduled for this cycle, then
            //    retries whose backoff expired.
            if self.next_event < self.timeline.len() {
                self.apply_fault_events(cycle);
            }
            self.apply_gray_failures(cycle);
            self.release_due_retries(cycle);
            self.fire_ack_timeouts(cycle);
            // Credit returns that finished their upstream trip become
            // visible to this cycle's decisions. No-op at delay 0.
            self.drain_due_credits(cycle);

            // 1. Traffic.
            for (s, d) in workload.generate(cycle, n, self.cfg.packet_flits, &mut self.rng) {
                let id = self.packets.len() as u32;
                let epoch = self.cur_epoch();
                self.packets.push(Packet::new(
                    s as u32,
                    d as u32,
                    self.cfg.packet_flits,
                    cycle,
                    epoch,
                    id,
                ));
                self.enqueue(s, id);
                generated += 1;
                if self.first_fault.is_some() {
                    self.rec.post_fault_generated += 1;
                }
                if let Some(m) = self.met.as_mut() {
                    m.generated(cycle, s, d);
                }
            }
            // Queue heads that can no longer be routed — checked after
            // generation so a packet created this cycle never reaches
            // the injection logic with an empty or fault-crossing path.
            self.flush_unroutable_heads(cycle);

            // 2. One simulation step: the decision scan over live VCs
            //    and queued sources (sharded across `cfg.threads`
            //    workers when there is enough live work), then the
            //    serial commit. Every width is bit-identical (enforced
            //    by the `parallel_and_serial_engines_agree` proptest and
            //    the engine golden vectors), so the knob only affects
            //    wall-clock.
            let moves = self.step(cycle);
            if cfg!(debug_assertions) {
                self.debug_audit_activity();
            }

            // 2b. Periodic metrics sample — at the serial commit
            //     point, after this cycle's state is final, so the
            //     registry observes identical values at every thread
            //     width.
            if let Some(m) = self.met.as_mut() {
                if m.due(cycle) {
                    let epoch = (self.epochs.len() - 1) as u64;
                    m.sample(cycle, self.in_flight as u64, epoch, &self.busy);
                }
            }

            // 3. Termination checks.
            let queues_empty = self.queued.len() == 0;
            let drained = self.in_flight == 0 && queues_empty && self.pending_retries.is_empty();
            if workload.finished(cycle) && drained {
                cycle += 1;
                break;
            }
            if moves == 0 && !drained {
                if (self.in_flight == 0 && queues_empty) || !self.pending_credits.is_empty() {
                    // Nothing in the fabric (waiting out retry backoff
                    // timers), or credits still in flight whose landing
                    // may unblock a worm — neither is a stall. The
                    // latter delays a true-deadlock verdict by at most
                    // `credit_delay` cycles.
                    idle_cycles = 0;
                } else {
                    idle_cycles += 1;
                    if idle_cycles >= self.cfg.stall_threshold {
                        let verdict = self.diagnose_deadlock(cycle);
                        if let Some(m) = self.met.as_mut() {
                            m.deadlock(
                                cycle,
                                format!(
                                    "{} stuck packets, {}-channel wait cycle",
                                    verdict.stuck_packets,
                                    verdict.cycle_channels.len()
                                ),
                            );
                        }
                        deadlock = Some(verdict);
                        cycle += 1;
                        break;
                    }
                }
            } else {
                idle_cycles = 0;
            }
            cycle += 1;
        }

        self.finish(cycle, generated, deadlock)
    }

    /// Applies every timeline event scheduled for `cycle`: updates the
    /// dead masks, tears down truncated worms, and (after permanent
    /// faults) offers the repairer a chance to install new tables.
    fn apply_fault_events(&mut self, cycle: u64) {
        let mut topo_changed = false;
        let mut permanent_applied = false;
        let mut outage_applied = false;
        while self.next_event < self.timeline.len() && self.timeline[self.next_event].0 == cycle {
            let (_, is_repair, kind, permanent) = self.timeline[self.next_event];
            self.next_event += 1;
            let delta: i64 = if is_repair { -1 } else { 1 };
            let mut gray = false;
            match kind {
                FaultKind::Link(l) => {
                    let ct = &mut self.link_fault_ct[l.index()];
                    *ct = (*ct as i64 + delta).max(0) as u32;
                    topo_changed = true;
                }
                FaultKind::Router(r) => {
                    let ct = &mut self.router_fault_ct[r.index()];
                    *ct = (*ct as i64 + delta).max(0) as u32;
                    topo_changed = true;
                }
                FaultKind::FlakyLink {
                    link,
                    drop_per_mille,
                } => {
                    gray = true;
                    let slot = &mut self.flaky_pm[link.index()];
                    if is_repair {
                        if *slot != 0 {
                            self.gray_active = self.gray_active.saturating_sub(1);
                        }
                        *slot = 0;
                    } else {
                        if *slot == 0 && drop_per_mille > 0 {
                            self.gray_active += 1;
                        }
                        *slot = drop_per_mille;
                    }
                }
                FaultKind::CorruptLink { link, per_mille } => {
                    gray = true;
                    let slot = &mut self.corrupt_pm[link.index()];
                    if is_repair {
                        if *slot != 0 {
                            self.gray_active = self.gray_active.saturating_sub(1);
                        }
                        *slot = 0;
                    } else {
                        if *slot == 0 && per_mille > 0 {
                            self.gray_active += 1;
                        }
                        *slot = per_mille;
                    }
                }
                FaultKind::Brownout { .. } => {
                    debug_assert!(false, "brownouts expand to link outages at build time");
                }
            }
            if !is_repair {
                self.rec.faults_applied += 1;
                self.first_fault.get_or_insert(cycle);
                // Gray faults never change the topology, so they never
                // trigger healing — recovery rides on CRC/NACK/retry.
                permanent_applied |= permanent && !gray;
                outage_applied = true;
            }
        }
        if outage_applied {
            if let Some(t) = self.tel.as_mut() {
                t.fault_applied(cycle);
            }
            if let Some(m) = self.met.as_mut() {
                m.fault_applied();
            }
        }
        if !topo_changed {
            return;
        }
        self.recompute_dead_channels();
        self.teardown_worms(cycle, false);
        if permanent_applied {
            self.attempt_repair(cycle);
        }
    }

    /// Rolls the gray-failure dice for every occupied channel on a
    /// flaky or corrupting link: a flaky hit tears the worm down (the
    /// sender's ACK timeout recovers it), a corrupt hit marks the worm
    /// so the destination CRC check NACKs it on arrival. Skipped in
    /// O(1) when no gray fault is active, and drawn from a dedicated
    /// RNG stream, so runs without gray faults are bit-identical to
    /// builds without this feature.
    fn apply_gray_failures(&mut self, cycle: u64) {
        if self.gray_active == 0 {
            return;
        }
        let mut victims: Vec<u32> = Vec::new();
        for vid in self.live.iter() {
            let st = &self.chans[vid as usize];
            if st.occ == 0 {
                continue;
            }
            let phys = self.phys(vid);
            let link = phys.link().index();
            let dpm = self.flaky_pm[link] as u32;
            let cpm = self.corrupt_pm[link] as u32;
            if dpm == 0 && cpm == 0 {
                continue;
            }
            let owner = st.owner;
            if dpm > 0 && self.gray_rng.gen_range(0u32..1000) < dpm {
                if !victims.contains(&owner) {
                    victims.push(owner);
                }
                continue;
            }
            if cpm > 0
                && !self.packets[owner as usize].corrupted
                && self.gray_rng.gen_range(0u32..1000) < cpm
            {
                self.packets[owner as usize].corrupted = true;
                self.rec.corrupted_worms += 1;
                if let Some(t) = self.tel.as_mut() {
                    t.corrupted(cycle, owner, phys);
                }
            }
        }
        for pid in victims {
            self.rec.flaky_drops += 1;
            self.teardown_one(pid, cycle, false);
        }
    }

    /// Derives the per-channel dead mask from link/router fault counts
    /// and starts a new dead-set generation, which voids every route
    /// verdict stamped under the old one.
    fn recompute_dead_channels(&mut self) {
        self.dead_gen += 1;
        for idx in 0..self.chan_dead.len() {
            let ch = ChannelId(idx as u32);
            let link_down = self.link_fault_ct[ch.link().index()] > 0;
            let src_down = self.router_fault_ct[self.net.channel_src(ch).index()] > 0;
            let dst_down = self.router_fault_ct[self.net.channel_dst(ch).index()] > 0;
            self.chan_dead[idx] = link_down || src_down || dst_down;
        }
    }

    /// Tears down worms: channels released, flits discarded, packet
    /// handed to the retry machinery. With `all == false` only worms
    /// whose occupied or remaining channels are dead are torn down;
    /// with `all == true` every in-flight worm goes (the reconfiguration
    /// drain).
    fn teardown_worms(&mut self, cycle: u64, all: bool) {
        // Worm heads (max route position per owner, with the channel
        // holding it) and owners touching a dead channel.
        let mut heads: BTreeMap<u32, (u32, ChannelId)> = BTreeMap::new();
        let mut hit: BTreeSet<u32> = BTreeSet::new();
        for vid in self.live.iter() {
            let st = &self.chans[vid as usize];
            let ch = self.phys(vid);
            let h = heads.entry(st.owner).or_insert((st.route_pos, ch));
            if st.route_pos > h.0 {
                *h = (st.route_pos, ch);
            }
            if self.chan_dead[ch.index()] {
                hit.insert(st.owner);
            }
        }
        let mut victims: Vec<u32> = Vec::new();
        for (&pid, &(_, head_ch)) in &heads {
            let future_dead = self.remainder_dead(&self.packets[pid as usize], head_ch);
            if all || hit.contains(&pid) || future_dead {
                victims.push(pid);
            }
        }
        for pid in victims {
            self.teardown_one(pid, cycle, all);
        }
    }

    /// Tears one worm down: channels released, flits discarded (their
    /// credits refunded — teardown must not leak FIFO slots), then the
    /// loss handed to [`retire_or_retry`](Engine::retire_or_retry).
    fn teardown_one(&mut self, pid: u32, cycle: u64, drained: bool) {
        let mut at = self.live.first_from(0);
        while let Some(vid) = at {
            at = self.live.first_from(vid + 1);
            let (owner, occ) = {
                let st = &self.chans[vid as usize];
                (st.owner, st.occ)
            };
            if owner != pid {
                continue;
            }
            for _ in 0..occ {
                self.return_credit(vid, cycle);
            }
            self.release_vc(vid);
        }
        let (src, still_injecting) = {
            let p = &mut self.packets[pid as usize];
            let inj = p.sent < p.len;
            p.sent = 0;
            p.injected = u64::MAX;
            p.corrupted = false;
            (p.src as usize, inj)
        };
        if still_injecting {
            self.queues[src].retain(|&q| q != pid);
            self.sync_queued(src);
        }
        self.in_flight -= 1;
        self.rec.dropped_worms += 1;
        if let Some(t) = self.tel.as_mut() {
            t.worm_truncated(cycle, pid, drained);
        }
        self.retire_or_retry(pid, cycle, false);
    }

    /// Lets the repairer install a new routing epoch; queued (not yet
    /// injected) packets re-home to it.
    fn attempt_repair(&mut self, cycle: u64) {
        let dead_links: Vec<LinkId> = (0..self.link_fault_ct.len())
            .filter(|&l| self.link_fault_ct[l] > 0)
            .map(|l| LinkId(l as u32))
            .collect();
        let dead_routers: Vec<NodeId> = (0..self.router_fault_ct.len())
            .filter(|&r| self.router_fault_ct[r] > 0)
            .map(|r| NodeId(r as u32))
            .collect();
        let Some(tables) = self
            .repairer
            .as_mut()
            .and_then(|repair| repair(&dead_links, &dead_routers))
        else {
            return;
        };
        if cfg!(debug_assertions) && self.lint_on_install {
            self.debug_lint_install(&tables, &dead_links, &dead_routers);
        }
        self.epochs.push(tables);
        self.rec.repairs_installed += 1;
        if let Some(t) = self.tel.as_mut() {
            t.repair_installed(cycle);
        }
        if let Some(m) = self.met.as_mut() {
            m.heal_installed(cycle, self.epochs.len() - 1);
        }
        // Drain the old routing epoch: worms routed under the replaced
        // epoch hold channels in an order the new CDG knows nothing
        // about, and mixing the two epochs can deadlock even though
        // each is acyclic on its own. Tear every in-flight worm down
        // and let the retry machinery replay it under the new epoch.
        self.teardown_worms(cycle, true);
        let cur = self.cur_epoch();
        for q in &self.queues {
            for &pid in q {
                let p = &mut self.packets[pid as usize];
                if p.sent == 0 {
                    p.epoch = cur;
                    p.live_gen = 0;
                }
            }
        }
    }

    /// The [`with_lint_on_install`](Engine::with_lint_on_install)
    /// check: statically lint candidate tables against the current
    /// dead set and panic if they are not clean. Only called in debug
    /// builds.
    fn debug_lint_install(&self, tables: &Routes, dead_links: &[LinkId], dead_routers: &[NodeId]) {
        let mask = fractanet_route::DeadMask::from_dead(self.net, dead_links, dead_routers);
        let report = fractanet_lint::Linter::new(self.net, &self.ends)
            .with_subject("repair install")
            .with_mask(&mask)
            .without_suggestions()
            .check_tables(tables);
        assert!(
            report.is_clean(),
            "repairer returned tables that fail static lint:\n{report}"
        );
    }

    /// Moves retries whose backoff expired back into source queues,
    /// re-homing them to the current routing epoch. Retries whose
    /// logical packet was delivered while backing off (a speculative
    /// copy arrived) are dropped as settled.
    fn release_due_retries(&mut self, cycle: u64) {
        let cur = self.cur_epoch();
        while let Some(&Reverse((when, pid))) = self.pending_retries.peek() {
            if when > cycle {
                break;
            }
            self.pending_retries.pop();
            let src = {
                let p = &mut self.packets[pid as usize];
                if p.delivered_once {
                    continue;
                }
                p.epoch = cur;
                p.live_gen = 0;
                p.sent = 0;
                p.injected = u64::MAX;
                p.corrupted = false;
                p.done = false;
                p.src as usize
            };
            self.enqueue(src, pid);
        }
    }

    /// Speculative retransmission (`SimConfig::ack_retransmit`): when
    /// an original's ACK timer expires while its worm may still be in
    /// flight, enqueue a *copy* carrying the same logical id — the
    /// classic timeout race that per-pair sequence numbers exist to
    /// make safe. Timers whose packet was since delivered, torn down,
    /// abandoned, or re-sent are stale and ignored.
    fn fire_ack_timeouts(&mut self, cycle: u64) {
        while let Some(&Reverse((when, pid, armed))) = self.ack_timers.peek() {
            if when > cycle {
                break;
            }
            self.ack_timers.pop();
            let (valid, src, dst, len, created) = {
                let p = &self.packets[pid as usize];
                let valid = p.attempts == armed
                    && p.sent == p.len
                    && !p.done
                    && !p.delivered_once
                    && !p.abandoned_once
                    && p.attempts < self.cfg.retry.max_retries;
                (valid, p.src, p.dst, p.len, p.created)
            };
            if !valid {
                continue;
            }
            let attempts = {
                let p = &mut self.packets[pid as usize];
                p.attempts += 1;
                p.attempts
            };
            self.rec.retries += 1;
            let copy = self.packets.len() as u32;
            let epoch = self.cur_epoch();
            self.packets
                .push(Packet::new(src, dst, len, created, epoch, pid));
            self.enqueue(src as usize, copy);
            if let Some(t) = self.tel.as_mut() {
                t.retried(cycle, pid, attempts, cycle);
            }
            if let Some(m) = self.met.as_mut() {
                m.retried(cycle, src as usize, dst as usize);
            }
            // Re-arm with exponential spacing for the next round.
            self.ack_timers.push(Reverse((
                cycle + self.cfg.retry.backoff(attempts),
                pid,
                attempts,
            )));
        }
    }

    /// Pops queue heads whose route is unusable (missing, or through
    /// a dead component) and hands them to the retry machinery
    /// — they would otherwise block their source queue forever.
    fn flush_unroutable_heads(&mut self, cycle: u64) {
        if self.first_fault.is_none() {
            return;
        }
        let mut at = self.queued.first_from(0);
        while let Some(s) = at {
            at = self.queued.first_from(s + 1);
            let s = s as usize;
            while let Some(&pid) = self.queues[s].front() {
                let p = &self.packets[pid as usize];
                if p.sent > 0 {
                    // Mid-injection: teardown owns this case.
                    break;
                }
                if p.live_gen == self.dead_gen || !self.route_dead_or_missing(p) {
                    self.packets[pid as usize].live_gen = self.dead_gen;
                    break;
                }
                self.queues[s].pop_front();
                self.retire_or_retry(pid, cycle, false);
            }
            self.sync_queued(s);
        }
    }

    /// Handles a lost or NACKed transmission. A lost *copy* never
    /// re-enters the retry machinery (the original's own lifecycle owns
    /// recovery), and a logical packet already delivered via a
    /// speculative copy is settled; everything else books one failed
    /// attempt.
    fn retire_or_retry(&mut self, pid: u32, cycle: u64, nacked: bool) {
        let p = &self.packets[pid as usize];
        if p.logical != pid || p.delivered_once {
            return;
        }
        self.schedule_retry_with(pid, cycle, nacked);
    }

    /// Books one failed attempt: re-queues the packet after backoff
    /// plus jitter, or abandons it past `max_retries`. A NACKed loss
    /// skips the `ack_timeout` component of the backoff — the
    /// destination reported the corruption immediately.
    fn schedule_retry_with(&mut self, pid: u32, cycle: u64, nacked: bool) {
        let (attempts, src, dst) = {
            let p = &mut self.packets[pid as usize];
            p.attempts += 1;
            (p.attempts, p.src as usize, p.dst as usize)
        };
        if attempts > self.cfg.retry.max_retries {
            self.packets[pid as usize].abandoned_once = true;
            self.rec.abandoned.push((src, dst));
            if let Some(t) = self.tel.as_mut() {
                t.abandoned(cycle, pid, src as u32, dst as u32);
            }
            if let Some(m) = self.met.as_mut() {
                m.abandoned(cycle, src, dst);
            }
            return;
        }
        self.rec.retries += 1;
        if let Some(m) = self.met.as_mut() {
            m.retried(cycle, src, dst);
        }
        let jitter = self.retry_rng.gen_range(0..=self.cfg.retry.backoff_base);
        let base = if nacked {
            self.cfg.retry.nack_backoff(attempts)
        } else {
            self.cfg.retry.backoff(attempts)
        };
        let release = cycle + base + jitter;
        self.pending_retries.push(Reverse((release, pid)));
        if let Some(t) = self.tel.as_mut() {
            t.retried(cycle, pid, attempts, release);
        }
    }

    /// The serial back half of a cycle: round-robin arbitration over
    /// the merged allocation requests in `sc`, the arbitration-loser
    /// and contention telemetry, and the apply phases (ejections, body
    /// transfers, grants, injections). Everything that mutates
    /// packets, channels, activity sets, RNG streams, or the recorder
    /// runs here, on one thread, in canonical order.
    fn commit_step(&mut self, cycle: u64, sc: &mut par::Scratch) -> usize {
        let vcs = self.vcs as u32;
        let par::Scratch {
            shards,
            grants,
            injections,
            pairs,
            ..
        } = sc;
        let out = &mut shards[0];
        let credit_stalls = out.credit_stalls;
        self.credit_stalls += credit_stalls;
        if credit_stalls > 0 {
            if let Some(m) = self.met.as_mut() {
                m.credit_stalled(credit_stalls);
            }
        }
        // Physical-wire arbitration (vcs > 1 only): VCs multiplex one
        // physical link, which carries at most one flit per cycle. Body
        // transfers claim wires first, in vid order; head allocations
        // compete for what is left. Injection channels are exempt —
        // each end node writes only its own attach channel and injects
        // at most one flit per cycle, so they are single-writer at any
        // VC count. At vcs == 1 channel ownership already serializes
        // every writer, so no stamp is ever consulted and the schedule
        // is bit-identical to the pre-credit engine.
        if vcs > 1 {
            let stamp = cycle + 1;
            out.body_moves.retain(|&(_, nvid)| {
                let w = (nvid / vcs) as usize;
                if self.wire_stamp[w] == stamp {
                    false // a sibling VC won the wire; stay buffered
                } else {
                    self.wire_stamp[w] = stamp;
                    true
                }
            });
        }
        // Round-robin arbitration per allocation target VC.
        let alloc_reqs = &mut out.alloc_reqs;
        alloc_reqs.sort_unstable();
        grants.clear();
        let mut i = 0;
        while i < alloc_reqs.len() {
            let target = alloc_reqs[i].0;
            let mut j = i;
            while j < alloc_reqs.len() && alloc_reqs[j].0 == target {
                j += 1;
            }
            let group = &alloc_reqs[i..j];
            if vcs > 1 && self.wire_stamp[(target / vcs) as usize] == cycle + 1 {
                // The physical wire under this VC is taken this cycle.
                // The whole group stalls and the round-robin pointer
                // holds, so the would-be winner keeps its priority.
                i = j;
                continue;
            }
            let last = self.rr[target as usize];
            let granted = group
                .iter()
                .map(|&(_, from)| from)
                .find(|&from| from > last)
                .unwrap_or(group[0].1);
            self.rr[target as usize] = granted;
            if vcs > 1 {
                self.wire_stamp[(target / vcs) as usize] = cycle + 1;
            }
            grants.push((target, granted));
            i = j;
        }

        // Telemetry: arbitration losers were blocked this cycle, and
        // the collected contenders give each channel's empirical
        // per-cycle contention (max matching of distinct-src /
        // distinct-dst transfer pairs, mirroring the analytical L5
        // metric).
        if let Some(t) = self.tel.as_mut() {
            for &(target, from) in alloc_reqs.iter() {
                let won = grants.iter().any(|&(gt, gf)| gt == target && gf == from);
                if !won {
                    t.blocked(
                        cycle,
                        self.chans[from as usize].owner,
                        ChannelId(target / vcs),
                    );
                }
            }
            let contenders = &mut out.contenders;
            contenders.sort_unstable();
            let mut i = 0;
            while i < contenders.len() {
                let ch = contenders[i].0;
                pairs.clear();
                while i < contenders.len() && contenders[i].0 == ch {
                    pairs.push((contenders[i].1, contenders[i].2));
                    i += 1;
                }
                t.observe_contention(ChannelId(ch), pairs);
            }
        }

        let mut moves = 0usize;
        // Apply ejections. At vcs > 1 two VCs of the same attach
        // channel can both present a deliverable flit; the destination
        // node ingests one flit per attach port per cycle, so the
        // eject stamp dedupes in vid order and the loser stays
        // buffered for next cycle. (The ingest port is a distinct
        // resource from the physical wire: the flit being ejected is
        // already buffered at the destination-side FIFO.)
        for &vid in &out.ejects {
            if vcs > 1 {
                let w = (vid / vcs) as usize;
                if self.eject_stamp[w] == cycle + 1 {
                    continue;
                }
                self.eject_stamp[w] = cycle + 1;
            }
            moves += 1;
            let (owner, flit) = {
                let st = &mut self.chans[vid as usize];
                let flit = st.front();
                st.occ -= 1;
                (st.owner, flit)
            };
            self.return_credit(vid, cycle);
            if let Some(t) = self.tel.as_mut() {
                t.flit_forwarded(ChannelId(vid / vcs));
            }
            let done = {
                let p = &self.packets[owner as usize];
                flit == p.len - 1
            };
            if cycle >= self.cfg.warmup_cycles {
                self.delivered_flits_measured += 1;
            }
            if done {
                self.release_vc(vid);
                self.in_flight -= 1;
                let (logical, corrupted, src, dst, created, injected) = {
                    let p = &mut self.packets[owner as usize];
                    p.done = true;
                    (p.logical, p.corrupted, p.src, p.dst, p.created, p.injected)
                };
                let settled = {
                    let lp = &self.packets[logical as usize];
                    lp.delivered_once || lp.abandoned_once
                };
                if corrupted {
                    // Destination CRC check fails: answer "This Packet
                    // Bad" and hand the sender straight to the retry
                    // machinery — no need to wait out the ACK timeout.
                    self.rec.nacks += 1;
                    if let Some(t) = self.tel.as_mut() {
                        t.nacked(cycle, owner, src, dst);
                    }
                    if let Some(m) = self.met.as_mut() {
                        m.nacked();
                    }
                    self.retire_or_retry(owner, cycle, true);
                } else if self.cfg.dedup && settled {
                    // Per-pair sequence number repeats: the logical
                    // packet already completed (or was given up on), so
                    // this arrival is a duplicate from the timeout race.
                    self.rec.duplicates_suppressed += 1;
                    if let Some(t) = self.tel.as_mut() {
                        t.dup_suppressed(cycle, owner, logical);
                    }
                    if let Some(m) = self.met.as_mut() {
                        m.dup_suppressed();
                    }
                } else {
                    self.packets[logical as usize].delivered_once = true;
                    self.delivered += 1;
                    if created >= self.cfg.warmup_cycles {
                        self.latencies.push(cycle + 1 - created);
                        self.net_latencies.push(cycle + 1 - injected);
                    }
                    if let Some(first) = self.first_fault {
                        if created >= first {
                            self.rec.post_fault_delivered += 1;
                        }
                        if self.packets[logical as usize].attempts > 0
                            && self.rec.time_to_recover.is_none()
                        {
                            self.rec.time_to_recover = Some(cycle + 1 - first);
                            if let Some(t) = self.tel.as_mut() {
                                t.recovered(cycle + 1);
                            }
                        }
                    }
                    if let Some(t) = self.tel.as_mut() {
                        t.delivered(cycle, logical, cycle + 1 - created);
                    }
                    if let Some(m) = self.met.as_mut() {
                        m.delivered(cycle, src as usize, dst as usize, cycle + 1 - created);
                    }
                }
            }
        }
        // Apply body transfers. The departing flit frees a slot in
        // `from`'s FIFO (credit returned upstream) and consumes one of
        // `nvid`'s credits on arrival.
        for &(from, nvid) in &out.body_moves {
            moves += 1;
            let (owner, flit) = {
                let st = &mut self.chans[from as usize];
                let flit = st.front();
                st.occ -= 1;
                (st.owner, flit)
            };
            self.return_credit(from, cycle);
            let p = &self.packets[owner as usize];
            if flit == p.len - 1 {
                self.release_vc(from);
            }
            self.consume_credit(nvid);
            let nst = &mut self.chans[nvid as usize];
            nst.entered += 1;
            nst.occ += 1;
            let depth = nst.occ;
            self.busy[(nvid / vcs) as usize] += 1;
            if let Some(t) = self.tel.as_mut() {
                t.flit_forwarded(ChannelId(from / vcs));
                t.observe_depth(ChannelId(nvid / vcs), depth);
            }
        }
        // Apply granted head allocations: the head enters `target`,
        // which resolves its next hop once for the worm's whole stay.
        for &(target, from) in grants.iter() {
            moves += 1;
            let (owner, flit, pos) = {
                let st = &mut self.chans[from as usize];
                let flit = st.front();
                st.occ -= 1;
                (st.owner, flit, st.route_pos)
            };
            debug_assert_eq!(flit, 0, "allocation moves the head flit");
            self.return_credit(from, cycle);
            if flit == self.packets[owner as usize].len - 1 {
                // Single-flit packet: head is also tail.
                self.release_vc(from);
            }
            self.consume_credit(target);
            let next =
                self.scan_view()
                    .resolve_next(&self.packets[owner as usize], target, pos + 1);
            self.chans[target as usize] = ChanState {
                owner,
                entered: 1,
                occ: 1,
                route_pos: pos + 1,
                next,
            };
            self.live.insert(target);
            self.busy[(target / vcs) as usize] += 1;
            if let Some(t) = self.tel.as_mut() {
                t.flit_forwarded(ChannelId(from / vcs));
                t.head_advanced(cycle, owner, ChannelId(target / vcs));
                if vcs > 1 {
                    t.vc_allocated(cycle, owner, ChannelId(target / vcs), (target % vcs) as u8);
                }
                t.observe_depth(ChannelId(target / vcs), 1);
            }
        }
        // Apply injections.
        for &s in injections.iter() {
            moves += 1;
            let pid = *self.queues[s].front().expect("checked above");
            let (c0, v0) = {
                let p = &self.packets[pid as usize];
                self.scan_view().first_vid(p)
            };
            let (sent_after, len, src, dst, attempts, original) = {
                let p = &mut self.packets[pid as usize];
                p.sent += 1;
                if p.sent == 1 {
                    p.injected = cycle;
                    self.in_flight += 1;
                }
                (p.sent, p.len, p.src, p.dst, p.attempts, p.logical == pid)
            };
            self.consume_credit(v0);
            if sent_after == 1 {
                let next = self
                    .scan_view()
                    .resolve_next(&self.packets[pid as usize], v0, 0);
                self.chans[v0 as usize] = ChanState {
                    owner: pid,
                    next,
                    ..ChanState::free()
                };
                self.live.insert(v0);
            }
            let st = &mut self.chans[v0 as usize];
            st.entered += 1;
            st.occ += 1;
            let depth = st.occ;
            self.busy[c0.index()] += 1;
            if let Some(t) = self.tel.as_mut() {
                if sent_after == 1 {
                    t.packet_injected(cycle, pid, src, dst, len);
                }
                t.observe_depth(c0, depth);
            }
            if sent_after == len {
                self.queues[s].pop_front();
                self.sync_queued(s);
                // The full worm is in the fabric: a speculative sender
                // arms its ACK timer now (only the original transmission
                // does — copies are already the recovery path).
                if self.cfg.ack_retransmit && original {
                    self.ack_timers.push(Reverse((
                        cycle + self.cfg.retry.ack_timeout,
                        pid,
                        attempts,
                    )));
                }
            }
        }
        moves
    }

    /// The debug-build audit of the activity caches, run at the end of
    /// every cycle: each is recomputed from scratch and must equal the
    /// maintained copy — the live and queued sets, every live VC's
    /// resolved next hop, and every stamped queue head's verdict.
    fn debug_audit_activity(&self) {
        let live = ActiveSet::from_fn(self.chans.len(), |v| self.chans[v].owner != NO_PKT);
        assert_eq!(self.live, live, "live-VC set drifted");
        let queued = ActiveSet::from_fn(self.queues.len(), |s| !self.queues[s].is_empty());
        assert_eq!(self.queued, queued, "queued-source set drifted");
        let view = self.scan_view();
        for vid in self.live.iter() {
            let st = &self.chans[vid as usize];
            let p = &self.packets[st.owner as usize];
            assert_eq!(
                st.next,
                view.resolve_next(p, vid, st.route_pos),
                "stale next hop on vid {vid}"
            );
        }
        for s in self.queued.iter() {
            let pid = self.queues[s as usize][0];
            let p = &self.packets[pid as usize];
            if p.sent == 0 && p.live_gen == self.dead_gen {
                assert!(
                    !view.route_dead_or_missing(p),
                    "packet {pid} stamped live on a dead route"
                );
            }
        }
    }

    fn diagnose_deadlock(&self, cycle: u64) -> DeadlockEvent {
        // The wait graph is built over VCs (vids): at vcs > 1 two worms
        // can hold different VCs of the same physical channel, and only
        // the per-VC graph distinguishes a dateline-broken cycle from a
        // real one. The reported cycle channels are mapped back to
        // physical ids (an identity at vcs == 1) without deduplication.
        let mut wg = WaitGraph::new(self.chans.len());
        for vid in self.live.iter() {
            let st = &self.chans[vid as usize];
            if st.occ > 0 && st.next != EJECT {
                wg.add_wait(ChannelId(vid), ChannelId(st.next));
            }
        }
        let vcs = self.vcs as u32;
        DeadlockEvent {
            cycle,
            cycle_channels: wg
                .find_deadlock()
                .unwrap_or_default()
                .into_iter()
                .map(|c| ChannelId(c.0 / vcs))
                .collect(),
            stuck_packets: self.in_flight,
        }
    }

    fn finish(
        mut self,
        cycles: u64,
        generated: usize,
        deadlock: Option<DeadlockEvent>,
    ) -> SimResult {
        let n = self.ends.len().max(1);
        let telemetry = self.tel.take().map(|r| r.finish(cycles, &self.busy));
        let epoch = (self.epochs.len() - 1) as u64;
        let metrics = self
            .met
            .take()
            .map(|m| m.finish(cycles, self.in_flight as u64, epoch, &self.busy));
        let mut lats = self.latencies.clone();
        lats.sort_unstable();
        let avg = |v: &[u64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<u64>() as f64 / v.len() as f64
            }
        };
        let measured_cycles = cycles.saturating_sub(self.cfg.warmup_cycles).max(1);
        SimResult {
            cycles,
            generated,
            delivered: self.delivered,
            avg_latency: avg(&lats),
            avg_network_latency: avg(&self.net_latencies),
            p95_latency: lats
                .get((lats.len().saturating_mul(95) / 100).min(lats.len().saturating_sub(1)))
                .copied()
                .unwrap_or(0),
            max_latency: lats.last().copied().unwrap_or(0),
            throughput: self.delivered_flits_measured as f64 / measured_cycles as f64 / n as f64,
            channel_busy: self.busy,
            deadlock,
            recovery: self.rec,
            credits: CreditStats {
                consumed: self.credits_consumed,
                returned: self.credits_returned,
                stalls: self.credit_stalls,
            },
            telemetry,
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, RetryPolicy};
    use crate::traffic::DstPattern;
    use fractanet_route::dor::mesh_xy_routes;
    use fractanet_route::fractal::fractal_routes;
    use fractanet_route::ringroute::ring_clockwise_routes;
    use fractanet_route::RouteSet;
    use fractanet_topo::ring::PORT_CCW;
    use fractanet_topo::{Fractahedron, Mesh2D, Ring, Topology};

    fn ring4() -> (Ring, RouteSet) {
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = RouteSet::from_table(r.net(), r.end_nodes(), &ring_clockwise_routes(&r)).unwrap();
        (r, rs)
    }

    /// An engine over the destination tables `rs` projects onto.
    fn engine<'a>(t: &'a impl Topology, rs: &RouteSet, cfg: SimConfig) -> Engine<'a> {
        let tables = Routes::from_pair_paths(t.net(), t.end_nodes(), rs)
            .expect("pair routes project onto tables");
        Engine::new(t.net(), t.end_nodes(), Arc::new(tables), cfg)
    }

    #[test]
    fn single_packet_delivers_with_sane_latency() {
        let (r, rs) = ring4();
        let cfg = SimConfig::default()
            .with_packet_flits(8)
            .with_max_cycles(500);
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert!(res.is_clean());
        assert_eq!(res.delivered, 1);
        // 8 flits over 3 channels: latency ≈ hops + flits, well under 50.
        assert!(
            res.avg_latency >= 10.0 && res.avg_latency < 50.0,
            "{}",
            res.avg_latency
        );
        assert!(res.avg_network_latency <= res.avg_latency);
    }

    #[test]
    fn fig1_deadlocks_on_clockwise_ring() {
        // Figure 1: four simultaneous wrap-around transfers, packets
        // long enough that tails still hold the first link when heads
        // block.
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 32,
            buffer_depth: 2,
            max_cycles: 10_000,
            stall_threshold: 200,
            ..SimConfig::default()
        };
        let res = engine(&r, &rs, cfg).run(Workload::fig1_ring(4));
        let dl = res.deadlock.expect("Fig 1 must deadlock");
        assert!(!dl.cycle_channels.is_empty(), "circular wait must be found");
        assert_eq!(dl.stuck_packets, 4);
        assert_eq!(res.delivered, 0);
    }

    #[test]
    fn fig1_pattern_completes_on_mesh_dor() {
        // The same four routers as a 2x2 mesh under dimension-order
        // routing: "routes A and C would be allowed, but routes B and
        // D would be disallowed, thus preventing the deadlock".
        let m = Mesh2D::new(2, 2, 1, 6).unwrap();
        let rs = RouteSet::from_table(m.net(), m.end_nodes(), &mesh_xy_routes(&m)).unwrap();
        let cfg = SimConfig {
            packet_flits: 32,
            buffer_depth: 2,
            max_cycles: 10_000,
            stall_threshold: 200,
            ..SimConfig::default()
        };
        // Same logical pattern: every node sends to the diagonal node.
        let wl = Workload::Scripted(vec![(0, 0, 3), (0, 1, 2), (0, 2, 1), (0, 3, 0)]);
        let res = engine(&m, &rs, cfg).run(wl);
        assert!(res.is_clean(), "DOR must not deadlock: {:?}", res.deadlock);
        assert_eq!(res.delivered, 4);
    }

    #[test]
    fn all_to_all_on_fractahedron_completes() {
        let f = Fractahedron::new(1, fractanet_topo::Variant::Fat, false).unwrap();
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &fractal_routes(&f)).unwrap();
        let cfg = SimConfig::default()
            .with_packet_flits(8)
            .with_max_cycles(20_000);
        let res = engine(&f, &rs, cfg).run(Workload::all_to_all_burst(8));
        assert!(res.is_clean());
        assert_eq!(res.delivered, 56);
        assert!(res.throughput > 0.0);
    }

    #[test]
    fn uniform_load_on_fat_64_is_deadlock_free() {
        let f = Fractahedron::paper_fat_64();
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &fractal_routes(&f)).unwrap();
        let cfg = SimConfig {
            packet_flits: 8,
            max_cycles: 8_000,
            stall_threshold: 2_000,
            ..SimConfig::default()
        };
        let wl = Workload::Bernoulli {
            injection_rate: 0.1,
            pattern: DstPattern::Uniform,
            until_cycle: 4_000,
        };
        let res = engine(&f, &rs, cfg).run(wl);
        assert!(res.deadlock.is_none());
        assert!(res.delivered > 0);
        assert!(
            res.delivery_ratio() > 0.95,
            "{} of {}",
            res.delivered,
            res.generated
        );
    }

    #[test]
    fn latency_grows_with_load() {
        let f = Fractahedron::paper_fat_64();
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &fractal_routes(&f)).unwrap();
        let mut avg = Vec::new();
        for rate in [0.05, 0.55] {
            let cfg = SimConfig {
                packet_flits: 8,
                max_cycles: 6_000,
                stall_threshold: 3_000,
                warmup_cycles: 500,
                ..SimConfig::default()
            };
            let wl = Workload::Bernoulli {
                injection_rate: rate,
                pattern: DstPattern::Uniform,
                until_cycle: 4_000,
            };
            let res = engine(&f, &rs, cfg).run(wl);
            assert!(res.deadlock.is_none());
            avg.push(res.avg_latency);
        }
        assert!(avg[1] > avg[0], "latency must rise with load: {avg:?}");
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let (r, rs) = ring4();
        let mk = || {
            let cfg = SimConfig::default()
                .with_packet_flits(4)
                .with_max_cycles(3_000);
            let wl = Workload::Bernoulli {
                injection_rate: 0.2,
                pattern: DstPattern::Uniform,
                until_cycle: 1_000,
            };
            engine(&r, &rs, cfg).run(wl)
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.channel_busy, b.channel_busy);
    }

    #[test]
    fn busy_counts_match_flit_volume() {
        let (r, rs) = ring4();
        let cfg = SimConfig::default()
            .with_packet_flits(4)
            .with_max_cycles(1_000);
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        // One 4-flit packet over a 3-channel path: 12 channel entries.
        let total: u64 = res.channel_busy.iter().sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn single_flit_packets_work() {
        // A 1-flit packet's head is also its tail: allocation and
        // release collapse into one hop each.
        let (r, rs) = ring4();
        let cfg = SimConfig::default()
            .with_packet_flits(1)
            .with_max_cycles(2_000);
        let res = engine(&r, &rs, cfg).run(Workload::all_to_all_burst(4));
        assert!(res.is_clean(), "{:?}", res.deadlock);
        assert_eq!(res.delivered, 12);
        // One flit per channel crossing.
        let total: u64 = res.channel_busy.iter().sum();
        let expect: u64 = (0..4)
            .flat_map(|s| (0..4).filter(move |&d| d != s).map(move |d| (s, d)))
            .map(|(s, d)| rs.path(s, d).len() as u64)
            .sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn deep_buffers_do_not_change_delivery() {
        let (r, rs) = ring4();
        let mut delivered = Vec::new();
        for depth in [1u32, 4, 16] {
            let cfg = SimConfig {
                packet_flits: 8,
                buffer_depth: depth,
                max_cycles: 20_000,
                ..SimConfig::default()
            };
            let res =
                engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1), (0, 1, 2), (5, 2, 3)]));
            assert!(res.is_clean());
            delivered.push(res.delivered);
        }
        assert!(delivered.iter().all(|&d| d == 3));
    }

    #[test]
    fn queueing_at_source_counts_in_latency() {
        // Two packets back-to-back from the same source: the second
        // waits for the first's tail to clear the injection channel.
        let (r, rs) = ring4();
        let cfg = SimConfig::default()
            .with_packet_flits(8)
            .with_max_cycles(1_000);
        let wl = Workload::Scripted(vec![(0, 0, 2), (0, 0, 2)]);
        let res = engine(&r, &rs, cfg).run(wl);
        assert!(res.is_clean());
        assert_eq!(res.delivered, 2);
        assert!(res.max_latency > res.avg_network_latency as u64);
    }

    // ------------------------------------------------------------------
    // Live fault injection.

    /// The router-to-router link on the clockwise path `0 → 1`.
    fn cw_link_0_to_1(rs: &RouteSet) -> fractanet_graph::LinkId {
        rs.path(0, 1)[1].link()
    }

    #[test]
    fn permanent_fault_without_retry_abandons_packet() {
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 5_000,
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(cw_link_0_to_1(&rs), 8));
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.delivered, 0);
        assert_eq!(res.recovery.dropped_worms, 1);
        assert_eq!(res.recovery.faults_applied, 1);
        assert_eq!(res.recovery.abandoned, vec![(0, 1)]);
        assert!(res.deadlock.is_none());
        assert!(res.is_recovered());
    }

    #[test]
    fn transient_fault_recovers_via_retry() {
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 20_000,
            retry: RetryPolicy {
                ack_timeout: 8,
                max_retries: 8,
                backoff_base: 8,
                jitter_seed: 1,
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(cw_link_0_to_1(&rs), 8).transient(200));
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.delivered, 1, "{:?}", res.recovery);
        assert!(res.recovery.retries >= 1);
        assert!(res.recovery.abandoned.is_empty());
        assert!(res.recovery.time_to_recover.is_some());
        assert!(res.is_clean());
    }

    /// The clockwise tables with destination 1's column rewritten:
    /// every source reaches end node 1 counter-clockwise, clear of the
    /// clockwise `0 → 1` link.
    fn ccw_to_1(r: &Ring) -> Arc<Routes> {
        let mut tables = ring_clockwise_routes(r);
        let home = r.router_of_addr(1);
        for k in (0..r.len()).filter(|&k| k != home) {
            tables.set(r.router(k), 1, PORT_CCW);
        }
        Arc::new(tables)
    }

    #[test]
    fn repairer_reroutes_around_permanent_fault() {
        let (r, rs) = ring4();
        let dead = cw_link_0_to_1(&rs);
        let detour = ccw_to_1(&r)
            .trace(r.net(), r.end_nodes(), 0, 1)
            .expect("counter-clockwise detour");
        assert!(detour.iter().all(|c| c.link() != dead));
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 20_000,
            retry: RetryPolicy {
                ack_timeout: 8,
                max_retries: 4,
                backoff_base: 8,
                jitter_seed: 1,
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(dead, 8));
        let repaired = ccw_to_1(&r);
        let res = engine(&r, &rs, cfg)
            .with_table_repairer(move |dead_links, _| {
                assert_eq!(dead_links, [dead]);
                Some(repaired.clone())
            })
            .run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.delivered, 1, "{:?}", res.recovery);
        assert_eq!(res.recovery.repairs_installed, 1);
        assert_eq!(res.recovery.dropped_worms, 1);
        assert!(res.recovery.retries >= 1);
        assert!(res.recovery.time_to_recover.is_some());
        assert!(res.is_clean());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "fail static lint"))]
    fn lint_on_install_rejects_stale_tables() {
        // Regression for the PR 1 bug class: a "repairer" that hands
        // back the pre-fault tables (still routing over the dead link)
        // must be caught by the debug lint-on-install hook, not
        // silently installed.
        let (r, rs) = ring4();
        let dead = cw_link_0_to_1(&rs);
        let cfg = SimConfig {
            packet_flits: 8,
            max_cycles: 2_000,
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(dead, 8));
        let stale = Arc::new(ring_clockwise_routes(&r));
        let res = engine(&r, &rs, cfg)
            .with_table_repairer(move |_, _| Some(stale.clone()))
            .with_lint_on_install()
            .run(Workload::Scripted(vec![(0, 0, 1)]));
        // Release builds skip the hook; the engine then survives on
        // its runtime liveness checks alone.
        assert!(res.deadlock.is_none());
    }

    #[test]
    fn router_fault_kills_attached_channels() {
        let (r, rs) = ring4();
        // The router on the 0 → 1 path (downstream end of the
        // injection channel).
        let router = r.net().channel_dst(rs.path(0, 1)[0]);
        let cfg = SimConfig {
            packet_flits: 16,
            max_cycles: 5_000,
            retry: RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_router(router, 4));
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        // The only route 0 → 1 passes the dead router: dropped, then
        // retried against the same dead table, then abandoned.
        assert_eq!(res.delivered, 0);
        assert!(res.recovery.dropped_worms >= 1);
        assert_eq!(res.recovery.abandoned, vec![(0, 1)]);
        assert!(res.is_recovered());
    }

    #[test]
    fn packet_generated_at_fault_cycle_never_crosses_dead_link() {
        // Regression: a packet generated into an empty source queue in
        // the same cycle its fault lands used to reach the injection
        // loop before any liveness check and deliver across the dead
        // link (static tables, no repairer).
        let (r, rs) = ring4();
        let dead = cw_link_0_to_1(&rs);
        let cfg = SimConfig {
            packet_flits: 8,
            max_cycles: 5_000,
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(dead, 8));
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(8, 0, 1)]));
        assert_eq!(res.delivered, 0, "{:?}", res.recovery);
        assert!(res.recovery.retries >= 1);
        assert_eq!(res.recovery.abandoned, vec![(0, 1)]);
        assert!(res.deadlock.is_none());
    }

    #[test]
    fn severed_pair_after_partial_repair_is_abandoned_not_panicked() {
        // Regression: a repair that cannot cover every pair leaves
        // severed pairs without a route by design; a packet generated
        // for such a pair used to panic on `path[0]` in the injection
        // loop if it reached the head of an empty queue the same
        // cycle.
        let (r, rs) = ring4();
        let dead = cw_link_0_to_1(&rs);
        let cfg = SimConfig {
            packet_flits: 8,
            max_cycles: 10_000,
            retry: RetryPolicy {
                ack_timeout: 8,
                max_retries: 2,
                backoff_base: 8,
                jitter_seed: 1,
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(dead, 8));
        // Partial coverage: router 0 loses its entry for destination
        // 1, which severs 0 → 1 (and every other route into node 1).
        let mut partial = ring_clockwise_routes(&r);
        partial.clear(r.router(0), 1);
        let partial = Arc::new(partial);
        let res = engine(&r, &rs, cfg)
            .with_table_repairer(move |_, _| Some(partial.clone()))
            .run(Workload::Scripted(vec![(0, 2, 3), (10, 0, 1)]));
        // The severed pair is retried then abandoned; the rest
        // delivers under the repaired tables.
        assert_eq!(res.delivered, 1, "{:?}", res.recovery);
        assert_eq!(res.recovery.repairs_installed, 1);
        assert_eq!(res.recovery.abandoned, vec![(0, 1)]);
        assert!(res.deadlock.is_none());
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let (r, rs) = ring4();
        let mk = || {
            let cfg = SimConfig {
                packet_flits: 8,
                max_cycles: 6_000,
                retry: RetryPolicy {
                    ack_timeout: 16,
                    max_retries: 3,
                    backoff_base: 16,
                    jitter_seed: 7,
                },
                ..SimConfig::default()
            }
            .with_fault(FaultEvent::kill_link(cw_link_0_to_1(&rs), 50).transient(400));
            let wl = Workload::Bernoulli {
                injection_rate: 0.15,
                pattern: DstPattern::Uniform,
                until_cycle: 1_000,
            };
            engine(&r, &rs, cfg).run(wl)
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.recovery.retries, b.recovery.retries);
        assert_eq!(a.recovery.dropped_worms, b.recovery.dropped_worms);
        assert_eq!(a.recovery.abandoned, b.recovery.abandoned);
        assert_eq!(a.channel_busy, b.channel_busy);
    }

    // ------------------------------------------------------------------
    // Telemetry.

    use fractanet_telemetry::{SpanKind, Telemetry};

    #[test]
    fn saturated_channel_busy_equals_cycles() {
        // One packet longer than the whole run, injected at cycle 0:
        // the injection channel accepts exactly one flit every cycle,
        // so its busy count — and the telemetry busy_cycles mirror —
        // must equal the run length exactly, and utilization 1.0.
        let (r, rs) = ring4();
        let cfg = SimConfig::default()
            .with_packet_flits(1_000)
            .with_max_cycles(500)
            .with_telemetry(Telemetry::recording());
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.cycles, 500);
        let c0 = rs.path(0, 1)[0].index();
        assert_eq!(res.channel_busy[c0], res.cycles);
        let tel = res.telemetry.expect("telemetry was recording");
        assert_eq!(tel.channels[c0].busy_cycles, res.cycles);
        assert_eq!(tel.utilization()[c0], 1.0);
        // The 0 → 1 route is three hops; once the pipeline fills, all
        // three channels run within two flits of fully busy.
        assert_eq!(tel.utilization_histogram()[9], 3);
    }

    #[test]
    fn final_metrics_sample_reports_live_in_flight() {
        use fractanet_telemetry::MetricsConfig;
        let (r, rs) = ring4();
        let last_in_flight = |cfg: SimConfig, wl: Workload| {
            let res = engine(&r, &rs, cfg.with_metrics(MetricsConfig::sampling(100))).run(wl);
            let m = res.metrics.as_ref().expect("metrics were sampling");
            let last = m.samples.last().expect("a final sample");
            assert_eq!(last.cycle, res.cycles);
            (res.deadlock.clone(), last.in_flight)
        };

        // Cut off at max_cycles with the long worm still in the fabric.
        let cut = SimConfig::default()
            .with_packet_flits(1_000)
            .with_max_cycles(500);
        let (_, n) = last_in_flight(cut, Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(n, 1);

        // Deadlocked: the stuck worms are still in flight.
        let fig1 = SimConfig {
            packet_flits: 32,
            buffer_depth: 2,
            max_cycles: 10_000,
            stall_threshold: 200,
            ..SimConfig::default()
        };
        let (dl, n) = last_in_flight(fig1, Workload::fig1_ring(4));
        let dl = dl.expect("Fig 1 must deadlock");
        assert_eq!(n, dl.stuck_packets as u64);

        // Drained: nothing is left.
        let drained = SimConfig::default()
            .with_packet_flits(8)
            .with_max_cycles(500);
        let (dl, n) = last_in_flight(drained, Workload::Scripted(vec![(0, 0, 1)]));
        assert!(dl.is_none());
        assert_eq!(n, 0);
    }

    #[test]
    fn event_ring_drop_accounting_is_exact_on_overflow() {
        let (r, rs) = ring4();
        // 1-flit packets: a multi-flit all-to-all burst on the
        // clockwise-only ring would wormhole-deadlock (Fig 1).
        let cfg = SimConfig::default()
            .with_packet_flits(1)
            .with_max_cycles(5_000)
            .with_telemetry(Telemetry::recording().with_event_capacity(4));
        let res = engine(&r, &rs, cfg).run(Workload::all_to_all_burst(4));
        assert!(res.is_clean());
        let tel = res.telemetry.expect("telemetry was recording");
        assert_eq!(tel.events.len(), 4, "ring stores exactly its capacity");
        assert!(tel.events_dropped > 0, "12 packets must overflow 4 slots");
        assert_eq!(
            tel.events.len() as u64 + tel.events_dropped,
            tel.events_seen
        );
        // 12 injections + 12 deliveries at minimum.
        assert!(tel.events_seen >= 24, "{}", tel.events_seen);
    }

    #[test]
    fn time_to_recover_stays_none_without_retried_delivery() {
        // Faults applied, the only packet abandoned: `time_to_recover`
        // must stay `None` — never collapse to zero — and the span
        // decomposition must agree, while the fault instant and the
        // whole-run span are still traced.
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 5_000,
            retry: RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(cw_link_0_to_1(&rs), 8))
        .with_telemetry(Telemetry::recording());
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert!(res.is_recovered());
        assert_eq!(res.recovery.faults_applied, 1);
        assert_eq!(res.recovery.time_to_recover, None);
        let tel = res.telemetry.expect("telemetry was recording");
        assert_eq!(tel.recovery_span_cycles(), None);
        assert!(tel
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::FaultInjection && s.begin == 8));
        assert!(tel
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Simulation && s.duration() == res.cycles));
        let kinds: Vec<&str> = tel.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"truncated"), "{kinds:?}");
        assert!(kinds.contains(&"abandoned"), "{kinds:?}");
    }

    #[test]
    fn recovery_spans_sum_to_time_to_recover() {
        // Transient fault healed by retry alone: repair span is
        // zero-length, redelivery covers the whole recovery.
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 20_000,
            retry: RetryPolicy {
                ack_timeout: 8,
                max_retries: 8,
                backoff_base: 8,
                jitter_seed: 1,
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(cw_link_0_to_1(&rs), 8).transient(200))
        .with_telemetry(Telemetry::recording());
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.delivered, 1);
        let want = res.recovery.time_to_recover.expect("recovered");
        let tel = res.telemetry.expect("telemetry was recording");
        assert_eq!(tel.recovery_span_cycles(), Some(want));
        let kinds: Vec<&str> = tel.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"retried"), "{kinds:?}");
        assert!(kinds.contains(&"delivered"), "{kinds:?}");
    }

    #[test]
    fn repair_install_decomposes_recovery_spans() {
        // Permanent fault healed by a repairer: the TableRepair span
        // ends at the install, Redelivery picks up from there, and the
        // two still telescope to `time_to_recover` exactly.
        let (r, rs) = ring4();
        let dead = cw_link_0_to_1(&rs);
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 20_000,
            retry: RetryPolicy {
                ack_timeout: 8,
                max_retries: 4,
                backoff_base: 8,
                jitter_seed: 1,
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(dead, 8))
        .with_telemetry(Telemetry::recording());
        let repaired = ccw_to_1(&r);
        let res = engine(&r, &rs, cfg)
            .with_table_repairer(move |_, _| Some(repaired.clone()))
            .run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.delivered, 1);
        let want = res.recovery.time_to_recover.expect("recovered");
        let tel = res.telemetry.expect("telemetry was recording");
        assert_eq!(tel.recovery_span_cycles(), Some(want));
        let repair = tel
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::TableRepair)
            .expect("repair span");
        let redeliver = tel
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Redelivery)
            .expect("redelivery span");
        // Install happened in the fault cycle, so the repair span is
        // the install instant's offset from the fault.
        let install = tel
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::HealInstall)
            .expect("install instant");
        assert_eq!(repair.end, install.begin);
        assert_eq!(repair.begin, 8);
        assert_eq!(redeliver.begin, repair.end);
        assert_eq!(repair.duration() + redeliver.duration(), want);
    }

    #[test]
    fn telemetry_off_attaches_no_report_and_changes_nothing() {
        let (r, rs) = ring4();
        let mk = |tel: Telemetry| {
            let cfg = SimConfig::default()
                .with_packet_flits(4)
                .with_max_cycles(3_000)
                .with_telemetry(tel);
            let wl = Workload::Bernoulli {
                injection_rate: 0.2,
                pattern: DstPattern::Uniform,
                until_cycle: 1_000,
            };
            engine(&r, &rs, cfg).run(wl)
        };
        let off = mk(Telemetry::off());
        let on = mk(Telemetry::recording());
        assert!(off.telemetry.is_none());
        assert!(on.telemetry.is_some());
        // Recording must not perturb the simulation itself.
        assert_eq!(off.delivered, on.delivered);
        assert_eq!(off.generated, on.generated);
        assert_eq!(off.avg_latency, on.avg_latency);
        assert_eq!(off.channel_busy, on.channel_busy);
        // The histogram mean over all deliveries matches the exact
        // per-packet mean when warmup is zero.
        let tel = on.telemetry.unwrap();
        assert_eq!(tel.pre_fault_latency.count() as usize, on.delivered);
        assert!((tel.pre_fault_latency.mean() - on.avg_latency).abs() < 1e-9);
    }

    #[test]
    fn post_fault_accounting_tracks_fault_onset() {
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 4,
            max_cycles: 10_000,
            ..SimConfig::default()
        }
        // Fault on a link unused by 2 → 3 traffic, applied mid-script.
        .with_fault(FaultEvent::kill_link(cw_link_0_to_1(&rs), 100));
        let wl = Workload::Scripted(vec![(0, 2, 3), (200, 2, 3)]);
        let res = engine(&r, &rs, cfg).run(wl);
        assert_eq!(res.delivered, 2);
        assert_eq!(res.recovery.post_fault_generated, 1);
        assert_eq!(res.recovery.post_fault_delivered, 1);
        assert_eq!(res.recovery.post_fault_delivery_ratio(), 1.0);
    }

    // ------------------------------------------------------------------
    // Gray failures and exactly-once delivery.

    fn gray_retry() -> RetryPolicy {
        RetryPolicy {
            ack_timeout: 8,
            max_retries: 8,
            backoff_base: 8,
            jitter_seed: 1,
        }
    }

    #[test]
    fn flaky_link_drop_recovers_via_retry() {
        // A 1000‰ flaky window guarantees the first attempt is dropped
        // mid-flight; once the window closes the retry delivers.
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 20_000,
            retry: gray_retry(),
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::flaky_link(cw_link_0_to_1(&rs), 1000, 0).transient(5));
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.delivered, 1, "{:?}", res.recovery);
        assert!(res.recovery.flaky_drops >= 1);
        assert!(
            res.recovery.dropped_worms >= res.recovery.flaky_drops,
            "a flaky drop is a teardown"
        );
        assert!(res.recovery.retries >= 1);
        assert_eq!(res.recovery.nacks, 0, "drops are silent, not NACKed");
        assert!(res.is_clean());
    }

    #[test]
    fn corrupt_link_nacks_at_destination_and_retries() {
        // A 1000‰ corrupting window poisons the first attempt; it still
        // *arrives*, fails the CRC check, is NACKed, and the retry
        // (clean, window closed) delivers exactly once.
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 20_000,
            retry: gray_retry(),
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::corrupt_link(cw_link_0_to_1(&rs), 1000, 0).transient(5))
        .with_telemetry(Telemetry::recording());
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.delivered, 1, "{:?}", res.recovery);
        assert_eq!(res.recovery.corrupted_worms, 1);
        assert_eq!(res.recovery.nacks, 1);
        assert_eq!(res.recovery.dropped_worms, 0, "corruption still delivers");
        assert!(res.recovery.retries >= 1);
        assert!(res.is_clean());
        let tel = res.telemetry.expect("telemetry was recording");
        let kinds: Vec<&str> = tel.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"corrupted"), "{kinds:?}");
        assert!(kinds.contains(&"nacked"), "{kinds:?}");
    }

    #[test]
    fn nack_retry_beats_the_ack_timeout_path() {
        // The NACK arrives with the (bad) packet, so the corrupt-path
        // retry fires `ack_timeout` cycles sooner than the flaky-path
        // retry for the same schedule shape.
        let (r, rs) = ring4();
        let retry = RetryPolicy {
            ack_timeout: 500,
            max_retries: 8,
            backoff_base: 8,
            jitter_seed: 1,
        };
        let run = |kind: FaultEvent| {
            let cfg = SimConfig {
                packet_flits: 32,
                max_cycles: 20_000,
                retry,
                ..SimConfig::default()
            }
            .with_fault(kind);
            engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]))
        };
        let corrupt = run(FaultEvent::corrupt_link(cw_link_0_to_1(&rs), 1000, 0).transient(5));
        let flaky = run(FaultEvent::flaky_link(cw_link_0_to_1(&rs), 1000, 0).transient(5));
        assert_eq!(corrupt.delivered, 1);
        assert_eq!(flaky.delivered, 1);
        let t_corrupt = corrupt.recovery.time_to_recover.expect("recovered");
        let t_flaky = flaky.recovery.time_to_recover.expect("recovered");
        assert!(
            t_corrupt + retry.ack_timeout / 2 < t_flaky,
            "NACK {t_corrupt} should beat timeout {t_flaky}"
        );
    }

    #[test]
    fn brownout_oscillation_recovers() {
        // Link browns out 30 down / 30 up: each down phase is a
        // transient outage; retries land in up phases and deliver.
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 20_000,
            retry: gray_retry(),
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::brownout(cw_link_0_to_1(&rs), 30, 30, 8).transient(250));
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.delivered, 1, "{:?}", res.recovery);
        assert!(res.recovery.retries >= 1);
        // Every down phase counts as an outage: 8, 68, 128, 188, 248.
        assert!(res.recovery.faults_applied >= 4, "{:?}", res.recovery);
        assert_eq!(
            res.recovery.repairs_installed, 0,
            "brownouts are transient: healing must not fire"
        );
        assert!(res.is_clean());
    }

    #[test]
    fn speculative_retransmit_duplicate_is_suppressed() {
        // ACK-timeout race: the timer fires while the original worm is
        // still draining, spawning a speculative copy. Both arrive; the
        // destination's sequence check suppresses the second, so the
        // run is exactly-once.
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 20_000,
            retry: RetryPolicy {
                ack_timeout: 1,
                max_retries: 8,
                backoff_base: 8,
                jitter_seed: 1,
            },
            ..SimConfig::default()
        }
        .with_ack_retransmit(true)
        .with_telemetry(Telemetry::recording());
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.generated, 1);
        assert_eq!(res.delivered, 1, "{:?}", res.recovery);
        assert_eq!(res.recovery.duplicates_suppressed, 1, "{:?}", res.recovery);
        assert_eq!(res.recovery.retries, 1);
        assert!(res.recovery.abandoned.is_empty());
        assert!(res.is_clean());
        let tel = res.telemetry.expect("telemetry was recording");
        let kinds: Vec<&str> = tel.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"dup_suppressed"), "{kinds:?}");
    }

    #[test]
    fn dedup_disabled_double_delivers() {
        // The same race with the destination's sequence check turned
        // off (a broken end-node): both arrivals count, delivery is no
        // longer exactly-once, and the accounting catches it.
        let (r, rs) = ring4();
        let cfg = SimConfig {
            packet_flits: 32,
            max_cycles: 20_000,
            retry: RetryPolicy {
                ack_timeout: 1,
                max_retries: 8,
                backoff_base: 8,
                jitter_seed: 1,
            },
            ..SimConfig::default()
        }
        .with_ack_retransmit(true)
        .with_dedup(false);
        let res = engine(&r, &rs, cfg).run(Workload::Scripted(vec![(0, 0, 1)]));
        assert_eq!(res.generated, 1);
        assert_eq!(res.delivered, 2, "{:?}", res.recovery);
        assert_eq!(res.recovery.duplicates_suppressed, 0);
        assert!(
            !res.is_recovered(),
            "double delivery must break the exactly-once invariant"
        );
    }

    #[test]
    fn gray_faulted_runs_are_deterministic() {
        // Sustained uniform load needs a deadlock-free fabric (the
        // clockwise ring can form a circular wait on its own, Fig 1);
        // XY-routed mesh traffic makes any non-recovery a delivery bug.
        let m = Mesh2D::new(3, 3, 1, 6).unwrap();
        let rs = RouteSet::from_table(m.net(), m.end_nodes(), &mesh_xy_routes(&m)).unwrap();
        let mk = || {
            let cfg = SimConfig {
                packet_flits: 8,
                max_cycles: 12_000,
                retry: gray_retry(),
                ..SimConfig::default()
            }
            .with_fault(FaultEvent::flaky_link(rs.path(0, 1)[1].link(), 80, 20).transient(900))
            .with_fault(FaultEvent::corrupt_link(rs.path(4, 5)[1].link(), 120, 50).transient(800))
            .with_ack_retransmit(true);
            let wl = Workload::Bernoulli {
                injection_rate: 0.15,
                pattern: DstPattern::Uniform,
                until_cycle: 1_000,
            };
            engine(&m, &rs, cfg).run(wl)
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.recovery.flaky_drops, b.recovery.flaky_drops);
        assert_eq!(a.recovery.corrupted_worms, b.recovery.corrupted_worms);
        assert_eq!(a.recovery.nacks, b.recovery.nacks);
        assert_eq!(
            a.recovery.duplicates_suppressed,
            b.recovery.duplicates_suppressed
        );
        assert_eq!(a.recovery.abandoned, b.recovery.abandoned);
        assert_eq!(a.channel_busy, b.channel_busy);
        // Exactly-once holds under sustained gray load.
        assert!(a.is_recovered(), "{:?}", a.recovery);
    }
}
