//! The cycle's decision scan and its sharded execution.
//!
//! Every cycle splits into a **decision phase** and a **commit
//! phase**. The decision phase — the forwarding scan over ready VCs
//! and the injection scan over ready sources, the work that can move —
//! is a pure function of start-of-cycle state, so it shards across
//! scoped worker threads over contiguous chunks of the ready index
//! lists with no synchronization beyond the fork/join barrier. Scans
//! never touch the recorder, the RNG streams, or any mutable engine
//! state: they fill *plans* (moves to make, queue heads to pop, heads
//! to park, telemetry to emit). The commit phase then replays those
//! plans on the main thread in canonical order — shard outputs
//! concatenate in shard order, which is vid/source order — and hands
//! off to [`Engine::commit_step`].
//! One shard is the plain serial engine: it scans on the calling
//! thread and spawns nothing.
//!
//! Determinism contract: results are bit-identical for every thread
//! count, including RNG streams, heap contents, and the telemetry
//! event ring. The contract rests on three facts, enforced by the
//! `parallel_and_serial_engines_agree` proptest and the engine golden
//! vectors:
//!
//! 1. decisions read only start-of-cycle state — including the
//!    activity and ready sets, each VC's resolved next hop and the
//!    queue heads' route-verdict stamps, which only the serial commit
//!    and the serial replay write — so shard boundaries cannot change
//!    any verdict;
//! 2. retry-jitter draws happen only in the serial replay, in source
//!    order;
//! 3. the order-sensitive telemetry ring sees the deferred `blocked`
//!    records in scan order before any injection-phase event.

use super::{ChanState, Engine, Packet, EJECT, NO_PKT};
use crate::vc::VcMap;
use fractanet_graph::{ChannelId, Network, NodeId};
use fractanet_route::Routes;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

/// Ready items (unparked live VCs plus unparked queued sources) a
/// cycle needs before it forks: below the floor the fork/join and the
/// cross-core commit cost more than the split scan saves, so the cycle
/// runs on one thread. At or above it the cycle forks into every
/// requested shard. Release builds take the value from a crossover
/// measured in live items, before parking (DESIGN.md §11).
/// Debug builds fork whenever there is work, so every test at
/// width > 1 exercises the fork and the merge; shard count never
/// changes a result.
pub(crate) const FORK_MIN_WORK: usize = if cfg!(debug_assertions) { 1 } else { 20_000 };

/// The immutable, `Sync` slice of engine state a decision worker
/// needs: topology, routing epochs, channel/packet/queue state, and
/// the scan-relevant config bits. Also the single home of hop
/// resolution, shared by the scan, the commit's next-hop cache and
/// the debug audit.
pub(super) struct ScanView<'e> {
    pub(super) net: &'e Network,
    pub(super) epochs: &'e [Arc<Routes>],
    pub(super) ends: &'e [NodeId],
    pub(super) chans: &'e [ChanState],
    pub(super) packets: &'e [Packet],
    pub(super) queues: &'e [VecDeque<u32>],
    pub(super) inj_vid: &'e [u32],
    pub(super) chan_dead: &'e [bool],
    pub(super) dead_gen: u32,
    pub(super) credits: &'e [u32],
    pub(super) vcs: u32,
    pub(super) vcmap: Option<&'e VcMap>,
    pub(super) dedup: bool,
    pub(super) tel_on: bool,
}

impl ScanView<'_> {
    /// Resolves the next hop for a worm head occupying `ch`, or `None`
    /// when the head ejects: the downstream router's destination
    /// entry in the packet's epoch.
    fn next_hop(&self, p: &Packet, ch: ChannelId) -> Option<ChannelId> {
        let v = self.net.channel_dst(ch);
        if v == self.ends[p.dst as usize] {
            return None;
        }
        let port = self.epochs[p.epoch as usize]
            .get(v, p.dst as usize)
            .expect("in-flight worm's router has a table entry");
        let next = self
            .net
            .channel_out(v, port)
            .expect("in-flight worm's table entry resolves to a channel");
        Some(next)
    }

    /// The value of [`ChanState::next`] for `p`'s head entering `vid`:
    /// the downstream vid, or [`EJECT`].
    pub(super) fn resolve_next(&self, p: &Packet, vid: u32) -> u32 {
        match self.next_hop(p, ChannelId(vid / self.vcs)) {
            None => EJECT,
            Some(next) => self.vid_of(vid, next),
        }
    }

    /// Resolves the virtual-channel slot (vid) a transfer into physical
    /// channel `next` lands in. Channel state, credits, and the
    /// round-robin pointers are all indexed by vid = `phys * vcs + vc`;
    /// with one VC (or no map installed) this degenerates to the
    /// physical channel index times `vcs`, preserving the legacy
    /// engine's indexing exactly at `vcs == 1`. `cur_vid` is the vid
    /// the worm head currently occupies.
    #[inline]
    fn vid_of(&self, cur_vid: u32, next: ChannelId) -> u32 {
        match self.vcmap {
            None => next.0 * self.vcs,
            Some(map) => {
                let cur_vc = (cur_vid % self.vcs) as u8;
                let cur = ChannelId(cur_vid / self.vcs);
                let vc = map.vc_for(cur_vc, Some(cur), next);
                next.0 * self.vcs + u32::from(vc)
            }
        }
    }

    /// Queue head `p`'s injection verdict into its injection vid
    /// `v0`: `(ok, credit_stall)`. A fresh head needs the VC free and a
    /// credit; a head mid-injection already owns it and needs only the
    /// credit. A blocked head counts as a credit stall only when the
    /// credit is all it lacks.
    #[inline]
    pub(super) fn head_verdict(&self, p: &Packet, v0: u32) -> (bool, bool) {
        let free = self.credits[v0 as usize] > 0;
        if p.sent == 0 {
            let unowned = self.chans[v0 as usize].owner == NO_PKT;
            (unowned && free, unowned && !free)
        } else {
            (free, !free)
        }
    }

    /// Whether the packet's route under its epoch is unusable: absent
    /// (severed pair, missing table entry, forwarding loop) or crossing
    /// a currently-dead channel. Checked before injection.
    pub(super) fn route_dead_or_missing(&self, p: &Packet) -> bool {
        let dst_end = self.ends[p.dst as usize];
        let Some(&(inject, mut v)) = self.net.channels_from(self.ends[p.src as usize]).first()
        else {
            return true;
        };
        if self.chan_dead[inject.index()] {
            return true;
        }
        let tables = &self.epochs[p.epoch as usize];
        let mut hops = 0usize;
        while v != dst_end {
            let Some(port) = tables.get(v, p.dst as usize) else {
                return true;
            };
            let Some(ch) = self.net.channel_out(v, port) else {
                return true;
            };
            if self.chan_dead[ch.index()] {
                return true;
            }
            v = self.net.channel_dst(ch);
            hops += 1;
            if hops > self.net.node_count() {
                return true; // forwarding loop
            }
        }
        false
    }

    /// Whether any channel the worm has yet to traverse — beyond its
    /// head on `ch` — is currently dead.
    pub(super) fn remainder_dead(&self, p: &Packet, ch: ChannelId) -> bool {
        let dst_end = self.ends[p.dst as usize];
        let tables = &self.epochs[p.epoch as usize];
        let mut v = self.net.channel_dst(ch);
        while v != dst_end {
            let port = tables
                .get(v, p.dst as usize)
                .expect("in-flight worm's router has a table entry");
            let next = self
                .net
                .channel_out(v, port)
                .expect("in-flight worm's table entry resolves to a channel");
            if self.chan_dead[next.index()] {
                return true;
            }
            v = self.net.channel_dst(next);
        }
        false
    }
}

/// One shard's decision-scan output: the channel scan's moves in vid
/// order with its `Recorder::blocked` calls deferred as records, then
/// the injection scan's plan in source order. After the merge, shard
/// 0's buffers hold the whole cycle's decisions for the commit.
#[derive(Default)]
pub(super) struct ShardOut {
    pub(super) ejects: Vec<u32>,
    /// `(from vid, next vid)`.
    pub(super) body_moves: Vec<(u32, u32)>,
    /// `(target vid, from vid)`.
    pub(super) alloc_reqs: Vec<(u32, u32)>,
    /// `(physical channel, src, dst)` of every transfer that wants a
    /// channel this cycle; collected only with telemetry on.
    pub(super) contenders: Vec<(u32, u32, u32)>,
    /// VCs whose head is blocked on a downstream VC another worm owns,
    /// to park; reported only with telemetry off.
    parks: Vec<u32>,
    /// Deferred `blocked(owner, wanted, credit_stall)` telemetry, in
    /// vid order; the flag replays the `credit_stalled` counter bump
    /// that precedes the `blocked` record.
    blocked: Vec<(u32, ChannelId, bool)>,
    /// Credit-bound stalls — counted even with telemetry off, for the
    /// engine-level ledger.
    pub(super) credit_stalls: u64,
    sources: Vec<SourceStep>,
}

impl ShardOut {
    fn clear(&mut self) {
        self.ejects.clear();
        self.body_moves.clear();
        self.alloc_reqs.clear();
        self.contenders.clear();
        self.parks.clear();
        self.blocked.clear();
        self.credit_stalls = 0;
        self.sources.clear();
    }

    /// Moves `later`'s decisions after this shard's, keeping both
    /// buffers' capacity.
    fn append(&mut self, later: &mut ShardOut) {
        self.ejects.append(&mut later.ejects);
        self.body_moves.append(&mut later.body_moves);
        self.alloc_reqs.append(&mut later.alloc_reqs);
        self.contenders.append(&mut later.contenders);
        self.parks.append(&mut later.parks);
        self.credit_stalls += later.credit_stalls;
        self.sources.append(&mut later.sources);
    }
}

/// One step of a source's injection plan, in queue order: pop a
/// settled or unroutable head (the latter owes a retry booking), or
/// the surviving head's verdict.
enum SourceStep {
    Pop {
        src: u32,
        pid: u32,
        unroutable: bool,
    },
    Head {
        src: u32,
        pid: u32,
        ok: bool,
        credit_stall: bool,
    },
}

/// The engine-owned per-cycle buffers: cleared each cycle, never
/// reallocated once warm.
#[derive(Default)]
pub(super) struct Scratch {
    /// One output per shard formed so far; shard 0 always exists after
    /// the first step.
    pub(super) shards: Vec<ShardOut>,
    /// Ready VCs and sources as index lists, filled only when a cycle
    /// shards so each worker can take a contiguous chunk.
    ready: Vec<u32>,
    ready_src: Vec<u32>,
    /// `(target vid, from vid)` arbitration winners.
    pub(super) grants: Vec<(u32, u32)>,
    /// Sources whose head injects a flit this cycle.
    pub(super) injections: Vec<usize>,
    /// Contention-matching scratch for one channel.
    pub(super) pairs: Vec<(u32, u32)>,
}

/// Contiguous shard `i` of `0..n` split `shards` ways.
pub(crate) fn chunk(n: usize, shards: usize, i: usize) -> Range<usize> {
    (i * n / shards)..((i + 1) * n / shards)
}

/// Shards actually formed for `threads` requested workers over `work`
/// ready items (ready VCs plus ready sources): one below
/// [`FORK_MIN_WORK`], otherwise `threads`, but never more shards than
/// items and never below one.
pub(crate) fn effective_shards(threads: usize, work: usize) -> usize {
    if work < FORK_MIN_WORK {
        1
    } else {
        threads.clamp(1, work)
    }
}

/// The forwarding scan over ready VCs `vids` (ascending): each VC
/// holding flits moves its buffer head toward the downstream VC
/// resolved when the worm's head entered, so the packet is read only
/// for telemetry. A head blocked on a VC another worm owns is reported
/// for parking when no recorder wants its per-cycle `blocked` record.
fn scan_channels(view: &ScanView<'_>, vids: impl Iterator<Item = u32>, out: &mut ShardOut) {
    for vid in vids {
        let st = &view.chans[vid as usize];
        if st.occ == 0 {
            continue;
        }
        if st.next == EJECT {
            out.ejects.push(vid);
            continue;
        }
        let nvid = st.next;
        let wanted = || ChannelId(nvid / view.vcs);
        if view.tel_on {
            let p = &view.packets[st.owner as usize];
            out.contenders.push((wanted().0, p.src, p.dst));
        }
        let nst = &view.chans[nvid as usize];
        let credit = view.credits[nvid as usize] > 0;
        if st.front() == 0 {
            if nst.owner == NO_PKT && credit {
                out.alloc_reqs.push((nvid, vid));
            } else if nst.owner != NO_PKT && !view.tel_on {
                // Blocked until `nvid`'s worm releases it.
                out.parks.push(vid);
            } else {
                // A free VC without credits is a credit stall.
                let stall = nst.owner == NO_PKT;
                out.credit_stalls += u64::from(stall);
                if view.tel_on {
                    out.blocked.push((st.owner, wanted(), stall));
                }
            }
        } else {
            debug_assert_eq!(nst.owner, st.owner, "body flit lost its worm");
            if credit {
                out.body_moves.push((vid, nvid));
            } else {
                out.credit_stalls += 1;
                if view.tel_on {
                    out.blocked.push((st.owner, wanted(), true));
                }
            }
        }
    }
}

/// The injection scan over ready sources `srcs` (ascending), side
/// effects (pops, retry bookings, verdict stamps, parks) recorded as a plan
/// instead of performed. A head not yet injecting must be routable: a
/// stamp from the current dead-set generation proves it, otherwise
/// the route is walked. Within a cycle no decision of one source
/// depends on another source's pops or retry bookings — retries
/// mutate only attempt counters and future-cycle heaps — so the plans
/// replay serially with identical verdicts.
fn scan_sources(view: &ScanView<'_>, srcs: impl Iterator<Item = u32>, out: &mut ShardOut) {
    for src in srcs {
        // Walk the queue from the front; replayed pops consume exactly
        // the prefix this scan skipped.
        for &pid in view.queues[src as usize].iter() {
            let p = &view.packets[pid as usize];
            if p.sent == 0 {
                // A queued transmission whose logical packet was
                // already delivered (a speculative-copy race) is
                // settled: drop it instead of wasting fabric on a
                // guaranteed duplicate.
                if view.dedup && view.packets[p.logical as usize].delivered_once {
                    out.sources.push(SourceStep::Pop {
                        src,
                        pid,
                        unroutable: false,
                    });
                    continue;
                }
                if p.live_gen != view.dead_gen && view.route_dead_or_missing(p) {
                    out.sources.push(SourceStep::Pop {
                        src,
                        pid,
                        unroutable: true,
                    });
                    continue;
                }
            }
            let (ok, credit_stall) = view.head_verdict(p, view.inj_vid[src as usize]);
            out.sources.push(SourceStep::Head {
                src,
                pid,
                ok,
                credit_stall,
            });
            break;
        }
    }
}

impl Engine<'_> {
    /// The immutable scan view over current engine state.
    pub(super) fn scan_view(&self) -> ScanView<'_> {
        ScanView {
            net: self.net,
            epochs: &self.epochs,
            ends: &self.ends,
            chans: &self.chans,
            packets: &self.packets,
            queues: &self.queues,
            inj_vid: &self.inj_vid,
            chan_dead: &self.chan_dead,
            dead_gen: self.dead_gen,
            credits: &self.credits,
            vcs: self.vcs as u32,
            vcmap: self.vcmap.as_ref(),
            dedup: self.cfg.dedup,
            tel_on: self.tel.is_some(),
        }
    }

    /// One cycle: the decision scans over ready VCs and sources — on
    /// this thread, or forked across shards when there is enough ready
    /// work — then the plans replayed serially in canonical order,
    /// parks applied, and committed. Bit-identical at every `threads`
    /// value, and to an engine that parks nothing.
    pub(super) fn step(&mut self, cycle: u64) -> usize {
        let mut sc = std::mem::take(&mut self.scratch);
        // Sources parked before this cycle's scan stall on credits this
        // cycle exactly as they did when they parked.
        let parked_stalls = self.parked_stalls;
        let shards = effective_shards(self.cfg.threads, self.ready.len() + self.ready_src.len());
        if sc.shards.len() < shards {
            sc.shards.resize_with(shards, ShardOut::default);
        }
        for out in &mut sc.shards[..shards] {
            out.clear();
        }
        let view = self.scan_view();
        if shards == 1 {
            let out = &mut sc.shards[0];
            scan_channels(&view, self.ready.iter(), out);
            scan_sources(&view, self.ready_src.iter(), out);
        } else {
            let Scratch {
                shards: outs,
                ready,
                ready_src,
                ..
            } = &mut sc;
            ready.clear();
            ready.extend(self.ready.iter());
            ready_src.clear();
            ready_src.extend(self.ready_src.iter());
            let (ready, ready_src, view) = (&ready[..], &ready_src[..], &view);
            let scan = move |i: usize, out: &mut ShardOut| {
                let vids = &ready[chunk(ready.len(), shards, i)];
                scan_channels(view, vids.iter().copied(), out);
                let srcs = &ready_src[chunk(ready_src.len(), shards, i)];
                scan_sources(view, srcs.iter().copied(), out);
            };
            // Shard 0 runs on this thread while the others fork.
            let (first, rest) = outs[..shards].split_at_mut(1);
            crossbeam::thread::scope(|scope| {
                for (i, out) in rest.iter_mut().enumerate() {
                    scope.spawn(move |_| scan(i + 1, out));
                }
                scan(0, &mut first[0]);
            })
            .expect("shard scan scope");
        }

        // Merge in shard order (= vid/source order). The deferred scan
        // telemetry replays first: every scan-phase `blocked` precedes
        // any injection-phase event.
        if let Some(t) = self.tel.as_mut() {
            for out in &sc.shards[..shards] {
                for &(owner, wanted, stall) in &out.blocked {
                    if stall {
                        t.credit_stalled(wanted);
                    }
                    t.blocked(cycle, owner, wanted);
                }
            }
        }
        if let Some((first, rest)) = sc.shards[..shards].split_first_mut() {
            for out in rest {
                first.append(out);
            }
        }

        // Parks take effect before anything in this cycle's commit can
        // release what they wait on, so no wake is missed.
        let out = &mut sc.shards[0];
        for &vid in &out.parks {
            self.park_vc(vid);
        }

        // Injection replay in source order: queue pops, retry bookings
        // (the decision phase's only RNG draws), verdict stamps, and
        // head verdicts — a blocked head parks unless a recorder logs it.
        sc.injections.clear();
        for step in &out.sources {
            match *step {
                SourceStep::Pop {
                    src,
                    pid,
                    unroutable,
                } => {
                    let popped = self.queues[src as usize].pop_front();
                    debug_assert_eq!(popped, Some(pid), "replayed pop diverged from the scan");
                    self.sync_queued(src as usize);
                    if unroutable {
                        self.retire_or_retry(pid, cycle, false);
                    }
                }
                SourceStep::Head {
                    src,
                    pid,
                    ok,
                    credit_stall,
                } => {
                    let p = &mut self.packets[pid as usize];
                    if p.sent == 0 {
                        p.live_gen = self.dead_gen;
                    }
                    let first = || ChannelId(self.inj_vid[src as usize] / self.vcs as u32);
                    if self.tel.is_some() {
                        out.contenders.push((first().0, p.src, p.dst));
                    }
                    if ok {
                        sc.injections.push(src as usize);
                        continue;
                    }
                    out.credit_stalls += u64::from(credit_stall);
                    match self.tel.as_mut() {
                        Some(t) => {
                            if credit_stall {
                                t.credit_stalled(first());
                            }
                            t.blocked(cycle, pid, first());
                        }
                        None => self.park_src(src as usize, credit_stall),
                    }
                }
            }
        }
        out.credit_stalls += parked_stalls;

        let moves = self.commit_step(cycle, &mut sc);
        self.scratch = sc;
        moves
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SimConfig;
    use crate::engine::Engine;
    use crate::fault::FaultEvent;
    use crate::stats::SimResult;
    use crate::traffic::{DstPattern, Workload};
    use fractanet_route::dor::mesh_xy_routes;
    use fractanet_telemetry::Telemetry;
    use fractanet_topo::{Mesh2D, Topology};
    use std::sync::Arc;

    #[test]
    fn chunks_partition_exactly() {
        for n in [0usize, 1, 7, 64, 129, 10_000] {
            for shards in 1..=9 {
                let mut covered = 0usize;
                for i in 0..shards {
                    let r = super::chunk(n, shards, i);
                    assert_eq!(r.start, covered, "n={n} shards={shards} i={i}");
                    covered = r.end;
                }
                assert_eq!(covered, n, "n={n} shards={shards}");
            }
        }
    }

    #[test]
    fn shards_fork_at_the_work_floor() {
        use super::{effective_shards, FORK_MIN_WORK as F};
        assert_eq!(effective_shards(8, 0), 1, "an idle cycle never forks");
        assert_eq!(effective_shards(8, F - 1), 1, "below the floor");
        assert_eq!(
            effective_shards(8, F.max(8)),
            8,
            "at the floor, every thread"
        );
        assert!(effective_shards(8, 3) <= 3, "never more shards than items");
        assert_eq!(effective_shards(2, 100 * F), 2);
        assert_eq!(effective_shards(0, 100 * F), 1);
    }

    /// A faulted, telemetry-on, table-routed mesh run at the given
    /// thread count: kill+repair on one link, a permanent kill on
    /// another (triggering a mid-run epoch install via the repairer),
    /// under Bernoulli load. Debug builds fork real shards at
    /// `threads > 1` whenever a cycle has live work.
    fn mesh_run(threads: usize) -> SimResult {
        let m = Mesh2D::new(8, 8, 1, 6).unwrap();
        let routes = Arc::new(mesh_xy_routes(&m));
        let (ends, net) = (m.end_nodes(), m.net());
        let transient = routes.trace(net, ends, 0, 9).expect("XY routes trace")[1].link();
        let permanent = routes.trace(net, ends, 63, 54).expect("XY routes trace")[1].link();
        let cfg = SimConfig::default()
            .with_packet_flits(8)
            .with_max_cycles(3_000)
            .with_seed(0xD157)
            .with_telemetry(Telemetry::recording())
            .with_fault(FaultEvent::kill_link(transient, 60).transient(600))
            .with_fault(FaultEvent::kill_link(permanent, 150))
            .with_threads(threads);
        let repair = routes.clone();
        Engine::new(net, ends, routes, cfg)
            .with_table_repairer(move |_, _| Some(repair.clone()))
            .run(Workload::Bernoulli {
                injection_rate: 0.3,
                pattern: DstPattern::Uniform,
                until_cycle: 1_500,
            })
    }

    #[test]
    fn parallel_matches_serial_on_faulted_mesh() {
        let one_shard = format!("{:?}", mesh_run(1));
        for threads in [2, 4, 8] {
            let got = format!("{:?}", mesh_run(threads));
            assert_eq!(one_shard, got, "threads={threads} diverged from width 1");
        }
    }

    #[test]
    fn mesh_run_is_nontrivial() {
        // Guard the parity fixture itself: it must actually deliver
        // traffic, apply both faults, and record telemetry, or the
        // agreement test proves nothing.
        let r = mesh_run(4);
        assert!(r.delivered > 50, "delivered {}", r.delivered);
        assert!(r.recovery.faults_applied >= 2);
        assert!(r.recovery.repairs_installed >= 1, "epoch install missing");
        let tel = r.telemetry.expect("telemetry was on");
        assert!(tel.events_seen > 0);
    }
}
