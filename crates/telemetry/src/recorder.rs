//! The recorder an engine feeds, and the immutable report it yields.
//!
//! A [`Recorder`] is private to one engine run: it is created from the
//! [`Telemetry`](crate::Telemetry) config when the run starts, fed
//! through typed emit helpers (all cheap integer pushes — no locks, no
//! I/O, no allocation beyond the pre-sized buffers), and consumed by
//! [`Recorder::finish`] into a [`TelemetryReport`] attached to the
//! simulation result. Keeping the recorder single-owner preserves the
//! engine's determinism guarantees and keeps parallel load sweeps
//! (which clone the *config*, never a recorder) trivially safe.

use fractanet_graph::ChannelId;

use crate::channels::{matching_bound, ChannelCounters, ChannelSummary};
use crate::event::{Span, SpanKind, TraceEvent};
use crate::ring::EventRing;
use crate::sketch::LatencyHistogram;

/// Live telemetry state for one engine run.
#[derive(Clone, Debug)]
pub struct Recorder {
    ring: EventRing,
    spans: Vec<Span>,
    counters: ChannelCounters,
    pre_fault: LatencyHistogram,
    post_fault: LatencyHistogram,
    first_fault: Option<u64>,
    last_install: Option<u64>,
    recovered: bool,
}

impl Recorder {
    /// A recorder for a fabric of `channels` channels, storing at most
    /// `event_capacity` events.
    pub fn new(event_capacity: usize, channels: usize) -> Self {
        Recorder {
            ring: EventRing::new(event_capacity),
            spans: Vec::new(),
            counters: ChannelCounters::new(channels),
            pre_fault: LatencyHistogram::new(),
            post_fault: LatencyHistogram::new(),
            first_fault: None,
            last_install: None,
            recovered: false,
        }
    }

    /// Records a packet's first flit entering its injection channel.
    pub fn packet_injected(&mut self, cycle: u64, worm: u32, src: u32, dst: u32, len: u32) {
        self.ring.push(TraceEvent::PacketInjected {
            cycle,
            worm,
            src,
            dst,
            len,
        });
    }

    /// Records a head flit advancing into `channel`.
    pub fn head_advanced(&mut self, cycle: u64, worm: u32, channel: ChannelId) {
        self.ring.push(TraceEvent::HeadAdvanced {
            cycle,
            worm,
            channel,
        });
    }

    /// Records a flit wanting `channel` and not getting it this cycle.
    pub fn blocked(&mut self, cycle: u64, worm: u32, channel: ChannelId) {
        self.ring.push(TraceEvent::Blocked {
            cycle,
            worm,
            channel,
        });
        self.counters.blocked_cycle(channel.index());
    }

    /// Records a virtual-channel grant.
    pub fn vc_allocated(&mut self, cycle: u64, worm: u32, channel: ChannelId, vc: u8) {
        self.ring.push(TraceEvent::VcAllocated {
            cycle,
            worm,
            channel,
            vc,
        });
    }

    /// Records an in-flight worm being torn down.
    pub fn worm_truncated(&mut self, cycle: u64, worm: u32, drained: bool) {
        self.ring.push(TraceEvent::WormTruncated {
            cycle,
            worm,
            drained,
        });
    }

    /// Records a retry being scheduled.
    pub fn retried(&mut self, cycle: u64, worm: u32, attempt: u32, release: u64) {
        self.ring.push(TraceEvent::Retried {
            cycle,
            worm,
            attempt,
            release,
        });
    }

    /// Records a packet exhausting its retry budget.
    pub fn abandoned(&mut self, cycle: u64, worm: u32, src: u32, dst: u32) {
        self.ring.push(TraceEvent::Abandoned {
            cycle,
            worm,
            src,
            dst,
        });
    }

    /// Records a delivery, filing the latency pre- or post-fault by
    /// whether any fault had been applied when the tail ejected.
    pub fn delivered(&mut self, cycle: u64, worm: u32, latency: u64) {
        self.ring.push(TraceEvent::Delivered {
            cycle,
            worm,
            latency,
        });
        if self.first_fault.is_some() {
            self.post_fault.record(latency);
        } else {
            self.pre_fault.record(latency);
        }
    }

    /// Records a worm traversing a corrupting link.
    pub fn corrupted(&mut self, cycle: u64, worm: u32, channel: ChannelId) {
        self.ring.push(TraceEvent::Corrupted {
            cycle,
            worm,
            channel,
        });
    }

    /// Records a destination CRC failure answered with a NACK.
    pub fn nacked(&mut self, cycle: u64, worm: u32, src: u32, dst: u32) {
        self.ring.push(TraceEvent::Nacked {
            cycle,
            worm,
            src,
            dst,
        });
    }

    /// Records a duplicate arrival suppressed by sequence numbering.
    pub fn dup_suppressed(&mut self, cycle: u64, worm: u32, original: u32) {
        self.ring.push(TraceEvent::DupSuppressed {
            cycle,
            worm,
            original,
        });
    }

    /// Records a fault-schedule application at `cycle` (an instant
    /// span), anchoring the recovery decomposition on the first one.
    pub fn fault_applied(&mut self, cycle: u64) {
        self.spans.push(Span {
            kind: SpanKind::FaultInjection,
            begin: cycle,
            end: cycle,
        });
        if self.first_fault.is_none() {
            self.first_fault = Some(cycle);
        }
    }

    /// Records a certified routing-table install at `cycle`.
    pub fn repair_installed(&mut self, cycle: u64) {
        self.spans.push(Span {
            kind: SpanKind::HealInstall,
            begin: cycle,
            end: cycle,
        });
        if !self.recovered {
            self.last_install = Some(cycle);
        }
    }

    /// Records the first retried delivery completing at `cycle`,
    /// closing the recovery decomposition: a `TableRepair` span (first
    /// fault → the install the recovery rode on, or zero-length when
    /// recovery needed no repair) and a `Redelivery` span covering the
    /// rest. Their durations sum to `cycle - first_fault`, the
    /// engine's `time_to_recover`.
    pub fn recovered(&mut self, cycle: u64) {
        let Some(first) = self.first_fault else {
            return;
        };
        if self.recovered {
            return;
        }
        self.recovered = true;
        let pivot = self.last_install.unwrap_or(first).clamp(first, cycle);
        self.spans.push(Span {
            kind: SpanKind::TableRepair,
            begin: first,
            end: pivot,
        });
        self.spans.push(Span {
            kind: SpanKind::Redelivery,
            begin: pivot,
            end: cycle,
        });
    }

    /// Books one flit leaving `channel`.
    pub fn flit_forwarded(&mut self, channel: ChannelId) {
        self.counters.flit_forwarded(channel.index());
    }

    /// Observes an input-FIFO depth on `channel`.
    pub fn observe_depth(&mut self, channel: ChannelId, depth: u32) {
        self.counters.observe_depth(channel.index(), depth);
    }

    /// Books a credit stall on `channel` — a transfer blocked on a
    /// full downstream FIFO. A counter, not a ring event, so enabling
    /// it never perturbs the event stream.
    pub fn credit_stalled(&mut self, channel: ChannelId) {
        self.counters.credit_stall(channel.index());
    }

    /// Observes one cycle's concurrent contenders for `channel` as
    /// `(src, dst)` transfer pairs; their maximum matching is the
    /// cycle's empirical contention.
    pub fn observe_contention(&mut self, channel: ChannelId, pairs: &[(u32, u32)]) {
        if pairs.len() < 2 {
            // 0 or 1 contender can never beat an existing peak ≥ 1,
            // but a first observation of 1 still counts.
            self.counters
                .observe_contention(channel.index(), pairs.len() as u32);
            return;
        }
        let k = matching_bound(pairs) as u32;
        self.counters.observe_contention(channel.index(), k);
    }

    /// Consumes the recorder into a report. `cycles` is the number of
    /// cycles simulated and `busy` the engine's authoritative
    /// per-channel busy counts.
    pub fn finish(mut self, cycles: u64, busy: &[u64]) -> TelemetryReport {
        self.spans.push(Span {
            kind: SpanKind::Simulation,
            begin: 0,
            end: cycles,
        });
        let events_seen = self.ring.seen();
        let events_dropped = self.ring.dropped();
        TelemetryReport {
            cycles,
            events: self.ring.into_events(),
            events_seen,
            events_dropped,
            spans: self.spans,
            channels: self.counters.finish(busy),
            pre_fault_latency: self.pre_fault,
            post_fault_latency: self.post_fault,
        }
    }
}

/// Everything a recorded run observed, attached to the sim result.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetryReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Stored trace events, oldest first (oldest are kept on
    /// overflow).
    pub events: Vec<TraceEvent>,
    /// Events offered to the ring, stored or not.
    pub events_seen: u64,
    /// Events dropped for ring capacity. Invariant:
    /// `events.len() + events_dropped == events_seen`.
    pub events_dropped: u64,
    /// Recovery / fault / simulation spans. Always contains at least
    /// the whole-run `Simulation` span.
    pub spans: Vec<Span>,
    /// Per-channel counters, indexed by `ChannelId::index()`.
    pub channels: Vec<ChannelSummary>,
    /// Latencies of packets delivered before any fault was applied.
    pub pre_fault_latency: LatencyHistogram,
    /// Latencies of packets delivered after the first fault.
    pub post_fault_latency: LatencyHistogram,
}

impl TelemetryReport {
    /// The channel with the highest observed contention, with its
    /// empirical `k` (`None` when nothing contended).
    pub fn worst_contention(&self) -> Option<(ChannelId, u32)> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, s)| s.peak_contention > 0)
            .max_by_key(|(_, s)| s.peak_contention)
            .map(|(i, s)| (ChannelId(i as u32), s.peak_contention))
    }

    /// Per-channel utilization (`busy_cycles / cycles`), indexed by
    /// `ChannelId::index()`. All zeros for a zero-cycle run.
    pub fn utilization(&self) -> Vec<f64> {
        self.channels
            .iter()
            .map(|s| {
                if self.cycles == 0 {
                    0.0
                } else {
                    s.busy_cycles as f64 / self.cycles as f64
                }
            })
            .collect()
    }

    /// Channel counts per utilization decile: slot `i` counts channels
    /// with utilization in `[i/10, (i+1)/10)` (slot 9 includes 1.0).
    pub fn utilization_histogram(&self) -> [u64; 10] {
        let mut bins = [0u64; 10];
        for u in self.utilization() {
            let slot = ((u * 10.0) as usize).min(9);
            bins[slot] += 1;
        }
        bins
    }

    /// The recovery time implied by the span decomposition: the sum of
    /// the `TableRepair` and `Redelivery` durations. `None` when the
    /// run never recovered (no faults, or no retried delivery).
    /// Matches `RecoveryStats::time_to_recover` exactly when present.
    pub fn recovery_span_cycles(&self) -> Option<u64> {
        let mut found = false;
        let mut sum = 0u64;
        for s in &self.spans {
            if matches!(s.kind, SpanKind::TableRepair | SpanKind::Redelivery) {
                found = true;
                sum += s.duration();
            }
        }
        found.then_some(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_decomposition_sums_to_recovery_time() {
        let mut r = Recorder::new(64, 4);
        r.fault_applied(100);
        r.fault_applied(120); // second fault must not move the anchor
        r.repair_installed(150);
        r.recovered(200);
        r.repair_installed(210); // post-recovery install: instant only
        let rep = r.finish(300, &[0; 4]);
        assert_eq!(rep.recovery_span_cycles(), Some(100));
        let repair = rep
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::TableRepair)
            .unwrap();
        assert_eq!((repair.begin, repair.end), (100, 150));
        let redeliver = rep
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::Redelivery)
            .unwrap();
        assert_eq!((redeliver.begin, redeliver.end), (150, 200));
        // Two fault instants, two install instants, one simulation.
        assert_eq!(rep.spans.len(), 7);
        assert!(rep
            .spans
            .iter()
            .any(|s| s.kind == SpanKind::Simulation && s.begin == 0 && s.end == 300));
    }

    #[test]
    fn recovery_without_install_is_pure_redelivery() {
        let mut r = Recorder::new(64, 1);
        r.fault_applied(10);
        r.recovered(35);
        let rep = r.finish(50, &[0]);
        assert_eq!(rep.recovery_span_cycles(), Some(25));
        let repair = rep
            .spans
            .iter()
            .find(|s| s.kind == SpanKind::TableRepair)
            .unwrap();
        assert_eq!(repair.duration(), 0);
    }

    #[test]
    fn no_recovery_yields_none_and_simulation_span_survives() {
        let r = Recorder::new(64, 2);
        let rep = r.finish(40, &[3, 0]);
        assert_eq!(rep.recovery_span_cycles(), None);
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].kind, SpanKind::Simulation);
        assert_eq!(rep.utilization()[0], 3.0 / 40.0);
    }

    #[test]
    fn latency_splits_on_first_fault() {
        let mut r = Recorder::new(64, 1);
        r.delivered(5, 0, 5);
        r.fault_applied(10);
        r.delivered(20, 1, 12);
        let rep = r.finish(30, &[0]);
        assert_eq!(rep.pre_fault_latency.count(), 1);
        assert_eq!(rep.post_fault_latency.count(), 1);
        assert_eq!(rep.post_fault_latency.max(), 12);
    }

    #[test]
    fn contention_peak_uses_matching() {
        let mut r = Recorder::new(8, 2);
        r.observe_contention(ChannelId(0), &[(0, 1), (2, 3), (2, 4)]);
        r.observe_contention(ChannelId(0), &[(9, 9)]);
        let rep = r.finish(10, &[0, 0]);
        assert_eq!(rep.worst_contention(), Some((ChannelId(0), 2)));
    }

    #[test]
    fn report_accounting_matches_ring() {
        let mut r = Recorder::new(2, 1);
        for c in 0..5 {
            r.delivered(c, c as u32, 1);
        }
        let rep = r.finish(5, &[0]);
        assert_eq!(rep.events_seen, 5);
        assert_eq!(rep.events.len(), 2);
        assert_eq!(rep.events_dropped, 3);
        assert_eq!(
            rep.events.len() as u64 + rep.events_dropped,
            rep.events_seen
        );
    }
}
