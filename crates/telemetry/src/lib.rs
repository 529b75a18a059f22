//! # fractanet-telemetry
//!
//! Flit-level observability for the wormhole simulator: what happened,
//! on which channel, at which cycle — and what it cost.
//!
//! The paper's evaluation story rests on aggregate numbers (delivered
//! fraction, mean latency, recovery time). Those tell you *that* a
//! configuration misbehaves, not *why*. This crate adds the missing
//! layer:
//!
//! * a trace-event taxonomy ([`TraceEvent`]) covering injection, head
//!   advances, blocking, VC allocation, truncation, retry, abandonment
//!   and delivery, stored in a bounded ring ([`ring::EventRing`]) with
//!   exact drop accounting;
//! * per-channel counters ([`ChannelSummary`]) — busy cycles, flits
//!   forwarded, blocked cycles, peak queue depth — plus an *empirical*
//!   worst-link-contention figure computed with the same bipartite
//!   matching the analytical L5 bound uses, so simulation can be
//!   checked against the paper's Table 2 numbers;
//! * one latency type for every figure, the mergeable log₂-bucketed
//!   [`LatencyHistogram`], here split pre-/post-fault;
//! * recovery spans ([`Span`]) that decompose
//!   `RecoveryStats::time_to_recover` into table-repair and
//!   redelivery phases;
//! * exporters: JSONL ([`export::to_jsonl`]), Chrome `trace_event`
//!   JSON ([`export::to_chrome_trace`]) and a plain-text summary
//!   ([`export::to_text_summary`]);
//! * a *live* metrics layer ([`metrics`]): counters, gauges,
//!   whole-run, per-class and sliding-window latency histograms,
//!   per-traffic-class SLO accounting, a Prometheus text exporter
//!   ([`prom::to_prometheus`]) and a flight recorder whose anomalies
//!   render as Chrome-trace incident bundles
//!   ([`export::incident_chrome_trace`]). Both Chrome renderings go
//!   through one private `trace_event` writer in [`export`].
//!
//! ## Zero cost when off
//!
//! The engine-facing surface is split in two. [`Telemetry`] is pure
//! *configuration* — a small `Clone + PartialEq` value carried on
//! `SimConfig`, safe to clone across parallel sweep points. The
//! mutable state lives in a [`Recorder`] the engine privately creates
//! only when `Telemetry::is_on()`; when off, every instrumentation
//! site reduces to one branch on an `Option` that is always `None`,
//! which the benchmark suite pins under a measurable bound.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod channels;
pub mod event;
pub mod export;
pub mod metrics;
pub mod prom;
pub mod recorder;
pub mod ring;
pub mod sketch;

pub use channels::{matching_bound, ChannelSummary};
pub use event::{Span, SpanKind, TraceEvent};
pub use export::{incident_chrome_trace, to_chrome_trace, to_jsonl, to_text_summary};
pub use metrics::{
    Anomaly, AnomalyKind, ClassStats, MetricsConfig, MetricsRecorder, MetricsReport, MetricsSample,
    MetricsTotals,
};
pub use prom::to_prometheus;
pub use recorder::{Recorder, TelemetryReport};
pub use sketch::LatencyHistogram;

/// Default event-ring capacity when recording is enabled.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Telemetry configuration carried on `SimConfig`.
///
/// This is a value, not a handle: engines construct their own private
/// [`Recorder`] from it via [`Telemetry::recorder`], so cloning a
/// config (as load sweeps do per point) never shares mutable state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Telemetry {
    enabled: bool,
    event_capacity: usize,
}

impl Telemetry {
    /// Telemetry disabled: no recorder is created, no report attached.
    pub fn off() -> Self {
        Telemetry {
            enabled: false,
            event_capacity: 0,
        }
    }

    /// Telemetry enabled with the default event-ring capacity.
    pub fn recording() -> Self {
        Telemetry {
            enabled: true,
            event_capacity: DEFAULT_EVENT_CAPACITY,
        }
    }

    /// Sets the event-ring capacity (only meaningful when recording;
    /// counters, histograms and spans are unaffected by it).
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Whether a run under this config records telemetry.
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// The configured event-ring capacity.
    pub fn event_capacity(&self) -> usize {
        self.event_capacity
    }

    /// A fresh recorder for a fabric of `channels` channels, or `None`
    /// when telemetry is off.
    pub fn recorder(&self, channels: usize) -> Option<Recorder> {
        self.enabled
            .then(|| Recorder::new(self.event_capacity, channels))
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_by_default_and_makes_no_recorder() {
        let t = Telemetry::default();
        assert!(!t.is_on());
        assert!(t.recorder(8).is_none());
        assert_eq!(t, Telemetry::off());
    }

    #[test]
    fn recording_builds_a_recorder() {
        let t = Telemetry::recording().with_event_capacity(16);
        assert!(t.is_on());
        assert_eq!(t.event_capacity(), 16);
        let rec = t.recorder(4).expect("recorder when on");
        let rep = rec.finish(0, &[0; 4]);
        assert_eq!(rep.channels.len(), 4);
    }
}
