//! Live streaming metrics: counters, gauges, sliding-window latency
//! histograms, and per-traffic-class SLO accounting.
//!
//! The design mirrors the event-ring telemetry split: [`MetricsConfig`]
//! is pure *configuration* carried on `SimConfig` (cheap to clone, safe
//! to share across sweep points), and the mutable [`MetricsRecorder`]
//! is created privately by one engine run only when the config is on.
//! Every emit site in the engine sits behind one branch on an
//! `Option` that is `None` when metrics are off, and every emit and
//! the end-of-cycle [`MetricsRecorder::sample`] happen at the serial
//! commit point — never inside the sharded scan phase — so recording
//! is provably inert: results are bit-identical metrics-on vs
//! metrics-off at every `--threads` width (pinned by the workspace
//! parity proptests and the overhead guard bench).
//!
//! Labels: the topology spec, per-channel link class (attach / local /
//! level-k), the live routing epoch, and the traffic class. Traffic
//! classes partition end-node addresses into `groups` equal ranges and
//! account each `(src_group, dst_group)` pair separately: deliveries
//! within the SLO deadline, abandons, and retry-budget burn — the
//! serving-fabric SLO surface ROADMAP item 1 asks for.

use crate::sketch::LatencyHistogram;
use fractanet_graph::{LinkClass, Network};
use std::collections::VecDeque;

/// Default cycles between samples when sampling is enabled.
pub const DEFAULT_SAMPLE_EVERY: u64 = 100;
/// Default sliding-window length, in sample intervals.
pub const DEFAULT_WINDOW: usize = 8;
/// Default traffic-class group count per axis.
pub const DEFAULT_GROUPS: usize = 4;
/// Default SLO delivery deadline, in cycles.
pub const DEFAULT_DEADLINE: u64 = 1_000;
/// Delivered-within-deadline ratio below which a traffic class is
/// flagged as breaching its SLO.
pub const SLO_TARGET: f64 = 0.99;

/// Metrics configuration carried on `SimConfig`. A value, not a
/// handle: engines construct their own private [`MetricsRecorder`]
/// from it, so cloning a config never shares mutable state.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsConfig {
    enabled: bool,
    sample_every: u64,
    window: usize,
    groups: usize,
    deadline: u64,
    topology: String,
}

impl MetricsConfig {
    /// Metrics disabled: no recorder is created, no report attached.
    pub fn off() -> Self {
        MetricsConfig {
            enabled: false,
            sample_every: 0,
            window: 0,
            groups: 0,
            deadline: 0,
            topology: String::new(),
        }
    }

    /// Metrics enabled, sampling every `every` cycles (clamped to at
    /// least 1) with default window, grouping, and SLO deadline.
    pub fn sampling(every: u64) -> Self {
        MetricsConfig {
            enabled: true,
            sample_every: every.max(1),
            window: DEFAULT_WINDOW,
            groups: DEFAULT_GROUPS,
            deadline: DEFAULT_DEADLINE,
            topology: String::new(),
        }
    }

    /// Sets the sliding-window length in sample intervals (min 1).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Sets the traffic-class group count per axis (min 1).
    pub fn with_groups(mut self, groups: usize) -> Self {
        self.groups = groups.max(1);
        self
    }

    /// Sets the SLO delivery deadline in cycles.
    pub fn with_deadline(mut self, deadline: u64) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the topology label stamped on exported metrics.
    pub fn with_topology(mut self, topology: &str) -> Self {
        self.topology = topology.to_string();
        self
    }

    /// Whether a run under this config records metrics.
    pub fn is_on(&self) -> bool {
        self.enabled
    }

    /// Cycles between samples.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Sliding-window length in sample intervals.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Traffic-class groups per axis.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// SLO delivery deadline in cycles.
    pub fn deadline(&self) -> u64 {
        self.deadline
    }

    /// The configured topology label.
    pub fn topology(&self) -> &str {
        &self.topology
    }

    /// A fresh recorder for a fabric described by `net` serving
    /// `ends` end-node addresses under `max_retries`, or `None` when
    /// metrics are off.
    pub fn recorder(
        &self,
        net: &Network,
        ends: usize,
        max_retries: u32,
    ) -> Option<MetricsRecorder> {
        if !self.enabled {
            return None;
        }
        let (chan_class, class_labels) = channel_classes(net);
        Some(MetricsRecorder::new(
            self.clone(),
            chan_class,
            class_labels,
            ends,
            max_retries,
        ))
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig::off()
    }
}

/// Classifies every channel by its link class and returns
/// `(class index per channel, label per class index)`.
pub fn channel_classes(net: &Network) -> (Vec<u8>, Vec<String>) {
    let mut labels: Vec<String> = Vec::new();
    let mut ids = std::collections::BTreeMap::new();
    let mut chan_class = vec![0u8; net.channel_count()];
    for ch in net.channels() {
        let label = match net.link(ch.link()).class {
            LinkClass::Attach => "attach".to_string(),
            LinkClass::Local => "local".to_string(),
            LinkClass::Level(k) => format!("level{k}"),
        };
        let next = ids.len() as u8;
        let id = *ids.entry(label.clone()).or_insert_with(|| {
            labels.push(label);
            next
        });
        chan_class[ch.index()] = id;
    }
    (chan_class, labels)
}

/// Running totals over the whole run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsTotals {
    /// Packets generated.
    pub generated: u64,
    /// Packets delivered (first copy).
    pub delivered: u64,
    /// Deliveries within the SLO deadline.
    pub within_deadline: u64,
    /// Packets abandoned after exhausting retries.
    pub abandoned: u64,
    /// Retries scheduled.
    pub retries: u64,
    /// Destination CRC NACKs.
    pub nacks: u64,
    /// Duplicate deliveries suppressed.
    pub dups_suppressed: u64,
    /// Fault-schedule events applied.
    pub faults: u64,
    /// Certified healed-table installs.
    pub heal_installs: u64,
    /// Transfers stalled on exhausted downstream credits (full input
    /// FIFOs). Zero whenever FIFOs are unbounded.
    pub credit_stalls: u64,
    /// Cycle a deadlock verdict was reached, if any.
    pub deadlock_cycle: Option<u64>,
}

/// One `(src_group, dst_group)` traffic class's SLO account.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassStats {
    /// Source end-node address group.
    pub src_group: usize,
    /// Destination end-node address group.
    pub dst_group: usize,
    /// Packets generated in this class.
    pub generated: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Deliveries within the SLO deadline.
    pub within_deadline: u64,
    /// Packets abandoned.
    pub abandoned: u64,
    /// Retries scheduled.
    pub retries: u64,
    /// End-to-end latency histogram for the class.
    pub latency: LatencyHistogram,
}

impl ClassStats {
    fn new(src_group: usize, dst_group: usize) -> Self {
        ClassStats {
            src_group,
            dst_group,
            generated: 0,
            delivered: 0,
            within_deadline: 0,
            abandoned: 0,
            retries: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// Delivered-within-deadline ratio (1.0 when nothing delivered
    /// yet — no delivery has missed its deadline).
    pub fn slo_ratio(&self) -> f64 {
        slo_ratio(self.within_deadline, self.delivered)
    }

    /// Fraction of the class's total retry budget burned:
    /// `retries / (generated × max_retries)` (0 when nothing
    /// generated or retries are disabled).
    pub fn retry_budget_burn(&self, max_retries: u32) -> f64 {
        retry_budget_burn(self.retries, self.generated, max_retries)
    }
}

fn slo_ratio(within_deadline: u64, delivered: u64) -> f64 {
    if delivered == 0 {
        1.0
    } else {
        within_deadline as f64 / delivered as f64
    }
}

fn retry_budget_burn(retries: u64, generated: u64, max_retries: u32) -> f64 {
    let budget = generated.saturating_mul(max_retries as u64);
    if budget == 0 {
        0.0
    } else {
        retries as f64 / budget as f64
    }
}

/// One periodic scrape of the live registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSample {
    /// Cycle the sample was taken at (end of cycle).
    pub cycle: u64,
    /// Cumulative counters at sample time.
    pub generated: u64,
    /// Cumulative deliveries.
    pub delivered: u64,
    /// Cumulative abandons.
    pub abandoned: u64,
    /// Cumulative retries.
    pub retries: u64,
    /// Cumulative NACKs.
    pub nacks: u64,
    /// Cumulative duplicates suppressed.
    pub dups_suppressed: u64,
    /// Packets in flight (gauge).
    pub in_flight: u64,
    /// Live routing epoch (gauge).
    pub routing_epoch: u64,
    /// Deliveries inside the sliding window.
    pub window_count: u64,
    /// Sliding-window latency p50 (bucket upper bound).
    pub window_p50: u64,
    /// Sliding-window latency p95.
    pub window_p95: u64,
    /// Sliding-window latency p99.
    pub window_p99: u64,
    /// Sliding-window exact max latency.
    pub window_max: u64,
    /// Cumulative busy cycles per channel class (indexed like
    /// `MetricsReport::class_labels`).
    pub busy_by_class: Vec<u64>,
}

/// Why the flight recorder flagged a moment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnomalyKind {
    /// The engine reached a wormhole-deadlock verdict.
    Deadlock,
    /// A traffic class's delivered-within-deadline ratio fell below
    /// the configured target.
    SloBreach {
        /// Source group of the breaching class.
        src_group: usize,
        /// Destination group of the breaching class.
        dst_group: usize,
    },
    /// A certified healed routing table was installed.
    HealInstall,
    /// An external harness (chaos) observed an invariant violation.
    InvariantViolation,
}

impl AnomalyKind {
    /// Stable string tag for exports.
    pub fn tag(&self) -> &'static str {
        match self {
            AnomalyKind::Deadlock => "deadlock",
            AnomalyKind::SloBreach { .. } => "slo_breach",
            AnomalyKind::HealInstall => "heal_install",
            AnomalyKind::InvariantViolation => "invariant_violation",
        }
    }
}

/// One flagged moment, with human-readable evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Anomaly {
    /// Cycle the anomaly was observed.
    pub cycle: u64,
    /// What kind of anomaly.
    pub kind: AnomalyKind,
    /// Evidence (counter values, verdict, …).
    pub detail: String,
}

/// Live metrics state for one engine run. Single-owner, fed only from
/// the engine's serial commit points.
#[derive(Clone, Debug)]
pub struct MetricsRecorder {
    cfg: MetricsConfig,
    chan_class: Vec<u8>,
    class_labels: Vec<String>,
    ends: usize,
    max_retries: u32,
    totals: MetricsTotals,
    classes: Vec<ClassStats>,
    latency: LatencyHistogram,
    interval: LatencyHistogram,
    window: VecDeque<LatencyHistogram>,
    samples: Vec<MetricsSample>,
    anomalies: Vec<Anomaly>,
    injections: Vec<(u64, u32, u32)>,
    breached: Vec<bool>,
}

impl MetricsRecorder {
    fn new(
        cfg: MetricsConfig,
        chan_class: Vec<u8>,
        class_labels: Vec<String>,
        ends: usize,
        max_retries: u32,
    ) -> Self {
        let g = cfg.groups.max(1);
        let classes = (0..g * g).map(|i| ClassStats::new(i / g, i % g)).collect();
        MetricsRecorder {
            cfg,
            chan_class,
            class_labels,
            ends: ends.max(1),
            max_retries,
            totals: MetricsTotals::default(),
            classes,
            latency: LatencyHistogram::new(),
            interval: LatencyHistogram::new(),
            window: VecDeque::new(),
            samples: Vec::new(),
            anomalies: Vec::new(),
            injections: Vec::new(),
            breached: vec![false; g * g],
        }
    }

    fn group_of(&self, addr: usize) -> usize {
        (addr * self.cfg.groups / self.ends).min(self.cfg.groups - 1)
    }

    fn class_index(&self, src: usize, dst: usize) -> usize {
        self.group_of(src) * self.cfg.groups + self.group_of(dst)
    }

    /// Records one generated packet (also logged into the replayable
    /// injection schedule).
    pub fn generated(&mut self, cycle: u64, src: usize, dst: usize) {
        self.totals.generated += 1;
        let i = self.class_index(src, dst);
        self.classes[i].generated += 1;
        self.injections.push((cycle, src as u32, dst as u32));
    }

    /// Records a first-copy delivery with its end-to-end latency.
    pub fn delivered(&mut self, _cycle: u64, src: usize, dst: usize, latency: u64) {
        self.totals.delivered += 1;
        let within = latency <= self.cfg.deadline;
        if within {
            self.totals.within_deadline += 1;
        }
        let i = self.class_index(src, dst);
        let c = &mut self.classes[i];
        c.delivered += 1;
        if within {
            c.within_deadline += 1;
        }
        c.latency.record(latency);
        self.latency.record(latency);
        self.interval.record(latency);
    }

    /// Records a packet abandoned after exhausting its retry budget.
    pub fn abandoned(&mut self, _cycle: u64, src: usize, dst: usize) {
        self.totals.abandoned += 1;
        let i = self.class_index(src, dst);
        self.classes[i].abandoned += 1;
    }

    /// Records a retry being scheduled.
    pub fn retried(&mut self, _cycle: u64, src: usize, dst: usize) {
        self.totals.retries += 1;
        let i = self.class_index(src, dst);
        self.classes[i].retries += 1;
    }

    /// Records a destination CRC NACK.
    pub fn nacked(&mut self) {
        self.totals.nacks += 1;
    }

    /// Records `n` credit-stalled transfers committed this cycle.
    pub fn credit_stalled(&mut self, n: u64) {
        self.totals.credit_stalls += n;
    }

    /// Records a suppressed duplicate delivery.
    pub fn dup_suppressed(&mut self) {
        self.totals.dups_suppressed += 1;
    }

    /// Records a fault-schedule application.
    pub fn fault_applied(&mut self) {
        self.totals.faults += 1;
    }

    /// Records a certified healed-table install (an anomaly the
    /// flight recorder keeps).
    pub fn heal_installed(&mut self, cycle: u64, epoch: usize) {
        self.totals.heal_installs += 1;
        self.anomalies.push(Anomaly {
            cycle,
            kind: AnomalyKind::HealInstall,
            detail: format!("routing epoch {epoch} installed"),
        });
    }

    /// Records the deadlock verdict.
    pub fn deadlock(&mut self, cycle: u64, detail: String) {
        self.totals.deadlock_cycle = Some(cycle);
        self.anomalies.push(Anomaly {
            cycle,
            kind: AnomalyKind::Deadlock,
            detail,
        });
    }

    /// Sums per-channel busy counts into per-channel-class totals.
    fn busy_by_class(&self, busy: &[u64]) -> Vec<u64> {
        let mut by_class = vec![0u64; self.class_labels.len()];
        for (i, &b) in busy.iter().enumerate() {
            by_class[self.chan_class[i] as usize] += b;
        }
        by_class
    }

    /// Whether `cycle` is a sampling boundary.
    pub fn due(&self, cycle: u64) -> bool {
        cycle > 0 && cycle.is_multiple_of(self.cfg.sample_every)
    }

    /// Takes one sample at the end of `cycle`: rolls the interval
    /// histogram into the sliding window, reads the window quantiles,
    /// snapshots every counter and gauge, and checks each traffic
    /// class against the SLO target (first breach per class is
    /// recorded as an anomaly).
    pub fn sample(&mut self, cycle: u64, in_flight: u64, routing_epoch: u64, busy: &[u64]) {
        if self.window.len() == self.cfg.window {
            self.window.pop_front();
        }
        self.window.push_back(std::mem::take(&mut self.interval));
        let mut merged = LatencyHistogram::new();
        for s in &self.window {
            merged.merge(s);
        }
        let busy_by_class = self.busy_by_class(busy);
        self.samples.push(MetricsSample {
            cycle,
            generated: self.totals.generated,
            delivered: self.totals.delivered,
            abandoned: self.totals.abandoned,
            retries: self.totals.retries,
            nacks: self.totals.nacks,
            dups_suppressed: self.totals.dups_suppressed,
            in_flight,
            routing_epoch,
            window_count: merged.count(),
            window_p50: merged.p50(),
            window_p95: merged.p95(),
            window_p99: merged.p99(),
            window_max: merged.max(),
            busy_by_class,
        });
        for (i, c) in self.classes.iter().enumerate() {
            if c.delivered > 0 && c.slo_ratio() < SLO_TARGET && !self.breached[i] {
                self.breached[i] = true;
                self.anomalies.push(Anomaly {
                    cycle,
                    kind: AnomalyKind::SloBreach {
                        src_group: c.src_group,
                        dst_group: c.dst_group,
                    },
                    detail: format!(
                        "class {}->{}: {}/{} within {} cycles ({:.4} < {:.4})",
                        c.src_group,
                        c.dst_group,
                        c.within_deadline,
                        c.delivered,
                        self.cfg.deadline,
                        c.slo_ratio(),
                        SLO_TARGET
                    ),
                });
            }
        }
    }

    /// Consumes the recorder into a report. `cycles` is the number of
    /// cycles simulated; `in_flight`, `routing_epoch` and `busy` are
    /// the engine's live gauges and authoritative per-channel busy
    /// counts at the end of the run.
    pub fn finish(
        mut self,
        cycles: u64,
        in_flight: u64,
        routing_epoch: u64,
        busy: &[u64],
    ) -> MetricsReport {
        // A final implicit sample so short runs and trailing partial
        // intervals are never lost from the time series.
        if self.samples.last().map(|s| s.cycle) != Some(cycles) {
            self.sample(cycles, in_flight, routing_epoch, busy);
        }
        let busy_by_class = self.busy_by_class(busy);
        let classes = self
            .classes
            .into_iter()
            .filter(|c| c.generated > 0 || c.delivered > 0)
            .collect();
        MetricsReport {
            topology: self.cfg.topology,
            cycles,
            sample_every: self.cfg.sample_every,
            window: self.cfg.window,
            groups: self.cfg.groups,
            deadline: self.cfg.deadline,
            max_retries: self.max_retries,
            totals: self.totals,
            classes,
            class_labels: self.class_labels,
            busy_by_class,
            latency: self.latency,
            samples: self.samples,
            anomalies: self.anomalies,
            injections: self.injections,
        }
    }
}

/// Everything a metrics-recording run observed, attached to the sim
/// result.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Topology label (empty when the caller didn't set one).
    pub topology: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Cycles between samples.
    pub sample_every: u64,
    /// Sliding-window length in sample intervals.
    pub window: usize,
    /// Traffic-class groups per axis.
    pub groups: usize,
    /// SLO delivery deadline in cycles.
    pub deadline: u64,
    /// Retry budget per packet the burn ratios are relative to.
    pub max_retries: u32,
    /// Whole-run totals.
    pub totals: MetricsTotals,
    /// Non-empty traffic classes, `(src_group, dst_group)` ordered.
    pub classes: Vec<ClassStats>,
    /// Channel-class labels (index = class id in `busy_by_class`).
    pub class_labels: Vec<String>,
    /// Final cumulative busy cycles per channel class.
    pub busy_by_class: Vec<u64>,
    /// Whole-run latency histogram.
    pub latency: LatencyHistogram,
    /// The exported time series, one sample per boundary (plus a
    /// final sample at run end).
    pub samples: Vec<MetricsSample>,
    /// Flight-recorder anomalies, in observation order.
    pub anomalies: Vec<Anomaly>,
    /// The replayable injection schedule: every generated packet as
    /// `(cycle, src, dst)`.
    pub injections: Vec<(u64, u32, u32)>,
}

impl MetricsReport {
    /// Overall delivered-within-deadline ratio.
    pub fn slo_ratio(&self) -> f64 {
        slo_ratio(self.totals.within_deadline, self.totals.delivered)
    }

    /// Overall retry-budget burn.
    pub fn retry_budget_burn(&self) -> f64 {
        retry_budget_burn(self.totals.retries, self.totals.generated, self.max_retries)
    }

    /// Whether the flight recorder saw anything worth dumping.
    pub fn has_anomalies(&self) -> bool {
        !self.anomalies.is_empty()
    }

    /// The samples inside the flight-recorder window: the last
    /// `window` entries of the time series.
    pub fn flight_window(&self) -> &[MetricsSample] {
        let n = self.samples.len();
        &self.samples[n.saturating_sub(self.window)..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(groups: usize, ends: usize) -> MetricsRecorder {
        MetricsRecorder::new(
            MetricsConfig::sampling(10)
                .with_groups(groups)
                .with_deadline(100)
                .with_window(2),
            vec![0, 0, 1, 1],
            vec!["attach".into(), "local".into()],
            ends,
            6,
        )
    }

    #[test]
    fn off_makes_no_recorder_config() {
        let c = MetricsConfig::default();
        assert!(!c.is_on());
        assert_eq!(c, MetricsConfig::off());
        assert!(MetricsConfig::sampling(0).sample_every() == 1);
    }

    #[test]
    fn classes_partition_addresses() {
        let r = recorder(4, 64);
        assert_eq!(r.group_of(0), 0);
        assert_eq!(r.group_of(15), 0);
        assert_eq!(r.group_of(16), 1);
        assert_eq!(r.group_of(63), 3);
        // Degenerate fabrics never index out of range.
        let tiny = recorder(4, 2);
        assert_eq!(tiny.group_of(1), 2);
        assert_eq!(tiny.group_of(0), 0);
    }

    #[test]
    fn slo_accounting_tracks_deadline() {
        let mut r = recorder(2, 8);
        r.generated(0, 0, 7);
        r.generated(0, 1, 7);
        r.delivered(50, 0, 7, 50);
        r.delivered(200, 1, 7, 200);
        r.retried(5, 0, 7);
        let rep = r.finish(200, 1, 2, &[3, 4, 5, 6]);
        assert_eq!(rep.totals.delivered, 2);
        assert_eq!(rep.totals.within_deadline, 1);
        assert_eq!(rep.slo_ratio(), 0.5);
        let c = &rep.classes[0];
        assert_eq!((c.src_group, c.dst_group), (0, 1));
        assert_eq!(c.generated, 2);
        assert_eq!(c.within_deadline, 1);
        assert!((c.retry_budget_burn(6) - 1.0 / 12.0).abs() < 1e-12);
        assert_eq!(rep.busy_by_class, vec![7, 11]);
        // The final implicit sample closes the series with the live
        // gauges the engine passed in.
        let last = rep.samples.last().unwrap();
        assert_eq!(
            (last.cycle, last.in_flight, last.routing_epoch),
            (200, 1, 2)
        );
        assert_eq!(rep.injections.len(), 2);
    }

    #[test]
    fn sliding_window_forgets_old_intervals() {
        let mut r = recorder(2, 8);
        r.delivered(1, 0, 7, 1_000);
        r.sample(10, 0, 0, &[0; 4]);
        assert_eq!(r.samples[0].window_max, 1_000);
        r.sample(20, 0, 0, &[0; 4]);
        // Window of 2 still holds the slow interval.
        assert_eq!(r.samples[1].window_max, 1_000);
        r.delivered(25, 0, 7, 3);
        r.sample(30, 0, 0, &[0; 4]);
        // The 1_000-cycle interval has rolled out.
        assert_eq!(r.samples[2].window_max, 3);
        assert_eq!(r.samples[2].window_count, 1);
    }

    #[test]
    fn slo_breach_is_flagged_once() {
        let mut r = recorder(2, 8);
        for i in 0..10 {
            r.generated(i, 0, 1);
            r.delivered(i + 500, 0, 1, 500); // all miss the 100 deadline
        }
        r.sample(10, 0, 0, &[0; 4]);
        r.sample(20, 0, 0, &[0; 4]);
        let rep = r.finish(20, 0, 0, &[0; 4]);
        let breaches: Vec<_> = rep
            .anomalies
            .iter()
            .filter(|a| matches!(a.kind, AnomalyKind::SloBreach { .. }))
            .collect();
        assert_eq!(breaches.len(), 1, "{:?}", rep.anomalies);
        assert_eq!(breaches[0].cycle, 10);
        assert!(rep.has_anomalies());
    }

    #[test]
    fn deadlock_and_heal_are_anomalies() {
        let mut r = recorder(2, 8);
        r.heal_installed(40, 1);
        r.deadlock(77, "4 channels stuck".into());
        let rep = r.finish(80, 4, 1, &[0; 4]);
        assert_eq!(rep.totals.heal_installs, 1);
        assert_eq!(rep.totals.deadlock_cycle, Some(77));
        assert_eq!(rep.anomalies.len(), 2);
        assert_eq!(rep.anomalies[0].kind.tag(), "heal_install");
        assert_eq!(rep.anomalies[1].kind.tag(), "deadlock");
    }

    #[test]
    fn due_respects_the_boundary() {
        let r = recorder(2, 8);
        assert!(!r.due(0));
        assert!(r.due(10));
        assert!(!r.due(11));
        assert!(r.due(20));
    }
}
