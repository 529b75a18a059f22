//! Trace exporters: JSONL for scripting, Chrome `trace_event` JSON for
//! `chrome://tracing` / Perfetto, and a plain-text summary for humans.
//!
//! The event-ring exporters render from a finished [`TelemetryReport`];
//! the flight recorder's incident bundle renders from a
//! [`MetricsReport`]. Both Chrome renderings go through one private
//! writer, the only code that knows the `trace_event` envelope and
//! record shapes. Everything shares the workspace JSON writer
//! (`fractanet_graph::json`) with the linter's `--json` output. Cycle
//! stamps are exported as-is: in the Chrome view one microsecond of
//! trace time equals one simulated cycle.

use fractanet_graph::json::{JsonArray, JsonObject};

use crate::event::{Span, TraceEvent};
use crate::metrics::{Anomaly, MetricsReport};
use crate::recorder::TelemetryReport;
use crate::sketch::LatencyHistogram;

fn event_obj(ev: &TraceEvent) -> JsonObject {
    let o = JsonObject::new()
        .field_str("type", "event")
        .field_str("kind", ev.kind())
        .field_num("cycle", ev.cycle())
        .field_num("worm", ev.worm());
    match *ev {
        TraceEvent::PacketInjected { src, dst, len, .. } => o
            .field_num("src", src)
            .field_num("dst", dst)
            .field_num("len", len),
        TraceEvent::HeadAdvanced { channel, .. } | TraceEvent::Blocked { channel, .. } => {
            o.field_num("channel", channel.0)
        }
        TraceEvent::VcAllocated { channel, vc, .. } => {
            o.field_num("channel", channel.0).field_num("vc", vc)
        }
        TraceEvent::WormTruncated { drained, .. } => o.field_bool("drained", drained),
        TraceEvent::Retried {
            attempt, release, ..
        } => o
            .field_num("attempt", attempt)
            .field_num("release", release),
        TraceEvent::Abandoned { src, dst, .. } | TraceEvent::Nacked { src, dst, .. } => {
            o.field_num("src", src).field_num("dst", dst)
        }
        TraceEvent::Delivered { latency, .. } => o.field_num("latency", latency),
        TraceEvent::Corrupted { channel, .. } => o.field_num("channel", channel.0),
        TraceEvent::DupSuppressed { original, .. } => o.field_num("original", original),
    }
}

fn span_obj(s: &Span) -> JsonObject {
    JsonObject::new()
        .field_str("type", "span")
        .field_str("kind", s.kind.tag())
        .field_num("begin", s.begin)
        .field_num("end", s.end)
        .field_num("duration", s.duration())
}

/// One JSON object per line: a `meta` header, then every span, then
/// every stored event in arrival order.
pub fn to_jsonl(report: &TelemetryReport) -> String {
    let mut out = String::new();
    out.push_str(
        &JsonObject::new()
            .field_str("type", "meta")
            .field_num("cycles", report.cycles)
            .field_num("events_seen", report.events_seen)
            .field_num("events_stored", report.events.len())
            .field_num("events_dropped", report.events_dropped)
            .field_num("channels", report.channels.len())
            .build(),
    );
    out.push('\n');
    for s in &report.spans {
        out.push_str(&span_obj(s).build());
        out.push('\n');
    }
    for ev in &report.events {
        out.push_str(&event_obj(ev).build());
        out.push('\n');
    }
    out
}

/// How one Chrome `trace_event` record is drawn.
enum Phase {
    /// A complete event (`"ph":"X"`) on thread 0 lasting `dur` cycles.
    Complete { dur: u64 },
    /// An instant (`"ph":"i"`) on thread `tid`, scoped to the thread
    /// (`"t"`), the process (`"p"`) or the whole trace (`"g"`).
    Instant { tid: u64, scope: &'static str },
    /// A counter sample (`"ph":"C"`); counters carry no thread.
    Counter,
}

/// The one Chrome `trace_event` writer: every record sits in process
/// 0, and [`ChromeTrace::finish`] wraps them in the
/// `{"traceEvents":[…]}` object form.
struct ChromeTrace {
    events: JsonArray,
}

impl ChromeTrace {
    fn new() -> Self {
        ChromeTrace {
            events: JsonArray::new(),
        }
    }

    fn record(&mut self, name: &str, ts: u64, phase: Phase, args: Option<JsonObject>) {
        let o = JsonObject::new().field_str("name", name);
        let mut o = match phase {
            Phase::Complete { dur } => o
                .field_str("ph", "X")
                .field_num("ts", ts)
                .field_num("dur", dur)
                .field_num("pid", 0)
                .field_num("tid", 0),
            Phase::Instant { tid, scope } => o
                .field_str("ph", "i")
                .field_num("ts", ts)
                .field_num("pid", 0)
                .field_num("tid", tid)
                .field_str("s", scope),
            Phase::Counter => o
                .field_str("ph", "C")
                .field_num("ts", ts)
                .field_num("pid", 0),
        };
        if let Some(args) = args {
            o = o.field_raw("args", &args.build());
        }
        self.events.push_raw(&o.build());
    }

    fn finish(self) -> String {
        JsonObject::new()
            .field_raw("traceEvents", &self.events.build())
            .field_str("displayTimeUnit", "ms")
            .build()
    }
}

/// Chrome `trace_event` JSON of the event ring.
///
/// Spans with nonzero duration become complete events (`"ph":"X"`) —
/// every trace contains at least the whole-run `simulation` span —
/// zero-length spans and trace events become instants (`"ph":"i"`).
/// Each worm gets its own thread track. One trace microsecond equals
/// one simulated cycle.
pub fn to_chrome_trace(report: &TelemetryReport) -> String {
    let mut trace = ChromeTrace::new();
    for s in &report.spans {
        let phase = if s.duration() > 0 {
            Phase::Complete { dur: s.duration() }
        } else {
            Phase::Instant { tid: 0, scope: "p" }
        };
        trace.record(s.kind.tag(), s.begin, phase, None);
    }
    for ev in &report.events {
        let mut args = JsonObject::new().field_num("worm", ev.worm());
        if let Some(ch) = ev.channel() {
            args = args.field_num("channel", ch.0);
        }
        if let TraceEvent::Delivered { latency, .. } = ev {
            args = args.field_num("latency", *latency);
        }
        let tid = ev.worm() as u64 + 1;
        trace.record(
            ev.kind(),
            ev.cycle(),
            Phase::Instant { tid, scope: "t" },
            Some(args),
        );
    }
    trace.finish()
}

/// The flight recorder's incident bundle for `report`, with `extra`
/// anomalies appended (the chaos harness passes its invariant
/// violations here; pass `&[]` otherwise). Returns `None` when there
/// is nothing anomalous to dump.
///
/// The bundle holds one complete span covering the flight window, a
/// counter track per live gauge and windowed quantile, and a global
/// instant per anomaly.
pub fn incident_chrome_trace(report: &MetricsReport, extra: &[Anomaly]) -> Option<String> {
    if report.anomalies.is_empty() && extra.is_empty() {
        return None;
    }
    let window = report.flight_window();
    let begin = window.first().map(|s| s.cycle).unwrap_or(0);
    let end = window
        .last()
        .map(|s| s.cycle)
        .unwrap_or(report.cycles)
        .max(begin + 1);

    let mut trace = ChromeTrace::new();
    let meta = JsonObject::new()
        .field_str("topology", &report.topology)
        .field_num("sample_every", report.sample_every)
        .field_num("samples", window.len() as u64);
    trace.record(
        "flight_window",
        begin,
        Phase::Complete { dur: end - begin },
        Some(meta),
    );
    for s in window {
        for (name, value) in [
            ("in_flight", s.in_flight),
            ("delivered_total", s.delivered),
            ("retries_total", s.retries),
            ("window_p50", s.window_p50),
            ("window_p99", s.window_p99),
            ("routing_epoch", s.routing_epoch),
        ] {
            let args = JsonObject::new().field_num("value", value);
            trace.record(name, s.cycle, Phase::Counter, Some(args));
        }
    }
    for a in report.anomalies.iter().chain(extra) {
        let args = JsonObject::new().field_str("detail", &a.detail);
        trace.record(
            a.kind.tag(),
            a.cycle,
            Phase::Instant { tid: 0, scope: "g" },
            Some(args),
        );
    }
    Some(trace.finish())
}

fn hist_line(label: &str, h: &LatencyHistogram) -> String {
    if h.count() == 0 {
        format!("  {label}: (no samples)\n")
    } else {
        format!(
            "  {label}: n={} mean={:.1} p50={} p95={} p99={} max={}\n",
            h.count(),
            h.mean(),
            h.p50(),
            h.p95(),
            h.p99(),
            h.max()
        )
    }
}

/// Human-readable per-channel summary: event accounting, recovery
/// spans, latency percentiles split pre-/post-fault, the utilization
/// decile histogram, and the busiest channels.
pub fn to_text_summary(report: &TelemetryReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "telemetry: {} cycles, {} events seen ({} stored, {} dropped)\n",
        report.cycles,
        report.events_seen,
        report.events.len(),
        report.events_dropped
    ));

    out.push_str("spans:\n");
    for s in &report.spans {
        out.push_str(&format!(
            "  {:<16} [{:>8} .. {:>8}]  {} cycles\n",
            s.kind.tag(),
            s.begin,
            s.end,
            s.duration()
        ));
    }
    if let Some(t) = report.recovery_span_cycles() {
        out.push_str(&format!("  time_to_recover (repair + redelivery): {t}\n"));
    }

    out.push_str("latency (cycles):\n");
    out.push_str(&hist_line("pre-fault ", &report.pre_fault_latency));
    out.push_str(&hist_line("post-fault", &report.post_fault_latency));

    let bins = report.utilization_histogram();
    out.push_str("utilization histogram (channels per decile):\n  ");
    for (i, b) in bins.iter().enumerate() {
        out.push_str(&format!("{}0%:{b} ", i));
    }
    out.push('\n');

    let mut busiest: Vec<(usize, &crate::channels::ChannelSummary)> =
        report.channels.iter().enumerate().collect();
    busiest.sort_by(|a, b| b.1.busy_cycles.cmp(&a.1.busy_cycles).then(a.0.cmp(&b.0)));
    out.push_str("busiest channels (busy / fwd / blocked / depth / contention):\n");
    for (id, s) in busiest.iter().take(16) {
        if s.busy_cycles == 0 && s.flits_forwarded == 0 && s.blocked_cycles == 0 {
            break;
        }
        let util = if report.cycles == 0 {
            0.0
        } else {
            100.0 * s.busy_cycles as f64 / report.cycles as f64
        };
        out.push_str(&format!(
            "  c{:<5} {:>8} ({util:>5.1}%) {:>8} {:>8} {:>5} {:>5}\n",
            id,
            s.busy_cycles,
            s.flits_forwarded,
            s.blocked_cycles,
            s.peak_queue_depth,
            s.peak_contention
        ));
    }
    if let Some((ch, k)) = report.worst_contention() {
        out.push_str(&format!("worst link contention: {k}:1 on c{}\n", ch.0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{AnomalyKind, MetricsConfig};
    use crate::recorder::Recorder;
    use fractanet_graph::{LinkClass, Network};

    fn faulted_report() -> TelemetryReport {
        let mut r = Recorder::new(128, 4);
        r.packet_injected(0, 0, 0, 3, 8);
        r.delivered(9, 0, 9);
        r.fault_applied(10);
        r.worm_truncated(10, 1, false);
        r.retried(10, 1, 1, 14);
        r.repair_installed(12);
        r.delivered(25, 1, 25);
        r.recovered(25);
        r.flit_forwarded(fractanet_graph::ChannelId(0));
        r.finish(40, &[5, 0, 0, 0])
    }

    fn balanced(j: &str) {
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
        assert_eq!(j.matches('[').count(), j.matches(']').count(), "{j}");
    }

    #[test]
    fn jsonl_has_meta_spans_and_events() {
        let rep = faulted_report();
        let out = to_jsonl(&rep);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("{\"type\":\"meta\""));
        assert!(lines[0].contains("\"events_seen\":5"));
        // meta + spans + stored events, nothing else.
        assert_eq!(lines.len(), 1 + rep.spans.len() + rep.events.len(), "{out}");
        assert!(out.contains("\"kind\":\"table_repair\""));
        assert!(out.contains("\"kind\":\"retried\""));
        for l in &lines {
            balanced(l);
        }
    }

    #[test]
    fn gray_failure_events_export_everywhere() {
        let mut r = Recorder::new(32, 2);
        r.corrupted(5, 3, fractanet_graph::ChannelId(1));
        r.nacked(9, 3, 0, 2);
        r.dup_suppressed(14, 7, 3);
        let rep = r.finish(20, &[0, 0]);
        let jsonl = to_jsonl(&rep);
        assert!(jsonl.contains("\"kind\":\"corrupted\",\"cycle\":5,\"worm\":3,\"channel\":1"));
        assert!(jsonl.contains("\"kind\":\"nacked\",\"cycle\":9,\"worm\":3,\"src\":0,\"dst\":2"));
        assert!(
            jsonl.contains("\"kind\":\"dup_suppressed\",\"cycle\":14,\"worm\":7,\"original\":3")
        );
        for l in jsonl.lines() {
            balanced(l);
        }
        let chrome = to_chrome_trace(&rep);
        balanced(&chrome);
        assert!(chrome.contains("\"name\":\"corrupted\""));
        assert!(chrome.contains("\"name\":\"nacked\""));
        assert!(chrome.contains("\"name\":\"dup_suppressed\""));
    }

    #[test]
    fn chrome_trace_has_complete_span() {
        let out = to_chrome_trace(&faulted_report());
        balanced(&out);
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"name\":\"simulation\""));
        assert!(out.contains("\"name\":\"redelivery\""));
        // Instant fault marker.
        assert!(out.contains("\"name\":\"fault_injection\",\"ph\":\"i\""));
    }

    #[test]
    fn chrome_trace_without_faults_still_has_a_span() {
        let rep = Recorder::new(8, 1).finish(100, &[0]);
        let out = to_chrome_trace(&rep);
        balanced(&out);
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"dur\":100"));
    }

    #[test]
    fn text_summary_mentions_everything() {
        let out = to_text_summary(&faulted_report());
        assert!(out.contains("5 events seen"));
        assert!(out.contains("time_to_recover (repair + redelivery): 15"));
        assert!(out.contains("pre-fault"));
        assert!(out.contains("post-fault"));
        assert!(out.contains("utilization histogram"));
        assert!(out.contains("c0"));
    }

    fn metrics_report(with_anomaly: bool) -> MetricsReport {
        let mut net = Network::new();
        let r0 = net.add_router("r0", 6);
        let n0 = net.add_end_node("n0");
        let n1 = net.add_end_node("n1");
        net.connect_any(n0, r0, LinkClass::Attach).unwrap();
        net.connect_any(n1, r0, LinkClass::Attach).unwrap();
        let mut rec = MetricsConfig::sampling(10)
            .with_window(2)
            .recorder(&net, 2, 6)
            .unwrap();
        rec.generated(1, 0, 1);
        rec.delivered(8, 0, 1, 7);
        rec.sample(10, 3, 0, &[0; 4]);
        rec.sample(20, 1, 0, &[0; 4]);
        rec.sample(30, 0, 1, &[0; 4]);
        if with_anomaly {
            rec.deadlock(25, "stuck".into());
        }
        rec.finish(30, 0, 1, &[0; 4])
    }

    #[test]
    fn quiet_runs_dump_nothing() {
        assert!(incident_chrome_trace(&metrics_report(false), &[]).is_none());
    }

    #[test]
    fn anomalies_produce_a_valid_bundle() {
        let out = incident_chrome_trace(&metrics_report(true), &[]).expect("bundle");
        balanced(&out);
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"name\":\"flight_window\""));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.contains("\"name\":\"deadlock\""));
        // The window keeps only the last two samples.
        assert!(!out.contains("\"ts\":10,\"pid\":0,\"args\""));
    }

    #[test]
    fn extra_anomalies_force_a_dump() {
        let extra = vec![Anomaly {
            cycle: 5,
            kind: AnomalyKind::InvariantViolation,
            detail: "exactly_once: lost 1".into(),
        }];
        let out = incident_chrome_trace(&metrics_report(false), &extra).expect("bundle");
        assert!(out.contains("\"name\":\"invariant_violation\""));
        assert!(out.contains("exactly_once: lost 1"));
    }
}
