//! Prometheus text exposition format for a [`MetricsReport`].
//!
//! Renders the version-0.0.4 text format a Prometheus server scrapes:
//! `# HELP` / `# TYPE` headers followed by sample lines, one metric
//! family at a time, label values escaped per the exposition rules.
//! The CI `metrics-smoke` job validates the output against a strict
//! line grammar, so treat the shape here as a public contract.

use crate::metrics::{MetricsReport, MetricsSample};

/// Escapes a label value per the exposition format (`\\`, `\"`, `\n`).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a float the exposition format accepts (integral values
/// print without an exponent; NaN/inf cannot occur in our ratios).
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v.trunc() as i64)
    } else {
        format!("{v}")
    }
}

struct Writer {
    out: String,
    topo: String,
}

impl Writer {
    fn family(&mut self, name: &str, kind: &str, help: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// One sample line; `labels` are extra `key="value"` pairs beyond
    /// the standing topology label.
    fn line(&mut self, name: &str, labels: &[(&str, String)], value: String) {
        let mut all: Vec<String> = Vec::new();
        if !self.topo.is_empty() {
            all.push(format!("topology=\"{}\"", escape_label(&self.topo)));
        }
        for (k, v) in labels {
            all.push(format!("{k}=\"{}\"", escape_label(v)));
        }
        if all.is_empty() {
            self.out.push_str(&format!("{name} {value}\n"));
        } else {
            self.out
                .push_str(&format!("{name}{{{}}} {value}\n", all.join(",")));
        }
    }

    fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.family(name, "counter", help);
        self.line(name, &[], value.to_string());
    }

    fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.family(name, "gauge", help);
        self.line(name, &[], num(value));
    }
}

/// Renders `report` as Prometheus text exposition format. The scrape
/// reflects the end-of-run registry state: whole-run counters, the
/// final gauges, the run latency summary, the last sliding-window
/// quantiles, per-channel-class busy counters, and the per-traffic-
/// class SLO surface.
pub fn to_prometheus(report: &MetricsReport) -> String {
    let mut w = Writer {
        out: String::new(),
        topo: report.topology.clone(),
    };

    w.counter(
        "fractanet_generated_total",
        "Packets generated.",
        report.totals.generated,
    );
    w.counter(
        "fractanet_delivered_total",
        "Packets delivered (first copy).",
        report.totals.delivered,
    );
    w.counter(
        "fractanet_delivered_within_deadline_total",
        "Deliveries within the SLO deadline.",
        report.totals.within_deadline,
    );
    w.counter(
        "fractanet_abandoned_total",
        "Packets abandoned after exhausting retries.",
        report.totals.abandoned,
    );
    w.counter(
        "fractanet_retries_total",
        "Retries scheduled.",
        report.totals.retries,
    );
    w.counter(
        "fractanet_nacks_total",
        "Destination CRC NACKs.",
        report.totals.nacks,
    );
    w.counter(
        "fractanet_dups_suppressed_total",
        "Duplicate deliveries suppressed.",
        report.totals.dups_suppressed,
    );
    w.counter(
        "fractanet_faults_total",
        "Fault-schedule events applied.",
        report.totals.faults,
    );
    w.counter(
        "fractanet_heal_installs_total",
        "Certified healed-table installs.",
        report.totals.heal_installs,
    );
    w.counter(
        "fractanet_credit_stalls_total",
        "Transfers stalled on exhausted downstream credits.",
        report.totals.credit_stalls,
    );
    w.counter("fractanet_cycles_total", "Cycles simulated.", report.cycles);
    w.counter(
        "fractanet_anomalies_total",
        "Flight-recorder anomalies observed.",
        report.anomalies.len() as u64,
    );
    w.gauge(
        "fractanet_deadlocked",
        "1 when the run reached a deadlock verdict.",
        if report.totals.deadlock_cycle.is_some() {
            1.0
        } else {
            0.0
        },
    );

    let last: Option<&MetricsSample> = report.samples.last();
    w.gauge(
        "fractanet_in_flight",
        "Packets in flight at the last sample.",
        last.map(|s| s.in_flight as f64).unwrap_or(0.0),
    );
    w.gauge(
        "fractanet_routing_epoch",
        "Live routing epoch at the last sample.",
        last.map(|s| s.routing_epoch as f64).unwrap_or(0.0),
    );

    // Whole-run latency summary (bucket-quantile read-out).
    w.family(
        "fractanet_latency_cycles",
        "summary",
        "End-to-end delivery latency over the whole run.",
    );
    for (q, v) in [
        (0.5, report.latency.p50()),
        (0.95, report.latency.p95()),
        (0.99, report.latency.p99()),
    ] {
        w.line(
            "fractanet_latency_cycles",
            &[("quantile", num(q))],
            v.to_string(),
        );
    }
    w.line(
        "fractanet_latency_cycles_sum",
        &[],
        report.latency.sum().to_string(),
    );
    w.line(
        "fractanet_latency_cycles_count",
        &[],
        report.latency.count().to_string(),
    );
    w.gauge(
        "fractanet_latency_cycles_max",
        "Exact maximum end-to-end latency.",
        report.latency.max() as f64,
    );

    // Sliding-window quantiles from the last sample.
    w.family(
        "fractanet_window_latency_cycles",
        "gauge",
        "Sliding-window delivery latency at the last sample.",
    );
    if let Some(s) = last {
        for (q, v) in [
            (0.5, s.window_p50),
            (0.95, s.window_p95),
            (0.99, s.window_p99),
        ] {
            w.line(
                "fractanet_window_latency_cycles",
                &[("quantile", num(q))],
                v.to_string(),
            );
        }
    }

    // Per-channel-class busy counters.
    w.family(
        "fractanet_channel_busy_cycles_total",
        "counter",
        "Busy cycles summed over the channels of each link class.",
    );
    for (label, busy) in report.class_labels.iter().zip(&report.busy_by_class) {
        w.line(
            "fractanet_channel_busy_cycles_total",
            &[("class", label.clone())],
            busy.to_string(),
        );
    }

    // Traffic-class SLO surface.
    w.family(
        "fractanet_class_generated_total",
        "counter",
        "Packets generated per traffic class.",
    );
    for c in &report.classes {
        w.line(
            "fractanet_class_generated_total",
            &class_labels(c.src_group, c.dst_group),
            c.generated.to_string(),
        );
    }
    w.family(
        "fractanet_class_delivered_total",
        "counter",
        "Packets delivered per traffic class.",
    );
    for c in &report.classes {
        w.line(
            "fractanet_class_delivered_total",
            &class_labels(c.src_group, c.dst_group),
            c.delivered.to_string(),
        );
    }
    w.family(
        "fractanet_slo_within_deadline_ratio",
        "gauge",
        "Delivered-within-deadline ratio per traffic class.",
    );
    for c in &report.classes {
        w.line(
            "fractanet_slo_within_deadline_ratio",
            &class_labels(c.src_group, c.dst_group),
            num(c.slo_ratio()),
        );
    }
    w.family(
        "fractanet_retry_budget_burn",
        "gauge",
        "Fraction of the per-class retry budget consumed.",
    );
    for c in &report.classes {
        w.line(
            "fractanet_retry_budget_burn",
            &class_labels(c.src_group, c.dst_group),
            num(c.retry_budget_burn(report.max_retries)),
        );
    }
    w.family(
        "fractanet_class_latency_p99_cycles",
        "gauge",
        "Per-traffic-class p99 latency (bucket upper bound).",
    );
    for c in &report.classes {
        w.line(
            "fractanet_class_latency_p99_cycles",
            &class_labels(c.src_group, c.dst_group),
            c.latency.p99().to_string(),
        );
    }

    w.out
}

fn class_labels(sg: usize, dg: usize) -> [(&'static str, String); 2] {
    [("src_group", sg.to_string()), ("dst_group", dg.to_string())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsConfig;
    use fractanet_graph::{LinkClass, Network};

    fn sample_report(topology: &str) -> MetricsReport {
        let mut net = Network::new();
        let r0 = net.add_router("r0", 6);
        let r1 = net.add_router("r1", 6);
        let n0 = net.add_end_node("n0");
        let n1 = net.add_end_node("n1");
        net.connect_any(r0, r1, LinkClass::Local).unwrap();
        net.connect_any(n0, r0, LinkClass::Attach).unwrap();
        net.connect_any(n1, r1, LinkClass::Attach).unwrap();
        let mut rec = MetricsConfig::sampling(10)
            .with_groups(2)
            .with_deadline(50)
            .with_topology(topology)
            .recorder(&net, 2, 6)
            .expect("metrics on");
        rec.generated(0, 0, 1);
        rec.generated(1, 1, 0);
        rec.delivered(20, 0, 1, 20);
        rec.delivered(90, 1, 0, 89);
        rec.retried(5, 1, 0);
        rec.sample(10, 1, 0, &[2; 6]);
        rec.finish(30, 0, 0, &[4; 6])
    }

    #[test]
    fn exposition_has_help_type_and_samples() {
        let out = to_prometheus(&sample_report("mesh:2x1"));
        for family in [
            "fractanet_generated_total",
            "fractanet_delivered_total",
            "fractanet_latency_cycles",
            "fractanet_window_latency_cycles",
            "fractanet_channel_busy_cycles_total",
            "fractanet_slo_within_deadline_ratio",
            "fractanet_retry_budget_burn",
        ] {
            assert!(
                out.contains(&format!("# HELP {family} ")),
                "missing HELP for {family}\n{out}"
            );
            assert!(
                out.contains(&format!("# TYPE {family} ")),
                "missing TYPE for {family}"
            );
        }
        assert!(out.contains("fractanet_generated_total{topology=\"mesh:2x1\"} 2"));
        assert!(out.contains("quantile=\"0.5\""));
        assert!(out.contains("fractanet_latency_cycles_count{topology=\"mesh:2x1\"} 2"));
        assert!(out.contains("class=\"local\""));
        assert!(out.contains("class=\"attach\""));
        assert!(out.contains("src_group=\"0\",dst_group=\"1\""));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in out.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (head, value) = line.rsplit_once(' ').expect(line);
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            let name = head.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
        }
    }

    #[test]
    fn empty_topology_omits_the_label() {
        let out = to_prometheus(&sample_report(""));
        assert!(out.contains("\nfractanet_cycles_total 30\n"), "{out}");
        assert!(!out.contains("topology="));
    }

    #[test]
    fn label_escaping_is_applied() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(num(0.5), "0.5");
        assert_eq!(num(1.0), "1");
    }
}
