//! Metrics trace files: a JSONL record of one run — config echo,
//! fault timeline, injection schedule, periodic samples, final counts
//! — and the reconstruction that replays it through the engine.
//!
//! ## Why replay is exact
//!
//! The engine consumes its workload RNG stream *only* inside
//! `Workload::generate`; retry jitter and gray-failure dice come from
//! separate streams seeded independently. A scripted workload draws
//! nothing from the workload stream, so re-running the recorded
//! `(cycle, src, dst)` injection triples under the echoed config and
//! fault schedule reproduces the original dynamics cycle for cycle:
//! delivered/abandoned counts and every latency quantile must match
//! the recorded finals exactly, at every `--threads` width. (The
//! simulated cycle count may differ by the drain tail — a Bernoulli
//! workload only "finishes" at its horizon, a script when consumed —
//! so it is recorded but not asserted.)
//!
//! Line types, one JSON object per line:
//!
//! * `{"type":"meta", ...}` — topology spec and the full config echo.
//! * `{"type":"fault","fault":{...}}` — one scheduled fault, in the
//!   chaos scenario shape.
//! * `{"type":"inject","cycle":C,"src":S,"dst":D}` — one generated
//!   packet.
//! * `{"type":"sample", ...}` — one periodic metrics sample
//!   (informational; not needed for replay).
//! * `{"type":"final", ...}` — the recorded outcome replay checks
//!   against.

use crate::chaos::{fault_from_json, fault_to_json};
use crate::config::SimConfig;
use crate::fault::RetryPolicy;
use crate::jsonin::{get, get_num, get_str, json_parse};
use crate::stats::SimResult;
use crate::traffic::Workload;
use fractanet_graph::json::JsonObject;
use fractanet_telemetry::{MetricsConfig, MetricsReport};

/// The recorded outcome a replay must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceExpectation {
    /// Cycles the recorded run simulated (informational — the drain
    /// tail may differ under a scripted workload).
    pub cycles: u64,
    /// Packets generated.
    pub generated: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Packets abandoned to the failover layer.
    pub abandoned: u64,
    /// Whole-run latency quantiles (log2-bucket upper bounds) and the
    /// exact maximum.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum latency.
    pub max: u64,
}

/// A parsed trace file: everything needed to re-run the recorded
/// simulation and check it against the recorded outcome.
#[derive(Clone, Debug)]
pub struct RecordedTrace {
    /// Topology spec string (`ring:4`, `fat-fractahedron:2`, …) — the
    /// caller rebuilds the network/routes from it.
    pub spec: String,
    /// Reconstructed engine config: seed, retry policy, fault
    /// schedule, dedup/ack-retransmit flags, thread width, and the
    /// metrics configuration (metrics must be on for the replay so
    /// quantiles are recomputed the same way).
    pub cfg: SimConfig,
    /// Whether the recorded run had a healing repairer attached — the
    /// engine config cannot express this (repairers are closures), so
    /// the trace carries it and the caller re-attaches the same one.
    pub heal: bool,
    /// The recorded injection schedule.
    pub injections: Vec<(u64, usize, usize)>,
    /// The recorded outcome.
    pub expected: TraceExpectation,
}

impl RecordedTrace {
    /// The scripted workload reproducing the recorded injections.
    pub fn workload(&self) -> Workload {
        Workload::Scripted(self.injections.clone())
    }

    /// Checks a replay result against the recorded finals. Returns the
    /// list of mismatches (empty = exact reproduction).
    pub fn check(&self, result: &SimResult) -> Vec<String> {
        let mut bad = Vec::new();
        let mut want = |name: &str, got: u64, exp: u64| {
            if got != exp {
                bad.push(format!("{name}: replay {got} != recorded {exp}"));
            }
        };
        want(
            "generated",
            result.generated as u64,
            self.expected.generated,
        );
        want(
            "delivered",
            result.delivered as u64,
            self.expected.delivered,
        );
        want(
            "abandoned",
            result.recovery.abandoned.len() as u64,
            self.expected.abandoned,
        );
        match &result.metrics {
            Some(m) => {
                want("p50", m.latency.p50(), self.expected.p50);
                want("p95", m.latency.p95(), self.expected.p95);
                want("p99", m.latency.p99(), self.expected.p99);
                want("max", m.latency.max(), self.expected.max);
            }
            None => bad.push("replay ran without metrics; quantiles unchecked".to_string()),
        }
        bad
    }
}

fn flag(on: bool) -> u64 {
    u64::from(on)
}

/// Serializes a finished run as a JSONL trace. `spec` is the topology
/// spec string replay rebuilds the network from; `heal` records
/// whether a healing repairer was attached (replay must re-attach the
/// same one); `cfg` is the config the run used; `report` is the run's
/// metrics report (the trace format rides on the injection log metrics
/// keep).
pub fn write_trace(spec: &str, heal: bool, cfg: &SimConfig, report: &MetricsReport) -> String {
    let mut out = String::new();
    out.push_str(
        &JsonObject::new()
            .field_str("type", "meta")
            .field_str("spec", spec)
            .field_str("topology", &report.topology)
            .field_num("seed", cfg.seed)
            .field_num("buffer_depth", cfg.buffer_depth as u64)
            .field_num("credit_delay", cfg.credit_delay)
            .field_num("packet_flits", cfg.packet_flits as u64)
            .field_num("max_cycles", cfg.max_cycles)
            .field_num("stall_threshold", cfg.stall_threshold)
            .field_num("warmup_cycles", cfg.warmup_cycles)
            .field_num("ack_timeout", cfg.retry.ack_timeout)
            .field_num("max_retries", cfg.retry.max_retries as u64)
            .field_num("backoff_base", cfg.retry.backoff_base)
            .field_num("jitter_seed", cfg.retry.jitter_seed)
            .field_num("ack_retransmit", flag(cfg.ack_retransmit))
            .field_num("dedup", flag(cfg.dedup))
            .field_num("heal", flag(heal))
            .field_num("threads", cfg.threads as u64)
            .field_num("sample_every", report.sample_every)
            .field_num("window", report.window)
            .field_num("groups", report.groups)
            .field_num("deadline", report.deadline)
            .build(),
    );
    out.push('\n');
    for f in &cfg.faults {
        out.push_str(
            &JsonObject::new()
                .field_str("type", "fault")
                .field_raw("fault", &fault_to_json(f).build())
                .build(),
        );
        out.push('\n');
    }
    for &(cycle, src, dst) in &report.injections {
        out.push_str(
            &JsonObject::new()
                .field_str("type", "inject")
                .field_num("cycle", cycle)
                .field_num("src", src as u64)
                .field_num("dst", dst as u64)
                .build(),
        );
        out.push('\n');
    }
    for s in &report.samples {
        out.push_str(
            &JsonObject::new()
                .field_str("type", "sample")
                .field_num("cycle", s.cycle)
                .field_num("delivered", s.delivered)
                .field_num("in_flight", s.in_flight)
                .field_num("epoch", s.routing_epoch)
                .field_num("window_p50", s.window_p50)
                .field_num("window_p99", s.window_p99)
                .build(),
        );
        out.push('\n');
    }
    out.push_str(
        &JsonObject::new()
            .field_str("type", "final")
            .field_num("cycles", report.cycles)
            .field_num("generated", report.totals.generated)
            .field_num("delivered", report.totals.delivered)
            .field_num("abandoned", report.totals.abandoned)
            .field_num("p50", report.latency.p50())
            .field_num("p95", report.latency.p95())
            .field_num("p99", report.latency.p99())
            .field_num("max", report.latency.max())
            .build(),
    );
    out.push('\n');
    out
}

/// Parses the JSONL format [`write_trace`] writes.
pub fn parse_trace(text: &str) -> Result<RecordedTrace, String> {
    let mut spec = None;
    let mut cfg = SimConfig::default();
    let mut heal = false;
    let mut injections: Vec<(u64, usize, usize)> = Vec::new();
    let mut expected = None;
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json_parse(line).map_err(|e| format!("line {}: {e}", no + 1))?;
        let obj = v
            .as_obj()
            .ok_or_else(|| format!("line {}: not an object", no + 1))?;
        let at = |e: String| format!("line {}: {e}", no + 1);
        match get_str(obj, "type").map_err(at)?.as_str() {
            "meta" => {
                spec = Some(get_str(obj, "spec").map_err(at)?);
                cfg = SimConfig {
                    buffer_depth: get_num(obj, "buffer_depth").map_err(at)? as u32,
                    // Optional for traces recorded before credit flow
                    // control grew knobs: absent means the historical
                    // instant credits. The VC count is not read: the
                    // spec names the VC map replay installs.
                    credit_delay: get_num(obj, "credit_delay").unwrap_or(0),
                    packet_flits: get_num(obj, "packet_flits").map_err(at)? as u32,
                    max_cycles: get_num(obj, "max_cycles").map_err(at)?,
                    stall_threshold: get_num(obj, "stall_threshold").map_err(at)?,
                    warmup_cycles: get_num(obj, "warmup_cycles").map_err(at)?,
                    seed: get_num(obj, "seed").map_err(at)?,
                    faults: std::mem::take(&mut cfg.faults),
                    retry: RetryPolicy {
                        ack_timeout: get_num(obj, "ack_timeout").map_err(at)?,
                        max_retries: get_num(obj, "max_retries").map_err(at)? as u32,
                        backoff_base: get_num(obj, "backoff_base").map_err(at)?,
                        jitter_seed: get_num(obj, "jitter_seed").map_err(at)?,
                    },
                    telemetry: cfg.telemetry,
                    metrics: MetricsConfig::sampling(get_num(obj, "sample_every").map_err(at)?)
                        .with_window(get_num(obj, "window").map_err(at)? as usize)
                        .with_groups(get_num(obj, "groups").map_err(at)? as usize)
                        .with_deadline(get_num(obj, "deadline").map_err(at)?)
                        .with_topology(&get_str(obj, "topology").map_err(at)?),
                    ack_retransmit: get_num(obj, "ack_retransmit").map_err(&at)? != 0,
                    dedup: get_num(obj, "dedup").map_err(&at)? != 0,
                    threads: get_num(obj, "threads").map_err(&at)?.max(1) as usize,
                };
                heal = get_num(obj, "heal").map_err(at)? != 0;
            }
            "fault" => {
                let fo = get(obj, "fault")
                    .map_err(&at)?
                    .as_obj()
                    .ok_or_else(|| at("fault must be an object".into()))?;
                cfg.faults.push(fault_from_json(fo).map_err(at)?);
            }
            "inject" => injections.push((
                get_num(obj, "cycle").map_err(&at)?,
                get_num(obj, "src").map_err(&at)? as usize,
                get_num(obj, "dst").map_err(at)? as usize,
            )),
            "sample" => {}
            "final" => {
                expected = Some(TraceExpectation {
                    cycles: get_num(obj, "cycles").map_err(&at)?,
                    generated: get_num(obj, "generated").map_err(&at)?,
                    delivered: get_num(obj, "delivered").map_err(&at)?,
                    abandoned: get_num(obj, "abandoned").map_err(&at)?,
                    p50: get_num(obj, "p50").map_err(&at)?,
                    p95: get_num(obj, "p95").map_err(&at)?,
                    p99: get_num(obj, "p99").map_err(&at)?,
                    max: get_num(obj, "max").map_err(at)?,
                });
            }
            other => return Err(at(format!("unknown line type {other:?}"))),
        }
    }
    Ok(RecordedTrace {
        spec: spec.ok_or("trace has no meta line")?,
        cfg,
        heal,
        injections,
        expected: expected.ok_or("trace has no final line")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::fault::FaultEvent;
    use crate::traffic::DstPattern;
    use fractanet_graph::LinkId;
    use fractanet_route::ringroute::ring_clockwise_routes;
    use fractanet_route::Routes;
    use fractanet_topo::{Ring, Topology};
    use std::sync::Arc;

    fn ring4() -> (Ring, Arc<Routes>) {
        let r = Ring::new(4, 1, 6).unwrap();
        let rt = Arc::new(ring_clockwise_routes(&r));
        (r, rt)
    }

    fn record_cfg() -> SimConfig {
        SimConfig::default()
            .with_packet_flits(6)
            .with_max_cycles(4_000)
            .with_seed(0xDECAF)
            .with_fault(FaultEvent::kill_link(LinkId(2), 150).transient(600))
            .with_metrics(
                MetricsConfig::sampling(100)
                    .with_window(4)
                    .with_topology("ring:4"),
            )
    }

    fn bernoulli() -> Workload {
        Workload::Bernoulli {
            injection_rate: 0.3,
            pattern: DstPattern::Uniform,
            until_cycle: 1_500,
        }
    }

    #[test]
    fn trace_round_trips_and_replays_exactly() {
        let (r, rt) = ring4();
        let cfg = record_cfg();
        let recorded =
            Engine::new(r.net(), r.end_nodes(), rt.clone(), cfg.clone()).run(bernoulli());
        let report = recorded.metrics.as_ref().expect("metrics on");
        assert!(report.totals.generated > 0);

        let text = write_trace("ring:4", false, &cfg, report);
        let trace = parse_trace(&text).expect("parse");
        assert_eq!(trace.spec, "ring:4");
        assert!(!trace.heal);
        assert_eq!(trace.cfg.seed, cfg.seed);
        assert_eq!(trace.cfg.faults, cfg.faults);
        assert_eq!(trace.injections.len(), report.totals.generated as usize);
        assert_eq!(trace.expected.delivered, recorded.delivered as u64);

        // Replay through a fresh engine: scripted injections, echoed
        // config — the recorded outcome must reproduce exactly.
        let replayed = Engine::new(r.net(), r.end_nodes(), rt.clone(), trace.cfg.clone())
            .run(trace.workload());
        let bad = trace.check(&replayed);
        assert!(bad.is_empty(), "replay mismatches: {bad:?}");

        // And the replay's own trace re-serializes the same finals.
        let report2 = replayed.metrics.as_ref().unwrap();
        assert_eq!(report2.latency, report.latency);
    }

    #[test]
    fn replay_is_threads_invariant() {
        let (r, rt) = ring4();
        let cfg = record_cfg();
        let recorded =
            Engine::new(r.net(), r.end_nodes(), rt.clone(), cfg.clone()).run(bernoulli());
        let text = write_trace("ring:4", false, &cfg, recorded.metrics.as_ref().unwrap());
        let trace = parse_trace(&text).unwrap();
        for threads in [1, 2, 4] {
            let cfg = trace.cfg.clone().with_threads(threads);
            let replayed =
                Engine::new(r.net(), r.end_nodes(), rt.clone(), cfg).run(trace.workload());
            let bad = trace.check(&replayed);
            assert!(bad.is_empty(), "threads={threads}: {bad:?}");
        }
    }

    #[test]
    fn check_reports_mismatches() {
        let (r, rt) = ring4();
        let cfg = record_cfg();
        let recorded =
            Engine::new(r.net(), r.end_nodes(), rt.clone(), cfg.clone()).run(bernoulli());
        let text = write_trace("ring:4", true, &cfg, recorded.metrics.as_ref().unwrap());
        let mut trace = parse_trace(&text).unwrap();
        assert!(trace.heal);
        trace.expected.delivered += 1;
        let replayed = Engine::new(r.net(), r.end_nodes(), rt.clone(), trace.cfg.clone())
            .run(trace.workload());
        assert!(!trace.check(&replayed).is_empty());
    }

    #[test]
    fn parse_accepts_traces_that_echo_a_vc_count() {
        // Older traces carried a "vcs" meta key; the spec already names
        // the VC map, so the key is ignored and nothing else shifts.
        let (r, rt) = ring4();
        let cfg = record_cfg();
        let recorded = Engine::new(r.net(), r.end_nodes(), rt, cfg.clone()).run(bernoulli());
        let text = write_trace("ring:4", false, &cfg, recorded.metrics.as_ref().unwrap());
        assert!(!text.contains("\"vcs\""));
        let old = text.replacen("\"credit_delay\":0,", "\"credit_delay\":0,\"vcs\":2,", 1);
        assert_ne!(old, text);
        let (new, old) = (parse_trace(&text).unwrap(), parse_trace(&old).unwrap());
        assert_eq!(format!("{:?}", new.cfg), format!("{:?}", old.cfg));
        assert_eq!(new.injections, old.injections);
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(parse_trace("").is_err());
        assert!(parse_trace("{\"type\":\"meta\"}").is_err());
        assert!(parse_trace("{\"type\":\"warp\"}").is_err());
        assert!(parse_trace("not json\n").is_err());
    }
}
