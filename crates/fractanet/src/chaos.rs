//! Deterministic chaos campaigns over a dual-fabric system.
//!
//! Each case samples a seeded fault schedule from the topology's
//! router-to-router links ([`fractanet_sim::sample_schedule`]), runs
//! the X fabric through it — self-healing, source retry, speculative
//! ACK-timeout retransmission and per-pair duplicate suppression all
//! on — fails abandoned transfers over to a pristine Y fabric, and
//! checks four end-to-end invariants:
//!
//! 1. **exactly_once** — every generated packet is delivered exactly
//!    once or explicitly handed to the failover layer, and the Y
//!    fabric finishes the job: total delivered equals total generated.
//! 2. **no_deadlock** — neither fabric reaches a wormhole-deadlock
//!    verdict.
//! 3. **heal_certifies** — when the schedule contains permanent
//!    faults, regenerating tables around the final dead set succeeds
//!    (certified deadlock-free by construction).
//! 4. **span_accounting** — telemetry recovery spans telescope to
//!    exactly `time_to_recover`.
//!
//! A violating case is delta-shrunk to a 1-minimal schedule by
//! re-running the same seeds on candidate subsets, then emitted as a
//! replayable JSON [`Scenario`] — `fractanet chaos --replay` runs it
//! bit-identically.

use crate::cli::RouterOpts;
use crate::spec::TopoSpec;
use crate::System;
use fractanet_graph::LinkId;
use fractanet_route::repair::DeadMask;
use fractanet_servernet::healing::heal_mask;
use fractanet_servernet::{run_with_failover, FailoverOutcome};
use fractanet_sim::{
    sample_schedule, shrink, write_trace, ChaosSpace, DstPattern, FaultEvent, FaultKind, Invariant,
    MetricsConfig, RetryPolicy, Scenario, SimConfig, Telemetry, Violation, Workload,
};
use fractanet_telemetry::{incident_chrome_trace, Anomaly, AnomalyKind};

/// Campaign shape: how many cases, from which seed, at which scale.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOptions {
    /// Number of sampled schedules to run.
    pub runs: usize,
    /// Base seed; case `i` derives its schedule and engine seeds from
    /// it, so the whole campaign is a pure function of `(spec, opts)`.
    pub seed: u64,
    /// Short cases for CI smoke (fewer cycles, lighter load).
    pub quick: bool,
    /// Per-pair duplicate suppression at the destination. `false`
    /// deliberately re-opens the timeout-race double-delivery bug so
    /// the shrinker has something to minimize.
    pub dedup: bool,
    /// Worker threads dispatching campaign cases. Each case is a pure
    /// function of `(spec, opts.seed, case index)`, so the report is
    /// identical at every width; shrinking stays sequential.
    pub threads: usize,
    /// FIFO-depth and credit-delay knobs for both fabrics
    /// (`--fifo-depth`, `--credit-delay`). Recorded in minted scenarios
    /// so replays reproduce bit-identically.
    pub router: RouterOpts,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            runs: 32,
            seed: 42,
            quick: false,
            dedup: true,
            threads: 1,
            router: RouterOpts::default(),
        }
    }
}

/// Outcome of one campaign.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Topology spec string the campaign ran against.
    pub spec: String,
    /// Cases executed.
    pub runs: usize,
    /// Cases with at least one invariant violation.
    pub violating_cases: usize,
    /// One line per violation: case, invariant, evidence.
    pub lines: Vec<String>,
    /// Shrunk, replayable counterexamples (first violation per case).
    pub scenarios: Vec<Scenario>,
}

impl ChaosReport {
    /// Whether every case held every invariant.
    pub fn is_clean(&self) -> bool {
        self.violating_cases == 0
    }

    /// Human-readable campaign summary.
    pub fn summary(&self) -> String {
        format!(
            "chaos: {} cases on {}, {} violation(s)",
            self.runs, self.spec, self.violating_cases
        )
    }
}

/// Case scale parameters, derived from `quick`.
struct Scale {
    cycles: u64,
    load: f64,
    max_events: usize,
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale {
            cycles: 2_500,
            load: 0.05,
            max_events: 4,
        }
    } else {
        Scale {
            cycles: 6_000,
            load: 0.08,
            max_events: 6,
        }
    }
}

/// The fault-eligible components of a system: router-to-router links
/// only (an end node hangs off a single cable, so breaking it proves
/// nothing about the fabric) and every router.
fn chaos_space(sys: &System, horizon: u64) -> ChaosSpace {
    let net = sys.net();
    let links: Vec<LinkId> = net
        .links()
        .filter(|&l| {
            let info = net.link(l);
            net.is_router(info.a.0) && net.is_router(info.b.0)
        })
        .collect();
    let routers = net.nodes().filter(|&v| net.is_router(v)).collect();
    ChaosSpace {
        links,
        routers,
        horizon,
    }
}

fn case_retry() -> RetryPolicy {
    // A deliberately twitchy ACK timeout, shorter than even an
    // uncontended delivery (the tail needs ~hops cycles after leaving
    // the source), so speculative retransmission races real deliveries
    // constantly — the whole point: duplicate suppression must absorb
    // every copy, and the failover layer every abandonment.
    RetryPolicy {
        ack_timeout: 4,
        max_retries: 6,
        backoff_base: 16,
        jitter_seed: 11,
    }
}

/// One fabric's engine config for a case: the campaign's scale, retry
/// policy and router knobs under `seed`.
fn fabric_config(seed: u64, opts: &ChaosOptions) -> SimConfig {
    opts.router.apply(SimConfig {
        max_cycles: scale(opts.quick).cycles * 4,
        stall_threshold: 500,
        retry: case_retry(),
        seed,
        ..SimConfig::default()
    })
}

/// The X fabric's engine config: the schedule, speculative ACK-timeout
/// retransmission, and duplicate suppression as `opts.dedup` says.
/// [`run_case`] records telemetry on it; [`incident`] live metrics.
fn x_config(schedule: &[FaultEvent], engine_seed: u64, opts: &ChaosOptions) -> SimConfig {
    fabric_config(engine_seed, opts)
        .with_faults(schedule.to_vec())
        .with_ack_retransmit(true)
        .with_dedup(opts.dedup)
}

/// A case's uniform Bernoulli traffic.
fn case_workload(quick: bool) -> Workload {
    let sc = scale(quick);
    Workload::Bernoulli {
        injection_rate: sc.load,
        pattern: DstPattern::Uniform,
        until_cycle: sc.cycles,
    }
}

/// Runs one case: X fabric with the schedule, Y fabric pristine. Both
/// fabrics share the system's VC discipline (if any) and the
/// campaign's FIFO-depth/credit-delay knobs.
fn run_case(
    sys: &System,
    schedule: &[FaultEvent],
    engine_seed: u64,
    opts: &ChaosOptions,
) -> FailoverOutcome {
    let cfg_x = x_config(schedule, engine_seed, opts)
        .with_telemetry(Telemetry::recording().with_event_capacity(1 << 14));
    let cfg_y = fabric_config(engine_seed ^ 0x5EC0_4DFA, opts);
    run_with_failover(
        sys.fabric(cfg_x, true),
        sys.fabric(cfg_y, false),
        case_workload(opts.quick),
    )
}

/// The options a scenario replays under: its recorded router knobs,
/// with `quick` and `dedup` from the caller.
fn replay_options(scenario: &Scenario, quick: bool, dedup: bool) -> ChaosOptions {
    ChaosOptions {
        quick,
        dedup,
        router: RouterOpts {
            fifo_depth: scenario.fifo_depth,
            credit_delay: scenario.credit_delay,
        },
        ..ChaosOptions::default()
    }
}

/// The permanent component kills in a schedule, as a repair mask.
/// Gray faults never enter it: a flaky or browned-out link is degraded,
/// not dead, and healing around it is the engine's (transient) job.
fn permanent_mask(sys: &System, schedule: &[FaultEvent]) -> DeadMask {
    let mut mask = DeadMask::new(sys.net());
    for f in schedule {
        if !f.is_permanent() {
            continue;
        }
        match f.kind {
            FaultKind::Link(l) => mask.kill_link(l),
            FaultKind::Router(r) => mask.kill_router(r),
            FaultKind::FlakyLink { .. } | FaultKind::CorruptLink { .. } => {}
            // Permanent brownouts oscillate forever but the link is
            // up half the time — not a heal target either.
            FaultKind::Brownout { .. } => {}
        }
    }
    mask
}

/// Checks every invariant against a finished case.
fn check_invariants(
    sys: &System,
    schedule: &[FaultEvent],
    out: &FailoverOutcome,
) -> Vec<Violation> {
    let mut v = Vec::new();
    if let Some(dl) = &out.x.deadlock {
        v.push(Violation {
            invariant: Invariant::NoDeadlock,
            detail: format!("X fabric deadlocked at cycle {}", dl.cycle),
        });
    }
    if let Some(dl) = out.y.as_ref().and_then(|y| y.deadlock.as_ref()) {
        v.push(Violation {
            invariant: Invariant::NoDeadlock,
            detail: format!("Y fabric deadlocked at cycle {}", dl.cycle),
        });
    }
    // Exactly-once: per fabric, delivered + abandoned must account for
    // every generated packet (no loss, no double-count), and across
    // the failover everything generated must arrive exactly once.
    let xr = &out.x;
    if xr.delivered + xr.recovery.abandoned.len() != xr.generated {
        v.push(Violation {
            invariant: Invariant::ExactlyOnce,
            detail: format!(
                "X fabric: {} delivered + {} abandoned != {} generated \
                 ({} duplicates suppressed)",
                xr.delivered,
                xr.recovery.abandoned.len(),
                xr.generated,
                xr.recovery.duplicates_suppressed
            ),
        });
    }
    if out.x.deadlock.is_none()
        && out.y.as_ref().is_none_or(|y| y.deadlock.is_none())
        && out.total_delivered() != out.total_generated()
    {
        v.push(Violation {
            invariant: Invariant::ExactlyOnce,
            detail: format!(
                "end to end: {} delivered != {} generated ({} unrecovered pairs)",
                out.total_delivered(),
                out.total_generated(),
                out.unrecovered.len()
            ),
        });
    }
    let mask = permanent_mask(sys, schedule);
    if !mask.is_empty() {
        if let Err(e) = heal_mask(sys.net(), sys.end_nodes(), &mask) {
            v.push(Violation {
                invariant: Invariant::HealCertifies,
                detail: format!("healing the final dead set failed: {e:?}"),
            });
        }
    }
    if let (Some(tel), Some(t)) = (&xr.telemetry, xr.recovery.time_to_recover) {
        if tel.recovery_span_cycles() != Some(t) {
            v.push(Violation {
                invariant: Invariant::SpanAccounting,
                detail: format!(
                    "recovery spans telescope to {:?}, stats say {t}",
                    tel.recovery_span_cycles()
                ),
            });
        }
    }
    v
}

/// Derives the two per-case seeds from the campaign seed. Pure, so a
/// scenario records enough to reproduce its case exactly.
fn case_seeds(seed: u64, case: usize) -> (u64, u64) {
    let schedule_seed = seed ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (schedule_seed, schedule_seed ^ 0x0C4A_05E1)
}

/// Runs a chaos campaign: `opts.runs` sampled schedules against
/// `spec`, invariants checked, violations shrunk to minimal replayable
/// scenarios.
pub fn run_campaign(spec: &TopoSpec, opts: &ChaosOptions) -> ChaosReport {
    let sys = spec.build();
    let sc = scale(opts.quick);
    let space = chaos_space(&sys, sc.cycles);
    // Cases are independent seeded runs, so they dispatch across the
    // workspace's worker pool, where each case's own forest sweeps run
    // at pool width 1; the merge below (and any shrinking) walks them
    // sequentially in case order, so the report is identical to the
    // single-thread path at every width.
    let cases = fractanet_graph::pool::parallel_map(opts.threads, opts.runs, |case| {
        let (schedule_seed, engine_seed) = case_seeds(opts.seed, case);
        let schedule = sample_schedule(&space, schedule_seed, sc.max_events);
        let out = run_case(&sys, &schedule, engine_seed, opts);
        let violations = check_invariants(&sys, &schedule, &out);
        (schedule_seed, engine_seed, schedule, violations)
    });
    let mut lines = Vec::new();
    let mut scenarios = Vec::new();
    let mut violating_cases = 0usize;
    for (case, (schedule_seed, engine_seed, schedule, violations)) in cases.into_iter().enumerate()
    {
        if violations.is_empty() {
            continue;
        }
        violating_cases += 1;
        for viol in &violations {
            lines.push(format!(
                "case {case} (schedule seed {schedule_seed}): {} — {}",
                viol.invariant.tag(),
                viol.detail
            ));
        }
        // Shrink against the first violation's invariant.
        let target = violations[0].invariant;
        let minimal = shrink(&schedule, |cand| {
            let o = run_case(&sys, cand, engine_seed, opts);
            check_invariants(&sys, cand, &o)
                .iter()
                .any(|w| w.invariant == target)
        });
        scenarios.push(Scenario {
            spec: spec.to_string(),
            seed: engine_seed,
            schedule_seed,
            invariant: target.tag().to_string(),
            faults: minimal,
            fifo_depth: opts.router.fifo_depth,
            credit_delay: opts.router.credit_delay,
        });
    }
    ChaosReport {
        spec: spec.to_string(),
        runs: opts.runs,
        violating_cases,
        lines,
        scenarios,
    }
}

/// Replays a scenario bit-identically (same spec, seeds, schedule) and
/// reports any invariant violations. `dedup` mirrors the campaign
/// flag: a regression scenario minted with `--disable-dedup` must
/// reproduce under `dedup: false` and stay clean under the default.
pub fn replay(scenario: &Scenario, quick: bool, dedup: bool) -> Result<Vec<Violation>, String> {
    let spec: TopoSpec = scenario.spec.parse().map_err(|e| format!("{e}"))?;
    let sys = spec.build();
    let opts = replay_options(scenario, quick, dedup);
    let out = run_case(&sys, &scenario.faults, scenario.seed, &opts);
    Ok(check_invariants(&sys, &scenario.faults, &out))
}

/// A chaos incident minted from a still-violating scenario: the
/// scenario's schedule re-run with live metrics, packaged as a
/// replayable metrics trace plus a Chrome-trace flight-recorder bundle
/// carrying the invariant violations as instant events.
#[derive(Clone, Debug)]
pub struct Incident {
    /// Replayable JSONL metrics trace — `fractanet replay` re-runs it
    /// and asserts the recorded delivered/abandoned counts.
    pub trace: String,
    /// Chrome `trace_event` incident bundle (chrome://tracing) —
    /// present when the replay violated or the metrics re-run itself
    /// hit an anomaly.
    pub bundle: Option<String>,
    /// The violations the authoritative scenario replay reported.
    pub violations: Vec<Violation>,
}

/// Replays a scenario and mints an [`Incident`] from it.
///
/// The verdict comes from [`replay`] — the full dual-fabric case,
/// bit-identical to the campaign. The incident *timeline* then comes
/// from re-running the scenario's fault schedule and engine seed on
/// the standard single-fabric engine with metrics on: the same engine
/// `fractanet replay` rebuilds, so the minted trace replays exactly by
/// construction.
pub fn incident(scenario: &Scenario, quick: bool, dedup: bool) -> Result<Incident, String> {
    let violations = replay(scenario, quick, dedup)?;
    let spec: TopoSpec = scenario.spec.parse().map_err(|e| format!("{e}"))?;
    let sys = spec.build();
    let opts = replay_options(scenario, quick, dedup);
    let cfg = x_config(&scenario.faults, scenario.seed, &opts)
        .with_metrics(MetricsConfig::sampling(100).with_topology(&sys.name()));
    let res = sys.simulate(case_workload(quick), cfg.clone());
    let report = res.metrics.as_ref().expect("metrics were on");
    let extra: Vec<Anomaly> = violations
        .iter()
        .map(|v| Anomaly {
            cycle: report.cycles,
            kind: AnomalyKind::InvariantViolation,
            detail: format!("{}: {}", v.invariant.tag(), v.detail),
        })
        .collect();
    let bundle = incident_chrome_trace(report, &extra);
    let trace = write_trace(&scenario.spec, false, &cfg, report);
    Ok(Incident {
        trace,
        bundle,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> TopoSpec {
        s.parse().unwrap()
    }

    #[test]
    fn smoke_campaign_is_clean_and_deterministic() {
        let opts = ChaosOptions {
            runs: 6,
            seed: 42,
            quick: true,
            ..ChaosOptions::default()
        };
        let a = run_campaign(&spec("fat-fractahedron:1"), &opts);
        assert!(a.is_clean(), "{:?}", a.lines);
        let b = run_campaign(&spec("fat-fractahedron:1"), &opts);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.scenarios.len(), b.scenarios.len());
    }

    #[test]
    fn mesh_smoke_campaign_is_clean() {
        let opts = ChaosOptions {
            runs: 4,
            quick: true,
            ..ChaosOptions::default()
        };
        let r = run_campaign(&spec("mesh:3x3"), &opts);
        assert!(r.is_clean(), "{:?}", r.lines);
    }

    #[test]
    fn vc_torus_smoke_campaign_is_clean() {
        // The torus's minimal XY tables are cyclic on the physical
        // channel-dependency graph, so this campaign only stays
        // deadlock-free because both fabrics run the spec's dateline
        // VC discipline (wired through `System::fabric`) — including
        // across mid-run heals, since the dateline map is
        // route-agnostic.
        let opts = ChaosOptions {
            runs: 4,
            quick: true,
            ..ChaosOptions::default()
        };
        let r = run_campaign(&spec("torus:3x3:vc2"), &opts);
        assert!(r.is_clean(), "{:?}", r.lines);
    }

    #[test]
    fn router_knobs_reach_the_minted_scenarios() {
        // A finite-FIFO campaign records its knobs in every scenario
        // it mints, so `--replay` reproduces the exact configuration.
        let opts = ChaosOptions {
            runs: 8,
            seed: 42,
            quick: true,
            dedup: false,
            router: RouterOpts {
                fifo_depth: Some(2),
                credit_delay: 1,
            },
            ..ChaosOptions::default()
        };
        let r = run_campaign(&spec("fat-fractahedron:1"), &opts);
        assert!(!r.is_clean(), "dedup-off campaign should violate");
        for sc in &r.scenarios {
            assert_eq!(sc.fifo_depth, Some(2));
            assert_eq!(sc.credit_delay, 1);
            let again = Scenario::from_json(&sc.to_json()).unwrap();
            assert_eq!(&again, sc);
        }
    }

    #[test]
    fn disabling_dedup_reproduces_a_violation_and_shrinks() {
        // With suppression off, the twitchy ACK timeout double-delivers
        // somewhere in a handful of cases; the shrunk scenario must
        // replay to the same violation with dedup off and be clean
        // with it on.
        let opts = ChaosOptions {
            runs: 8,
            seed: 42,
            quick: true,
            dedup: false,
            ..ChaosOptions::default()
        };
        let r = run_campaign(&spec("fat-fractahedron:1"), &opts);
        assert!(
            !r.is_clean(),
            "expected a duplicate-delivery violation: {:?}",
            r.lines
        );
        let sc = r
            .scenarios
            .iter()
            .find(|s| s.invariant == Invariant::ExactlyOnce.tag())
            .expect("an exactly_once scenario");
        assert!(sc.faults.len() <= 3, "not minimal: {:?}", sc.faults);
        let again = replay(sc, true, false).unwrap();
        assert!(again.iter().any(|v| v.invariant == Invariant::ExactlyOnce));
        let fixed = replay(sc, true, true).unwrap();
        assert!(fixed.is_empty(), "{fixed:?}");
    }

    #[test]
    fn dispatch_width_does_not_change_the_verdict() {
        // A campaign that actually violates (dedup off) so the parity
        // check covers lines, scenarios, and shrinking — not just the
        // all-clean fast path.
        let base = ChaosOptions {
            runs: 8,
            seed: 42,
            quick: true,
            dedup: false,
            ..ChaosOptions::default()
        };
        let serial = run_campaign(&spec("fat-fractahedron:1"), &base);
        for threads in [2, 4] {
            let wide = run_campaign(
                &spec("fat-fractahedron:1"),
                &ChaosOptions { threads, ..base },
            );
            assert_eq!(serial.violating_cases, wide.violating_cases);
            assert_eq!(serial.lines, wide.lines, "threads={threads}");
            assert_eq!(
                serial
                    .scenarios
                    .iter()
                    .map(Scenario::to_json)
                    .collect::<Vec<_>>(),
                wide.scenarios
                    .iter()
                    .map(Scenario::to_json)
                    .collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scenario_files_round_trip_through_replay() {
        let sc = Scenario {
            spec: "fat-fractahedron:1".to_string(),
            seed: 7,
            schedule_seed: 3,
            invariant: Invariant::ExactlyOnce.tag().to_string(),
            faults: vec![FaultEvent::kill_link(LinkId(12), 100).transient(600)],
            fifo_depth: None,
            credit_delay: 0,
        };
        let back = Scenario::from_json(&sc.to_json()).unwrap();
        let v = replay(&back, true, true).unwrap();
        assert!(v.is_empty(), "{v:?}");
        assert!(replay(
            &Scenario {
                spec: "not-a-topology".into(),
                ..sc
            },
            true,
            true
        )
        .is_err());
    }
}
