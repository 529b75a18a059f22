//! Command-line interface plumbing for the `fractanet` binary.
//!
//! Kept as a library module so the parsing and command logic are unit
//! tested; `src/bin/fractanet.rs` is a thin shell around [`parse`] and
//! [`execute`].
//!
//! ```text
//! fractanet analyze fat-fractahedron:2
//! fractanet analyze mesh:6x6 fattree:64:4:2 fat-fractahedron:2
//! fractanet dot fat-fractahedron:1 --routers-only
//! fractanet simulate fat-fractahedron:2 --load 0.3 --cycles 10000
//! fractanet plan --cpus 1024 --bisection 16
//! ```

use crate::chaos::{self, ChaosOptions};
use crate::sizing::{plan, Requirement};
use crate::spec::TopoSpec;
use crate::System;
use fractanet_graph::{viz, LinkId, NodeId};
use fractanet_sim::{
    parse_trace, write_trace, DstPattern, FaultEvent, MetricsConfig, MetricsReport, RetryPolicy,
    Scenario, SimConfig, SimResult, Telemetry, Workload,
};
use fractanet_telemetry::{
    incident_chrome_trace, to_chrome_trace, to_jsonl, to_prometheus, to_text_summary,
};
use std::fmt;

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Analyze one or more topologies.
    Analyze(Vec<TopoSpec>),
    /// Emit Graphviz for a topology.
    Dot {
        /// What to render.
        spec: TopoSpec,
        /// Hide end nodes.
        routers_only: bool,
    },
    /// Simulate uniform traffic on a topology.
    Simulate {
        /// The run.
        sim: SimRun,
        /// Record telemetry and append the per-channel summary.
        telemetry: bool,
        /// Live-metrics options (`--metrics-every`, `--metrics-out`,
        /// `--slo-deadline`).
        metrics: MetricsOpts,
    },
    /// Run a metrics-instrumented simulation and export the live
    /// metrics pipeline's view of it.
    Metrics {
        /// The run.
        sim: SimRun,
        /// Export format (`--format prom|jsonl`).
        format: MetricsFormat,
        /// Sampling cadence / SLO deadline / output path.
        metrics: MetricsOpts,
    },
    /// Re-run a recorded metrics trace and assert the recorded
    /// outcome.
    Replay {
        /// Trace file (JSONL, as written by `--metrics-out`).
        path: String,
        /// Override the recorded thread width (`--threads`; the
        /// outcome is identical at every width).
        threads: Option<usize>,
    },
    /// Simulate with telemetry recording and export the trace.
    Trace {
        /// The run (single-threaded).
        sim: SimRun,
        /// Export format.
        format: TraceFormat,
        /// File to write instead of stdout.
        out: Option<String>,
    },
    /// Plan a fractahedral installation.
    Plan {
        /// Required CPUs.
        cpus: usize,
        /// Required bisection links.
        bisection: u64,
    },
    /// Statically verify routing tables (rules L1–L6).
    Lint {
        /// Topologies to lint.
        specs: Vec<TopoSpec>,
        /// Emit machine-readable JSON instead of prose.
        json: bool,
        /// Exact mode: branch-and-bound minimum disable sets, the L6
        /// minimality rule, and replayable certificates.
        exact: bool,
        /// Also run the certificate-producing route synthesizer per
        /// spec and report its certified disable set.
        synthesize: bool,
    },
    /// Run a deterministic chaos campaign (or replay a scenario file).
    Chaos {
        /// Topology under test (absent in `--replay` mode, where the
        /// scenario file names it).
        spec: Option<TopoSpec>,
        /// Sampled fault schedules to run (`--runs`).
        runs: usize,
        /// Campaign base seed (`--seed`).
        seed: u64,
        /// Short CI-smoke cases (`--quick`).
        quick: bool,
        /// Turn destination duplicate suppression *off*
        /// (`--disable-dedup`) to mint regression scenarios.
        dedup: bool,
        /// Write the first shrunk counterexample here (`--out`).
        out: Option<String>,
        /// Replay a scenario JSON file instead of sampling
        /// (`--replay`).
        replay: Option<String>,
        /// Worker threads dispatching campaign cases (`--threads`);
        /// the verdict is identical at every width.
        threads: usize,
        /// In `--replay` mode: re-run the scenario with live metrics
        /// and write a replayable metrics trace here; when the replay
        /// still violates, a Chrome incident bundle lands next to it
        /// (`--trace-out`).
        trace_out: Option<String>,
        /// Router knobs for both fabrics (`--fifo-depth`,
        /// `--credit-delay`).
        router: RouterOpts,
    },
    /// Print usage.
    Help,
}

/// Export format for `fractanet trace`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line: run metadata, spans, then events.
    Jsonl,
    /// Chrome `trace_event` JSON (load in `chrome://tracing` / Perfetto).
    Chrome,
    /// Human-readable per-channel summary.
    Summary,
}

/// Export format for `fractanet metrics`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsFormat {
    /// Prometheus text exposition (format 0.0.4).
    Prometheus,
    /// The replayable JSONL metrics trace (config echo, fault
    /// timeline, injections, time-series samples, final counts).
    Jsonl,
}

/// Live-metrics options shared by `simulate` and `metrics`.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MetricsOpts {
    /// Sampling cadence in cycles (`--metrics-every`); any metrics
    /// flag turns the pipeline on, this one sets the cadence.
    pub every: Option<u64>,
    /// Write the run as a replayable JSONL metrics trace
    /// (`--metrics-out`); anomalies also dump a Chrome incident
    /// bundle next to it.
    pub out: Option<String>,
    /// Per-packet delivery deadline in cycles for SLO accounting
    /// (`--slo-deadline`).
    pub deadline: Option<u64>,
}

impl MetricsOpts {
    fn is_on(&self) -> bool {
        self.every.is_some() || self.out.is_some() || self.deadline.is_some()
    }

    /// The engine-side metrics configuration: always-on flavor, for
    /// commands where metrics are the whole point.
    fn config_on(&self, topology: &str) -> MetricsConfig {
        let mut cfg = MetricsConfig::sampling(self.every.unwrap_or(100));
        if let Some(d) = self.deadline {
            cfg = cfg.with_deadline(d);
        }
        cfg.with_topology(topology)
    }

    /// The engine-side metrics configuration, or off when no metrics
    /// flag was given.
    fn config(&self, topology: &str) -> MetricsConfig {
        if self.is_on() {
            self.config_on(topology)
        } else {
            MetricsConfig::off()
        }
    }
}

/// Router-microarchitecture knobs shared by `simulate`, `metrics`,
/// `trace`, and `chaos`. Virtual channels are part of the topology
/// spec (`<base>:vc<K>[:dateline|:ecube]`), not a router knob.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct RouterOpts {
    /// Per-port input-FIFO depth in flits (`--fifo-depth <n|inf>`;
    /// `inf` restores the pre-credit unbounded-buffer model).
    pub fifo_depth: Option<u32>,
    /// Credit round-trip delay in cycles (`--credit-delay`).
    pub credit_delay: u64,
}

impl RouterOpts {
    /// Applies the FIFO-depth and credit-delay knobs to an engine
    /// config.
    pub(crate) fn apply(&self, cfg: SimConfig) -> SimConfig {
        let cfg = cfg.with_credit_delay(self.credit_delay);
        match self.fifo_depth {
            Some(d) => cfg.with_buffer_depth(d),
            None => cfg,
        }
    }
}

/// The incident-bundle path derived from a trace path:
/// `x.jsonl` → `x.incident.json`.
fn incident_path(trace_path: &str) -> String {
    match trace_path.strip_suffix(".jsonl") {
        Some(stem) => format!("{stem}.incident.json"),
        None => format!("{trace_path}.incident.json"),
    }
}

/// Writes the flight recorder's incident bundle next to the trace at
/// `trace_path` when the run saw anomalies, noting it in `out`.
fn write_incident_bundle(
    m: &MetricsReport,
    trace_path: &str,
    out: &mut String,
) -> Result<(), CliError> {
    if let Some(bundle) = incident_chrome_trace(m, &[]) {
        let ip = incident_path(trace_path);
        std::fs::write(&ip, bundle.as_bytes())
            .map_err(|e| CliError(format!("cannot write {ip}: {e}")))?;
        out.push_str(&format!(
            "flight recorder: {} anomaly(ies) — wrote incident bundle to {ip}\n",
            m.anomalies.len()
        ));
    }
    Ok(())
}

/// Renders the live-metrics block `simulate` appends: whole-run
/// quantiles, SLO accounting, the worst group pair, and anomalies.
fn metrics_block(m: &MetricsReport) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "metrics: {} sample(s) every {} cycles; latency p50 {} / p95 {} / p99 {} / max {} cy\n",
        m.samples.len(),
        m.sample_every,
        m.latency.p50(),
        m.latency.p95(),
        m.latency.p99(),
        m.latency.max()
    ));
    s.push_str(&format!(
        "SLO: {:.2}% delivered within {} cy; retry budget burn {:.2}%\n",
        100.0 * m.slo_ratio(),
        m.deadline,
        100.0 * m.retry_budget_burn()
    ));
    if let Some(w) = m
        .classes
        .iter()
        .filter(|c| c.generated > 0)
        .min_by(|a, b| a.slo_ratio().total_cmp(&b.slo_ratio()))
    {
        s.push_str(&format!(
            "worst group pair g{}->g{}: {:.2}% in deadline, burn {:.2}%, p99 {} cy\n",
            w.src_group,
            w.dst_group,
            100.0 * w.slo_ratio(),
            100.0 * w.retry_budget_burn(m.max_retries),
            w.latency.p99()
        ));
    }
    for a in &m.anomalies {
        s.push_str(&format!(
            "anomaly @{}: {} — {}\n",
            a.cycle,
            a.kind.tag(),
            a.detail
        ));
    }
    s
}

/// Fault-injection and recovery options for `simulate`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultOpts {
    /// Link indices to kill (`--kill-link`, repeatable).
    pub kill_links: Vec<u32>,
    /// Router ordinals (among routers, in node order) to kill
    /// (`--kill-router`, repeatable).
    pub kill_routers: Vec<u32>,
    /// Cycle at which the faults strike (`--fault-at`).
    pub fault_at: u64,
    /// Cycle at which transient faults repair (`--repair-at`);
    /// faults are permanent when absent.
    pub repair_at: Option<u64>,
    /// Cycles a source waits for the ACK before retrying
    /// (`--ack-timeout`).
    pub ack_timeout: u64,
    /// Attempts before a transfer is abandoned to the failover layer
    /// (`--max-retries`).
    pub max_retries: u32,
    /// Exponential backoff base in cycles (`--backoff-base`).
    pub backoff_base: u64,
    /// Seed for retry jitter (`--jitter-seed`).
    pub jitter_seed: u64,
    /// Regenerate + certify routing tables around permanent faults
    /// (`--heal`).
    pub heal: bool,
    /// Gray failures: links that silently drop worms, as
    /// `(link, drop ‰)` (`--flaky-link <id>:<pm>`, repeatable).
    pub flaky_links: Vec<(u32, u16)>,
    /// Gray failures: links that corrupt traversing worms, as
    /// `(link, corrupt ‰)` (`--corrupt-link <id>:<pm>`, repeatable).
    pub corrupt_links: Vec<(u32, u16)>,
    /// Oscillating outages, as `(link, down cycles, up cycles)`
    /// (`--brownout <id>:<down>:<up>`, repeatable).
    pub brownouts: Vec<(u32, u64, u64)>,
}

impl Default for FaultOpts {
    fn default() -> Self {
        let retry = RetryPolicy::default();
        FaultOpts {
            kill_links: Vec::new(),
            kill_routers: Vec::new(),
            fault_at: 0,
            repair_at: None,
            ack_timeout: retry.ack_timeout,
            max_retries: retry.max_retries,
            backoff_base: retry.backoff_base,
            jitter_seed: retry.jitter_seed,
            heal: false,
            flaky_links: Vec::new(),
            corrupt_links: Vec::new(),
            brownouts: Vec::new(),
        }
    }
}

impl FaultOpts {
    fn retry(&self) -> RetryPolicy {
        RetryPolicy {
            ack_timeout: self.ack_timeout,
            max_retries: self.max_retries,
            backoff_base: self.backoff_base,
            jitter_seed: self.jitter_seed,
        }
    }

    /// Resolves the kill lists against a concrete system into fault
    /// events.
    fn events(&self, sys: &System) -> Result<Vec<FaultEvent>, CliError> {
        let net = sys.net();
        let routers: Vec<NodeId> = net.nodes().filter(|&v| net.is_router(v)).collect();
        let mut out = Vec::new();
        let check_link = |flag: &str, l: u32| {
            if l as usize >= net.link_count() {
                return Err(CliError(format!(
                    "{flag} {l} out of range (network has {} links)",
                    net.link_count()
                )));
            }
            Ok(LinkId(l))
        };
        for &l in &self.kill_links {
            out.push(FaultEvent::kill_link(
                check_link("--kill-link", l)?,
                self.fault_at,
            ));
        }
        for &(l, pm) in &self.flaky_links {
            out.push(FaultEvent::flaky_link(
                check_link("--flaky-link", l)?,
                pm,
                self.fault_at,
            ));
        }
        for &(l, pm) in &self.corrupt_links {
            out.push(FaultEvent::corrupt_link(
                check_link("--corrupt-link", l)?,
                pm,
                self.fault_at,
            ));
        }
        for &(l, down, up) in &self.brownouts {
            if down == 0 || up == 0 {
                return Err(CliError("--brownout phases must be nonzero".into()));
            }
            out.push(FaultEvent::brownout(
                check_link("--brownout", l)?,
                down,
                up,
                self.fault_at,
            ));
        }
        for &r in &self.kill_routers {
            let Some(&node) = routers.get(r as usize) else {
                return Err(CliError(format!(
                    "--kill-router {r} out of range (network has {} routers)",
                    routers.len()
                )));
            };
            out.push(FaultEvent::kill_router(node, self.fault_at));
        }
        if let Some(at) = self.repair_at {
            if at <= self.fault_at {
                return Err(CliError("--repair-at must be after --fault-at".into()));
            }
            for e in &mut out {
                *e = e.transient(at);
            }
        }
        Ok(out)
    }
}

/// The run `simulate`, `metrics` and `trace` share: uniform Bernoulli
/// traffic on one topology under the fault and router flags.
#[derive(Clone, Debug, PartialEq)]
pub struct SimRun {
    /// What to simulate.
    pub spec: TopoSpec,
    /// Offered load in flits/node/cycle (`--load`).
    pub load: f64,
    /// Cycle budget (`--cycles`).
    pub cycles: u64,
    /// Fault-injection and recovery options.
    pub faults: FaultOpts,
    /// Router knobs (`--fifo-depth`, `--credit-delay`).
    pub router: RouterOpts,
    /// Worker threads for the sharded engine (`--threads`); results
    /// are identical at every width.
    pub threads: usize,
}

/// A finished [`SimRun`]: the system it built, the engine config it
/// ran, and the result.
struct Ran {
    sys: System,
    cfg: SimConfig,
    res: SimResult,
}

impl SimRun {
    /// Builds the system, resolves the fault flags, and runs the
    /// traffic — healing when `--heal` is set. This is the CLI's one
    /// simulation config and workload; each command brings only its
    /// instrumentation: `telemetry`, and `metrics` given the topology
    /// name.
    fn run(
        &self,
        telemetry: Telemetry,
        metrics: impl FnOnce(&str) -> MetricsConfig,
    ) -> Result<Ran, CliError> {
        let sys = self.spec.build();
        let events = self.faults.events(&sys)?;
        let cfg = self
            .router
            .apply(SimConfig {
                packet_flits: 16,
                max_cycles: self.cycles,
                stall_threshold: (self.cycles / 4).max(100),
                warmup_cycles: self.cycles / 10,
                retry: self.faults.retry(),
                telemetry,
                metrics: metrics(&sys.name()),
                ..SimConfig::default()
            })
            .with_faults(events)
            .with_threads(self.threads);
        let workload = Workload::Bernoulli {
            injection_rate: self.load,
            pattern: DstPattern::Uniform,
            until_cycle: self.cycles * 3 / 4,
        };
        let res = sys.fabric(cfg.clone(), self.faults.heal).run(workload);
        Ok(Ran { sys, cfg, res })
    }
}

/// CLI errors, with a message suitable for stderr.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
fractanet — fractahedral topologies & deadlock-free ServerNet routing

USAGE:
  fractanet analyze <topology>...       hops/contention/bisection/deadlock report
  fractanet dot <topology> [--routers-only]
                                        Graphviz on stdout
  fractanet simulate <topology> [--load <f>] [--cycles <n>] [--threads <n>]
                     [--fifo-depth <n|inf>] [--credit-delay <cy>]
                     [--kill-link <id>]... [--kill-router <id>]...
                     [--flaky-link <id>:<pm>]... [--corrupt-link <id>:<pm>]...
                     [--brownout <id>:<down>:<up>]...
                     [--fault-at <cycle>] [--repair-at <cycle>] [--heal]
                     [--ack-timeout <cy>] [--max-retries <n>]
                     [--backoff-base <cy>] [--jitter-seed <s>] [--telemetry]
                     [--metrics-every <cy>] [--metrics-out <path>]
                     [--slo-deadline <cy>]
                                        uniform-traffic wormhole simulation with
                                        optional live fault injection — outright
                                        kills plus gray failures (silent drops,
                                        CRC corruption, oscillating brownouts at
                                        the given per-mille rates) — source
                                        retry and certified self-healing;
                                        --threads shards the engine across
                                        worker threads (results identical at
                                        any width); --telemetry appends the
                                        per-channel utilization/contention
                                        summary; any --metrics-* / --slo-* flag
                                        turns on the live metrics pipeline
                                        (streaming quantile sketches, SLO
                                        accounting — provably inert on the sim
                                        outcome) and --metrics-out records the
                                        run as a replayable JSONL trace, with a
                                        Chrome-trace incident bundle auto-dumped
                                        next to it when the flight recorder sees
                                        an anomaly (deadlock, SLO breach, heal
                                        install); --fifo-depth/--credit-delay
                                        set the router's per-port input-FIFO
                                        depth and credit round-trip delay
                                        (inf = the unbounded pre-credit model).
                                        Virtual channels come only from the
                                        topology's :vc<k> suffix
  fractanet metrics <topology> [--format prom|jsonl] [--out <path>]
                    [--load <f>] [--cycles <n>] [--threads <n>]
                    [--metrics-every <cy>] [--slo-deadline <cy>]
                    [<fault and router flags as simulate>]
                                        run with live metrics on and export
                                        them: Prometheus text exposition
                                        (default) or the replayable JSONL
                                        metrics trace
  fractanet replay <trace.jsonl> [--threads <n>]
                                        re-run a recorded metrics trace —
                                        scripted injections, echoed config,
                                        fault timeline — and assert the
                                        recorded delivered/abandoned counts and
                                        latency quantiles reproduce exactly.
                                        Exits 1 on any mismatch
  fractanet trace <topology> [--format jsonl|chrome|summary] [--out <path>]
                  [--load <f>] [--cycles <n>]
                  [<fault and router flags as simulate>]
                                        run with the flit-event tracer on and
                                        export the trace: JSONL for scripts,
                                        Chrome trace_event JSON for
                                        chrome://tracing / Perfetto, or a
                                        plain-text summary
  fractanet plan --cpus <n> [--bisection <links>]
                                        fractahedral capacity planning
  fractanet chaos <topology> [--runs <n>] [--seed <s>] [--threads <n>]
                  [--quick] [--disable-dedup] [--out <path>]
                  [<router flags as simulate>]
                                        deterministic chaos campaign: sampled
                                        fault schedules (kills, flaky/corrupting
                                        links, brownouts) against a self-healing
                                        dual fabric, checking exactly-once
                                        delivery, deadlock freedom, heal
                                        certification and span accounting;
                                        violations delta-shrink to a minimal
                                        replayable JSON scenario (recording any
                                        --fifo-depth/--credit-delay knobs);
                                        --threads dispatches cases across
                                        workers with an identical verdict.
                                        Exits 1 on any violation
  fractanet chaos --replay <file> [--quick] [--disable-dedup]
                  [--trace-out <path>]
                                        re-run a recorded scenario bit-
                                        identically and re-check every
                                        invariant; --trace-out additionally
                                        re-runs the schedule with live metrics
                                        and writes a replayable metrics trace
                                        (plus an incident bundle when the
                                        scenario still violates)
  fractanet lint <topology>... [--json] [--exact] [--synthesize]
                                        static route verification: coverage,
                                        path well-formedness, dependency-cycle
                                        enumeration, discipline conformance,
                                        contention bounds. Exits 1 when any
                                        error-severity diagnostic fires.
                                        --exact upgrades suggestions to proven
                                        minimum disable sets and adds the L6
                                        minimality rule with a replayable
                                        certificate; --synthesize also runs the
                                        certificate-producing route synthesizer
                                        per topology
  fractanet help

TOPOLOGIES:
  fat-fractahedron:<levels>             e.g. fat-fractahedron:2  (the paper's Fig 7 at 2)
  thin-fractahedron:<levels>[:fanout]   e.g. thin-fractahedron:3:fanout (1024 CPUs)
  mesh:<cols>x<rows>                    e.g. mesh:6x6            (§3.1)
  torus:<cols>x<rows>                   e.g. torus:8x8           (wraparound mesh;
                                        XY routing deadlock-prone without :vc2)
  fattree:<nodes>:<down>:<up>           e.g. fattree:64:4:2      (Fig 6)
  hypercube:<dim>                       e.g. hypercube:3         (Fig 2; dim <= 8,
                                        routers grow past 6 ports above dim 5)
  ring:<n>                              e.g. ring:4              (Fig 1 — deadlock-prone!)
  tetrahedron                           (Fig 4)
  cluster:<m>                           e.g. cluster:3           (Fig 3)
  bintree:<depth>:<nodes-per-leaf>      e.g. bintree:3:2
  <base>:vc<k>[:dateline|:ecube]        e.g. torus:8x8:vc2:dateline, ring:6:vc2,
                                        mesh:6x6:vc2:ecube — k virtual channels
                                        per physical channel under a Dally-Seitz
                                        ordering discipline (base = ring, torus,
                                        mesh, or hypercube; the discipline
                                        defaults to the canonical one)
";

/// Parses a topology specifier, appending usage on failure.
fn parse_spec(s: &str) -> Result<TopoSpec, CliError> {
    s.parse()
        .map_err(|e: crate::spec::SpecError| CliError(format!("{e}\n\n{USAGE}")))
}

/// Splits a flag value like `3:50` (or `3:16:24`) into `n` integer
/// fields, erroring with the flag name and expected shape.
fn split_fields(
    flag: &str,
    shape: &str,
    v: Option<&String>,
    n: usize,
) -> Result<Vec<u64>, CliError> {
    let v = v.ok_or_else(|| CliError(format!("{flag} needs {shape}")))?;
    let parts: Vec<u64> = v.split(':').filter_map(|p| p.parse().ok()).collect();
    if parts.len() != n || v.split(':').count() != n {
        return Err(CliError(format!("{flag} needs {shape}, got '{v}'")));
    }
    Ok(parts)
}

/// Parses a `--fifo-depth` value: a positive flit count, or `inf` for
/// the unbounded pre-credit buffer model.
fn fifo_depth_value(v: Option<&String>) -> Result<u32, CliError> {
    let v = v.ok_or_else(|| CliError("--fifo-depth needs a flit count or 'inf'".into()))?;
    if v == "inf" {
        return Ok(SimConfig::INFINITE_DEPTH);
    }
    match v.parse::<u32>() {
        Ok(d) if d >= 1 => Ok(d),
        _ => Err(CliError(format!(
            "--fifo-depth needs a flit count >= 1 or 'inf', got '{v}'"
        ))),
    }
}

/// Parses argv (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("analyze") => {
            let specs: Vec<TopoSpec> =
                it.map(|a| parse_spec(a)).collect::<Result<_, CliError>>()?;
            if specs.is_empty() {
                return Err(CliError(format!("analyze needs a topology\n\n{USAGE}")));
            }
            Ok(Command::Analyze(specs))
        }
        Some("dot") => {
            let mut spec = None;
            let mut routers_only = false;
            for a in it {
                match a.as_str() {
                    "--routers-only" => routers_only = true,
                    other if spec.is_none() => spec = Some(parse_spec(other)?),
                    other => return Err(CliError(format!("unexpected argument '{other}'"))),
                }
            }
            let spec = spec.ok_or_else(|| CliError(format!("dot needs a topology\n\n{USAGE}")))?;
            Ok(Command::Dot { spec, routers_only })
        }
        Some(cmd @ ("simulate" | "trace" | "metrics")) => {
            let tracing = cmd == "trace";
            let metrics_cmd = cmd == "metrics";
            let mut spec = None;
            let mut load = 0.2f64;
            let mut cycles = if tracing { 5_000u64 } else { 20_000u64 };
            let mut faults = FaultOpts::default();
            let mut telemetry = false;
            let mut threads = 1usize;
            let mut format = TraceFormat::Summary;
            let mut mformat = MetricsFormat::Prometheus;
            let mut metrics = MetricsOpts::default();
            let mut router = RouterOpts::default();
            let mut out = None;
            let mut it = it.peekable();
            while let Some(a) = it.next() {
                macro_rules! val {
                    ($flag:literal) => {
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| CliError(concat!($flag, " needs a number").into()))?
                    };
                }
                match a.as_str() {
                    "--load" => load = val!("--load"),
                    "--cycles" => cycles = val!("--cycles"),
                    "--kill-link" => faults.kill_links.push(val!("--kill-link")),
                    "--kill-router" => faults.kill_routers.push(val!("--kill-router")),
                    "--fault-at" => faults.fault_at = val!("--fault-at"),
                    "--repair-at" => faults.repair_at = Some(val!("--repair-at")),
                    "--ack-timeout" => faults.ack_timeout = val!("--ack-timeout"),
                    "--max-retries" => faults.max_retries = val!("--max-retries"),
                    "--backoff-base" => faults.backoff_base = val!("--backoff-base"),
                    "--jitter-seed" => faults.jitter_seed = val!("--jitter-seed"),
                    "--heal" => faults.heal = true,
                    "--fifo-depth" => router.fifo_depth = Some(fifo_depth_value(it.next())?),
                    "--credit-delay" => router.credit_delay = val!("--credit-delay"),
                    flag @ ("--flaky-link" | "--corrupt-link") => {
                        let f = split_fields(flag, "<link>:<per-mille>", it.next(), 2)?;
                        if f[1] > 1000 {
                            return Err(CliError(format!("{flag}: per-mille must be <= 1000")));
                        }
                        let pair = (f[0] as u32, f[1] as u16);
                        if flag == "--flaky-link" {
                            faults.flaky_links.push(pair);
                        } else {
                            faults.corrupt_links.push(pair);
                        }
                    }
                    "--brownout" => {
                        let f = split_fields("--brownout", "<link>:<down>:<up>", it.next(), 3)?;
                        faults.brownouts.push((f[0] as u32, f[1], f[2]));
                    }
                    "--telemetry" if cmd == "simulate" => telemetry = true,
                    "--threads" if !tracing => threads = val!("--threads"),
                    "--metrics-every" if !tracing => metrics.every = Some(val!("--metrics-every")),
                    "--slo-deadline" if !tracing => metrics.deadline = Some(val!("--slo-deadline")),
                    "--metrics-out" if cmd == "simulate" => {
                        metrics.out = Some(
                            it.next()
                                .ok_or_else(|| CliError("--metrics-out needs a path".into()))?
                                .clone(),
                        );
                    }
                    "--format" if tracing => {
                        let v = it.next().ok_or_else(|| {
                            CliError("--format needs jsonl|chrome|summary".into())
                        })?;
                        format = match v.as_str() {
                            "jsonl" => TraceFormat::Jsonl,
                            "chrome" => TraceFormat::Chrome,
                            "summary" => TraceFormat::Summary,
                            other => {
                                return Err(CliError(format!(
                                    "unknown trace format '{other}' (jsonl|chrome|summary)"
                                )))
                            }
                        };
                    }
                    "--format" if metrics_cmd => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--format needs prom|jsonl".into()))?;
                        mformat = match v.as_str() {
                            "prom" => MetricsFormat::Prometheus,
                            "jsonl" => MetricsFormat::Jsonl,
                            other => {
                                return Err(CliError(format!(
                                    "unknown metrics format '{other}' (prom|jsonl)"
                                )))
                            }
                        };
                    }
                    "--out" if tracing || metrics_cmd => {
                        out = Some(
                            it.next()
                                .ok_or_else(|| CliError("--out needs a path".into()))?
                                .clone(),
                        );
                    }
                    other if spec.is_none() && !other.starts_with('-') => {
                        spec = Some(parse_spec(other)?)
                    }
                    other => return Err(CliError(format!("unexpected argument '{other}'"))),
                }
            }
            let spec =
                spec.ok_or_else(|| CliError(format!("{cmd} needs a topology\n\n{USAGE}")))?;
            if !(0.0..=1.0).contains(&load) {
                return Err(CliError(
                    "--load must be within 0..=1 flits/node/cycle".into(),
                ));
            }
            let sim = SimRun {
                spec,
                load,
                cycles,
                faults,
                router,
                threads,
            };
            if tracing {
                Ok(Command::Trace { sim, format, out })
            } else if metrics_cmd {
                metrics.out = out;
                Ok(Command::Metrics {
                    sim,
                    format: mformat,
                    metrics,
                })
            } else {
                Ok(Command::Simulate {
                    sim,
                    telemetry,
                    metrics,
                })
            }
        }
        Some("replay") => {
            let mut path = None;
            let mut threads = None;
            let mut it = it.peekable();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--threads" => {
                        threads = Some(
                            it.next()
                                .and_then(|v| v.parse().ok())
                                .ok_or_else(|| CliError("--threads needs a number".into()))?,
                        )
                    }
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string())
                    }
                    other => return Err(CliError(format!("unexpected argument '{other}'"))),
                }
            }
            let path =
                path.ok_or_else(|| CliError(format!("replay needs a trace file\n\n{USAGE}")))?;
            Ok(Command::Replay { path, threads })
        }
        Some("chaos") => {
            let mut spec = None;
            let mut runs = 64usize;
            let mut seed = 42u64;
            let mut quick = false;
            let mut dedup = true;
            let mut threads = 1usize;
            let mut out = None;
            let mut replay = None;
            let mut trace_out = None;
            let mut router = RouterOpts::default();
            let mut it = it.peekable();
            while let Some(a) = it.next() {
                macro_rules! val {
                    ($flag:literal) => {
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| CliError(concat!($flag, " needs a number").into()))?
                    };
                }
                match a.as_str() {
                    "--spec" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--spec needs a topology".into()))?;
                        spec = Some(parse_spec(v)?);
                    }
                    "--runs" => runs = val!("--runs"),
                    "--seed" => seed = val!("--seed"),
                    "--threads" => threads = val!("--threads"),
                    "--fifo-depth" => router.fifo_depth = Some(fifo_depth_value(it.next())?),
                    "--credit-delay" => router.credit_delay = val!("--credit-delay"),
                    "--quick" => quick = true,
                    "--disable-dedup" => dedup = false,
                    "--out" => {
                        out = Some(
                            it.next()
                                .ok_or_else(|| CliError("--out needs a path".into()))?
                                .clone(),
                        );
                    }
                    "--replay" => {
                        replay = Some(
                            it.next()
                                .ok_or_else(|| CliError("--replay needs a path".into()))?
                                .clone(),
                        );
                    }
                    "--trace-out" => {
                        trace_out = Some(
                            it.next()
                                .ok_or_else(|| CliError("--trace-out needs a path".into()))?
                                .clone(),
                        );
                    }
                    other if spec.is_none() && !other.starts_with('-') => {
                        spec = Some(parse_spec(other)?)
                    }
                    other => return Err(CliError(format!("unexpected argument '{other}'"))),
                }
            }
            if spec.is_none() && replay.is_none() {
                return Err(CliError(format!(
                    "chaos needs a topology or --replay <file>\n\n{USAGE}"
                )));
            }
            if trace_out.is_some() && replay.is_none() {
                return Err(CliError("--trace-out only applies in --replay mode".into()));
            }
            if replay.is_some() && (router.fifo_depth.is_some() || router.credit_delay != 0) {
                return Err(CliError(
                    "--fifo-depth/--credit-delay don't apply in --replay mode \
                     (the scenario file records them)"
                        .into(),
                ));
            }
            Ok(Command::Chaos {
                spec,
                runs,
                seed,
                quick,
                dedup,
                out,
                replay,
                threads,
                trace_out,
                router,
            })
        }
        Some("lint") => {
            let mut specs = Vec::new();
            let mut json = false;
            let mut exact = false;
            let mut synthesize = false;
            for a in it {
                match a.as_str() {
                    "--json" => json = true,
                    "--exact" => exact = true,
                    "--synthesize" => synthesize = true,
                    other if other.starts_with('-') => {
                        return Err(CliError(format!("unexpected argument '{other}'")))
                    }
                    other => specs.push(parse_spec(other)?),
                }
            }
            if specs.is_empty() {
                return Err(CliError(format!("lint needs a topology\n\n{USAGE}")));
            }
            Ok(Command::Lint {
                specs,
                json,
                exact,
                synthesize,
            })
        }
        Some("plan") => {
            let mut cpus = None;
            let mut bisection = 1u64;
            let mut it = it.peekable();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--cpus" => {
                        cpus = it.next().and_then(|v| v.parse().ok());
                        if cpus.is_none() {
                            return Err(CliError("--cpus needs an integer".into()));
                        }
                    }
                    "--bisection" => {
                        bisection = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| CliError("--bisection needs an integer".into()))?;
                    }
                    other => return Err(CliError(format!("unexpected argument '{other}'"))),
                }
            }
            let cpus = cpus.ok_or_else(|| CliError(format!("plan needs --cpus\n\n{USAGE}")))?;
            Ok(Command::Plan { cpus, bisection })
        }
        Some(other) => Err(CliError(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

/// What a command produced, including the process exit status — lint
/// findings are not *errors* (parsing and building succeeded) but must
/// still fail a CI gate.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Text for stdout.
    pub output: String,
    /// Process exit code: 0 = success, 1 = lint gate failed.
    pub code: u8,
}

/// Re-runs a recorded metrics trace through a fresh engine and checks
/// the recorded finals. The exit code is 1 when any recorded count or
/// latency quantile fails to reproduce — so CI can gate on "checked-in
/// incident traces still replay exactly".
fn run_replay(path: &str, threads: Option<usize>) -> Result<RunOutcome, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
    let trace =
        parse_trace(&text).map_err(|e| CliError(format!("{path} is not a metrics trace: {e}")))?;
    let spec = parse_spec(&trace.spec)?;
    let sys = spec.build();
    let mut cfg = trace.cfg.clone();
    if let Some(t) = threads {
        cfg = cfg.with_threads(t);
    }
    let res = sys.fabric(cfg, trace.heal).run(trace.workload());
    let mut out = format!(
        "replaying {path} on {}: {} injection(s), {} fault(s), threads {}{}\n",
        trace.spec,
        trace.injections.len(),
        trace.cfg.faults.len(),
        threads.unwrap_or(trace.cfg.threads),
        if trace.heal { ", healing on" } else { "" },
    );
    let bad = trace.check(&res);
    for line in &bad {
        out.push_str(&format!("MISMATCH {line}\n"));
    }
    if bad.is_empty() {
        out.push_str(&format!(
            "replay exact: {} generated, {} delivered, {} abandoned, \
             p50 {} / p95 {} / p99 {} / max {} cy\n",
            trace.expected.generated,
            trace.expected.delivered,
            trace.expected.abandoned,
            trace.expected.p50,
            trace.expected.p95,
            trace.expected.p99,
            trace.expected.max,
        ));
    }
    Ok(RunOutcome {
        output: out,
        code: u8::from(!bad.is_empty()),
    })
}

/// Runs a chaos campaign or scenario replay. The exit code is 1 when
/// any invariant violation was observed — so CI can both gate on
/// "campaign clean" and on "checked-in regression scenario no longer
/// reproduces".
fn run_chaos(cmd: Command) -> Result<RunOutcome, CliError> {
    let Command::Chaos {
        spec,
        runs,
        seed,
        quick,
        dedup,
        out: out_path,
        replay,
        threads,
        trace_out,
        router,
    } = cmd
    else {
        unreachable!("run_chaos is only called on Command::Chaos");
    };
    let mut out = String::new();
    if let Some(path) = replay {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError(format!("cannot read {path}: {e}")))?;
        let sc = Scenario::from_json(&text)
            .map_err(|e| CliError(format!("{path} is not a scenario: {e}")))?;
        out.push_str(&format!(
            "replaying {} on {} (engine seed {}, {} fault(s), recorded invariant {})\n",
            path,
            sc.spec,
            sc.seed,
            sc.faults.len(),
            sc.invariant
        ));
        // With --trace-out the replay also mints the incident: a
        // replayable metrics trace, plus a flight-recorder bundle when
        // the scenario still violates.
        let violations = match &trace_out {
            Some(tp) => {
                let inc = chaos::incident(&sc, quick, dedup)
                    .map_err(|e| CliError(format!("{path}: {e}")))?;
                std::fs::write(tp, inc.trace.as_bytes())
                    .map_err(|e| CliError(format!("cannot write {tp}: {e}")))?;
                out.push_str(&format!("wrote metrics trace to {tp}\n"));
                if let Some(bundle) = &inc.bundle {
                    let ip = incident_path(tp);
                    std::fs::write(&ip, bundle.as_bytes())
                        .map_err(|e| CliError(format!("cannot write {ip}: {e}")))?;
                    out.push_str(&format!("wrote incident bundle to {ip}\n"));
                }
                inc.violations
            }
            None => {
                chaos::replay(&sc, quick, dedup).map_err(|e| CliError(format!("{path}: {e}")))?
            }
        };
        for v in &violations {
            out.push_str(&format!(
                "violation: {} — {}\n",
                v.invariant.tag(),
                v.detail
            ));
        }
        if violations.is_empty() {
            out.push_str("replay clean: every invariant held\n");
        }
        return Ok(RunOutcome {
            output: out,
            code: u8::from(!violations.is_empty()),
        });
    }
    let spec = spec.expect("parser requires a spec without --replay");
    let opts = ChaosOptions {
        runs,
        seed,
        quick,
        dedup,
        threads,
        router,
    };
    let report = chaos::run_campaign(&spec, &opts);
    for line in &report.lines {
        out.push_str(line);
        out.push('\n');
    }
    if let (Some(path), Some(sc)) = (&out_path, report.scenarios.first()) {
        std::fs::write(path, sc.to_json().as_bytes())
            .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
        out.push_str(&format!(
            "wrote minimal scenario ({} fault(s), invariant {}) to {path}\n",
            sc.faults.len(),
            sc.invariant
        ));
    }
    out.push_str(&format!("{}\n", report.summary()));
    Ok(RunOutcome {
        output: out,
        code: u8::from(!report.is_clean()),
    })
}

/// Lints each spec's canonical routing tables. The exit code is 1 when
/// any error-severity diagnostic fired across any spec. `--exact`
/// switches to exact mode (minimum disable sets, L6, certificates);
/// `--synthesize` additionally runs the certificate-producing route
/// synthesizer per spec and replay-checks its witness.
fn run_lint(
    specs: &[TopoSpec],
    json: bool,
    exact: bool,
    synthesize: bool,
) -> Result<RunOutcome, CliError> {
    let mut out = String::new();
    let mut errors = 0usize;
    let mut entries = Vec::new();
    for spec in specs {
        let sys = spec.build();
        let report = if exact { sys.lint_exact() } else { sys.lint() };
        errors += report.error_count();
        let synth = if synthesize {
            Some(synth_summary(&sys))
        } else {
            None
        };
        entries.push((report, synth));
    }
    if json {
        // One JSON array; plain report objects, or {"lint":…,
        // "synthesis":…} wrappers when synthesis ran.
        out.push('[');
        for (i, (r, synth)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match synth {
                Some(s) => out.push_str(
                    &fractanet_graph::json::JsonObject::new()
                        .field_raw("lint", &r.to_json())
                        .field_raw("synthesis", s.json())
                        .build(),
                ),
                None => out.push_str(&r.to_json()),
            }
        }
        out.push_str("]\n");
    } else {
        for (r, synth) in &entries {
            out.push_str(&format!("{r}\n"));
            if let Some(s) = synth {
                out.push_str(&s.text);
            }
        }
        out.push_str(&format!(
            "lint: {} configuration(s), {} error(s), {} warning(s)\n",
            entries.len(),
            errors,
            entries
                .iter()
                .map(|(r, _)| r.warning_count())
                .sum::<usize>()
        ));
    }
    Ok(RunOutcome {
        output: out,
        code: u8::from(errors > 0),
    })
}

/// The per-spec `--synthesize` result, pre-rendered for both output
/// modes.
struct SynthSummary {
    text: String,
    json: String,
}

impl SynthSummary {
    fn json(&self) -> &str {
        &self.json
    }
}

/// Runs the exact synthesizer for one system and replay-checks the
/// witness certificate from scratch.
fn synth_summary(sys: &crate::system::System) -> SynthSummary {
    use fractanet_graph::json::JsonObject;
    match sys.synthesize_exact() {
        Ok(s) => {
            let replay = s.witness.replay(sys.net(), sys.end_nodes());
            let claim = if s.proven_minimal {
                format!("proven minimal over {} enumerated cycle(s)", s.cycles_seen)
            } else if s.truncated {
                "enumeration truncated — minimality not claimed".into()
            } else {
                format!("minimality unproven (lower bound {})", s.lower_bound)
            };
            let replay_txt = match &replay {
                Ok(covered) => format!("certificate replay OK ({covered} pairs)"),
                Err(e) => format!("CERTIFICATE REPLAY FAILED: {e}"),
            };
            SynthSummary {
                text: format!(
                    "  synthesize: {} turn disable(s), {}/{} pairs routed, {claim}; {replay_txt}\n",
                    s.disables(),
                    s.coverage.connected,
                    s.coverage.total,
                ),
                json: JsonObject::new()
                    .field_num("disables", s.disables())
                    .field_num("covered_pairs", s.coverage.connected)
                    .field_num("total_pairs", s.coverage.total)
                    .field_bool("proven_minimal", s.proven_minimal)
                    .field_bool("replay_ok", replay.is_ok())
                    .field_raw("certificate", &s.certificate_json())
                    .build(),
            }
        }
        Err(e) => SynthSummary {
            text: format!("  synthesize: failed ({e})\n"),
            json: JsonObject::new().field_str("error", &e.to_string()).build(),
        },
    }
}

/// Executes a command, reporting output *and* exit status. This is the
/// binary's entry point.
pub fn execute(cmd: Command) -> Result<RunOutcome, CliError> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Lint {
            specs,
            json,
            exact,
            synthesize,
        } => return run_lint(&specs, json, exact, synthesize),
        cmd @ Command::Chaos { .. } => return run_chaos(cmd),
        Command::Replay { path, threads } => return run_replay(&path, threads),
        Command::Analyze(specs) => {
            for spec in specs {
                let sys = spec.build();
                out.push_str(&format!("{}\n", sys.analyze()));
            }
        }
        Command::Dot { spec, routers_only } => {
            let sys = spec.build();
            let dot = if routers_only {
                viz::routers_only_dot(sys.net(), &sys.name())
            } else {
                viz::to_dot(
                    sys.net(),
                    &viz::DotOptions {
                        name: sys.name(),
                        ..viz::DotOptions::default()
                    },
                )
            };
            out.push_str(&dot);
        }
        Command::Simulate {
            sim,
            telemetry,
            metrics,
        } => {
            let telemetry = if telemetry {
                Telemetry::recording()
            } else {
                Telemetry::off()
            };
            let Ran { sys, cfg, res } = sim.run(telemetry, |name| metrics.config(name))?;
            out.push_str(&format!("{}\n", sys.analyze()));
            out.push_str(&format!(
                "simulated {} cycles at load {}: {}/{} packets delivered, \
                 avg latency {:.1} cy, p95 {} cy, throughput {:.3} flits/node/cy\n",
                res.cycles,
                sim.load,
                res.delivered,
                res.generated,
                res.avg_latency,
                res.p95_latency,
                res.throughput
            ));
            match res.deadlock {
                Some(dl) => out.push_str(&format!(
                    "DEADLOCK at cycle {} ({} packets stuck, {}-channel circular wait)\n",
                    dl.cycle,
                    dl.stuck_packets,
                    dl.cycle_channels.len()
                )),
                None => out.push_str("no deadlock\n"),
            }
            if res.credits.consumed > 0 {
                // consumed == returned only once every worm has drained;
                // a max-cycles cutoff legitimately strands the difference
                // in occupied FIFO slots.
                let held = res.credits.consumed - res.credits.returned;
                out.push_str(&format!(
                    "credits: {} consumed, {} returned ({}), {} transfer stalls\n",
                    res.credits.consumed,
                    res.credits.returned,
                    if res.credits.is_conserved() {
                        "conserved".to_string()
                    } else {
                        format!("{held} held at cutoff")
                    },
                    res.credits.stalls
                ));
            }
            if !cfg.faults.is_empty() {
                let r = &res.recovery;
                out.push_str(&format!(
                    "faults: {} applied, {} worms dropped, {} retries, {} abandoned, \
                     {} repaired tables installed\n",
                    r.faults_applied,
                    r.dropped_worms,
                    r.retries,
                    r.abandoned.len(),
                    r.repairs_installed
                ));
                match r.time_to_recover {
                    Some(t) => out.push_str(&format!(
                        "recovered in {t} cycles; post-fault delivery {:.1}%\n",
                        100.0 * r.post_fault_delivery_ratio()
                    )),
                    None => out.push_str(&format!(
                        "post-fault delivery {:.1}%\n",
                        100.0 * r.post_fault_delivery_ratio()
                    )),
                }
            }
            if let Some(m) = &res.metrics {
                out.push_str(&metrics_block(m));
                if let Some(path) = &metrics.out {
                    let text = write_trace(&sim.spec.to_string(), sim.faults.heal, &cfg, m);
                    std::fs::write(path, text.as_bytes())
                        .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                    out.push_str(&format!(
                        "wrote metrics trace ({} injection(s), {} sample(s)) to {path}\n",
                        m.injections.len(),
                        m.samples.len()
                    ));
                    write_incident_bundle(m, path, &mut out)?;
                }
            }
            if let Some(tel) = &res.telemetry {
                out.push_str(&to_text_summary(tel));
            }
        }
        Command::Metrics {
            sim,
            format,
            metrics,
        } => {
            let Ran { cfg, res, .. } = sim.run(Telemetry::off(), |name| metrics.config_on(name))?;
            let m = res
                .metrics
                .as_ref()
                .expect("metrics always records under the metrics command");
            let rendered = match format {
                MetricsFormat::Prometheus => to_prometheus(m),
                MetricsFormat::Jsonl => {
                    write_trace(&sim.spec.to_string(), sim.faults.heal, &cfg, m)
                }
            };
            match &metrics.out {
                Some(path) => {
                    std::fs::write(path, rendered.as_bytes())
                        .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                    out.push_str(&format!("wrote {} bytes to {path}\n", rendered.len()));
                    write_incident_bundle(m, path, &mut out)?;
                }
                None => out.push_str(&rendered),
            }
        }
        Command::Trace {
            sim,
            format,
            out: out_path,
        } => {
            let Ran { res, .. } = sim.run(Telemetry::recording(), |_| MetricsConfig::off())?;
            let tel = res
                .telemetry
                .expect("trace always runs with telemetry recording");
            let rendered = match format {
                TraceFormat::Jsonl => to_jsonl(&tel),
                TraceFormat::Chrome => to_chrome_trace(&tel),
                TraceFormat::Summary => to_text_summary(&tel),
            };
            match out_path {
                Some(path) => {
                    std::fs::write(&path, rendered.as_bytes())
                        .map_err(|e| CliError(format!("cannot write {path}: {e}")))?;
                    out.push_str(&format!("wrote {} bytes to {path}\n", rendered.len()));
                }
                None => out.push_str(&rendered),
            }
        }
        Command::Plan { cpus, bisection } => {
            let options = plan(Requirement {
                cpus,
                min_bisection_links: bisection,
                fanout: true,
            });
            if options.is_empty() {
                out.push_str("no fractahedral configuration satisfies the requirement\n");
            }
            for o in options {
                out.push_str(&format!(
                    "{:?} N{}: {} CPUs, {} routers ({} tetra + {} fan-out), {} cables, \
                     max delay {} hops, bisection {} links\n",
                    o.variant,
                    o.levels,
                    o.capacity,
                    o.total_routers(),
                    o.tetra_routers,
                    o.fanout_routers,
                    o.cables,
                    o.max_delay,
                    o.bisection
                ));
            }
        }
    }
    Ok(RunOutcome {
        output: out,
        code: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// A fault-free, single-threaded run of `spec`.
    fn sim(spec: &str, load: f64, cycles: u64) -> SimRun {
        SimRun {
            spec: spec.parse().unwrap(),
            load,
            cycles,
            faults: FaultOpts::default(),
            router: RouterOpts::default(),
            threads: 1,
        }
    }

    fn output(cmd: Command) -> String {
        execute(cmd).unwrap().output
    }

    #[test]
    fn parse_analyze() {
        let cmd = parse(&argv("analyze fat-fractahedron:2 mesh:6x6")).unwrap();
        assert_eq!(
            cmd,
            Command::Analyze(vec![
                "fat-fractahedron:2".parse::<TopoSpec>().unwrap(),
                "mesh:6x6".parse::<TopoSpec>().unwrap()
            ])
        );
    }

    #[test]
    fn parse_simulate_flags() {
        let cmd = parse(&argv("simulate ring:4 --load 0.5 --cycles 1000")).unwrap();
        assert_eq!(
            cmd,
            Command::Simulate {
                sim: sim("ring:4", 0.5, 1000),
                telemetry: false,
                metrics: MetricsOpts::default(),
            }
        );
        // Defaults: load 0.2 and 20k cycles, as for metrics.
        for cmd in ["simulate", "metrics"] {
            let (Command::Simulate { sim, .. } | Command::Metrics { sim, .. }) =
                parse(&argv(&format!("{cmd} ring:4"))).unwrap()
            else {
                panic!("not {cmd}")
            };
            assert_eq!((sim.load, sim.cycles), (0.2, 20_000));
        }
        let cmd = parse(&argv("simulate ring:4 --telemetry")).unwrap();
        let Command::Simulate { telemetry, .. } = cmd else {
            panic!("not simulate: {cmd:?}")
        };
        assert!(telemetry);
        let cmd = parse(&argv("simulate mesh:8x8 --threads 8")).unwrap();
        let Command::Simulate { sim, .. } = cmd else {
            panic!("not simulate: {cmd:?}")
        };
        assert_eq!(sim.threads, 8);
        let cmd = parse(&argv("chaos mesh:3x3 --threads 4")).unwrap();
        let Command::Chaos { threads, .. } = cmd else {
            panic!("not chaos: {cmd:?}")
        };
        assert_eq!(threads, 4);
    }

    #[test]
    fn parse_router_flags() {
        let cmd = parse(&argv(
            "simulate torus:4x4:vc2 --fifo-depth 2 --credit-delay 3",
        ))
        .unwrap();
        let Command::Simulate { sim, .. } = cmd else {
            panic!("not simulate: {cmd:?}")
        };
        assert_eq!(sim.spec.to_string(), "torus:4x4:vc2");
        assert_eq!(sim.router.fifo_depth, Some(2));
        assert_eq!(sim.router.credit_delay, 3);
        // `inf` restores the unbounded pre-credit model.
        let cmd = parse(&argv("metrics mesh:4x4:vc2:ecube --fifo-depth inf")).unwrap();
        let Command::Metrics { sim, .. } = cmd else {
            panic!("not metrics: {cmd:?}")
        };
        assert_eq!(sim.router.fifo_depth, Some(SimConfig::INFINITE_DEPTH));
        let cmd = parse(&argv("chaos ring:6:vc2:dateline --quick")).unwrap();
        let Command::Chaos { spec, router, .. } = cmd else {
            panic!("not chaos: {cmd:?}")
        };
        assert_eq!(spec.unwrap().to_string(), "ring:6:vc2:dateline");
        assert_eq!(router.fifo_depth, None);
    }

    #[test]
    fn router_flag_errors() {
        assert!(parse(&argv("simulate ring:6 --fifo-depth 0")).is_err());
        assert!(parse(&argv("simulate ring:6 --fifo-depth many")).is_err());
        // Replay mode takes its router config from the scenario file.
        assert!(parse(&argv("chaos --replay x.json --fifo-depth 2")).is_err());
        // Virtual channels come only from the spec grammar.
        for cmd in ["simulate", "metrics", "trace", "chaos"] {
            for flag in ["--vcs 2", "--vc-discipline dateline"] {
                let err = parse(&argv(&format!("{cmd} ring:6 {flag}"))).unwrap_err();
                assert!(err.0.contains("unexpected argument"), "{err}");
            }
        }
    }

    #[test]
    fn simulate_vc_torus_with_finite_fifos_runs_clean() {
        // End to end through the CLI: a dateline torus with 2-flit
        // FIFOs and a 1-cycle credit loop delivers without deadlock —
        // the configuration the raw torus tables would wedge under.
        let out = output(Command::Simulate {
            sim: SimRun {
                router: RouterOpts {
                    fifo_depth: Some(2),
                    credit_delay: 1,
                },
                ..sim("torus:3x3:vc2", 0.1, 4_000)
            },
            telemetry: false,
            metrics: MetricsOpts::default(),
        });
        assert!(out.contains("no deadlock"), "{out}");
        assert!(out.contains("+ 2 VCs"), "{out}");
    }

    #[test]
    fn parse_trace_flags() {
        let cmd = parse(&argv(
            "trace fat-fractahedron:2 --format chrome --out /tmp/t.json --load 0.1 --cycles 800",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                sim: sim("fat-fractahedron:2", 0.1, 800),
                format: TraceFormat::Chrome,
                out: Some("/tmp/t.json".into()),
            }
        );
        // Defaults: summary to stdout, 5k cycles, one thread.
        let cmd = parse(&argv("trace ring:4")).unwrap();
        let Command::Trace { sim, format, out } = cmd else {
            panic!("not trace: {cmd:?}")
        };
        assert_eq!(format, TraceFormat::Summary);
        assert_eq!(out, None);
        assert_eq!((sim.load, sim.cycles, sim.threads), (0.2, 5_000, 1));
        assert!(parse(&argv("trace ring:4 --threads 2")).is_err());
        assert!(parse(&argv("trace ring:4 --format xml")).is_err());
        assert!(parse(&argv("trace ring:4 --out")).is_err());
        assert!(parse(&argv("trace")).is_err());
        // --telemetry is a simulate flag, --format a trace flag.
        assert!(parse(&argv("trace ring:4 --telemetry")).is_err());
        assert!(parse(&argv("simulate ring:4 --format chrome")).is_err());
    }

    #[test]
    fn parse_simulate_fault_flags() {
        let cmd = parse(&argv(
            "simulate fat-fractahedron:1 --kill-link 3 --kill-link 9 --kill-router 2 \
             --fault-at 500 --repair-at 900 --heal --ack-timeout 32 --max-retries 6 \
             --backoff-base 8 --jitter-seed 7",
        ))
        .unwrap();
        let Command::Simulate { sim, .. } = cmd else {
            panic!("not simulate: {cmd:?}")
        };
        let faults = sim.faults;
        assert_eq!(faults.kill_links, vec![3, 9]);
        assert_eq!(faults.kill_routers, vec![2]);
        assert_eq!(faults.fault_at, 500);
        assert_eq!(faults.repair_at, Some(900));
        assert!(faults.heal);
        assert_eq!(faults.ack_timeout, 32);
        assert_eq!(faults.max_retries, 6);
        assert_eq!(faults.backoff_base, 8);
        assert_eq!(faults.jitter_seed, 7);
        assert!(parse(&argv("simulate ring:4 --kill-link nope")).is_err());
    }

    #[test]
    fn parse_simulate_gray_fault_flags() {
        let cmd = parse(&argv(
            "simulate mesh:3x3 --flaky-link 3:50 --corrupt-link 7:120 --brownout 2:16:24 \
             --fault-at 100 --repair-at 900",
        ))
        .unwrap();
        let Command::Simulate { sim, .. } = cmd else {
            panic!("not simulate: {cmd:?}")
        };
        let faults = sim.faults;
        assert_eq!(faults.flaky_links, vec![(3, 50)]);
        assert_eq!(faults.corrupt_links, vec![(7, 120)]);
        assert_eq!(faults.brownouts, vec![(2, 16, 24)]);
        assert!(parse(&argv("simulate mesh:3x3 --flaky-link 3")).is_err());
        assert!(parse(&argv("simulate mesh:3x3 --flaky-link 3:2000")).is_err());
        assert!(parse(&argv("simulate mesh:3x3 --brownout 2:16")).is_err());
        assert!(parse(&argv("simulate mesh:3x3 --corrupt-link a:b")).is_err());
    }

    #[test]
    fn parse_chaos() {
        let cmd = parse(&argv(
            "chaos fat-fractahedron:2 --runs 256 --seed 42 --quick --disable-dedup \
             --out /tmp/sc.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                router: Default::default(),
                spec: Some("fat-fractahedron:2".parse::<TopoSpec>().unwrap()),
                runs: 256,
                seed: 42,
                quick: true,
                dedup: false,
                out: Some("/tmp/sc.json".into()),
                replay: None,
                threads: 1,
                trace_out: None,
            }
        );
        let cmd = parse(&argv("chaos --replay /tmp/sc.json")).unwrap();
        let Command::Chaos { spec, replay, .. } = cmd else {
            panic!("not chaos: {cmd:?}")
        };
        assert_eq!(spec, None);
        assert_eq!(replay, Some("/tmp/sc.json".into()));
        assert!(parse(&argv("chaos")).is_err());
        assert!(parse(&argv("chaos mesh:3x3 --runs nope")).is_err());
        assert!(parse(&argv("chaos mesh:3x3 --frobnicate")).is_err());
        // The spec can also arrive via --spec.
        let flagged = parse(&argv("chaos --spec mesh:6x6 --runs 32")).unwrap();
        let Command::Chaos { spec, runs, .. } = flagged else {
            panic!("not chaos")
        };
        assert_eq!(spec, Some("mesh:6x6".parse::<TopoSpec>().unwrap()));
        assert_eq!(runs, 32);
    }

    #[test]
    fn run_simulate_with_gray_faults_reports_recovery() {
        let faults = FaultOpts {
            flaky_links: vec![(0, 1000)],
            fault_at: 500,
            repair_at: Some(1_500),
            ..FaultOpts::default()
        };
        let out = output(Command::Simulate {
            sim: SimRun {
                faults,
                ..sim("fat-fractahedron:1", 0.1, 5_000)
            },
            telemetry: false,
            metrics: MetricsOpts::default(),
        });
        assert!(out.contains("faults: 1 applied"), "{out}");
        assert!(out.contains("post-fault delivery"), "{out}");
        // A 1000‰ flaky injection link drops worms; retries redeliver.
        assert!(!out.contains("DEADLOCK"), "{out}");
    }

    #[test]
    fn chaos_smoke_campaign_exits_zero() {
        let outcome = execute(Command::Chaos {
            router: Default::default(),
            spec: Some("fat-fractahedron:1".parse::<TopoSpec>().unwrap()),
            runs: 4,
            seed: 42,
            quick: true,
            dedup: true,
            out: None,
            replay: None,
            threads: 1,
            trace_out: None,
        })
        .unwrap();
        assert_eq!(outcome.code, 0, "{}", outcome.output);
        assert!(
            outcome.output.contains("0 violation(s)"),
            "{}",
            outcome.output
        );
    }

    #[test]
    fn chaos_disable_dedup_mints_and_replays_a_scenario() {
        let path = std::env::temp_dir().join("fractanet-chaos-regression.json");
        let path_s = path.to_str().unwrap().to_string();
        let minted = execute(Command::Chaos {
            router: Default::default(),
            spec: Some("fat-fractahedron:1".parse::<TopoSpec>().unwrap()),
            runs: 4,
            seed: 42,
            quick: true,
            dedup: false,
            out: Some(path_s.clone()),
            replay: None,
            threads: 1,
            trace_out: None,
        })
        .unwrap();
        assert_eq!(minted.code, 1, "{}", minted.output);
        assert!(minted.output.contains("exactly_once"), "{}", minted.output);
        // Replayed with suppression back on, the scenario must be clean.
        let replayed = execute(Command::Chaos {
            router: Default::default(),
            spec: None,
            runs: 4,
            seed: 42,
            quick: true,
            dedup: true,
            out: None,
            replay: Some(path_s.clone()),
            threads: 1,
            trace_out: None,
        })
        .unwrap();
        assert_eq!(replayed.code, 0, "{}", replayed.output);
        assert!(
            replayed.output.contains("replay clean"),
            "{}",
            replayed.output
        );
        // And with suppression off it must reproduce.
        let reproduced = execute(Command::Chaos {
            router: Default::default(),
            spec: None,
            runs: 4,
            seed: 42,
            quick: true,
            dedup: false,
            out: None,
            replay: Some(path_s),
            threads: 1,
            trace_out: None,
        })
        .unwrap();
        assert_eq!(reproduced.code, 1, "{}", reproduced.output);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("analyze")).is_err());
        assert!(parse(&argv("simulate mesh:3x3 --load abc")).is_err());
        assert!(parse(&argv("plan")).is_err());
        assert!(parse(&argv("simulate mesh:3x3 --load 1.5")).is_err());
    }

    #[test]
    fn parse_help_variants() {
        for s in ["help", "--help", "-h", ""] {
            assert_eq!(parse(&argv(s)).unwrap(), Command::Help);
        }
    }

    #[test]
    fn run_analyze_produces_report_lines() {
        let out = output(Command::Analyze(vec!["tetrahedron"
            .parse::<TopoSpec>()
            .unwrap()]));
        assert!(out.contains("4 routers"));
        assert!(out.contains("deadlock-free"));
    }

    #[test]
    fn run_dot_produces_graphviz() {
        let out = output(Command::Dot {
            spec: "cluster:2".parse::<TopoSpec>().unwrap(),
            routers_only: true,
        });
        assert!(out.starts_with("graph"));
        assert!(out.contains(" -- "));
    }

    #[test]
    fn run_simulate_reports_deadlock_on_ring() {
        let out = output(Command::Simulate {
            sim: sim("ring:4", 0.4, 4_000),
            telemetry: false,
            metrics: MetricsOpts::default(),
        });
        // Minimal ring routing is deadlock-prone; at this load the Fig 1
        // pattern eventually forms.
        assert!(out.contains("CAN DEADLOCK"), "{out}");
    }

    #[test]
    fn run_simulate_with_fault_reports_recovery() {
        let faults = FaultOpts {
            kill_links: vec![0],
            fault_at: 1_000,
            heal: true,
            ..FaultOpts::default()
        };
        let out = output(Command::Simulate {
            sim: SimRun {
                faults,
                ..sim("fat-fractahedron:1", 0.1, 6_000)
            },
            telemetry: false,
            metrics: MetricsOpts::default(),
        });
        assert!(out.contains("faults: 1 applied"), "{out}");
        assert!(out.contains("post-fault delivery"), "{out}");
    }

    #[test]
    fn run_simulate_rejects_out_of_range_components() {
        for (links, routers) in [(vec![100_000], vec![]), (vec![], vec![100_000])] {
            let faults = FaultOpts {
                kill_links: links,
                kill_routers: routers,
                ..FaultOpts::default()
            };
            let err = execute(Command::Simulate {
                sim: SimRun {
                    faults,
                    ..sim("ring:4", 0.1, 1_000)
                },
                telemetry: false,
                metrics: MetricsOpts::default(),
            })
            .unwrap_err();
            assert!(err.0.contains("out of range"), "{err}");
        }
    }

    #[test]
    fn run_trace_chrome_emits_complete_spans() {
        let out = output(Command::Trace {
            sim: sim("fat-fractahedron:1", 0.1, 1_000),
            format: TraceFormat::Chrome,
            out: None,
        });
        assert!(out.starts_with("{\"traceEvents\":["), "{out}");
        assert!(out.contains("\"ph\":\"X\""), "{out}");
        assert!(out.contains("\"name\":\"simulation\""), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out.matches('[').count(), out.matches(']').count());
    }

    #[test]
    fn run_trace_jsonl_and_summary() {
        let mk = |format| {
            output(Command::Trace {
                sim: sim("tetrahedron", 0.1, 500),
                format,
                out: None,
            })
        };
        let jsonl = mk(TraceFormat::Jsonl);
        assert!(jsonl
            .lines()
            .next()
            .unwrap()
            .starts_with("{\"type\":\"meta\""));
        assert!(jsonl.contains("\"kind\":\"simulation\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"injected\""), "{jsonl}");
        let summary = mk(TraceFormat::Summary);
        assert!(summary.contains("utilization histogram"), "{summary}");
        assert!(summary.contains("busiest channels"), "{summary}");
    }

    #[test]
    fn run_trace_out_writes_file() {
        let path = std::env::temp_dir().join("fractanet-trace-test.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        let out = output(Command::Trace {
            sim: sim("tetrahedron", 0.1, 500),
            format: TraceFormat::Jsonl,
            out: Some(path_s.clone()),
        });
        assert!(out.contains(&path_s), "{out}");
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(written.starts_with("{\"type\":\"meta\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_simulate_telemetry_appends_summary() {
        let cmd = |telemetry| Command::Simulate {
            sim: sim("tetrahedron", 0.1, 1_000),
            telemetry,
            metrics: MetricsOpts::default(),
        };
        let plain = output(cmd(false));
        assert!(!plain.contains("utilization histogram"), "{plain}");
        let with_tel = output(cmd(true));
        assert!(with_tel.contains("utilization histogram"), "{with_tel}");
        assert!(with_tel.contains("simulated"), "{with_tel}");
    }

    #[test]
    fn run_plan_lists_options() {
        let out = output(Command::Plan {
            cpus: 128,
            bisection: 1,
        });
        assert!(out.contains("Thin N2"));
        assert!(out.contains("Fat N2"));
        let none = output(Command::Plan {
            cpus: 128,
            bisection: 100_000,
        });
        assert!(none.contains("no fractahedral configuration"));
    }

    #[test]
    fn run_help_prints_usage() {
        assert!(output(Command::Help).contains("USAGE"));
    }

    #[test]
    fn parse_lint() {
        let cmd = parse(&argv("lint fat-fractahedron:2 mesh:6x6 --json")).unwrap();
        assert_eq!(
            cmd,
            Command::Lint {
                specs: vec![
                    "fat-fractahedron:2".parse::<TopoSpec>().unwrap(),
                    "mesh:6x6".parse::<TopoSpec>().unwrap()
                ],
                json: true,
                exact: false,
                synthesize: false,
            }
        );
        assert!(parse(&argv("lint")).is_err());
        assert!(parse(&argv("lint ring:4 --frobnicate")).is_err());
        assert_eq!(
            parse(&argv("lint ring:4 --exact --synthesize")).unwrap(),
            Command::Lint {
                specs: vec!["ring:4".parse::<TopoSpec>().unwrap()],
                json: false,
                exact: true,
                synthesize: true,
            }
        );
    }

    #[test]
    fn lint_clean_topology_exits_zero() {
        let outcome = execute(Command::Lint {
            specs: vec!["fat-fractahedron:2".parse::<TopoSpec>().unwrap()],
            json: false,
            exact: false,
            synthesize: false,
        })
        .unwrap();
        assert_eq!(outcome.code, 0, "{}", outcome.output);
        assert!(outcome.output.contains("0 error(s)"), "{}", outcome.output);
    }

    #[test]
    fn lint_json_is_machine_readable() {
        let outcome = execute(Command::Lint {
            specs: vec!["fat-fractahedron:2".parse::<TopoSpec>().unwrap()],
            json: true,
            exact: false,
            synthesize: false,
        })
        .unwrap();
        assert_eq!(outcome.code, 0);
        let text = outcome.output.trim();
        assert!(text.starts_with('[') && text.ends_with(']'), "{text}");
        assert!(
            text.contains("\"subject\":\"fat-fractahedron N2\"") || text.contains("\"subject\"")
        );
        assert!(text.contains("\"clean\":true"), "{text}");
    }

    #[test]
    fn lint_fig1_ring_exits_nonzero_with_cycle_diagnostic() {
        // The acceptance gate: the Fig 1 unrestricted ring must fail
        // with an L3 diagnostic naming channels and a disable set.
        let outcome = execute(Command::Lint {
            specs: vec!["ring:4".parse::<TopoSpec>().unwrap()],
            json: false,
            exact: false,
            synthesize: false,
        })
        .unwrap();
        assert_eq!(outcome.code, 1, "{}", outcome.output);
        assert!(outcome.output.contains("L3"), "{}", outcome.output);
        assert!(
            outcome.output.contains("dependency cycle"),
            "{}",
            outcome.output
        );
        assert!(outcome.output.contains("disable"), "{}", outcome.output);
    }

    #[test]
    fn lint_multiple_specs_aggregates() {
        let outcome = execute(Command::Lint {
            specs: vec![
                "tetrahedron".parse::<TopoSpec>().unwrap(),
                "ring:4".parse::<TopoSpec>().unwrap(),
            ],
            json: false,
            exact: false,
            synthesize: false,
        })
        .unwrap();
        assert_eq!(outcome.code, 1);
        assert!(outcome.output.contains("2 configuration(s)"));
    }

    #[test]
    fn lint_exact_synthesize_reports_certificate() {
        // Exact mode on the Fig 1 ring: the L3 suggestion pins the
        // proven-minimal disable count for the installed tables (1
        // turn hits the single wrap cycle), L6 reports the gap against
        // the free-routing synthesis (0 disables), and `--synthesize`
        // replays the certificate.
        let outcome = execute(Command::Lint {
            specs: vec!["ring:4".parse::<TopoSpec>().unwrap()],
            json: false,
            exact: true,
            synthesize: true,
        })
        .unwrap();
        assert_eq!(outcome.code, 1, "{}", outcome.output);
        assert!(
            outcome
                .output
                .contains("disable 1 turn(s) (proven minimal over the 1 enumerated cycle(s))"),
            "{}",
            outcome.output
        );
        assert!(outcome.output.contains("L6"), "{}", outcome.output);
        assert!(
            outcome.output.contains("certificate replay OK (12 pairs)"),
            "{}",
            outcome.output
        );
        assert!(
            outcome.output.contains("synthesize: 0 turn disable(s)"),
            "{}",
            outcome.output
        );
    }

    #[test]
    fn lint_exact_synthesize_json_wraps_lint_and_synthesis() {
        let outcome = execute(Command::Lint {
            specs: vec!["ring:4".parse::<TopoSpec>().unwrap()],
            json: true,
            exact: true,
            synthesize: true,
        })
        .unwrap();
        let text = outcome.output.trim();
        assert!(text.starts_with('['), "{text}");
        assert!(text.contains("\"lint\":"), "{text}");
        assert!(text.contains("\"synthesis\":"), "{text}");
        assert!(text.contains("\"certificate\":"), "{text}");
        assert!(text.contains("\"replay_ok\":true"), "{text}");
        assert!(text.contains("\"rank\":"), "{text}");
    }

    #[test]
    fn lint_exact_clean_spec_stays_clean() {
        // L6 is Info severity: exact mode must not fail a spec whose
        // installed tables already certify.
        let outcome = execute(Command::Lint {
            specs: vec!["fat-fractahedron:1".parse::<TopoSpec>().unwrap()],
            json: false,
            exact: true,
            synthesize: false,
        })
        .unwrap();
        assert_eq!(outcome.code, 0, "{}", outcome.output);
        assert!(outcome.output.contains("L6"), "{}", outcome.output);
    }

    #[test]
    fn parse_metrics_flags() {
        let cmd = parse(&argv(
            "simulate ring:4 --metrics-every 50 --metrics-out /tmp/m.jsonl --slo-deadline 800",
        ))
        .unwrap();
        let Command::Simulate { metrics, .. } = cmd else {
            panic!("not simulate: {cmd:?}")
        };
        assert_eq!(metrics.every, Some(50));
        assert_eq!(metrics.out, Some("/tmp/m.jsonl".into()));
        assert_eq!(metrics.deadline, Some(800));
        // The metrics subcommand: prom by default, --out carries the
        // export path, fault flags ride along.
        let cmd = parse(&argv(
            "metrics mesh:3x3 --load 0.1 --cycles 900 --format jsonl --out /tmp/p.jsonl \
             --metrics-every 30 --kill-link 2 --fault-at 100",
        ))
        .unwrap();
        let Command::Metrics {
            sim,
            format,
            metrics,
        } = cmd
        else {
            panic!("not metrics: {cmd:?}")
        };
        assert_eq!(format, MetricsFormat::Jsonl);
        assert_eq!(metrics.out, Some("/tmp/p.jsonl".into()));
        assert_eq!(metrics.every, Some(30));
        assert_eq!(sim.faults.kill_links, vec![2]);
        assert_eq!(sim.cycles, 900);
        // Flag gating: metrics flags are not trace flags, --telemetry
        // is simulate-only, --format prom is metrics-only.
        assert!(parse(&argv("trace ring:4 --metrics-every 50")).is_err());
        assert!(parse(&argv("metrics ring:4 --telemetry")).is_err());
        assert!(parse(&argv("metrics ring:4 --format chrome")).is_err());
        assert!(parse(&argv("simulate ring:4 --format prom")).is_err());
        assert!(parse(&argv("metrics")).is_err());
    }

    #[test]
    fn parse_replay_flags() {
        assert_eq!(
            parse(&argv("replay /tmp/t.jsonl --threads 4")).unwrap(),
            Command::Replay {
                path: "/tmp/t.jsonl".into(),
                threads: Some(4),
            }
        );
        assert_eq!(
            parse(&argv("replay trace.jsonl")).unwrap(),
            Command::Replay {
                path: "trace.jsonl".into(),
                threads: None,
            }
        );
        assert!(parse(&argv("replay")).is_err());
        assert!(parse(&argv("replay --threads 4")).is_err());
        assert!(parse(&argv("replay a.jsonl b.jsonl")).is_err());
        // --trace-out is a chaos replay flag only.
        assert!(parse(&argv("chaos mesh:3x3 --trace-out /tmp/t.jsonl")).is_err());
        let cmd = parse(&argv("chaos --replay sc.json --trace-out /tmp/t.jsonl")).unwrap();
        let Command::Chaos { trace_out, .. } = cmd else {
            panic!("not chaos: {cmd:?}")
        };
        assert_eq!(trace_out, Some("/tmp/t.jsonl".into()));
    }

    #[test]
    fn simulate_metrics_out_roundtrips_through_replay() {
        // E16's blocked-head pileup: the Fig 1 ring at high load piles
        // packets up far past a tight delivery deadline, so the flight
        // recorder must dump an incident bundle next to the trace, and
        // the trace must replay exactly.
        let path = std::env::temp_dir().join("fractanet-metrics-e16.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        let out = output(Command::Simulate {
            sim: sim("ring:4", 0.6, 4_000),
            telemetry: false,
            metrics: MetricsOpts {
                every: Some(100),
                out: Some(path_s.clone()),
                deadline: Some(32),
            },
        });
        assert!(out.contains("metrics:"), "{out}");
        assert!(out.contains("SLO:"), "{out}");
        assert!(out.contains("anomaly @"), "{out}");
        assert!(out.contains("wrote incident bundle"), "{out}");
        let bundle_path = incident_path(&path_s);
        let bundle = std::fs::read_to_string(&bundle_path).unwrap();
        assert!(bundle.starts_with("{\"traceEvents\":["), "{bundle}");
        assert!(bundle.contains("\"ph\":\"i\""), "{bundle}");
        assert!(bundle.contains("slo_breach"), "{bundle}");
        // The recorded trace replays exactly, at an overridden width
        // too.
        for threads in [None, Some(2)] {
            let outcome = execute(Command::Replay {
                path: path_s.clone(),
                threads,
            })
            .unwrap();
            assert_eq!(outcome.code, 0, "{}", outcome.output);
            assert!(
                outcome.output.contains("replay exact"),
                "{}",
                outcome.output
            );
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&bundle_path).ok();
    }

    #[test]
    fn metrics_command_exports_prometheus() {
        let out = output(Command::Metrics {
            sim: sim("tetrahedron", 0.1, 1_000),
            format: MetricsFormat::Prometheus,
            metrics: MetricsOpts::default(),
        });
        assert!(out.contains("fractanet_generated_total"), "{out}");
        assert!(out.contains("topology=\"clique 4x6p\""), "{out}");
        assert!(out.contains("fractanet_latency_cycles"), "{out}");
        assert!(out.contains("fractanet_slo_within_deadline_ratio"), "{out}");
    }

    #[test]
    fn replay_detects_a_tampered_trace() {
        let path = std::env::temp_dir().join("fractanet-metrics-tamper.jsonl");
        let path_s = path.to_str().unwrap().to_string();
        output(Command::Metrics {
            sim: sim("tetrahedron", 0.1, 1_000),
            format: MetricsFormat::Jsonl,
            metrics: MetricsOpts {
                every: Some(100),
                out: Some(path_s.clone()),
                deadline: None,
            },
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let trace = parse_trace(&text).unwrap();
        let tampered = text.replace(
            &format!("\"delivered\":{}", trace.expected.delivered),
            &format!("\"delivered\":{}", trace.expected.delivered + 1),
        );
        std::fs::write(&path, tampered.as_bytes()).unwrap();
        let outcome = execute(Command::Replay {
            path: path_s,
            threads: None,
        })
        .unwrap();
        assert_eq!(outcome.code, 1, "{}", outcome.output);
        assert!(outcome.output.contains("MISMATCH"), "{}", outcome.output);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chaos_trace_out_mints_a_replayable_incident() {
        // Mint a dedup-off exactly-once scenario, then replay it with
        // --trace-out: the incident's metrics trace must itself replay
        // exactly through `fractanet replay`.
        let sc_path = std::env::temp_dir().join("fractanet-chaos-incident-sc.json");
        let sc_s = sc_path.to_str().unwrap().to_string();
        let tr_path = std::env::temp_dir().join("fractanet-chaos-incident.jsonl");
        let tr_s = tr_path.to_str().unwrap().to_string();
        let minted = execute(Command::Chaos {
            router: Default::default(),
            spec: Some("fat-fractahedron:1".parse::<TopoSpec>().unwrap()),
            runs: 4,
            seed: 42,
            quick: true,
            dedup: false,
            out: Some(sc_s.clone()),
            replay: None,
            threads: 1,
            trace_out: None,
        })
        .unwrap();
        assert_eq!(minted.code, 1, "{}", minted.output);
        let replayed = execute(Command::Chaos {
            router: Default::default(),
            spec: None,
            runs: 4,
            seed: 42,
            quick: true,
            dedup: false,
            out: None,
            replay: Some(sc_s.clone()),
            threads: 1,
            trace_out: Some(tr_s.clone()),
        })
        .unwrap();
        assert_eq!(replayed.code, 1, "{}", replayed.output);
        assert!(
            replayed.output.contains("wrote metrics trace"),
            "{}",
            replayed.output
        );
        assert!(
            replayed.output.contains("wrote incident bundle"),
            "{}",
            replayed.output
        );
        let bundle_path = incident_path(&tr_s);
        let bundle = std::fs::read_to_string(&bundle_path).unwrap();
        assert!(bundle.contains("invariant_violation"), "{bundle}");
        let outcome = execute(Command::Replay {
            path: tr_s,
            threads: None,
        })
        .unwrap();
        assert_eq!(outcome.code, 0, "{}", outcome.output);
        assert!(
            outcome.output.contains("replay exact"),
            "{}",
            outcome.output
        );
        std::fs::remove_file(&sc_path).ok();
        std::fs::remove_file(&tr_path).ok();
        std::fs::remove_file(&bundle_path).ok();
    }
}
