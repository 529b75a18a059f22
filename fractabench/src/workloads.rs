//! The four workloads: what one pass runs, what it checks, and the
//! per-layer probes of a traced run.
//!
//! Every pass is the pipeline a user waits for — spec → built system →
//! certification → simulation → rendered report — with the weight put
//! on a different layer in each workload. All passes of one run use
//! the same seed, so they repeat the same work and their timings can
//! be summarised by a median or by the fastest pass.

use crate::trace::Tracer;
use fractanet::deadlock::ChannelDependencyGraph;
use fractanet::graph::{LinkId, Network};
use fractanet::metrics::max_link_contention_paths;
use fractanet::prelude::*;
use fractanet::route::{dor, fractal};
use fractanet::sim::SimResult;
use fractanet_telemetry::to_prometheus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

pub const DEFAULT_SEED: u64 = 0x5CA1_AB1E;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Certify,
    MeshSparse,
    FractaSaturated,
    FaultHeal,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Certify,
        Kind::MeshSparse,
        Kind::FractaSaturated,
        Kind::FaultHeal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Certify => "certify",
            Kind::MeshSparse => "mesh-sparse",
            Kind::FractaSaturated => "fracta-saturated",
            Kind::FaultHeal => "fault-heal",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// `Full` is the measured benchmark; `Smoke` shrinks every system so
/// the whole pipeline runs in seconds in a debug build (tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// How much certification a stage runs on its system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cert {
    /// The Dally–Seitz check of the installed tables: what a user runs
    /// before trusting a simulation of them.
    Verify,
    /// `lint` + `analyze`.
    Lint,
    /// `lint` + `lint_exact` + `analyze`.
    Exact,
}

/// Open-loop Bernoulli uniform traffic at `load` flits/node/cycle,
/// generated until `until`, then drained.
#[derive(Clone, Copy, Debug)]
struct SimCase {
    load: f64,
    flits: u32,
    until: u64,
    /// Adds the fault-heal scenario: a permanent link kill healed
    /// mid-run, flaky/corrupt/brownout links, speculative retransmit,
    /// a credit delay of 2 and live metrics.
    faulted: bool,
}

struct Stage {
    spec: &'static str,
    cert: Cert,
    synth: bool,
    sim: Option<SimCase>,
}

pub struct Plan {
    stages: Vec<Stage>,
    /// The system the traced run's layer probes measure.
    pub primary: &'static str,
}

pub fn plan(kind: Kind, scale: Scale) -> Plan {
    let smoke = scale == Scale::Smoke;
    let sim_stage = |spec, case| Stage {
        spec,
        cert: Cert::Verify,
        synth: false,
        sim: Some(case),
    };
    let one = |spec, case| Plan {
        stages: vec![sim_stage(spec, case)],
        primary: spec,
    };
    match kind {
        Kind::Certify => {
            // The dynamic half of the certificate: every statically
            // acyclic paper system must also drain in the simulator.
            let drain = Some(SimCase {
                load: 0.2,
                flits: 8,
                until: if smoke { 300 } else { 2_000 },
                faulted: false,
            });
            // Smoke scale keeps the exact decision only where it is
            // cheapest: it dominates a debug build's pass otherwise.
            let paper = |spec, sim| Stage {
                spec,
                cert: if smoke && spec != "ring:8" {
                    Cert::Lint
                } else {
                    Cert::Exact
                },
                synth: spec == "ring:8",
                sim,
            };
            let mut stages = vec![
                paper("fat-fractahedron:2", drain),
                paper("thin-fractahedron:2", drain),
                paper("mesh:6x6", drain),
                paper("fattree:64:4:2", drain),
                paper("hypercube:5", drain),
                paper("tetrahedron", drain),
                paper("torus:4x4", None),
                paper("torus:4x4:vc2:dateline", drain),
                paper("ring:8", None),
            ];
            let at_scale = |spec, cert| Stage {
                spec,
                cert,
                synth: false,
                sim: None,
            };
            if smoke {
                stages.push(at_scale("mesh:8x8", Cert::Lint));
                Plan {
                    stages,
                    primary: "mesh:8x8",
                }
            } else {
                stages.push(at_scale("mesh:10x10", Cert::Exact));
                stages.push(at_scale("fat-fractahedron:3", Cert::Lint));
                stages.push(at_scale("mesh:12x12", Cert::Lint));
                Plan {
                    stages,
                    primary: "mesh:12x12",
                }
            }
        }
        Kind::MeshSparse => one(
            if smoke { "mesh:8x8" } else { "mesh:24x24" },
            SimCase {
                load: 0.01,
                flits: 8,
                until: if smoke { 2_000 } else { 30_000 },
                faulted: false,
            },
        ),
        Kind::FractaSaturated => one(
            if smoke {
                "fat-fractahedron:2"
            } else {
                "fat-fractahedron:3"
            },
            SimCase {
                load: 0.5,
                flits: 8,
                until: if smoke { 200 } else { 1_500 },
                faulted: false,
            },
        ),
        Kind::FaultHeal => one(
            if smoke {
                "fat-fractahedron:2"
            } else {
                "fat-fractahedron:3"
            },
            SimCase {
                load: 0.02,
                flits: 16,
                until: if smoke { 4_000 } else { 40_000 },
                faulted: true,
            },
        ),
    }
}

/// Pass/fail accounting. `ops` counts packets generated plus verdicts
/// checked; `failed_ops` counts packets not delivered (abandoned
/// included) plus verdicts that did not hold.
#[derive(Default)]
pub struct Checks {
    pub ops: u64,
    pub failed_ops: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn verdict(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failed_ops += 1;
            self.failures.push(what());
        }
    }

    fn packets(&mut self, generated: usize, delivered: usize) {
        self.ops += generated as u64;
        self.failed_ops += generated.saturating_sub(delivered) as u64;
    }

    pub fn absorb(&mut self, other: Checks) {
        self.ops += other.ops;
        self.failed_ops += other.failed_ops;
        self.failures.extend(other.failures);
    }
}

/// What one simulation in a pass did.
pub struct SimSample {
    pub wall: f64,
    pub cycles: u64,
    pub packets: u64,
    /// Flit transfers into channel FIFOs (`credits.consumed`).
    pub flit_hops: u64,
    pub stalls: u64,
    /// Channel-VC slots the engine scans each cycle.
    pub slots: u64,
}

#[derive(Default)]
pub struct Pass {
    pub wall: f64,
    /// Σ spec → built `System` over the pass's stages.
    pub setup: f64,
    /// Σ certification calls over the pass's stages.
    pub certify: f64,
    pub sims: Vec<SimSample>,
    /// Golden digest of every `SimResult` in the pass.
    pub digest: String,
    pub checks: Checks,
}

impl Pass {
    pub fn sim_wall(&self) -> f64 {
        self.sims.iter().map(|s| s.wall).sum()
    }

    pub fn sim_sum(&self, f: impl Fn(&SimSample) -> u64) -> u64 {
        self.sims.iter().map(f).sum()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn build(spec: &str) -> System {
    spec.parse::<TopoSpec>()
        .expect("workload specs are valid")
        .build()
}

/// Runs one pass of the plan's pipeline.
pub fn run_pass(plan: &Plan, seed: u64, tr: &mut Tracer) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut report = String::new();
    tr.enter("pass");
    for stage in &plan.stages {
        let (sys, secs) = timed(|| tr.leaf("fractanet.build", || build(stage.spec)));
        pass.setup += secs;
        pass.certify += certify(stage, &sys, tr, &mut pass.checks, &mut report);
        if let Some(case) = &stage.sim {
            let (cfg, wl) = sim_setup(&sys, case, seed);
            let (res, wall) =
                timed(|| tr.leaf("sim.run", || simulate(&sys, case, cfg.clone(), wl)));
            check_sim(stage.spec, case, &res, &mut pass.checks);
            pass.digest.push_str(&digest(stage.spec, &res));
            pass.sims.push(SimSample {
                wall,
                cycles: res.cycles,
                packets: res.generated as u64,
                flit_hops: res.credits.consumed,
                stalls: res.credits.stalls,
                slots: (sys.net().channel_count() * sys.vc().map_or(1, |v| v.0 as usize)) as u64,
            });
            tr.enter("report");
            render_sim(stage.spec, case, &cfg, &res, tr, &mut report);
            tr.exit();
        }
    }
    tr.exit();
    black_box(report);
    pass.wall = start.elapsed().as_secs_f64();
    pass
}

/// The statically cyclic paper examples: Fig 1's ring and the torus
/// whose wrap cables close a cycle in each dimension.
fn is_cyclic(spec: &str) -> bool {
    matches!(spec, "ring:8" | "torus:4x4")
}

/// Certifies one stage's system, checks the verdicts and renders them;
/// returns the seconds spent in the certification calls alone.
fn certify(
    stage: &Stage,
    sys: &System,
    tr: &mut Tracer,
    checks: &mut Checks,
    report: &mut String,
) -> f64 {
    let spec = stage.spec;
    let start = Instant::now();
    tr.enter("certify");
    if stage.cert == Cert::Verify {
        let ok = tr.leaf("deadlock.verify", || {
            verify_deadlock_free_tables(sys.net(), sys.end_nodes(), sys.routes()).is_ok()
        });
        tr.exit();
        checks.verdict(ok, || {
            format!("{spec}: canonical tables are not deadlock-free")
        });
        return start.elapsed().as_secs_f64();
    }
    let lint = tr.leaf("lint.check", || sys.lint());
    let exact = (stage.cert == Cert::Exact).then(|| tr.leaf("lint.exact", || sys.lint_exact()));
    let a = tr.leaf("metrics.analyze", || sys.analyze());
    let synth = stage
        .synth
        .then(|| tr.leaf("deadlock.synth_exact", || sys.synthesize_exact()));
    tr.exit();
    let secs = start.elapsed().as_secs_f64();

    let cyclic = is_cyclic(spec);
    checks.verdict(a.deadlock_free != cyclic, || {
        format!("{spec}: analyze says deadlock_free = {}", a.deadlock_free)
    });
    checks.verdict(lint.is_clean() != cyclic, || {
        format!("{spec}: lint clean = {}: {lint}", lint.is_clean())
    });
    if let Some(e) = &exact {
        checks.verdict(e.is_clean() != cyclic, || {
            format!("{spec}: lint --exact clean = {}: {e}", e.is_clean())
        });
    }
    if let Some(s) = synth {
        let disables = s.map(|s| s.disables()).ok();
        checks.verdict(disables == Some(2), || {
            format!("{spec}: exact synthesis disabled {disables:?} turns, expected 2")
        });
    }
    // Table 1 / Table 2 values from the paper.
    let mut paper = |what: &str, ok: bool| {
        checks.verdict(ok, || format!("{spec}: {what} differs from the paper: {a}"));
    };
    match spec {
        "fat-fractahedron:2" => {
            paper("48 routers", a.routers == 48);
            paper("4.30 avg hops", (a.avg_hops - 271.0 / 63.0).abs() < 1e-9);
            paper("8:1 contention", a.worst_contention == 8);
            paper("bisection 16", a.bisection_links == 16);
        }
        "fattree:64:4:2" => paper("12:1 contention", a.worst_contention == 12),
        "mesh:6x6" => paper("10:1 contention", a.worst_contention == 10),
        _ => {}
    }
    report.push_str(&format!("{a}\n"));
    report.push_str(&lint.to_json());
    secs
}

/// Deterministically picks `count` inter-router links spread across
/// the fabric.
fn victims(net: &Network, count: usize) -> Vec<LinkId> {
    let pool: Vec<LinkId> = net
        .links()
        .filter(|&l| {
            let info = net.link(l);
            net.is_router(info.a.0) && net.is_router(info.b.0)
        })
        .collect();
    let stride = pool.len() / count;
    (0..count).map(|i| pool[i * stride]).collect()
}

/// The fault-heal timeline, scaled to the generation window: gray
/// failures from 20% and 33% of it, the permanent kill at 25%, and
/// every transient repaired at 75%, so the tail of the run exercises
/// recovery on healed tables.
fn fault_schedule(net: &Network, until: u64) -> Vec<FaultEvent> {
    let v = victims(net, 4);
    let (gray, late, repair) = (until / 5, until / 3, until * 3 / 4);
    vec![
        FaultEvent::kill_link(v[0], until / 4),
        FaultEvent::flaky_link(v[1], 20, gray).transient(repair),
        FaultEvent::corrupt_link(v[2], 10, gray).transient(repair),
        FaultEvent::brownout(v[3], 40, 200, late).transient(repair),
    ]
}

fn metrics_on(sys: &System) -> MetricsConfig {
    MetricsConfig::sampling(500)
        .with_deadline(400)
        .with_topology(&sys.name())
}

fn sim_setup(sys: &System, case: &SimCase, seed: u64) -> (SimConfig, Workload) {
    let mut cfg = SimConfig {
        packet_flits: case.flits,
        buffer_depth: 4,
        // Hard stops far beyond the drain, so only a real hang ends a
        // run early.
        max_cycles: case.until * 20 + 50_000,
        stall_threshold: 8_000,
        seed,
        ..SimConfig::default()
    };
    if case.faulted {
        cfg = cfg
            .with_credit_delay(2)
            .with_ack_retransmit(true)
            .with_retry(RetryPolicy {
                ack_timeout: 128,
                max_retries: 10,
                ..RetryPolicy::default()
            })
            .with_faults(fault_schedule(sys.net(), case.until))
            .with_metrics(metrics_on(sys));
    }
    let wl = Workload::Bernoulli {
        injection_rate: case.load,
        pattern: DstPattern::Uniform,
        until_cycle: case.until,
    };
    (cfg, wl)
}

fn simulate(sys: &System, case: &SimCase, cfg: SimConfig, wl: Workload) -> SimResult {
    if case.faulted {
        sys.simulate_healing(wl, cfg)
    } else {
        sys.simulate(wl, cfg)
    }
}

fn check_sim(spec: &str, case: &SimCase, r: &SimResult, checks: &mut Checks) {
    checks.packets(r.generated, r.delivered);
    checks.verdict(r.deadlock.is_none(), || format!("{spec}: deadlocked"));
    checks.verdict(r.credits.is_conserved(), || {
        format!("{spec}: credits not conserved: {:?}", r.credits)
    });
    if case.faulted {
        let abandoned = r.recovery.abandoned.len();
        checks.verdict(r.delivered + abandoned == r.generated, || {
            format!(
                "{spec}: {} delivered + {abandoned} abandoned != {} generated",
                r.delivered, r.generated
            )
        });
        checks.verdict(r.recovery.repairs_installed >= 1, || {
            format!("{spec}: the killed link was never healed")
        });
    } else {
        checks.verdict(r.delivered == r.generated, || {
            format!("{spec}: {} of {} delivered", r.delivered, r.generated)
        });
    }
}

/// The user-visible output of a simulation: a summary line, plus the
/// Prometheus exposition and the replayable JSONL trace when live
/// metrics were on.
fn render_sim(
    spec: &str,
    case: &SimCase,
    cfg: &SimConfig,
    r: &SimResult,
    tr: &mut Tracer,
    report: &mut String,
) {
    report.push_str(&format!(
        "{spec}: {} cycles, {}/{} delivered, avg latency {:.1}, p95 {}\n",
        r.cycles, r.delivered, r.generated, r.avg_latency, r.p95_latency
    ));
    if let Some(m) = &r.metrics {
        tr.leaf("telemetry.export", || {
            report.push_str(&to_prometheus(m));
            report.push_str(&write_trace(spec, case.faulted, cfg, m));
        });
    }
}

fn fnv1a(xs: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in xs.iter().flat_map(|x| x.to_le_bytes()) {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The golden line of one `SimResult`: everything the simulation
/// decides, and nothing the quantile sketches decide.
fn digest(spec: &str, r: &SimResult) -> String {
    let rec = &r.recovery;
    format!(
        "{spec} cycles={} generated={} delivered={} avg_latency_bits={:#018x} p95={} max={} \
         credits={}/{}/{} retries={} nacks={} duplicates={} abandoned={} repairs={} \
         time_to_recover={:?} dropped={} flaky={} corrupted={} deadlock={} busy_fnv={:#018x}\n",
        r.cycles,
        r.generated,
        r.delivered,
        r.avg_latency.to_bits(),
        r.p95_latency,
        r.max_latency,
        r.credits.consumed,
        r.credits.returned,
        r.credits.stalls,
        rec.retries,
        rec.nacks,
        rec.duplicates_suppressed,
        rec.abandoned.len(),
        rec.repairs_installed,
        rec.time_to_recover,
        rec.dropped_worms,
        rec.flaky_drops,
        rec.corrupted_worms,
        r.deadlock.is_some(),
        fnv1a(&r.channel_busy),
    )
}

/// `VmHWM` of this process in KiB, from `/proc/self/status`.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One measured number, with the samples it summarises.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// What the layer probes of a traced run measured, for the caller to
/// finish once the passes have run.
pub struct Probes {
    pub metrics: Vec<Metric>,
    /// Golden digests of the reruns (2 threads, metrics on, metrics
    /// off), each of which must equal the passes' digest.
    pub rerun_digests: Vec<(&'static str, String)>,
    pub t2_cycles_per_s: f64,
}

/// Median wall of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    crate::stats::median(&secs)
}

/// Times each layer's kernel on the plan's primary system, outside the
/// passes. Runs before the passes so that the contention probe's
/// memory growth is measured from the low water mark of one build.
pub fn probes(plan: &Plan, seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Probes {
    let mut m = Vec::new();
    let sys = build(plan.primary);
    let (net, ends, routes) = (sys.net(), sys.end_nodes(), sys.routes());

    let hwm0 = peak_rss_kib().unwrap_or(0);
    let (_, s) = timed(|| {
        tr.leaf("metrics.contention", || {
            black_box(max_link_contention_paths(
                net,
                Paths::tables(net, ends, routes),
            ))
        })
    });
    let grown = peak_rss_kib().unwrap_or(0).saturating_sub(hwm0);
    m.push(metric("metrics.contention_s", "s", s, 1));
    m.push(metric(
        "metrics.contention_peak_mb",
        "MB",
        grown as f64 / 1024.0,
        1,
    ));

    let s = median_secs(3, || {
        tr.leaf("metrics.hops", || {
            black_box(HopStats::routed_tables(net, ends, routes));
        })
    });
    m.push(metric("metrics.hops_s", "s", s, 3));
    let s = median_secs(3, || {
        tr.leaf("metrics.bisection", || {
            black_box(bisection_estimate(net, ends, 4));
        })
    });
    m.push(metric("metrics.bisection_s", "s", s, 3));

    // The build split into its two layers.
    let spec: TopoSpec = plan.primary.parse().expect("primary spec is valid");
    let mut topo_s = Vec::new();
    let mut gen_s = Vec::new();
    for _ in 0..3 {
        let (t, g) = match spec {
            TopoSpec::Mesh { cols, rows } => {
                let (mesh, t) = timed(|| {
                    tr.leaf("topo.build", || {
                        Mesh2D::new(cols, rows, 2, 6).expect("valid mesh")
                    })
                });
                let (r, g) = timed(|| tr.leaf("route.table_gen", || dor::mesh_xy_routes(&mesh)));
                checks.verdict(&r == routes, || format!("{spec}: split build differs"));
                (t, g)
            }
            TopoSpec::FatFractahedron { levels } => {
                let (f, t) = timed(|| {
                    tr.leaf("topo.build", || {
                        Fractahedron::new(levels, Variant::Fat, false).expect("valid fractahedron")
                    })
                });
                let (r, g) = timed(|| tr.leaf("route.table_gen", || fractal::fractal_routes(&f)));
                checks.verdict(&r == routes, || format!("{spec}: split build differs"));
                (t, g)
            }
            _ => unreachable!("primary systems are meshes or fat fractahedrons"),
        };
        topo_s.push(t);
        gen_s.push(g);
    }
    m.push(metric(
        "topo.build_s",
        "s",
        crate::stats::median(&topo_s),
        3,
    ));
    m.push(metric(
        "route.table_gen_s",
        "s",
        crate::stats::median(&gen_s),
        3,
    ));
    m.push(metric(
        "route.table_bytes",
        "bytes",
        routes.resident_bytes() as f64,
        1,
    ));

    // 1M seeded table lookups.
    let routers: Vec<NodeId> = net.routers().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let queries: Vec<(NodeId, usize)> = (0..1_000_000)
        .map(|_| {
            (
                routers[rng.gen_range(0..routers.len())],
                rng.gen_range(0..ends.len()),
            )
        })
        .collect();
    let (_, s) = timed(|| {
        tr.leaf("route.lookup", || {
            queries
                .iter()
                .filter(|&&(r, d)| black_box(routes.get(r, d)).is_some())
                .count()
        })
    });
    m.push(metric(
        "route.lookup_ns",
        "ns",
        s * 1e9 / queries.len() as f64,
        1,
    ));

    // Every pair's route walked hop by hop, as the analyses do.
    let (hops, s) = timed(|| {
        tr.leaf("route.trace", || {
            let mut hops = 0u64;
            for src in 0..ends.len() {
                for dst in 0..ends.len() {
                    hops += routes.path_iter(net, ends, src, dst).count() as u64;
                }
            }
            hops
        })
    });
    m.push(metric(
        "route.trace_ns_per_hop",
        "ns",
        s * 1e9 / hops.max(1) as f64,
        1,
    ));

    let (cdg, s) = timed(|| {
        tr.leaf("deadlock.cdg_build", || {
            ChannelDependencyGraph::from_tables(net, ends, routes)
        })
    });
    m.push(metric("deadlock.cdg_build_s", "s", s, 1));
    m.push(metric(
        "deadlock.cdg_edges",
        "count",
        cdg.dependency_count() as f64,
        1,
    ));
    drop(cdg);

    let (lint, s) = timed(|| tr.leaf("lint.check", || sys.lint()));
    checks.verdict(lint.is_clean(), || {
        format!("{}: lint: {lint}", plan.primary)
    });
    m.push(metric("lint.check_s", "s", s, 1));

    let mut faults = FaultSet::none();
    faults.kill_link(victims(net, 1)[0]);
    let (healed, s) = timed(|| tr.leaf("servernet.heal", || heal(net, ends, &faults)));
    checks.verdict(healed.is_ok(), || format!("{}: heal failed", plan.primary));
    m.push(metric("servernet.heal_s", "s", s, 1));

    // Reruns of the pass's simulations, summed over its sim stages.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let (mut cycles, mut traffic_s, mut on_s, mut off_s, mut t2_s) = (0u64, 0.0, 0.0, 0.0, 0.0);
    let (mut export_s, mut trace_bytes) = (0.0, 0usize);
    let (mut d_t2, mut d_on, mut d_off) = (String::new(), String::new(), String::new());
    for stage in &plan.stages {
        let Some(case) = &stage.sim else { continue };
        let sys = build(stage.spec);
        let (cfg, wl) = sim_setup(&sys, case, seed);

        let mut off = cfg.clone();
        off.metrics = MetricsConfig::off();
        let (r, s) = timed(|| {
            tr.leaf("sim.run_metrics_off", || {
                simulate(&sys, case, off, wl.clone())
            })
        });
        off_s += s;
        cycles += r.cycles;
        d_off.push_str(&digest(stage.spec, &r));

        let on = cfg.clone().with_metrics(metrics_on(&sys));
        let (r, s) = timed(|| {
            tr.leaf("sim.run_metrics_on", || {
                simulate(&sys, case, on.clone(), wl.clone())
            })
        });
        on_s += s;
        d_on.push_str(&digest(stage.spec, &r));
        let report = r.metrics.as_ref().expect("metrics were on");
        let (bytes, s) = timed(|| {
            tr.leaf("telemetry.export", || {
                black_box(to_prometheus(report));
                write_trace(stage.spec, case.faulted, &on, report).len()
            })
        });
        export_s += s;
        trace_bytes += bytes;

        let (r, s) = timed(|| {
            tr.leaf("sim.run_t2", || {
                simulate(&sys, case, cfg.clone().with_threads(threads), wl.clone())
            })
        });
        t2_s += s;
        d_t2.push_str(&digest(stage.spec, &r));

        // Traffic generation alone, for the same nodes and cycles.
        let mut gen = wl.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = sys.end_nodes().len();
        let (_, s) = timed(|| {
            tr.leaf("sim.traffic", || {
                (0..r.cycles)
                    .map(|c| black_box(gen.generate(c, n, case.flits, &mut rng)).len())
                    .sum::<usize>()
            })
        });
        traffic_s += s;
    }
    m.push(metric(
        "sim.traffic_ns_per_cycle",
        "ns",
        traffic_s * 1e9 / cycles as f64,
        1,
    ));
    m.push(metric(
        "telemetry.metrics_overhead",
        "ratio",
        on_s / off_s,
        1,
    ));
    m.push(metric("telemetry.export_s", "s", export_s, 1));
    m.push(metric(
        "telemetry.trace_bytes",
        "bytes",
        trace_bytes as f64,
        1,
    ));
    Probes {
        metrics: m,
        rerun_digests: vec![
            ("2 threads", d_t2),
            ("metrics on", d_on),
            ("metrics off", d_off),
        ],
        t2_cycles_per_s: cycles as f64 / t2_s,
    }
}
