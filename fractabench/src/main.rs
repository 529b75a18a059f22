//! fractabench — end-to-end and per-layer numbers for the fractanet
//! pipeline (spec → build → certify → simulate → report).
//!
//! ```text
//! cargo run --release --manifest-path fractabench/Cargo.toml -- \
//!     --workload <certify|mesh-sparse|fracta-saturated|fault-heal|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out DIR] [--bless]
//! ```
//!
//! One run makes a warm-up pass of its workload, then repeats the pass
//! for `--seconds` (at least [`MIN_PASSES`] times more) and reports the
//! median set-up time and the fastest pass's other timings. The last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics of `BENCHMARK.json`, or with
//! `--trace 1` its per-layer metrics). See `fractabench/README.md`.

mod json;
mod stats;
mod trace;
mod workloads;

use fractanet_graph::json::JsonObject;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use workloads::{metric, Checks, Kind, Metric, Pass, Scale, DEFAULT_SEED};

/// The metric catalogue the results are checked against.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Timed passes every run makes after its warm-up however short
/// `--seconds` is, so that every timing has at least three samples.
const MIN_PASSES: usize = 3;

const USAGE: &str =
    "usage: fractabench --workload <certify|mesh-sparse|fracta-saturated|fault-heal|all> \
[--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out DIR] [--bless]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<usize>,
    out: PathBuf,
    bless: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        runs: None,
        out: PathBuf::from("target/fractabench"),
        bless: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => {
                a.seed = match v.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                }
                .map_err(|_| bad())?
            }
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| bad())?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => a.runs = Some(v.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?),
            "--out" => a.out = PathBuf::from(&v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && Kind::parse(&a.workload).is_none() {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// Everything one run of one workload produced.
struct Outcome {
    kind: Kind,
    seed: u64,
    passes: usize,
    elapsed: f64,
    checks: Checks,
    metrics: Vec<Metric>,
    tracer: Tracer,
    /// Traced over untraced median pass wall, in a traced run.
    trace_overhead: Option<f64>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.checks.failures.is_empty()
    }

    /// Any failed check fails every operation of the run.
    fn failed(&self) -> u64 {
        if self.correct() {
            self.checks.failed_ops
        } else {
            self.checks.ops
        }
    }

    fn json_line(&self) -> String {
        let mut ms = JsonObject::new();
        for m in &self.metrics {
            ms = ms.field_raw(
                m.name,
                &JsonObject::new()
                    .field_num("value", m.value)
                    .field_str("unit", m.unit)
                    .build(),
            );
        }
        JsonObject::new()
            .field_bool("correct", self.correct())
            .field_num("attempted", self.checks.ops.max(1))
            .field_num("failed", self.failed())
            .field_raw("metrics", &ms.build())
            .build()
    }
}

fn golden_path(kind: Kind) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.txt", kind.name()))
}

/// Runs one workload: passes for `seconds`, then its metrics.
fn run(kind: Kind, scale: Scale, seed: u64, seconds: f64, traced: bool, bless: bool) -> Outcome {
    let plan = workloads::plan(kind, scale);
    let mut tracer = Tracer::new(traced);
    let mut checks = Checks::default();
    let probes = traced.then(|| workloads::probes(&plan, seed, &mut tracer, &mut checks));

    let start = Instant::now();
    // Pass 0 warms up (first-touch page faults, cold caches) and no
    // timing counts it. A traced run then alternates traced and
    // untraced passes; the two halves give the tracing overhead.
    let min_passes = 1 + if traced { MIN_PASSES + 1 } else { MIN_PASSES };
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes
        || start.elapsed().as_secs_f64() + passes.last().map_or(0.0, |p| p.wall) <= seconds
    {
        tracer.on = traced && passes.len() % 2 == 1;
        tracer.set_pass(Some(passes.len()));
        passes.push(workloads::run_pass(&plan, seed, &mut tracer));
    }
    tracer.on = traced;
    let elapsed = start.elapsed().as_secs_f64();

    let digest = passes[0].digest.clone();
    for (i, p) in passes.iter_mut().enumerate() {
        checks.verdict(p.digest == digest, || {
            format!("pass {i} simulated differently from pass 0 at the same seed")
        });
        checks.absorb(std::mem::take(&mut p.checks));
    }
    if scale == Scale::Full && seed == DEFAULT_SEED {
        let path = golden_path(kind);
        if bless {
            std::fs::write(&path, &digest).expect("write the golden digest");
            eprintln!("blessed {}", path.display());
        } else {
            let want = std::fs::read_to_string(&path).unwrap_or_default();
            checks.verdict(want == digest, || {
                format!(
                    "golden digest mismatch ({}):\n  want {want}  got  {digest}",
                    path.display()
                )
            });
        }
    }

    // Timings come from the passes after the warm-up: set-up time is
    // their median, every other timing the fastest pass (see
    // `stats::min`).
    let timed = &passes[1..];
    let n = timed.len();
    let of = |f: &dyn Fn(&Pass) -> f64| timed.iter().map(f).collect::<Vec<_>>();
    let med = |f: &dyn Fn(&Pass) -> f64| stats::median(&of(f));
    let best = |f: &dyn Fn(&Pass) -> f64| stats::min(&of(f));
    let sim_wall = best(&|p| p.sim_wall());
    let sim_rate = passes[0].sim_sum(|s| s.cycles) as f64 / sim_wall;
    let mut metrics = Vec::new();
    let mut trace_overhead = None;
    if let Some(probes) = probes {
        for (what, d) in &probes.rerun_digests {
            checks.verdict(d == &digest, || {
                format!("the {what} rerun simulated differently")
            });
        }
        let p0 = &passes[0];
        let hops = p0.sim_sum(|s| s.flit_hops) as f64;
        let stalls = p0.sim_sum(|s| s.stalls) as f64;
        let cycles = p0.sim_sum(|s| s.cycles) as f64;
        let slot_cycles = p0.sim_sum(|s| s.slots * s.cycles) as f64;
        metrics = probes.metrics;
        metrics.extend([
            metric("sim.run_s", "s", sim_wall, n),
            metric("sim.ns_per_cycle", "ns", 1e9 / sim_rate, n),
            metric("sim.ns_per_flit_hop", "ns", sim_wall * 1e9 / hops, n),
            metric("sim.cycles", "count", cycles, 1),
            metric("sim.flit_hops", "count", hops, 1),
            metric("sim.packets", "count", p0.sim_sum(|s| s.packets) as f64, 1),
            metric("sim.active_fraction", "ratio", hops / slot_cycles, 1),
            metric(
                "sim.credit_stall_ratio",
                "ratio",
                stalls / (stalls + hops),
                1,
            ),
            metric("sim.t2_cycles_per_s", "1/s", probes.t2_cycles_per_s, 1),
            metric(
                "sim.t2_speedup",
                "ratio",
                probes.t2_cycles_per_s / sim_rate,
                1,
            ),
        ]);
        let walls = |parity| {
            let w: Vec<f64> = timed
                .iter()
                .skip(parity)
                .step_by(2)
                .map(|p| p.wall)
                .collect();
            stats::median(&w)
        };
        trace_overhead = Some(walls(0) / walls(1));
    } else {
        let peak_kib = workloads::peak_rss_kib();
        checks.verdict(peak_kib.is_some(), || "VmHWM unreadable".to_string());
        metrics.extend([
            metric("setup_s", "s", med(&|p| p.setup), n),
            metric("certify_s", "s", best(&|p| p.certify), n),
            metric("sim_cycles_per_s", "1/s", sim_rate, n),
            metric("pipeline_s", "s", best(&|p| p.wall), n),
            metric(
                "peak_rss_mb",
                "MB",
                peak_kib.unwrap_or(0) as f64 / 1024.0,
                1,
            ),
        ]);
    }
    for m in &metrics {
        checks.verdict(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    Outcome {
        kind,
        seed,
        passes: n,
        elapsed,
        checks,
        metrics,
        tracer,
        trace_overhead,
    }
}

fn print_outcome(o: &Outcome, out_dir: &std::path::Path) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fractabench {} | seed {:#x} | {} passes in {:.1} s | {} host cpus | {}",
        o.kind.name(),
        o.seed,
        o.passes,
        o.elapsed,
        cpus,
        if o.tracer.on { "traced" } else { "untraced" }
    );
    println!(
        "  {:<28} {:>16} {:<6} {:>4}",
        "metric", "value", "unit", "n"
    );
    for m in &o.metrics {
        println!(
            "  {:<28} {:>16.6} {:<6} {:>4}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(ratio) = o.trace_overhead {
        println!("  tracing overhead: traced / untraced pass wall = {ratio:.4}");
        println!(
            "  {:<28} {:>6} {:>12} {:>12}",
            "span", "calls", "total ms", "self ms"
        );
        for (name, (calls, total, own)) in o.tracer.self_times() {
            println!(
                "  {:<28} {:>6} {:>12.3} {:>12.3}",
                name,
                calls,
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = out_dir.join(format!("{}.spans.jsonl", o.kind.name()));
        let written = std::fs::create_dir_all(out_dir)
            .and_then(|()| std::fs::write(&path, o.tracer.to_jsonl()));
        match written {
            Ok(()) => println!("  spans: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    println!("  checks: {} ops, {} failed", o.checks.ops, o.failed());
    for f in &o.checks.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", o.json_line());
}

/// The flags a child run of `all` / `--runs` gets.
fn child_args(a: &Args, kind: Kind, seed: u64) -> Vec<String> {
    let mut v: Vec<String> = [
        "--workload",
        kind.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &a.seconds.to_string(),
        "--trace",
        if a.trace { "1" } else { "0" },
        "--out",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    v.push(a.out.display().to_string());
    if a.bless {
        v.push("--bless".into());
    }
    v
}

fn selected(a: &Args) -> Vec<Kind> {
    match Kind::parse(&a.workload) {
        Some(k) => vec![k],
        None => Kind::ALL.to_vec(),
    }
}

/// `--workload all`: one process per workload, so each reports its own
/// `peak_rss_mb`.
fn all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for kind in Kind::ALL {
        let status = Command::new(&exe)
            .args(child_args(a, kind, a.seed))
            .status()
            .expect("spawn a child run");
        ok &= status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--runs N`: two sets of N child runs per workload, alternating
/// workloads and sets, each on its own seed. Prints each metric's
/// median and quartiles per set, the spread, and how far the second
/// set's median moved from the first's, against the metric's bound.
fn runs(a: &Args, n: usize) -> ExitCode {
    let catalogue = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let group = if a.trace { "per_layer" } else { "end_to_end" };
    let exe = std::env::current_exe().expect("own executable path");
    // (workload, set) -> metric -> values
    let mut values: BTreeMap<(&str, usize), BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..n {
        for set in 0..2 {
            for kind in selected(a) {
                let seed = a.seed.wrapping_add((2 * i + set) as u64);
                eprintln!(
                    "run {}/{n} set {} {} seed {seed}",
                    i + 1,
                    set + 1,
                    kind.name()
                );
                let out = Command::new(&exe)
                    .args(child_args(a, kind, seed))
                    .stderr(Stdio::inherit())
                    .output()
                    .expect("spawn a child run");
                let stdout = String::from_utf8_lossy(&out.stdout);
                let line = stdout.lines().last().unwrap_or_default();
                let parsed = json::parse(line).ok().filter(|v| {
                    out.status.success()
                        && v.get("correct").and_then(json::Json::as_bool) == Some(true)
                });
                let Some(result) = parsed else {
                    eprintln!("  run failed:\n{stdout}");
                    ok = false;
                    continue;
                };
                let slot = values.entry((kind.name(), set)).or_default();
                for (name, m) in result.get("metrics").map_or(&[][..], json::Json::as_obj) {
                    if let Some(v) = m.get("value").and_then(json::Json::as_f64) {
                        slot.entry(name.clone()).or_default().push(v);
                    }
                }
            }
        }
    }
    for kind in selected(a) {
        println!("\n{} — 2 sets of {n} runs, {group} metrics", kind.name());
        println!(
            "  {:<28} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
            "metric", "set1 median", "set1 q1", "set1 q3", "spread1", "spread2", "shift", "bound"
        );
        for spec in catalogue.get(group).map_or(&[][..], json::Json::as_arr) {
            let name = spec.get("name").and_then(json::Json::as_str).unwrap_or("?");
            let bound = spec.get("bound").and_then(json::Json::as_f64);
            let higher = spec.get("better").and_then(json::Json::as_str) == Some("higher");
            let get = |set| values.get(&(kind.name(), set)).and_then(|m| m.get(name));
            let (Some(a1), Some(a2)) = (get(0), get(1)) else {
                println!("  {name:<28} missing");
                ok = false;
                continue;
            };
            if a1.len() < 2 || a2.len() < 2 {
                println!("  {name:<28} too few samples");
                continue;
            }
            let (m1, m2) = (stats::median(a1), stats::median(a2));
            let (q1, q3) = stats::quartiles(a1);
            let (s1, s2) = (stats::spread(a1), stats::spread(a2));
            // Positive shift = the second set is worse.
            let shift = if higher {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            let verdict = match bound {
                None => "-".to_string(),
                Some(b) => {
                    let spread_ok = name == "setup_s" || s1.max(s2) <= b;
                    let shift_ok = shift <= b;
                    let steady = s1.max(s2) <= b / 3.0;
                    match (spread_ok && shift_ok, steady) {
                        (true, true) => "ok".into(),
                        (true, false) => "ok (spread above bound/3)".into(),
                        (false, _) => "OVER BOUND".into(),
                    }
                }
            };
            println!(
                "  {:<28} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>8.4} {:>8.4} {:>6}  {verdict}",
                name,
                m1,
                q1,
                q3,
                s1,
                s2,
                shift,
                bound.map_or("-".to_string(), |b| b.to_string())
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.runs {
        return runs(&args, n);
    }
    let Some(kind) = Kind::parse(&args.workload) else {
        return all(&args);
    };
    let o = run(
        kind,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
        args.bless,
    );
    print_outcome(&o, &args.out);
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue(group: &str) -> BTreeMap<String, String> {
        let v = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        v.get(group)
            .map_or(&[][..], json::Json::as_arr)
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(json::Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn emitted(o: &Outcome) -> BTreeMap<String, String> {
        o.metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_names_the_four_workloads() {
        let v = json::parse(BENCHMARK_JSON).unwrap();
        let names: Vec<&str> = v
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(json::Json::as_str).unwrap())
            .collect();
        assert_eq!(names, Kind::ALL.map(Kind::name));
    }

    /// A smoke-scale run of one workload, untraced and traced: every
    /// check holds, and exactly the catalogued metrics are emitted,
    /// each with its catalogued unit.
    fn smoke(kind: Kind) {
        for (traced, group) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = run(kind, Scale::Smoke, 7, 0.0, traced, false);
            assert!(o.correct(), "{}: {:?}", kind.name(), o.checks.failures);
            assert_eq!(o.failed(), 0, "{}", kind.name());
            assert_eq!(emitted(&o), catalogue(group), "{} {group}", kind.name());
            for m in &o.metrics {
                assert!(m.value.is_finite(), "{} {}", kind.name(), m.name);
            }
            let line = json::parse(&o.json_line()).expect("result line is JSON");
            assert_eq!(line.as_obj().len(), 4);
            if traced {
                assert!(o.trace_overhead.is_some());
                assert!(o.tracer.self_times().contains_key("sim.run_t2"));
            }
        }
    }

    #[test]
    fn smoke_certify() {
        smoke(Kind::Certify);
    }

    #[test]
    fn smoke_mesh_sparse() {
        smoke(Kind::MeshSparse);
    }

    #[test]
    fn smoke_fracta_saturated() {
        smoke(Kind::FractaSaturated);
    }

    #[test]
    fn smoke_fault_heal() {
        smoke(Kind::FaultHeal);
    }

    #[test]
    fn args_parse_and_reject() {
        let p = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = p("--workload fault-heal --seed 0x10 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (16, 3.0, true));
        assert_eq!(p("--workload all").unwrap().seed, DEFAULT_SEED);
        for bad in [
            "",
            "--workload nope",
            "--workload certify --trace 2",
            "--workload certify --seconds -1",
            "--workload certify --runs 1",
            "--workload certify --seed",
        ] {
            assert!(p(bad).is_err(), "{bad:?} accepted");
        }
    }
}
