//! # fractanet-bench
//!
//! Experiment harness: one binary per table/figure of the paper (see
//! `src/bin/`), plus Criterion benches over the library's
//! computational kernels (`benches/`). `repro_all` runs every
//! experiment in sequence and is what `EXPERIMENTS.md` is generated
//! from.
//!
//! Every binary prints a human-readable table; set `FRACTANET_JSON=1`
//! to additionally emit one JSON object per result row on stderr for
//! downstream tooling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;

/// Emits a JSON-lines record on stderr when `FRACTANET_JSON=1`.
///
/// The row's fields are flattened next to an `experiment` tag, so each
/// line reads `{"experiment":"...", <row fields>}`.
pub fn emit_json<T: Serialize>(experiment: &str, row: &T) {
    if std::env::var("FRACTANET_JSON").as_deref() == Ok("1") {
        let tag = format!("\"experiment\":{}", experiment.json());
        match row.json_fields() {
            Some(fields) if !fields.is_empty() => eprintln!("{{{tag},{fields}}}"),
            _ => eprintln!("{{{tag}}}"),
        }
    }
}

/// Prints a section header in the style every experiment shares.
pub fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// One machine-readable perf-trajectory point: how fast one engine
/// configuration pushed one topology, in the shared `BENCH_*.json`
/// schema every perf binary emits.
#[derive(Clone, Debug, Serialize)]
pub struct BenchRecord {
    /// Which experiment produced the row (`scaling`, `loadlatency`, …).
    pub experiment: String,
    /// Topology spec string, e.g. `mesh:100x100`.
    pub topology: String,
    /// Worker threads the engine was sharded across.
    pub threads: usize,
    /// Simulated cycles the run covered.
    pub cycles: u64,
    /// Wall-clock time for the run, in milliseconds.
    pub wall_ms: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Peak resident routing state in bytes (the destination-indexed
    /// tables; the dense per-pair matrix is never built by the runs).
    pub peak_routing_bytes: usize,
    /// Logical CPUs on the measuring host — speedup claims are only
    /// meaningful when `threads <= host_cpus`.
    pub host_cpus: usize,
    /// Median simulated packet latency in cycles (0 = not measured).
    pub latency_p50: u64,
    /// 95th-percentile simulated packet latency in cycles.
    pub latency_p95: u64,
    /// 99th-percentile simulated packet latency in cycles.
    pub latency_p99: u64,
}

impl BenchRecord {
    /// Builds a record from a timed run, deriving `cycles_per_sec` and
    /// stamping the host's CPU count.
    pub fn new(
        experiment: &str,
        topology: &str,
        threads: usize,
        cycles: u64,
        wall: std::time::Duration,
        peak_routing_bytes: usize,
    ) -> Self {
        let wall_ms = wall.as_secs_f64() * 1e3;
        BenchRecord {
            experiment: experiment.to_string(),
            topology: topology.to_string(),
            threads,
            cycles,
            wall_ms,
            cycles_per_sec: cycles as f64 / wall.as_secs_f64().max(1e-9),
            peak_routing_bytes,
            host_cpus: host_cpus(),
            latency_p50: 0,
            latency_p95: 0,
            latency_p99: 0,
        }
    }

    /// Stamps simulated-latency percentiles (from the run's live-metrics
    /// latency histogram) onto the record.
    pub fn with_latency(mut self, p50: u64, p95: u64, p99: u64) -> Self {
        self.latency_p50 = p50;
        self.latency_p95 = p95;
        self.latency_p99 = p99;
        self
    }
}

/// Logical CPUs available to this process (1 when undetectable).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Writes `records` as JSON lines to `<results-dir>/BENCH_<name>.json`
/// (one object per line, same shape as the `FRACTANET_JSON` stderr
/// stream) and returns the path. The directory defaults to `results/`
/// and is overridable via `FRACTANET_RESULTS_DIR`, so CI smoke runs can
/// write to a scratch location without disturbing checked-in results.
pub fn write_bench_records(name: &str, records: &[BenchRecord]) -> std::path::PathBuf {
    let dir = std::env::var("FRACTANET_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let path = std::path::Path::new(&dir).join(format!("BENCH_{name}.json"));
    let mut out = String::new();
    for r in records {
        out.push_str(&r.json());
        out.push('\n');
    }
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(&path, out).expect("write BENCH json");
    path
}

/// Builds a [`fractanet::System`] from a textual topology spec
/// (`mesh:6x6`, `fattree:64:4:2`, …), panicking on a malformed spec.
/// Experiment binaries use this instead of hand-rolled constructors so
/// their configurations read exactly like the CLI's.
pub fn system(spec: &str) -> fractanet::System {
    spec.parse::<fractanet::TopoSpec>()
        .unwrap_or_else(|e| panic!("{spec}: {e}"))
        .build()
}

/// Formats `value (paper: expected)` with a match marker.
pub fn versus(value: impl std::fmt::Display, paper: impl std::fmt::Display) -> String {
    let v = value.to_string();
    let p = paper.to_string();
    if v == p {
        format!("{v} (paper: {p} ✓)")
    } else {
        format!("{v} (paper: {p})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versus_marks_matches() {
        assert!(versus(48, 48).contains('✓'));
        assert!(!versus(47, 48).contains('✓'));
    }

    #[test]
    fn emit_json_respects_env() {
        // Not set in tests: must be a no-op (and not panic).
        #[derive(Serialize)]
        struct Row {
            x: u32,
        }
        emit_json("test", &Row { x: 1 });
    }
}
