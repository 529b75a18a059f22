//! Experiment E22 — the sharded certificate: wall time of the three
//! static paths that run one destination-forest sweep, at one worker
//! and at the pool's default width.
//!
//! - `certificate.verify`: the Dally–Seitz acyclicity check over the
//!   tables (`verify_deadlock_free_tables`, the CDG alone).
//! - `certificate.full`: the first `System::lint` of a fresh system —
//!   the shared sweep feeding the CDG, hop statistics, contention and
//!   rules L1/L2/L4, then the rendered report.
//! - `certificate.heal_gate`: `servernet::certify_tables` on the
//!   tables repaired around one dead inter-router link.
//!
//! The sweep is byte-identical at every width, so each measurement's
//! output is checked against the first width-1 measurement before it
//! is reported; only wall time may vary. Each row is the median of
//! seven measurements, the two widths alternating which runs first. Rows land in `results/BENCH_certificate.json`
//! (shared `BenchRecord` schema, `cycles` 0; directory overridable via
//! `FRACTANET_RESULTS_DIR`) with the host's CPU count stamped on every
//! row: a speedup is only meaningful where `threads <= host_cpus`.

use fractanet::deadlock::verify_deadlock_free_tables;
use fractanet::graph::{pool, ChannelId};
use fractanet::route::{repair_tables, DeadMask};
use fractanet::servernet::certify_tables;
use fractanet::System;
use fractanet_bench::{emit_json, header, host_cpus, system, write_bench_records, BenchRecord};
use std::time::{Duration, Instant};

/// Measurements per path and width; the median is reported. Widths
/// alternate which runs first, so host noise falls on both alike.
const REPS: usize = 7;

/// A measured path: its name, wall time and rendered output.
type Row = (&'static str, Duration, String);

/// One timing of each path, plus the rendered output the width-1 row
/// must match, at one worker (`serial`) or at the pool's own width and
/// fork floor; and the tables' resident bytes.
fn measure(spec: &str, serial: bool) -> (Vec<Row>, usize) {
    let run = || {
        let sys = system(spec);
        let (net, ends, routes) = (sys.net(), sys.end_nodes(), sys.routes());
        let t0 = Instant::now();
        let cdg = verify_deadlock_free_tables(net, ends, routes);
        let verify = t0.elapsed();
        let cdg = cdg.expect("canonical tables are deadlock-free");
        let verify_out: String = cdg
            .dependencies()
            .into_iter()
            .map(|(a, b)| format!("{a}->{b} {:?};", cdg.witness(ChannelId(a), ChannelId(b))))
            .collect();
        // `System` caches its certificate, so the full path lints a
        // freshly built system; the build is not timed.
        let fresh: System = system(spec);
        let t0 = Instant::now();
        let lint = fresh.lint();
        let full = t0.elapsed();
        let victim = net
            .links()
            .find(|&l| {
                let info = net.link(l);
                net.is_router(info.a.0) && net.is_router(info.b.0)
            })
            .expect("an inter-router link");
        let mask = DeadMask::from_dead(net, &[victim], &[]);
        let repaired = repair_tables(net, ends, &mask).tables;
        let t0 = Instant::now();
        let verdict = certify_tables(net, ends, &mask, &repaired);
        let gate = t0.elapsed();
        let rows = vec![
            ("certificate.verify", verify, verify_out),
            (
                "certificate.full",
                full,
                format!("{lint}{}", lint.to_json()),
            ),
            ("certificate.heal_gate", gate, format!("{verdict:?}")),
        ];
        (rows, routes.resident_bytes())
    };
    if serial {
        pool::with_width(1, run)
    } else {
        run()
    }
}

/// The median of `walls`.
fn median(mut walls: Vec<Duration>) -> Duration {
    walls.sort_unstable();
    walls[walls.len() / 2]
}

fn main() {
    let specs = [
        "mesh:24x24",
        "mesh:48x48",
        "fat-fractahedron:3",
        "fat-fractahedron:4",
    ];
    let default_width = pool::width();
    header(
        "E22",
        "sharded forest sweep (identical certificates, wall time only)",
    );
    println!(
        "  host CPUs: {}, default pool width {default_width} (speedup meaningful where \
         threads <= host CPUs)",
        host_cpus()
    );
    println!(
        "\n  {:<20} {:<22} {:>7} {:>10} {:>9}",
        "topology", "path", "threads", "wall ms", "speedup"
    );
    let mut records = Vec::new();
    let widths: &[usize] = if default_width > 1 {
        &[1, default_width]
    } else {
        &[1]
    };
    for spec in specs {
        // walls[w][path]: every timing of one path at one width.
        let mut walls = vec![vec![Vec::new(); 3]; widths.len()];
        let mut base: Option<Vec<Row>> = None;
        let mut bytes = 0;
        for rep in 0..REPS {
            for i in 0..widths.len() {
                let w = if rep % 2 == 0 {
                    i
                } else {
                    widths.len() - 1 - i
                };
                let (rows, resident) = measure(spec, widths[w] == 1);
                bytes = resident;
                let base = base.get_or_insert_with(|| rows.clone());
                for (p, ((path, wall, out), (_, _, base_out))) in
                    rows.iter().zip(base.iter()).enumerate()
                {
                    // The sweep is byte-identical at every width; a
                    // mismatch means the measurement is invalid.
                    assert!(
                        out == base_out,
                        "{spec} {path} differs at width {}",
                        widths[w]
                    );
                    walls[w][p].push(*wall);
                }
            }
        }
        let base = base.expect("REPS > 0");
        let serial: Vec<Duration> = walls[0].iter().cloned().map(median).collect();
        for (w, &width) in widths.iter().enumerate() {
            for (p, (path, _, _)) in base.iter().enumerate() {
                let wall = median(walls[w][p].clone());
                let rec = BenchRecord::new(path, spec, width, 0, wall, bytes);
                println!(
                    "  {:<20} {:<22} {:>7} {:>10.1} {:>8.2}x",
                    spec,
                    path,
                    width,
                    rec.wall_ms,
                    serial[p].as_secs_f64() / wall.as_secs_f64()
                );
                emit_json(path, &rec);
                records.push(rec);
            }
        }
    }
    let path = write_bench_records("certificate", &records);
    println!("\n  wrote {} rows to {}", records.len(), path.display());
}
