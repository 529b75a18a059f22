//! Experiment E20 — the Dally–Seitz head-to-head the 1996 paper could
//! only speculate about: table-driven turn-disable deadlock avoidance
//! (§2.4) versus virtual-channel ordering (Dally & Seitz), run on the
//! same physical networks with the same credit-based router core.
//!
//! For every topology two arms run under identical load:
//!
//! * **turn-disable** — the canonical turn-restricted tables where the
//!   repo's routing is already acyclic (fractahedron fractal routes,
//!   mesh XY, fat-tree up/down, hypercube e-cube), or a synthesized
//!   minimal-ish disable set (`synthesize_disables`) where the
//!   canonical routing is cyclic (ring, torus wraps). One FIFO per
//!   port; the wrap cables go unused or paths lengthen.
//! * **Dally–Seitz VCs** — the unrestricted minimal routes made safe
//!   by a 2-VC ordering: dateline on ring/torus, e-cube classes on
//!   mesh/hypercube, and a static class map on the inherently acyclic
//!   topologies (where the second VC sits idle — the paper's buffer
//!   objection, quantified).
//!
//! The Table 2 VC column: delivered latency quantiles, provisioned
//! buffer slots, and credit-stall cycles per arm. Rows always land in
//! `results/BENCH_vc_vs_turns.json` (one JSON object per line;
//! directory overridable via `FRACTANET_RESULTS_DIR`), and on stderr
//! with `FRACTANET_JSON=1`.

use fractanet::prelude::*;
use fractanet::System;
use fractanet_bench::{emit_json, header, system};
use fractanet_deadlock::disables::synthesize_disables;
use fractanet_route::table::Routes;
use fractanet_sim::{SimResult, VcMap};
use fractanet_topo::mesh::{PORT_EAST, PORT_NODE0, PORT_NORTH, PORT_SOUTH, PORT_WEST};
use fractanet_topo::Torus2D;
use serde::Serialize;
use std::sync::Arc;

#[derive(Clone, Serialize)]
struct Row {
    system: String,
    scheme: String,
    vcs: u8,
    /// Turns disabled to break cycles (0 when the tables are already
    /// turn-restricted, or when VC ordering does the breaking).
    turn_disables: usize,
    /// Mean router hops of the arm's routing — the freedom axis.
    avg_hops: f64,
    /// Provisioned input-FIFO slots network-wide — the cost axis.
    buffer_slots: usize,
    generated: usize,
    delivered: usize,
    latency_avg: f64,
    latency_p50: u64,
    latency_p95: u64,
    latency_p99: u64,
    latency_max: u64,
    /// Transfers stalled on exhausted downstream credits.
    credit_stalls: u64,
    credits_conserved: bool,
    deadlocked: bool,
}

const DEPTH: u32 = 4;
const VCS: u8 = 2;
const GEN_UNTIL: u64 = 8_000;

fn sim_cfg() -> SimConfig {
    SimConfig {
        packet_flits: 8,
        buffer_depth: DEPTH,
        max_cycles: 60_000,
        stall_threshold: 10_000,
        seed: 0x7E57,
        ..SimConfig::default()
    }
    .with_metrics(MetricsConfig::sampling(100))
}

fn workload() -> Workload {
    Workload::Bernoulli {
        injection_rate: 0.2,
        pattern: DstPattern::Uniform,
        until_cycle: GEN_UNTIL,
    }
}

fn finish(
    label: &str,
    scheme: &str,
    vcs: u8,
    turn_disables: usize,
    avg_hops: f64,
    buffer_slots: usize,
    mut res: SimResult,
) -> Row {
    let metrics = res.metrics.take().expect("metrics were on");
    assert!(
        res.deadlock.is_none(),
        "{label} [{scheme}] deadlocked: {:?}",
        res.deadlock
    );
    assert_eq!(
        res.delivered, res.generated,
        "{label} [{scheme}] dropped packets"
    );
    assert!(
        res.credits.is_conserved(),
        "{label} [{scheme}] leaked credits: consumed {} returned {}",
        res.credits.consumed,
        res.credits.returned
    );
    Row {
        system: label.into(),
        scheme: scheme.into(),
        vcs,
        turn_disables,
        avg_hops,
        buffer_slots,
        generated: res.generated,
        delivered: res.delivered,
        latency_avg: res.avg_latency,
        latency_p50: metrics.latency.p50(),
        latency_p95: metrics.latency.p95(),
        latency_p99: metrics.latency.p99(),
        latency_max: res.max_latency,
        credit_stalls: res.credits.stalls,
        credits_conserved: res.credits.is_conserved(),
        deadlocked: res.deadlock.is_some(),
    }
}

/// Mean router hops of a system's canonical tables.
fn avg_hops(sys: &System) -> f64 {
    HopStats::routed_tables(sys.net(), sys.end_nodes(), sys.routes())
        .expect("canonical routing covers every pair")
        .avg
}

/// The turn-disable arm: canonical tables when they already certify,
/// otherwise a synthesized disable set over the same physical network.
fn run_turn_arm(label: &str, sys: &System) -> Row {
    let net = sys.net();
    let slots = net.channel_count() * DEPTH as usize;
    if verify_deadlock_free_tables(net, sys.end_nodes(), sys.routes()).is_ok() {
        let res = sys.simulate(workload(), sim_cfg());
        let hops = avg_hops(sys);
        return finish(label, "turn-disable (table)", 1, 0, hops, slots, res);
    }
    let (disables, routes) =
        synthesize_disables(net, sys.end_nodes(), 512).expect("turn synthesis converges");
    let report = verify_deadlock_free(net, &routes);
    assert!(report.is_ok(), "synthesized routes must certify");
    let tables = Routes::from_pair_paths(net, sys.end_nodes(), &routes)
        .expect("synthesized routes project onto tables");
    let res = Engine::new(net, sys.end_nodes(), Arc::new(tables), sim_cfg()).run(workload());
    let hops = routes.avg_router_hops();
    finish(
        label,
        "turn-disable (synth)",
        1,
        disables.len(),
        hops,
        slots,
        res,
    )
}

/// The Dally–Seitz arm for topologies with a grammar discipline: the
/// system is rebuilt from its `:vc2[:…]` spec so the run reads exactly
/// like the CLI's.
fn run_vc_spec_arm(label: &str, spec: &str) -> Row {
    let sys = system(spec);
    let (vcs, scheme) = sys.vc().expect("spec enables VCs");
    assert_eq!(
        sys.vc_deadlock_free(),
        Some(true),
        "{spec}: extended (channel, vc) graph must be acyclic"
    );
    let slots = sys.net().channel_count() * vcs as usize * DEPTH as usize;
    let res = sys.simulate(workload(), sim_cfg());
    let hops = avg_hops(&sys);
    finish(
        label,
        &format!("vc{vcs}:{scheme}"),
        vcs,
        0,
        hops,
        slots,
        res,
    )
}

/// The Dally–Seitz arm for inherently acyclic topologies: the same
/// turn-restricted routes on 2 VCs under a static class map. The
/// second VC is provisioned but idle — pure buffer cost.
fn run_vc_classes_arm(label: &str, sys: &System) -> Row {
    let net = sys.net();
    let map = VcMap::classes(VCS, vec![0; net.channel_count()]);
    let slots = net.channel_count() * VCS as usize * DEPTH as usize;
    let res = FabricSim {
        vc: Some(map),
        ..sys.fabric(sim_cfg(), false)
    }
    .run(workload());
    let hops = avg_hops(sys);
    finish(label, "vc2:classes (idle spare)", VCS, 0, hops, slots, res)
}

/// The torus turn-disable arm built the way the paper's §2.4 path
/// disable logic would: every turn onto a wrap cable is disabled, so
/// routing degenerates to plain mesh XY and the wrap cables idle. The
/// reported disable count is the number of idled wrap channels.
fn run_torus_no_wrap_arm(label: &str, cols: usize, rows: usize) -> Row {
    let t = Torus2D::new(cols, rows, 2, 6).expect("valid torus");
    let net = t.net();
    let tables = Routes::from_fn(net, t.end_nodes().len(), |router, dst| {
        let (x, y) = t.coords_of(router)?;
        let (dx, dy, k) = t.end_coords(dst);
        Some(if x < dx {
            PORT_EAST
        } else if x > dx {
            PORT_WEST
        } else if y < dy {
            PORT_NORTH
        } else if y > dy {
            PORT_SOUTH
        } else {
            PortId(PORT_NODE0.0 + k as u8)
        })
    });
    let routes = RouteSet::from_table(net, t.end_nodes(), &tables).expect("no-wrap XY routes");
    assert!(
        verify_deadlock_free(net, &routes).is_ok(),
        "no-wrap XY on the torus must certify"
    );
    let wrap_channels = net
        .channels()
        .filter(|&ch| {
            let (a, b) = (net.channel_src(ch), net.channel_dst(ch));
            match (t.coords_of(a), t.coords_of(b)) {
                (Some((ax, ay)), Some((bx, by))) => {
                    ax.abs_diff(bx) == cols - 1 || ay.abs_diff(by) == rows - 1
                }
                _ => false,
            }
        })
        .count();
    let slots = net.channel_count() * DEPTH as usize;
    let res = Engine::new(net, t.end_nodes(), Arc::new(tables), sim_cfg()).run(workload());
    let hops = routes.avg_router_hops();
    finish(
        label,
        "turn-disable (no wraps)",
        1,
        wrap_channels,
        hops,
        slots,
        res,
    )
}

fn write_rows(rows: &[Row]) -> std::path::PathBuf {
    let dir = std::env::var("FRACTANET_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let path = std::path::Path::new(&dir).join("BENCH_vc_vs_turns.json");
    let mut out = String::new();
    for r in rows {
        out.push_str(&r.json());
        out.push('\n');
    }
    std::fs::create_dir_all(&dir).expect("create results dir");
    std::fs::write(&path, out).expect("write BENCH json");
    path
}

fn main() {
    header(
        "E20 / vc-vs-turns",
        "turn-disable tables vs Dally-Seitz virtual channels, one router core",
    );
    println!(
        "  {:<18} {:<24} {:>8} {:>6} {:>6} {:>7} {:>6} {:>6} {:>6} {:>8}",
        "system", "scheme", "disables", "hops", "slots", "p50", "p95", "p99", "stalls", "delivered"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut emit = |row: Row| {
        println!(
            "  {:<18} {:<24} {:>8} {:>6.2} {:>6} {:>7} {:>6} {:>6} {:>6} {:>8}",
            row.system,
            row.scheme,
            row.turn_disables,
            row.avg_hops,
            row.buffer_slots,
            row.latency_p50,
            row.latency_p95,
            row.latency_p99,
            row.credit_stalls,
            row.delivered,
        );
        emit_json("vc_vs_turns", &row);
        rows.push(row);
    };

    // Cyclic wrap topologies: turn-disable must lengthen paths or idle
    // the wrap cables; the dateline VCs keep minimal routing. The ring
    // uses the synthesized disable set; on the torus the greedy
    // synthesis thrashes, so the turn arm is the paper's §2.4 endgame
    // computed directly — every turn onto a wrap cable disabled.
    for (label, vc_spec, turn) in [
        (
            "8-ring",
            "ring:8:vc2",
            run_turn_arm("8-ring", &system("ring:8")),
        ),
        (
            "6x6 torus",
            "torus:6x6:vc2",
            run_torus_no_wrap_arm("6x6 torus", 6, 6),
        ),
    ] {
        let vc = run_vc_spec_arm(label, vc_spec);
        assert!(
            vc.avg_hops < turn.avg_hops,
            "{label}: dateline VCs must shorten routes ({} vs {})",
            vc.avg_hops,
            turn.avg_hops
        );
        assert_eq!(vc.buffer_slots, 2 * turn.buffer_slots);
        emit(turn);
        emit(vc);
    }

    // Dimension-ordered topologies: the canonical tables are already
    // acyclic, so e-cube VCs buy load spreading, not routing freedom.
    for (label, base, vc_spec) in [
        ("8x8 mesh", "mesh:8x8", "mesh:8x8:vc2:ecube"),
        ("4-cube", "hypercube:4", "hypercube:4:vc2"),
    ] {
        let sys = system(base);
        let turn = run_turn_arm(label, &sys);
        let vc = run_vc_spec_arm(label, vc_spec);
        assert!(
            (vc.avg_hops - turn.avg_hops).abs() < 1e-9,
            "{label}: same minimal routes"
        );
        emit(turn);
        emit(vc);
    }

    // The paper's own families: routing is turn-restricted by
    // construction, so a second VC is pure buffer cost.
    for (label, base) in [
        ("fat fractahedron", "fat-fractahedron:2"),
        ("4-2 fat tree", "fattree:64:4:2"),
    ] {
        let sys = system(base);
        let turn = run_turn_arm(label, &sys);
        let vc = run_vc_classes_arm(label, &sys);
        assert_eq!(vc.buffer_slots, 2 * turn.buffer_slots);
        emit(turn);
        emit(vc);
    }

    let path = write_rows(&rows);
    println!(
        "\n  On wrap topologies the 2-VC dateline keeps minimal routes that\n\
         turn-disable must forbid — shorter paths bought with double the\n\
         FIFO slots. On dimension-ordered and fractahedral systems the\n\
         tables are already acyclic and the spare VC is pure cost: the\n\
         buffer-cost-vs-routing-freedom axis of Table 2, measured.\n\
         \n  rows -> {}",
        path.display()
    );
}
