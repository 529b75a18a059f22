//! Parallel offered-load sweeps for load–latency curves.
//!
//! Each load point is an independent simulation over the same network
//! and shared tables, so points run on the shared worker pool
//! ([`crate::pool::parallel_map`]). Determinism is preserved: every
//! point gets a seed derived from the base seed and its index, and
//! results are returned in rate order.

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::pool::parallel_map;
use crate::stats::SimResult;
use crate::traffic::{DstPattern, Workload};
use fractanet_graph::{Network, NodeId};
use fractanet_route::Routes;
use std::sync::Arc;

/// One point of a load–latency curve.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered load in flits/node/cycle.
    pub injection_rate: f64,
    /// The simulation outcome at that load.
    pub result: SimResult,
}

/// Simulates every rate in `rates` in parallel and returns the points
/// in input order. `until_cycle` bounds the generation window (the
/// simulator then drains in-flight traffic up to `cfg.max_cycles`).
pub fn sweep_loads(
    net: &Network,
    ends: &[NodeId],
    routes: &Arc<Routes>,
    cfg: &SimConfig,
    pattern: &DstPattern,
    rates: &[f64],
    until_cycle: u64,
) -> Vec<LoadPoint> {
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    parallel_map(threads, rates.len(), |i| {
        let rate = rates[i];
        let point_cfg = cfg
            .clone()
            .with_seed(cfg.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9));
        let wl = Workload::Bernoulli {
            injection_rate: rate,
            pattern: pattern.clone(),
            until_cycle,
        };
        LoadPoint {
            injection_rate: rate,
            result: Engine::new(net, ends, Arc::clone(routes), point_cfg).run(wl),
        }
    })
}

/// Finds the saturation rate: the first swept rate where accepted
/// throughput falls below `fraction` of the offered load (open-loop
/// saturation), or `None` if the network keeps up everywhere.
pub fn saturation_rate(points: &[LoadPoint], fraction: f64) -> Option<f64> {
    points
        .iter()
        .find(|p| p.result.throughput < p.injection_rate * fraction)
        .map(|p| p.injection_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_route::fractal::fractal_routes;
    use fractanet_topo::{Fractahedron, Topology, Variant};

    #[test]
    fn sweep_returns_points_in_order() {
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let rt = Arc::new(fractal_routes(&f));
        let cfg = SimConfig {
            packet_flits: 4,
            max_cycles: 3_000,
            stall_threshold: 1_500,
            warmup_cycles: 200,
            ..SimConfig::default()
        };
        let rates = [0.05, 0.2, 0.4];
        let pts = sweep_loads(
            f.net(),
            f.end_nodes(),
            &rt,
            &cfg,
            &DstPattern::Uniform,
            &rates,
            2_000,
        );
        assert_eq!(pts.len(), 3);
        for (p, r) in pts.iter().zip(rates) {
            assert_eq!(p.injection_rate, r);
            assert!(p.result.deadlock.is_none());
            assert!(p.result.delivered > 0);
        }
        // Latency is monotone-ish: highest load at least as slow as
        // lowest.
        assert!(pts[2].result.avg_latency >= pts[0].result.avg_latency);
    }

    #[test]
    fn sweep_is_deterministic() {
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let rt = Arc::new(fractal_routes(&f));
        let cfg = SimConfig {
            packet_flits: 4,
            max_cycles: 2_000,
            stall_threshold: 1_000,
            ..SimConfig::default()
        };
        let run = || {
            sweep_loads(
                f.net(),
                f.end_nodes(),
                &rt,
                &cfg,
                &DstPattern::Uniform,
                &[0.1, 0.3],
                1_000,
            )
        };
        let (a, b) = (run(), run());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.result.delivered, y.result.delivered);
            assert_eq!(x.result.avg_latency, y.result.avg_latency);
        }
    }

    #[test]
    fn saturation_detection() {
        // Synthetic points: throughput tracks offered load until 0.4.
        let mk = |rate: f64, thr: f64| LoadPoint {
            injection_rate: rate,
            result: SimResult {
                cycles: 100,
                generated: 10,
                delivered: 10,
                avg_latency: 0.0,
                avg_network_latency: 0.0,
                p95_latency: 0,
                max_latency: 0,
                throughput: thr,
                channel_busy: vec![],
                deadlock: None,
                recovery: crate::stats::RecoveryStats::default(),
                credits: crate::stats::CreditStats::default(),
                telemetry: None,
                metrics: None,
            },
        };
        let pts = vec![mk(0.1, 0.1), mk(0.3, 0.29), mk(0.5, 0.35)];
        assert_eq!(saturation_rate(&pts, 0.9), Some(0.5));
        assert_eq!(saturation_rate(&pts[..2], 0.9), None);
    }
}
