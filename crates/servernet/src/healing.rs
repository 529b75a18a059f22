//! Certified self-healing: regenerate routes around a fault set and
//! **prove them deadlock-free before installing**.
//!
//! The paper's §2.4 safety story is that routing tables are only ever
//! changed to configurations whose channel-dependency graph is
//! acyclic. This module enforces that for repair: [`heal`] runs the
//! fault-avoiding up*/down* generator from `fractanet-route` and then
//! pushes the result through the Dally & Seitz check
//! (`fractanet-deadlock`). A table that fails certification is never
//! returned — the caller keeps the old (safe) tables instead.
//!
//! When the family-specific repair cannot produce certifiable tables
//! for a faulted topology, [`table_healing_repairer`] falls back to
//! [`synthesize_heal`], the certificate-producing exact synthesizer
//! ([`fractanet_deadlock::synthesize_disables_exact`]), which routes
//! the surviving component from scratch with a provably small disable
//! set — and its output passes the very same certification gates
//! before anything is installed.

use crate::faults::FaultSet;
use fractanet_deadlock::{
    synthesize_disables_exact, verify_deadlock_free, verify_deadlock_free_cdg, CdgSweep,
    ChannelDependencyGraph, DeadlockReport, DisableSet, ExactConfig, SynthesisError,
};
use fractanet_graph::{LinkId, Network, NodeId};
use fractanet_lint::{LintReport, Linter, PairVerdicts, Precomputed};
use fractanet_route::repair::{repair_tables, DeadMask};
use fractanet_route::{DestForest, IncrementalRepair, PairCoverage, RouteSet, Routes};
use std::sync::Arc;

/// A certified repair: tables verified acyclic, plus coverage. The
/// tables are the only route state it carries; a caller that wants
/// per-pair paths traces them with
/// [`trace_surviving`](fractanet_route::repair::trace_surviving).
#[derive(Clone, Debug)]
pub struct HealReport {
    /// The verified, installable destination tables — the canonical
    /// form repairs are certified and installed in.
    pub tables: Routes,
    /// Pairs the tables still connect.
    pub coverage: PairCoverage,
    /// Dependencies in the certified CDG (diagnostic).
    pub cdg_dependencies: usize,
}

/// Why a heal was not installed.
#[derive(Debug)]
pub enum HealError {
    /// The regenerated tables failed Dally & Seitz certification
    /// (should be impossible for up*/down* output — treated as a bug
    /// guard, never silently installed).
    Cyclic(Box<DeadlockReport>),
    /// The regenerated tables failed static lint (coverage hole,
    /// dead channel in a path, malformed path, …) — the exact bug
    /// class that once let a post-fault table bypass path-liveness
    /// checks. The full report is attached for diagnosis.
    Lint(Box<LintReport>),
    /// The fallback route synthesizer could not produce a
    /// deadlock-free routing for the surviving topology.
    Synthesis(SynthesisError),
}

impl std::fmt::Display for HealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealError::Cyclic(r) => write!(f, "repaired tables not deadlock-free: {r}"),
            HealError::Lint(r) => write!(
                f,
                "repaired tables failed lint with {} error(s): {r}",
                r.error_count()
            ),
            HealError::Synthesis(e) => write!(f, "fallback route synthesis failed: {e}"),
        }
    }
}

/// Regenerates routes avoiding `faults` and certifies them acyclic.
/// Returns the verified tables with coverage accounting; never returns
/// unverified tables.
pub fn heal(net: &Network, ends: &[NodeId], faults: &FaultSet) -> Result<HealReport, HealError> {
    let mut mask = DeadMask::new(net);
    for l in net.links() {
        if !faults.link_ok(l) {
            mask.kill_link(l);
        }
    }
    for v in net.nodes() {
        if !faults.router_ok(v) {
            mask.kill_router(v);
        }
    }
    heal_mask(net, ends, &mask)
}

/// [`heal`] for callers that already hold a [`DeadMask`].
///
/// Every candidate table passes **two** gates before it is returned:
/// the Dally & Seitz acyclicity certificate and the full static lint
/// (fault-aware L1/L2: no coverage holes among connected survivors, no
/// dead channels or malformed paths). Either failure keeps the old
/// tables.
pub fn heal_mask(net: &Network, ends: &[NodeId], mask: &DeadMask) -> Result<HealReport, HealError> {
    let rep = repair_tables(net, ends, mask);
    let cdg_dependencies = certify_tables(net, ends, mask, &rep.tables)?;
    Ok(HealReport {
        tables: rep.tables,
        coverage: rep.coverage,
        cdg_dependencies,
    })
}

/// A heal produced by the exact route synthesizer instead of the
/// family repairer: per-pair routes with an explicit disable set,
/// certified through the same gates, plus the table projection when
/// the routes are coherent enough to install as destination tables.
#[derive(Clone, Debug)]
pub struct SynthesizedHeal {
    /// The certified per-pair routes (severed pairs have empty paths).
    pub routes: RouteSet,
    /// Turns the synthesized routing forswears (the path-disable
    /// registers to program).
    pub disables: DisableSet,
    /// The destination-table projection of `routes`, present only when
    /// the tables reproduce every route exactly
    /// ([`Routes::from_pair_paths`]), so they carry the certificate of
    /// `routes` itself. Synthesized routings are per-pair, which tables
    /// cannot always express; `None` means routers cannot install this
    /// routing.
    pub tables: Option<Routes>,
    /// Pairs the routes still connect.
    pub coverage: PairCoverage,
    /// Dependencies in the certified CDG (diagnostic).
    pub cdg_dependencies: usize,
}

/// Routes the surviving component from scratch with the exact
/// synthesizer and pushes the result through [`certify_routes`], once:
/// the table projection is faithful, so it is the same routing.
/// Never returns an uncertified routing.
pub fn synthesize_heal(
    net: &Network,
    ends: &[NodeId],
    mask: &DeadMask,
) -> Result<SynthesizedHeal, HealError> {
    let synth = synthesize_disables_exact(net, ends, Some(mask), &ExactConfig::default())
        .map_err(HealError::Synthesis)?;
    let cdg_dependencies = certify_routes(net, ends, mask, &synth.witness.routes)?;
    let tables = Routes::from_pair_paths(net, ends, &synth.witness.routes);
    Ok(SynthesizedHeal {
        routes: synth.witness.routes,
        disables: synth.witness.disables,
        tables,
        coverage: synth.coverage,
        cdg_dependencies,
    })
}

/// The certification gate itself, run directly over destination
/// tables: the Dally & Seitz acyclicity certificate plus the full
/// static lint, with no dense path matrix materialized. One
/// [`DestForest::sweep`] builds the dependency graph and the L1, L2
/// and L4 findings together; a rejection renders the full lint report
/// from them. Returns the certified CDG's dependency count. Public so
/// integrations that regenerate tables some other way can push them
/// through the same gate [`heal_mask`] uses.
pub fn certify_tables(
    net: &Network,
    ends: &[NodeId],
    mask: &DeadMask,
    tables: &Routes,
) -> Result<usize, HealError> {
    let linter = gate_linter(net, ends, mask);
    let (cdg, pairs) = DestForest::sweep(
        net,
        ends,
        tables,
        (CdgSweep::new(net), linter.pair_sweep(tables)),
    );
    let pairs = pairs.finish();
    let cdg = verify_deadlock_free_cdg(net, cdg.finish()).map_err(HealError::Cyclic)?;
    gate(linter, &cdg, &pairs, |l| l.check_tables(tables))
}

/// [`certify_tables`] for a dense candidate [`RouteSet`] produced
/// outside the table pipeline. Returns the certified CDG's dependency
/// count.
pub fn certify_routes(
    net: &Network,
    ends: &[NodeId],
    mask: &DeadMask,
    routes: &RouteSet,
) -> Result<usize, HealError> {
    let cdg = verify_deadlock_free(net, routes).map_err(HealError::Cyclic)?;
    let linter = gate_linter(net, ends, mask);
    let pairs = linter.walk_pairs(routes);
    gate(linter, &cdg, &pairs, |l| l.check(routes))
}

/// The gate's static lint over the surviving network. It carries no
/// contention bound, so rule L5 can only report informationally and
/// never fails the gate.
fn gate_linter<'a>(net: &'a Network, ends: &'a [NodeId], mask: &'a DeadMask) -> Linter<'a> {
    Linter::new(net, ends)
        .with_subject("heal")
        .with_mask(mask)
        .without_suggestions()
}

/// The gate's lint verdict on a candidate whose dependency graph
/// `cdg` has been verified acyclic and whose L1, L2 and L4 findings
/// are `pairs`. On an acyclic graph L3 finds nothing and L5 only
/// informs (see [`gate_linter`]), so `pairs` alone decide; only a
/// rejection pays for `report`, the full lint run (L5 contention
/// included) reading both results back.
fn gate<'a>(
    linter: Linter<'a>,
    cdg: &'a ChannelDependencyGraph,
    pairs: &'a PairVerdicts,
    report: impl FnOnce(&Linter<'a>) -> LintReport,
) -> Result<usize, HealError> {
    if !pairs.is_clean() {
        let linter = linter.with_certificate(Precomputed {
            cdg: Some(cdg),
            pairs: Some(pairs),
            ..Precomputed::default()
        });
        return Err(HealError::Lint(Box::new(report(&linter))));
    }
    Ok(cdg.dependency_count())
}

/// A ready-made repairer hook for
/// [`Engine::with_table_repairer`](fractanet_sim::Engine::with_table_repairer):
/// on each permanent fault it heals around the currently-dead
/// components and installs the certified tables (or leaves the old
/// tables in place when certification fails). It repairs
/// **incrementally** — only table columns whose referenced
/// channels died are rebuilt when the survivor order is unchanged —
/// then certifies the patched tables directly and installs them as a
/// shared epoch. No dense path is ever traced on this hot path.
pub fn table_healing_repairer<'a>(
    net: &'a Network,
    ends: &'a [NodeId],
) -> impl FnMut(&[LinkId], &[NodeId]) -> Option<Arc<Routes>> + 'a {
    let mut inc = IncrementalRepair::new(net, ends);
    move |dead_links, dead_routers| {
        let mask = DeadMask::from_dead(net, dead_links, dead_routers);
        let rep = inc.repair(&mask);
        if certify_tables(net, ends, &mask, &rep.tables).is_ok() {
            return Some(Arc::new(rep.tables));
        }
        // Family repair could not certify: fall back to the exact
        // synthesizer, installable only when its routes project onto
        // coherent tables (certified inside synthesize_heal). The old
        // tables stay otherwise.
        synthesize_heal(net, ends, &mask)
            .ok()
            .and_then(|s| s.tables)
            .map(Arc::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_route::repair::trace_surviving;
    use fractanet_sim::{Engine, FaultEvent, RetryPolicy, SimConfig, SimResult, Workload};
    use fractanet_topo::{Fractahedron, Hypercube, Ring, Topology, Variant};

    fn router_link(net: &Network) -> LinkId {
        net.links()
            .find(|&l| {
                let info = net.link(l);
                net.is_router(info.a.0) && net.is_router(info.b.0)
            })
            .unwrap()
    }

    #[test]
    fn heal_certifies_hypercube_repair() {
        let h = Hypercube::new(3, 1, 6).unwrap();
        let mut faults = FaultSet::none();
        faults.kill_link(router_link(h.net()));
        let rep = heal(h.net(), h.end_nodes(), &faults).unwrap();
        assert!(rep.coverage.is_full());
        assert_eq!(rep.coverage.ratio(), 1.0);
        assert!(rep.cdg_dependencies > 0);
    }

    #[test]
    fn heal_reports_partial_coverage() {
        let r = Ring::new(4, 1, 6).unwrap();
        let mut faults = FaultSet::none();
        let router0 = r.net().channels_from(r.end_nodes()[0]).first().unwrap().1;
        faults.kill_router(router0);
        let rep = heal(r.net(), r.end_nodes(), &faults).unwrap();
        assert!(!rep.coverage.is_full());
        assert_eq!(rep.coverage.connected, 6);
        assert!((rep.coverage.ratio() - 0.5).abs() < 1e-9);
    }

    /// The gate's rejection: a lint error whose report mentions
    /// `needle`.
    fn assert_lint_rejects(verdict: Result<usize, HealError>, needle: &str) {
        let err = verdict.unwrap_err();
        let HealError::Lint(report) = err else {
            panic!("expected lint rejection, got {err}");
        };
        assert!(report.to_string().contains(needle), "{report}");
    }

    #[test]
    fn certify_rejects_coverage_hole() {
        // Regression (PR 1 bug class): a repaired table missing a pair
        // that is still physically connected must not certify, on
        // either gate.
        let h = Hypercube::new(3, 1, 6).unwrap();
        let (net, ends) = (h.net(), h.end_nodes());
        let mut mask = DeadMask::new(net);
        mask.kill_link(router_link(net));
        let rep = repair_tables(net, ends, &mask);
        assert!(rep.coverage.is_full());
        let routes = trace_surviving(net, ends, &mask, &rep.tables);
        let holed = RouteSet::from_pairs(routes.len(), |s, d| {
            if (s, d) == (1, 6) {
                Vec::new()
            } else {
                routes.path(s, d).to_vec()
            }
        });
        assert_lint_rejects(certify_routes(net, ends, &mask, &holed), "coverage hole");
        let mut holed = rep.tables;
        holed.clear(net.channels_from(ends[1])[0].1, 6);
        assert_lint_rejects(certify_tables(net, ends, &mask, &holed), "coverage hole");
    }

    #[test]
    fn certify_rejects_dead_channel_in_path() {
        // Regression (PR 1 bug class): installing the *pre-fault*
        // tables after a link dies must not certify — some path still
        // crosses the dead link — on either gate.
        let h = Hypercube::new(3, 1, 6).unwrap();
        let (net, ends) = (h.net(), h.end_nodes());
        let tables = fractanet_route::dor::ecube_routes(&h);
        let stale = RouteSet::from_table(net, ends, &tables).unwrap();
        let victim = stale.path(0, 1)[1].link();
        let mut mask = DeadMask::new(net);
        mask.kill_link(victim);
        assert_lint_rejects(certify_routes(net, ends, &mask, &stale), "dead");
        assert_lint_rejects(certify_tables(net, ends, &mask, &tables), "dead");
    }

    /// Fat fractahedron, one inter-router link killed at cycle 20,
    /// healed mid-run by the incremental table repairer.
    fn healed_live_run() -> SimResult {
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let routes = Arc::new(fractanet_route::fractal::fractal_routes(&f));
        let victim = router_link(f.net());
        let cfg = SimConfig {
            packet_flits: 16,
            max_cycles: 30_000,
            retry: RetryPolicy {
                ack_timeout: 16,
                max_retries: 6,
                backoff_base: 16,
                jitter_seed: 3,
            },
            ..SimConfig::default()
        }
        .with_fault(FaultEvent::kill_link(victim, 20));
        Engine::new(f.net(), f.end_nodes(), routes, cfg)
            .with_table_repairer(table_healing_repairer(f.net(), f.end_nodes()))
            .run(Workload::all_to_all_burst(8))
    }

    #[test]
    fn healing_repairer_recovers_live_run() {
        // End-to-end: the repairer heals, every packet delivered via
        // retry.
        let res = healed_live_run();
        assert!(res.deadlock.is_none(), "{:?}", res.deadlock);
        assert_eq!(res.delivered, res.generated, "{:?}", res.recovery);
        assert_eq!(res.recovery.repairs_installed, 1);
    }

    #[test]
    fn table_healing_repairer_matches_dense_repairer() {
        // The run must reproduce, bit for bit, the outcome the dense
        // path-snapshot repairer (since deleted) produced on this
        // scenario: 56 packets in 321 cycles, mean latency 161.267…,
        // max 321.
        let tabled = healed_live_run();
        assert_eq!(tabled.recovery.repairs_installed, 1);
        assert_eq!(tabled.delivered, 56);
        assert_eq!(tabled.cycles, 321);
        assert_eq!(tabled.avg_latency.to_bits(), 0x4064_2892_4924_9249);
        assert_eq!(tabled.max_latency, 321);
    }

    #[test]
    fn synthesize_heal_certifies_faulted_ring() {
        // Kill one inter-router link of a 5-ring: the survivors form a
        // line; the synthesizer must route all pairs, certify, and
        // project onto installable tables.
        let r = Ring::new(5, 1, 6).unwrap();
        let mut mask = DeadMask::new(r.net());
        mask.kill_link(router_link(r.net()));
        let s = synthesize_heal(r.net(), r.end_nodes(), &mask).unwrap();
        assert!(s.coverage.is_full());
        assert!((s.coverage.ratio() - 1.0).abs() < 1e-9);
        // The synthesized routes re-certify from scratch.
        assert!(certify_routes(r.net(), r.end_nodes(), &mask, &s.routes).is_ok());
        // A line has an acyclic CDG under shortest-path routing, so
        // the projection must be coherent and itself certified.
        let tables = s.tables.expect("line routing projects onto tables");
        assert!(certify_tables(r.net(), r.end_nodes(), &mask, &tables).is_ok());
        // No route crosses the dead link.
        for (sa, da, p) in s.routes.pairs() {
            assert!(
                p.iter().all(|c| mask.link_ok(c.link())),
                "pair ({sa},{da}) crosses the dead link"
            );
        }
    }

    #[test]
    fn synthesize_heal_covers_partial_survivors() {
        // Kill end node 0's attach router: the synthesizer covers the
        // surviving component and leaves the severed pairs unrouted.
        let r = Ring::new(4, 1, 6).unwrap();
        let router0 = r.net().channels_from(r.end_nodes()[0]).first().unwrap().1;
        let mut mask = DeadMask::new(r.net());
        mask.kill_router(router0);
        let s = synthesize_heal(r.net(), r.end_nodes(), &mask).unwrap();
        assert_eq!(s.coverage.connected, 6);
        assert!((s.coverage.ratio() - 0.5).abs() < 1e-9);
        for (sa, da, p) in s.routes.pairs() {
            if sa == 0 || da == 0 {
                assert!(p.is_empty(), "severed pair ({sa},{da}) got a route");
            } else if sa != da {
                assert!(!p.is_empty(), "surviving pair ({sa},{da}) unrouted");
            }
        }
    }

    // ------------------------------------------------------------------
    // Healing under brownouts (property-based).
    //
    // A brownout alternates a link dead/alive. Two properties keep
    // healing honest under that regime: tables repaired *during* a down
    // phase must never route over the browned-out link, and once the
    // link is back (an empty mask), incremental repair must converge to
    // exactly the pristine tables — no residue from the detour epoch.

    fn router_links(net: &Network) -> Vec<LinkId> {
        net.links()
            .filter(|&l| {
                let info = net.link(l);
                net.is_router(info.a.0) && net.is_router(info.b.0)
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn heal_during_down_phase_avoids_the_browned_out_link(pick in 0usize..64) {
            let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
            let links = router_links(f.net());
            let victim = links[pick % links.len()];
            let mut mask = DeadMask::new(f.net());
            mask.kill_link(victim);
            let rep = heal_mask(f.net(), f.end_nodes(), &mask).unwrap();
            let routes = trace_surviving(f.net(), f.end_nodes(), &mask, &rep.tables);
            let n = f.end_nodes().len();
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let path = routes.path(s, d);
                    proptest::prop_assert!(
                        path.iter().all(|c| c.link() != victim),
                        "pair ({s},{d}) routed over down link {victim:?}"
                    );
                }
            }
        }

        #[test]
        fn repair_after_brownout_ends_is_bit_identical_to_pristine(pick in 0usize..64) {
            let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
            let links = router_links(f.net());
            let victim = links[pick % links.len()];
            let empty = DeadMask::new(f.net());
            let pristine = IncrementalRepair::new(f.net(), f.end_nodes())
                .repair(&empty)
                .tables;
            // Down phase: repair around the victim; up phase: repair
            // again with nothing dead.
            let mut inc = IncrementalRepair::new(f.net(), f.end_nodes());
            let mut down = DeadMask::new(f.net());
            down.kill_link(victim);
            let detour = inc.repair(&down).tables;
            proptest::prop_assert_ne!(&detour, &pristine);
            let healed = inc.repair(&empty).tables;
            proptest::prop_assert_eq!(&healed, &pristine);
        }
    }
}
