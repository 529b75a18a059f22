//! The high-level `System` API: topology + routing + analysis in one
//! object, so downstream users can reproduce a Table 2 row in five
//! lines.

use fractanet_deadlock::{CdgSweep, ChannelDependencyGraph};
use fractanet_graph::{LinkClass, Network, NodeId};
use fractanet_lint::{Discipline, LintReport, Linter, PairVerdicts, Precomputed};
use fractanet_metrics::{
    bisection_estimate, ContentionReport, ContentionSweep, CostSummary, HopStats, HopSweep,
};
use fractanet_route::fattree::{fattree_routes, UpPolicy};
use fractanet_route::fractal::fractal_routes;
use fractanet_route::ringroute::ring_shortest_routes;
use fractanet_route::treeroute::bintree_routes;
use fractanet_route::{direct, dor, DestForest, Routes};
use fractanet_servernet::FabricSim;
use fractanet_sim::{
    dateline_ring_map, dateline_torus_map, ecube_hypercube_map, ecube_mesh_map, SimConfig,
    SimResult, VcMap, VcSweep, Workload,
};
use fractanet_topo::{
    BinaryTree, FatTree, Fractahedron, FullyConnectedCluster, Hypercube, Mesh2D, Ring, Topology,
    Torus2D, Variant,
};
use std::sync::{Arc, OnceLock};

/// A topology paired with its canonical routing.
enum Built {
    Mesh(Mesh2D),
    Torus(Torus2D),
    Ring(Ring),
    Hypercube(Hypercube),
    FatTree(FatTree),
    Fractahedron(Fractahedron),
    Cluster(FullyConnectedCluster),
    BinaryTree(BinaryTree),
}

impl Built {
    fn topo(&self) -> &dyn Topology {
        match self {
            Built::Mesh(t) => t,
            Built::Torus(t) => t,
            Built::Ring(t) => t,
            Built::Hypercube(t) => t,
            Built::FatTree(t) => t,
            Built::Fractahedron(t) => t,
            Built::Cluster(t) => t,
            Built::BinaryTree(t) => t,
        }
    }

    fn routes(&self) -> Routes {
        match self {
            Built::Mesh(t) => dor::mesh_xy_routes(t),
            Built::Torus(t) => dor::torus_xy_routes(t),
            Built::Ring(t) => ring_shortest_routes(t),
            Built::Hypercube(t) => dor::ecube_routes(t),
            Built::FatTree(t) => fattree_routes(t, UpPolicy::ByLeafRouter),
            Built::Fractahedron(t) => fractal_routes(t),
            Built::Cluster(t) => direct::cluster_routes(t),
            Built::BinaryTree(t) => bintree_routes(t),
        }
    }
}

/// The Dally–Seitz virtual-channel discipline a [`System`] runs under
/// when virtual channels are enabled ([`System::with_vcs`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcScheme {
    /// Dateline ordering for topologies with wrap cables (rings and
    /// tori): promote past the wrap, reset on dimension change.
    Dateline,
    /// Static per-dimension channel classes for dimension-ordered
    /// topologies (meshes and hypercubes).
    Ecube,
}

impl std::fmt::Display for VcScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcScheme::Dateline => write!(f, "dateline"),
            VcScheme::Ecube => write!(f, "ecube"),
        }
    }
}

/// Installed virtual-channel state: the count, the scheme, and the
/// concrete per-channel map the engines consult.
struct VcState {
    vcs: u8,
    scheme: VcScheme,
    map: VcMap,
}

/// What the canonical tables certify, resolved from one routing forest
/// per destination the first time [`System::lint`],
/// [`System::lint_exact`] or [`System::analyze`] needs any of it.
struct Certificate {
    /// The Dally–Seitz graph rules L3 and L6 and `analyze` judge.
    cdg: ChannelDependencyGraph,
    /// Routed hop statistics (`None` if some pair is unrouted).
    hops: Option<HopStats>,
    contention: ContentionReport,
    /// Lint rules L1, L2 and L4 under the system's discipline.
    pairs: PairVerdicts,
    /// The extended `(channel, vc)` graph's verdict, with VCs.
    vc_deadlock_free: Option<bool>,
}

/// Everything the paper's comparison tables need, for one system.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Human-readable topology name.
    pub name: String,
    /// End nodes.
    pub nodes: usize,
    /// Routers (Table 2's cost row).
    pub routers: usize,
    /// Cables of all classes.
    pub links: usize,
    /// Mean router hops over all pairs (Table 2).
    pub avg_hops: f64,
    /// Worst-case router hops (Table 1's "maximum delays").
    pub max_hops: usize,
    /// Whole-network maximum link contention (`k` of `k:1`).
    pub worst_contention: usize,
    /// Maximum contention restricted to intra-stage (Local) links —
    /// the population §3.4 quotes for the fractahedron.
    pub local_contention: usize,
    /// Weakest balanced cut found, in cables.
    pub bisection_links: u64,
    /// Dally–Seitz verdict for the canonical routing.
    pub deadlock_free: bool,
}

impl std::fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} nodes, {} routers, {} links | hops avg {:.2} max {} | \
             contention {}:1 (local {}:1) | bisection {} links | {}",
            self.name,
            self.nodes,
            self.routers,
            self.links,
            self.avg_hops,
            self.max_hops,
            self.worst_contention,
            self.local_contention,
            self.bisection_links,
            if self.deadlock_free {
                "deadlock-free"
            } else {
                "CAN DEADLOCK"
            }
        )
    }
}

/// A topology with its canonical deadlock-aware routing, ready for
/// analysis and simulation.
pub struct System {
    built: Built,
    /// Canonical routing state: destination-indexed tables, shared
    /// with the simulator via `Arc` rather than copied per engine.
    routes: Arc<Routes>,
    /// The canonical tables' certificate, shared by `lint`,
    /// `lint_exact` and `analyze`.
    certificate: OnceLock<Certificate>,
    /// Virtual-channel discipline, when enabled via
    /// [`System::with_vcs`].
    vc: Option<VcState>,
}

impl System {
    fn new(built: Built) -> Self {
        let routes = Arc::new(built.routes());
        System {
            built,
            routes,
            certificate: OnceLock::new(),
            vc: None,
        }
    }

    /// N-level fat fractahedron with direct-attached nodes
    /// (`System::fat_fractahedron(2)` is the paper's Fig 7 network).
    pub fn fat_fractahedron(levels: usize) -> Self {
        Self::new(Built::Fractahedron(
            Fractahedron::new(levels, Variant::Fat, false).expect("valid configuration"),
        ))
    }

    /// N-level thin fractahedron; `fanout` adds the CPU-pair router
    /// level (Table 1's 2·8^N node scaling).
    pub fn thin_fractahedron(levels: usize, fanout: bool) -> Self {
        Self::new(Built::Fractahedron(
            Fractahedron::new(levels, Variant::Thin, fanout).expect("valid configuration"),
        ))
    }

    /// The Fig 4 tetrahedron (4 routers, 12 nodes).
    pub fn tetrahedron() -> Self {
        Self::new(Built::Cluster(FullyConnectedCluster::tetrahedron()))
    }

    /// A fully-connected cluster of `m` 6-port routers (Fig 3).
    pub fn cluster(m: usize) -> Self {
        Self::new(Built::Cluster(
            FullyConnectedCluster::new(m, 6).expect("m <= 6"),
        ))
    }

    /// `cols × rows` mesh with 2 nodes per 6-port router and X-then-Y
    /// dimension-order routing (§3.1).
    pub fn mesh(cols: usize, rows: usize) -> Self {
        Self::new(Built::Mesh(
            Mesh2D::new(cols, rows, 2, 6).expect("valid mesh"),
        ))
    }

    /// `cols × rows` torus with 2 nodes per 6-port router and minimal
    /// X-then-Y routing. The wrap cables make the plain routing
    /// deadlock-prone; see [`System::with_vcs`].
    pub fn torus(cols: usize, rows: usize) -> Self {
        Self::new(Built::Torus(
            Torus2D::new(cols, rows, 2, 6).expect("valid torus"),
        ))
    }

    /// Enables `vcs` virtual channels per physical channel under the
    /// given ordering scheme. Panics if the scheme does not apply to
    /// this topology: dateline needs wrap cables (ring/torus), e-cube
    /// classes need dimension-ordered routing (mesh/hypercube).
    pub fn with_vcs(mut self, vcs: u8, scheme: VcScheme) -> Self {
        let vcs = vcs.max(1);
        let map = match (&self.built, scheme) {
            (Built::Ring(r), VcScheme::Dateline) => dateline_ring_map(r, vcs),
            (Built::Torus(t), VcScheme::Dateline) => dateline_torus_map(t, vcs),
            (Built::Mesh(m), VcScheme::Ecube) => ecube_mesh_map(m, vcs),
            (Built::Hypercube(h), VcScheme::Ecube) => ecube_hypercube_map(h, vcs),
            _ => panic!(
                "VC scheme {scheme} does not apply to {}",
                self.built.topo().name()
            ),
        };
        self.vc = Some(VcState { vcs, scheme, map });
        // A certificate taken before carries no VC verdict.
        self.certificate = OnceLock::new();
        self
    }

    /// The installed virtual-channel configuration, if any.
    pub fn vc(&self) -> Option<(u8, VcScheme)> {
        self.vc.as_ref().map(|v| (v.vcs, v.scheme))
    }

    /// The installed VC-assignment map, if any — what
    /// [`fabric`](System::fabric) attaches to every engine it runs.
    pub fn vc_map(&self) -> Option<&VcMap> {
        self.vc.as_ref().map(|v| &v.map)
    }

    /// The Dally–Seitz verdict on the *extended* `(channel, vc)`
    /// dependency graph, for systems with virtual channels enabled:
    /// the physical-channel graph may be cyclic (that is the point)
    /// while the extended graph is not. `None` without VCs. Checked
    /// once, as part of the system's cached certificate.
    pub fn vc_deadlock_free(&self) -> Option<bool> {
        self.certificate().vc_deadlock_free
    }

    /// `(down, up)` fat tree over `nodes` end nodes with the Fig 6
    /// leaf-router partitioning (§3.3).
    pub fn fat_tree(nodes: usize, down: usize, up: usize) -> Self {
        Self::new(Built::FatTree(
            FatTree::new(nodes, down, up, 6).expect("valid fat tree"),
        ))
    }

    /// `dim`-cube with one node per corner and e-cube routing (§3.2).
    /// Needs `dim + 1` ports, so 6-port routers cap out at `dim = 5`.
    pub fn hypercube(dim: u32, router_ports: u8) -> Self {
        Self::new(Built::Hypercube(
            Hypercube::new(dim, 1, router_ports).expect("valid cube"),
        ))
    }

    /// Ring of `n` routers, one node each, minimal routing (§2; note
    /// this routing is *not* deadlock-free for `n ≥ 4` — the Fig 1
    /// lesson).
    pub fn ring(n: usize) -> Self {
        Self::new(Built::Ring(Ring::new(n, 1, 6).expect("valid ring")))
    }

    /// Complete binary tree of `depth` router levels (§2 background).
    pub fn binary_tree(depth: u32, nodes_per_leaf: usize) -> Self {
        Self::new(Built::BinaryTree(
            BinaryTree::new(depth, nodes_per_leaf, 6).expect("valid tree"),
        ))
    }

    /// The underlying network.
    pub fn net(&self) -> &Network {
        self.built.topo().net()
    }

    /// End nodes in address order.
    pub fn end_nodes(&self) -> &[NodeId] {
        self.built.topo().end_nodes()
    }

    /// The destination-indexed routing tables — the canonical routing
    /// state everything else (analysis, lint, simulation) derives from.
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// A shared handle to the canonical tables, for engines and other
    /// consumers that hold routing state across epochs.
    pub fn shared_routes(&self) -> Arc<Routes> {
        Arc::clone(&self.routes)
    }

    /// The canonical tables' certificate: one [`DestForest::sweep`]
    /// feeds the dependency graph, hop statistics, contention, lint
    /// rules L1/L2/L4 and, with VCs, the extended `(channel, vc)` graph
    /// (`O(nodes × N)` in all); cached for every later `lint`,
    /// `lint_exact` and `analyze`.
    fn certificate(&self) -> &Certificate {
        self.certificate.get_or_init(|| {
            let (net, ends) = (self.net(), self.end_nodes());
            let linter = self.linter();
            let (cdg, hops, contention, pairs, vc) = DestForest::sweep(
                net,
                ends,
                &self.routes,
                (
                    CdgSweep::new(net),
                    HopSweep::new(ends.len()),
                    ContentionSweep::new(net, ends.len()),
                    linter.pair_sweep(&self.routes),
                    self.vc.as_ref().map(|v| VcSweep::new(net, &v.map)),
                ),
            );
            Certificate {
                cdg: cdg.finish(),
                hops: hops.finish(),
                contention: contention.finish(),
                pairs: pairs.finish(),
                vc_deadlock_free: vc.map(|v| v.finish().is_acyclic()),
            }
        })
    }

    /// Topology name, including the VC discipline when one is
    /// installed.
    pub fn name(&self) -> String {
        match &self.vc {
            Some(v) => format!(
                "{} + {} VCs ({})",
                self.built.topo().name(),
                v.vcs,
                v.scheme
            ),
            None => self.built.topo().name(),
        }
    }

    /// Hardware inventory.
    pub fn cost(&self) -> CostSummary {
        CostSummary::of(self.net())
    }

    /// Runs the full analytical battery (hops, contention, bisection,
    /// deadlock freedom). Hops, link contention and the channel
    /// dependency graph come from the system's cached certificate, read
    /// off one routing forest per destination, `O(nodes × N)`;
    /// bisection adds a handful of max-flows.
    pub fn analyze(&self) -> AnalysisReport {
        let net = self.net();
        let ends = self.end_nodes();
        let cert = self.certificate();
        let hops = cert.hops.as_ref().expect("≥ 2 nodes, all routed");
        let cont = &cert.contention;
        let local = cont
            .worst_in_class(net, LinkClass::Local)
            .map(|(k, _)| k)
            .unwrap_or(0);
        let bis = bisection_estimate(net, ends, 4);
        // With VCs installed the physical-channel graph may be cyclic
        // by design; the verdict that matters is the extended one.
        let deadlock_free = cert
            .vc_deadlock_free
            .unwrap_or_else(|| cert.cdg.is_deadlock_free());
        AnalysisReport {
            name: self.name(),
            nodes: self.end_nodes().len(),
            routers: net.router_count(),
            links: net.link_count(),
            avg_hops: hops.avg,
            max_hops: hops.max,
            worst_contention: cont.worst,
            local_contention: local,
            bisection_links: bis.links,
            deadlock_free,
        }
    }

    /// The routing discipline rule L4 should check this system
    /// against, when one is modeled.
    fn discipline(&self) -> Option<Discipline> {
        match &self.built {
            Built::Mesh(m) => Some(Discipline::mesh_xy(m)),
            Built::Hypercube(h) => Some(Discipline::ecube(h)),
            Built::FatTree(t) => Some(Discipline::fat_tree(t)),
            Built::Fractahedron(f) => Some(Discipline::fractahedral(f)),
            // Rings, tori, direct clusters, and binary trees have no
            // phase discipline worth modeling here (tori and rings are
            // checked through the extended VC graph instead).
            Built::Ring(_) | Built::Torus(_) | Built::Cluster(_) | Built::BinaryTree(_) => None,
        }
    }

    /// The paper's published worst-case contention bound for this
    /// exact configuration (Table 1 / Fig 3 / §3), when one exists.
    fn paper_contention_bound(&self) -> Option<usize> {
        match &self.built {
            // §3.4: 8:1 network-wide for the 64-node fat fractahedron.
            Built::Fractahedron(f) if f.variant() == Variant::Fat && f.levels() == 2 => Some(8),
            // §3.1: 10:1 on the 6x6 mesh with 2 nodes per router.
            Built::Mesh(m) if m.cols() == 6 && m.rows() == 6 => Some(10),
            // §3.3: 12:1 on the 64-node (4,2) fat tree.
            Built::FatTree(t) if t.nodes() == 64 && t.down() == 4 && t.up() == 2 => Some(12),
            // Fig 3 closed form for fully-connected clusters.
            Built::Cluster(c) => c.predicted_contention(),
            _ => None,
        }
    }

    /// The linter configured for this system — subject, discipline
    /// and the paper's contention bound — before any certificate or VC
    /// verdict is attached.
    fn linter(&self) -> Linter<'_> {
        let mut linter = Linter::new(self.net(), self.end_nodes()).with_subject(self.name());
        if let Some(d) = self.discipline() {
            linter = linter.with_discipline(d);
        }
        if let Some(k) = self.paper_contention_bound() {
            linter = linter.with_contention_bound(k);
        }
        linter
    }

    /// [`Self::linter`] reading the cached certificate, with the VC
    /// ordering's verdict when VCs are installed.
    fn certified_linter(&self) -> Linter<'_> {
        let cert = self.certificate();
        let mut linter = self.linter().with_certificate(Precomputed {
            cdg: Some(&cert.cdg),
            contention: Some(&cert.contention),
            pairs: Some(&cert.pairs),
        });
        if let (Some(v), Some(acyclic)) = (&self.vc, cert.vc_deadlock_free) {
            linter = linter.with_vc_ordering(v.vcs, v.scheme.to_string(), acyclic);
        }
        linter
    }

    /// Statically verifies this system's canonical routing tables:
    /// coverage, path well-formedness, dependency-cycle enumeration,
    /// discipline conformance, and the paper's contention bound where
    /// published. See `fractanet-lint` for the rule catalogue.
    pub fn lint(&self) -> LintReport {
        self.certified_linter().check_tables(&self.routes)
    }

    /// [`Self::lint`] in exact mode: the L3 suggestion becomes the
    /// branch-and-bound minimum over the enumerated cycles and the L6
    /// minimality rule runs with a replayable certificate.
    pub fn lint_exact(&self) -> LintReport {
        self.certified_linter()
            .with_exact(fractanet_deadlock::ExactConfig::default())
            .check_tables(&self.routes)
    }

    /// Runs the certificate-producing exact route synthesizer over
    /// this topology (ignoring the installed tables) — the
    /// `lint --synthesize` backend.
    pub fn synthesize_exact(
        &self,
    ) -> Result<fractanet_deadlock::ExactSynthesis, fractanet_deadlock::SynthesisError> {
        fractanet_deadlock::synthesize_disables_exact(
            self.net(),
            self.end_nodes(),
            None,
            &fractanet_deadlock::ExactConfig::default(),
        )
    }

    /// This system as one fabric under `cfg`: its network, shared
    /// tables, end nodes and VC map, healing around permanent faults
    /// when `heal` is set. [`FabricSim::run`] simulates it; the chaos
    /// campaign runs two of them through the failover driver.
    pub fn fabric(&self, cfg: SimConfig, heal: bool) -> FabricSim<'_> {
        FabricSim {
            net: self.net(),
            routes: self.shared_routes(),
            ends: self.end_nodes(),
            cfg,
            heal,
            vc: self.vc_map().cloned(),
        }
    }

    /// Simulates a workload on this system. The engine forwards
    /// hop-by-hop from the shared tables; no per-packet path is
    /// snapshotted.
    pub fn simulate(&self, workload: Workload, cfg: SimConfig) -> SimResult {
        self.fabric(cfg, false).run(workload)
    }

    /// Simulates a workload with certified self-healing enabled: on
    /// each permanent fault in `cfg`'s schedule, routing tables are
    /// repaired incrementally around the dead components, verified
    /// deadlock-free (Dally & Seitz), and installed mid-run as a new
    /// routing epoch. Debug builds re-lint every install.
    pub fn simulate_healing(&self, workload: Workload, cfg: SimConfig) -> SimResult {
        self.fabric(cfg, true).run(workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_sim::DstPattern;

    #[test]
    fn paper_fat_64_headline_numbers() {
        let report = System::fat_fractahedron(2).analyze();
        assert_eq!(report.nodes, 64);
        assert_eq!(report.routers, 48);
        assert!((report.avg_hops - 271.0 / 63.0).abs() < 1e-9);
        assert_eq!(report.max_hops, 5);
        assert_eq!(report.local_contention, 4);
        assert_eq!(report.worst_contention, 8);
        assert_eq!(report.bisection_links, 16);
        assert!(report.deadlock_free);
    }

    #[test]
    fn paper_fat_tree_headline_numbers() {
        let report = System::fat_tree(64, 4, 2).analyze();
        assert_eq!(report.routers, 28);
        assert!((report.avg_hops - 279.0 / 63.0).abs() < 1e-9);
        assert_eq!(report.worst_contention, 12);
        assert!(report.deadlock_free);
    }

    #[test]
    fn mesh_headline_numbers() {
        let report = System::mesh(6, 6).analyze();
        assert_eq!(report.max_hops, 11);
        assert_eq!(report.worst_contention, 10);
        assert!(report.deadlock_free);
    }

    #[test]
    fn ring_is_flagged_deadlock_prone() {
        let report = System::ring(4).analyze();
        assert!(!report.deadlock_free, "Fig 1: ring routing loops");
    }

    #[test]
    fn tetrahedron_and_clusters() {
        let report = System::tetrahedron().analyze();
        assert_eq!(report.nodes, 12);
        assert_eq!(report.routers, 4);
        assert_eq!(report.worst_contention, 3);
        assert!(report.deadlock_free);
        assert_eq!(System::cluster(2).analyze().worst_contention, 5);
    }

    #[test]
    fn torus_headline_numbers() {
        let report = System::torus(4, 4).analyze();
        assert_eq!(report.nodes, 32);
        assert_eq!(report.routers, 16);
        // Wraparound halves the worst-case distance vs the 4x4 mesh.
        assert!(report.max_hops < System::mesh(4, 4).analyze().max_hops);
        assert!(!report.deadlock_free, "plain torus XY routing cycles");
    }

    #[test]
    fn vc_simulation_through_the_facade() {
        let sys = System::torus(4, 4).with_vcs(2, VcScheme::Dateline);
        assert_eq!(sys.vc(), Some((2, VcScheme::Dateline)));
        assert_eq!(sys.vc_deadlock_free(), Some(true));
        assert!(sys.name().contains("2 VCs (dateline)"));
        let cfg = SimConfig::default()
            .with_packet_flits(8)
            .with_max_cycles(20_000);
        let res = sys.simulate(
            Workload::Bernoulli {
                injection_rate: 0.1,
                pattern: DstPattern::Uniform,
                until_cycle: 2_000,
            },
            cfg,
        );
        assert!(res.deadlock.is_none());
        assert!(res.delivered > 0);
        assert!(res.credits.is_conserved());
    }

    /// Regression: `lint` on a VC-enabled system must judge the
    /// *extended* (channel, vc) graph, not flag the physical cycles
    /// the VC ordering exists to break.
    #[test]
    fn lint_respects_the_vc_ordering() {
        let vc = System::torus(4, 4).with_vcs(2, VcScheme::Dateline);
        let report = vc.lint();
        assert!(
            report.is_clean(),
            "dateline torus must lint clean: {report}"
        );
        // The verdict is an explicit Info finding, not silence.
        assert!(
            report
                .by_rule(fractanet_lint::RuleId::L3CdgCycles)
                .any(|d| d.message.contains("extended (channel, vc)")),
            "{report}"
        );
        // Without the ordering the same topology still fails L3.
        assert!(!System::torus(4, 4).lint().is_clean());
    }

    #[test]
    fn simulation_through_the_facade() {
        let sys = System::fat_fractahedron(1);
        let cfg = SimConfig::default()
            .with_packet_flits(8)
            .with_max_cycles(5_000);
        let res = sys.simulate(
            Workload::Bernoulli {
                injection_rate: 0.1,
                pattern: DstPattern::Uniform,
                until_cycle: 2_000,
            },
            cfg,
        );
        assert!(res.deadlock.is_none());
        assert!(res.delivered > 0);
    }

    #[test]
    fn thin_vs_fat_tradeoff_visible() {
        let thin = System::thin_fractahedron(2, false).analyze();
        let fat = System::fat_fractahedron(2).analyze();
        assert!(thin.routers < fat.routers);
        assert!(thin.bisection_links < fat.bisection_links);
        assert!(thin.max_hops > fat.max_hops);
    }

    #[test]
    fn report_display_is_complete() {
        let s = System::fat_fractahedron(2).analyze().to_string();
        assert!(s.contains("48 routers"));
        assert!(s.contains("deadlock-free"));
        assert!(s.contains("4.30"));
        let r = System::ring(4).analyze().to_string();
        assert!(r.contains("CAN DEADLOCK"));
    }

    #[test]
    fn paper_systems_lint_clean() {
        for sys in [
            System::fat_fractahedron(1),
            System::fat_fractahedron(2),
            System::thin_fractahedron(2, false),
            System::mesh(6, 6),
            System::fat_tree(64, 4, 2),
            System::hypercube(3, 6),
            System::tetrahedron(),
        ] {
            let report = sys.lint();
            assert!(report.is_clean(), "{}: {report}", sys.name());
        }
    }

    #[test]
    fn ring_lint_reports_cycles() {
        use fractanet_lint::RuleId;
        let report = System::ring(4).lint();
        assert!(!report.is_clean());
        assert!(report.by_rule(RuleId::L3CdgCycles).next().is_some());
    }

    /// `lint`, `lint_exact` and `analyze` read one cached certificate:
    /// their output is byte-identical whichever of them fills it.
    #[test]
    fn certificate_fill_order_does_not_change_output() {
        type Make = fn() -> System;
        let systems: [Make; 5] = [
            || System::fat_fractahedron(2),
            || System::mesh(6, 6),
            || System::ring(8),
            || System::torus(4, 4).with_vcs(2, VcScheme::Dateline),
            || System::fat_tree(64, 4, 2),
        ];
        let render = |sys: &System, which: usize| match which {
            0 => sys.lint().to_json(),
            1 => sys.lint_exact().to_json(),
            _ => format!("{:?}", sys.analyze()),
        };
        for make in systems {
            let reference: Vec<String> = (0..3).map(|w| render(&make(), w)).collect();
            for order in [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ] {
                let sys = make();
                for w in order {
                    assert_eq!(
                        render(&sys, w),
                        reference[w],
                        "{} order {order:?}",
                        sys.name()
                    );
                }
            }
        }
    }

    #[test]
    fn hypercube_and_tree_build() {
        assert!(System::hypercube(3, 6).analyze().deadlock_free);
        let t = System::binary_tree(3, 2).analyze();
        assert!(t.deadlock_free);
        assert_eq!(t.bisection_links, 1);
    }
}
