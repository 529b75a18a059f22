//! The lint driver: rules L1–L6 over a `Network` + `RouteSet`.
//!
//! | rule | checks | severity |
//! |------|--------|----------|
//! | L1 | every live src→dst pair has a route that ends at dst | error (info when the pair is provably severed by faults) |
//! | L2 | paths are channel-consecutive, alive, router-interior, and never repeat a channel | error |
//! | L3 | channel-dependency graph acyclic; on failure *all* elementary cycles (bounded) plus a suggested disable set | error |
//! | L4 | routes obey the declared routing discipline | error |
//! | L5 | per-link worst-case contention within the configured bound | error (info when no bound is configured) |
//! | L6 | (exact mode) installed discipline vs the exhibited minimum disable set, with gap and certificate | info |
//!
//! L1–L3 always run; L4 needs a [`Discipline`], L5 reports
//! informationally unless a bound is set, and L6 runs only under
//! [`Linter::with_exact`]. All rules are static — no flit ever moves —
//! which is the §2.4 claim ("the preceding routing algorithm
//! eliminates these loops and avoids possible deadlocks") made
//! checkable for *any* table, not just the paper's.
//!
//! Exact mode upgrades the L3 disable-set suggestion from greedy to
//! the branch-and-bound minimum over the enumerated cycle space
//! (minimality is never claimed over a truncated enumeration) and adds
//! the L6 report backed by the certificate from
//! [`fractanet_deadlock::synthesize_disables_exact`].

use crate::diag::{Diagnostic, LintReport, RuleId, Severity};
use crate::discipline::{Discipline, Verdict};
use fractanet_deadlock::{
    min_cycle_disables, synthesize_disables, synthesize_disables_exact, CdgSweep,
    ChannelDependencyGraph, ExactConfig,
};
use fractanet_graph::{ChannelId, Network, NodeId};
use fractanet_metrics::{max_link_contention, ContentionReport, ContentionSweep};
use fractanet_route::{
    survivor_components, DeadMask, DestForest, Failure, ForestConsumer, RouteError, RouteSet,
    Routes,
};

/// How many example pairs / channels a single diagnostic carries
/// before switching to a count.
const SAMPLE: usize = 8;

/// Static route-table verifier. Build with [`Linter::new`], configure
/// with the `with_*` methods, run with [`Linter::check`].
///
/// ```
/// use fractanet_lint::Linter;
/// use fractanet_route::{fractal, RouteSet};
/// use fractanet_topo::{Fractahedron, Topology};
///
/// let f = Fractahedron::paper_fat_64();
/// let rs = RouteSet::from_table(f.net(), f.end_nodes(), &fractal::fractal_routes(&f)).unwrap();
/// let report = Linter::new(f.net(), f.end_nodes()).check(&rs);
/// assert!(report.is_clean());
/// ```
pub struct Linter<'a> {
    net: &'a Network,
    ends: &'a [NodeId],
    mask: Option<&'a DeadMask>,
    discipline: Option<Discipline>,
    contention_bound: Option<usize>,
    precomputed: Precomputed<'a>,
    subject: String,
    max_cycles: usize,
    max_cycle_steps: usize,
    suggest_disables: bool,
    exact: Option<ExactConfig>,
    vc_ordering: Option<VcOrdering>,
}

/// Results the caller already holds for the routes about to be
/// checked — from one shared [`DestForest::sweep`], or a dependency
/// graph a gate has just verified — read by the linter instead of
/// computed again ([`Linter::with_certificate`]). Each must come from
/// exactly those routes, and `pairs` from a linter with the same mask
/// and discipline; whatever is `None` is computed as usual.
#[derive(Clone, Copy, Default)]
pub struct Precomputed<'a> {
    /// The channel dependency graph rules L3 and L6 judge.
    pub cdg: Option<&'a ChannelDependencyGraph>,
    /// Rule L5's contention report.
    pub contention: Option<&'a ContentionReport>,
    /// Rules L1, L2 and L4's findings.
    pub pairs: Option<&'a PairVerdicts>,
}

/// The L1, L2 and L4 diagnostics of one set of routes and the number
/// of live pairs they judged: what [`Linter::pair_sweep`] gathers from
/// destination tables, kept to hand back through [`Precomputed`].
#[derive(Clone, Debug)]
pub struct PairVerdicts {
    diagnostics: Vec<Diagnostic>,
    pairs_checked: usize,
}

impl PairVerdicts {
    /// Whether no L1, L2 or L4 finding is an error.
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }
}

/// An externally verified virtual-channel ordering (the linter has no
/// VC model of its own — the caller checks the extended
/// `(channel, vc)` graph and reports the verdict here).
struct VcOrdering {
    vcs: u8,
    scheme: String,
    extended_acyclic: bool,
}

impl<'a> Linter<'a> {
    /// A linter for a network whose end nodes (in address order) are
    /// `ends`.
    pub fn new(net: &'a Network, ends: &'a [NodeId]) -> Self {
        Linter {
            net,
            ends,
            mask: None,
            discipline: None,
            contention_bound: None,
            precomputed: Precomputed::default(),
            subject: "network".into(),
            max_cycles: 16,
            max_cycle_steps: 100_000,
            suggest_disables: true,
            exact: None,
            vc_ordering: None,
        }
    }

    /// Names the configuration in reports (topology name, heal tag…).
    pub fn with_subject(mut self, s: impl Into<String>) -> Self {
        self.subject = s.into();
        self
    }

    /// Lints against a fault mask: dead channels in paths become L2
    /// errors, and pairs severed by the faults downgrade from L1
    /// errors to informational findings.
    pub fn with_mask(mut self, mask: &'a DeadMask) -> Self {
        self.mask = Some(mask);
        self
    }

    /// Declares the routing discipline for rule L4.
    pub fn with_discipline(mut self, d: Discipline) -> Self {
        self.discipline = Some(d);
        self
    }

    /// Sets the worst-case contention bound for rule L5 (`k` of
    /// `k:1`). Without a bound L5 only reports the observed value.
    pub fn with_contention_bound(mut self, k: usize) -> Self {
        self.contention_bound = Some(k);
        self
    }

    /// Supplies results already computed for the routes about to be
    /// checked (see [`Precomputed`]), so the linter does not compute
    /// them again.
    pub fn with_certificate(mut self, pre: Precomputed<'a>) -> Self {
        self.precomputed = pre;
        self
    }

    /// Declares a virtual-channel ordering over these routes, with the
    /// caller's verdict on the extended `(channel, vc)` dependency
    /// graph (Dally–Seitz). When the extended graph is acyclic,
    /// physical-CDG cycles are the *intent* — minimal routes the VC
    /// ordering makes safe — so L3 reports them informationally
    /// instead of as errors. When it is not, L3 fails with the
    /// extended verdict attached in addition to the physical cycles.
    pub fn with_vc_ordering(
        mut self,
        vcs: u8,
        scheme: impl Into<String>,
        extended_acyclic: bool,
    ) -> Self {
        self.vc_ordering = Some(VcOrdering {
            vcs,
            scheme: scheme.into(),
            extended_acyclic,
        });
        self
    }

    /// Caps L3 cycle enumeration (default 16 cycles / 100k DFS steps).
    pub fn with_cycle_limit(mut self, max_cycles: usize, max_steps: usize) -> Self {
        self.max_cycles = max_cycles;
        self.max_cycle_steps = max_steps;
        self
    }

    /// Disables the L3 disable-set suggestion (synthesis re-routes the
    /// whole network; skip it when linting inside a hot path).
    pub fn without_suggestions(mut self) -> Self {
        self.suggest_disables = false;
        self
    }

    /// Enables exact mode: the L3 suggestion becomes the proven
    /// minimum hitting set over the enumerated cycles, and the L6
    /// minimality rule runs, comparing the installed discipline
    /// against the exact synthesizer's certified disable set.
    pub fn with_exact(mut self, cfg: ExactConfig) -> Self {
        self.exact = Some(cfg);
        self
    }

    fn node_ok(&self, v: NodeId) -> bool {
        self.mask.is_none_or(|m| m.node_ok(v))
    }

    fn channel_ok(&self, ch: ChannelId) -> bool {
        self.mask.is_none_or(|m| m.channel_ok(self.net, ch))
    }

    /// Runs every applicable rule over `routes`.
    pub fn check(&self, routes: &RouteSet) -> LintReport {
        let pre = self.precomputed;
        let pairs = pre.pairs.is_none().then(|| self.walk_pairs(routes));
        let cdg = pre
            .cdg
            .is_none()
            .then(|| ChannelDependencyGraph::from_routes(self.net, routes));
        let contention = pre
            .contention
            .is_none()
            .then(|| max_link_contention(self.net, routes));
        self.report(
            given_or(pre.pairs, &pairs),
            given_or(pre.cdg, &cdg),
            given_or(pre.contention, &contention),
        )
    }

    /// Runs every applicable rule directly over destination tables,
    /// judging each destination's routing forest once per node — no
    /// pair is traced and no dense path matrix is materialized. The
    /// L1/L2/L4 findings, the dependency graph and the contention
    /// report not supplied through [`Linter::with_certificate`] are
    /// read off one shared [`DestForest::sweep`]. Tracing failures
    /// surface as diagnostics: missing entries as L1 coverage findings
    /// (severed vs hole, by surviving component), forwarding loops as
    /// L2 errors naming the visited-router sequence. When a fault mask
    /// is set, pairs whose own attach channels are dead lint as
    /// severed (the tables cannot represent an end node's death; the
    /// dense view encodes it as an empty path).
    pub fn check_tables(&self, routes: &Routes) -> LintReport {
        let (net, ends, pre) = (self.net, self.ends, self.precomputed);
        let mut pairs = pre.pairs.is_none().then(|| self.pair_sweep(routes));
        let mut cdg = pre.cdg.is_none().then(|| CdgSweep::new(net));
        let mut contention = pre
            .contention
            .is_none()
            .then(|| ContentionSweep::new(net, ends.len()));
        let mut consumers: Vec<&mut dyn ForestConsumer> = Vec::new();
        if let Some(c) = &mut pairs {
            consumers.push(c);
        }
        if let Some(c) = &mut cdg {
            consumers.push(c);
        }
        if let Some(c) = &mut contention {
            consumers.push(c);
        }
        if !consumers.is_empty() {
            DestForest::sweep(net, ends, routes, &mut consumers);
        }
        self.report(
            given_or(pre.pairs, &pairs.map(PairSweep::finish)),
            given_or(pre.cdg, &cdg.map(CdgSweep::finish)),
            given_or(pre.contention, &contention.map(ContentionSweep::finish)),
        )
    }

    /// Rules L3, L5 and L6 over the dependency graph and contention of
    /// the routes whose L1, L2 and L4 findings are `pairs`.
    fn report(
        &self,
        pairs: &PairVerdicts,
        cdg: &ChannelDependencyGraph,
        contention: &ContentionReport,
    ) -> LintReport {
        let mut diags = pairs.diagnostics.clone();
        let mut rules_run = vec![
            RuleId::L1Coverage,
            RuleId::L2WellFormed,
            RuleId::L3CdgCycles,
        ];
        self.check_cycles(cdg, &mut diags);
        if self.discipline.is_some() {
            rules_run.push(RuleId::L4Discipline);
        }
        rules_run.push(RuleId::L5Contention);
        self.check_contention(contention, &mut diags);
        if let Some(cfg) = &self.exact {
            rules_run.push(RuleId::L6Minimality);
            self.check_minimality(cdg, cfg, &mut diags);
        }
        diags.sort_by_key(|d| (d.rule, std::cmp::Reverse(d.severity)));
        LintReport {
            subject: self.subject.clone(),
            diagnostics: diags,
            pairs_checked: pairs.pairs_checked,
            channels: self.net.channel_count(),
            rules_run,
        }
    }

    /// Rules L1, L2 and L4 over destination tables as a
    /// [`ForestConsumer`], for a caller that sweeps the tables' forests
    /// once for several analyses and hands the resulting
    /// [`PairVerdicts`] back through [`Linter::with_certificate`].
    pub fn pair_sweep<'l>(&'l self, routes: &'l Routes) -> PairSweep<'l, 'a> {
        let (net, ends) = (self.net, self.ends);
        PairSweep {
            linter: self,
            routes,
            comp: survivor_components(self.net, self.mask),
            // The tables cannot describe an end node's death: a pair
            // whose own attach channel died is severed, as in the
            // dense view.
            eject_ok: ends
                .iter()
                .map(|&e| {
                    let attach = net
                        .channels_from(e)
                        .first()
                        .expect("end node must be attached");
                    self.channel_ok(attach.0.reverse())
                })
                .collect(),
            dead_first_seen: vec![NEVER_SEEN; net.channel_count()],
            dead_on_route: vec![None; net.node_count()],
            verdict: vec![Verdict::default(); net.node_count()],
            bad: Tally::default(),
            checked: 0,
            findings: PairFindings::default(),
        }
    }

    /// Whether both endpoints of pair `(s, d)` are live addresses.
    fn pair_live(&self, s: usize, d: usize) -> bool {
        s < self.ends.len()
            && d < self.ends.len()
            && self.node_ok(self.ends[s])
            && self.node_ok(self.ends[d])
    }

    /// Rules L1, L2 and L4 in a single pass over every pair of a dense
    /// route set — [`Linter::pair_sweep`] for routes that are not
    /// destination tables.
    pub fn walk_pairs(&self, rs: &RouteSet) -> PairVerdicts {
        let mut findings = PairFindings::default();
        let f = &mut findings;
        let comp = survivor_components(self.net, self.mask);
        let mut bad = Tally::default();
        let mut first_err = None;
        let mut checked = 0usize;
        let mut seen_stamp = vec![0u32; self.net.channel_count()];
        let mut stamp = 0u32;
        for (s, d, p) in rs.pairs() {
            if !self.pair_live(s, d) {
                continue;
            }
            checked += 1;
            if let Some(disc) = &self.discipline {
                if let Err(e) = disc.check_path(self.net, p) {
                    first_err.get_or_insert(e);
                    bad.push((s, d));
                }
            }
            let Some(&last) = p.last() else {
                f.unrouted(&comp, self.ends, s, d);
                continue;
            };
            // L1: endpoints.
            if self.net.channel_src(p[0]) != self.ends[s] {
                f.wrong_source.push((s, d));
            }
            if self.net.channel_dst(last) != self.ends[d] {
                f.misdelivered.push((s, d));
            }
            // L2: consecutive, alive, simple, router-interior.
            stamp += 1;
            let mut flagged_dead = false;
            let mut flagged_rep = false;
            for (i, &ch) in p.iter().enumerate() {
                if !self.channel_ok(ch) && !flagged_dead {
                    f.dead.push((s, d));
                    if f.dead_channels.len() < SAMPLE && !f.dead_channels.contains(&ch) {
                        f.dead_channels.push(ch);
                    }
                    flagged_dead = true;
                }
                if seen_stamp[ch.index()] == stamp && !flagged_rep {
                    f.repeated.push((s, d));
                    flagged_rep = true;
                }
                seen_stamp[ch.index()] = stamp;
                if i + 1 < p.len() {
                    let next = p[i + 1];
                    if self.net.channel_dst(ch) != self.net.channel_src(next) {
                        f.discontinuous.push((s, d));
                        break;
                    }
                    if !self.net.is_router(self.net.channel_dst(ch)) {
                        f.through_end.push((s, d));
                        break;
                    }
                }
            }
        }
        f.discipline = first_err.map(|e| (bad, e));
        findings.verdicts(self.discipline.as_ref(), checked)
    }

    /// L3: CDG acyclicity with full (bounded) cycle enumeration and a
    /// suggested disable set.
    fn check_cycles(&self, cdg: &ChannelDependencyGraph, out: &mut Vec<Diagnostic>) {
        if cdg.is_deadlock_free() {
            return;
        }
        // A verified VC ordering makes physical cycles intentional:
        // the routes are minimal *because* the extended (channel, vc)
        // graph — not the physical one — is what must be acyclic.
        if let Some(vc) = &self.vc_ordering {
            if vc.extended_acyclic {
                out.push(Diagnostic::new(
                    RuleId::L3CdgCycles,
                    Severity::Info,
                    format!(
                        "physical channel-dependency cycles present by design: the \
                         {}-VC {} ordering breaks them — extended (channel, vc) \
                         dependency graph verified acyclic",
                        vc.vcs, vc.scheme
                    ),
                ));
                return;
            }
            out.push(Diagnostic::new(
                RuleId::L3CdgCycles,
                Severity::Error,
                format!(
                    "the {}-VC {} ordering does NOT break the physical cycles: \
                     the extended (channel, vc) dependency graph is still cyclic",
                    vc.vcs, vc.scheme
                ),
            ));
        }
        let (cycles, truncated) = cdg
            .graph()
            .elementary_cycles(self.max_cycles, self.max_cycle_steps);
        let suggestion = if self.suggest_disables {
            Some(match &self.exact {
                Some(cfg) => self.exact_suggestion(&cycles, truncated, cfg),
                None => self.disable_suggestion(&cycles),
            })
        } else {
            None
        };
        for (i, cyc) in cycles.iter().enumerate() {
            let chans: Vec<ChannelId> = cyc.iter().map(|&v| ChannelId(v)).collect();
            let hops: Vec<String> = chans
                .iter()
                .map(|&ch| {
                    format!(
                        "{}->{}",
                        self.net.label(self.net.channel_src(ch)),
                        self.net.label(self.net.channel_dst(ch))
                    )
                })
                .collect();
            let mut diag = Diagnostic::new(
                RuleId::L3CdgCycles,
                Severity::Error,
                format!(
                    "channel-dependency cycle {}/{}{}: {} ({} channels)",
                    i + 1,
                    cycles.len(),
                    if truncated {
                        "+ (enumeration truncated)"
                    } else {
                        ""
                    },
                    hops.join(" => "),
                    chans.len()
                ),
            )
            .with_channels(chans)
            .with_truncated(truncated);
            if i == 0 {
                if let Some(s) = &suggestion {
                    diag = diag.with_suggestion(s.clone());
                }
            }
            out.push(diag);
        }
        if truncated {
            out.push(
                Diagnostic::new(
                    RuleId::L3CdgCycles,
                    Severity::Warning,
                    format!(
                        "cycle enumeration truncated at {} cycles — the dependency graph \
                         contains more, so any suggested disable set covers a partial \
                         cycle list",
                        cycles.len()
                    ),
                )
                .with_truncated(true),
            );
        }
    }

    /// A minimal-ish disable set that would make the network
    /// deadlock-free, via the Fig 2 synthesis — falling back to a
    /// greedy hitting set of turns over the enumerated cycles when the
    /// synthesis needs no disables (the installed tables, not the
    /// topology, are at fault).
    fn disable_suggestion(&self, cycles: &[Vec<u32>]) -> String {
        match synthesize_disables(self.net, self.ends, 200) {
            Ok((disables, _)) if disables.is_empty() => {
                let turns = turn_hitting_set(cycles);
                let named: Vec<String> = turns
                    .iter()
                    .map(|&(a, b)| {
                        format!(
                            "{}->{}-x->{}",
                            self.net.label(self.net.channel_src(ChannelId(a))),
                            self.net.label(self.net.channel_dst(ChannelId(a))),
                            self.net.label(self.net.channel_dst(ChannelId(b)))
                        )
                    })
                    .collect();
                format!(
                    "disable {} turn(s) to break the enumerated cycle(s): {}; \
                     alternatively re-route — greedy shortest-allowed-path routing \
                     of this topology is acyclic without disables",
                    named.len(),
                    named.join(", ")
                )
            }
            Ok((disables, _)) => {
                let mut turns: Vec<String> = disables
                    .iter()
                    .map(|(a, b)| {
                        format!(
                            "{}->{}-x->{}",
                            self.net.label(self.net.channel_src(a)),
                            self.net.label(self.net.channel_dst(a)),
                            self.net.label(self.net.channel_dst(b))
                        )
                    })
                    .collect();
                turns.sort();
                format!(
                    "disable {} turn(s) and re-route (Fig 2 synthesis): {}",
                    turns.len(),
                    turns.join(", ")
                )
            }
            Err(e) => format!("no disable set found ({e})"),
        }
    }

    /// Exact-mode L3 suggestion: the branch-and-bound minimum hitting
    /// set over the enumerated cycles, with the minimality claim scoped
    /// honestly — never claimed over a truncated enumeration or an
    /// exhausted node budget.
    fn exact_suggestion(&self, cycles: &[Vec<u32>], truncated: bool, cfg: &ExactConfig) -> String {
        let sol = min_cycle_disables(cycles, cfg.bb_node_budget);
        let named: Vec<String> = sol
            .turns
            .iter()
            .map(|&(a, b)| {
                format!(
                    "{}->{}-x->{}",
                    self.net.label(self.net.channel_src(ChannelId(a))),
                    self.net.label(self.net.channel_dst(ChannelId(a))),
                    self.net.label(self.net.channel_dst(ChannelId(b)))
                )
            })
            .collect();
        let claim = if truncated {
            "enumeration truncated — minimality not claimed".to_string()
        } else if sol.proven_minimal {
            format!(
                "proven minimal over the {} enumerated cycle(s)",
                cycles.len()
            )
        } else {
            format!(
                "node budget exhausted — minimality unproven (lower bound {})",
                sol.lower_bound
            )
        };
        format!(
            "disable {} turn(s) ({claim}): {}",
            named.len(),
            named.join(", ")
        )
    }

    /// L6 (exact mode only): compares the turns the installed routing
    /// forgoes against the exhibited minimum from the certificate-
    /// producing synthesizer. Informational — a positive gap means the
    /// discipline is more restrictive than necessary, not wrong.
    fn check_minimality(
        &self,
        installed: &ChannelDependencyGraph,
        cfg: &ExactConfig,
        out: &mut Vec<Diagnostic>,
    ) {
        let synth = match synthesize_disables_exact(self.net, self.ends, self.mask, cfg) {
            Ok(s) => s,
            Err(e) => {
                out.push(Diagnostic::new(
                    RuleId::L6Minimality,
                    Severity::Warning,
                    format!("exact synthesis failed: {e}"),
                ));
                return;
            }
        };
        // Turn deviation of the installed routing: CDG edges the
        // unrestricted shortest-path routing (the synthesizer's first
        // round) takes that the installed routing avoids — the price
        // the discipline pays.
        let forgone = synth
            .unrestricted_dependencies
            .iter()
            .filter(|&&(a, b)| installed.witness(ChannelId(a), ChannelId(b)).is_none())
            .count();
        let m = synth.disables();
        let gap = forgone.saturating_sub(m);
        let minimality = if synth.proven_minimal {
            format!(
                "proven minimal over the {} enumerated cycle(s)",
                synth.cycles_seen
            )
        } else if synth.truncated {
            "cycle enumeration truncated — minimality not claimed".to_string()
        } else {
            format!(
                "minimality unproven (lower bound {}, greedy {})",
                synth.lower_bound,
                if synth.greedy_size == usize::MAX {
                    "failed".to_string()
                } else {
                    synth.greedy_size.to_string()
                }
            )
        };
        let message = if gap > 0 {
            format!(
                "installed routing forgoes {forgone} turn(s) of the unrestricted \
                 shortest-path routing; {m} disable(s) suffice ({minimality}) — \
                 {gap} more than the exhibited minimum"
            )
        } else {
            format!(
                "installed routing forgoes {forgone} turn(s); exhibited minimum is \
                 {m} disable(s) ({minimality})"
            )
        };
        out.push(
            Diagnostic::new(RuleId::L6Minimality, Severity::Info, message)
                .with_gap(gap)
                .with_truncated(synth.truncated)
                .with_certificate(synth.certificate_json()),
        );
    }

    /// L5: worst-case per-link contention against the configured bound
    /// (informational without one).
    fn check_contention(&self, rep: &ContentionReport, out: &mut Vec<Diagnostic>) {
        match self.contention_bound {
            Some(bound) if rep.worst > bound => {
                let over: Vec<ChannelId> = rep
                    .per_channel
                    .iter()
                    .enumerate()
                    .filter(|&(_, &k)| k > bound)
                    .map(|(i, _)| ChannelId(i as u32))
                    .take(SAMPLE)
                    .collect();
                let n_over = rep.per_channel.iter().filter(|&&k| k > bound).count();
                out.push(
                    Diagnostic::new(
                        RuleId::L5Contention,
                        Severity::Error,
                        format!(
                            "worst-case contention {}:1 exceeds the configured bound {}:1 \
                             on {} channel(s); hottest: {} -> {}",
                            rep.worst,
                            bound,
                            n_over,
                            self.net.label(self.net.channel_src(rep.worst_channel)),
                            self.net.label(self.net.channel_dst(rep.worst_channel)),
                        ),
                    )
                    .with_channels(over),
                );
            }
            Some(_) => {}
            None => out.push(
                Diagnostic::new(
                    RuleId::L5Contention,
                    Severity::Info,
                    format!(
                        "worst-case contention {}:1 (no bound configured for this topology)",
                        rep.worst
                    ),
                )
                .with_channels(vec![rep.worst_channel]),
            ),
        }
    }
}

/// `given` when the caller supplied it, else what was computed in its
/// place.
fn given_or<'x, T>(given: Option<&'x T>, computed: &'x Option<T>) -> &'x T {
    given
        .or(computed.as_ref())
        .expect("computed whenever not given")
}

/// No dead pair has crossed this channel yet.
const NEVER_SEEN: (usize, usize) = (usize::MAX, usize::MAX);

/// Rules L1, L2 and L4 over destination tables, one routing forest per
/// destination (DESIGN.md §13), built by [`Linter::pair_sweep`]. Each
/// node is judged once per forest — its failure, the first dead
/// channel on its route and its discipline verdict, carried outward
/// from the target — and each pair then reads its verdicts off its
/// source's first router in O(1). Traced routes are
/// channel-consecutive, router-interior and simple by construction, so
/// of L2 only loops and dead channels can fire. Samples keep the
/// smallest pairs, which is the source-major order of the pair walk;
/// the one loop route and the one discipline violation a message
/// spells out are traced again by [`PairSweep::finish`].
pub struct PairSweep<'l, 'a> {
    linter: &'l Linter<'a>,
    routes: &'l Routes,
    /// Surviving-component label per node.
    comp: Vec<u32>,
    /// Whether each address's attach channel into it survives.
    eject_ok: Vec<bool>,
    /// The smallest dead pair whose first dead channel is each channel.
    dead_first_seen: Vec<(usize, usize)>,
    /// The first dead channel on each node's route, per forest.
    dead_on_route: Vec<Option<ChannelId>>,
    /// Each node's discipline verdict, per forest.
    verdict: Vec<Verdict>,
    bad: Tally,
    checked: usize,
    findings: PairFindings,
}

impl ForestConsumer for PairSweep<'_, '_> {
    fn absorb(&mut self, forest: &DestForest<'_>) {
        let linter = self.linter;
        let (net, ends) = (linter.net, linter.ends);
        let d = forest.dst();
        if !linter.node_ok(ends[d]) {
            return;
        }
        let f = &mut self.findings;
        for &v in forest.routed() {
            let Some(ch) = forest.hop(v) else {
                self.dead_on_route[v.index()] = None;
                self.verdict[v.index()] = Verdict::default();
                continue;
            };
            let next = forest.channel_dst(ch).index();
            self.dead_on_route[v.index()] = if linter.channel_ok(ch) {
                self.dead_on_route[next]
            } else {
                Some(ch)
            };
            if let Some(disc) = &linter.discipline {
                self.verdict[v.index()] = disc.prepend(net, ch, self.verdict[next]);
            }
        }
        for s in (0..ends.len()).filter(|&s| s != d && linter.node_ok(ends[s])) {
            self.checked += 1;
            let (ch, first) = forest.inject(s);
            if let Some(disc) = &linter.discipline {
                let routed = forest.depth(first).is_some();
                if routed && disc.prepend(net, ch, self.verdict[first.index()]).bad {
                    self.bad.push((s, d));
                }
            }
            if !(linter.channel_ok(ch) && self.eject_ok[d]) {
                f.unrouted(&self.comp, ends, s, d);
                continue;
            }
            match forest.failure(first) {
                None => {
                    if let Some(dead) = self.dead_on_route[first.index()] {
                        f.dead.push((s, d));
                        let seen = &mut self.dead_first_seen[dead.index()];
                        *seen = (*seen).min((s, d));
                    }
                }
                Some(Failure::Unrouted) => f.unrouted(&self.comp, ends, s, d),
                Some(Failure::Misdelivered) => f.misdelivered.push((s, d)),
                Some(Failure::Loop) => f.loops.push((s, d)),
            }
        }
    }
}

impl PairSweep<'_, '_> {
    /// The L1, L2 and L4 findings of every destination absorbed.
    pub fn finish(self) -> PairVerdicts {
        let (net, ends, routes) = (self.linter.net, self.linter.ends, self.routes);
        let discipline = self.linter.discipline.as_ref();
        let mut f = self.findings;
        // The pair walk keeps each dead pair's first dead channel, in
        // pair order, until it holds SAMPLE distinct ones.
        let mut dead: Vec<(usize, usize, usize)> = self
            .dead_first_seen
            .iter()
            .enumerate()
            .filter(|&(_, &seen)| seen != NEVER_SEEN)
            .map(|(ch, &(s, d))| (s, d, ch))
            .collect();
        dead.sort_unstable();
        f.dead_channels = dead
            .iter()
            .take(SAMPLE)
            .map(|&(_, _, ch)| ChannelId(ch as u32))
            .collect();
        if let Some(&(s, d)) = f.loops.sample.first() {
            if let Err(RouteError::ForwardingLoop { visited, .. }) = routes.trace(net, ends, s, d) {
                let names: Vec<&str> = visited.iter().map(|&v| net.label(v)).collect();
                f.loop_detail = Some(names.join(" -> "));
            }
        }
        if let (Some(disc), Some(&(s, d))) = (discipline, self.bad.sample.first()) {
            let path = routes
                .trace(net, ends, s, d)
                .expect("a judged route traces");
            let first_err = disc
                .check_path(net, &path)
                .expect_err("the forest verdict matches the pair check");
            f.discipline = Some((self.bad, first_err));
        }
        f.verdicts(discipline, self.checked)
    }
}

/// How many pairs a finding covers, and its [`SAMPLE`] smallest pairs
/// in source-major order, whatever order the pairs arrive in.
#[derive(Default)]
struct Tally {
    total: usize,
    sample: Vec<(usize, usize)>,
}

impl Tally {
    fn push(&mut self, pair: (usize, usize)) {
        self.total += 1;
        let at = self.sample.partition_point(|&p| p < pair);
        if at < SAMPLE {
            self.sample.truncate(SAMPLE - 1);
            self.sample.insert(at, pair);
        }
    }
}

/// The per-pair findings of rules L1, L2 and L4, gathered by either
/// the dense pair walk or the forest sweep and reported alike.
#[derive(Default)]
struct PairFindings {
    holes: Tally,
    severed: Tally,
    wrong_source: Tally,
    misdelivered: Tally,
    discontinuous: Tally,
    dead: Tally,
    /// The first dead channel of each dead pair, distinct, in pair
    /// order.
    dead_channels: Vec<ChannelId>,
    repeated: Tally,
    through_end: Tally,
    loops: Tally,
    /// The visited-router sequence of the first looping pair.
    loop_detail: Option<String>,
    /// L4 violations and the first violating pair's description.
    discipline: Option<(Tally, String)>,
}

impl PairFindings {
    /// A live pair with no route: a coverage hole when its ends share
    /// a surviving component, else severed by faults.
    fn unrouted(&mut self, comp: &[u32], ends: &[NodeId], s: usize, d: usize) {
        if comp[ends[s].index()] == comp[ends[d].index()] {
            self.holes.push((s, d));
        } else {
            self.severed.push((s, d));
        }
    }

    /// The L1, L2 and L4 diagnostics over `pairs_checked` live pairs.
    fn verdicts(self, discipline: Option<&Discipline>, pairs_checked: usize) -> PairVerdicts {
        let mut diagnostics = Vec::new();
        self.emit(discipline, &mut diagnostics);
        PairVerdicts {
            diagnostics,
            pairs_checked,
        }
    }

    /// The L1, L2 and L4 diagnostics, in rule order.
    fn emit(self, discipline: Option<&Discipline>, out: &mut Vec<Diagnostic>) {
        fn finding(rule: RuleId, sev: Severity, t: Tally, msg: String) -> Diagnostic {
            let mut diag = Diagnostic::new(rule, sev, msg).with_pairs(t.sample);
            diag.affected_pairs = t.total;
            diag
        }
        let emit = |out: &mut Vec<Diagnostic>, rule, sev, t: Tally, what: &str| {
            if t.total > 0 {
                let msg = format!("{} pair(s) {what} (e.g. {:?})", t.total, t.sample[0]);
                out.push(finding(rule, sev, t, msg));
            }
        };
        let (l1, l2) = (RuleId::L1Coverage, RuleId::L2WellFormed);
        if self.loops.total > 0 {
            let msg = format!(
                "{} pair(s) forward in a loop (e.g. {:?} via {})",
                self.loops.total,
                self.loops.sample[0],
                self.loop_detail.as_deref().unwrap_or("?"),
            );
            out.push(finding(l2, Severity::Error, self.loops, msg));
        }
        emit(
            out,
            l1,
            Severity::Error,
            self.holes,
            "have no route despite src and dst being connected in the surviving network \
             (coverage hole)",
        );
        emit(
            out,
            l1,
            Severity::Info,
            self.severed,
            "are severed by faults (no surviving physical path); graceful degradation",
        );
        emit(
            out,
            l1,
            Severity::Error,
            self.wrong_source,
            "have a route that does not start at the source end node",
        );
        emit(
            out,
            l1,
            Severity::Error,
            self.misdelivered,
            "have a route that does not end at the destination end node",
        );
        emit(
            out,
            l2,
            Severity::Error,
            self.discontinuous,
            "have a discontinuous path (consecutive channels do not share a router)",
        );
        if self.dead.total > 0 {
            let msg = format!(
                "{} pair(s) routed over dead channels (e.g. {:?} via {:?})",
                self.dead.total, self.dead.sample[0], self.dead_channels[0]
            );
            out.push(
                finding(l2, Severity::Error, self.dead, msg).with_channels(self.dead_channels),
            );
        }
        emit(
            out,
            l2,
            Severity::Error,
            self.repeated,
            "repeat a channel within one path (wormhole self-block)",
        );
        emit(
            out,
            l2,
            Severity::Error,
            self.through_end,
            "route through an end node as if it were a router",
        );
        if let (Some(d), Some((bad, first_err))) = (discipline, self.discipline) {
            let msg = format!(
                "{} pair(s) violate the {} discipline; first: pair {:?}, {first_err}",
                bad.total,
                d.name(),
                bad.sample[0]
            );
            out.push(finding(RuleId::L4Discipline, Severity::Error, bad, msg));
        }
    }
}

/// Greedy hitting set over the enumerated cycles: repeatedly disable
/// the turn (CDG edge `held -> wanted`) that appears in the most
/// still-unbroken cycles. Not guaranteed minimum, but small and every
/// enumerated cycle loses at least one turn.
fn turn_hitting_set(cycles: &[Vec<u32>]) -> Vec<(u32, u32)> {
    let mut alive: Vec<Vec<(u32, u32)>> = cycles
        .iter()
        .map(|c| (0..c.len()).map(|i| (c[i], c[(i + 1) % c.len()])).collect())
        .collect();
    let mut chosen = Vec::new();
    while !alive.is_empty() {
        let mut counts: std::collections::HashMap<(u32, u32), usize> =
            std::collections::HashMap::new();
        for c in &alive {
            for &e in c {
                *counts.entry(e).or_insert(0) += 1;
            }
        }
        // Deterministic tie-break: highest count, then smallest edge.
        let &best = counts
            .iter()
            .max_by_key(|&(e, n)| (*n, std::cmp::Reverse(*e)))
            .map(|(e, _)| e)
            .expect("alive cycles are non-empty");
        chosen.push(best);
        alive.retain(|c| !c.contains(&best));
    }
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_route::repair::trace_surviving;
    use fractanet_route::ringroute::{ring_clockwise_routes, ring_shortest_routes};
    use fractanet_route::{dor, fractal, repair_tables, Routes};
    use fractanet_topo::{Fractahedron, Mesh2D, Ring, Topology, Variant};

    fn fracta_rs(f: &Fractahedron) -> RouteSet {
        RouteSet::from_table(f.net(), f.end_nodes(), &fractal::fractal_routes(f)).unwrap()
    }

    #[test]
    fn clean_fractahedron_passes_all_rules() {
        let f = Fractahedron::new(2, Variant::Fat, false).unwrap();
        let rs = fracta_rs(&f);
        let report = Linter::new(f.net(), f.end_nodes())
            .with_discipline(Discipline::fractahedral(&f))
            .with_contention_bound(8)
            .check(&rs);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.pairs_checked, 64 * 63);
        assert_eq!(report.rules_run.len(), 5);
    }

    #[test]
    fn fig1_ring_trips_l3_with_cycles_and_suggestion() {
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = RouteSet::from_table(r.net(), r.end_nodes(), &ring_clockwise_routes(&r)).unwrap();
        let report = Linter::new(r.net(), r.end_nodes())
            .with_subject("fig1 ring")
            .check(&rs);
        assert!(!report.is_clean());
        let l3: Vec<_> = report.by_rule(RuleId::L3CdgCycles).collect();
        assert!(!l3.is_empty());
        // The diagnostic names the channels...
        assert!(!l3[0].channels.is_empty());
        assert!(l3[0].message.contains("=>"), "{}", l3[0].message);
        // ...and proposes a disable set.
        assert!(
            l3.iter().any(|d| d.suggestion.is_some()),
            "expected a disable-set suggestion"
        );
        let json = report.to_json();
        assert!(json.contains("\"rule\":\"L3\""));
        assert!(json.contains("\"clean\":false"));
    }

    #[test]
    fn exact_mode_stays_clean_and_adds_l6_with_certificate() {
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let rs = fracta_rs(&f);
        let report = Linter::new(f.net(), f.end_nodes())
            .with_discipline(Discipline::fractahedral(&f))
            .with_exact(ExactConfig::default())
            .check(&rs);
        assert!(report.is_clean(), "{report}");
        assert!(report.rules_run.contains(&RuleId::L6Minimality));
        let l6: Vec<_> = report.by_rule(RuleId::L6Minimality).collect();
        assert_eq!(l6.len(), 1);
        assert_eq!(l6[0].severity, Severity::Info);
        let cert = l6[0]
            .certificate
            .as_deref()
            .expect("L6 carries certificate");
        assert!(cert.contains("\"rank\":["), "{cert}");
        assert!(report.to_json().contains("\"certificate\":{"));
    }

    #[test]
    fn exact_mode_ring_suggestion_claims_scoped_minimality() {
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = RouteSet::from_table(r.net(), r.end_nodes(), &ring_clockwise_routes(&r)).unwrap();
        let report = Linter::new(r.net(), r.end_nodes())
            .with_exact(ExactConfig::default())
            .check(&rs);
        assert!(!report.is_clean());
        let l3: Vec<_> = report.by_rule(RuleId::L3CdgCycles).collect();
        let s = l3
            .iter()
            .find_map(|d| d.suggestion.as_deref())
            .expect("exact L3 suggestion");
        assert!(s.contains("proven minimal over the"), "{s}");
        // The untruncated enumeration is recorded on the diagnostic.
        assert_eq!(l3[0].truncated, Some(false));
        assert!(report.to_json().contains("\"truncated\":false"));
    }

    #[test]
    fn truncated_enumeration_refuses_minimality_and_is_surfaced() {
        // Cap the enumeration at a single cycle on the shortest-routed
        // ring (which has two): truncation must be flagged on the L3
        // diagnostics and the exact suggestion must not claim
        // minimality.
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = RouteSet::from_table(r.net(), r.end_nodes(), &ring_shortest_routes(&r)).unwrap();
        let report = Linter::new(r.net(), r.end_nodes())
            .with_cycle_limit(1, 100_000)
            .with_exact(ExactConfig::default())
            .check(&rs);
        let l3: Vec<_> = report.by_rule(RuleId::L3CdgCycles).collect();
        assert!(l3.iter().any(|d| d.truncated == Some(true)));
        assert!(l3
            .iter()
            .any(|d| d.message.contains("enumeration truncated")));
        let s = l3
            .iter()
            .find_map(|d| d.suggestion.as_deref())
            .expect("suggestion still emitted");
        assert!(s.contains("minimality not claimed"), "{s}");
        assert!(!s.contains("proven minimal"), "{s}");
        assert!(report.to_json().contains("\"truncated\":true"));
    }

    #[test]
    fn shortest_ring_is_also_flagged() {
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = RouteSet::from_table(r.net(), r.end_nodes(), &ring_shortest_routes(&r)).unwrap();
        assert!(!Linter::new(r.net(), r.end_nodes()).check(&rs).is_clean());
    }

    #[test]
    fn coverage_hole_is_an_error() {
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let rs = fracta_rs(&f);
        let n = rs.len();
        // Empty one path: a hole, since the network is fully connected.
        let holed = RouteSet::from_pairs(n, |s, d| {
            if (s, d) == (0, 5) {
                Vec::new()
            } else {
                rs.path(s, d).to_vec()
            }
        });
        let report = Linter::new(f.net(), f.end_nodes()).check(&holed);
        assert_eq!(report.error_count(), 1, "{report}");
        let diag = report.by_rule(RuleId::L1Coverage).next().unwrap();
        assert!(diag.message.contains("coverage hole"));
        assert_eq!(diag.pairs, vec![(0, 5)]);
    }

    #[test]
    fn severed_pair_is_informational_under_mask() {
        let r = Ring::new(4, 1, 6).unwrap();
        let mut mask = DeadMask::new(r.net());
        let router0 = r.net().channels_from(r.end_nodes()[0]).first().unwrap().1;
        mask.kill_router(router0);
        let rep = repair_tables(r.net(), r.end_nodes(), &mask);
        let report = Linter::new(r.net(), r.end_nodes())
            .with_mask(&mask)
            .check(&trace_surviving(r.net(), r.end_nodes(), &mask, &rep.tables));
        assert!(report.is_clean(), "{report}");
        // End 0 itself is alive (only its attach router died), so all
        // 4*3 ordered pairs are examined; its pairs lint as severed
        // (info), the surviving 3x2 as covered.
        assert_eq!(report.pairs_checked, 12);
    }

    #[test]
    fn dead_channel_in_path_is_an_error() {
        // Install healthy routes, then kill a link they cross without
        // re-routing: exactly the PR 1 bug class.
        let r = Ring::new(4, 1, 6).unwrap();
        let rs = RouteSet::from_table(r.net(), r.end_nodes(), &ring_shortest_routes(&r)).unwrap();
        let victim = rs.path(0, 1)[1].link();
        let mut mask = DeadMask::new(r.net());
        mask.kill_link(victim);
        let report = Linter::new(r.net(), r.end_nodes())
            .with_mask(&mask)
            .check(&rs);
        let dead: Vec<_> = report
            .by_rule(RuleId::L2WellFormed)
            .filter(|d| d.message.contains("dead"))
            .collect();
        assert_eq!(dead.len(), 1, "{report}");
        assert!(dead[0].affected_pairs >= 1);
        assert!(!dead[0].channels.is_empty());
    }

    #[test]
    fn truncated_and_misdelivered_paths_flagged() {
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let rs = fracta_rs(&f);
        let n = rs.len();
        let corrupted = RouteSet::from_pairs(n, |s, d| {
            let mut p = rs.path(s, d).to_vec();
            if (s, d) == (2, 7) {
                p.pop(); // now ends mid-network
            }
            p
        });
        let report = Linter::new(f.net(), f.end_nodes()).check(&corrupted);
        assert!(!report.is_clean());
        assert!(report
            .by_rule(RuleId::L1Coverage)
            .any(|d| d.message.contains("does not end at the destination")));
    }

    #[test]
    fn repeated_channel_flagged() {
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let rs = fracta_rs(&f);
        let n = rs.len();
        let corrupted = RouteSet::from_pairs(n, |s, d| {
            let mut p = rs.path(s, d).to_vec();
            if (s, d) == (0, 7) && p.len() >= 3 {
                // Insert a there-and-back detour over channel 1's link.
                let ch = p[1];
                p.insert(2, ch.reverse());
                p.insert(3, ch);
            }
            p
        });
        let report = Linter::new(f.net(), f.end_nodes()).check(&corrupted);
        assert!(report
            .by_rule(RuleId::L2WellFormed)
            .any(|d| d.message.contains("repeat a channel")));
    }

    #[test]
    fn discontinuous_path_flagged() {
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let rs = fracta_rs(&f);
        let n = rs.len();
        let corrupted = RouteSet::from_pairs(n, |s, d| {
            let mut p = rs.path(s, d).to_vec();
            if (s, d) == (0, 7) && p.len() >= 3 {
                p.remove(1); // skip a hop: neighbours no longer share a router
            }
            p
        });
        let report = Linter::new(f.net(), f.end_nodes()).check(&corrupted);
        assert!(report
            .by_rule(RuleId::L2WellFormed)
            .any(|d| d.message.contains("discontinuous")));
    }

    #[test]
    fn l4_flags_wrong_discipline() {
        let m = Mesh2D::new(3, 3, 1, 6).unwrap();
        let yx = RouteSet::from_table(m.net(), m.end_nodes(), &dor::mesh_yx_routes(&m)).unwrap();
        let report = Linter::new(m.net(), m.end_nodes())
            .with_discipline(Discipline::mesh_xy(&m))
            .check(&yx);
        let l4: Vec<_> = report.by_rule(RuleId::L4Discipline).collect();
        assert_eq!(l4.len(), 1);
        assert_eq!(l4[0].severity, Severity::Error);
        assert!(l4[0].affected_pairs > 0);
    }

    #[test]
    fn l5_bound_and_info_modes() {
        let m = Mesh2D::new(6, 6, 2, 6).unwrap();
        let rs = RouteSet::from_table(m.net(), m.end_nodes(), &dor::mesh_xy_routes(&m)).unwrap();
        // Paper bound 10:1 → clean.
        let ok = Linter::new(m.net(), m.end_nodes())
            .with_contention_bound(10)
            .check(&rs);
        assert!(ok.is_clean(), "{ok}");
        assert!(ok.by_rule(RuleId::L5Contention).next().is_none());
        // Tighter bound → error naming channels.
        let tight = Linter::new(m.net(), m.end_nodes())
            .with_contention_bound(9)
            .check(&rs);
        let l5: Vec<_> = tight.by_rule(RuleId::L5Contention).collect();
        assert_eq!(l5.len(), 1);
        assert_eq!(l5[0].severity, Severity::Error);
        assert!(l5[0].message.contains("10:1"));
        // No bound → info only, still clean.
        let info = Linter::new(m.net(), m.end_nodes()).check(&rs);
        assert!(info.is_clean());
        assert_eq!(
            info.by_rule(RuleId::L5Contention).next().unwrap().severity,
            Severity::Info
        );
    }

    #[test]
    fn wrong_source_detected() {
        let f = Fractahedron::new(1, Variant::Fat, false).unwrap();
        let rs = fracta_rs(&f);
        let n = rs.len();
        // Swap one pair's path for another source's path to the same dst.
        let corrupted = RouteSet::from_pairs(n, |s, d| {
            if (s, d) == (2, 7) {
                rs.path(4, 7).to_vec()
            } else {
                rs.path(s, d).to_vec()
            }
        });
        let report = Linter::new(f.net(), f.end_nodes()).check(&corrupted);
        assert!(report
            .by_rule(RuleId::L1Coverage)
            .any(|d| d.message.contains("does not start at the source")));
    }

    #[test]
    fn tables_lint_matches_dense_lint_when_clean() {
        let f = Fractahedron::new(2, Variant::Fat, false).unwrap();
        let routes = fractal::fractal_routes(&f);
        let tabled = Linter::new(f.net(), f.end_nodes())
            .with_discipline(Discipline::fractahedral(&f))
            .with_contention_bound(8)
            .check_tables(&routes);
        assert!(tabled.is_clean(), "{tabled}");
        assert_eq!(tabled.pairs_checked, 64 * 63);
        let rs = RouteSet::from_table(f.net(), f.end_nodes(), &routes).unwrap();
        let dense = Linter::new(f.net(), f.end_nodes())
            .with_discipline(Discipline::fractahedral(&f))
            .with_contention_bound(8)
            .check(&rs);
        assert_eq!(tabled.to_json(), dense.to_json());
    }

    #[test]
    fn forwarding_loop_names_the_visited_routers() {
        // Corrupt two table entries so r0 and r1 bounce destination 2
        // between each other forever.
        let r = Ring::new(4, 1, 6).unwrap();
        let mut routes: Routes = ring_shortest_routes(&r);
        let net = r.net();
        let (r0, r1) = (r.router(0), r.router(1));
        let to_r1 = net
            .channels_from(r0)
            .iter()
            .find(|&&(_, w)| w == r1)
            .map(|&(ch, _)| ch)
            .unwrap();
        routes.set(r0, 2, net.channel_src_port(to_r1));
        routes.set(r1, 2, net.channel_dst_port(to_r1));
        let report = Linter::new(net, r.end_nodes()).check_tables(&routes);
        let l2: Vec<_> = report
            .by_rule(RuleId::L2WellFormed)
            .filter(|d| d.message.contains("forward in a loop"))
            .collect();
        assert_eq!(l2.len(), 1, "{report}");
        // The diagnostic spells out the visited-router cycle.
        assert!(l2[0].message.contains("->"), "{}", l2[0].message);
        assert!(
            l2[0].message.contains(net.label(r0)) && l2[0].message.contains(net.label(r1)),
            "{}",
            l2[0].message
        );
        assert!(l2[0].affected_pairs >= 1);
    }

    #[test]
    fn tables_lint_under_mask_matches_healed_dense_lint() {
        // The heal path: repaired tables linted directly must agree
        // with linting their traced dense projection.
        let r = Ring::new(6, 1, 6).unwrap();
        let mut mask = DeadMask::new(r.net());
        let victim = r
            .net()
            .channels_from(r.router(2))
            .iter()
            .find(|&&(_, w)| w == r.router(3))
            .map(|&(ch, _)| ch.link())
            .unwrap();
        mask.kill_link(victim);
        let repaired = repair_tables(r.net(), r.end_nodes(), &mask);
        let tabled = Linter::new(r.net(), r.end_nodes())
            .with_mask(&mask)
            .check_tables(&repaired.tables);
        assert!(tabled.is_clean(), "{tabled}");
        let dense = Linter::new(r.net(), r.end_nodes())
            .with_mask(&mask)
            .check(&trace_surviving(
                r.net(),
                r.end_nodes(),
                &mask,
                &repaired.tables,
            ));
        assert_eq!(tabled.to_json(), dense.to_json());
    }

    #[test]
    fn routes_trait_object_sanity() {
        // Linting tables traced through `Routes` equals linting the
        // RouteSet — the CLI path.
        let r = Ring::new(5, 1, 6).unwrap();
        let routes: Routes = ring_shortest_routes(&r);
        let rs = RouteSet::from_table(r.net(), r.end_nodes(), &routes).unwrap();
        let report = Linter::new(r.net(), r.end_nodes()).check(&rs);
        // A 5-ring under shortest routing still closes a dependency
        // cycle (both wrap directions live).
        assert!(!report.is_clean());
    }
}
