//! Forest-read contention and lint against the pair walks they
//! replaced. On random connected networks — zero to two end nodes per
//! router — with random destination tables (holes, vacant ports,
//! forwarding loops and misdelivering entries), random fault masks and
//! random routing disciplines:
//!
//! - `max_link_contention_paths` over the tables must give the same
//!   `per_channel`, `worst` and `worst_channel` as a Hopcroft–Karp
//!   matching of every channel's traced pairs, and utilization the same
//!   route counts;
//! - `Linter::check_tables` must report the same L1, L2 and L4
//!   diagnostics — rule, severity, affected pairs, sample pairs,
//!   channels and message — as a trace of every pair in source-major
//!   order, and the same number of checked pairs.

use fractanet_graph::matching::Bipartite;
use fractanet_graph::{ChannelId, Network, NodeId};
use fractanet_lint::{Diagnostic, Discipline, Linter, RuleId, Severity};
use fractanet_metrics::contention::max_link_contention_paths;
use fractanet_metrics::utilization::utilization_paths;
use fractanet_route::{DeadMask, Paths, RouteError, Routes};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

mod common;
use common::{random_discipline, random_mask, random_net, random_tables};

const SAMPLE: usize = 8;

/// Every channel's traced pairs, matched by Hopcroft–Karp, with the
/// route count alongside.
fn pair_walk_contention(net: &Network, ends: &[NodeId], routes: &Routes) -> Vec<(usize, usize)> {
    let n = ends.len();
    let mut flows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); net.channel_count()];
    Paths::tables(net, ends, routes).for_each_pair(|s, d, res| {
        for &ch in res.unwrap_or(&[]) {
            flows[ch.index()].push((s as u32, d as u32));
        }
    });
    flows
        .iter()
        .map(|fl| {
            let mut b = Bipartite::new(n, n);
            for &(s, d) in fl {
                b.add_edge(s, d);
            }
            (b.max_matching(), fl.len())
        })
        .collect()
}

/// One expected diagnostic.
#[derive(Debug, PartialEq)]
struct Expected {
    rule: RuleId,
    severity: Severity,
    message: String,
    pairs: Vec<(usize, usize)>,
    affected: usize,
    channels: Vec<ChannelId>,
}

impl Expected {
    fn of(d: &Diagnostic) -> Self {
        Expected {
            rule: d.rule,
            severity: d.severity,
            message: d.message.clone(),
            pairs: d.pairs.clone(),
            affected: d.affected_pairs,
            channels: d.channels.clone(),
        }
    }
}

/// The L1, L2 and L4 diagnostics of tracing every live pair
/// source-major, and the live pair count — what `check_tables` computed
/// before it read forests.
fn pair_walk_lint(
    net: &Network,
    ends: &[NodeId],
    routes: &Routes,
    mask: &DeadMask,
    disc: &Discipline,
) -> (Vec<Expected>, usize) {
    let node_ok = |v: NodeId| mask.node_ok(v);
    let channel_ok = |ch: ChannelId| mask.channel_ok(net, ch);
    // Surviving components, by flood fill.
    let mut comp = vec![u32::MAX; net.node_count()];
    for (label, root) in net.nodes().enumerate() {
        if comp[root.index()] != u32::MAX || !node_ok(root) {
            continue;
        }
        comp[root.index()] = label as u32;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &(ch, w) in net.channels_from(v) {
                if channel_ok(ch) && node_ok(w) && comp[w.index()] == u32::MAX {
                    comp[w.index()] = label as u32;
                    stack.push(w);
                }
            }
        }
    }
    let attach = |e: usize| net.channels_from(ends[e])[0].0;
    let mut loops = Vec::new();
    let mut holes = Vec::new();
    let mut severed = Vec::new();
    let mut wrong_source = Vec::new();
    let mut misdelivered = Vec::new();
    let mut discontinuous = Vec::new();
    let mut dead = Vec::new();
    let mut repeated = Vec::new();
    let mut through_end = Vec::new();
    let mut bad = Vec::new();
    let mut loop_detail = None;
    let mut first_err = None;
    let mut dead_channels: Vec<ChannelId> = Vec::new();
    let mut checked = 0;
    let n = ends.len();
    for s in 0..n {
        for d in 0..n {
            if s == d || !node_ok(ends[s]) || !node_ok(ends[d]) {
                continue;
            }
            checked += 1;
            let traced = routes.trace(net, ends, s, d);
            if let Ok(p) = &traced {
                if let Err(e) = disc.check_path(net, p) {
                    first_err.get_or_insert(e);
                    bad.push((s, d));
                }
            }
            let unrouted = if comp[ends[s].index()] == comp[ends[d].index()] {
                &mut holes
            } else {
                &mut severed
            };
            if !(channel_ok(attach(s)) && channel_ok(attach(d).reverse())) {
                unrouted.push((s, d));
                continue;
            }
            let p = match traced {
                Ok(p) => p,
                Err(RouteError::ForwardingLoop { visited, .. }) => {
                    loops.push((s, d));
                    loop_detail.get_or_insert_with(|| {
                        let names: Vec<&str> = visited.iter().map(|&v| net.label(v)).collect();
                        names.join(" -> ")
                    });
                    continue;
                }
                Err(RouteError::Misdelivered { .. }) => {
                    misdelivered.push((s, d));
                    continue;
                }
                Err(_) => {
                    unrouted.push((s, d));
                    continue;
                }
            };
            if net.channel_src(p[0]) != ends[s] {
                wrong_source.push((s, d));
            }
            if net.channel_dst(*p.last().unwrap()) != ends[d] {
                misdelivered.push((s, d));
            }
            if let Some(&ch) = p.iter().find(|&&ch| !channel_ok(ch)) {
                dead.push((s, d));
                if dead_channels.len() < SAMPLE && !dead_channels.contains(&ch) {
                    dead_channels.push(ch);
                }
            }
            if (1..p.len()).any(|i| p[..i].contains(&p[i])) {
                repeated.push((s, d));
            }
            for w in p.windows(2) {
                if net.channel_dst(w[0]) != net.channel_src(w[1]) {
                    discontinuous.push((s, d));
                    break;
                }
                if !net.is_router(net.channel_dst(w[0])) {
                    through_end.push((s, d));
                    break;
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut emit = |rule, severity, pairs: &[(usize, usize)], message: String, channels| {
        if !pairs.is_empty() {
            out.push(Expected {
                rule,
                severity,
                message,
                pairs: pairs.iter().copied().take(SAMPLE).collect(),
                affected: pairs.len(),
                channels,
            });
        }
    };
    let first = |pairs: &[(usize, usize)]| pairs.first().copied().unwrap_or_default();
    let what = |pairs: &[(usize, usize)], what: &str| {
        format!("{} pair(s) {what} (e.g. {:?})", pairs.len(), first(pairs))
    };
    let (l1, l2, err) = (RuleId::L1Coverage, RuleId::L2WellFormed, Severity::Error);
    emit(
        l2,
        err,
        &loops,
        format!(
            "{} pair(s) forward in a loop (e.g. {:?} via {})",
            loops.len(),
            first(&loops),
            loop_detail.as_deref().unwrap_or("?")
        ),
        vec![],
    );
    emit(
        l1,
        err,
        &holes,
        what(
            &holes,
            "have no route despite src and dst being connected in the surviving network \
             (coverage hole)",
        ),
        vec![],
    );
    emit(
        l1,
        Severity::Info,
        &severed,
        what(
            &severed,
            "are severed by faults (no surviving physical path); graceful degradation",
        ),
        vec![],
    );
    emit(
        l1,
        err,
        &wrong_source,
        what(
            &wrong_source,
            "have a route that does not start at the source end node",
        ),
        vec![],
    );
    emit(
        l1,
        err,
        &misdelivered,
        what(
            &misdelivered,
            "have a route that does not end at the destination end node",
        ),
        vec![],
    );
    emit(
        l2,
        err,
        &discontinuous,
        what(
            &discontinuous,
            "have a discontinuous path (consecutive channels do not share a router)",
        ),
        vec![],
    );
    emit(
        l2,
        err,
        &dead,
        format!(
            "{} pair(s) routed over dead channels (e.g. {:?} via {:?})",
            dead.len(),
            first(&dead),
            dead_channels.first().unwrap_or(&ChannelId(0))
        ),
        dead_channels.clone(),
    );
    emit(
        l2,
        err,
        &repeated,
        what(
            &repeated,
            "repeat a channel within one path (wormhole self-block)",
        ),
        vec![],
    );
    emit(
        l2,
        err,
        &through_end,
        what(
            &through_end,
            "route through an end node as if it were a router",
        ),
        vec![],
    );
    emit(
        RuleId::L4Discipline,
        err,
        &bad,
        format!(
            "{} pair(s) violate the {} discipline; first: pair {:?}, {}",
            bad.len(),
            disc.name(),
            first(&bad),
            first_err.unwrap_or_default()
        ),
        vec![],
    );
    out.sort_by_key(|e| (e.rule, std::cmp::Reverse(e.severity)));
    (out, checked)
}

/// Asserts every forest-read result equals its pair walk; returns which
/// finding kinds fired, for coverage accounting.
fn check_equivalent(
    net: &Network,
    ends: &[NodeId],
    routes: &Routes,
    mask: &DeadMask,
    disc: Discipline,
) -> Result<Vec<String>, TestCaseError> {
    let reference = pair_walk_contention(net, ends, routes);
    let rep = max_link_contention_paths(net, Paths::tables(net, ends, routes));
    let matchings: Vec<usize> = reference.iter().map(|r| r.0).collect();
    prop_assert_eq!(&rep.per_channel, &matchings);
    let worst = matchings.iter().copied().max().unwrap_or(0);
    prop_assert_eq!(rep.worst, worst);
    let first_worst = matchings.iter().position(|&m| m == worst && worst > 0);
    prop_assert_eq!(rep.worst_channel.index(), first_worst.unwrap_or(0));
    let util = utilization_paths(net, Paths::tables(net, ends, routes), None);
    let counts: Vec<usize> = reference.iter().map(|r| r.1).collect();
    prop_assert_eq!(util.per_channel, counts);

    let (expected, checked) = pair_walk_lint(net, ends, routes, mask, &disc);
    let report = Linter::new(net, ends)
        .with_mask(mask)
        .with_discipline(disc)
        .without_suggestions()
        .check_tables(routes);
    prop_assert_eq!(report.pairs_checked, checked);
    let got: Vec<Expected> = report
        .diagnostics
        .iter()
        .filter(|d| {
            matches!(
                d.rule,
                RuleId::L1Coverage | RuleId::L2WellFormed | RuleId::L4Discipline
            )
        })
        .map(Expected::of)
        .collect();
    prop_assert_eq!(&got, &expected);
    Ok(expected.iter().map(|e| e.message.clone()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Forest contention, utilization and L1/L2/L4 equal the pair walk
    /// on clean, corrupted and faulted tables alike (a third of the
    /// cases leave the tables uncorrupted, a quarter draw no faults).
    #[test]
    fn forest_contention_and_lint_match_the_pair_walk(
        n in 2usize..9,
        ends_per in prop::collection::vec(0u8..3, 8..9),
        extra in prop::collection::vec((0u32..8, 0u32..8), 0..20),
        entries in prop::collection::vec(0u8..64, 64..65),
        noise in 0u8..96,
        faults in prop::collection::vec(0u8..=255, 32..33),
        rate in 0u8..64,
        kind in 0u8..2,
    ) {
        let (net, ends) = random_net(n, &ends_per, &extra, &[]);
        let routes = random_tables(&net, &ends, &entries, noise.saturating_sub(32));
        let mask = random_mask(&net, &faults, rate.saturating_sub(16));
        let disc = random_discipline(&net, &faults, kind);
        check_equivalent(&net, &ends, &routes, &mask, disc)?;
    }
}

/// The generator really produces what the property is about: holes,
/// severed pairs, misdeliveries, loops, dead channels and discipline
/// violations of both kinds, and clean cases.
#[test]
fn generator_covers_every_finding() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut seen: Vec<String> = Vec::new();
    let mut clean = 0;
    for case in 0..96u64 {
        let n = 3 + (case % 6) as usize;
        let ends_per: Vec<u8> = (0..8).map(|_| (next() % 3) as u8).collect();
        let extra: Vec<(u32, u32)> = (0..next() % 20)
            .map(|_| ((next() % 8) as u32, (next() % 8) as u32))
            .collect();
        let entries: Vec<u8> = (0..64).map(|_| (next() % 64) as u8).collect();
        let faults: Vec<u8> = (0..32).map(|_| next() as u8).collect();
        let noise = [0, 0, 8, 24, 64][(case % 5) as usize];
        let rate = [0, 16, 48][(case % 3) as usize];
        let (net, ends) = random_net(n, &ends_per, &extra, &[]);
        let routes = random_tables(&net, &ends, &entries, noise);
        let mask = random_mask(&net, &faults, rate);
        let disc = random_discipline(&net, &faults, (case % 2) as u8);
        let messages = check_equivalent(&net, &ends, &routes, &mask, disc).expect("equivalent");
        clean += usize::from(messages.is_empty());
        seen.extend(messages);
    }
    for what in [
        "coverage hole",
        "severed by faults",
        "does not end at the destination",
        "forward in a loop",
        "dead channels",
        "re-ascends",
        "after dimension",
        "dimensions at once",
    ] {
        assert!(
            seen.iter().any(|m| m.contains(what)),
            "no case produced {what:?}"
        );
    }
    assert!(clean >= 4, "{clean} clean cases");
}
