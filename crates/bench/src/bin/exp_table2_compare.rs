//! Experiments E9–E11 — Figures 6/7, Table 2, §3.3–3.4: the 64-node
//! comparison between the 4-2 fat tree and the fat fractahedron, the
//! 3-3 fat tree alternative, the paper's adversarial transfer sets,
//! and the up-link policy ablation.

use fractanet::metrics::contention::{contention_of_channel, pattern_contention};
use fractanet::metrics::max_link_contention;
use fractanet::prelude::*;
use fractanet::route::fattree::{fattree_routes, UpPolicy};
use fractanet_bench::{emit_json, header, system, versus};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    system: String,
    routers: usize,
    avg_hops: f64,
    contention: usize,
    local_contention: usize,
    bisection: u64,
}

fn main() {
    header("E9-E10 / Table 2", "64-node comparison");
    let ft = system("fattree:64:4:2");
    let ff = system("fat-fractahedron:2");
    let t33 = system("fattree:64:3:3");

    println!(
        "{:<22} {:>22} {:>18} {:>22} {:>16} {:>10}",
        "attribute", "4-2 fat tree", "(paper)", "fat fractahedron", "(paper)", "3-3 tree"
    );
    let (a, b, c) = (ft.analyze(), ff.analyze(), t33.analyze());
    println!(
        "{:<22} {:>22} {:>18} {:>22} {:>16} {:>10}",
        "max link contention",
        format!("{}:1", a.worst_contention),
        "12:1",
        format!("{}:1 ({}:1 local)", b.worst_contention, b.local_contention),
        "4:1 local",
        format!("{}:1", c.worst_contention)
    );
    println!(
        "{:<22} {:>22} {:>18} {:>22} {:>16} {:>10.2}",
        "average hops",
        format!("{:.2}", a.avg_hops),
        "4.4",
        format!("{:.2}", b.avg_hops),
        "4.3",
        c.avg_hops
    );
    println!(
        "{:<22} {:>22} {:>18} {:>22} {:>16} {:>10}",
        "routers",
        versus(a.routers, 28),
        "28",
        versus(b.routers, 48),
        "48",
        versus(c.routers, 100)
    );
    println!(
        "{:<22} {:>22} {:>18} {:>22} {:>16} {:>10}",
        "bisection (links)", a.bisection_links, "4*", b.bisection_links, "same*", c.bisection_links
    );
    println!(
        "{:<22} {:>22} {:>18} {:>22} {:>16} {:>10}",
        "max hops", a.max_hops, "5 (odd)", b.max_hops, "3N-1=5", c.max_hops
    );
    println!("\n* the paper quotes 4 links for both; measured min-cut of the as-built");
    println!("  networks is larger (see EXPERIMENTS.md discussion).");
    for (name, r) in [
        ("fat tree 4-2", &a),
        ("fat fractahedron", &b),
        ("fat tree 3-3", &c),
    ] {
        emit_json(
            "table2",
            &Row {
                system: name.into(),
                routers: r.routers,
                avg_hops: r.avg_hops,
                contention: r.worst_contention,
                local_contention: r.local_contention,
                bisection: r.bisection_links,
            },
        );
    }

    header(
        "E9 / §3.3",
        "the fat tree's 12:1 adversarial set (link \"HLP\")",
    );
    // The matching witness names pairs, so this view traces them.
    let ft_rs = RouteSet::from_table(ft.net(), ft.end_nodes(), ft.routes())
        .expect("canonical routing covers every pair");
    let rep = max_link_contention(ft.net(), &ft_rs);
    let (k, witness) = contention_of_channel(ft.net(), &ft_rs, rep.worst_channel);
    println!("  worst channel carries a {k}-transfer matching:");
    let pairs: Vec<String> = witness.iter().map(|(s, d)| format!("{s}->{d}")).collect();
    println!("    {}", pairs.join(", "));
    println!("  (the paper's example: nodes 52-63 sending to nodes 36-47)");

    header(
        "E10 / §3.4",
        "the fractahedron's 4:1 example: 6,7,14,15 -> 54,55,62,63",
    );
    let pattern = [(6, 54), (7, 55), (14, 62), (15, 63)];
    let ff_rs = RouteSet::from_table(ff.net(), ff.end_nodes(), ff.routes())
        .expect("canonical routing covers every pair");
    let (worst, ch) = pattern_contention(ff.net(), &ff_rs, &pattern);
    let src = ff.net().channel_src(ch);
    let dst = ff.net().channel_dst(ch);
    println!(
        "  all four transfers share {} -> {}: contention {} (paper: 4 ✓)",
        ff.net().label(src),
        ff.net().label(dst),
        worst
    );

    header("E11 / ablation", "fat-tree up-link partitioning policies");
    println!(
        "{:<16} {:>22} {:>12}",
        "policy", "max contention", "avg hops"
    );
    for policy in [
        UpPolicy::ByLeafRouter,
        UpPolicy::ByNodeModulo,
        UpPolicy::ByGroup,
    ] {
        let ftopo = FatTree::paper_4_2_64();
        let rs = RouteSet::from_table(
            ftopo.net(),
            ftopo.end_nodes(),
            &fattree_routes(&ftopo, policy),
        )
        .unwrap();
        let rep = max_link_contention(ftopo.net(), &rs);
        println!(
            "{:<16} {:>21}:1 {:>12.2}",
            format!("{policy:?}"),
            rep.worst,
            rs.avg_router_hops()
        );
    }
    println!("\n\"Other static partitionings of traffic through the high-level links can");
    println!("do no better than the 12:1 contention ratio\" — and ByGroup does worse.");
}
