//! Random networks, tables, fault masks and disciplines shared by the
//! lint crate's property tests.

use fractanet_graph::{bfs, LinkClass, LinkId, Network, NodeId, PortId};
use fractanet_lint::Discipline;
use fractanet_route::{DeadMask, Routes};

/// `n` routers on a spanning chain plus extra cables, with
/// `ends_per[i] % 3` end nodes on router `i` (at least two overall).
/// End node `k` is dual-ported when `dual[k % dual.len()]` is below
/// 100, its second port cabled to another router (none when `dual` is
/// empty).
pub fn random_net(
    n: usize,
    ends_per: &[u8],
    extra: &[(u32, u32)],
    dual: &[u8],
) -> (Network, Vec<NodeId>) {
    let mut net = Network::new();
    let routers: Vec<NodeId> = (0..n)
        .map(|i| net.add_router(format!("r{i}"), 10))
        .collect();
    for w in routers.windows(2) {
        net.connect_any(w[0], w[1], LinkClass::Local)
            .expect("chain cable");
    }
    let mut ends = Vec::new();
    let mut second_ports = Vec::new();
    for (i, &r) in routers.iter().enumerate() {
        let k = if i < 2 {
            1
        } else {
            ends_per[i % ends_per.len()] % 3
        };
        for j in 0..k {
            let second = dual
                .get(ends.len() % dual.len().max(1))
                .filter(|&&b| b < 100);
            let e =
                net.add_end_node_with_ports(format!("n{i}.{j}"), 1 + u8::from(second.is_some()));
            net.connect_any(e, r, LinkClass::Attach).expect("attach");
            if let Some(&b) = second {
                second_ports.push((e, routers[(i + 1 + b as usize) % n]));
            }
            ends.push(e);
        }
    }
    for (e, r) in second_ports {
        // A full router leaves the end single-attached.
        let _ = net.connect_any(e, r, LinkClass::Attach);
    }
    for &(a, b) in extra {
        let _ = net.connect_any(
            routers[a as usize % n],
            routers[b as usize % n],
            LinkClass::Local,
        );
    }
    (net, ends)
}

/// Shortest-path tables with each entry corrupted when its byte falls
/// below `noise`: into a hole, or a raw port that may be vacant,
/// misdeliver into an end node, or close a forwarding loop.
pub fn random_tables(net: &Network, ends: &[NodeId], entries: &[u8], noise: u8) -> Routes {
    let n = ends.len();
    let routers: Vec<NodeId> = net.routers().collect();
    let mut routes = Routes::new(net, n);
    for (d, &target) in ends.iter().enumerate() {
        let dist = bfs::distances(net, target);
        for (i, &r) in routers.iter().enumerate() {
            let e = entries[(i * n + d) % entries.len()];
            if e < noise {
                if !e.is_multiple_of(4) {
                    routes.set(r, d, PortId(e % 10));
                }
                continue;
            }
            let next = net
                .channels_from(r)
                .iter()
                .find(|&&(_, v)| dist[v.index()] + 1 == dist[r.index()])
                .map(|&(ch, _)| net.channel_src_port(ch));
            if let Some(port) = next {
                routes.set(r, d, port);
            }
        }
    }
    routes
}

/// Kills links, routers and end nodes whose byte falls below `rate`.
pub fn random_mask(net: &Network, bytes: &[u8], rate: u8) -> DeadMask {
    let mut mask = DeadMask::new(net);
    let links: Vec<LinkId> = net.links().collect();
    for (i, &l) in links.iter().enumerate() {
        if bytes[i % bytes.len()] < rate {
            mask.kill_link(l);
        }
    }
    for v in net.nodes() {
        if bytes[(v.index() * 7 + 3) % bytes.len()] < rate / 3 {
            mask.kill_router(v);
        }
    }
    mask
}

/// A rank or coordinate discipline with random router metadata;
/// `None` entries leave routers unclassified.
pub fn random_discipline(net: &Network, bytes: &[u8], kind: u8) -> Discipline {
    let meta = |v: NodeId, k: usize| bytes[(v.index() * 3 + k) % bytes.len()];
    match kind % 2 {
        0 => Discipline::up_down(
            net.nodes()
                .map(|v| (net.is_router(v) && meta(v, 0) < 200).then(|| u32::from(meta(v, 1) % 4)))
                .collect(),
        ),
        _ => Discipline::DimensionOrder {
            name: "random dimension order",
            coords: net
                .nodes()
                .map(|v| {
                    (net.is_router(v) && meta(v, 0) < 200)
                        .then(|| (0..3).map(|b| i64::from(meta(v, 1) >> b & 1)).collect())
                })
                .collect(),
        },
    }
}
