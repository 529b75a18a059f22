//! Random topologies shared by the deadlock crate's property tests.

use fractanet_graph::{LinkClass, Network, NodeId};
use proptest::prelude::*;

/// A random connected network: `n` routers joined by a spanning chain
/// (connectivity) plus arbitrary extra cables (cycles), one end node
/// per router.
pub fn connected_net(n: usize, pairs: &[(u32, u32)]) -> (Network, Vec<NodeId>) {
    let mut net = Network::new();
    let routers: Vec<NodeId> = (0..n)
        .map(|i| net.add_router(format!("r{i}"), 10))
        .collect();
    for w in routers.windows(2) {
        net.connect_any(w[0], w[1], LinkClass::Local)
            .expect("chain cable");
    }
    // Attach ends before the random extras so port exhaustion can
    // never sever an end node.
    let ends: Vec<NodeId> = routers
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let e = net.add_end_node(format!("n{i}"));
            net.connect_any(e, r, LinkClass::Attach).expect("attach");
            e
        })
        .collect();
    for &(a, b) in pairs {
        // Ignore failures (port exhaustion, self loops) exactly as the
        // graph proptests do — successes only ever add cycles.
        let _ = net.connect_any(
            routers[a as usize % n],
            routers[b as usize % n],
            LinkClass::Local,
        );
    }
    (net, ends)
}

/// Up to 20 extra cables between random routers of an `n`-router net.
pub fn cable_lists(n: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n as u32, 0..n as u32), 0..20)
}
