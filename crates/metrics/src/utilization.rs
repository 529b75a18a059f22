//! Link-utilization spread under uniform all-pairs traffic.
//!
//! §2's case against naive path disables: "most arrangements of path
//! disables give uneven link utilization under uniform load … the
//! upper links are lightly utilized … while the bottom links are more
//! heavily used". We quantify that by counting routes per channel and
//! summarizing the spread.

use crate::groups::Groups;
use fractanet_graph::{ChannelId, LinkClass, Network};
use fractanet_route::{Paths, RouteSet};

/// Routes-per-channel summary for one link class (or all).
#[derive(Clone, Debug)]
pub struct UtilizationReport {
    /// Routes crossing each channel, indexed by `ChannelId::index()`.
    pub per_channel: Vec<usize>,
    /// Least-loaded considered channel.
    pub min: usize,
    /// Most-loaded considered channel.
    pub max: usize,
    /// Mean load over considered channels.
    pub mean: f64,
    /// Coefficient of variation (σ/μ) — 0 for perfectly even load.
    pub cv: f64,
    /// Channels considered (those matching the class filter).
    pub considered: Vec<ChannelId>,
}

impl UtilizationReport {
    /// Max/min imbalance ratio (∞-free: `max` as multiple of `min`,
    /// `None` when some considered channel is unused).
    pub fn imbalance(&self) -> Option<f64> {
        (self.min > 0).then(|| self.max as f64 / self.min as f64)
    }
}

/// Computes utilization over channels of `class` (or every channel
/// when `class` is `None`).
pub fn utilization(
    net: &Network,
    routes: &RouteSet,
    class: Option<LinkClass>,
) -> UtilizationReport {
    utilization_paths(net, Paths::dense(routes), class)
}

/// [`utilization`] over either routing representation. Table views
/// read each channel's route count off the per-forest subtree sizes
/// ([`max_link_contention_paths`](crate::max_link_contention_paths)'s
/// sweep), never tracing a pair; pairs whose table trace fails
/// contribute no load.
pub fn utilization_paths(
    net: &Network,
    paths: Paths<'_>,
    class: Option<LinkClass>,
) -> UtilizationReport {
    let per_channel = match paths {
        Paths::Dense(rs) => {
            let mut per_channel = vec![0usize; net.channel_count()];
            for (_, _, path) in rs.pairs() {
                for &ch in path {
                    per_channel[ch.index()] += 1;
                }
            }
            per_channel
        }
        Paths::Tables { net, ends, routes } => {
            Groups::from_tables(net, ends, routes).route_counts()
        }
    };
    let considered: Vec<ChannelId> = net
        .channels()
        .filter(|&ch| class.is_none_or(|c| net.link(ch.link()).class == c))
        .collect();
    assert!(!considered.is_empty(), "no channels match the class filter");
    let loads: Vec<usize> = considered
        .iter()
        .map(|ch| per_channel[ch.index()])
        .collect();
    let min = *loads.iter().min().unwrap();
    let max = *loads.iter().max().unwrap();
    let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
    let var = loads
        .iter()
        .map(|&l| (l as f64 - mean).powi(2))
        .sum::<f64>()
        / loads.len() as f64;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    UtilizationReport {
        per_channel,
        min,
        max,
        mean,
        cv,
        considered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_route::dor::ecube_routes;
    use fractanet_route::treeroute::updown_routeset;
    use fractanet_route::RouteSet;
    use fractanet_topo::{Hypercube, Topology};

    #[test]
    fn ecube_on_cube_is_perfectly_even() {
        // Symmetric topology + symmetric routing: every inter-router
        // channel carries the same load.
        let h = Hypercube::new(3, 1, 6).unwrap();
        let rs = RouteSet::from_table(h.net(), h.end_nodes(), &ecube_routes(&h)).unwrap();
        let rep = utilization(h.net(), &rs, Some(LinkClass::Local));
        assert_eq!(rep.min, rep.max, "e-cube should be perfectly even");
        assert!(rep.cv < 1e-12);
        assert_eq!(rep.imbalance(), Some(1.0));
    }

    #[test]
    fn updown_is_uneven() {
        // The paper's complaint: root-adjacent links are hot, far links
        // are cold.
        let h = Hypercube::new(3, 1, 6).unwrap();
        let rs = updown_routeset(h.net(), h.end_nodes(), h.router(0));
        let rep = utilization(h.net(), &rs, Some(LinkClass::Local));
        assert!(rep.max > rep.min, "up*/down* must skew the load");
        assert!(rep.cv > 0.2, "cv = {}", rep.cv);
    }

    #[test]
    fn attach_channels_carry_exactly_n_minus_1() {
        // Every end node sources n-1 routes and sinks n-1 routes.
        let h = Hypercube::new(2, 1, 6).unwrap();
        let rs = RouteSet::from_table(h.net(), h.end_nodes(), &ecube_routes(&h)).unwrap();
        let rep = utilization(h.net(), &rs, Some(LinkClass::Attach));
        assert_eq!(rep.min, 3);
        assert_eq!(rep.max, 3);
    }

    #[test]
    fn table_view_counts_equal_the_dense_walk() {
        let h = Hypercube::new(3, 2, 6).unwrap();
        let routes = ecube_routes(&h);
        let rs = RouteSet::from_table(h.net(), h.end_nodes(), &routes).unwrap();
        let tables = utilization_paths(
            h.net(),
            Paths::tables(h.net(), h.end_nodes(), &routes),
            None,
        );
        assert_eq!(
            tables.per_channel,
            utilization(h.net(), &rs, None).per_channel
        );
    }

    #[test]
    fn all_channel_filter_includes_everything() {
        let h = Hypercube::new(2, 1, 6).unwrap();
        let rs = RouteSet::from_table(h.net(), h.end_nodes(), &ecube_routes(&h)).unwrap();
        let rep = utilization(h.net(), &rs, None);
        assert_eq!(rep.considered.len(), h.net().channel_count());
    }
}
