//! 2-D mesh and torus builders (§3.1).
//!
//! "To implement a 2-D mesh with a 6-port router, four ports are
//! devoted to the four directions, leaving the last two ports available
//! to connect to the nodes. Connecting 64-nodes requires a 6x6 mesh."
//!
//! Port convention on every mesh/torus router:
//!
//! | port | role |
//! |------|------|
//! | 0    | +X (east)  |
//! | 1    | −X (west)  |
//! | 2    | +Y (north) |
//! | 3    | −Y (south) |
//! | 4..  | end nodes  |
//!
//! Edge routers leave their missing direction ports vacant (meshes) or
//! wrap around (tori).

use crate::Topology;
use fractanet_graph::{GraphError, LinkClass, Network, NodeId, PortId};

/// Direction-to-port mapping shared by mesh and torus.
pub const PORT_EAST: PortId = PortId(0);
/// −X port.
pub const PORT_WEST: PortId = PortId(1);
/// +Y port.
pub const PORT_NORTH: PortId = PortId(2);
/// −Y port.
pub const PORT_SOUTH: PortId = PortId(3);
/// First end-node attach port.
pub const PORT_NODE0: PortId = PortId(4);

/// `(x, y)` of `router` in a row-major router grid. Builders add the
/// routers first, in grid order, so a router's node index is its grid
/// position; anything else (end nodes, foreign ids) is `None`.
fn grid_coords(routers: &[NodeId], cols: usize, router: NodeId) -> Option<(usize, usize)> {
    let i = router.index();
    (routers.get(i) == Some(&router)).then(|| (i % cols, i / cols))
}

/// A `cols × rows` 2-D mesh of routers with `nodes_per_router` end
/// nodes on each router.
#[derive(Clone, Debug)]
pub struct Mesh2D {
    net: Network,
    cols: usize,
    rows: usize,
    nodes_per_router: usize,
    routers: Vec<NodeId>,
    ends: Vec<NodeId>,
}

impl Mesh2D {
    /// Builds the mesh. `router_ports` must cover 4 directions plus
    /// `nodes_per_router` attach ports (6-port ServerNet routers allow
    /// up to 2 end nodes).
    pub fn new(
        cols: usize,
        rows: usize,
        nodes_per_router: usize,
        router_ports: u8,
    ) -> Result<Self, GraphError> {
        assert!(cols >= 1 && rows >= 1, "mesh must be at least 1x1");
        assert!(
            4 + nodes_per_router <= router_ports as usize,
            "router needs 4 direction ports + {nodes_per_router} attach ports"
        );
        let mut net = Network::new();
        let mut routers = Vec::with_capacity(cols * rows);
        for y in 0..rows {
            for x in 0..cols {
                routers.push(net.add_router(format!("R({x},{y})"), router_ports));
            }
        }
        let at = |x: usize, y: usize| routers[y * cols + x];
        for y in 0..rows {
            for x in 0..cols {
                if x + 1 < cols {
                    net.connect(
                        at(x, y),
                        PORT_EAST,
                        at(x + 1, y),
                        PORT_WEST,
                        LinkClass::Local,
                    )?;
                }
                if y + 1 < rows {
                    net.connect(
                        at(x, y),
                        PORT_NORTH,
                        at(x, y + 1),
                        PORT_SOUTH,
                        LinkClass::Local,
                    )?;
                }
            }
        }
        let mut ends = Vec::with_capacity(cols * rows * nodes_per_router);
        for y in 0..rows {
            for x in 0..cols {
                for k in 0..nodes_per_router {
                    let n = net.add_end_node(format!("N({x},{y}).{k}"));
                    net.connect(
                        at(x, y),
                        PortId(PORT_NODE0.0 + k as u8),
                        n,
                        PortId(0),
                        LinkClass::Attach,
                    )?;
                    ends.push(n);
                }
            }
        }
        Ok(Mesh2D {
            net,
            cols,
            rows,
            nodes_per_router,
            routers,
            ends,
        })
    }

    /// The paper's §3.1 configuration: a square mesh of 6-port routers
    /// with 2 nodes each, just large enough for `nodes` end nodes
    /// (64 → 6×6, 128 → 8×8, 1024 → 23×23).
    pub fn for_nodes(nodes: usize) -> Result<Self, GraphError> {
        let mut side = 1usize;
        while side * side * 2 < nodes {
            side += 1;
        }
        Self::new(side, side, 2, 6)
    }

    /// Mesh width in routers.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mesh height in routers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// End nodes attached to each router.
    pub fn nodes_per_router(&self) -> usize {
        self.nodes_per_router
    }

    /// Router at mesh coordinate `(x, y)`.
    pub fn router_at(&self, x: usize, y: usize) -> NodeId {
        self.routers[y * self.cols + x]
    }

    /// Coordinates of a router id, in O(1).
    pub fn coords_of(&self, router: NodeId) -> Option<(usize, usize)> {
        grid_coords(&self.routers, self.cols, router)
    }

    /// End node `k` of router `(x, y)`.
    pub fn end_at(&self, x: usize, y: usize, k: usize) -> NodeId {
        self.ends[(y * self.cols + x) * self.nodes_per_router + k]
    }

    /// `(x, y, k)` of an end-node address.
    pub fn end_coords(&self, addr: usize) -> (usize, usize, usize) {
        let r = addr / self.nodes_per_router;
        (r % self.cols, r / self.cols, addr % self.nodes_per_router)
    }

    /// All routers in row-major order.
    pub fn routers(&self) -> &[NodeId] {
        &self.routers
    }
}

impl Topology for Mesh2D {
    fn net(&self) -> &Network {
        &self.net
    }
    fn end_nodes(&self) -> &[NodeId] {
        &self.ends
    }
    fn name(&self) -> String {
        format!(
            "mesh {}x{} ({}/router)",
            self.cols, self.rows, self.nodes_per_router
        )
    }
}

/// A `cols × rows` 2-D torus: a mesh with wrap-around links (§2
/// background). Requires `cols, rows ≥ 3` so wrap links do not collide
/// with mesh links on the same port.
#[derive(Clone, Debug)]
pub struct Torus2D {
    net: Network,
    cols: usize,
    rows: usize,
    nodes_per_router: usize,
    routers: Vec<NodeId>,
    ends: Vec<NodeId>,
}

impl Torus2D {
    /// Builds the torus (see [`Mesh2D::new`] for the port layout).
    pub fn new(
        cols: usize,
        rows: usize,
        nodes_per_router: usize,
        router_ports: u8,
    ) -> Result<Self, GraphError> {
        assert!(
            cols >= 3 && rows >= 3,
            "torus needs at least 3 routers per dimension"
        );
        assert!(4 + nodes_per_router <= router_ports as usize);
        let mut net = Network::new();
        let mut routers = Vec::with_capacity(cols * rows);
        for y in 0..rows {
            for x in 0..cols {
                routers.push(net.add_router(format!("R({x},{y})"), router_ports));
            }
        }
        let at = |x: usize, y: usize| routers[y * cols + x];
        for y in 0..rows {
            for x in 0..cols {
                let east = at((x + 1) % cols, y);
                net.connect(at(x, y), PORT_EAST, east, PORT_WEST, LinkClass::Local)?;
                let north = at(x, (y + 1) % rows);
                net.connect(at(x, y), PORT_NORTH, north, PORT_SOUTH, LinkClass::Local)?;
            }
        }
        let mut ends = Vec::new();
        for y in 0..rows {
            for x in 0..cols {
                for k in 0..nodes_per_router {
                    let n = net.add_end_node(format!("N({x},{y}).{k}"));
                    net.connect(
                        at(x, y),
                        PortId(PORT_NODE0.0 + k as u8),
                        n,
                        PortId(0),
                        LinkClass::Attach,
                    )?;
                    ends.push(n);
                }
            }
        }
        Ok(Torus2D {
            net,
            cols,
            rows,
            nodes_per_router,
            routers,
            ends,
        })
    }

    /// Router at `(x, y)`.
    pub fn router_at(&self, x: usize, y: usize) -> NodeId {
        self.routers[y * self.cols + x]
    }

    /// Torus width in routers.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Torus height in routers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// `(x, y, k)` of an end-node address.
    pub fn end_coords(&self, addr: usize) -> (usize, usize, usize) {
        let r = addr / self.nodes_per_router;
        (r % self.cols, r / self.cols, addr % self.nodes_per_router)
    }

    /// End nodes attached to each router.
    pub fn nodes_per_router(&self) -> usize {
        self.nodes_per_router
    }

    /// Coordinates of a router id, in O(1).
    pub fn coords_of(&self, router: NodeId) -> Option<(usize, usize)> {
        grid_coords(&self.routers, self.cols, router)
    }
}

impl Topology for Torus2D {
    fn net(&self) -> &Network {
        &self.net
    }
    fn end_nodes(&self) -> &[NodeId] {
        &self.ends
    }
    fn name(&self) -> String {
        format!(
            "torus {}x{} ({}/router)",
            self.cols, self.rows, self.nodes_per_router
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fractanet_graph::bfs;

    #[test]
    fn mesh_6x6_matches_paper_section_3_1() {
        // 6x6 mesh, 2 nodes per router: 36 routers, 72 nodes capacity,
        // max latency 11 router hops corner to corner.
        let m = Mesh2D::new(6, 6, 2, 6).unwrap();
        assert_eq!(m.net().router_count(), 36);
        assert_eq!(m.end_nodes().len(), 72);
        let a = m.end_at(0, 0, 0);
        let b = m.end_at(5, 5, 0);
        assert_eq!(bfs::router_hops(m.net(), a, b), Some(11));
        assert_eq!(bfs::max_router_hops(m.net()), Some(11));
        m.net().validate().unwrap();
    }

    #[test]
    fn for_nodes_sizes_match_paper() {
        assert_eq!(Mesh2D::for_nodes(64).unwrap().cols(), 6);
        assert_eq!(Mesh2D::for_nodes(128).unwrap().cols(), 8);
        assert_eq!(Mesh2D::for_nodes(1024).unwrap().cols(), 23);
    }

    #[test]
    fn paper_scaling_hops() {
        // §3.1: 8x8 mesh → 15 max hops; 23x23 → 45.
        let m8 = Mesh2D::new(8, 8, 2, 6).unwrap();
        assert_eq!(bfs::max_router_hops(m8.net()), Some(15));
        // 23x23 is big for full APSP; check the corner pair directly.
        let m23 = Mesh2D::new(23, 23, 2, 6).unwrap();
        let a = m23.end_at(0, 0, 0);
        let b = m23.end_at(22, 22, 0);
        assert_eq!(bfs::router_hops(m23.net(), a, b), Some(45));
    }

    #[test]
    fn mesh_link_count() {
        // cols*(rows-1) + rows*(cols-1) inter-router + attach links.
        let m = Mesh2D::new(4, 3, 2, 6).unwrap();
        let inter = 4 * 2 + 3 * 3;
        assert_eq!(m.net().link_count(), inter + 24);
    }

    #[test]
    fn mesh_ports_respected() {
        // 1 node per router on 5-port routers is fine; 2 is not.
        assert!(Mesh2D::new(3, 3, 1, 5).is_ok());
    }

    #[test]
    #[should_panic(expected = "attach ports")]
    fn mesh_overcommitted_ports_panic() {
        let _ = Mesh2D::new(3, 3, 3, 6);
    }

    #[test]
    fn coords_roundtrip() {
        let m = Mesh2D::new(5, 4, 2, 6).unwrap();
        for y in 0..4 {
            for x in 0..5 {
                assert_eq!(m.coords_of(m.router_at(x, y)), Some((x, y)));
            }
        }
        for addr in 0..m.end_nodes().len() {
            let (x, y, k) = m.end_coords(addr);
            assert_eq!(m.end_at(x, y, k), m.end_nodes()[addr]);
            assert_eq!(m.coords_of(m.end_nodes()[addr]), None);
        }
        let t = Torus2D::new(4, 3, 1, 6).unwrap();
        for y in 0..3 {
            for x in 0..4 {
                assert_eq!(t.coords_of(t.router_at(x, y)), Some((x, y)));
            }
        }
        assert_eq!(t.coords_of(t.end_nodes()[0]), None);
        assert_eq!(t.coords_of(NodeId(1000)), None);
    }

    #[test]
    fn torus_wraps() {
        let t = Torus2D::new(4, 4, 1, 6).unwrap();
        // Opposite corners are 2+2 → wrap makes it 2 hops of distance
        // each dimension: router distance (0,0)->(3,3) is 1+1 = 2.
        let d = bfs::distances(t.net(), t.router_at(0, 0));
        assert_eq!(d[t.router_at(3, 3).index()], 2);
        assert_eq!(d[t.router_at(2, 2).index()], 4);
        t.net().validate().unwrap();
    }

    #[test]
    fn torus_link_count_is_2n() {
        let t = Torus2D::new(4, 5, 1, 6).unwrap();
        // Every router has exactly one +X and one +Y link.
        assert_eq!(t.net().link_count(), 2 * 20 + 20);
    }

    #[test]
    fn torus_end_coords() {
        let t = Torus2D::new(3, 3, 2, 6).unwrap();
        assert_eq!(t.end_coords(0), (0, 0, 0));
        assert_eq!(t.end_coords(5), (2, 0, 1));
        assert_eq!(t.end_coords(17), (2, 2, 1));
    }
}
