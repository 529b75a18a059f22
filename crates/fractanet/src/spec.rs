//! Textual topology specifiers — the `mesh:6x6` / `fattree:64:4:2`
//! mini-language shared by the CLI, the experiment binaries, and the
//! benches.
//!
//! A [`TopoSpec`] is a *parsed, validated* description of one paper
//! topology. Parsing ([`FromStr`]) and rendering ([`fmt::Display`]) round
//! trip: `spec.to_string().parse() == Ok(spec)` for every value, so a
//! spec can travel through argv, config files, and bench IDs without
//! losing information.
//!
//! ```
//! use fractanet::TopoSpec;
//!
//! let spec: TopoSpec = "fat-fractahedron:2".parse().unwrap();
//! let sys = spec.build();
//! assert_eq!(sys.end_nodes().len(), 64);
//! assert_eq!(spec.to_string(), "fat-fractahedron:2");
//! ```

use crate::System;
use std::fmt;
use std::str::FromStr;

/// The most end nodes a spec may describe: a `servernet::Packet`
/// carries 16-bit source and destination node IDs.
pub const MAX_END_NODES: usize = 1 << 16;

/// The most destination-table bytes a spec may need: one byte per
/// router per end node, the O(routers · N) size of its `Routes`.
/// `mesh:100x100` needs 200 000 000 and `fat-fractahedron:4`
/// 15 728 640; a 65 536-router ring would need 4 GiB.
pub const MAX_TABLE_BYTES: usize = 1 << 28;

/// A parsed topology specifier, e.g. `fat-fractahedron:2` or
/// `mesh:6x6`. See the module docs for the grammar; invalid sizes
/// (levels outside `1..=5`, hypercubes above dim 8, clusters above 6
/// routers, rings below 3 routers, fat trees and binary trees their
/// 6-port routers cannot build, more than [`MAX_END_NODES`] end nodes,
/// destination tables over [`MAX_TABLE_BYTES`]) are rejected at parse
/// time, before anything is allocated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopoSpec {
    /// `fat-fractahedron:<levels>` — the paper's Fig 7 network at 2.
    FatFractahedron {
        /// Recursion levels, `1..=5`.
        levels: usize,
    },
    /// `thin-fractahedron:<levels>[:fanout]` — Table 1's thin variant,
    /// optionally with the CPU-pair fan-out router level.
    ThinFractahedron {
        /// Recursion levels, `1..=5`.
        levels: usize,
        /// Whether the fan-out level is present.
        fanout: bool,
    },
    /// `mesh:<cols>x<rows>` — §3.1's mesh, 2 nodes per 6-port router.
    Mesh {
        /// Columns.
        cols: usize,
        /// Rows.
        rows: usize,
    },
    /// `torus:<cols>x<rows>` — the mesh with wraparound cables, 2
    /// nodes per 6-port router. Note the canonical XY routing is
    /// deadlock-*prone* on its own (the wrap links close a Fig 1 cycle
    /// in each dimension); add `:vc2` for the dateline fix.
    Torus {
        /// Columns (≥ 3).
        cols: usize,
        /// Rows (≥ 3).
        rows: usize,
    },
    /// `<base>:vc<K>[:dateline|:ecube]` — a VC-capable base topology
    /// with `K` virtual channels per physical channel and a Dally–Seitz
    /// VC discipline (`ring:6:vc2`, `torus:8x8:vc2:dateline`,
    /// `mesh:6x6:vc2:ecube`). Omitting the discipline picks the
    /// canonical one for the base.
    Vc {
        /// The underlying topology.
        base: VcBase,
        /// Virtual channels per physical channel, `1..=8`.
        vcs: u8,
        /// The VC ordering discipline.
        disc: VcDisc,
    },
    /// `fattree:<nodes>:<down>:<up>` — the Fig 6 fat tree.
    FatTree {
        /// End nodes, at least 2.
        nodes: usize,
        /// Down-links per router, at least 2.
        down: usize,
        /// Up-links per router, at least 1 (`down + up <= 6`).
        up: usize,
    },
    /// `hypercube:<dim>` — Fig 2; dim `1..=8` (routers grow past 6
    /// ports above dim 5).
    Hypercube {
        /// Cube dimension.
        dim: u32,
    },
    /// `ring:<n>` — Fig 1's ring (deadlock-prone with minimal routing).
    Ring {
        /// Routers on the ring, at least 3.
        n: usize,
    },
    /// `tetrahedron` — Fig 4 (4 routers, 12 nodes).
    Tetrahedron,
    /// `cluster:<m>` — the Fig 3 fully-connected cluster, `1..=6`.
    Cluster {
        /// Routers in the cluster.
        m: usize,
    },
    /// `bintree:<depth>:<nodes-per-leaf>` — §2's binary tree.
    BinTree {
        /// Router levels, `1..=16`.
        depth: u32,
        /// End nodes per leaf router, `1..=5`; at least 2 end nodes in
        /// all.
        nodes_per_leaf: usize,
    },
}

/// The topologies a `:vc<K>` suffix applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcBase {
    /// `ring:<n>` under minimal bidirectional routing.
    Ring {
        /// Routers on the ring.
        n: usize,
    },
    /// `torus:<cols>x<rows>` under minimal XY routing.
    Torus {
        /// Columns (≥ 3).
        cols: usize,
        /// Rows (≥ 3).
        rows: usize,
    },
    /// `mesh:<cols>x<rows>` under XY routing.
    Mesh {
        /// Columns.
        cols: usize,
        /// Rows.
        rows: usize,
    },
    /// `hypercube:<dim>` under e-cube routing.
    Hypercube {
        /// Cube dimension.
        dim: u32,
    },
}

/// The virtual-channel ordering discipline of a `:vc<K>` spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcDisc {
    /// The canonical discipline for the base: dateline on rings and
    /// tori, e-cube classes on meshes and hypercubes.
    Auto,
    /// Promote past the wrap cable; rings and tori only.
    Dateline,
    /// Static per-dimension channel classes; meshes and hypercubes
    /// only.
    Ecube,
}

/// Why a specifier string did not parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl FromStr for TopoSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let spec = Self::parse_unbounded(s)?;
        let ends = match spec.end_node_count() {
            Some(n) if n <= MAX_END_NODES => n,
            _ => {
                return Err(SpecError(format!(
                "'{s}' has more than {MAX_END_NODES} end nodes, the 16-bit ServerNet node-ID space"
            )))
            }
        };
        let routers = spec.router_count();
        match routers.checked_mul(ends) {
            Some(bytes) if bytes <= MAX_TABLE_BYTES => Ok(spec),
            bytes => Err(SpecError(format!(
                "'{s}' needs {} bytes of destination tables ({routers} routers x {ends} end \
                 nodes), over the {MAX_TABLE_BYTES}-byte budget",
                bytes.map_or_else(|| "more than usize::MAX".to_string(), |b| b.to_string())
            ))),
        }
    }
}

impl TopoSpec {
    /// Parses a spec and checks every rule but the end-node bound.
    fn parse_unbounded(s: &str) -> Result<Self, SpecError> {
        let parts: Vec<&str> = s.split(':').collect();
        let bad = || SpecError(format!("bad topology spec '{s}'"));
        let int = |t: &str| t.parse::<usize>().map_err(|_| bad());
        // `<base>:vc<K>[:discipline]` — split the VC suffix off and
        // parse the base spec recursively.
        if let Some(pos) = parts.iter().position(|p| {
            p.strip_prefix("vc")
                .is_some_and(|k| k.parse::<u8>().is_ok())
        }) {
            let vcs: u8 = parts[pos][2..].parse().map_err(|_| bad())?;
            if !(1..=8).contains(&vcs) {
                return Err(SpecError("vc count must be 1..=8".into()));
            }
            let base = match parts[..pos].join(":").parse::<TopoSpec>()? {
                TopoSpec::Ring { n } => VcBase::Ring { n },
                TopoSpec::Torus { cols, rows } => VcBase::Torus { cols, rows },
                TopoSpec::Mesh { cols, rows } => VcBase::Mesh { cols, rows },
                TopoSpec::Hypercube { dim } => VcBase::Hypercube { dim },
                _ => {
                    return Err(SpecError(
                        "virtual channels apply to ring, torus, mesh, and hypercube specs".into(),
                    ))
                }
            };
            let disc = match parts[pos + 1..] {
                [] => VcDisc::Auto,
                ["dateline"] => VcDisc::Dateline,
                ["ecube"] => VcDisc::Ecube,
                _ => return Err(bad()),
            };
            let wrap_base = matches!(base, VcBase::Ring { .. } | VcBase::Torus { .. });
            match disc {
                VcDisc::Dateline if !wrap_base => {
                    return Err(SpecError(
                        "the dateline discipline needs wrap cables (ring or torus)".into(),
                    ))
                }
                VcDisc::Ecube if wrap_base => {
                    return Err(SpecError(
                        "e-cube classes can't break wrap cycles; use :dateline".into(),
                    ))
                }
                _ => {}
            }
            return Ok(TopoSpec::Vc { base, vcs, disc });
        }
        match parts[0] {
            "fat-fractahedron" if parts.len() == 2 => {
                let levels = int(parts[1])?;
                if !(1..=5).contains(&levels) {
                    return Err(SpecError("levels must be 1..=5".into()));
                }
                Ok(TopoSpec::FatFractahedron { levels })
            }
            "thin-fractahedron" if parts.len() == 2 || parts.len() == 3 => {
                let levels = int(parts[1])?;
                if !(1..=5).contains(&levels) {
                    return Err(SpecError("levels must be 1..=5".into()));
                }
                let fanout = parts.get(2) == Some(&"fanout");
                if parts.len() == 3 && !fanout {
                    return Err(bad());
                }
                Ok(TopoSpec::ThinFractahedron { levels, fanout })
            }
            "mesh" if parts.len() == 2 => {
                let dims: Vec<&str> = parts[1].split('x').collect();
                if dims.len() != 2 {
                    return Err(bad());
                }
                let (cols, rows) = (int(dims[0])?, int(dims[1])?);
                if cols == 0 || rows == 0 {
                    return Err(SpecError("mesh dimensions must be nonzero".into()));
                }
                Ok(TopoSpec::Mesh { cols, rows })
            }
            "torus" if parts.len() == 2 => {
                let dims: Vec<&str> = parts[1].split('x').collect();
                if dims.len() != 2 {
                    return Err(bad());
                }
                let (cols, rows) = (int(dims[0])?, int(dims[1])?);
                if cols < 3 || rows < 3 {
                    return Err(SpecError(
                        "torus dimensions must be at least 3 (smaller wraps are parallel cables)"
                            .into(),
                    ));
                }
                Ok(TopoSpec::Torus { cols, rows })
            }
            "fattree" if parts.len() == 4 => {
                let (nodes, down, up) = (int(parts[1])?, int(parts[2])?, int(parts[3])?);
                if nodes < 2 || down < 2 || up < 1 || down + up > 6 {
                    return Err(SpecError(
                        "fat tree needs nodes >= 2, down >= 2, up >= 1 and down + up <= 6".into(),
                    ));
                }
                Ok(TopoSpec::FatTree { nodes, down, up })
            }
            "hypercube" if parts.len() == 2 => {
                let dim = int(parts[1])?;
                if !(1..=8).contains(&dim) {
                    return Err(SpecError("hypercube dim must be 1..=8".into()));
                }
                Ok(TopoSpec::Hypercube { dim: dim as u32 })
            }
            "ring" if parts.len() == 2 => {
                let n = int(parts[1])?;
                if n < 3 {
                    return Err(SpecError("ring needs at least 3 routers".into()));
                }
                Ok(TopoSpec::Ring { n })
            }
            "tetrahedron" if parts.len() == 1 => Ok(TopoSpec::Tetrahedron),
            "cluster" if parts.len() == 2 => {
                let m = int(parts[1])?;
                if !(1..=6).contains(&m) {
                    return Err(SpecError(
                        "cluster size must be 1..=6 on 6-port routers".into(),
                    ));
                }
                Ok(TopoSpec::Cluster { m })
            }
            "bintree" if parts.len() == 3 => {
                let (depth, nodes_per_leaf) = (int(parts[1])?, int(parts[2])?);
                if !(1..=16).contains(&depth)
                    || !(1..=5).contains(&nodes_per_leaf)
                    || (nodes_per_leaf << (depth - 1)) < 2
                {
                    return Err(SpecError(
                        "binary tree needs depth 1..=16, 1..=5 nodes per leaf and >= 2 end nodes"
                            .into(),
                    ));
                }
                Ok(TopoSpec::BinTree {
                    depth: depth as u32,
                    nodes_per_leaf,
                })
            }
            _ => Err(bad()),
        }
    }
}

impl fmt::Display for TopoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TopoSpec::FatFractahedron { levels } => write!(f, "fat-fractahedron:{levels}"),
            TopoSpec::ThinFractahedron { levels, fanout } => {
                write!(f, "thin-fractahedron:{levels}")?;
                if fanout {
                    write!(f, ":fanout")?;
                }
                Ok(())
            }
            TopoSpec::Mesh { cols, rows } => write!(f, "mesh:{cols}x{rows}"),
            TopoSpec::Torus { cols, rows } => write!(f, "torus:{cols}x{rows}"),
            TopoSpec::Vc { base, vcs, disc } => {
                match base {
                    VcBase::Ring { n } => write!(f, "ring:{n}")?,
                    VcBase::Torus { cols, rows } => write!(f, "torus:{cols}x{rows}")?,
                    VcBase::Mesh { cols, rows } => write!(f, "mesh:{cols}x{rows}")?,
                    VcBase::Hypercube { dim } => write!(f, "hypercube:{dim}")?,
                }
                write!(f, ":vc{vcs}")?;
                match disc {
                    VcDisc::Auto => Ok(()),
                    VcDisc::Dateline => write!(f, ":dateline"),
                    VcDisc::Ecube => write!(f, ":ecube"),
                }
            }
            TopoSpec::FatTree { nodes, down, up } => write!(f, "fattree:{nodes}:{down}:{up}"),
            TopoSpec::Hypercube { dim } => write!(f, "hypercube:{dim}"),
            TopoSpec::Ring { n } => write!(f, "ring:{n}"),
            TopoSpec::Tetrahedron => write!(f, "tetrahedron"),
            TopoSpec::Cluster { m } => write!(f, "cluster:{m}"),
            TopoSpec::BinTree {
                depth,
                nodes_per_leaf,
            } => write!(f, "bintree:{depth}:{nodes_per_leaf}"),
        }
    }
}

impl TopoSpec {
    /// End nodes the spec describes, `None` when the count overflows.
    fn end_node_count(&self) -> Option<usize> {
        let two_per_router = |cols: usize, rows: usize| cols.checked_mul(rows)?.checked_mul(2);
        match *self {
            TopoSpec::FatFractahedron { levels } => Some(crate::sizing::capacity(levels, false)),
            TopoSpec::ThinFractahedron { levels, fanout } => {
                Some(crate::sizing::capacity(levels, fanout))
            }
            TopoSpec::Mesh { cols, rows } | TopoSpec::Torus { cols, rows } => {
                two_per_router(cols, rows)
            }
            TopoSpec::Vc { base, .. } => match base {
                VcBase::Ring { n } => Some(n),
                VcBase::Torus { cols, rows } | VcBase::Mesh { cols, rows } => {
                    two_per_router(cols, rows)
                }
                VcBase::Hypercube { dim } => 1usize.checked_shl(dim),
            },
            TopoSpec::FatTree { nodes, .. } => Some(nodes),
            TopoSpec::Hypercube { dim } => 1usize.checked_shl(dim),
            TopoSpec::Ring { n } => Some(n),
            TopoSpec::Tetrahedron => Some(12),
            TopoSpec::Cluster { m } => Some(m * (7 - m)),
            TopoSpec::BinTree {
                depth,
                nodes_per_leaf,
            } => nodes_per_leaf.checked_mul(1usize.checked_shl(depth - 1)?),
        }
    }

    /// Routers the spec's system has, in closed form (saturating: an
    /// overflowing count is over any table budget anyway). Called only
    /// once the end-node count is bounded.
    fn router_count(&self) -> usize {
        match *self {
            TopoSpec::FatFractahedron { levels } => {
                crate::sizing::bill(fractanet_topo::Variant::Fat, levels, false).total_routers()
            }
            TopoSpec::ThinFractahedron { levels, fanout } => {
                crate::sizing::bill(fractanet_topo::Variant::Thin, levels, fanout).total_routers()
            }
            TopoSpec::Mesh { cols, rows } | TopoSpec::Torus { cols, rows } => cols * rows,
            TopoSpec::Vc { base, .. } => match base {
                VcBase::Ring { n } => n,
                VcBase::Torus { cols, rows } | VcBase::Mesh { cols, rows } => cols * rows,
                VcBase::Hypercube { dim } => 1 << dim,
            },
            TopoSpec::FatTree { nodes, down, up } => {
                // One virtual router per `span` leaves at each level,
                // each replicated up^(level - 1) times.
                let (mut routers, mut span, mut replicas) = (0usize, down, 1usize);
                loop {
                    let level = nodes.div_ceil(span).saturating_mul(replicas);
                    routers = routers.saturating_add(level);
                    if span >= nodes {
                        return routers;
                    }
                    span = span.saturating_mul(down);
                    replicas = replicas.saturating_mul(up);
                }
            }
            TopoSpec::Hypercube { dim } => 1 << dim,
            TopoSpec::Ring { n } => n,
            TopoSpec::Tetrahedron => 4,
            TopoSpec::Cluster { m } => m,
            TopoSpec::BinTree { depth, .. } => (1 << depth) - 1,
        }
    }

    /// Builds the system this spec describes. Size validation happened
    /// at parse time, so this is infallible for parsed specs.
    pub fn build(&self) -> System {
        match *self {
            TopoSpec::FatFractahedron { levels } => System::fat_fractahedron(levels),
            TopoSpec::ThinFractahedron { levels, fanout } => {
                System::thin_fractahedron(levels, fanout)
            }
            TopoSpec::Mesh { cols, rows } => System::mesh(cols, rows),
            TopoSpec::Torus { cols, rows } => System::torus(cols, rows),
            TopoSpec::Vc { base, vcs, disc } => {
                let sys = match base {
                    VcBase::Ring { n } => System::ring(n),
                    VcBase::Torus { cols, rows } => System::torus(cols, rows),
                    VcBase::Mesh { cols, rows } => System::mesh(cols, rows),
                    VcBase::Hypercube { dim } => System::hypercube(dim, (dim as u8 + 1).max(6)),
                };
                let scheme = match (disc, base) {
                    (VcDisc::Dateline, _)
                    | (VcDisc::Auto, VcBase::Ring { .. } | VcBase::Torus { .. }) => {
                        crate::VcScheme::Dateline
                    }
                    _ => crate::VcScheme::Ecube,
                };
                sys.with_vcs(vcs, scheme)
            }
            TopoSpec::FatTree { nodes, down, up } => System::fat_tree(nodes, down, up),
            TopoSpec::Hypercube { dim } => {
                // One attach port on top of `dim` direction ports; the
                // standard 6-port ServerNet router covers dim <= 5.
                System::hypercube(dim, (dim as u8 + 1).max(6))
            }
            TopoSpec::Ring { n } => System::ring(n),
            TopoSpec::Tetrahedron => System::tetrahedron(),
            TopoSpec::Cluster { m } => System::cluster(m),
            TopoSpec::BinTree {
                depth,
                nodes_per_leaf,
            } => System::binary_tree(depth, nodes_per_leaf),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_every_variant() {
        for spec in [
            TopoSpec::FatFractahedron { levels: 2 },
            TopoSpec::ThinFractahedron {
                levels: 3,
                fanout: false,
            },
            TopoSpec::ThinFractahedron {
                levels: 1,
                fanout: true,
            },
            TopoSpec::Mesh { cols: 6, rows: 6 },
            TopoSpec::Torus { cols: 8, rows: 8 },
            TopoSpec::Vc {
                base: VcBase::Ring { n: 6 },
                vcs: 2,
                disc: VcDisc::Auto,
            },
            TopoSpec::Vc {
                base: VcBase::Torus { cols: 8, rows: 8 },
                vcs: 2,
                disc: VcDisc::Dateline,
            },
            TopoSpec::Vc {
                base: VcBase::Mesh { cols: 6, rows: 6 },
                vcs: 2,
                disc: VcDisc::Ecube,
            },
            TopoSpec::Vc {
                base: VcBase::Hypercube { dim: 3 },
                vcs: 4,
                disc: VcDisc::Auto,
            },
            TopoSpec::FatTree {
                nodes: 64,
                down: 4,
                up: 2,
            },
            TopoSpec::Hypercube { dim: 3 },
            TopoSpec::Ring { n: 4 },
            TopoSpec::Tetrahedron,
            TopoSpec::Cluster { m: 3 },
            TopoSpec::BinTree {
                depth: 3,
                nodes_per_leaf: 2,
            },
        ] {
            let rendered = spec.to_string();
            assert_eq!(rendered.parse::<TopoSpec>(), Ok(spec), "{rendered}");
        }
    }

    #[test]
    fn parse_accepts_the_usage_examples() {
        for s in [
            "fat-fractahedron:1",
            "thin-fractahedron:2",
            "thin-fractahedron:1:fanout",
            "mesh:3x3",
            "torus:4x4",
            "ring:6:vc2",
            "torus:8x8:vc2:dateline",
            "mesh:6x6:vc2:ecube",
            "hypercube:3:vc2",
            "fattree:16:4:2",
            "hypercube:3",
            "hypercube:6",
            "ring:5",
            "tetrahedron",
            "cluster:3",
            "bintree:3:2",
        ] {
            let spec: TopoSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s, "round trip");
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for s in [
            "fat-fractahedron",
            "fat-fractahedron:9",
            "mesh:6",
            "mesh:ax3",
            "mesh:0x3",
            "fattree:64:4",
            "hypercube:9",
            "cluster:7",
            "torus:2x4",
            "torus:4",
            "ring:6:vc0",
            "ring:6:vc9",
            "ring:6:vc2:ecube",
            "mesh:6x6:vc2:dateline",
            "fattree:16:4:2:vc2",
            "ring:6:vc2:bogus",
            "thin-fractahedron:1:bogus",
            "tetrahedron:1",
            "nonsense:1",
            "",
            "ring:0",
            "ring:1",
            "ring:2",
            "ring:2:vc2",
            "fattree:1:4:2",
            "fattree:64:1:1",
            "fattree:64:4:3",
            "bintree:0:1",
            "bintree:2:9",
            "bintree:2:0",
            "bintree:1:1",
            "hypercube:4294967299",
        ] {
            assert!(s.parse::<TopoSpec>().is_err(), "{s}");
        }
    }

    #[test]
    fn large_scale_specs_parse_and_size_sanely() {
        // The sharded engine's target scales: specs must parse and
        // round-trip, and the closed-form sizing must agree with the
        // recursion — without building the (huge) systems here.
        for s in [
            "fat-fractahedron:4",
            "mesh:100x100",
            "mesh:100x100:vc2:ecube",
        ] {
            let spec: TopoSpec = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(spec.to_string(), s, "round trip");
        }
        // 31 744 routers x 32 768 end nodes: over the table budget.
        assert_tables_oversized(&["fat-fractahedron:5"]);
        for (levels, ends) in [(4usize, 4096usize), (5, 32768)] {
            assert_eq!(crate::sizing::capacity(levels, false), ends);
            let bill = crate::sizing::bill(fractanet_topo::Variant::Fat, levels, false);
            assert_eq!(bill.capacity, ends);
            assert!(bill.total_routers() > ends / 4, "{bill:?}");
        }
        let TopoSpec::Mesh { cols, rows } = "mesh:100x100".parse::<TopoSpec>().unwrap() else {
            panic!("mesh:100x100 must parse as a mesh");
        };
        assert_eq!((cols, rows), (100, 100));
        assert!("fat-fractahedron:6".parse::<TopoSpec>().is_err());
    }

    /// Asserts each spec is rejected for its size, with a `SpecError`
    /// rather than an allocation abort.
    fn assert_oversized(specs: &[&str]) {
        for s in specs {
            let err = s.parse::<TopoSpec>().unwrap_err();
            assert!(err.0.contains("end nodes"), "{s}: {err}");
        }
    }

    /// Asserts each spec is rejected for the size of its destination
    /// tables, with an error that names that size.
    fn assert_tables_oversized(specs: &[&str]) {
        for s in specs {
            let err = s.parse::<TopoSpec>().unwrap_err();
            assert!(err.0.contains("bytes of destination tables"), "{s}: {err}");
        }
    }

    #[test]
    fn table_budget_names_the_size() {
        let err = "ring:65536".parse::<TopoSpec>().unwrap_err();
        assert_eq!(
            err.0,
            "'ring:65536' needs 4294967296 bytes of destination tables (65536 routers x 65536 \
             end nodes), over the 268435456-byte budget"
        );
        // Exactly at the budget: 16 384 routers x 16 384 end nodes.
        assert!("ring:16384".parse::<TopoSpec>().is_ok());
        assert_tables_oversized(&["ring:16385", "ring:16385:vc2"]);
    }

    #[test]
    fn router_counts_match_the_built_systems() {
        for s in [
            "fat-fractahedron:1",
            "fat-fractahedron:2",
            "thin-fractahedron:2",
            "thin-fractahedron:1:fanout",
            "mesh:3x4",
            "torus:4x3",
            "ring:6:vc2",
            "torus:3x4:vc2",
            "mesh:2x3:vc2:ecube",
            "hypercube:3:vc2",
            "fattree:16:4:2",
            "fattree:37:3:2",
            "fattree:64:2:1",
            "fattree:2:2:1",
            "hypercube:4",
            "ring:5",
            "tetrahedron",
            "cluster:3",
            "bintree:3:2",
        ] {
            let spec: TopoSpec = s.parse().unwrap();
            let built = spec.build().net().routers().count();
            assert_eq!(spec.router_count(), built, "{s}");
        }
    }

    #[test]
    fn mesh_size_is_bounded() {
        assert_oversized(&[
            "mesh:99999999x99999999",
            "mesh:18446744073709551615x18446744073709551615",
            "mesh:256x129",
            "mesh:256x129:vc2:ecube",
        ]);
        // Within the node-ID space, but 2 GiB of tables.
        assert_tables_oversized(&["mesh:256x128", "mesh:108x108"]);
        assert!("mesh:108x107".parse::<TopoSpec>().is_ok());
    }

    #[test]
    fn torus_size_is_bounded() {
        assert_oversized(&["torus:99999x99999", "torus:129x256", "torus:129x256:vc2"]);
        assert_tables_oversized(&["torus:128x256", "torus:128x256:vc2"]);
        assert!("torus:100x100:vc2".parse::<TopoSpec>().is_ok());
    }

    #[test]
    fn ring_size_is_bounded() {
        assert_oversized(&["ring:99999999", "ring:65537", "ring:65537:vc2"]);
        assert_tables_oversized(&["ring:65536"]);
    }

    #[test]
    fn fattree_size_is_bounded() {
        assert_oversized(&["fattree:99999999:4:2", "fattree:65537:4:2"]);
        // 32 640 routers x 65 536 end nodes.
        assert_tables_oversized(&["fattree:65536:4:2"]);
        assert!("fattree:16384:4:2".parse::<TopoSpec>().is_ok());
    }

    #[test]
    fn bintree_size_is_bounded() {
        // 5 << 15 = 163 840 end nodes.
        assert_oversized(&["bintree:16:5", "bintree:16:3"]);
        assert_tables_oversized(&["bintree:16:2", "bintree:15:4", "bintree:15:2"]);
        assert!("bintree:14:2".parse::<TopoSpec>().is_ok());
    }

    #[test]
    fn build_produces_the_described_system() {
        let sys = "fat-fractahedron:2".parse::<TopoSpec>().unwrap().build();
        assert_eq!(sys.end_nodes().len(), 64);
        let sys = "mesh:3x3".parse::<TopoSpec>().unwrap().build();
        assert_eq!(sys.end_nodes().len(), 18);
        let sys = "torus:4x4".parse::<TopoSpec>().unwrap().build();
        assert_eq!(sys.end_nodes().len(), 32);
        assert!(sys.vc().is_none());
    }

    #[test]
    fn vc_specs_build_with_the_canonical_discipline() {
        use crate::VcScheme;
        let sys = "ring:6:vc2".parse::<TopoSpec>().unwrap().build();
        assert_eq!(sys.vc(), Some((2, VcScheme::Dateline)));
        let sys = "torus:4x4:vc2".parse::<TopoSpec>().unwrap().build();
        assert_eq!(sys.vc(), Some((2, VcScheme::Dateline)));
        let sys = "mesh:3x3:vc2".parse::<TopoSpec>().unwrap().build();
        assert_eq!(sys.vc(), Some((2, VcScheme::Ecube)));
        let sys = "hypercube:3:vc2".parse::<TopoSpec>().unwrap().build();
        assert_eq!(sys.vc(), Some((2, VcScheme::Ecube)));
    }

    #[test]
    fn vc_specs_flip_the_deadlock_verdict() {
        // The wrap cycles condemn the plain torus; the dateline spec
        // clears it — through the extended (channel, vc) graph.
        assert!(
            !"torus:4x4"
                .parse::<TopoSpec>()
                .unwrap()
                .build()
                .analyze()
                .deadlock_free
        );
        let vc = "torus:4x4:vc2".parse::<TopoSpec>().unwrap().build();
        assert_eq!(vc.vc_deadlock_free(), Some(true));
        assert!(vc.analyze().deadlock_free);
        assert!(
            !"ring:4"
                .parse::<TopoSpec>()
                .unwrap()
                .build()
                .analyze()
                .deadlock_free
        );
        assert!(
            "ring:4:vc2"
                .parse::<TopoSpec>()
                .unwrap()
                .build()
                .analyze()
                .deadlock_free
        );
    }
}
