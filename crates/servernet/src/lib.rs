//! # fractanet-servernet
//!
//! The ServerNet substrate: the concrete system the paper's topologies
//! are built from (§1–2).
//!
//! * [`router`] — the 6-port router ASIC model: destination-indexed
//!   routing-table ROM plus **path-disable registers** that reject
//!   illegal turns "even if the routing table is corrupted by a fault"
//!   (§2.4).
//! * [`link`] — the physical link model: byte-serial 50 MB/s
//!   full-duplex cables up to 30 m (§1), with transfer-time and
//!   propagation helpers.
//! * [`packet`] — a ServerNet-style packet format (destination/source
//!   IDs, transaction kind, ≤ 64-byte payload, checksum) with strict
//!   decode — the "lightweight protocol" whose in-order requirement
//!   drives the paper's fixed-path routing.
//! * [`fabric`] — dual router fabrics with dual-ported nodes ("Full
//!   network fault-tolerance can be provided by configuring pairs of
//!   router fabrics with dual-ported nodes") and failover selection.
//! * [`faults`] — link/router fault injection, reflexive-path checking
//!   (data *and* acknowledgment must traverse the fabric), and random
//!   fault campaigns.
//! * [`healing`] — certified self-healing: fault-avoiding route
//!   regeneration, proven deadlock-free before installation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fabric;
pub mod faults;
pub mod healing;
pub mod link;
pub mod packet;
pub mod router;
pub mod transactions;

pub use fabric::{DualFabric, FabricId};
pub use faults::FaultSet;
pub use healing::{
    certify_routes, certify_tables, heal, heal_mask, synthesize_heal, table_healing_repairer,
    HealError, HealReport, SynthesizedHeal,
};
pub use link::LinkSpec;
pub use packet::{segment_transfer, Packet, PacketError, TransactionKind};
pub use router::{ForwardError, RouterAsic};
pub use transactions::{
    execute, run_with_failover, DedupFilter, FabricSim, FailoverOutcome, Transaction, TxError,
    TxOutcome,
};
