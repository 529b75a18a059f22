//! `fractanet-lint` — static route-table verification with structured
//! diagnostics.
//!
//! The paper's deadlock-avoidance story (§2.4) rests on a *static*
//! property of the routing tables: their channel-dependency graph is
//! acyclic, every pair is covered, and every path obeys the topology's
//! routing discipline. This crate makes that property checkable for
//! **any** `Network` + `RouteSet` — hand-written, traced, repaired, or
//! corrupted — and reports violations as structured [`Diagnostic`]s
//! with rule ids, severities, affected pairs/channels, and remediation
//! suggestions, serializable to JSON for CI gates.
//!
//! Five rules:
//!
//! - **L1 coverage** — every live ordered pair has a route from its
//!   source end node to its destination end node; pairs severed by a
//!   [`DeadMask`](fractanet_route::DeadMask) downgrade to info.
//! - **L2 well-formedness** — paths are channel-consecutive, cross
//!   only live channels and router interiors, and never repeat a
//!   channel.
//! - **L3 CDG acyclicity** — the Dally & Seitz condition, upgraded
//!   from yes/no to enumeration of *all* elementary dependency cycles
//!   (bounded) plus a suggested disable set from the Fig 2 synthesis.
//! - **L4 discipline conformance** — paths follow the declared
//!   [`Discipline`] (depth-first fractahedral, dimension order,
//!   up*/down*).
//! - **L5 contention** — worst-case per-link route load stays within
//!   the paper's Table 1 / Fig 3 bounds.
//!
//! Entry point: [`Linter`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod discipline;
pub mod linter;

pub use diag::{Diagnostic, LintReport, RuleId, Severity};
pub use discipline::{rank_table, Discipline};
pub use linter::{Linter, PairSweep, PairVerdicts, Precomputed};
