//! Fiduccia–Mattheyses bipartitioning with *explicit* implicit decisions.
//!
//! This crate is the primary contribution of the DAC-99 methodology paper
//! reproduction: a flat FM / CLIP-FM engine in which every underspecified
//! implementation decision of the original algorithm description is a
//! first-class, orthogonal configuration knob of [`FmConfig`]:
//!
//! * **tie-breaking** between equally good highest-gain buckets of the two
//!   partitions ([`TieBreak`]: `Away` / `Part0` / `Toward`);
//! * **zero-delta-gain updates** — re-insert a vertex whose delta gain is
//!   zero, or skip the update ([`ZeroDeltaPolicy`]: `All` / `Nonzero`);
//! * **gain bucket insertion order** ([`InsertionPolicy`]: `Lifo` / `Fifo` /
//!   `Random`);
//! * **pass-best tie-breaking** — which of several equal-cut prefixes to
//!   roll back to ([`PassBestRule`]);
//! * **selection rule** — classic FM gain or CLIP cumulative delta gain
//!   ([`SelectionRule`]);
//! * **corking controls** — exclude cells wider than the balance window
//!   from the gain container, and optional in-bucket lookahead.
//!
//! The engine reports detailed [`FmStats`] per run, including the corking
//! diagnostics of §2.3 of the paper.
//!
//! # Example
//!
//! ```
//! use hypart_core::{BalanceConstraint, FmConfig, FmPartitioner};
//! use hypart_hypergraph::HypergraphBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two triangles joined by one net: the optimal bisection cuts 1 net.
//! let mut b = HypergraphBuilder::new();
//! let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
//! b.add_net([v[0], v[1], v[2]], 1)?;
//! b.add_net([v[3], v[4], v[5]], 1)?;
//! b.add_net([v[2], v[3]], 1)?;
//! let h = b.build()?;
//!
//! let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.34);
//! let partitioner = FmPartitioner::new(FmConfig::lifo());
//! let outcome = partitioner.run(&h, &constraint, 42);
//! assert_eq!(outcome.cut, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod audit;
mod balance;
mod bisection;
pub mod brute;
mod coarsen_ws;
mod config;
mod ctx;
mod engine;
pub mod gain;
mod hierarchy;
mod initial;
pub mod nlevel;
pub mod objective;
mod par;
mod par_refine;
mod stats;
mod workspace;

pub use audit::{
    AuditError, AuditLevel, FaultPlan, PartitionAuditor, PARANOID_MOVE_AUDIT_MAX_VERTICES,
};
pub use balance::BalanceConstraint;
pub use bisection::{Bisection, BisectionError};
pub use coarsen_ws::{CandInfo, CoarseNet, CoarsenWorkspace, MatchProposal, SparseScores};
pub use config::{
    FmConfig, IllegalHeadPolicy, InitialSolution, InsertionPolicy, PassBestRule, SelectionRule,
    TieBreak, ZeroDeltaPolicy,
};
pub use ctx::{BudgetProbe, CancelToken, RunCtx, MOVE_CHECK_INTERVAL};
pub use engine::{FmOutcome, FmPartitioner};
pub use hierarchy::{CoarseLevel, Hierarchy, SharedHierarchy};
pub use hypart_trace::StopReason;
pub use initial::generate_initial;
pub use nlevel::{
    refine_localized, select_contractions, ContractScratch, ContractionLimits, ContractionMemento,
    DynHypergraph, EngineKind, LocalSearchScratch, NLevelPartition, NLevelWorkspace,
};
pub use par::{derive_seed, ensure_lanes, MoveProposal, ParLane};
pub use par_refine::{refine_rounds_parallel, ParRefineOutcome, PAR_REFINE_MAX_ROUNDS};
pub use stats::{FmStats, PassStats, CORKED_FRACTION};
pub use workspace::FmWorkspace;
