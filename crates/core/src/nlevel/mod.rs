//! n-level contraction machinery: one-pair-at-a-time coarsening with an
//! undo stack, in the style of *n-Level Hypergraph Partitioning*
//! \[Osipov–Sanders–Schulz\].
//!
//! Where the coarse-grained multilevel backend ([`crate::Hierarchy`])
//! halves the hypergraph per level and rebuilds a CSR per level, the
//! n-level backend contracts **one vertex pair per step**, records each
//! step in a [`ContractionMemento`], and later undoes the stack one
//! memento at a time, running *localized* refinement seeded only on the
//! two released vertices and their boundary neighborhood. The pieces:
//!
//! * [`DynHypergraph`] — an incrementally mutated hypergraph view over an
//!   immutable [`Hypergraph`](hypart_hypergraph::Hypergraph), with lazy
//!   net shrinking (disabled pins park in the tail of each pin array; no
//!   CSR is ever rebuilt);
//! * [`ContractionMemento`] — the constant-size undo record of one
//!   contraction, valid under strict LIFO undo;
//! * [`select_contractions`] — the rating-driven contraction schedule
//!   (heavy-edge connectivity, deterministic seeded tie-breaks);
//! * [`NLevelPartition`] — incremental 2-way partition state (per-net
//!   side counts, weighted cut) over a [`DynHypergraph`], plus the
//!   localized FM refiner [`refine_localized`]. Like *k-way Hypergraph
//!   Partitioning via n-Level Recursive Bisection* \[Schlag et al.\],
//!   the backend refines 2-way and reaches k parts only by recursive
//!   bisection;
//! * [`NLevelWorkspace`] — the scratch arenas of everything above, built
//!   once per run by the driver and kept to itself (never on
//!   [`crate::RunCtx`]); within a run the contract / uncontract /
//!   localized-FM loop allocates nothing once they have grown.
//!
//! The 2-way multilevel config selects between the two backends with
//! [`EngineKind`] (`MlConfig::engine`). k-way runs reach the n-level
//! backend only through recursive bisection.

mod dynhg;
mod partition;
mod rating;
mod workspace;

pub use dynhg::{ContractionMemento, DynHypergraph};
pub use partition::{refine_localized, NLevelPartition};
pub use rating::{select_contractions, ContractionLimits};
pub use workspace::{ContractScratch, LocalSearchScratch, NLevelWorkspace};

/// Which multilevel backend a configuration selects.
///
/// | kind | contraction granularity | refinement granularity |
/// |------|-------------------------|------------------------|
/// | [`MlCoarse`](EngineKind::MlCoarse) | whole levels (CSR rebuilt per level) | full FM passes per level |
/// | [`NLevel`](EngineKind::NLevel) | one vertex pair per step (no rebuilds) | localized FM per uncontraction |
///
/// `MlCoarse` is the default everywhere, so existing configs, golden
/// traces, and wire protocols are unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Coarse-grained multilevel: level-by-level coarsening with a full
    /// refinement sweep at every level.
    #[default]
    MlCoarse,
    /// n-level: single-pair contractions with memento undo and localized
    /// refinement per uncontraction.
    NLevel,
}
