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
//! * [`NLevelPartition`] — incremental partition state (per-net part
//!   counts, weighted cut) over a [`DynHypergraph`], plus the localized
//!   FM refiner [`refine_localized`]. It is written for any part count,
//!   but its only caller, the 2-way backend, always runs it at k = 2;
//! * [`NLevelWorkspace`] — the reusable scratch arenas of everything
//!   above (carried on [`crate::RunCtx`] like the FM and coarsening
//!   workspaces), which make the steady-state hot path allocation-free.
//!
//! The 2-way multilevel config selects between the two backends with
//! [`EngineKind`] (`MlConfig::engine`), so the driver, eval runner,
//! server daemon, and CLI pick backends uniformly. k-way runs reach the
//! n-level backend only through recursive bisection; the multilevel
//! k-way engine is coarse-grained only.

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
