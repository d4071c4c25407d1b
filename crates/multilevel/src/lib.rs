//! Multilevel hypergraph partitioning.
//!
//! The multilevel paradigm \[Karypis–Aggarwal–Kumar–Shekhar, DAC-97\]
//! underlies both the ML LIFO / ML CLIP rows of the paper's Table 1 and the
//! hMetis-1.5 evaluation subject of Tables 4–5:
//!
//! 1. **Coarsening** ([`coarsen`]): FirstChoice / heavy-edge clustering
//!    shrinks the hypergraph level by level until it is small;
//! 2. **Initial partitioning** ([`MlPartitioner`]): several seeded FM runs
//!    on the coarsest graph, keeping the best;
//! 3. **Uncoarsening + refinement**: the solution is projected level by
//!    level and refined at each level with a configurable flat engine
//!    ([`hypart_core::FmPartitioner`]) — so every implicit-decision knob of
//!    the flat engines composes with the multilevel wrapper, exactly as the
//!    Table 1 grid requires;
//! 4. **V-cycling** ([`MlPartitioner::vcycle_with`]): restricted coarsening from
//!    an existing solution, then re-refinement — hMetis-1.5 applies this to
//!    the best of its multi-starts ([`multi_start_with`]).
//!
//! # Example
//!
//! ```
//! use hypart_core::BalanceConstraint;
//! use hypart_ml::{MlConfig, MlPartitioner};
//! use hypart_benchgen::toys::two_clusters;
//!
//! let h = two_clusters(12, 3);
//! let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
//! let out = MlPartitioner::new(MlConfig::default()).run(&h, &c, 7);
//! assert_eq!(out.cut, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod coarsen;
mod driver;
mod nlevel;
pub mod par_coarsen;
mod parallel;
mod partitioner;

pub use driver::{multi_start_with, MultiStartOutcome, MultiStartPlan, Starts};
pub use hypart_core::{EngineKind, Hierarchy, SharedHierarchy};
pub use par_coarsen::{
    build_hierarchy_par_with, coarsen_once_par_with, PAR_COARSEN_MIN_VERTICES, PAR_MATCH_WINDOW,
    PAR_STAGE_MIN_NETS,
};
pub use parallel::PAR_REFINE_MIN_VERTICES;
pub use partitioner::{MlConfig, MlPartitioner};

/// The 2-way result every [`MlPartitioner`] entry point returns, under
/// the name the benchmark package uses for it.
pub use hypart_core::Outcome as MlOutcome;
