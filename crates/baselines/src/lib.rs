//! Non-FM partitioning baselines.
//!
//! The paper demands that new techniques be compared against *diverse*
//! leading-edge approaches ("Do measure with many instruments"), and its
//! §3.2 methodology is explicitly about comparing *metaheuristics* with
//! different quality/runtime profiles. This crate supplies two classical
//! non-FM baselines from the paper's reference list:
//!
//! * [`SpectralPartitioner`] — ratio-cut spectral bisection in the
//!   Wei–Cheng / EIG1 tradition: Fiedler vector of the clique-expansion
//!   Laplacian by deflated power iteration, then a sweep cut;
//! * [`AnnealingPartitioner`] — simulated annealing over single-vertex
//!   moves with geometric cooling (the non-greedy metaheuristic family of
//!   Hauck–Borriello's bipartitioning evaluation).
//!
//! Both implement [`hypart_eval::runner::Heuristic`], so they drop
//! straight into the BSF / Pareto / ranking comparisons.
//!
//! # Example
//!
//! ```
//! use hypart_baselines::SpectralPartitioner;
//! use hypart_core::BalanceConstraint;
//! use hypart_benchgen::toys::two_clusters;
//!
//! let h = two_clusters(8, 2);
//! let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
//! let out = SpectralPartitioner.run(&h, &c, 1);
//! assert_eq!(out.cut, 2); // the natural cluster cut
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod annealing;
mod spectral;

pub use annealing::AnnealingPartitioner;
pub use spectral::SpectralPartitioner;

use hypart_core::{BalanceConstraint, Bisection};
use hypart_hypergraph::{Hypergraph, PartId};

/// Result of a baseline partitioning run.
#[derive(Clone, Debug)]
pub struct BaselineOutcome {
    /// Final assignment.
    pub assignment: Vec<PartId>,
    /// Weighted cut.
    pub cut: u64,
    /// `true` if the balance constraint is satisfied.
    pub balanced: bool,
}

/// The bisection of `h` that `assignment` describes. Both baselines build
/// their assignments full-length and with every fixed vertex on its side.
fn bisection_of(h: &Hypergraph, assignment: Vec<PartId>) -> Bisection<'_> {
    match Bisection::new(h, assignment) {
        Ok(bisection) => bisection,
        Err(e) => unreachable!("baseline assignments are always valid: {e}"),
    }
}

impl BaselineOutcome {
    fn from_bisection(bisection: Bisection<'_>, constraint: &BalanceConstraint) -> Self {
        BaselineOutcome {
            cut: bisection.cut(),
            balanced: constraint.is_satisfied(&bisection),
            assignment: bisection.into_assignment(),
        }
    }
}

/// Blanket adapter so both baselines plug into the evaluation harness
/// under their display names.
macro_rules! impl_heuristic {
    ($ty:ty, $name:literal) => {
        impl hypart_eval::runner::Heuristic for $ty {
            fn name(&self) -> &str {
                $name
            }

            fn solve_with(
                &self,
                h: &Hypergraph,
                constraint: &BalanceConstraint,
                ctx: &mut hypart_core::RunCtx<'_>,
            ) -> hypart_eval::runner::Trial {
                let t = std::time::Instant::now();
                let out = self.run(h, constraint, ctx.seed);
                hypart_eval::runner::Trial {
                    seed: ctx.seed,
                    cut: out.cut,
                    balanced: out.balanced,
                    stopped: hypart_core::StopReason::Completed,
                    elapsed: t.elapsed(),
                }
            }
        }
    };
}

impl_heuristic!(SpectralPartitioner, "Spectral");
impl_heuristic!(AnnealingPartitioner, "Annealing");
