//! Experiment and reporting harness for metaheuristic comparison.
//!
//! Implements the reporting methodology the paper advocates (§3.2):
//!
//! * seeded multi-trial [`runner`] over any [`runner::Heuristic`] (flat FM, CLIP,
//!   multilevel, multi-start+V-cycle drivers);
//! * summary [`stats`] (min/avg/std/median/quantiles) and the Wilcoxon
//!   rank-sum significance test (the Brglez point about distinguishing
//!   improvement from chance);
//! * [`bsf`] — best-so-far curves: expected best cut versus CPU budget τ,
//!   computed exactly from order statistics of the empirical trial
//!   distribution;
//! * [`pareto`] — the non-dominated frontier of (cost, runtime) points
//!   ("no one would ever choose to run configuration A over B");
//! * [`ranking`] — Schreiber–Martin-style speed-dependent ranking
//!   diagrams over (instance, CPU budget) grids;
//! * [`table`] — aligned ASCII / CSV table emission for every regenerated
//!   table of the paper.
//!
//! # Example
//!
//! ```
//! use hypart_core::{BalanceConstraint, FmConfig, RunCtx};
//! use hypart_eval::runner::{run_trials_with, FlatFmHeuristic};
//! use hypart_benchgen::toys::two_clusters;
//!
//! let h = two_clusters(8, 2);
//! let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
//! let heuristic = FlatFmHeuristic::new("LIFO FM", FmConfig::lifo());
//! let trials = run_trials_with(&heuristic, &h, &c, 10, &mut RunCtx::new(0));
//! assert_eq!(trials.len(), 10);
//! assert_eq!(trials.min_cut(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bsf;
pub mod json;
pub mod pareto;
pub mod ranking;
pub mod report;
pub mod runner;
pub mod stats;
pub mod table;
