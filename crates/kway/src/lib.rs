//! Multi-way hypergraph partitioning by recursive bisection.
//!
//! The paper confines its experiments to FM-based 2-way partitioning and
//! names "the difficulty of multi-way partitioning" as one of the two
//! fundamental gaps in knowledge (§4). This crate builds k-way partitions
//! from the 2-way engines:
//!
//! * [`recursive_bisection`] — repeated 2-way multilevel min-cut
//!   bisection into any `k ≥ 2` parts, honouring fixed cells;
//! * [`KWayPartition`] — a k-way assignment with its per-part weights,
//!   hyperedge cut and (λ−1) ("SOED minus one") objectives;
//! * [`KWayBalance`] — per-part weight windows around `total/k`.
//!
//! Recursive bisection is the only k-way engine: at equal run time it
//! matched or beat direct k-way FM and multilevel k-way FM, which were
//! deleted (EXPERIMENTS.md, "k-way engine triage"). n-level k-way
//! partitions come from [`recursive_bisection_with`] with an n-level
//! `MlConfig`.
//!
//! # Example
//!
//! ```
//! use hypart_kway::{recursive_bisection, KWayBalance};
//! use hypart_ml::MlConfig;
//! use hypart_benchgen::toys::grid;
//!
//! let h = grid(8, 8);
//! let out = recursive_bisection(&h, 3, 0.25, &MlConfig::default(), 3);
//! assert_eq!(out.num_parts, 3);
//! let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 3, 0.25);
//! assert!(out.is_balanced(&balance));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod balance;
mod partition;
mod recursive;

pub use balance::KWayBalance;
pub use partition::KWayPartition;
pub use recursive::{recursive_bisection, recursive_bisection_with, KWayOutcome};
