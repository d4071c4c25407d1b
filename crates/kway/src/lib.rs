//! Multi-way hypergraph partitioning.
//!
//! The paper confines its experiments to FM-based 2-way partitioning and
//! names "the difficulty of multi-way partitioning" as one of the two
//! fundamental gaps in knowledge (§4); its footnote 2 further notes that
//! the classic FM-82 gain update is "netcut- and two-way specific", so a
//! k-way engine must solve the generic update problem. This crate supplies
//! that substrate:
//!
//! * [`KWayPartition`] — incremental k-way state: per-part weights,
//!   per-net span (λ), hyperedge cut and (λ−1) ("SOED minus one")
//!   objectives;
//! * [`KWayBalance`] — per-part weight windows around `total/k`;
//! * [`KWayFmPartitioner`] — direct k-way FM in the style of Sanchis,
//!   with one gain container per ordered (from, to) partition pair and
//!   the generic cut-delta gain update;
//! * [`recursive_bisection`] — the classical alternative: repeated 2-way
//!   multilevel min-cut bisection (for `k` a power of two);
//! * [`MlKWayPartitioner`] — multilevel k-way: coarsening + direct k-way
//!   FM refinement at every level (any `k`).
//!
//! The multilevel k-way engine runs one serial backend, the
//! level-by-level coarsener shared with 2-way multilevel; EXPERIMENTS.md
//! §k-way records why it has no n-level or lane-parallel variant. n-level
//! k-way partitions come from [`recursive_bisection_with`] with an
//! n-level `MlConfig`.
//!
//! # Example
//!
//! ```
//! use hypart_kway::{recursive_bisection, KWayBalance, KWayConfig};
//! use hypart_ml::MlConfig;
//! use hypart_benchgen::toys::grid;
//!
//! let h = grid(8, 8);
//! let out = recursive_bisection(&h, 4, 0.25, &MlConfig::default(), 3);
//! assert_eq!(out.num_parts, 4);
//! let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.25);
//! assert!(out.is_balanced(&balance));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod balance;
mod fm;
mod multilevel;
mod partition;
mod recursive;

pub use balance::KWayBalance;
pub use fm::{KWayConfig, KWayFmPartitioner, KWayOutcome};
pub use multilevel::{MlKWayConfig, MlKWayPartitioner};
pub use partition::KWayPartition;
pub use recursive::{recursive_bisection, recursive_bisection_with};
