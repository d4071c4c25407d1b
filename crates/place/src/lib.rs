//! Top-down min-cut global placement — the driving application of the
//! paper's §2.1.
//!
//! "A modern top-down standard-cell placement tool might perform …
//! recursive min-cut bisection of a cell-level netlist to obtain a
//! 'coarse placement', which is then refined into a 'detailed placement'."
//! This crate implements that flow on top of the `hypart` partitioners:
//!
//! * [`Rect`] / [`Placement`] — geometry and per-cell coordinates;
//! * [`TopDownPlacer`] — recursive min-cut bisection with alternating
//!   cutline direction, area-proportional region splitting, and
//!   Dunlop–Kernighan **terminal propagation** (external pins of crossing
//!   nets are projected onto the region boundary as fixed dummy
//!   terminals — the §2.1 reason real partitioning instances have many
//!   fixed vertices);
//! * [`hpwl`] — half-perimeter wirelength, the application-level quality
//!   metric that makes partitioner comparisons "meaningful in light of
//!   the driving application";
//! * [`RowLegalizer`] — snaps a coarse placement onto cell rows
//!   (non-overlapping sites), the hand-off point to detailed placement.
//!
//! # Example
//!
//! ```
//! use hypart_place::{hpwl, PlacerConfig, Rect, TopDownPlacer};
//! use hypart_benchgen::toys::grid;
//!
//! let h = grid(8, 8);
//! let die = Rect::new(0.0, 0.0, 100.0, 100.0);
//! let placement = TopDownPlacer::new(PlacerConfig::default()).run(&h, die, 1);
//! assert_eq!(placement.len(), h.num_vertices());
//! assert!(hpwl(&h, &placement) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod geometry;
mod legalize;
mod placer;
mod wirelength;

pub use geometry::{Placement, Point, Rect};
pub use legalize::{LegalizedPlacement, RowLegalizer};
pub use placer::{PlacerConfig, TopDownPlacer};
pub use wirelength::{hpwl, net_hpwl};
