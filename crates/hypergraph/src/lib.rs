//! Hypergraph data structures for VLSI netlist partitioning.
//!
//! This crate provides the substrate on which the `hypart` partitioning
//! engines operate: a compact, immutable [`Hypergraph`] with CSR (compressed
//! sparse row) pin storage in both directions (net → pins and vertex →
//! incident nets), integer vertex weights (cell areas), integer net weights,
//! and optional *fixed-vertex* constraints (terminals preplaced in a
//! partition, as arises in top-down placement).
//!
//! # Model
//!
//! A hypergraph `H = (V, E)` consists of `|V|` vertices (cells) and `|E|`
//! hyperedges (nets). Each net is a set of two or more distinct vertices
//! (single-pin nets are permitted but can never be cut). Vertices carry a
//! weight (`u64`, typically cell area); nets carry a weight (`u32`, typically
//! 1). Vertices may be *fixed* to a partition, which partitioning engines
//! must honor.
//!
//! # Example
//!
//! ```
//! use hypart_hypergraph::{HypergraphBuilder, NetId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::new();
//! let a = b.add_vertex(2);
//! let c = b.add_vertex(3);
//! let d = b.add_vertex(1);
//! b.add_net([a, c], 1)?;
//! b.add_net([a, c, d], 1)?;
//! let h = b.build()?;
//! assert_eq!(h.num_vertices(), 3);
//! assert_eq!(h.num_nets(), 2);
//! assert_eq!(h.total_vertex_weight(), 6);
//! assert_eq!(h.net_pins(NetId::new(1)).len(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod graph;
mod ids;
pub mod io;
pub mod stats;

pub use builder::HypergraphBuilder;
pub use error::{BuildError, ParseError};
pub use graph::{CsrScratch, Hypergraph};
pub use ids::{NetId, PartId, VertexId};
