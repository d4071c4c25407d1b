//! Reading and writing hypergraphs and partitionings in the interchange
//! formats used by the VLSI partitioning community.
//!
//! * [`hgr`] — the hMETIS plain-text hypergraph format (`.hgr`), with
//!   optional net and vertex weights.
//! * [`netd`] — a simplified ISPD98 `netD`-style netlist format with cell
//!   areas and pad (fixed-terminal) records.
//! * [`partfile`] — one-partition-id-per-line solution files, as consumed by
//!   downstream placement flows and external evaluators.
//!
//! All readers work on any [`std::io::BufRead`]; all writers on any
//! [`std::io::Write`]; path-based convenience wrappers are provided.
//!
//! Parsers here face arbitrary user files, so panicking extractors are
//! denied outright: every malformed input must surface as a typed
//! [`crate::error::ParseError`] naming the offending line. Test modules
//! opt back in via an explicit allow.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod hgr;
pub mod netd;
pub mod partfile;
