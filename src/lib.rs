//! # hypart — a hypergraph partitioning testbench for VLSI CAD
//!
//! A reproduction of the system behind Caldwell, Kahng, Kennings &
//! Markov, *"Hypergraph Partitioning for VLSI CAD: Methodology for
//! Heuristic Development, Experimentation and Reporting"* (DAC 1999):
//! a modular Fiduccia–Mattheyses testbench in which every implicit
//! implementation decision is an explicit knob, plus the multilevel
//! machinery, synthetic ISPD98-style benchmarks, and the experiment /
//! reporting harness the paper prescribes.
//!
//! This crate is a facade: it re-exports the workspace crates under
//! stable module names.
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`hypergraph`] | `hypart-hypergraph` | [`Hypergraph`], builder, stats, `.hgr`/netD/partition I/O |
//! | [`core`] | `hypart-core` | [`FmPartitioner`], [`FmConfig`] knobs, [`Bisection`], [`BalanceConstraint`], the 2-way [`Outcome`], objectives, brute force |
//! | [`ml`] | `hypart-ml` | [`MlPartitioner`], coarsening, V-cycles, [`multi_start_with`] driver |
//! | [`kway`] | `hypart-kway` | recursive bisection into any k, [`hypart_kway::KWayPartition`] |
//! | [`place`] | `hypart-place` | top-down min-cut placement, terminal propagation, HPWL, row legalization |
//! | [`baselines`] | `hypart-baselines` | spectral ratio-cut and simulated-annealing comparison baselines |
//! | [`benchgen`] | `hypart-benchgen` | ISPD98-like / MCNC-like / random instance generators |
//! | [`eval`] | `hypart-eval` | trial runner, statistics, BSF curves, Pareto frontiers, ranking diagrams, tables |
//! | [`trace`] | `hypart-trace` | [`trace::RunEvent`] stream, [`trace::TraceSink`] impls (null/memory/JSONL/counter), JSON builder |
//!
//! # Quickstart
//!
//! ```
//! use hypart::prelude::*;
//!
//! // A small ISPD98-like actual-area instance (5% of ibm01's size).
//! let h = hypart::benchgen::ispd98_like(1, 0.05, 42);
//!
//! // The paper's 2% balance window: each side holds 49-51% of total area.
//! let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.02);
//!
//! // A competent flat LIFO FM (the paper's strong implicit choices).
//! let outcome = FmPartitioner::new(FmConfig::lifo()).run(&h, &constraint, 7);
//! assert!(outcome.balanced);
//!
//! // A multilevel run is typically much better (on average; any single
//! // seed can go either way, which is §3.2's whole point).
//! let ml = MlPartitioner::new(MlConfig::ml_lifo()).run(&h, &constraint, 7);
//! assert!(ml.balanced);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hypart_baselines as baselines;
pub use hypart_benchgen as benchgen;
pub use hypart_core as core;
pub use hypart_eval as eval;
pub use hypart_hypergraph as hypergraph;
pub use hypart_kway as kway;
pub use hypart_ml as ml;
pub use hypart_place as place;
pub use hypart_trace as trace;

/// The most commonly used types, for glob import.
pub mod prelude {
    pub use hypart_core::{
        BalanceConstraint, Bisection, CancelToken, EngineKind, FmConfig, FmPartitioner,
        InsertionPolicy, Outcome, RunCtx, SelectionRule, StopReason, TieBreak, ZeroDeltaPolicy,
    };
    pub use hypart_eval::runner::{
        run_trials_with, FlatFmHeuristic, Heuristic, MlHeuristic, MultiStartHeuristic, Trial,
        TrialSet,
    };
    pub use hypart_hypergraph::{Hypergraph, HypergraphBuilder, NetId, PartId, VertexId};
    pub use hypart_kway::{recursive_bisection, recursive_bisection_with, KWayBalance};
    pub use hypart_ml::{
        multi_start_with, MlConfig, MlPartitioner, MultiStartOutcome, MultiStartPlan, Starts,
    };
    pub use hypart_place::{hpwl, PlacerConfig, Rect, TopDownPlacer};
    pub use hypart_trace::{
        CounterSink, JsonlSink, MemorySink, NullSink, RunEvent, TeeSink, TraceSink,
    };
}

#[doc(inline)]
pub use hypart_core::{BalanceConstraint, Bisection, FmConfig, FmPartitioner, Outcome};
#[doc(inline)]
pub use hypart_hypergraph::{Hypergraph, HypergraphBuilder, PartId};
#[doc(inline)]
pub use hypart_ml::{multi_start_with, MlConfig, MlPartitioner};
