//! Determinism contract of the split pipeline
//! ([`MlPartitioner::coarsen_hierarchy_with`] +
//! [`MlPartitioner::run_from_hierarchy_with`]), which every serial 2-way
//! start runs and which powers the service's hierarchy cache.
//!
//! The contract: the hierarchy is a pure function of
//! `(graph, coarsening config, seed)` and carries no RNG state out, and
//! `run_from_hierarchy_with` reseeds from `ctx.seed` — so partitioning
//! from a *cached* hierarchy is bitwise the same computation (same trace
//! bytes, same outcome) as building a fresh hierarchy and partitioning
//! from that, and as one [`MlPartitioner::run_with`] call. This is what
//! lets a daemon cache hit replay a cold run's trace exactly, modulo the
//! one leading `hierarchy_reused` event the daemon prepends, and what
//! makes a daemon job return the library's partition.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hypart_benchgen::mcnc_like;
use hypart_core::{BalanceConstraint, Outcome, RunCtx};
use hypart_hypergraph::Hypergraph;
use hypart_ml::{Hierarchy, MlConfig, MlPartitioner};
use hypart_trace::{JsonlSink, MemorySink};

fn golden() -> Hypergraph {
    mcnc_like(180, 0xCAC4E)
}

fn constraint(h: &Hypergraph) -> BalanceConstraint {
    BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10)
}

fn run_from(h: &Hypergraph, hierarchy: &Hierarchy, seed: u64) -> (Vec<u8>, Outcome) {
    let ml = MlPartitioner::new(MlConfig::default());
    let sink = JsonlSink::new(Vec::new());
    let mut ctx = RunCtx::new(seed).with_sink(&sink);
    let out = ml.run_from_hierarchy_with(h, hierarchy, &constraint(h), &mut ctx);
    (sink.finish().expect("in-memory sink"), out)
}

/// Hierarchy construction is silent: no trace events, so the partition
/// phase's stream is identical whether the hierarchy came from a cache
/// or was just built.
#[test]
fn coarsen_hierarchy_emits_no_events() {
    let h = golden();
    let sink = MemorySink::new();
    let mut ctx = RunCtx::new(9).with_sink(&sink);
    let hierarchy = MlPartitioner::new(MlConfig::default()).coarsen_hierarchy_with(&h, &mut ctx);
    assert!(!hierarchy.is_empty(), "golden instance must coarsen");
    assert!(
        sink.is_empty(),
        "hierarchy construction must not trace (cache hits could not replay cold streams)"
    );
}

/// The cache-hit equivalence: partitioning from one shared hierarchy
/// twice, and from a freshly rebuilt hierarchy, all produce bitwise
/// identical traces and outcomes.
#[test]
fn reused_hierarchy_replays_fresh_run_bitwise() {
    let h = golden();
    let ml = MlPartitioner::new(MlConfig::default());
    let first = ml.coarsen_hierarchy_with(&h, &mut RunCtx::new(21));
    let rebuilt = ml.coarsen_hierarchy_with(&h, &mut RunCtx::new(21));

    let (bytes_a, out_a) = run_from(&h, &first, 21);
    let (bytes_b, out_b) = run_from(&h, &first, 21); // "cache hit": same handle again
    let (bytes_c, out_c) = run_from(&h, &rebuilt, 21); // cold rebuild

    assert!(!bytes_a.is_empty());
    assert_eq!(
        bytes_a, bytes_b,
        "same hierarchy handle must replay bitwise"
    );
    assert_eq!(bytes_a, bytes_c, "rebuilt hierarchy must replay bitwise");
    assert_eq!(out_a.assignment, out_b.assignment);
    assert_eq!(out_a.assignment, out_c.assignment);
    assert_eq!(out_a.cut, out_c.cut);
}

/// Different partition seeds over one cached hierarchy stay independent
/// (the whole point of caching: re-query cheaply with new knobs).
#[test]
fn partition_seed_varies_independently_of_the_hierarchy() {
    let h = golden();
    let ml = MlPartitioner::new(MlConfig::default());
    let hierarchy = ml.coarsen_hierarchy_with(&h, &mut RunCtx::new(21));
    let (_, out_21) = run_from(&h, &hierarchy, 21);
    let (_, out_22) = run_from(&h, &hierarchy, 22);
    // Both legal; they need not agree (and the traces may), but each is
    // individually reproducible.
    assert_eq!(out_21.assignment.len(), h.num_vertices());
    assert_eq!(out_22.assignment.len(), h.num_vertices());
    let (_, out_21_again) = run_from(&h, &hierarchy, 21);
    assert_eq!(out_21.assignment, out_21_again.assignment);
}

/// One schedule: [`MlPartitioner::run_with`] is the split pipeline, so
/// for every seed the two give the same trace bytes and the same legal,
/// balanced outcome.
#[test]
fn run_with_is_the_split_pipeline() {
    let h = golden();
    let ml = MlPartitioner::new(MlConfig::default());
    let c = constraint(&h);
    for seed in 0..8 {
        let sink = JsonlSink::new(Vec::new());
        let single = ml.run_with(&h, &c, &mut RunCtx::new(seed).with_sink(&sink));
        let single_bytes = sink.finish().expect("in-memory sink");

        let hierarchy = ml.coarsen_hierarchy_with(&h, &mut RunCtx::new(seed));
        let (split_bytes, split) = run_from(&h, &hierarchy, seed);
        assert!(!single_bytes.is_empty());
        assert!(single.balanced, "seed {seed}: unbalanced");
        assert_eq!(single_bytes, split_bytes, "seed {seed}: traces differ");
        assert_eq!(
            format!("{single:?}"),
            format!("{split:?}"),
            "seed {seed}: outcomes differ"
        );
    }
}
