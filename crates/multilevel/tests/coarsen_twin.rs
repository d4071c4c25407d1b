//! Twin-model tests of the optimized coarsener.
//!
//! [`coarsen_once_with`] and [`build_hierarchy_with`] are heavily
//! engineered (dense scratch matching, fingerprint net dedup, recycled
//! builder); the original `HashMap`-based implementation is retained as
//! [`coarsen_once_reference`] / [`build_hierarchy_reference`] and acts as
//! the executable specification. Both twins consume an identical
//! freshly-seeded RNG, so any divergence — in the coarse graphs, the
//! fine→coarse maps, weights, fixed sides, or net multiplicities — is a
//! real behavioral difference, not noise.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use hypart_core::CoarsenWorkspace;
use hypart_hypergraph::{Hypergraph, HypergraphBuilder, PartId, VertexId};
use hypart_ml::coarsen::{
    build_hierarchy_reference, build_hierarchy_with, coarsen_once_reference, coarsen_once_with,
    CoarseLevel, CoarsenConfig, CoarsenScheme,
};

/// One generated instance: a small hypergraph with messy nets (duplicate
/// pins, weight-0 nets, singletons after collapse), a sprinkling of fixed
/// vertices, and a side assignment for restricted mode.
#[derive(Debug, Clone)]
struct Instance {
    graph: Hypergraph,
    sides: Vec<PartId>,
}

fn instance() -> impl Strategy<Value = Instance> {
    const MAX_N: usize = 32;
    (
        4usize..MAX_N,
        // Fixed-size pools; `prop_map` takes the first `n` entries (the
        // vendored proptest shim has no `prop_flat_map`).
        proptest::collection::vec(1u64..8, MAX_N..MAX_N + 1),
        // Pins are raw draws reduced mod `n`, so duplicates are common;
        // the builder collapses them, which also yields single-pin nets
        // the coarsener must skip. Weight 0 nets are legal and score 0.
        proptest::collection::vec(
            (proptest::collection::vec(any::<u32>(), 1..6), 0u32..4),
            1..48,
        ),
        // Fixed sides: ~1/4 of vertices fixed.
        proptest::collection::vec(0u8..8, MAX_N..MAX_N + 1),
        // Restriction sides for the restricted twin runs.
        proptest::collection::vec(any::<bool>(), MAX_N..MAX_N + 1),
    )
        .prop_map(|(n, weights, nets, fixed, sides)| {
            let mut b = HypergraphBuilder::new();
            for &w in weights.iter().take(n) {
                b.add_vertex(w);
            }
            for (i, f) in fixed.iter().take(n).enumerate() {
                match f {
                    0 => b.fix_vertex(VertexId::from_index(i), PartId::P0),
                    1 => b.fix_vertex(VertexId::from_index(i), PartId::P1),
                    _ => {}
                }
            }
            for (pins, w) in nets {
                b.add_net(
                    pins.into_iter()
                        .map(|p| VertexId::from_index(p as usize % n)),
                    w,
                )
                .expect("pins are in range");
            }
            let graph = b.name("twin".to_string()).build().expect("valid instance");
            let sides = sides
                .into_iter()
                .take(n)
                .map(|s| if s { PartId::P1 } else { PartId::P0 })
                .collect();
            Instance { graph, sides }
        })
}

/// Structural equality of two hypergraphs: identity of vertices (weights,
/// fixed sides), nets (pin sequences, weights) and names. Net *order*
/// matters — the optimized dedup must preserve first-occurrence emission
/// order, not just the merged multiset.
fn assert_graphs_eq(a: &Hypergraph, b: &Hypergraph) {
    assert_eq!(a.name(), b.name(), "coarse graph names differ");
    assert_eq!(a.num_vertices(), b.num_vertices(), "vertex counts differ");
    assert_eq!(a.num_nets(), b.num_nets(), "net counts differ");
    for v in a.vertices() {
        assert_eq!(a.vertex_weight(v), b.vertex_weight(v), "weight of {v:?}");
        assert_eq!(a.fixed_part(v), b.fixed_part(v), "fixed side of {v:?}");
    }
    for e in a.nets() {
        assert_eq!(a.net_pins(e), b.net_pins(e), "pins of {e:?}");
        assert_eq!(a.net_weight(e), b.net_weight(e), "weight of {e:?}");
    }
}

fn assert_levels_eq(optimized: &[CoarseLevel], reference: &[CoarseLevel]) {
    assert_eq!(optimized.len(), reference.len(), "hierarchy depths differ");
    for (o, r) in optimized.iter().zip(reference) {
        assert_eq!(o.map, r.map, "fine→coarse maps differ");
        assert_graphs_eq(&o.graph, &r.graph);
    }
}

/// A config that exercises the interesting paths on tiny graphs: coarsen
/// almost to the bottom, and (optionally) a net-size ceiling small enough
/// that some nets are excluded from matching but still emitted.
fn config(scheme: CoarsenScheme, max_net_size: usize) -> CoarsenConfig {
    CoarsenConfig {
        scheme,
        stop_size: 2,
        max_net_size_for_matching: max_net_size,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Free coarsening: one step and the full hierarchy agree with the
    /// reference for both matching schemes, from the same RNG state.
    #[test]
    fn twin_free(inst in instance(), seed in any::<u64>(), heavy in any::<bool>(),
                 tiny_nets in any::<bool>()) {
        let scheme = if heavy { CoarsenScheme::HeavyEdge } else { CoarsenScheme::FirstChoice };
        let cfg = config(scheme, if tiny_nets { 3 } else { 300 });
        let mut ws = CoarsenWorkspace::new();

        let opt = coarsen_once_with(
            &inst.graph, &cfg, None, &mut SmallRng::seed_from_u64(seed), &mut ws);
        let reference = coarsen_once_reference(
            &inst.graph, &cfg, None, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(opt.is_some(), reference.is_some());
        if let (Some(o), Some(r)) = (&opt, &reference) {
            assert_levels_eq(std::slice::from_ref(o), std::slice::from_ref(r));
        }

        let opt_h = build_hierarchy_with(
            &inst.graph, &cfg, None, &mut SmallRng::seed_from_u64(seed), &mut ws);
        let ref_h = build_hierarchy_reference(
            &inst.graph, &cfg, None, &mut SmallRng::seed_from_u64(seed));
        assert_levels_eq(&opt_h, &ref_h);
    }

    /// Restricted coarsening (the V-cycle path): the optimized side-array
    /// projection and packed admissibility records agree with the
    /// reference across whole hierarchies.
    #[test]
    fn twin_restricted(inst in instance(), seed in any::<u64>(), heavy in any::<bool>()) {
        let scheme = if heavy { CoarsenScheme::HeavyEdge } else { CoarsenScheme::FirstChoice };
        let cfg = config(scheme, 300);
        let mut ws = CoarsenWorkspace::new();

        let opt_h = build_hierarchy_with(
            &inst.graph, &cfg, Some(&inst.sides), &mut SmallRng::seed_from_u64(seed), &mut ws);
        let ref_h = build_hierarchy_reference(
            &inst.graph, &cfg, Some(&inst.sides), &mut SmallRng::seed_from_u64(seed));
        assert_levels_eq(&opt_h, &ref_h);
    }

    /// Workspace reuse is behaviorally invisible: running an unrelated
    /// hierarchy first (dirtying every arena) does not change the result
    /// of the next one.
    #[test]
    fn twin_dirty_workspace(a in instance(), b in instance(), seed in any::<u64>()) {
        let cfg = config(CoarsenScheme::FirstChoice, 300);
        let mut dirty = CoarsenWorkspace::new();
        let _ = build_hierarchy_with(
            &a.graph, &cfg, Some(&a.sides), &mut SmallRng::seed_from_u64(!seed), &mut dirty);
        let reused = build_hierarchy_with(
            &b.graph, &cfg, None, &mut SmallRng::seed_from_u64(seed), &mut dirty);
        let fresh = build_hierarchy_with(
            &b.graph, &cfg, None, &mut SmallRng::seed_from_u64(seed),
            &mut CoarsenWorkspace::new());
        assert_levels_eq(&reused, &fresh);
    }
}
