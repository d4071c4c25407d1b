//! Property-based integration tests (proptest) over the core invariants:
//! incremental bookkeeping vs from-scratch recomputation, engine legality,
//! and coarsening correctness, on randomized hypergraphs.

use proptest::prelude::*;

use hypart::benchgen::random_hypergraph;
use hypart::core::brute::optimal_bisection;
use hypart::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy parameters for a random instance: (vertices, nets, max net
/// size, max weight, seed).
fn instance_params() -> impl Strategy<Value = (usize, usize, usize, u64, u64)> {
    (4usize..60, 4usize..90, 2usize..6, 1u64..12, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After ANY sequence of moves, the incrementally maintained cut
    /// equals a from-scratch recomputation (the fundamental FM invariant).
    #[test]
    fn incremental_cut_equals_scratch((n, m, k, w, seed) in instance_params(),
                                      moves in proptest::collection::vec(any::<u32>(), 0..120)) {
        let h = random_hypergraph(n, m, k, w, seed);
        let assignment: Vec<PartId> = (0..n)
            .map(|i| if (seed >> (i % 48)) & 1 == 1 { PartId::P1 } else { PartId::P0 })
            .collect();
        let mut bis = Bisection::new(&h, assignment).expect("valid");
        for mv in moves {
            let v = VertexId::new(mv % n as u32);
            let predicted = bis.gain(v);
            let realized = bis.move_vertex(v);
            prop_assert_eq!(predicted, realized);
            prop_assert_eq!(bis.cut(), bis.recompute_cut());
        }
    }

    /// Every engine preset returns a solution whose reported cut matches a
    /// from-scratch evaluation, and never violates a generous balance
    /// window.
    #[test]
    fn engine_results_verify((n, m, k, w, seed) in instance_params()) {
        let h = random_hypergraph(n, m, k, w, seed);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.30);
        for fm in [FmConfig::lifo(), FmConfig::clip()] {
            let out = FmPartitioner::new(fm).run(&h, &c, seed);
            let bis = Bisection::new(&h, out.assignment).expect("valid");
            prop_assert_eq!(bis.recompute_cut(), out.cut);
            prop_assert!(out.balanced,
                "unbalanced: {} vs window [{}, {}]",
                bis.part_weight(PartId::P0), c.lower(), c.upper());
        }
    }

    /// FM refinement never worsens the (violation, cut) score of the
    /// initial solution it is given.
    #[test]
    fn refinement_is_monotone((n, m, k, w, seed) in instance_params()) {
        let h = random_hypergraph(n, m, k, w, seed);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.25);
        let parts = hypart::core::generate_initial(
            &h,
            hypart::core::InitialSolution::RandomBalanced,
            &mut SmallRng::seed_from_u64(seed),
        );
        let mut bis = Bisection::new(&h, parts).expect("valid");
        let before = (c.total_violation(&bis), bis.cut());
        let engine = FmPartitioner::new(FmConfig::lifo());
        engine.refine_with(&mut bis, &c, &mut SmallRng::seed_from_u64(seed ^ 1), &mut RunCtx::new(0));
        let after = (c.total_violation(&bis), bis.cut());
        prop_assert!(after <= before, "refinement worsened {before:?} -> {after:?}");
    }

    /// Coarsening preserves total vertex weight, and a coarse cut always
    /// projects to exactly the same fine cut.
    #[test]
    fn coarsening_preserves_weight_and_cut((n, m, k, w, seed) in instance_params()) {
        let h = random_hypergraph(n.max(20), m.max(20), k, w, seed);
        let cfg = hypart::ml::coarsen::CoarsenConfig {
            stop_size: 4,
            ..Default::default()
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        if let Some(level) = hypart::ml::coarsen::coarsen_once(&h, &cfg, None, &mut rng) {
            prop_assert_eq!(level.graph.total_vertex_weight(), h.total_vertex_weight());
            level.graph.validate().expect("coarse graph valid");

            // Any coarse assignment projects to a fine assignment with the
            // same weighted cut.
            let coarse_parts: Vec<PartId> = (0..level.graph.num_vertices())
                .map(|i| if (seed >> (i % 48)) & 1 == 1 { PartId::P1 } else { PartId::P0 })
                .collect();
            let coarse_cut = Bisection::new(&level.graph, coarse_parts.clone())
                .expect("valid").cut();
            let fine_parts = level.project(&coarse_parts);
            let fine_cut = Bisection::new(&h, fine_parts).expect("valid").cut();
            prop_assert_eq!(coarse_cut, fine_cut);
        }
    }

    /// On tiny instances, multi-start FM is never worse than 3x the true
    /// optimum (sanity band for heuristic quality).
    #[test]
    fn fm_is_within_band_of_optimal(seed in any::<u64>()) {
        let h = random_hypergraph(12, 18, 4, 3, seed);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.34);
        if let Some(opt) = optimal_bisection(&h, &c) {
            let best = (0..8u64)
                .map(|s| FmPartitioner::new(FmConfig::lifo()).run(&h, &c, s.wrapping_add(seed)))
                .filter(|o| o.balanced)
                .map(|o| o.cut)
                .min();
            if let Some(best) = best {
                prop_assert!(best >= opt.cut, "heuristic {best} beat 'optimal' {}", opt.cut);
                prop_assert!(best <= opt.cut.max(1) * 3 + 2,
                    "heuristic {best} too far from optimal {}", opt.cut);
            }
        }
    }

    /// hgr round trip is the identity on structure.
    #[test]
    fn hgr_round_trip_identity((n, m, k, w, seed) in instance_params()) {
        let h = random_hypergraph(n, m, k, w, seed);
        let mut buf = Vec::new();
        hypart::hypergraph::io::hgr::write(&h, &mut buf).expect("write");
        let h2 = hypart::hypergraph::io::hgr::read(&buf[..]).expect("read");
        prop_assert_eq!(h2.num_vertices(), h.num_vertices());
        prop_assert_eq!(h2.num_pins(), h.num_pins());
        for e in h.nets() {
            prop_assert_eq!(h2.net_pins(e), h.net_pins(e));
            prop_assert_eq!(h2.net_weight(e), h.net_weight(e));
        }
        for v in h.vertices() {
            prop_assert_eq!(h2.vertex_weight(v), h.vertex_weight(v));
        }
    }
}
