//! Property tests of the FM engine across its entire knob space: whatever
//! the configuration, results must verify, respect balance, and never
//! regress the initial score.

use proptest::prelude::*;

use hypart_core::{
    BalanceConstraint, Bisection, FmConfig, FmPartitioner, IllegalHeadPolicy, InitialSolution,
    InsertionPolicy, PassBestRule, RunCtx, SelectionRule, TieBreak, ZeroDeltaPolicy,
};
use hypart_hypergraph::{Hypergraph, HypergraphBuilder, VertexId};
use hypart_trace::{MemorySink, RunEvent};
use rand::SeedableRng;

/// Compact random-hypergraph recipe: (size nibble, net triples, weights).
type Recipe = (u8, Vec<(u8, u8, u8)>, Vec<u8>);

/// Builds a random hypergraph from a compact recipe (avoids a dev-dep on
/// the generator crate).
fn build(recipe: &Recipe) -> Hypergraph {
    let (n_raw, nets, weights) = recipe;
    let n = (*n_raw as usize % 30) + 4;
    let mut b = HypergraphBuilder::new();
    for i in 0..n {
        let w = weights.get(i).copied().unwrap_or(1) as u64 % 8 + 1;
        b.add_vertex(w);
    }
    for &(a, c, d) in nets {
        let pins: Vec<VertexId> = [a, c, d]
            .iter()
            .map(|&x| VertexId::from_index(x as usize % n))
            .collect();
        // duplicates collapse in the builder; single-pin nets are legal
        b.add_net(pins, 1).expect("valid pins");
    }
    b.build().expect("valid hypergraph")
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        any::<u8>(),
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..60),
        proptest::collection::vec(any::<u8>(), 0..34),
    )
}

fn config() -> impl Strategy<Value = FmConfig> {
    (
        prop_oneof![Just(SelectionRule::Classic), Just(SelectionRule::Clip)],
        prop_oneof![
            Just(TieBreak::Away),
            Just(TieBreak::Part0),
            Just(TieBreak::Toward)
        ],
        prop_oneof![Just(ZeroDeltaPolicy::All), Just(ZeroDeltaPolicy::Nonzero)],
        prop_oneof![
            Just(InsertionPolicy::Lifo),
            Just(InsertionPolicy::Fifo),
            Just(InsertionPolicy::Random)
        ],
        prop_oneof![
            Just(PassBestRule::FirstSeen),
            Just(PassBestRule::LastSeen),
            Just(PassBestRule::MostBalanced)
        ],
        prop_oneof![
            Just(IllegalHeadPolicy::SkipBucket),
            Just(IllegalHeadPolicy::SkipSide)
        ],
        any::<bool>(),
        1usize..5,
        prop_oneof![
            Just(InitialSolution::RandomBalanced),
            Just(InitialSolution::AreaSortedGreedy),
            Just(InitialSolution::UniformRandom)
        ],
    )
        .prop_map(
            |(selection, tie, zero, insertion, pass_best, illegal, exclude, lookahead, initial)| {
                FmConfig {
                    selection,
                    tie_break: tie,
                    zero_delta: zero,
                    insertion,
                    pass_best,
                    illegal_head: illegal,
                    exclude_overweight: exclude,
                    lookahead,
                    max_passes: 16,
                    initial,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any configuration, any instance: the reported cut matches a
    /// from-scratch recount and the run terminates.
    #[test]
    fn every_configuration_verifies(r in recipe(), cfg in config(), seed in any::<u64>()) {
        let h = build(&r);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.30);
        // Reconstruct the engine's initial solution (run() derives it from
        // the same seed) so the true invariant — the lexicographic
        // (violation, cut) score never worsens — is checkable.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        let initial = hypart_core::generate_initial(&h, cfg.initial, &mut rng);
        let initial_bis = Bisection::new(&h, initial).expect("valid initial");
        let score_before = (c.total_violation(&initial_bis), initial_bis.cut());

        let sink = MemorySink::new();
        let out = FmPartitioner::new(cfg).run_with(&h, &c, &mut RunCtx::new(seed).with_sink(&sink));
        let bis = Bisection::new(&h, out.assignment).expect("valid assignment");
        prop_assert_eq!(bis.recompute_cut(), out.cut);
        prop_assert_eq!(out.balanced, c.is_satisfied(&bis));
        let opened = sink.take().first().cloned();
        prop_assert_eq!(opened, Some(RunEvent::RunBegin { cut: score_before.1 }));
        let score_after = (c.total_violation(&bis), bis.cut());
        prop_assert!(score_after <= score_before,
            "score worsened {score_before:?} -> {score_after:?}");
    }

    /// Same seed, same config, same instance: identical outcome (the
    /// reproducibility requirement the paper puts first).
    #[test]
    fn runs_are_reproducible(r in recipe(), cfg in config(), seed in any::<u64>()) {
        let h = build(&r);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.25);
        let run = |sink: &MemorySink| {
            FmPartitioner::new(cfg).run_with(&h, &c, &mut RunCtx::new(seed).with_sink(sink))
        };
        let (trace_a, trace_b) = (MemorySink::new(), MemorySink::new());
        let (a, b) = (run(&trace_a), run(&trace_b));
        prop_assert_eq!(a.assignment, b.assignment);
        prop_assert_eq!(a.cut, b.cut);
        prop_assert_eq!(trace_a.take(), trace_b.take());
    }

    /// Tightening the balance window never produces an unbalanced report
    /// claiming to be balanced, and zero-tolerance windows still terminate.
    #[test]
    fn extreme_tolerances_terminate(r in recipe(), seed in any::<u64>()) {
        let h = build(&r);
        for fraction in [0.0, 0.01, 0.9] {
            let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), fraction);
            let out = FmPartitioner::new(FmConfig::lifo()).run(&h, &c, seed);
            let bis = Bisection::new(&h, out.assignment).expect("valid");
            prop_assert_eq!(out.balanced, c.is_satisfied(&bis), "fraction {}", fraction);
        }
    }
}
