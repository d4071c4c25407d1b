//! Integration tests of the engine's trace emission: the event stream
//! must have the documented shape, agree with the returned
//! [`FmStats`]/[`FmOutcome`], and satisfy the paper's §2.3 corking
//! definition exactly.

use proptest::prelude::*;

use hypart_benchgen::ispd98_like;
use hypart_core::{BalanceConstraint, FmConfig, FmPartitioner, PassStats, RunCtx, CORKED_FRACTION};
use hypart_trace::{MemorySink, RunEvent};

/// Splits a run-level stream into per-pass event slices (everything
/// between a `PassBegin` and its `PassEnd`).
fn passes_of(events: &[RunEvent]) -> Vec<&[RunEvent]> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, e) in events.iter().enumerate() {
        match e {
            RunEvent::PassBegin { .. } => {
                assert!(start.is_none(), "nested PassBegin at {i}");
                start = Some(i);
            }
            RunEvent::PassEnd { .. } => {
                let s = start.take().expect("PassEnd without PassBegin");
                out.push(&events[s..=i]);
            }
            _ => {}
        }
    }
    assert!(start.is_none(), "unterminated pass");
    out
}

#[test]
fn event_stream_shape_matches_outcome() {
    let h = ispd98_like(1, 0.03, 11);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let sink = MemorySink::new();
    let out =
        FmPartitioner::new(FmConfig::clip()).run_with(&h, &c, &mut RunCtx::new(5).with_sink(&sink));
    let events = sink.take();

    // Exactly one RunBegin (first) and one RunEnd (last).
    let begins: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, RunEvent::RunBegin { .. }))
        .map(|(i, _)| i)
        .collect();
    let ends: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, RunEvent::RunEnd { .. }))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(begins, vec![0]);
    assert_eq!(ends, vec![events.len() - 1]);
    assert_eq!(
        events[0],
        RunEvent::RunBegin {
            cut: out.stats.initial_cut
        }
    );
    assert_eq!(
        events[events.len() - 1],
        RunEvent::RunEnd {
            cut: out.cut,
            passes: out.stats.num_passes()
        }
    );

    // At least one PassBegin/PassEnd pair, pass indices dense and
    // monotone, and one pair per PassStats record.
    let passes = passes_of(&events);
    assert!(!passes.is_empty());
    assert_eq!(passes.len(), out.stats.num_passes());
    for (expect, pass) in passes.iter().enumerate() {
        let RunEvent::PassBegin { pass: b, .. } = pass[0] else {
            panic!("pass slice must start with PassBegin");
        };
        let RunEvent::PassEnd { pass: e, .. } = pass[pass.len() - 1] else {
            panic!("pass slice must end with PassEnd");
        };
        assert_eq!(b, expect, "PassBegin indices monotone from 0");
        assert_eq!(e, expect, "PassEnd index matches its PassBegin");
    }

    // Rollback events match the stats' rolled-back move count, per pass
    // and in total; Move events match moves_made.
    for (stats, pass) in out.stats.passes.iter().zip(&passes) {
        let moves = pass
            .iter()
            .filter(|e| matches!(e, RunEvent::Move { .. }))
            .count();
        let rollbacks = pass
            .iter()
            .filter(|e| matches!(e, RunEvent::Rollback { .. }))
            .count();
        assert_eq!(moves, stats.moves_made);
        assert_eq!(rollbacks, stats.moves_rolled_back);
    }
    let total_rollbacks = events
        .iter()
        .filter(|e| matches!(e, RunEvent::Rollback { .. }))
        .count();
    assert_eq!(
        total_rollbacks,
        out.stats
            .passes
            .iter()
            .map(|p| p.moves_rolled_back)
            .sum::<usize>()
    );
}

#[test]
fn fm_stats_are_derivable_from_events() {
    let h = ispd98_like(1, 0.03, 7);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.05);
    let sink = MemorySink::new();
    let out =
        FmPartitioner::new(FmConfig::lifo()).run_with(&h, &c, &mut RunCtx::new(2).with_sink(&sink));
    let events = sink.take();

    for (stats, pass) in out.stats.passes.iter().zip(passes_of(&events)) {
        let RunEvent::PassBegin { cut, eligible, .. } = pass[0] else {
            unreachable!()
        };
        assert_eq!(cut, stats.cut_before);
        assert_eq!(eligible, stats.eligible);
        let RunEvent::PassEnd {
            cut,
            moves_made,
            moves_rolled_back,
            corked,
            ..
        } = pass[pass.len() - 1]
        else {
            unreachable!()
        };
        assert_eq!(cut, stats.cut_after);
        assert_eq!(moves_made, stats.moves_made);
        assert_eq!(moves_rolled_back, stats.moves_rolled_back);
        assert_eq!(corked, stats.corked);
    }
}

#[test]
fn traces_are_deterministic_per_seed() {
    let h = ispd98_like(1, 0.02, 3);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let engine = FmPartitioner::new(FmConfig::clip());
    let a = MemorySink::new();
    let b = MemorySink::new();
    engine.run_with(&h, &c, &mut RunCtx::new(9).with_sink(&a));
    engine.run_with(&h, &c, &mut RunCtx::new(9).with_sink(&b));
    assert_eq!(a.take(), b.take());
}

/// Recomputes the §2.3 corked predicate from the raw pass observables.
fn corked_by_definition(leftovers: bool, moves_made: usize, eligible: usize) -> bool {
    leftovers && eligible > 0 && moves_made * CORKED_FRACTION.1 < eligible * CORKED_FRACTION.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `PassStats::cut_after` equals the minimum prefix of the pass's
    /// `Move`-event cut trajectory: rollback restores exactly the best
    /// cut seen.
    #[test]
    fn cut_after_is_min_prefix_of_trajectory(seed in any::<u64>(), clip in any::<bool>()) {
        let h = ispd98_like(1, 0.02, 19);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let base = if clip { FmConfig::clip() } else { FmConfig::lifo() };
        let sink = MemorySink::new();
        let out = FmPartitioner::new(base).run_with(&h, &c, &mut RunCtx::new(seed).with_sink(&sink));
        let events = sink.take();
        prop_assert!(out.stats.num_passes() > 0);
        for (p, pass) in out.stats.passes.iter().zip(passes_of(&events)) {
            let trajectory: Vec<u64> = pass.iter().filter_map(|e| match e {
                RunEvent::Move { cut, .. } => Some(*cut),
                _ => None,
            }).collect();
            let best = trajectory.iter().copied().fold(p.cut_before, u64::min);
            prop_assert_eq!(p.cut_after, best,
                "cut_after {} != min-prefix {} (before {}, trajectory {:?})",
                p.cut_after, best, p.cut_before, trajectory);
        }
    }

    /// The `corked` flag matches the `CORKED_FRACTION` definition exactly,
    /// both in the event stream (from `PassEnd` observables) and in the
    /// returned stats, with `Corked` events on exactly the corked passes.
    #[test]
    fn corked_flag_matches_definition(seed in 0u64..16, instance_seed in 0u64..8) {
        let h = ispd98_like(1, 0.03, instance_seed);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.02);
        let sink = MemorySink::new();
        let out = FmPartitioner::new(
            FmConfig::clip().with_exclude_overweight(false),
        ).run_with(&h, &c, &mut RunCtx::new(seed).with_sink(&sink));
        let events = sink.take();
        for (stats, pass) in out.stats.passes.iter().zip(passes_of(&events)) {
            let RunEvent::PassBegin { eligible, .. } = pass[0] else { unreachable!() };
            let RunEvent::PassEnd { moves_made, leftovers, corked, .. } =
                pass[pass.len() - 1] else { unreachable!() };
            let expect = corked_by_definition(leftovers, moves_made, eligible);
            prop_assert_eq!(corked, expect);
            prop_assert_eq!(stats.corked, expect);
            let corked_events = pass.iter().filter(
                |e| matches!(e, RunEvent::Corked { .. })).count();
            prop_assert_eq!(corked_events, usize::from(expect));
        }
    }
}

/// The definition itself, pinned against hand-built `PassStats`.
#[test]
fn corked_definition_on_hand_built_stats() {
    // 5 of 100 eligible moved with leftovers: 5 * 20 == 100, NOT corked
    // (strict inequality).
    assert!(!corked_by_definition(true, 5, 100));
    // 4 of 100: corked.
    assert!(corked_by_definition(true, 4, 100));
    // No leftovers: never corked no matter how few moves.
    assert!(!corked_by_definition(false, 0, 100));
    // Nothing eligible: not corked.
    assert!(!corked_by_definition(true, 0, 0));
    let p = PassStats {
        moves_made: 4,
        eligible: 100,
        corked: true,
        ..PassStats::default()
    };
    assert_eq!(
        p.corked,
        corked_by_definition(true, p.moves_made, p.eligible)
    );
}
