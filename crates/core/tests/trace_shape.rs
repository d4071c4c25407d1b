//! Integration tests of the engine's trace emission: the event stream
//! is the only record of a run's passes, so it must have the documented
//! shape, agree with itself and with the returned [`Outcome`], and satisfy
//! the paper's §2.3 corking definition exactly.
//!
//! [`Outcome`]: hypart_core::Outcome

use proptest::prelude::*;

use hypart_benchgen::ispd98_like;
use hypart_core::{BalanceConstraint, FmConfig, FmPartitioner, RunCtx, CORKED_FRACTION};
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

    // At least one PassBegin/PassEnd pair, pass indices dense and
    // monotone. The first pass starts from the run's initial cut and each
    // later one where the previous ended; each pass's Move and Rollback
    // events match its PassEnd counts; RunEnd counts the passes and
    // carries the returned cut.
    let passes = passes_of(&events);
    assert!(!passes.is_empty());
    let RunEvent::RunBegin {
        cut: mut cut_before,
    } = events[0]
    else {
        unreachable!()
    };
    for (expect, pass) in passes.iter().enumerate() {
        let RunEvent::PassBegin { pass: b, cut, .. } = pass[0] else {
            panic!("pass slice must start with PassBegin");
        };
        let RunEvent::PassEnd {
            pass: e,
            cut: after,
            moves_made,
            moves_rolled_back,
            ..
        } = pass[pass.len() - 1]
        else {
            panic!("pass slice must end with PassEnd");
        };
        assert_eq!(b, expect, "PassBegin indices monotone from 0");
        assert_eq!(e, expect, "PassEnd index matches its PassBegin");
        assert_eq!(cut, cut_before, "pass {expect} starts where the run stood");
        cut_before = after;
        let count = |f: fn(&RunEvent) -> bool| pass.iter().filter(|e| f(e)).count();
        assert_eq!(count(|e| matches!(e, RunEvent::Move { .. })), moves_made);
        assert_eq!(
            count(|e| matches!(e, RunEvent::Rollback { .. })),
            moves_rolled_back
        );
    }
    assert_eq!(cut_before, out.cut);
    let passes = passes.len();
    let run_end = RunEvent::RunEnd {
        cut: out.cut,
        passes,
    };
    assert_eq!(events[events.len() - 1], run_end);
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

    /// A pass's `PassEnd` cut equals the minimum prefix of its
    /// `Move`-event cut trajectory: rollback restores exactly the best
    /// cut seen.
    #[test]
    fn cut_after_is_min_prefix_of_trajectory(seed in any::<u64>(), clip in any::<bool>()) {
        let h = ispd98_like(1, 0.02, 19);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let base = if clip { FmConfig::clip() } else { FmConfig::lifo() };
        let sink = MemorySink::new();
        FmPartitioner::new(base).run_with(&h, &c, &mut RunCtx::new(seed).with_sink(&sink));
        let events = sink.take();
        let passes = passes_of(&events);
        prop_assert!(!passes.is_empty());
        for pass in passes {
            let RunEvent::PassBegin { cut: before, .. } = pass[0] else { unreachable!() };
            let RunEvent::PassEnd { cut: after, .. } = pass[pass.len() - 1] else { unreachable!() };
            let trajectory: Vec<u64> = pass.iter().filter_map(|e| match e {
                RunEvent::Move { cut, .. } => Some(*cut),
                _ => None,
            }).collect();
            let best = trajectory.iter().copied().fold(before, u64::min);
            prop_assert_eq!(after, best,
                "cut after {} != min-prefix {} (before {}, trajectory {:?})",
                after, best, before, trajectory);
        }
    }

    /// The `corked` flag of every `PassEnd` matches the `CORKED_FRACTION`
    /// definition exactly, from the pass's own observables, with `Corked`
    /// events on exactly the corked passes.
    #[test]
    fn corked_flag_matches_definition(seed in 0u64..16, instance_seed in 0u64..8) {
        let h = ispd98_like(1, 0.03, instance_seed);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.02);
        let sink = MemorySink::new();
        FmPartitioner::new(
            FmConfig::clip().with_exclude_overweight(false),
        ).run_with(&h, &c, &mut RunCtx::new(seed).with_sink(&sink));
        let events = sink.take();
        for pass in passes_of(&events) {
            let RunEvent::PassBegin { eligible, .. } = pass[0] else { unreachable!() };
            let RunEvent::PassEnd { moves_made, leftovers, corked, .. } =
                pass[pass.len() - 1] else { unreachable!() };
            let expect = corked_by_definition(leftovers, moves_made, eligible);
            prop_assert_eq!(corked, expect);
            let corked_events = pass.iter().filter(
                |e| matches!(e, RunEvent::Corked { .. })).count();
            prop_assert_eq!(corked_events, usize::from(expect));
        }
    }
}

/// The definition itself, pinned on hand-picked pass observables.
#[test]
fn corked_definition_on_hand_built_passes() {
    // 5 of 100 eligible moved with leftovers: 5 * 20 == 100, NOT corked
    // (strict inequality).
    assert!(!corked_by_definition(true, 5, 100));
    // 4 of 100: corked.
    assert!(corked_by_definition(true, 4, 100));
    // No leftovers: never corked no matter how few moves.
    assert!(!corked_by_definition(false, 0, 100));
    // Nothing eligible: not corked.
    assert!(!corked_by_definition(true, 0, 0));
}
