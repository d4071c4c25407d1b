//! Bracket-pairing regression tests of the budgeted multi-start sweep,
//! [`multi_start_with`] under [`Starts::UntilBudget`].
//!
//! The contract (documented on [`multi_start_with`]): every
//! `StartBegin` is closed by exactly one `StartEnd` (normal path) or
//! `StartAborted` (panicked start) before the next start opens, the
//! launch gate sits immediately before the bracket opens so an expired
//! budget can never emit a dangling `StartBegin`, and nothing follows
//! the `BudgetExhausted` terminator. The regression pinned here: a
//! zero-budget sweep launched a start *after* the deadline probe would
//! already report expiry — it must still launch exactly the one
//! mandatory start (so the sweep always returns a real partition) and
//! close its bracket. A [`Starts::Count`] sweep under the same expired
//! deadline opens no bracket at all, which is what keeps the golden
//! traces of fixed-count sweeps free of start events.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::{Duration, Instant};

use hypart_benchgen::mcnc_like;
use hypart_core::{BalanceConstraint, FaultPlan, RunCtx};
use hypart_hypergraph::Hypergraph;
use hypart_ml::{
    multi_start_with, MlConfig, MlPartitioner, MultiStartOutcome, MultiStartPlan, Starts,
};
use hypart_trace::{MemorySink, RunEvent, StopReason};

fn golden() -> Hypergraph {
    mcnc_like(160, 0xB0B)
}

fn constraint(h: &Hypergraph) -> BalanceConstraint {
    BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10)
}

/// A default-config sweep until the context's budget runs out.
fn budgeted(h: &Hypergraph, ctx: &mut RunCtx<'_>) -> MultiStartOutcome {
    let ml = MlPartitioner::new(MlConfig::default());
    let plan = MultiStartPlan::until_budget();
    multi_start_with(&ml, h, &constraint(h), &plan, ctx).expect("a start survives")
}

/// Asserts the bracket-pairing contract over a full event stream and
/// returns `(starts_opened, ends, aborts)`.
///
/// `BudgetExhausted` appears at two levels: *inside* a bracket it is
/// the engine reporting its own stop (allowed anywhere), *outside* a
/// bracket it is the sweep's launch-gate terminator — nothing may
/// follow it. A sweep whose last start was itself truncated ends on
/// that start's `StartEnd { completed: false }` instead, with no
/// separate terminator.
fn check_brackets(events: &[RunEvent]) -> (usize, usize, usize) {
    let mut open: Option<u64> = None;
    let mut opened = 0usize;
    let mut ends = 0usize;
    let mut aborts = 0usize;
    let mut terminated = false;
    for (i, ev) in events.iter().enumerate() {
        assert!(
            !terminated,
            "event {i} ({:?}) follows the sweep-level BudgetExhausted terminator",
            ev.kind()
        );
        match ev {
            RunEvent::StartBegin { index, .. } => {
                assert!(
                    open.is_none(),
                    "StartBegin {index} opened while start {open:?} is still open"
                );
                open = Some(*index);
                opened += 1;
            }
            RunEvent::StartEnd { index, .. } => {
                assert_eq!(open, Some(*index), "StartEnd closes the wrong bracket");
                open = None;
                ends += 1;
            }
            RunEvent::StartAborted { index, .. } => {
                assert_eq!(open, Some(*index), "StartAborted closes the wrong bracket");
                open = None;
                aborts += 1;
            }
            RunEvent::BudgetExhausted { .. } if open.is_none() => terminated = true,
            _ => {}
        }
    }
    assert!(open.is_none(), "stream ends with an unclosed StartBegin");
    assert_eq!(opened, ends + aborts, "every bracket must be closed");
    (opened, ends, aborts)
}

/// The regression case: a deadline already in the past when the sweep
/// enters. The mandatory first start still runs, and its own truncation
/// ends the sweep. Under `UntilBudget` its bracket is closed, not
/// dangling. Under a start count no bracket opens and the sweep adds no
/// event at all: the stream is that of the lone truncated start, whose
/// engine layers announce their own stops. That rule keeps the golden
/// traces of fixed-count sweeps free of start events.
#[test]
fn expired_budget_runs_exactly_the_mandatory_start() {
    let h = golden();
    let ml = MlPartitioner::new(MlConfig::default());
    let expired = Instant::now() - Duration::from_millis(5);
    let lone = MemorySink::new();
    ml.run_with(
        &h,
        &constraint(&h),
        &mut RunCtx::new(7).with_sink(&lone).with_deadline(expired),
    );

    for plan in [MultiStartPlan::until_budget(), MultiStartPlan::count(4, 2)] {
        let sink = MemorySink::new();
        let mut ctx = RunCtx::new(7).with_sink(&sink).with_deadline(expired);
        let out = multi_start_with(&ml, &h, &constraint(&h), &plan, &mut ctx).unwrap();
        assert_eq!(out.trials.len(), 1, "exactly the mandatory start runs");
        assert_eq!(out.outcome.stopped, StopReason::Deadline);
        assert_eq!(out.vcycles_applied, 0);
        assert_eq!(
            out.outcome.assignment.len(),
            h.num_vertices(),
            "still a real partition"
        );

        let events = sink.events();
        if plan.starts == Starts::UntilBudget {
            assert_eq!(check_brackets(&events), (1, 1, 0));
            assert!(
                matches!(
                    events.last(),
                    Some(RunEvent::StartEnd {
                        completed: false,
                        ..
                    })
                ),
                "stream must end on the truncated mandatory start's StartEnd, got {:?}",
                events.last().map(RunEvent::kind)
            );
        } else {
            assert_eq!(events, lone.events(), "the sweep adds no event of its own");
        }
    }
}

/// Same entry conditions through the hierarchy-reuse driver (the
/// service's cache-hit path): identical bracket contract.
#[test]
fn expired_budget_from_hierarchy_pairs_brackets_too() {
    let h = golden();
    let ml = MlPartitioner::new(MlConfig::default());
    let hierarchy = ml.coarsen_hierarchy_with(&h, &mut RunCtx::new(7));

    let sink = MemorySink::new();
    let mut ctx = RunCtx::new(7)
        .with_sink(&sink)
        .with_deadline(Instant::now() - Duration::from_millis(5));
    let plan = MultiStartPlan {
        hierarchy: Some(&hierarchy),
        ..MultiStartPlan::until_budget()
    };
    let out = multi_start_with(&ml, &h, &constraint(&h), &plan, &mut ctx)
        .unwrap()
        .outcome;

    let (opened, ends, aborts) = check_brackets(&sink.events());
    assert_eq!((opened, ends, aborts), (1, 1, 0));
    assert_eq!(out.stopped, StopReason::Deadline);
    assert_eq!(out.assignment.len(), h.num_vertices());
}

/// A tiny-but-positive budget: however many starts fit, the brackets
/// pair and the terminator is last.
#[test]
fn tiny_budget_keeps_brackets_paired() {
    let h = golden();
    let sink = MemorySink::new();
    let mut ctx = RunCtx::new(11)
        .with_sink(&sink)
        .with_budget(Duration::from_millis(15));
    let out = budgeted(&h, &mut ctx);

    let (opened, ends, aborts) = check_brackets(&sink.events());
    assert!(opened >= 1);
    assert_eq!(opened, ends + aborts);
    assert_eq!(out.outcome.stopped, StopReason::Deadline);
}

/// A cancelled token observed at entry: the mandatory start still runs,
/// the terminator reports `Cancelled`.
#[test]
fn pre_cancelled_sweep_still_brackets_the_mandatory_start() {
    let h = golden();
    let sink = MemorySink::new();
    let mut ctx = RunCtx::new(3)
        .with_sink(&sink)
        .with_budget(Duration::from_secs(3600));
    ctx.cancel_token().cancel();
    let out = budgeted(&h, &mut ctx);

    let (opened, ends, _) = check_brackets(&sink.events());
    assert_eq!(opened, 1);
    assert_eq!(ends, 1);
    assert_eq!(out.outcome.stopped, StopReason::Cancelled);
}

/// An injected panic in a mid-sweep start closes its bracket with
/// `StartAborted` and the sweep continues on the survivors.
#[test]
fn injected_panic_closes_bracket_with_start_aborted() {
    let h = golden();
    let sink = MemorySink::new();
    let mut ctx = RunCtx::new(5)
        .with_sink(&sink)
        .with_budget(Duration::from_millis(200))
        .with_fault_plan(FaultPlan::panic_in_start(1));
    let out = budgeted(&h, &mut ctx);

    let events = sink.events();
    let (opened, ends, aborts) = check_brackets(&events);
    assert_eq!(opened, ends + aborts);
    // The sweep may stop before start 1 on a very slow machine; when the
    // injected start did launch, its bracket must be the aborted one.
    if opened >= 2 {
        assert_eq!(
            aborts, 1,
            "the injected panic start closes via StartAborted"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, RunEvent::StartAborted { index: 1, .. })));
    }
    assert_eq!(out.outcome.assignment.len(), h.num_vertices());
}
