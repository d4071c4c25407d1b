//! The one seeded start loop and the one 2-way result. The paper's §3
//! judges a heuristic by independent seeded starts; [`sweep_with`] runs
//! them for the trial runner, the multilevel multi-start driver and the
//! CLI's flat `--starts`, so the seed schedule, the launch gate, the
//! panic boundary, the per-start record and the best-of rule each exist
//! once. Every 2-way engine call returns an [`Outcome`], and so does a
//! sweep.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use hypart_hypergraph::PartId;
use hypart_trace::{RunEvent, StopReason};

use crate::audit::AuditError;
use crate::balance::BalanceConstraint;
use crate::bisection::Bisection;
use crate::ctx::RunCtx;
use crate::workspace::FmWorkspace;

/// The result of one 2-way engine call — a flat FM run, a multilevel
/// start or V-cycle, a baseline — or of a whole sweep of them. Per-pass
/// and per-level numbers are not kept here: they are the run's
/// [`RunEvent`]s, read from a trace sink.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Final assignment on the input hypergraph (index = vertex id).
    pub assignment: Vec<PartId>,
    /// Final weighted cut.
    pub cut: u64,
    /// `true` if the final solution satisfies the balance constraint.
    pub balanced: bool,
    /// Why the run ended: [`StopReason::Completed`] unless the context's
    /// budget ran out or its token was cancelled. A stopped run still
    /// returns a legal, full-size partition.
    pub stopped: StopReason,
    /// First invariant violation the [`crate::PartitionAuditor`] found,
    /// when auditing is on in the context. Always `None` with auditing
    /// off.
    pub audit_failure: Option<AuditError>,
}

impl Outcome {
    /// The outcome `bisection` describes under `constraint`.
    pub fn new(
        bisection: Bisection<'_>,
        constraint: &BalanceConstraint,
        stopped: StopReason,
        audit_failure: Option<AuditError>,
    ) -> Self {
        Outcome {
            cut: bisection.cut(),
            balanced: constraint.is_satisfied(&bisection),
            stopped,
            audit_failure,
            assignment: bisection.into_assignment(),
        }
    }
}

/// The record of one start (one trial) of a seeded sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trial {
    /// Seed of the start.
    pub seed: u64,
    /// Weighted cut achieved.
    pub cut: u64,
    /// `true` if the solution satisfied the balance constraint.
    pub balanced: bool,
    /// Why the start ended: ran to convergence, or was cut short by the
    /// context's deadline / cancellation token.
    pub stopped: StopReason,
    /// Wall-clock duration of the start.
    pub elapsed: Duration,
}

impl Trial {
    /// Whether this start displaces `best` as the reported best of a
    /// sweep. A start the budget truncated never displaces a completed
    /// one, then balanced beats unbalanced, then the lower cut wins; a
    /// tie keeps `best`, the earlier seed. The reported best is thus a
    /// pure function of the set of seeds that completed.
    pub fn displaces(&self, best: &Trial) -> bool {
        let rank = |t: &Trial| (t.stopped.is_stopped(), !t.balanced, t.cut);
        rank(self) < rank(best)
    }
}

/// A start that panicked and was isolated by [`sweep_with`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanickedStart {
    /// Zero-based index of the start in seed order.
    pub index: u64,
    /// Best-effort text of the panic payload.
    pub payload: String,
}

/// What a sweep in which every start panicked reports in place of a
/// partition: its [`PanickedStart`]s, in seed order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllPanicked(pub Vec<PanickedStart>);

impl fmt::Display for AllPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let payload = self.0.first().map_or("unknown", |p| p.payload.as_str());
        write!(f, "every start panicked; first payload: {payload}")
    }
}

/// What [`sweep_with`] returns.
#[derive(Debug)]
pub struct Sweep {
    /// One record per start that returned, in seed order.
    pub trials: Vec<Trial>,
    /// The starts that panicked, in seed order. They leave no record in
    /// [`trials`](Self::trials).
    pub panicked: Vec<PanickedStart>,
    /// The sweep's result; `None` only if every start panicked. Its
    /// partition is the best returned start's under
    /// [`Trial::displaces`]. Its `stopped` is
    /// [`StopReason::Completed`] if the sweep ran every start it was
    /// asked for, and otherwise why it ended early: the launch gate found
    /// the budget gone, or a start was truncated. Its `audit_failure` is
    /// the first any start found, in seed order.
    pub outcome: Option<Outcome>,
}

/// Runs up to `starts` seeded starts under one context (`u64::MAX`:
/// until the budget or the cancellation token stops the sweep).
///
/// Start `i` runs with `ctx.seed = base + i`; `base` is restored on
/// return. Before every start but the first, the launch gate polls the
/// budget; once it has run out the sweep emits
/// [`RunEvent::BudgetExhausted`] and ends. `begin(i, ctx)` runs outside
/// the panic boundary, so a bracket it opens is always closed. Inside
/// the boundary the fault plan may trip, then `start(i, ctx)` returns
/// the start's [`Outcome`]; the loop times the boundary and records the
/// start's [`Trial`]. A panic replaces the workspaces the start may have
/// left mid-pass, emits [`RunEvent::StartAborted`] and is recorded as a
/// [`PanickedStart`]. A start the budget truncated ends the sweep.
pub fn sweep_with<'s>(
    ctx: &mut RunCtx<'s>,
    starts: u64,
    mut begin: impl FnMut(u64, &mut RunCtx<'s>),
    mut start: impl FnMut(u64, &mut RunCtx<'s>) -> Outcome,
) -> Sweep {
    let base_seed = ctx.seed;
    let fault = ctx.fault_plan().clone();
    let mut probe = ctx.probe();
    let mut sweep = Sweep {
        trials: Vec::new(),
        panicked: Vec::new(),
        outcome: None,
    };
    let mut best: Option<Trial> = None;
    let mut stopped = StopReason::Completed;
    let mut audit_failure = None;
    for i in 0..starts {
        if i > 0 {
            if let Some(reason) = probe.stop_now() {
                ctx.sink.emit(RunEvent::BudgetExhausted { reason });
                stopped = reason;
                break;
            }
        }
        let seed = base_seed.wrapping_add(i);
        ctx.seed = seed;
        begin(i, ctx);
        let t = Instant::now();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            fault.trip_start(i);
            start(i, ctx)
        }));
        let mut out = match attempt {
            Ok(out) => out,
            Err(payload) => {
                // The start may have unwound mid-pass, leaving its
                // workspace in an unknown state.
                ctx.workspace = FmWorkspace::new();
                ctx.sink.emit(RunEvent::StartAborted { index: i, seed });
                sweep.panicked.push(PanickedStart {
                    index: i,
                    payload: payload_text(payload.as_ref()),
                });
                continue;
            }
        };
        let trial = Trial {
            seed,
            cut: out.cut,
            balanced: out.balanced,
            stopped: out.stopped,
            elapsed: t.elapsed(),
        };
        sweep.trials.push(trial);
        if audit_failure.is_none() {
            audit_failure = out.audit_failure.take();
        }
        if best.is_none_or(|b| trial.displaces(&b)) {
            best = Some(trial);
            sweep.outcome = Some(out);
        }
        if trial.stopped.is_stopped() {
            stopped = trial.stopped;
            break;
        }
    }
    ctx.seed = base_seed;
    if let Some(out) = &mut sweep.outcome {
        out.stopped = stopped;
        out.audit_failure = audit_failure;
    }
    sweep
}

/// Renders a caught panic payload as best-effort text.
fn payload_text(payload: &(dyn Any + Send)) -> String {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    let text = text.or_else(|| payload.downcast_ref::<&str>().copied());
    text.unwrap_or("non-string panic payload").to_string()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::audit::FaultPlan;
    use hypart_trace::MemorySink;

    /// A start whose cut is a fixed function of its seed.
    fn scored(ctx: &mut RunCtx<'_>) -> Outcome {
        Outcome {
            assignment: Vec::new(),
            cut: ctx.seed.wrapping_mul(7919) % 97,
            balanced: true,
            stopped: StopReason::Completed,
            audit_failure: None,
        }
    }

    #[test]
    fn starts_run_in_seed_order_and_the_seed_is_restored() {
        let mut ctx = RunCtx::new(40);
        let mut begun = Vec::new();
        let sweep = sweep_with(
            &mut ctx,
            4,
            |i, ctx| begun.push((i, ctx.seed)),
            |_, ctx| scored(ctx),
        );
        assert_eq!(begun, [(0, 40), (1, 41), (2, 42), (3, 43)]);
        let seeds: Vec<u64> = sweep.trials.iter().map(|t| t.seed).collect();
        assert_eq!(seeds, [40, 41, 42, 43]);
        let best = sweep.trials.iter().map(|t| t.cut).min();
        let out = sweep.outcome.unwrap();
        assert_eq!(Some(out.cut), best);
        assert_eq!(out.stopped, StopReason::Completed);
        assert_eq!(ctx.seed, 40);
    }

    #[test]
    fn no_start_opens_after_the_gate_stops_the_sweep() {
        let sink = MemorySink::new();
        let expired = Instant::now() - Duration::from_millis(1);
        let mut ctx = RunCtx::new(0).with_sink(&sink).with_deadline(expired);
        let begin =
            |index, ctx: &mut RunCtx<'_>| ctx.sink.emit(RunEvent::StartBegin { index, seed: 0 });
        let sweep = sweep_with(&mut ctx, u64::MAX, begin, |_, ctx| scored(ctx));
        // The first start always runs; the gate ends the sweep before the
        // second, and nothing follows its terminator.
        assert_eq!(sweep.trials.len(), 1);
        assert_eq!(sweep.outcome.unwrap().stopped, StopReason::Deadline);
        let reason = StopReason::Deadline;
        let events = [
            RunEvent::StartBegin { index: 0, seed: 0 },
            RunEvent::BudgetExhausted { reason },
        ];
        assert_eq!(sink.take(), events);
    }

    #[test]
    fn panicked_start_is_isolated_and_the_survivors_are_the_fault_free_starts() {
        let clean = sweep_with(&mut RunCtx::new(5), 6, |_, _| {}, |_, ctx| scored(ctx));
        let sink = MemorySink::new();
        let plan = FaultPlan::panic_in_start(2);
        let mut ctx = RunCtx::new(5).with_sink(&sink).with_fault_plan(plan);
        let mut begun = Vec::new();
        let sweep = sweep_with(&mut ctx, 6, |i, _| begun.push(i), |_, ctx| scored(ctx));
        // `begin` runs outside the boundary, so the panicked start opened too.
        assert_eq!(begun, [0, 1, 2, 3, 4, 5]);
        let payload = "injected fault: panic in start 2".to_string();
        assert_eq!(sweep.panicked, [PanickedStart { index: 2, payload }]);
        assert_eq!(sink.take(), [RunEvent::StartAborted { index: 2, seed: 7 }]);
        let cuts = |trials: &[Trial]| trials.iter().map(|t| (t.seed, t.cut)).collect::<Vec<_>>();
        let mut expect = cuts(&clean.trials);
        expect.remove(2);
        assert_eq!(cuts(&sweep.trials), expect);
        assert_eq!(sweep.outcome.unwrap().cut, clean.outcome.unwrap().cut);
        assert_eq!(ctx.seed, 5);
    }

    #[test]
    fn best_of_rule_orders_completion_then_balance_then_cut() {
        use StopReason::{Completed, Deadline};
        let t = |cut, balanced, stopped| Trial {
            seed: 0,
            cut,
            balanced,
            stopped,
            elapsed: Duration::ZERO,
        };
        // A truncated start never displaces a completed one, however low
        // its cut, and a completed one always displaces a truncated one.
        assert!(!t(1, true, Deadline).displaces(&t(50, false, Completed)));
        assert!(t(50, false, Completed).displaces(&t(1, true, Deadline)));
        // Balanced beats unbalanced, however high its cut.
        assert!(t(50, true, Completed).displaces(&t(1, false, Completed)));
        assert!(!t(1, false, Completed).displaces(&t(50, true, Completed)));
        // Then the lower cut wins, and a tie keeps the earlier seed.
        assert!(t(9, true, Completed).displaces(&t(10, true, Completed)));
        assert!(!t(10, true, Completed).displaces(&t(10, true, Completed)));
    }
}
