//! Multi-start driver with V-cycling of the best result — the hMetis-1.5
//! evaluation subject of the paper's Tables 4–5.
//!
//! "We run hMetis-1.5 using number of starts equal to 1, 2, 4, 8, 16 and
//! 100 […] hMetis-1.5 will V-cycle the best result among these starts."
//! [`multi_start_with`] reproduces that protocol under
//! [`Starts::Count`]: `nruns` independent seeded multilevel starts, then
//! repeated V-cycles on the best until a cycle stops improving.
//!
//! For the paper's §3 quality–runtime methodology the same loop runs
//! under [`Starts::UntilBudget`]: instead of a fixed start count it keeps
//! launching starts until the wall-clock budget of its [`RunCtx`] runs
//! out, reporting the best among the fully completed starts — real
//! deadlines instead of post-hoc trial truncation.
//!
//! Both protocols run on [`hypart_core::sweep_with`], the one seeded
//! start loop: it owns the seed schedule, the launch gate, the panic
//! boundary, the per-start record and the best-of rule
//! ([`Trial::displaces`]), so a crash in start *i* never perturbs what
//! the other starts report. This module adds the `StartBegin`/`StartEnd`
//! brackets, the hierarchy path and the V-cycle tail.

use crate::partitioner::MlPartitioner;
use hypart_core::{
    sweep_with, AllPanicked, BalanceConstraint, Hierarchy, Outcome, PanickedStart, RunCtx, Trial,
};
use hypart_hypergraph::Hypergraph;
use hypart_trace::RunEvent;

/// Result of a multi-start + V-cycle run.
#[derive(Clone, Debug)]
pub struct MultiStartOutcome {
    /// The best partition after V-cycling. Its `stopped` is
    /// [`Completed`](hypart_core::StopReason::Completed) if every start
    /// and V-cycle ran to convergence, and otherwise why the sweep was
    /// cut short; a truncated start never displaces a fully completed
    /// one as the reported best. Its `audit_failure` is the first found
    /// across all starts (seed order) and V-cycles.
    pub outcome: Outcome,
    /// One record per start that returned, in seed order (before
    /// V-cycling).
    pub trials: Vec<Trial>,
    /// The starts that panicked and were isolated, in seed order. They
    /// leave no record in [`trials`](Self::trials).
    pub panicked: Vec<PanickedStart>,
    /// Number of V-cycles applied to the best start.
    pub vcycles_applied: usize,
}

/// How many starts a multi-start sweep launches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Starts {
    /// Exactly this many starts (at least one), then the V-cycle tail —
    /// the hMetis-1.5 protocol of the paper's Tables 4–5.
    Count(usize),
    /// Starts until the context's deadline or cancellation token stops
    /// the sweep — the §3 "quality at time τ" protocol. The context must
    /// carry a budget or a token that is eventually cancelled.
    UntilBudget,
}

/// What one multi-start sweep runs: the stopping rule, the V-cycle
/// allowance, and an optional pre-built coarsening hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct MultiStartPlan<'h> {
    /// How many starts to launch.
    pub starts: Starts,
    /// Upper bound on the V-cycles applied to the best start. The tail
    /// runs only after a sweep that was not stopped, so it never runs
    /// under [`Starts::UntilBudget`].
    pub max_vcycles: usize,
    /// A coarsening hierarchy every start reuses via
    /// [`run_from_hierarchy_with`](MlPartitioner::run_from_hierarchy_with),
    /// so a start costs initial partitioning and refinement only. `None`
    /// coarsens afresh per start.
    pub hierarchy: Option<&'h Hierarchy>,
}

impl MultiStartPlan<'_> {
    /// `nruns` starts, then at most `max_vcycles` V-cycles of the best.
    pub fn count(nruns: usize, max_vcycles: usize) -> Self {
        MultiStartPlan {
            starts: Starts::Count(nruns),
            max_vcycles,
            hierarchy: None,
        }
    }

    /// Starts until the context's budget runs out; no V-cycles.
    pub fn until_budget() -> Self {
        MultiStartPlan {
            starts: Starts::UntilBudget,
            max_vcycles: 0,
            hierarchy: None,
        }
    }
}

/// The multi-start driver: independent starts with seeds `ctx.seed`,
/// `ctx.seed + 1`, …, as many as `plan.starts` allows, then V-cycles of
/// the best result until a cycle stops improving (at most
/// `plan.max_vcycles`), all under the context's sink, workspaces and
/// budget. One set of workspaces serves the whole sweep.
///
/// The first start always runs, so the outcome is well-formed even with
/// an expired deadline: the engines then return a legal, merely
/// unrefined solution. Before every later start the launch gate consults
/// the budget; once it reports a stop the sweep emits
/// [`RunEvent::BudgetExhausted`] and ends. A start the budget truncated
/// also ends the sweep, and a stopped sweep skips the V-cycle tail.
///
/// # Start brackets
///
/// Under [`Starts::UntilBudget`] every start is bracketed, so
/// best-so-far-vs-time reports can be rebuilt from the trace alone:
/// [`RunEvent::StartBegin`] is closed by exactly one
/// [`RunEvent::StartEnd`] (carrying the start's cut and whether it
/// completed) or [`RunEvent::StartAborted`] (the start panicked). The
/// launch gate sits immediately before the bracket opens, so an expired
/// budget never opens a `StartBegin` it cannot close, and no start event
/// follows the gate's `BudgetExhausted`. A [`Starts::Count`] sweep opens
/// no brackets: its stream is the starts' own events in seed order, a
/// `StartAborted` per panicked start, the gate's `BudgetExhausted` if
/// the budget stops it, and `VcycleBegin`/`VcycleEnd` around each
/// V-cycle.
///
/// # Errors
///
/// [`AllPanicked`] if every start panicked: there is no partition to
/// report.
///
/// # Panics
///
/// Panics if the plan asks for `Starts::Count(0)`.
pub fn multi_start_with(
    partitioner: &MlPartitioner,
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    plan: &MultiStartPlan<'_>,
    ctx: &mut RunCtx<'_>,
) -> Result<MultiStartOutcome, AllPanicked> {
    let (limit, bracketed) = match plan.starts {
        Starts::Count(nruns) => {
            assert!(nruns >= 1, "multi_start needs at least one run");
            (nruns as u64, false)
        }
        Starts::UntilBudget => (u64::MAX, true),
    };
    let sweep = sweep_with(
        ctx,
        limit,
        |index, ctx| {
            if bracketed {
                ctx.sink.emit(RunEvent::StartBegin {
                    index,
                    seed: ctx.seed,
                });
            }
        },
        |index, ctx| {
            let out = match plan.hierarchy {
                Some(hierarchy) => {
                    partitioner.run_from_hierarchy_with(h, hierarchy, constraint, ctx)
                }
                None => partitioner.run_with(h, constraint, ctx),
            };
            if bracketed {
                ctx.sink.emit(RunEvent::StartEnd {
                    index,
                    seed: ctx.seed,
                    cut: out.cut,
                    completed: !out.stopped.is_stopped(),
                });
            }
            out
        },
    );
    let Some(mut best) = sweep.outcome else {
        return Err(AllPanicked(sweep.panicked));
    };
    let mut stopped = best.stopped;
    let mut audit_failure = best.audit_failure.take();

    // V-cycle the best until a cycle stops improving or the budget runs
    // out. The seeds are offset from the start seeds so a cycle never
    // replays a start.
    let base_seed = ctx.seed;
    let mut probe = ctx.probe();
    let mut vcycles_applied = 0usize;
    if !stopped.is_stopped() {
        for i in 0..plan.max_vcycles {
            if let Some(reason) = probe.stop_now() {
                stopped = reason;
                ctx.sink.emit(RunEvent::BudgetExhausted { reason });
                break;
            }
            if ctx.sink.is_enabled() {
                ctx.sink.emit(RunEvent::VcycleBegin {
                    index: i,
                    cut: best.cut,
                });
            }
            ctx.seed = base_seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let mut cycled = partitioner.vcycle_with(h, constraint, &best.assignment, ctx);
            vcycles_applied += 1;
            if audit_failure.is_none() {
                audit_failure = cycled.audit_failure.take();
            }
            if ctx.sink.is_enabled() {
                ctx.sink.emit(RunEvent::VcycleEnd {
                    index: i,
                    cut: cycled.cut,
                });
            }
            let cycle_stop = cycled.stopped;
            let improved = cycled.cut < best.cut;
            if improved {
                best = cycled;
            }
            if cycle_stop.is_stopped() {
                stopped = cycle_stop;
                break;
            }
            if !improved {
                break;
            }
        }
        ctx.seed = base_seed;
    }

    best.stopped = stopped;
    best.audit_failure = audit_failure;
    Ok(MultiStartOutcome {
        outcome: best,
        trials: sweep.trials,
        panicked: sweep.panicked,
        vcycles_applied,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::partitioner::MlConfig;
    use hypart_benchgen::mcnc_like;
    use hypart_core::{FaultPlan, StopReason};
    use hypart_trace::MemorySink;
    use std::time::Duration;

    /// An unbudgeted `nruns`-start sweep from `seed`.
    fn sweep(
        ml: &MlPartitioner,
        h: &Hypergraph,
        c: &BalanceConstraint,
        nruns: usize,
        seed: u64,
        max_vcycles: usize,
    ) -> MultiStartOutcome {
        let plan = MultiStartPlan::count(nruns, max_vcycles);
        multi_start_with(ml, h, c, &plan, &mut RunCtx::new(seed)).unwrap()
    }

    #[test]
    fn more_starts_never_hurt_best_cut() {
        let h = mcnc_like(400, 2);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let one = sweep(&ml, &h, &c, 1, 100, 0);
        let four = sweep(&ml, &h, &c, 4, 100, 0);
        let best_start_cut = |out: &MultiStartOutcome| out.trials.iter().map(|t| t.cut).min();
        assert!(best_start_cut(&four) <= best_start_cut(&one));
        assert_eq!(four.trials.len(), 4);
        assert_eq!(four.outcome.stopped, StopReason::Completed);
    }

    #[test]
    fn vcycling_improves_or_keeps() {
        let h = mcnc_like(500, 4);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let no_vc = sweep(&ml, &h, &c, 2, 7, 0);
        let vc = sweep(&ml, &h, &c, 2, 7, 3);
        assert!(vc.outcome.cut <= no_vc.outcome.cut);
        assert!(vc.vcycles_applied >= 1);
        assert_eq!(no_vc.vcycles_applied, 0);
    }

    #[test]
    fn records_each_start() {
        let h = mcnc_like(200, 1);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let out = sweep(&ml, &h, &c, 2, 0, 1);
        let seeds: Vec<u64> = out.trials.iter().map(|t| t.seed).collect();
        assert_eq!(seeds, vec![0, 1]);
        assert!(out.trials.iter().all(|t| t.elapsed > Duration::ZERO));
    }

    #[test]
    fn multilevel_trace_has_level_transitions() {
        let h = mcnc_like(500, 2);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let sink = MemorySink::new();
        ml.run_with(&h, &c, &mut RunCtx::new(4).with_sink(&sink));
        let events = sink.take();
        let downs: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::LevelDown { level, .. } => Some(*level),
                _ => None,
            })
            .collect();
        let ups: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::LevelUp { level, .. } => Some(*level),
                _ => None,
            })
            .collect();
        // Coarsening announces levels 1, 2, …; uncoarsening refines at
        // every level, coarsest first, down to the input graph (level 0).
        assert!(!downs.is_empty());
        assert_eq!(downs, (1..=downs.len()).collect::<Vec<_>>());
        let expect: Vec<usize> = (0..=downs.len()).rev().collect();
        assert_eq!(ups, expect);
        // V-cycle brackets only appear in the multi-start driver.
        assert!(!events
            .iter()
            .any(|e| matches!(e, RunEvent::VcycleBegin { .. })));
    }

    #[test]
    fn vcycle_events_bracket_each_cycle() {
        let h = mcnc_like(400, 5);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let sink = MemorySink::new();
        let plan = MultiStartPlan::count(2, 3);
        let mut ctx = RunCtx::new(7).with_sink(&sink);
        let out = multi_start_with(&ml, &h, &c, &plan, &mut ctx).unwrap();
        let events = sink.take();
        let begins = events
            .iter()
            .filter(|e| matches!(e, RunEvent::VcycleBegin { .. }))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e, RunEvent::VcycleEnd { .. }))
            .count();
        assert_eq!(begins, out.vcycles_applied);
        assert_eq!(ends, out.vcycles_applied);
        assert!(begins >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        let h = mcnc_like(100, 1);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let _ = sweep(&ml, &h, &c, 0, 0, 0);
    }

    #[test]
    fn panicked_start_is_isolated() {
        let h = mcnc_like(300, 8);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());

        // Fault-free reference sweep: 16 starts, no V-cycling.
        let clean = sweep(&ml, &h, &c, 16, 5, 0);
        assert!(clean.panicked.is_empty());
        assert_eq!(clean.trials.len(), 16);

        // Same sweep with an injected panic in start 3.
        let sink = MemorySink::new();
        let mut ctx = RunCtx::new(5)
            .with_sink(&sink)
            .with_fault_plan(FaultPlan::panic_in_start(3));
        let out = multi_start_with(&ml, &h, &c, &MultiStartPlan::count(16, 0), &mut ctx).unwrap();

        // The run completes with exactly one isolated start...
        assert_eq!(out.trials.len(), 15);
        assert_eq!(out.panicked.len(), 1);
        assert!(matches!(
            &out.panicked[0],
            PanickedStart { index: 3, payload } if payload.contains("injected fault")
        ));
        // ...announced by exactly one StartAborted event at its seed.
        let aborted: Vec<RunEvent> = sink
            .take()
            .into_iter()
            .filter(|e| matches!(e, RunEvent::StartAborted { .. }))
            .collect();
        assert_eq!(aborted, vec![RunEvent::StartAborted { index: 3, seed: 8 }]);
        // The 15 survivors are bitwise the fault-free starts minus #3:
        // isolation never perturbs the other seeds, even though every
        // later start runs on the workspaces that replaced the unwound
        // ones.
        let expect: Vec<u64> = clean
            .trials
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, s)| s.cut)
            .collect();
        let got: Vec<u64> = out.trials.iter().map(|s| s.cut).collect();
        assert_eq!(got, expect);
        assert_eq!(out.outcome.cut, expect.iter().copied().min().unwrap());
    }

    /// A sweep without survivors returns its panicked starts, and their
    /// diagnostic names the first payload.
    #[test]
    fn all_panicked_starts_give_a_clear_diagnostic() {
        let h = mcnc_like(100, 1);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let mut ctx = RunCtx::new(0).with_fault_plan(FaultPlan::panic_in_start(0));
        let plan = MultiStartPlan::count(1, 2);
        let Err(all) = multi_start_with(&ml, &h, &c, &plan, &mut ctx) else {
            panic!("a sweep without survivors has no outcome");
        };
        let payload = "injected fault: panic in start 0".to_string();
        assert_eq!(all.0, [PanickedStart { index: 0, payload }]);
        let message = all.to_string();
        assert!(message.starts_with("every start panicked"), "{message}");
        assert!(message.contains("injected fault"), "{message}");
    }
}
