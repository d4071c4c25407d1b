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
//! Every start runs inside a panic boundary: a start that panics is
//! isolated, recorded as [`StartOutcome::Panicked`] and announced with
//! [`RunEvent::StartAborted`], and the sweep returns the best of the
//! surviving starts. The reported best stays a pure function of the set
//! of seeds that completed, so a crash in start *i* never perturbs what
//! the other starts report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::partitioner::{MlOutcome, MlPartitioner};
use hypart_core::{
    AuditError, BalanceConstraint, CoarsenWorkspace, FmWorkspace, Hierarchy, NLevelWorkspace,
    RunCtx, StopReason,
};
use hypart_hypergraph::{Hypergraph, PartId};
use hypart_trace::RunEvent;

/// Record of one independent start inside a multi-start run.
#[derive(Clone, Debug)]
pub struct StartRecord {
    /// Seed used for the start.
    pub seed: u64,
    /// Cut the start achieved.
    pub cut: u64,
    /// Whether the start ran to convergence or was truncated by the
    /// context's budget.
    pub stopped: StopReason,
    /// Wall-clock time of the start.
    pub elapsed: Duration,
}

/// Disposition of one start of a multi-start sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StartOutcome {
    /// The start ran to natural convergence.
    Completed,
    /// The start was truncated by the context's budget. Its (legal,
    /// partially refined) result still participates as a placeholder but
    /// never displaces a completed start.
    Truncated(StopReason),
    /// The start panicked. The panic was caught at the start boundary,
    /// recorded here, announced with [`RunEvent::StartAborted`] — and the
    /// start contributes nothing to the reported best.
    Panicked {
        /// Zero-based index of the start in seed order.
        start: usize,
        /// Best-effort text of the panic payload.
        payload: String,
    },
}

/// Per-start dispositions of a multi-start sweep, in seed order. One
/// entry per *attempted* start: a sweep that runs out of budget records
/// only the starts it launched.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiStartStats {
    /// One disposition per attempted start, in seed order.
    pub outcomes: Vec<StartOutcome>,
}

impl MultiStartStats {
    /// Number of starts that ran to convergence.
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, StartOutcome::Completed))
            .count()
    }

    /// Number of starts truncated by the budget.
    pub fn truncated(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, StartOutcome::Truncated(_)))
            .count()
    }

    /// Number of starts that panicked and were isolated.
    pub fn panicked(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, StartOutcome::Panicked { .. }))
            .count()
    }

    fn push(&mut self, stopped: StopReason) {
        self.outcomes.push(if stopped.is_stopped() {
            StartOutcome::Truncated(stopped)
        } else {
            StartOutcome::Completed
        });
    }

    fn push_panicked(&mut self, start: usize, payload: String) {
        self.outcomes
            .push(StartOutcome::Panicked { start, payload });
    }
}

/// Result of a multi-start + V-cycle run.
#[derive(Clone, Debug)]
pub struct MultiStartOutcome {
    /// Best assignment after V-cycling.
    pub assignment: Vec<PartId>,
    /// Best cut after V-cycling.
    pub cut: u64,
    /// `true` if the final solution is balanced.
    pub balanced: bool,
    /// Per-start records, in seed order (before V-cycling).
    pub starts: Vec<StartRecord>,
    /// Number of V-cycles applied to the best start.
    pub vcycles_applied: usize,
    /// [`StopReason::Completed`] if every start and V-cycle ran to
    /// convergence; otherwise why the sweep was cut short. A truncated
    /// start never displaces a fully completed one as the reported best.
    pub stopped: StopReason,
    /// Total wall-clock time including V-cycling.
    pub total_elapsed: Duration,
    /// Per-start dispositions in seed order, including panicked starts
    /// (which leave no [`StartRecord`] in [`starts`](Self::starts)).
    pub stats: MultiStartStats,
    /// First invariant violation found across all starts (seed order)
    /// and V-cycles, when auditing is enabled on the context. Always
    /// `None` with auditing off.
    pub audit_failure: Option<AuditError>,
}

impl MultiStartOutcome {
    /// Best cut among the independent starts (before V-cycling).
    pub fn best_start_cut(&self) -> u64 {
        self.starts.iter().map(|s| s.cut).min().unwrap_or(0)
    }

    /// Number of starts that panicked and were isolated.
    pub fn failed_starts(&self) -> usize {
        self.stats.panicked()
    }
}

/// Renders a caught panic payload as best-effort text for reporting.
fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Unwraps the best surviving start, or — when every start panicked —
/// panics with a diagnostic naming the first recorded payload.
fn best_or_all_panicked(best: Option<MlOutcome>, stats: &MultiStartStats) -> MlOutcome {
    best.unwrap_or_else(|| {
        let payload = stats
            .outcomes
            .iter()
            .find_map(|o| match o {
                StartOutcome::Panicked { payload, .. } => Some(payload.as_str()),
                _ => None,
            })
            .unwrap_or("unknown");
        panic!("every start panicked; first payload: {payload}");
    })
}

/// Whether `out` displaces `best` as the reported solution. Balanced
/// beats unbalanced, then lower cut; a budget-truncated start never
/// displaces a completed one (and a completed one always displaces a
/// truncated placeholder), keeping the reported best a pure function of
/// the set of seeds that completed.
fn displaces(best: &MlOutcome, out: &MlOutcome) -> bool {
    if out.stopped.is_stopped() {
        return false;
    }
    if best.stopped.is_stopped() {
        return true;
    }
    (!best.balanced && out.balanced) || (best.balanced == out.balanced && out.cut < best.cut)
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
/// # Panics
///
/// Panics if the plan asks for `Starts::Count(0)`, or if every start
/// panicked.
pub fn multi_start_with(
    partitioner: &MlPartitioner,
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    plan: &MultiStartPlan<'_>,
    ctx: &mut RunCtx<'_>,
) -> MultiStartOutcome {
    let (limit, bracketed) = match plan.starts {
        Starts::Count(nruns) => {
            assert!(nruns >= 1, "multi_start needs at least one run");
            (nruns as u64, false)
        }
        Starts::UntilBudget => (u64::MAX, true),
    };
    let t0 = Instant::now();
    let base_seed = ctx.seed;
    let fault = ctx.fault_plan().clone();
    let mut probe = ctx.probe();
    let mut starts = Vec::new();
    let mut stats = MultiStartStats::default();
    let mut audit_failure: Option<AuditError> = None;
    let mut best: Option<MlOutcome> = None;
    let mut stopped = StopReason::Completed;
    for i in 0..limit {
        if i > 0 {
            if let Some(reason) = probe.stop_now() {
                stopped = reason;
                ctx.sink.emit(RunEvent::BudgetExhausted { reason });
                break;
            }
        }
        let seed = base_seed.wrapping_add(i);
        if bracketed {
            ctx.sink.emit(RunEvent::StartBegin { index: i, seed });
        }
        let t = Instant::now();
        ctx.seed = seed;
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            fault.trip_start(i);
            match plan.hierarchy {
                Some(hierarchy) => {
                    partitioner.run_from_hierarchy_with(h, hierarchy, constraint, ctx)
                }
                None => partitioner.run_with(h, constraint, ctx),
            }
        }));
        let out = match attempt {
            Ok(out) => out,
            Err(payload) => {
                // The engine may have unwound mid-pass: its workspace
                // buffers are in an unknown state, so replace them and
                // carry on with the surviving seeds.
                ctx.workspace = FmWorkspace::new();
                ctx.coarsen = CoarsenWorkspace::new();
                ctx.nlevel = NLevelWorkspace::new();
                ctx.sink.emit(RunEvent::StartAborted { index: i, seed });
                stats.push_panicked(i as usize, payload_string(payload));
                continue;
            }
        };
        if bracketed {
            ctx.sink.emit(RunEvent::StartEnd {
                index: i,
                seed,
                cut: out.cut,
                completed: !out.stopped.is_stopped(),
            });
        }
        stats.push(out.stopped);
        if audit_failure.is_none() {
            audit_failure = out.audit_failure.clone();
        }
        starts.push(StartRecord {
            seed,
            cut: out.cut,
            stopped: out.stopped,
            elapsed: t.elapsed(),
        });
        let start_stop = out.stopped;
        if best.as_ref().is_none_or(|b| displaces(b, &out)) {
            best = Some(out);
        }
        if start_stop.is_stopped() {
            stopped = start_stop;
            break;
        }
    }
    ctx.seed = base_seed;
    let mut best = best_or_all_panicked(best, &stats);

    // V-cycle the best until a cycle stops improving or the budget runs
    // out. The seeds are offset from the start seeds so a cycle never
    // replays a start.
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
            let cycled = partitioner.vcycle_with(h, constraint, &best.assignment, ctx);
            vcycles_applied += 1;
            if audit_failure.is_none() {
                audit_failure = cycled.audit_failure.clone();
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

    MultiStartOutcome {
        assignment: best.assignment,
        cut: best.cut,
        balanced: best.balanced,
        starts,
        vcycles_applied,
        stopped,
        total_elapsed: t0.elapsed(),
        stats,
        audit_failure,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::partitioner::MlConfig;
    use hypart_benchgen::mcnc_like;
    use hypart_core::FaultPlan;
    use hypart_trace::MemorySink;

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
        multi_start_with(ml, h, c, &plan, &mut RunCtx::new(seed))
    }

    #[test]
    fn more_starts_never_hurt_best_cut() {
        let h = mcnc_like(400, 2);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let one = sweep(&ml, &h, &c, 1, 100, 0);
        let four = sweep(&ml, &h, &c, 4, 100, 0);
        assert!(four.best_start_cut() <= one.best_start_cut());
        assert_eq!(four.starts.len(), 4);
        assert_eq!(four.stopped, StopReason::Completed);
    }

    #[test]
    fn vcycling_improves_or_keeps() {
        let h = mcnc_like(500, 4);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let no_vc = sweep(&ml, &h, &c, 2, 7, 0);
        let vc = sweep(&ml, &h, &c, 2, 7, 3);
        assert!(vc.cut <= no_vc.cut);
        assert!(vc.vcycles_applied >= 1);
        assert_eq!(no_vc.vcycles_applied, 0);
    }

    #[test]
    fn records_timing() {
        let h = mcnc_like(200, 1);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let out = sweep(&ml, &h, &c, 2, 0, 1);
        assert!(out.total_elapsed >= out.starts.iter().map(|s| s.elapsed).sum());
    }

    #[test]
    fn multilevel_trace_has_level_transitions() {
        let h = mcnc_like(500, 2);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let sink = MemorySink::new();
        let out = ml.run_with(&h, &c, &mut RunCtx::new(4).with_sink(&sink));
        let events = sink.take();
        let downs = events
            .iter()
            .filter(|e| matches!(e, RunEvent::LevelDown { .. }))
            .count();
        let ups: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::LevelUp { level, .. } => Some(*level),
                _ => None,
            })
            .collect();
        assert_eq!(downs, out.levels);
        // Uncoarsening refines at every level, coarsest first, down to the
        // input graph (level 0).
        let expect: Vec<usize> = (0..=out.levels).rev().collect();
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
        let out = multi_start_with(&ml, &h, &c, &plan, &mut RunCtx::new(7).with_sink(&sink));
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
        assert_eq!(clean.stats.panicked(), 0);
        assert_eq!(clean.stats.outcomes.len(), 16);

        // Same sweep with an injected panic in start 3.
        let sink = MemorySink::new();
        let mut ctx = RunCtx::new(5)
            .with_sink(&sink)
            .with_fault_plan(FaultPlan::panic_in_start(3));
        let out = multi_start_with(&ml, &h, &c, &MultiStartPlan::count(16, 0), &mut ctx);

        // The run completes with exactly one isolated start...
        assert_eq!(out.starts.len(), 15);
        assert_eq!(out.stats.outcomes.len(), 16);
        assert_eq!(out.stats.panicked(), 1);
        assert_eq!(out.failed_starts(), 1);
        assert!(matches!(
            &out.stats.outcomes[3],
            StartOutcome::Panicked { start: 3, payload } if payload.contains("injected fault")
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
            .starts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, s)| s.cut)
            .collect();
        let got: Vec<u64> = out.starts.iter().map(|s| s.cut).collect();
        assert_eq!(got, expect);
        assert_eq!(out.cut, expect.iter().copied().min().unwrap());
    }

    #[test]
    #[should_panic(expected = "every start panicked")]
    fn all_panicked_starts_give_a_clear_diagnostic() {
        let h = mcnc_like(100, 1);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let mut ctx = RunCtx::new(0).with_fault_plan(FaultPlan::panic_in_start(0));
        let _ = multi_start_with(&ml, &h, &c, &MultiStartPlan::count(1, 0), &mut ctx);
    }
}
