//! The execution context threaded through every engine entry point.
//!
//! The paper's §3 reporting methodology is built on quality–runtime
//! tradeoffs — cost-at-time-τ distributions and best-so-far curves under
//! a wall-clock budget — which requires every engine to be stoppable: told
//! "you have τ milliseconds, hand back your best-so-far when they run
//! out". [`RunCtx`] is the single vehicle for that and for every other
//! cross-cutting execution concern:
//!
//! * an optional **deadline** ([`Instant`]) or relative budget,
//! * a shared atomic **cancellation token** ([`CancelToken`]) flippable
//!   from another thread,
//! * the **trace sink** receiving [`RunEvent`](hypart_trace::RunEvent)s,
//! * the reusable [`FmWorkspace`] refinement scratch arenas, the
//!   [`CoarsenWorkspace`](crate::CoarsenWorkspace) coarsening arenas, and
//!   the [`NLevelWorkspace`](crate::NLevelWorkspace) n-level arenas,
//! * the RNG **seed**.
//!
//! Engines take `&mut RunCtx` in their canonical `*_with` entry points;
//! the plain `run`/`refine` conveniences construct a default context
//! internally, so the two paths are byte-identical in behavior.
//!
//! # Budget checks
//!
//! Engines poll cooperatively through a [`BudgetProbe`] snapshot: at every
//! pass boundary via [`BudgetProbe::stop_now`], and every
//! [`MOVE_CHECK_INTERVAL`] moves inside a pass via
//! [`BudgetProbe::stop_every`] (so a long pass on a large instance cannot
//! overshoot the deadline by a full pass). On expiry or cancellation the
//! engine finishes its best-prefix rollback, emits
//! [`RunEvent::BudgetExhausted`](hypart_trace::RunEvent::BudgetExhausted),
//! and returns a well-formed outcome flagged with the [`StopReason`] —
//! never a panic, never a torn partition.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hypart_trace::{NullSink, StopReason, TraceSink};

use crate::audit::{AuditLevel, FaultPlan};
use crate::coarsen_ws::CoarsenWorkspace;
use crate::nlevel::NLevelWorkspace;
use crate::par::ParLane;
use crate::workspace::FmWorkspace;

/// Number of moves between mid-pass deadline checks.
///
/// `Instant::now` costs tens of nanoseconds; a gain-container move costs
/// hundreds. Checking every 256 moves keeps the polling overhead well
/// under 0.1% while bounding deadline overshoot to a few microseconds of
/// work on any instance.
pub const MOVE_CHECK_INTERVAL: usize = 256;

static NULL_SINK: NullSink = NullSink;

/// A shared, clonable cancellation flag.
///
/// Clones observe the same underlying flag, so a driver can hand a clone
/// to another thread (or a signal handler) and have every engine running
/// under the originating [`RunCtx`] stop cooperatively at its next budget
/// check.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The execution context for one partitioning run.
///
/// Bundles everything cross-cutting that would otherwise be a separate
/// entry-point axis (traced, budgeted, workspace-reusing …): the trace sink, the
/// reusable workspace, the RNG seed, and the wall-clock budget /
/// cancellation controls. Construct with [`RunCtx::new`] and chain the
/// `with_*` builders:
///
/// ```
/// use std::time::Duration;
/// use hypart_core::RunCtx;
///
/// let mut ctx = RunCtx::new(42).with_budget(Duration::from_millis(50));
/// assert_eq!(ctx.seed, 42);
/// assert!(ctx.deadline().is_some());
/// assert!(ctx.probe().stop_now().is_none());
/// ```
pub struct RunCtx<'s> {
    /// Receiver of the run's [`RunEvent`](hypart_trace::RunEvent) stream.
    pub sink: &'s dyn TraceSink,
    /// Reusable refinement scratch arenas, re-targeted by each engine
    /// invocation.
    pub workspace: FmWorkspace,
    /// Reusable coarsening scratch arenas, re-pointed at each level.
    pub coarsen: CoarsenWorkspace,
    /// Reusable n-level scratch arenas (dynamic hypergraph view,
    /// memento stack, partition state, gain cache), re-pointed per run.
    pub nlevel: NLevelWorkspace,
    /// Per-lane scratch of the shared-memory parallel engine (empty and
    /// unused on the serial paths; grown on first parallel run).
    pub lanes: Vec<ParLane>,
    /// Base RNG seed for the run.
    pub seed: u64,
    deadline: Option<Instant>,
    cancel: CancelToken,
    audit: AuditLevel,
    fault_plan: FaultPlan,
}

impl std::fmt::Debug for RunCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunCtx")
            .field("seed", &self.seed)
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel)
            .field("audit", &self.audit)
            .field("sink_enabled", &self.sink.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Default for RunCtx<'static> {
    fn default() -> Self {
        RunCtx::new(0)
    }
}

impl<'s> RunCtx<'s> {
    /// A context with the given seed, no sink, no deadline, and a fresh
    /// workspace — the exact behavior of the plain `run` entry points.
    pub fn new(seed: u64) -> RunCtx<'static> {
        RunCtx {
            sink: &NULL_SINK,
            workspace: FmWorkspace::new(),
            coarsen: CoarsenWorkspace::new(),
            nlevel: NLevelWorkspace::new(),
            lanes: Vec::new(),
            seed,
            deadline: None,
            cancel: CancelToken::new(),
            audit: AuditLevel::Off,
            fault_plan: FaultPlan::none(),
        }
    }

    /// Replaces the trace sink (rebinding the context lifetime to it).
    pub fn with_sink<'t>(self, sink: &'t dyn TraceSink) -> RunCtx<'t> {
        RunCtx {
            sink,
            workspace: self.workspace,
            coarsen: self.coarsen,
            nlevel: self.nlevel,
            lanes: self.lanes,
            seed: self.seed,
            deadline: self.deadline,
            cancel: self.cancel,
            audit: self.audit,
            fault_plan: self.fault_plan,
        }
    }

    /// Sets an absolute wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline to `budget` from now.
    #[must_use]
    pub fn with_budget(self, budget: Duration) -> Self {
        let deadline = Instant::now() + budget;
        self.with_deadline(deadline)
    }

    /// Shares an externally controlled cancellation token.
    #[must_use]
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Replaces the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the refinement workspace (e.g. to reuse arenas across
    /// contexts).
    #[must_use]
    pub fn with_workspace(mut self, workspace: FmWorkspace) -> Self {
        self.workspace = workspace;
        self
    }

    /// Replaces the coarsening workspace (e.g. to reuse arenas across
    /// contexts).
    #[must_use]
    pub fn with_coarsen_workspace(mut self, coarsen: CoarsenWorkspace) -> Self {
        self.coarsen = coarsen;
        self
    }

    /// Sets how much independent invariant auditing runs (default:
    /// [`AuditLevel::Off`], which costs and emits nothing).
    #[must_use]
    pub fn with_audit(mut self, level: AuditLevel) -> Self {
        self.audit = level;
        self
    }

    /// Installs a deterministic fault-injection plan (test-only).
    #[doc(hidden)]
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// The absolute deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// A clone of the cancellation token, for handing to other threads.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The active audit level.
    pub fn audit(&self) -> AuditLevel {
        self.audit
    }

    /// The installed fault-injection plan (the empty plan by default).
    #[doc(hidden)]
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Snapshots the budget controls into an owned probe, so engines can
    /// poll the deadline while holding `&mut` borrows of the workspace.
    pub fn probe(&self) -> BudgetProbe {
        BudgetProbe {
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            counter: 0,
            latched: None,
        }
    }
}

/// An owned snapshot of a context's budget controls.
///
/// Engines extract one probe up front ([`RunCtx::probe`]) and poll it
/// during refinement; once a stop reason is observed it latches, so every
/// later poll returns the same reason without re-reading the clock.
#[derive(Clone, Debug)]
pub struct BudgetProbe {
    deadline: Option<Instant>,
    cancel: CancelToken,
    counter: usize,
    latched: Option<StopReason>,
}

impl BudgetProbe {
    /// A probe that never stops (no deadline, fresh token) — what the
    /// unbudgeted convenience entry points use.
    pub fn unbounded() -> Self {
        BudgetProbe {
            deadline: None,
            cancel: CancelToken::new(),
            counter: 0,
            latched: None,
        }
    }

    /// Checks the budget right now: cancellation first, then the
    /// deadline. Returns the latched reason once stopped.
    pub fn stop_now(&mut self) -> Option<StopReason> {
        if self.latched.is_some() {
            return self.latched;
        }
        if self.cancel.is_cancelled() {
            self.latched = Some(StopReason::Cancelled);
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.latched = Some(StopReason::Deadline);
        }
        self.latched
    }

    /// Counter-gated check for hot loops: performs the real check only
    /// every [`MOVE_CHECK_INTERVAL`] calls (and returns the latched reason
    /// in between). Call once per move.
    pub fn stop_every(&mut self) -> Option<StopReason> {
        self.counter += 1;
        if self.counter >= MOVE_CHECK_INTERVAL {
            self.counter = 0;
            self.stop_now()
        } else {
            self.latched
        }
    }

    /// The stop reason observed so far, [`StopReason::Completed`] if the
    /// budget never ran out.
    pub fn reason(&self) -> StopReason {
        self.latched.unwrap_or(StopReason::Completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_never_stops() {
        let ctx = RunCtx::new(7);
        let mut probe = ctx.probe();
        assert_eq!(probe.stop_now(), None);
        for _ in 0..10_000 {
            assert_eq!(probe.stop_every(), None);
        }
        assert_eq!(probe.reason(), StopReason::Completed);
    }

    #[test]
    fn expired_deadline_latches() {
        let ctx = RunCtx::new(0).with_deadline(Instant::now() - Duration::from_millis(1));
        let mut probe = ctx.probe();
        assert_eq!(probe.stop_now(), Some(StopReason::Deadline));
        assert_eq!(probe.stop_now(), Some(StopReason::Deadline));
        assert_eq!(probe.reason(), StopReason::Deadline);
    }

    #[test]
    fn cancellation_wins_over_deadline_and_spreads_to_clones() {
        let ctx = RunCtx::new(0).with_deadline(Instant::now() - Duration::from_millis(1));
        let token = ctx.cancel_token();
        token.cancel();
        let mut probe = ctx.probe();
        assert_eq!(probe.stop_now(), Some(StopReason::Cancelled));
        let shared = RunCtx::new(1).with_cancel_token(token);
        assert_eq!(shared.probe().stop_now(), Some(StopReason::Cancelled));
    }

    #[test]
    fn stop_every_is_counter_gated() {
        let ctx = RunCtx::new(0).with_deadline(Instant::now() - Duration::from_millis(1));
        let mut probe = ctx.probe();
        for _ in 1..MOVE_CHECK_INTERVAL {
            assert_eq!(probe.stop_every(), None);
        }
        assert_eq!(probe.stop_every(), Some(StopReason::Deadline));
        // Latched from here on, even between check boundaries.
        assert_eq!(probe.stop_every(), Some(StopReason::Deadline));
    }

    #[test]
    fn with_sink_keeps_audit_and_fault_plan() {
        let ctx = RunCtx::new(1)
            .with_audit(AuditLevel::Paranoid)
            .with_fault_plan(FaultPlan::panic_in_start(7));
        assert_eq!(ctx.audit(), AuditLevel::Paranoid);
        let rebound = ctx.with_sink(&NullSink);
        assert_eq!(rebound.audit(), AuditLevel::Paranoid);
        assert!(rebound.fault_plan().should_panic_start(7));
    }
}
