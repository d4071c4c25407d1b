//! The shared-memory parallel multilevel engine: parallel hierarchy
//! construction, a parallel initial-partition portfolio, and parallel
//! refinement by synchronized move rounds.
//!
//! Selected by [`MlConfig::threads`] `>= 1`; `threads == 0` keeps the
//! serial legacy engine. The lane count is a *logical* knob: it shapes the
//! work decomposition, while the physical worker count comes from the
//! rayon pool. In deterministic mode ([`MlConfig::deterministic`], the
//! default) the run is a pure function of `(graph, config, seed)` —
//! independent of both the lane count and the physical thread count — so
//! traces are bitwise identical at any `RAYON_NUM_THREADS`. In relaxed
//! mode results may vary with the lane count but are always race-free and
//! audit-clean: speculation reads frozen snapshots, and every state
//! mutation happens on the serial commit path.
//!
//! Budgets, cancellation, auditing, and fault isolation flow through the
//! same [`RunCtx`] plumbing as the serial engine: deadlines and cancel
//! tokens are polled at level and round boundaries, the final whole-run
//! audit checkpoint is identical, and a panicking portfolio try or
//! refinement shard degrades the run to the best of the survivors
//! ([`RunEvent::StartAborted`] / `ShardAborted`) instead of poisoning a
//! lock or hanging the pool.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::coarsen::CoarseLevel;
use crate::par_coarsen::build_hierarchy_par_with;
use crate::partitioner::{emit_level_downs, MlConfig, MlOutcome, MlPartitioner};
use hypart_core::{
    derive_seed, ensure_lanes, generate_initial, refine_rounds_parallel, AuditError,
    BalanceConstraint, Bisection, FmPartitioner, InitialSolution, ParLane, PartitionAuditor,
    RunCtx, StopReason,
};
use hypart_hypergraph::{Hypergraph, PartId};
use hypart_trace::{MemorySink, NullSink, RunEvent, TraceSink};

/// Vertex-count threshold for parallel refinement: levels at or above it
/// are refined by the synchronized-round engine, smaller levels by the
/// serial flat engine. A *size* threshold — never a thread-count test —
/// so the dispatch (and the shared rng consumption of the serial levels)
/// is identical for every lane count.
pub const PAR_REFINE_MIN_VERTICES: usize = 256;

/// One completed initial-portfolio try, buffered on its worker lane.
struct TryResult {
    violation: u64,
    cut: u64,
    assignment: Vec<PartId>,
    audit_failure: Option<AuditError>,
    buffer: MemorySink,
}

impl MlPartitioner {
    /// Parallel counterpart of [`run_with`](MlPartitioner::run_with);
    /// entered from it when [`MlConfig::threads`] `>= 1`.
    pub(crate) fn run_parallel_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> MlOutcome {
        let config = self.config().clone();
        let lane_count = config.threads.max(1);
        ensure_lanes(&mut ctx.lanes, lane_count);
        let mut lanes = std::mem::take(&mut ctx.lanes);
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let mut probe = ctx.probe();
        let levels = build_hierarchy_par_with(
            h,
            &config.coarsen,
            None,
            &mut rng,
            &mut ctx.coarsen,
            &mut lanes,
            config.deterministic,
            &mut probe,
        );
        emit_level_downs(&levels, ctx.sink);
        let coarsest: &Hypergraph = levels.last().map_or(h, |l| &l.graph);

        let mut audit_failure = None;
        let initial = parallel_initial(
            &config,
            coarsest,
            constraint,
            ctx,
            lane_count,
            &mut audit_failure,
        );
        let out = parallel_uncoarsen(
            &config,
            h,
            &levels,
            initial,
            constraint,
            &mut rng,
            ctx,
            &mut lanes,
            audit_failure,
        );
        ctx.lanes = lanes;
        out
    }

    /// Parallel counterpart of [`vcycle_with`](MlPartitioner::vcycle_with).
    pub(crate) fn vcycle_parallel_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        assignment: &[PartId],
        ctx: &mut RunCtx<'_>,
    ) -> MlOutcome {
        assert_eq!(
            assignment.len(),
            h.num_vertices(),
            "assignment length mismatch"
        );
        let config = self.config().clone();
        let lane_count = config.threads.max(1);
        ensure_lanes(&mut ctx.lanes, lane_count);
        let mut lanes = std::mem::take(&mut ctx.lanes);
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let mut probe = ctx.probe();
        let levels = build_hierarchy_par_with(
            h,
            &config.coarsen,
            Some(assignment),
            &mut rng,
            &mut ctx.coarsen,
            &mut lanes,
            config.deterministic,
            &mut probe,
        );
        emit_level_downs(&levels, ctx.sink);

        // Project the current solution down the (restricted) hierarchy:
        // every cluster is on one side by construction.
        let mut coarse_assignment = assignment.to_vec();
        for level in &levels {
            let mut next = vec![PartId::P0; level.graph.num_vertices()];
            for (fine, coarse) in level.map.iter().enumerate() {
                next[coarse.index()] = coarse_assignment[fine];
            }
            coarse_assignment = next;
        }

        let out = parallel_uncoarsen(
            &config,
            h,
            &levels,
            coarse_assignment,
            constraint,
            &mut rng,
            ctx,
            &mut lanes,
            None,
        );
        ctx.lanes = lanes;
        out
    }
}

/// The parallel initial-partition portfolio:
/// [`MlConfig::INITIAL_TRIES`] seeded starts, each a pure function of
/// `derive_seed(ctx.seed, t)`, spread over the lanes in contiguous
/// chunks. Each try buffers its trace in a private [`MemorySink`];
/// buffers are flushed in try order, so the emitted stream — and the
/// winner, chosen by `(violation, cut, try)` — is independent of the
/// lane count and the physical thread count.
///
/// A panicking try is dropped and announced with
/// [`RunEvent::StartAborted`]; the portfolio degrades to the best of the
/// survivors. Only if *every* try panics is try 0 re-run without the
/// panic boundary, so the underlying fault surfaces instead of being
/// silently swallowed.
///
/// # Seed schedule: intentional divergence from the serial engine
///
/// The serial engine's initial portfolio draws every try from **one**
/// shared `SmallRng` stream seeded with `ctx.seed`, so try *t*'s
/// randomness depends on how much entropy tries `0..t` consumed. That
/// schedule is inherently sequential — it cannot be decomposed across
/// lanes without replaying the predecessors. The parallel engine
/// therefore gives try *t* its own pure seed `derive_seed(ctx.seed, t)`
/// (SplitMix64), which is what makes the portfolio lane-count-invariant:
/// any lane can run any try and produce the identical result. The two
/// engines consequently produce
/// **different** (each internally deterministic) results for the same
/// `(instance, config, seed)` — including at `threads: 1`, which selects
/// the parallel engine's schedule with one lane, *not* the serial
/// engine's schedule. `threads: 0` is the serial schedule. This contract
/// is pinned by `tests/seed_schedule.rs`.
fn parallel_initial(
    config: &MlConfig,
    coarsest: &Hypergraph,
    constraint: &BalanceConstraint,
    ctx: &mut RunCtx<'_>,
    lane_count: usize,
    audit_failure: &mut Option<AuditError>,
) -> Vec<PartId> {
    let tries = MlConfig::INITIAL_TRIES;
    let engine = FmPartitioner::new(config.refine);
    let base_seed = ctx.seed;
    let traced = ctx.sink.is_enabled();
    let deadline = ctx.deadline();
    let token = ctx.cancel_token();
    let audit = ctx.audit();
    let fault = ctx.fault_plan().clone();

    let run_try = |t: usize, buffer: &MemorySink| -> (u64, u64, Vec<PartId>, Option<AuditError>) {
        fault.trip_start(t as u64);
        let seed = derive_seed(base_seed, t as u64);
        let sink: &dyn TraceSink = if traced { buffer } else { &NullSink };
        let mut child = RunCtx::new(seed)
            .with_cancel_token(token.clone())
            .with_audit(audit)
            .with_fault_plan(fault.clone())
            .with_sink(sink);
        if let Some(d) = deadline {
            child = child.with_deadline(d);
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let rule = if t.is_multiple_of(2) {
            InitialSolution::AreaSortedGreedy
        } else {
            InitialSolution::RandomBalanced
        };
        let parts = generate_initial(coarsest, rule, &mut rng);
        let mut bisection = match Bisection::new(coarsest, parts) {
            Ok(b) => b,
            Err(e) => unreachable!("generated initial is valid: {e}"),
        };
        let stats = engine.refine_with(&mut bisection, constraint, &mut rng, &mut child);
        (
            constraint.total_violation(&bisection),
            bisection.cut(),
            bisection.into_assignment(),
            stats.audit_failure,
        )
    };

    let mut slots: Vec<Option<TryResult>> = Vec::new();
    slots.resize_with(tries, || None);
    {
        let run_try = &run_try;
        let chunk_len = tries.div_ceil(lane_count).max(1);
        rayon::scope(|sc| {
            let mut rest: &mut [Option<TryResult>] = &mut slots;
            let mut t0 = 0usize;
            while !rest.is_empty() {
                let take = chunk_len.min(rest.len());
                let (chunk, r) = rest.split_at_mut(take);
                rest = r;
                let start_t = t0;
                sc.spawn(move |_| {
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        let t = start_t + j;
                        let buffer = MemorySink::new();
                        let attempt = catch_unwind(AssertUnwindSafe(|| run_try(t, &buffer)));
                        *slot = attempt
                            .ok()
                            .map(|(violation, cut, assignment, af)| TryResult {
                                violation,
                                cut,
                                assignment,
                                audit_failure: af,
                                buffer,
                            });
                    }
                });
                t0 += take;
            }
        });
    }

    // Flush, merge, and select in try order: the stream and the winner
    // are pure functions of the per-try results.
    let mut best: Option<(u64, u64, usize)> = None;
    for (t, slot) in slots.iter().enumerate() {
        match slot {
            Some(r) => {
                if traced {
                    r.buffer.flush_into(ctx.sink);
                }
                if audit_failure.is_none() {
                    *audit_failure = r.audit_failure.clone();
                }
                if best.is_none_or(|(v, c, _)| (r.violation, r.cut) < (v, c)) {
                    best = Some((r.violation, r.cut, t));
                }
            }
            None => {
                ctx.sink.emit(RunEvent::StartAborted {
                    index: t as u64,
                    seed: derive_seed(base_seed, t as u64),
                });
            }
        }
    }
    match best {
        Some((_, _, t)) => match slots.into_iter().nth(t).flatten() {
            Some(r) => r.assignment,
            None => unreachable!("the selected try was observed above"),
        },
        None => {
            // Every try panicked: re-run try 0 unprotected so the fault
            // propagates to the caller's isolation boundary.
            let buffer = MemorySink::new();
            let (_, _, assignment, af) = run_try(0, &buffer);
            if traced {
                buffer.flush_into(ctx.sink);
            }
            if audit_failure.is_none() {
                *audit_failure = af;
            }
            assignment
        }
    }
}

/// Parallel counterpart of the serial uncoarsening loop: project level by
/// level, refining large levels with the synchronized-round engine and
/// small levels with the serial flat engine. Identical budget handling
/// and final whole-run audit checkpoint to the serial path.
#[allow(clippy::too_many_arguments)]
fn parallel_uncoarsen<R: Rng>(
    config: &MlConfig,
    h: &Hypergraph,
    levels: &[CoarseLevel],
    coarsest_assignment: Vec<PartId>,
    constraint: &BalanceConstraint,
    rng: &mut R,
    ctx: &mut RunCtx<'_>,
    lanes: &mut [ParLane],
    mut audit_failure: Option<AuditError>,
) -> MlOutcome {
    let engine = FmPartitioner::new(config.refine);
    let mut corked_passes = 0usize;
    let mut total_passes = 0usize;
    let mut assignment = coarsest_assignment;
    let mut probe = ctx.probe();
    let mut stopped = StopReason::Completed;

    for i in (0..=levels.len()).rev() {
        let graph: &Hypergraph = if i == 0 { h } else { &levels[i - 1].graph };
        if i < levels.len() {
            assignment = levels[i].project(&assignment);
        }
        if stopped.is_stopped() {
            continue;
        }
        if let Some(reason) = probe.stop_now() {
            stopped = reason;
            ctx.sink.emit(RunEvent::BudgetExhausted { reason });
            continue;
        }
        if ctx.sink.is_enabled() {
            ctx.sink.emit(RunEvent::LevelUp {
                level: i,
                vertices: graph.num_vertices(),
                nets: graph.num_nets(),
            });
        }
        let mut bisection = match Bisection::new(graph, assignment) {
            Ok(b) => b,
            Err(e) => unreachable!("projected assignment is valid: {e}"),
        };
        if graph.num_vertices() >= PAR_REFINE_MIN_VERTICES {
            let out = refine_rounds_parallel(&mut bisection, constraint, lanes, ctx);
            total_passes += out.rounds;
            if audit_failure.is_none() {
                audit_failure = out.audit_failure;
            }
            stopped = out.stopped;
        } else {
            let stats = engine.refine_with(&mut bisection, constraint, rng, ctx);
            corked_passes += stats.corked_passes();
            total_passes += stats.num_passes();
            if audit_failure.is_none() {
                audit_failure = stats.audit_failure.clone();
            }
            stopped = stats.stopped;
        }
        assignment = bisection.into_assignment();
    }

    let bisection = match Bisection::new(h, assignment) {
        Ok(b) => b,
        Err(e) => unreachable!("refined assignment is valid: {e}"),
    };
    let balanced = constraint.is_satisfied(&bisection);
    // Final whole-run checkpoint, identical to the serial engine's:
    // re-verify the claimed solution on the input graph from scratch.
    if ctx.audit().is_on() {
        let window = balanced.then(|| (constraint.lower(), constraint.upper()));
        if let Err(e) = PartitionAuditor::audit_bisection(&bisection, window) {
            ctx.sink.emit(RunEvent::InvariantViolation {
                check: e.check().to_string(),
                detail: e.to_string(),
            });
            if audit_failure.is_none() {
                audit_failure = Some(e);
            }
        }
    }
    MlOutcome {
        cut: bisection.cut(),
        balanced,
        levels: levels.len(),
        corked_passes,
        total_passes,
        stopped,
        audit_failure,
        assignment: bisection.into_assignment(),
    }
}
