//! The lane engine: the multilevel pipeline with a seeded parallel
//! initial-partition portfolio and, on large levels, refinement by
//! synchronized move rounds.
//!
//! Selected by [`MlConfig::threads`] `>= 1`; `threads == 0` keeps the
//! serial engine. The lane count is a *logical* knob: it shapes the work
//! decomposition, while the physical worker count comes from the rayon
//! pool. The hierarchy is built by the serial coarsener and the levels
//! are walked by the serial uncoarsening loop (`MlPartitioner::uncoarsen`);
//! only the portfolio below and the round refiner
//! ([`refine_rounds_parallel`]) on levels of at least
//! [`PAR_REFINE_MIN_VERTICES`] vertices differ. A run is a pure function
//! of `(graph, config, seed)`, independent of both the lane count and the
//! physical thread count, so traces are bitwise identical at any
//! `RAYON_NUM_THREADS`.
//!
//! Budgets, cancellation, auditing, and fault isolation flow through the
//! same [`RunCtx`] plumbing as the serial engine: like the serial engine,
//! the hierarchy build does not poll the budget; deadlines and cancel
//! tokens are polled at level and round boundaries after it, the final
//! whole-run audit checkpoint is identical, and a panicking portfolio try
//! or refinement shard degrades the run to the best of the survivors
//! ([`RunEvent::StartAborted`] / `ShardAborted`) instead of poisoning a
//! lock or hanging the pool.
//!
//! [`refine_rounds_parallel`]: hypart_core::refine_rounds_parallel

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::coarsen::build_hierarchy;
use crate::partitioner::{emit_level_downs, MlConfig, MlPartitioner};
use hypart_core::{
    derive_seed, generate_initial, AuditError, BalanceConstraint, Bisection, FmPartitioner,
    InitialSolution, Outcome, RunCtx,
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
    /// The lane engine's start; entered from
    /// [`run_with`](MlPartitioner::run_with) when [`MlConfig::threads`]
    /// `>= 1`. Unlike the serial engine's split pipeline, one RNG seeded
    /// with `ctx.seed` builds the hierarchy and then drives the flat
    /// refinement of the small levels.
    pub(crate) fn run_parallel_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Outcome {
        let config = self.config();
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let levels = build_hierarchy(h, &config.coarsen, None, &mut rng);
        emit_level_downs(&levels, ctx.sink);
        let coarsest: &Hypergraph = levels.last().map_or(h, |l| &l.graph);

        let mut audit_failure = None;
        let initial = parallel_initial(config, coarsest, constraint, ctx, &mut audit_failure);
        self.uncoarsen(
            h,
            &levels,
            initial,
            constraint,
            &mut rng,
            ctx,
            config.threads,
            audit_failure,
        )
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
    audit_failure: &mut Option<AuditError>,
) -> Vec<PartId> {
    let tries = MlConfig::INITIAL_TRIES;
    let lane_count = config.threads.max(1);
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
        let (_, failure) = engine.refine_with(&mut bisection, constraint, &mut rng, &mut child);
        (
            constraint.total_violation(&bisection),
            bisection.cut(),
            bisection.into_assignment(),
            failure,
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
