//! The n-level 2-way backend: single-pair contraction with memento undo
//! and localized refinement per uncontraction.
//!
//! Entered through [`MlPartitioner::run_with`] /
//! [`MlPartitioner::vcycle_with`] when the config selects
//! [`EngineKind::NLevel`], so every multi-start driver, the eval runner,
//! the server daemon, and the CLI pick up the backend switch without any
//! code of their own. The phase structure mirrors the coarse-grained
//! engine — contract, partition the coarsest core, undo with refinement —
//! but both the contraction and the refinement are one vertex pair at a
//! time:
//!
//! 1. re-point the context's [`NLevelWorkspace`] arenas (the dynamic
//!    hypergraph view, memento stack, partition state, label/seed
//!    buffers, and gain cache) at the input — no CSR rebuilds ever, and
//!    on a warm context no allocations either;
//! 2. run the rating-driven schedule ([`select_contractions`]) down to
//!    the coarse-config stop size, one memento per contraction;
//! 3. materialize the coarse core once and reuse the coarse backend's
//!    seeded initial-partitioning portfolio on it;
//! 4. undo mementos LIFO; after each undo, run localized FM seeded only
//!    on the released pair, rippling outward along boundary nets — plus
//!    a flat sweep over all active vertices each time the vertex count
//!    doubles (and once each at the coarse core and at full size), the
//!    n-level analogue of the coarse backend's per-level FM passes.
//!
//! Budget stops degrade gracefully: refinement ceases but undo continues,
//! so the result is always a legal full-size partition (the same
//! contract as the coarse engine's projection-only tail).

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::coarsen::cluster_cap;
use crate::partitioner::{MlConfig, MlOutcome, MlPartitioner};
use hypart_core::{
    refine_localized, select_contractions, AuditError, AuditLevel, BalanceConstraint, Bisection,
    ContractionLimits, NLevelWorkspace, PartitionAuditor, RunCtx, StopReason,
};
use hypart_hypergraph::{Hypergraph, PartId, VertexId};
use hypart_trace::RunEvent;

/// Above this slot count, `Paranoid` audits skip the per-uncontraction
/// cut recomputation and only verify the final solution (recomputation
/// per step is quadratic).
const PARANOID_STEP_AUDIT_MAX_SLOTS: usize = 4_096;

/// Builds the contraction limits from the shared coarsening config, so
/// both backends obey the same stop size, net-size cutoff, and cluster
/// cap.
fn limits_for(h: &Hypergraph, config: &MlConfig) -> ContractionLimits {
    ContractionLimits {
        stop_size: config.coarsen.stop_size,
        max_net_size: config.coarsen.max_net_size_for_matching,
        cluster_cap: cluster_cap(h),
    }
}

/// One n-level run: contract to the stop size, partition the coarse
/// core with the seeded initial portfolio, then undo with localized
/// refinement. See the module docs for the phase structure.
pub(crate) fn run_nlevel(
    partitioner: &MlPartitioner,
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    ctx: &mut RunCtx<'_>,
) -> MlOutcome {
    let config = partitioner.config();
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    // Borrow the n-level arenas for the duration of this run, so the
    // view, the partition, and the context can be used independently;
    // put back at the end (reuse changes no results, only allocations).
    let mut ws = std::mem::take(&mut ctx.nlevel);
    ws.dynhg.reset_from_csr(h);
    contract_phase(&mut ws, h, config, None, ctx);

    // Initial partitioning: materialize the coarse core once (the only
    // CSR built on this path) and reuse the coarse backend's portfolio.
    let core = ws.dynhg.materialize_into(&mut ws.dense_of, &mut ws.slot_of);
    let mut audit_failure = None;
    let initial = partitioner.best_initial(&core, constraint, &mut rng, ctx, &mut audit_failure);
    ws.labels.clear();
    ws.labels.resize(ws.dynhg.num_slots(), 0);
    for (dense, part) in initial.iter().enumerate() {
        ws.labels[ws.slot_of[dense].index()] = part.index() as u16;
    }
    ws.partition.reset(&ws.dynhg, 2, &ws.labels);
    refine_flat(&mut ws, constraint, config, &mut rng, ctx);

    let outcome = uncontract_phase(
        partitioner,
        h,
        &mut ws,
        constraint,
        &mut rng,
        ctx,
        audit_failure,
    );
    ctx.nlevel = ws;
    outcome
}

/// One n-level V-cycle: restricted (same-side) contraction from an
/// existing solution, then undo with localized refinement starting from
/// the projected labels. Never worsens the input cut: every refinement
/// invocation rolls back to its best `(violation, cut)` prefix, and that
/// prefix starts at the input state.
pub(crate) fn vcycle_nlevel(
    partitioner: &MlPartitioner,
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    assignment: &[PartId],
    ctx: &mut RunCtx<'_>,
) -> MlOutcome {
    let config = partitioner.config();
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let mut ws = std::mem::take(&mut ctx.nlevel);
    ws.dynhg.reset_from_csr(h);
    contract_phase(&mut ws, h, config, Some(assignment), ctx);

    // Restricted contraction keeps every cluster on one side, so the
    // input labels are already the coarse solution.
    ws.labels.clear();
    ws.labels
        .extend(assignment.iter().map(|p| p.index() as u16));
    ws.partition.reset(&ws.dynhg, 2, &ws.labels);
    refine_flat(&mut ws, constraint, config, &mut rng, ctx);

    let outcome = uncontract_phase(partitioner, h, &mut ws, constraint, &mut rng, ctx, None);
    ctx.nlevel = ws;
    outcome
}

/// Flat refinement over every active vertex of the current view, at
/// whatever granularity `d` is sitting at.
///
/// Seeding the localized refiner with *every* active vertex turns it
/// into a flat FM pass; repeating until a round retains no move drains
/// the improvement. Each retained round strictly lowers the
/// lexicographic (violation, cut) potential, so the loop terminates.
/// Runs twice per n-level invocation — on the coarse core before the
/// first uncontraction and on the full graph after the last — the two
/// granularities the coarse backend also sweeps exhaustively. Skipped
/// once the budget is spent; the caller's uncontraction loop reports the
/// stop. Returns the total retained moves.
fn refine_flat(
    ws: &mut NLevelWorkspace,
    constraint: &BalanceConstraint,
    config: &MlConfig,
    rng: &mut SmallRng,
    ctx: &mut RunCtx<'_>,
) -> usize {
    let mut probe = ctx.probe();
    ws.seeds.clear();
    ws.seeds.extend(
        (0..ws.dynhg.num_slots())
            .map(VertexId::from_index)
            .filter(|&v| ws.dynhg.is_active(v)),
    );
    let (lower, upper) = (constraint.lower(), constraint.upper());
    let mut total = 0usize;
    while probe.stop_now().is_none() {
        let retained = refine_localized(
            &mut ws.partition,
            &ws.dynhg,
            &ws.seeds,
            lower,
            upper,
            config.refine.insertion,
            rng,
            &mut ws.refine,
            ctx,
        );
        total += retained;
        if retained == 0 {
            break;
        }
    }
    total
}

/// Runs the contraction schedule inside `ContractionBegin`/`End`
/// brackets (whole-phase brackets: one pair per contraction would bloat
/// golden traces a thousandfold).
fn contract_phase(
    ws: &mut NLevelWorkspace,
    h: &Hypergraph,
    config: &MlConfig,
    restriction: Option<&[PartId]>,
    ctx: &mut RunCtx<'_>,
) {
    if ctx.sink.is_enabled() {
        ctx.sink.emit(RunEvent::ContractionBegin {
            vertices: ws.dynhg.num_active(),
            nets: ws.dynhg.num_live_nets(),
        });
    }
    let limits = limits_for(h, config);
    let mut probe = ctx.probe();
    let seed = ctx.seed;
    select_contractions(
        &mut ws.dynhg,
        &limits,
        restriction,
        seed,
        &mut ctx.coarsen.conn,
        &mut ws.contract,
        &mut probe,
    );
    if ctx.sink.is_enabled() {
        ctx.sink.emit(RunEvent::ContractionEnd {
            contractions: ws.contract.mementos.len(),
            vertices: ws.dynhg.num_active(),
            nets: ws.dynhg.num_live_nets(),
        });
    }
}

/// Undoes the memento stack LIFO with localized refinement per step,
/// then runs the final whole-run audit checkpoint and assembles the
/// outcome. On a budget stop, refinement ceases but undo continues to
/// full size.
#[allow(clippy::too_many_arguments)]
fn uncontract_phase(
    partitioner: &MlPartitioner,
    h: &Hypergraph,
    ws: &mut NLevelWorkspace,
    constraint: &BalanceConstraint,
    rng: &mut SmallRng,
    ctx: &mut RunCtx<'_>,
    mut audit_failure: Option<AuditError>,
) -> MlOutcome {
    let config = partitioner.config();
    let levels = ws.contract.mementos.len();
    if ctx.sink.is_enabled() {
        ctx.sink.emit(RunEvent::UncontractionBegin {
            contractions: levels,
        });
    }
    let (lower, upper) = (constraint.lower(), constraint.upper());
    let step_audit = ctx.audit() == AuditLevel::Paranoid
        && ws.dynhg.num_slots() <= PARANOID_STEP_AUDIT_MAX_SLOTS;
    let mut probe = ctx.probe();
    let mut stopped = StopReason::Completed;
    let mut total_moves = 0usize;
    // Localized ripples rarely cross basins mid-uncoarsening, so run a
    // flat sweep every time the active vertex count doubles — the
    // n-level analogue of the coarse backend's per-level FM passes,
    // O(log n) sweeps in total.
    let mut next_flat = ws.dynhg.num_active().saturating_mul(2);

    for i in (0..levels).rev() {
        let m = ws.contract.mementos[i];
        if !stopped.is_stopped() {
            if let Some(reason) = probe.stop_now() {
                stopped = reason;
                ctx.sink.emit(RunEvent::BudgetExhausted { reason });
            }
        }
        ws.partition.begin_uncontract(&ws.dynhg, &m);
        ws.dynhg.uncontract(&m);
        if stopped.is_stopped() {
            continue;
        }
        total_moves += refine_localized(
            &mut ws.partition,
            &ws.dynhg,
            &[m.u, m.v],
            lower,
            upper,
            config.refine.insertion,
            rng,
            &mut ws.refine,
            ctx,
        );
        if ws.dynhg.num_active() >= next_flat {
            total_moves += refine_flat(ws, constraint, config, rng, ctx);
            next_flat = next_flat.saturating_mul(2);
        }
        if step_audit {
            let recomputed = ws.partition.recompute_cut(&ws.dynhg);
            if recomputed != ws.partition.cut() {
                let e = AuditError::CutMismatch {
                    reported: ws.partition.cut(),
                    recomputed,
                };
                ctx.sink.emit(RunEvent::InvariantViolation {
                    check: e.check().to_string(),
                    detail: format!("{e} after uncontracting ({:?}, {:?})", m.u, m.v),
                });
                if audit_failure.is_none() {
                    audit_failure = Some(e);
                }
            }
        }
    }
    // One last flat sweep at full size: localized ripples reach only as
    // far as their seed pair's neighborhood chains, so the finest level
    // deserves the same exhaustive pass the coarse backend ends with.
    if !stopped.is_stopped() {
        total_moves += refine_flat(ws, constraint, config, rng, ctx);
    }
    if ctx.sink.is_enabled() {
        ctx.sink.emit(RunEvent::UncontractionEnd {
            moves: total_moves,
            cut: ws.partition.cut(),
        });
    }

    let assignment: Vec<PartId> = ws
        .partition
        .assignment()
        .iter()
        .map(|&p| if p == 0 { PartId::P0 } else { PartId::P1 })
        .collect();
    debug_assert_eq!(assignment.len(), h.num_vertices());
    let bisection = match Bisection::new(h, assignment) {
        Ok(b) => b,
        Err(e) => unreachable!("n-level assignment is valid: {e}"),
    };
    let balanced = constraint.is_satisfied(&bisection);
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
        levels,
        corked_passes: 0,
        // The n-level backend has no pass structure; report localized
        // moves where the coarse engine reports refinement passes.
        total_passes: total_moves,
        stopped,
        audit_failure,
        assignment: bisection.into_assignment(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypart_benchgen::toys::{grid, two_clusters};
    use hypart_benchgen::{ispd98_like, mcnc_like};
    use hypart_core::EngineKind;

    fn nlevel() -> MlPartitioner {
        MlPartitioner::new(MlConfig::default().with_engine(EngineKind::NLevel))
    }

    #[test]
    fn finds_optimal_cut_on_clusters() {
        let h = two_clusters(12, 3);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        let out = nlevel().run(&h, &c, 3);
        assert_eq!(out.cut, 3);
        assert!(out.balanced);
    }

    #[test]
    fn grid_cut_is_near_optimal() {
        let h = grid(16, 16);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.1);
        let out = nlevel().run(&h, &c, 1);
        assert!(out.balanced);
        assert!(out.cut <= 24, "cut {}", out.cut);
    }

    #[test]
    fn deterministic_per_seed() {
        let h = mcnc_like(600, 9);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let p = nlevel();
        let a = p.run(&h, &c, 42);
        let b = p.run(&h, &c, 42);
        assert_eq!(a.cut, b.cut);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn vcycle_never_worsens() {
        let h = ispd98_like(1, 0.03, 8);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let p = nlevel();
        let first = p.run(&h, &c, 2);
        let cycled = p.vcycle_with(&h, &c, &first.assignment, &mut RunCtx::new(77));
        assert!(
            cycled.cut <= first.cut,
            "n-level v-cycle worsened: {} -> {}",
            first.cut,
            cycled.cut
        );
        assert!(cycled.balanced);
    }

    #[test]
    fn respects_fixed_vertices() {
        use hypart_benchgen::with_pad_ring;
        let h = with_pad_ring(&mcnc_like(400, 3), 20, 1);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let out = nlevel().run(&h, &c, 0);
        for v in h.vertices() {
            if let Some(p) = h.fixed_part(v) {
                assert_eq!(out.assignment[v.index()], p, "{v:?} moved off its pad");
            }
        }
    }

    #[test]
    fn quality_is_competitive_with_coarse_ml() {
        let h = ispd98_like(1, 0.04, 5);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let coarse = MlPartitioner::new(MlConfig::ml_lifo());
        let fine = nlevel();
        let coarse_best = (0..3).map(|s| coarse.run(&h, &c, s).cut).min();
        let fine_best = (0..3).map(|s| fine.run(&h, &c, s).cut).min();
        let (Some(coarse_best), Some(fine_best)) = (coarse_best, fine_best) else {
            unreachable!("three seeds each")
        };
        // n-level must land in the same quality class; allow 30% slack so
        // the bound is robust across seeds (head-to-head reporting is the
        // eval harness's job, not this unit test's).
        assert!(
            fine_best as f64 <= coarse_best as f64 * 1.3,
            "n-level best {fine_best} vs coarse best {coarse_best}"
        );
    }
}
