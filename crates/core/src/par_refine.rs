//! Parallel refinement via synchronized move rounds.
//!
//! The serial FM engine is inherently sequential: every move depends on
//! the gain updates of the one before it. The parallel engine therefore
//! refines in *rounds* instead of passes:
//!
//! 1. **Proposal** — the vertex set is split into one contiguous shard
//!    per lane; each shard scans its vertices against a *frozen*
//!    snapshot of the bisection and proposes every vertex with a strictly
//!    positive gain (plus, while the solution is unbalanced, every free
//!    vertex on the heavier side, so the round can restore legality the
//!    way an FM pass would).
//! 2. **Commit** — the shard proposals are concatenated (shards are
//!    contiguous ascending ranges, so the merged list is vertex-ascending
//!    regardless of the shard count), sorted by (gain descending, vertex
//!    ascending), and applied serially. Each proposal's gain is
//!    *recomputed against the live state* before applying; a move is
//!    applied only if it strictly reduces the balance violation, or
//!    keeps the solution legal while strictly reducing the cut. Stale
//!    proposals — invalidated by an earlier commit this round — simply
//!    fail the recheck and are skipped.
//!
//! Every applied move strictly decreases the lexicographic objective
//! `(total balance violation, cut)`, so rounds terminate without a move
//! budget; [`PAR_REFINE_MAX_ROUNDS`] is a belt-and-braces cap.
//!
//! # Determinism contract
//!
//! The proposal set is a pure function of the frozen snapshot, and the
//! merged proposal list is identical for *any* shard count; the commit
//! is serial with a total ordering key. Round refinement is therefore
//! bitwise thread-count-invariant.
//!
//! # Fault isolation
//!
//! Each shard's proposal scan runs inside `catch_unwind`. A panicking
//! shard (e.g. an injected [`FaultPlan`](crate::FaultPlan) shard fault)
//! is announced with a `ShardAborted` trace event, its proposals are
//! discarded, and the round commits the surviving shards' proposals —
//! best-of-survivors, mirroring the multi-start driver's per-start
//! isolation. The lane's panic flag and buffers are reset afterwards, so
//! a poisoned lock or a wedged round is impossible by construction.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hypart_hypergraph::{PartId, VertexId};
use hypart_trace::{RunEvent, StopReason, TraceSink};

use crate::audit::{AuditError, PartitionAuditor, PARANOID_MOVE_AUDIT_MAX_VERTICES};
use crate::balance::BalanceConstraint;
use crate::bisection::Bisection;
use crate::ctx::RunCtx;
use crate::par::{MoveProposal, ParLane};

/// Upper bound on rounds per [`refine_rounds_parallel`] call. Rounds
/// strictly improve `(violation, cut)`, so this cap only matters as a
/// guard against bookkeeping bugs.
pub const PAR_REFINE_MAX_ROUNDS: usize = 64;

/// What one parallel round-refinement run did.
#[derive(Clone, Debug, Default)]
pub struct ParRefineOutcome {
    /// Rounds executed (proposal + commit cycles).
    pub rounds: usize,
    /// Moves applied across all rounds.
    pub moves_applied: usize,
    /// Shard panics isolated across all rounds.
    pub aborted_shards: usize,
    /// Why the run ended.
    pub stopped: StopReason,
    /// First audit discrepancy observed, if auditing was on.
    pub audit_failure: Option<AuditError>,
}

/// Emits an `InvariantViolation` and records the first failure.
fn record_audit(
    result: Result<(), AuditError>,
    sink: &dyn TraceSink,
    failure: &mut Option<AuditError>,
) {
    if let Err(e) = result {
        sink.emit(RunEvent::InvariantViolation {
            check: e.check().to_string(),
            detail: e.to_string(),
        });
        if failure.is_none() {
            *failure = Some(e);
        }
    }
}

/// Scans one contiguous vertex shard against the frozen bisection and
/// fills `out` with its move proposals.
fn propose_shard(
    bisection: &Bisection<'_>,
    range: std::ops::Range<usize>,
    heavy: Option<PartId>,
    out: &mut Vec<MoveProposal>,
) {
    let h = bisection.graph();
    for raw in range {
        let v = VertexId::from_index(raw);
        if h.fixed_part(v).is_some() {
            continue;
        }
        let gain = bisection.gain(v);
        if gain > 0 || heavy == Some(bisection.side(v)) {
            out.push(MoveProposal {
                vertex: raw as u32,
                gain,
            });
        }
    }
}

/// Refines `bisection` in synchronized parallel move rounds using
/// `lanes` as shards (see the module docs for the round
/// anatomy, determinism contract, and fault isolation).
///
/// `lanes` must be non-empty; the shard count equals `lanes.len()`.
/// Budgets and cancellation are honoured at round boundaries and every
/// [`MOVE_CHECK_INTERVAL`](crate::MOVE_CHECK_INTERVAL) commits; auditing follows the
/// context's [`AuditLevel`](crate::AuditLevel) (round boundaries, plus
/// per-move recounts under `Paranoid` on small instances).
pub fn refine_rounds_parallel(
    bisection: &mut Bisection<'_>,
    constraint: &BalanceConstraint,
    lanes: &mut [ParLane],
    ctx: &RunCtx<'_>,
) -> ParRefineOutcome {
    assert!(!lanes.is_empty(), "parallel refinement needs >= 1 lane");
    let mut probe = ctx.probe();
    let sink = ctx.sink;
    let enabled = sink.is_enabled();
    let audit = ctx.audit();
    let fault = ctx.fault_plan().clone();
    let n = bisection.graph().num_vertices();
    let shards = lanes.len();
    let mut out = ParRefineOutcome::default();
    let mut commit: Vec<MoveProposal> = Vec::new();

    sink.emit(RunEvent::RunBegin {
        cut: bisection.cut(),
    });

    for round in 0..PAR_REFINE_MAX_ROUNDS {
        if probe.stop_now().is_some() {
            break;
        }
        // While the solution is unbalanced, the heavier side proposes
        // every free vertex (any-gain), so the round can restore
        // legality; once legal, only strict cut improvements qualify.
        let w0 = bisection.part_weight(PartId::P0);
        let w1 = bisection.part_weight(PartId::P1);
        let heavy = if constraint.violation(w0) + constraint.violation(w1) > 0 {
            Some(if w0 >= w1 { PartId::P0 } else { PartId::P1 })
        } else {
            None
        };

        // Proposal phase: one job per shard, each against the frozen
        // snapshot. A shard panic is contained inside the job.
        {
            let frozen: &Bisection<'_> = &*bisection;
            let fault = &fault;
            rayon::scope(|sc| {
                for (shard, lane) in lanes.iter_mut().enumerate() {
                    let start = shard * n / shards;
                    let end = (shard + 1) * n / shards;
                    sc.spawn(move |_| {
                        lane.moves.clear();
                        lane.aborted = false;
                        let scan = catch_unwind(AssertUnwindSafe(|| {
                            fault.trip_shard(round as u64, shard as u64);
                            propose_shard(frozen, start..end, heavy, &mut lane.moves);
                        }));
                        if scan.is_err() {
                            lane.moves.clear();
                            lane.aborted = true;
                        }
                    });
                }
            });
        }
        commit.clear();
        for (shard, lane) in lanes.iter_mut().enumerate() {
            if lane.aborted {
                lane.aborted = false;
                out.aborted_shards += 1;
                sink.emit(RunEvent::ShardAborted {
                    round: round as u64,
                    shard: shard as u64,
                });
            } else {
                commit.extend_from_slice(&lane.moves);
            }
        }
        if commit.is_empty() {
            break;
        }
        // Highest snapshot gain first; vertex id breaks ties, making the
        // commit order total and shard-count-independent.
        commit.sort_unstable_by(|a, b| b.gain.cmp(&a.gain).then_with(|| a.vertex.cmp(&b.vertex)));

        sink.emit(RunEvent::PassBegin {
            pass: round,
            cut: bisection.cut(),
            eligible: commit.len(),
        });
        let mut applied = 0usize;
        for p in &commit {
            if probe.stop_every().is_some() {
                break;
            }
            let v = VertexId::new(p.vertex);
            let from = bisection.side(v);
            let w = bisection.graph().vertex_weight(v);
            let wf = bisection.part_weight(from);
            let wt = bisection.part_weight(from.other());
            let old_violation = constraint.violation(wf) + constraint.violation(wt);
            let new_violation = constraint.violation(wf - w) + constraint.violation(wt + w);
            // Live recheck: the snapshot gain may be stale after earlier
            // commits this round.
            let gain = bisection.gain(v);
            let apply = if old_violation > 0 {
                new_violation < old_violation
            } else {
                gain > 0 && new_violation == 0
            };
            if !apply {
                continue;
            }
            let realized = bisection.move_vertex(v);
            applied += 1;
            if enabled {
                sink.emit(RunEvent::Move {
                    vertex: u64::from(p.vertex),
                    gain: realized,
                    cut: bisection.cut(),
                });
            }
            if audit.is_paranoid() && n <= PARANOID_MOVE_AUDIT_MAX_VERTICES {
                record_audit(
                    PartitionAuditor::audit_bisection(bisection, None),
                    sink,
                    &mut out.audit_failure,
                );
            }
        }
        sink.emit(RunEvent::PassEnd {
            pass: round,
            cut: bisection.cut(),
            moves_made: applied,
            moves_rolled_back: 0,
            leftovers: false,
            corked: false,
        });
        if audit.is_on() {
            record_audit(
                PartitionAuditor::audit_bisection(bisection, None),
                sink,
                &mut out.audit_failure,
            );
        }
        out.rounds = round + 1;
        out.moves_applied += applied;
        if applied == 0 {
            break;
        }
    }

    out.stopped = probe.reason();
    if out.stopped.is_stopped() {
        sink.emit(RunEvent::BudgetExhausted {
            reason: out.stopped,
        });
    }
    sink.emit(RunEvent::RunEnd {
        cut: bisection.cut(),
        passes: out.rounds,
    });
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::generate_initial;
    use crate::AuditLevel;
    use crate::FaultPlan;
    use crate::InitialSolution;
    use hypart_trace::MemorySink;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn two_blocks() -> hypart_hypergraph::Hypergraph {
        // Two 8-vertex cliques of 2-pin nets joined by one bridge net.
        let mut b = hypart_hypergraph::HypergraphBuilder::new();
        let v: Vec<_> = (0..16).map(|_| b.add_vertex(1)).collect();
        for block in 0..2 {
            let base = block * 8;
            for i in 0..8 {
                for j in (i + 1)..8 {
                    b.add_net([v[base + i], v[base + j]], 1).unwrap();
                }
            }
        }
        b.add_net([v[3], v[11]], 1).unwrap();
        b.build().unwrap()
    }

    fn refine(
        shards: usize,
        assignment: Vec<PartId>,
        ctx: &mut RunCtx<'_>,
    ) -> (Vec<PartId>, u64, ParRefineOutcome) {
        let h = two_blocks();
        let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.25);
        let mut bisection = Bisection::new(&h, assignment).unwrap();
        let mut lanes = vec![ParLane::default(); shards];
        let out = refine_rounds_parallel(&mut bisection, &constraint, &mut lanes, ctx);
        let cut = bisection.cut();
        (bisection.into_assignment(), cut, out)
    }

    fn scrambled() -> Vec<PartId> {
        let h = two_blocks();
        let mut rng = SmallRng::seed_from_u64(9);
        generate_initial(&h, InitialSolution::RandomBalanced, &mut rng)
    }

    #[test]
    fn rounds_repair_a_two_vertex_swap_to_the_block_cut() {
        // Blocks split perfectly except v0 and v8 are exchanged; both
        // carry strong positive gains, so greedy rounds must restore the
        // block split and leave only the bridge net cut.
        let mut start = vec![PartId::P0; 16];
        for side in start.iter_mut().skip(8) {
            *side = PartId::P1;
        }
        start[0] = PartId::P1;
        start[8] = PartId::P0;
        let mut ctx = RunCtx::new(0).with_audit(AuditLevel::Paranoid);
        let (_, cut, out) = refine(4, start, &mut ctx);
        assert_eq!(cut, 1);
        assert_eq!(out.stopped, StopReason::Completed);
        assert!(out.audit_failure.is_none());
    }

    #[test]
    fn rounds_are_shard_count_invariant() {
        let start = scrambled();
        let mut reference = None;
        for shards in [1usize, 2, 3, 8] {
            let sink = MemorySink::new();
            let mut ctx = RunCtx::new(0).with_sink(&sink);
            let (assignment, cut, out) = refine(shards, start.clone(), &mut ctx);
            assert_eq!(out.stopped, StopReason::Completed);
            let events = sink.take();
            match &reference {
                None => reference = Some((assignment, cut, events)),
                Some((ref_assignment, ref_cut, ref_events)) => {
                    assert_eq!(&assignment, ref_assignment, "shards={shards}");
                    assert_eq!(&cut, ref_cut, "shards={shards}");
                    assert_eq!(&events, ref_events, "shards={shards}");
                }
            }
        }
    }

    #[test]
    fn unbalanced_start_is_repaired() {
        // All vertices on one side: rounds must first restore legality.
        let start = vec![PartId::P0; 16];
        let mut ctx = RunCtx::new(0).with_audit(AuditLevel::Paranoid);
        let (assignment, _, out) = refine(4, start, &mut ctx);
        let h = two_blocks();
        let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.25);
        let bisection = Bisection::new(&h, assignment).unwrap();
        assert_eq!(constraint.total_violation(&bisection), 0);
        assert!(out.audit_failure.is_none());
        assert!(out.moves_applied >= 4);
    }

    #[test]
    fn shard_panic_degrades_to_best_of_survivors() {
        let start = scrambled();
        let sink = MemorySink::new();
        let mut ctx = RunCtx::new(0)
            .with_sink(&sink)
            .with_audit(AuditLevel::Paranoid)
            .with_fault_plan(FaultPlan::panic_in_shard(0, 1));
        let (_, _, out) = refine(4, start, &mut ctx);
        assert!(out.aborted_shards >= 1);
        assert!(out.audit_failure.is_none());
        let aborted: Vec<_> = sink
            .take()
            .into_iter()
            .filter(|e| matches!(e, RunEvent::ShardAborted { .. }))
            .collect();
        assert_eq!(aborted, vec![RunEvent::ShardAborted { round: 0, shard: 1 }]);
    }

    #[test]
    fn expired_deadline_stops_before_any_round() {
        let start = scrambled();
        let mut ctx = RunCtx::new(0)
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let (_, _, out) = refine(2, start, &mut ctx);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.stopped, StopReason::Deadline);
    }
}
