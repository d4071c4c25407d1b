//! Direct k-way FM refinement, in the style of Sanchis.
//!
//! Each free vertex in part `p` has `k − 1` pending moves `p → q`; every
//! ordered pair gets its own gain container (the natural generalization of
//! the 2-way "moves segregated by source partition"). Gains are the
//! hyperedge-cut deltas, maintained with the *generic* update the paper's
//! footnote 2 calls for — the FM-82 special-case update does not
//! generalize past 2-way netcut.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::balance::KWayBalance;
use crate::partition::KWayPartition;
use hypart_core::gain::GainContainer;
use hypart_core::{
    AuditError, AuditLevel, BudgetProbe, InsertionPolicy, PartitionAuditor, RunCtx, StopReason,
    CORKED_FRACTION, PARANOID_MOVE_AUDIT_MAX_VERTICES,
};
use hypart_hypergraph::{Hypergraph, VertexId};
use hypart_trace::{RunEvent, TraceSink};

/// Result of a k-way partitioning run.
#[derive(Clone, Debug)]
pub struct KWayOutcome {
    /// Part index per vertex.
    pub assignment: Vec<u16>,
    /// Number of parts.
    pub num_parts: usize,
    /// Weighted hyperedge cut.
    pub cut: u64,
    /// Weighted (λ−1) cost.
    pub lambda_minus_one: u64,
    /// Per-part total weights.
    pub part_weights: Vec<u64>,
    /// Refinement passes executed.
    pub passes: usize,
    /// Why refinement ended ([`StopReason::Completed`] unless the
    /// context's budget ran out or its token was cancelled).
    pub stopped: StopReason,
    /// First invariant violation the [`PartitionAuditor`] found, if
    /// auditing was enabled on the context. Always `None` with auditing
    /// off.
    pub audit_failure: Option<AuditError>,
}

impl KWayOutcome {
    /// `true` if every part satisfies `balance`.
    pub fn is_balanced(&self, balance: &KWayBalance) -> bool {
        self.part_weights.iter().all(|&w| balance.contains(w))
    }
}

/// A direct k-way FM partitioner.
///
/// The engine has no knobs: the paper's implicit-decision study is a
/// 2-way experiment, so the k-way engine fixes the strong choices
/// (`Nonzero`-style zero-delta skipping, head-only bucket inspection)
/// and names the rest as constants:
///
/// | decision | Table 1 counterpart | fixed value |
/// |----------|---------------------|-------------|
/// | [`INSERTION`](Self::INSERTION) | LIFO / FIFO / random rows | `Lifo` |
/// | [`MAX_PASSES`](Self::MAX_PASSES) | pass-limit stop rule | `32` |
/// | [`EXCLUDE_OVERWEIGHT`](Self::EXCLUDE_OVERWEIGHT) | §2.3 anti-corking fix | `true` |
#[derive(Clone, Copy, Debug, Default)]
pub struct KWayFmPartitioner;

impl KWayFmPartitioner {
    /// Bucket insertion policy of every gain container.
    pub const INSERTION: InsertionPolicy = InsertionPolicy::Lifo;
    /// Upper bound on refinement passes.
    pub const MAX_PASSES: usize = 32;
    /// Cells wider than the balance window stay out of the gain
    /// containers (anti-corking, exactly as in 2-way).
    pub const EXCLUDE_OVERWEIGHT: bool = true;

    /// Creates the partitioner.
    pub fn new() -> Self {
        KWayFmPartitioner
    }

    /// The canonical run entry point: a complete k-way partitioning of
    /// `h` from a seeded greedy initial solution, under the context's
    /// sink, workspace, seed, and budget.
    ///
    /// # Panics
    ///
    /// Panics if `balance.num_parts() < 2`.
    pub fn run_with(
        &self,
        h: &Hypergraph,
        balance: &KWayBalance,
        ctx: &mut RunCtx<'_>,
    ) -> KWayOutcome {
        let k = balance.num_parts();
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let assignment = initial_kway(h, k, &mut rng);
        let mut partition = KWayPartition::new(h, k, assignment);
        let (passes, stopped, audit_failure) =
            self.refine_audited(&mut partition, balance, &mut rng, ctx);
        KWayOutcome {
            num_parts: k,
            cut: partition.cut(),
            lambda_minus_one: partition.lambda_minus_one(),
            part_weights: (0..k).map(|p| partition.part_weight(p)).collect(),
            passes,
            stopped,
            audit_failure,
            assignment: partition.into_assignment(),
        }
    }

    /// Runs a complete k-way partitioning of `h` from a seeded greedy
    /// initial solution.
    ///
    /// Equivalent to [`run_with`](KWayFmPartitioner::run_with) with a
    /// default [`RunCtx`] (no sink, no deadline).
    ///
    /// # Panics
    ///
    /// Panics if `balance.num_parts() < 2`.
    pub fn run(&self, h: &Hypergraph, balance: &KWayBalance, seed: u64) -> KWayOutcome {
        self.run_with(h, balance, &mut RunCtx::new(seed))
    }

    /// The canonical refinement entry point: passes on `partition` until
    /// a pass stops improving the lexicographic (violation, cut) score,
    /// [`MAX_PASSES`](Self::MAX_PASSES) is reached, or the context's
    /// budget runs out. The k·(k−1) container grid (stored as a k² pool
    /// for direct `from·k + to` indexing) is re-targeted in place from
    /// `ctx.workspace` instead of allocated per refinement — the k-way
    /// analogue of the 2-way engine's workspace reuse, and a much larger
    /// saving since the grid is k² containers wide.
    ///
    /// Returns the pass count and the [`StopReason`]. As in the 2-way
    /// engine, a mid-pass stop still rolls back to the pass's best
    /// prefix, so the partition is always legal and coherent.
    pub fn refine_with<R: Rng>(
        &self,
        partition: &mut KWayPartition<'_>,
        balance: &KWayBalance,
        rng: &mut R,
        ctx: &mut RunCtx<'_>,
    ) -> (usize, StopReason) {
        let (passes, stopped, _) = self.refine_audited(partition, balance, rng, ctx);
        (passes, stopped)
    }

    /// [`refine_with`](KWayFmPartitioner::refine_with), additionally
    /// returning the first invariant violation the auditor found (always
    /// `None` with auditing off).
    fn refine_audited<R: Rng>(
        &self,
        partition: &mut KWayPartition<'_>,
        balance: &KWayBalance,
        rng: &mut R,
        ctx: &mut RunCtx<'_>,
    ) -> (usize, StopReason, Option<AuditError>) {
        let mut probe = ctx.probe();
        let audit = ctx.audit();
        let sink: &dyn TraceSink = ctx.sink;
        let workspace = &mut ctx.workspace;
        let k = partition.num_parts();
        let graph = partition.graph();
        let bound = graph.max_gain_bound().max(1);
        let containers = workspace.containers(k * k, graph.num_vertices(), bound);

        if sink.is_enabled() {
            sink.emit(RunEvent::RunBegin {
                cut: partition.cut(),
            });
        }
        let mut audit_failure: Option<AuditError> = None;
        let mut passes = 0;
        for pass in 0..Self::MAX_PASSES {
            if probe.stop_now().is_some() {
                break;
            }
            let before = (balance.total_violation(partition), partition.cut());
            self.run_pass(
                partition,
                balance,
                containers,
                rng,
                sink,
                pass,
                &mut probe,
                audit,
                &mut audit_failure,
            );
            passes += 1;
            if audit.is_on() {
                record_kway_audit(partition, None, &mut audit_failure, sink);
            }
            let after = (balance.total_violation(partition), partition.cut());
            if probe.reason().is_stopped() || after >= before {
                break;
            }
        }
        // Final checkpoint: when the engine is about to claim a balanced
        // solution, re-verify the window too.
        if audit.is_on() {
            let window = balance
                .is_satisfied(partition)
                .then(|| (balance.lower(), balance.upper()));
            record_kway_audit(partition, window, &mut audit_failure, sink);
        }
        let stopped = probe.reason();
        if stopped.is_stopped() {
            sink.emit(RunEvent::BudgetExhausted { reason: stopped });
        }
        if sink.is_enabled() {
            sink.emit(RunEvent::RunEnd {
                cut: partition.cut(),
                passes,
            });
        }
        (passes, stopped, audit_failure)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_pass<R: Rng, S: TraceSink + ?Sized>(
        &self,
        partition: &mut KWayPartition<'_>,
        balance: &KWayBalance,
        containers: &mut [GainContainer],
        rng: &mut R,
        sink: &S,
        pass: usize,
        probe: &mut BudgetProbe,
        audit: AuditLevel,
        audit_failure: &mut Option<AuditError>,
    ) {
        let k = partition.num_parts();
        let graph = partition.graph();
        let window = balance.window();
        let traced = sink.is_enabled();

        for c in containers.iter_mut() {
            c.clear();
        }
        let mut eligible = 0usize;
        let mut excluded_overweight = 0usize;
        for v in graph.vertices() {
            if graph.is_fixed(v) {
                continue;
            }
            if Self::EXCLUDE_OVERWEIGHT && graph.vertex_weight(v) > window {
                excluded_overweight += 1;
                continue;
            }
            eligible += 1;
            let from = partition.part_of(v);
            for to in 0..k {
                if to != from {
                    containers[from * k + to].insert(
                        v,
                        partition.gain(v, to),
                        Self::INSERTION,
                        rng,
                    );
                }
            }
        }
        if traced {
            sink.emit(RunEvent::PassBegin {
                pass,
                cut: partition.cut(),
                eligible,
            });
            if excluded_overweight > 0 {
                sink.emit(RunEvent::OverweightExcluded {
                    pass,
                    count: excluded_overweight,
                });
            }
        }

        let mut moves: Vec<(VertexId, usize, usize)> = Vec::new();
        let mut best_score = (balance.total_violation(partition), partition.cut());
        let mut best_prefix = 0usize;

        while let Some((v, to)) = self.select(partition, balance, containers) {
            let from = partition.part_of(v);
            // Lock v: remove its k-1 pending moves.
            for t in 0..k {
                if t != from && containers[from * k + t].contains(v) {
                    containers[from * k + t].remove(v);
                }
            }
            let cut_prev = partition.cut();
            self.apply_and_update(partition, v, to, containers, rng);
            moves.push((v, from, to));
            if traced {
                sink.emit(RunEvent::Move {
                    vertex: v.index() as u64,
                    gain: cut_prev as i64 - partition.cut() as i64,
                    cut: partition.cut(),
                });
            }
            if audit.is_paranoid()
                && partition.graph().num_vertices() <= PARANOID_MOVE_AUDIT_MAX_VERTICES
            {
                record_kway_audit(partition, None, audit_failure, sink);
            }
            let score = (balance.total_violation(partition), partition.cut());
            if score < best_score {
                best_score = score;
                best_prefix = moves.len();
            }

            // Mid-pass budget check; truncating is safe because the
            // best-prefix rollback below restores a coherent solution.
            if probe.stop_every().is_some() {
                break;
            }
        }

        let ended_with_leftovers = containers.iter().any(|c| !c.is_empty());
        let moves_made = moves.len();
        for &(v, from, _) in moves[best_prefix..].iter().rev() {
            partition.move_vertex(v, from);
            if traced {
                sink.emit(RunEvent::Rollback {
                    vertex: v.index() as u64,
                    cut: partition.cut(),
                });
            }
        }
        debug_assert_eq!(partition.cut(), best_score.1);
        if traced {
            let corked = ended_with_leftovers
                && eligible > 0
                && moves_made * CORKED_FRACTION.1 < eligible * CORKED_FRACTION.0;
            if corked {
                sink.emit(RunEvent::Corked {
                    pass,
                    moves_made,
                    eligible,
                });
            }
            sink.emit(RunEvent::PassEnd {
                pass,
                cut: partition.cut(),
                moves_made,
                moves_rolled_back: moves_made - best_prefix,
                leftovers: ended_with_leftovers,
                corked,
            });
        }
    }

    /// Picks the highest-gain legal head move across all (from, to)
    /// containers; gain ties go to the lowest container index
    /// (deterministic).
    fn select(
        &self,
        partition: &KWayPartition<'_>,
        balance: &KWayBalance,
        containers: &mut [GainContainer],
    ) -> Option<(VertexId, usize)> {
        let k = partition.num_parts();
        let mut best: Option<(i64, usize, VertexId)> = None;
        for from in 0..k {
            for to in 0..k {
                if from == to {
                    continue;
                }
                let idx = from * k + to;
                let container = &mut containers[idx];
                let Some(mut key) = container.descend_max() else {
                    continue;
                };
                // Head-only inspection of the non-empty buckets with
                // skip-bucket on illegal heads, bounded by the current best
                // (no point scanning below it).
                loop {
                    if let Some(floor) = best.map(|(g, _, _)| g) {
                        if key <= floor {
                            break;
                        }
                    }
                    if let Some(head) = container.head_of(key) {
                        if partition.part_of(head) == from
                            && balance.is_legal_move(partition, head, to)
                        {
                            best = Some((key, idx, head));
                            break;
                        }
                    }
                    let Some(next) = container.next_key_below(key) else {
                        break;
                    };
                    key = next;
                }
            }
        }
        best.map(|(_, idx, v)| (v, idx % k))
    }

    /// Applies the move and updates all affected pending-move gains with
    /// the generic cut-delta computation.
    fn apply_and_update<R: Rng>(
        &self,
        partition: &mut KWayPartition<'_>,
        v: VertexId,
        to: usize,
        containers: &mut [GainContainer],
        rng: &mut R,
    ) {
        let k = partition.num_parts();
        let from = partition.part_of(v);
        let graph = partition.graph();
        partition.move_vertex(v, to);

        for &e in graph.vertex_nets(v) {
            let w = i64::from(graph.net_weight(e));
            let lambda_after = partition.span(e) as i64;
            let from_after = partition.pins_in(e, from);
            let to_after = partition.pins_in(e, to);
            // Reconstruct the pre-move state of the two changed parts.
            let from_before = from_after + 1;
            let to_before = to_after - 1;
            let lambda_before =
                lambda_after + i64::from(from_after == 0) - i64::from(to_before == 0);

            for &y in graph.net_pins(e) {
                if y == v {
                    continue;
                }
                let s = partition.part_of(y);
                // Skip vertices locked or excluded this pass: their
                // pending moves are in no container.
                let probe = containers[s * k + ((s + 1) % k)].contains(y);
                if !probe {
                    continue;
                }
                let count =
                    |part: usize, changed_from: u32, changed_to: u32, default: u32| -> u32 {
                        if part == from {
                            changed_from
                        } else if part == to {
                            changed_to
                        } else {
                            default
                        }
                    };
                for t in 0..k {
                    if t == s {
                        continue;
                    }
                    let s_b = count(s, from_before, to_before, partition.pins_in(e, s));
                    let t_b = count(t, from_before, to_before, partition.pins_in(e, t));
                    let s_a = count(s, from_after, to_after, partition.pins_in(e, s));
                    let t_a = count(t, from_after, to_after, partition.pins_in(e, t));
                    let contrib = |lambda: i64, s_count: u32, t_count: u32| -> i64 {
                        let lambda_after_y =
                            lambda - i64::from(s_count == 1) + i64::from(t_count == 0);
                        w * (i64::from(lambda >= 2) - i64::from(lambda_after_y >= 2))
                    };
                    let delta = contrib(lambda_after, s_a, t_a) - contrib(lambda_before, s_b, t_b);
                    if delta != 0 {
                        let container = &mut containers[s * k + t];
                        let key = container.key_of(y);
                        container.update(y, key + delta, Self::INSERTION, rng);
                    }
                }
            }
        }
    }
}

/// Audits `partition` from scratch with the [`PartitionAuditor`],
/// emitting an `InvariantViolation` event and recording the first error.
/// Shared by the direct k-way engine and the recursive-bisection wrapper.
pub(crate) fn record_kway_audit<S: TraceSink + ?Sized>(
    partition: &KWayPartition<'_>,
    window: Option<(u64, u64)>,
    failure: &mut Option<AuditError>,
    sink: &S,
) {
    let k = partition.num_parts();
    let weights: Vec<u64> = (0..k).map(|p| partition.part_weight(p)).collect();
    let result = PartitionAuditor::audit_parts(
        partition.graph(),
        k,
        |v| partition.part_of(v),
        partition.cut(),
        &weights,
        window,
    );
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

/// Greedy balanced k-way initial solution: shuffle free vertices, assign
/// each to the lightest part; fixed vertices go to their fixed part
/// (interpreted as part index 0/1).
fn initial_kway<R: Rng>(h: &Hypergraph, k: usize, rng: &mut R) -> Vec<u16> {
    let mut assignment = vec![0u16; h.num_vertices()];
    let mut weight = vec![0u64; k];
    let mut free = Vec::with_capacity(h.num_vertices());
    for v in h.vertices() {
        match h.fixed_part(v) {
            Some(p) => {
                assignment[v.index()] = p.index() as u16;
                weight[p.index()] += h.vertex_weight(v);
            }
            None => free.push(v),
        }
    }
    free.shuffle(rng);
    for v in free {
        let lightest = match (0..k).min_by_key(|&p| weight[p]) {
            Some(p) => p,
            None => unreachable!("k >= 2"),
        };
        assignment[v.index()] = lightest as u16;
        weight[lightest] += h.vertex_weight(v);
    }
    assignment
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_benchgen::toys::{grid, two_clusters};
    use hypart_benchgen::{mcnc_like, random_hypergraph};

    #[test]
    fn four_clusters_found_exactly() {
        // Four cliques of 4, ring-bridged: optimal 4-way cut = 4.
        let mut b = hypart_hypergraph::HypergraphBuilder::new();
        let mut groups = Vec::new();
        for _ in 0..4 {
            let g: Vec<_> = (0..4).map(|_| b.add_vertex(1)).collect();
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_net([g[i], g[j]], 1).unwrap();
                }
            }
            groups.push(g);
        }
        for i in 0..4 {
            b.add_net([groups[i][0], groups[(i + 1) % 4][0]], 1)
                .unwrap();
        }
        let h = b.build().unwrap();
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.25);
        let best = (0..10u64)
            .map(|s| KWayFmPartitioner::new().run(&h, &balance, s))
            .filter(|o| o.is_balanced(&balance))
            .map(|o| o.cut)
            .min()
            .expect("runs");
        assert_eq!(best, 4);
    }

    #[test]
    fn outcomes_verify_against_scratch() {
        let h = mcnc_like(300, 3);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.20);
        let out = KWayFmPartitioner::new().run(&h, &balance, 7);
        let p = KWayPartition::new(&h, 4, out.assignment.clone());
        assert_eq!(p.cut(), out.cut);
        assert_eq!(p.recompute_cut(), out.cut);
        assert_eq!(p.recompute_lambda_minus_one(), out.lambda_minus_one);
        assert!(out.is_balanced(&balance));
    }

    #[test]
    fn refinement_never_worsens() {
        let h = random_hypergraph(80, 120, 5, 4, 11);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 3, 0.30);
        let mut rng = SmallRng::seed_from_u64(1);
        let assignment = initial_kway(&h, 3, &mut rng);
        let mut p = KWayPartition::new(&h, 3, assignment);
        let before = (balance.total_violation(&p), p.cut());
        KWayFmPartitioner::new().refine_with(&mut p, &balance, &mut rng, &mut RunCtx::new(0));
        let after = (balance.total_violation(&p), p.cut());
        assert!(after <= before);
        assert_eq!(p.cut(), p.recompute_cut());
    }

    #[test]
    fn k2_matches_two_way_quality_band() {
        let h = two_clusters(8, 3);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 2, 0.15);
        let best = (0..10u64)
            .map(|s| KWayFmPartitioner::new().run(&h, &balance, s).cut)
            .min()
            .expect("runs");
        assert_eq!(best, 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let h = grid(10, 10);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.20);
        let engine = KWayFmPartitioner::new();
        let a = engine.run(&h, &balance, 5);
        let b = engine.run(&h, &balance, 5);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.cut, b.cut);
    }

    #[test]
    fn fixed_vertices_stay_put() {
        use hypart_hypergraph::PartId;
        let h = mcnc_like(100, 9).with_fixed(hypart_hypergraph::VertexId::new(0), Some(PartId::P1));
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.30);
        let out = KWayFmPartitioner::new().run(&h, &balance, 1);
        assert_eq!(out.assignment[0], 1);
    }

    #[test]
    fn part_weights_sum_to_total() {
        let h = mcnc_like(200, 4);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 5, 0.25);
        let out = KWayFmPartitioner::new().run(&h, &balance, 3);
        assert_eq!(
            out.part_weights.iter().sum::<u64>(),
            h.total_vertex_weight()
        );
        assert_eq!(out.part_weights.len(), 5);
    }
}
