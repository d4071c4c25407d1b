//! Multilevel k-way partitioning: the hMetis-style combination of
//! coarsening with direct k-way FM refinement at every level — the
//! engine that closes the gap between flat direct k-way FM and recursive
//! bisection, and the natural implementation of the paper's §4 future
//! work.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::balance::KWayBalance;
use crate::fm::{record_kway_audit, KWayFmPartitioner, KWayOutcome};
use crate::partition::KWayPartition;
use hypart_core::{AuditError, RunCtx, StopReason};
use hypart_hypergraph::Hypergraph;
use hypart_ml::coarsen::{build_hierarchy_with, CoarsenConfig};
use hypart_trace::RunEvent;

/// A multilevel k-way partitioner.
///
/// Its one knob is the clustering schedule, a [`CoarsenConfig`] shared
/// with 2-way multilevel. The rest is fixed:
///
/// | decision | fixed value |
/// |----------|-------------|
/// | flat engine at every level | [`KWayFmPartitioner`] |
/// | [`INITIAL_TRIES`](Self::INITIAL_TRIES): seeded starts on the coarsest graph | `8` |
#[derive(Clone, Debug, Default)]
pub struct MlKWayPartitioner {
    coarsen: CoarsenConfig,
}

impl MlKWayPartitioner {
    /// Seeded initial k-way partitions tried on the coarsest graph (best
    /// kept).
    pub const INITIAL_TRIES: usize = 8;

    /// Creates a partitioner that coarsens with `coarsen`.
    pub fn new(coarsen: CoarsenConfig) -> Self {
        MlKWayPartitioner { coarsen }
    }

    /// Runs one multilevel k-way start on `h` from `seed`.
    ///
    /// Equivalent to [`run_with`](MlKWayPartitioner::run_with) with a
    /// default [`RunCtx`] (no sink, no deadline).
    pub fn run(&self, h: &Hypergraph, balance: &KWayBalance, seed: u64) -> KWayOutcome {
        self.run_with(h, balance, &mut RunCtx::new(seed))
    }

    /// The canonical run entry point: one multilevel k-way start under
    /// the context's sink, workspace, seed, and budget. One workspace
    /// serves every initial try and every level of the uncoarsening
    /// sweep: the k² gain-container grid is re-targeted in place instead
    /// of reallocated per engine invocation. On a budget stop, remaining
    /// refinement is skipped but the solution is still projected to the
    /// input graph, so the outcome is always a legal full-size partition.
    pub fn run_with(
        &self,
        h: &Hypergraph,
        balance: &KWayBalance,
        ctx: &mut RunCtx<'_>,
    ) -> KWayOutcome {
        let k = balance.num_parts();
        let base_seed = ctx.seed;
        let mut rng = SmallRng::seed_from_u64(base_seed);
        let engine = KWayFmPartitioner::new();

        let levels = build_hierarchy_with(h, &self.coarsen, None, &mut rng, &mut ctx.coarsen);
        if ctx.sink.is_enabled() {
            for (i, level) in levels.iter().enumerate() {
                ctx.sink.emit(RunEvent::LevelDown {
                    level: i + 1,
                    vertices: level.graph.num_vertices(),
                    nets: level.graph.num_nets(),
                });
            }
        }
        let coarsest: &Hypergraph = levels.last().map_or(h, |l| &l.graph);

        // Initial partitioning: several full engine runs on the coarsest
        // graph, best kept (lexicographic on violation then cut). The
        // first try always runs so the outcome is well-formed even with
        // an expired deadline; later tries are skipped once stopped.
        let mut best: Option<(u64, u64, Vec<u16>)> = None;
        let mut stopped = StopReason::Completed;
        let mut audit_failure: Option<AuditError> = None;
        for t in 0..Self::INITIAL_TRIES {
            ctx.seed = rng.gen::<u64>() ^ t as u64;
            let out = engine.run_with(coarsest, balance, ctx);
            let try_stop = out.stopped;
            if audit_failure.is_none() {
                audit_failure = out.audit_failure.clone();
            }
            let p = KWayPartition::new(coarsest, k, out.assignment);
            let score = (balance.total_violation(&p), p.cut());
            if best.as_ref().is_none_or(|(v, c, _)| score < (*v, *c)) {
                best = Some((score.0, score.1, p.into_assignment()));
            }
            if try_stop.is_stopped() {
                stopped = try_stop;
                break;
            }
        }
        ctx.seed = base_seed;
        let mut assignment = match best {
            Some((_, _, assignment)) => assignment,
            None => unreachable!("the first initial try always completes"),
        };

        // Uncoarsen: project level by level and refine with k-way FM.
        // Once stopped, projection continues but refinement is skipped.
        let mut total_passes = 0usize;
        for i in (0..=levels.len()).rev() {
            let graph: &Hypergraph = if i == 0 { h } else { &levels[i - 1].graph };
            if i < levels.len() {
                let mut fine = vec![0u16; graph.num_vertices()];
                for (fine_v, coarse_v) in levels[i].map.iter().enumerate() {
                    fine[fine_v] = assignment[coarse_v.index()];
                }
                assignment = fine;
            }
            if stopped.is_stopped() {
                continue;
            }
            if ctx.sink.is_enabled() {
                ctx.sink.emit(RunEvent::LevelUp {
                    level: i,
                    vertices: graph.num_vertices(),
                    nets: graph.num_nets(),
                });
            }
            let mut partition = KWayPartition::new(graph, k, assignment);
            let (passes, refine_stop) = engine.refine_with(&mut partition, balance, &mut rng, ctx);
            total_passes += passes;
            stopped = refine_stop;
            assignment = partition.into_assignment();
        }

        let partition = KWayPartition::new(h, k, assignment);
        // Final whole-run checkpoint on the input graph (per-level engine
        // audits are skipped entirely when the budget expires early).
        if ctx.audit().is_on() {
            let window = balance
                .is_satisfied(&partition)
                .then(|| (balance.lower(), balance.upper()));
            record_kway_audit(&partition, window, &mut audit_failure, ctx.sink);
        }
        KWayOutcome {
            num_parts: k,
            cut: partition.cut(),
            lambda_minus_one: partition.lambda_minus_one(),
            part_weights: (0..k).map(|p| partition.part_weight(p)).collect(),
            passes: total_passes,
            stopped,
            audit_failure,
            assignment: partition.into_assignment(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recursive_bisection;
    use hypart_benchgen::toys::grid;
    use hypart_benchgen::{ispd98_like, mcnc_like};
    use hypart_ml::MlConfig;

    #[test]
    fn quarters_a_grid_near_optimally() {
        let h = grid(16, 16);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.15);
        let out = MlKWayPartitioner::default().run(&h, &balance, 3);
        assert!(out.is_balanced(&balance));
        // Two straight cutlines cost 32; allow heuristic slack.
        assert!(out.cut <= 56, "cut {}", out.cut);
    }

    #[test]
    fn beats_flat_direct_kway_on_structured_instances() {
        let h = ispd98_like(1, 0.04, 9);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.20);
        let flat_avg: u64 = (0..3u64)
            .map(|s| KWayFmPartitioner::new().run(&h, &balance, s).cut)
            .sum::<u64>()
            / 3;
        let ml_avg: u64 = (0..3u64)
            .map(|s| MlKWayPartitioner::default().run(&h, &balance, s).cut)
            .sum::<u64>()
            / 3;
        assert!(
            ml_avg <= flat_avg,
            "multilevel k-way avg {ml_avg} should not exceed flat avg {flat_avg}"
        );
    }

    #[test]
    fn competitive_with_recursive_bisection() {
        let h = ispd98_like(2, 0.03, 5);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.20);
        let ml_kway = MlKWayPartitioner::default().run(&h, &balance, 4);
        let recursive = recursive_bisection(&h, 4, 0.20, &MlConfig::default(), 4);
        // Neither should be wildly worse than the other.
        assert!(
            ml_kway.cut <= recursive.cut.max(1) * 3,
            "ml-kway {} vs recursive {}",
            ml_kway.cut,
            recursive.cut
        );
    }

    #[test]
    fn verifies_and_is_deterministic() {
        let h = mcnc_like(500, 7);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 3, 0.25);
        let a = MlKWayPartitioner::default().run(&h, &balance, 11);
        let b = MlKWayPartitioner::default().run(&h, &balance, 11);
        assert_eq!(a.assignment, b.assignment);
        let p = KWayPartition::new(&h, 3, a.assignment.clone());
        assert_eq!(p.recompute_cut(), a.cut);
        assert!(a.is_balanced(&balance));
    }

    #[test]
    fn odd_k_supported() {
        // Unlike recursive bisection, multilevel k-way handles any k.
        let h = mcnc_like(300, 2);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 5, 0.30);
        let out = MlKWayPartitioner::default().run(&h, &balance, 1);
        assert_eq!(out.num_parts, 5);
        assert!(out.is_balanced(&balance));
    }
}
