//! Recursive min-cut bisection into k parts.
//!
//! The classical alternative to direct k-way FM (and the approach every
//! top-down placer uses): recursively apply a strong 2-way multilevel
//! partitioner. Supported for `k` a power of two, where every split is a
//! balanced bisection.

use hypart_core::{AuditError, BalanceConstraint, RunCtx, StopReason};
use hypart_hypergraph::subgraph::induce;
use hypart_hypergraph::{Hypergraph, PartId, VertexId};
use hypart_ml::{MlConfig, MlPartitioner};

use crate::balance::KWayBalance;
use crate::fm::{record_kway_audit, KWayOutcome};

/// Recursively bisects `h` into `k` parts (k a power of two) with the
/// 2-way multilevel partitioner, using balance `fraction` at each split.
/// Returns a [`KWayOutcome`] comparable with the direct k-way engine's.
///
/// Equivalent to [`recursive_bisection_with`] with a default [`RunCtx`]
/// (no sink, no deadline).
///
/// # Panics
///
/// Panics if `k < 2` or `k` is not a power of two.
pub fn recursive_bisection(
    h: &Hypergraph,
    k: usize,
    fraction: f64,
    ml_config: &MlConfig,
    seed: u64,
) -> KWayOutcome {
    recursive_bisection_with(h, k, fraction, ml_config, &mut RunCtx::new(seed))
}

/// The canonical recursive-bisection entry point: splits under the
/// context's sink, workspace, seed, and budget. On a budget stop the
/// remaining regions are still assigned (each unsplit region collapses
/// onto its base part), so the outcome is always a legal full-size
/// k-way partition — possibly with empty high-index parts.
///
/// # Panics
///
/// Panics if `k < 2` or `k` is not a power of two.
pub fn recursive_bisection_with(
    h: &Hypergraph,
    k: usize,
    fraction: f64,
    ml_config: &MlConfig,
    ctx: &mut RunCtx<'_>,
) -> KWayOutcome {
    assert!(k >= 2, "k must be at least 2, got {k}");
    assert!(
        k.is_power_of_two(),
        "recursive bisection needs k = 2^m, got {k}"
    );
    let ml = MlPartitioner::new(ml_config.clone());
    let base_seed = ctx.seed;
    let mut probe = ctx.probe();
    let mut stopped = StopReason::Completed;

    let mut assignment = vec![0u16; h.num_vertices()];
    // Work list: (cells of the region, base part index, parts to split into).
    let mut stack: Vec<(Vec<VertexId>, usize, usize)> = vec![(h.vertices().collect(), 0, k)];
    let mut next_seed = base_seed;
    let mut first_split = true;
    let mut audit_failure: Option<AuditError> = None;

    while let Some((cells, base, parts)) = stack.pop() {
        if parts == 1 || cells.is_empty() || stopped.is_stopped() {
            for &v in &cells {
                assignment[v.index()] = base as u16;
            }
            continue;
        }
        // Check the budget between splits (the first split always runs so
        // the outcome is a genuine bisection even with an expired budget).
        if !first_split {
            if let Some(reason) = probe.stop_now() {
                stopped = reason;
                for &v in &cells {
                    assignment[v.index()] = base as u16;
                }
                continue;
            }
        }
        first_split = false;
        let sub = induce(h, &cells).graph;
        // At each split the per-side tolerance must tighten so the final
        // k-way windows hold: use fraction / log2(k) per level, the
        // standard conservative schedule.
        let levels = k.trailing_zeros() as f64;
        let per_level = (fraction / levels).max(0.005);
        let constraint = BalanceConstraint::with_fraction(sub.total_vertex_weight(), per_level);
        ctx.seed = next_seed;
        let out = ml.run_with(&sub, &constraint, ctx);
        if out.stopped.is_stopped() {
            stopped = out.stopped;
        }
        if audit_failure.is_none() {
            audit_failure = out.audit_failure.clone();
        }
        next_seed = next_seed.wrapping_add(0x9E37_79B9);

        let mut left = Vec::new();
        let mut right = Vec::new();
        for (i, &orig) in cells.iter().enumerate() {
            match out.assignment[i] {
                PartId::P0 => left.push(orig),
                PartId::P1 => right.push(orig),
            }
        }
        stack.push((left, base, parts / 2));
        stack.push((right, base + parts / 2, parts / 2));
    }
    ctx.seed = base_seed;

    let partition = crate::partition::KWayPartition::new(h, k, assignment);
    // Final whole-partition checkpoint: the recursion's bookkeeping lives
    // in per-region subgraphs, so re-verify the assembled k-way result on
    // the input graph from scratch.
    if ctx.audit().is_on() {
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), k, fraction);
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
        passes: 0,
        stopped,
        audit_failure,
        assignment: partition.into_assignment(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KWayBalance, KWayFmPartitioner};
    use hypart_benchgen::toys::grid;
    use hypart_benchgen::{ispd98_like, mcnc_like};

    #[test]
    fn splits_grid_into_four_quadrants_cheaply() {
        let h = grid(12, 12);
        let out = recursive_bisection(&h, 4, 0.2, &MlConfig::default(), 1);
        assert_eq!(out.num_parts, 4);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.2);
        assert!(out.is_balanced(&balance));
        // A 12x12 grid quartered cuts about 2 cutlines of 12 each.
        assert!(out.cut <= 40, "cut {}", out.cut);
    }

    #[test]
    fn outcome_verifies_against_scratch() {
        let h = mcnc_like(400, 5);
        let out = recursive_bisection(&h, 8, 0.3, &MlConfig::default(), 3);
        let p = crate::KWayPartition::new(&h, 8, out.assignment.clone());
        assert_eq!(p.cut(), out.cut);
        assert_eq!(p.recompute_lambda_minus_one(), out.lambda_minus_one);
    }

    #[test]
    fn all_parts_nonempty_on_reasonable_instances() {
        let h = mcnc_like(600, 2);
        let out = recursive_bisection(&h, 4, 0.2, &MlConfig::default(), 9);
        for (p, &w) in out.part_weights.iter().enumerate() {
            assert!(w > 0, "part {p} is empty");
        }
    }

    #[test]
    fn recursive_bisection_competes_with_direct_kway() {
        // The classical comparison: on structured instances recursive
        // ML-bisection should be at least competitive with flat direct
        // k-way FM.
        let h = ispd98_like(1, 0.03, 21);
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.3);
        let recursive = recursive_bisection(&h, 4, 0.3, &MlConfig::default(), 2);
        let direct = KWayFmPartitioner::new().run(&h, &balance, 2);
        assert!(
            recursive.cut <= direct.cut * 2,
            "recursive {} vs direct {}",
            recursive.cut,
            direct.cut
        );
    }

    #[test]
    #[should_panic(expected = "2^m")]
    fn non_power_of_two_panics() {
        let h = grid(4, 4);
        let _ = recursive_bisection(&h, 3, 0.2, &MlConfig::default(), 0);
    }
}
