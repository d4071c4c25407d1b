//! Recursive min-cut bisection into k parts.
//!
//! The classical k-way method (and the one every top-down placer uses):
//! recursively apply a strong 2-way multilevel partitioner. A region that
//! must end up in `p` parts splits into ⌈p/2⌉ and ⌊p/2⌋ parts, so any
//! `k ≥ 2` takes ⌈log2 k⌉ levels of splits.

use hypart_core::{AuditError, BalanceConstraint, PartitionAuditor, RunCtx, StopReason};
use hypart_hypergraph::{Hypergraph, HypergraphBuilder, PartId, VertexId};
use hypart_ml::{MlConfig, MlPartitioner};
use hypart_trace::{RunEvent, TraceSink};

use crate::balance::KWayBalance;
use crate::partition::KWayPartition;

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
    /// Why the run ended ([`StopReason::Completed`] unless the context's
    /// budget ran out or its token was cancelled).
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

/// Recursively bisects `h` into `k` parts with the 2-way multilevel
/// partitioner, so that every part lies inside
/// `KWayBalance::with_fraction(total, k, fraction)`'s window.
///
/// Equivalent to [`recursive_bisection_with`] with a default [`RunCtx`]
/// (no sink, no deadline).
///
/// # Panics
///
/// Panics if `k < 2`.
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
/// context's sink, workspace, seed, and budget.
///
/// A cell fixed on side `s` of the input (`PartId::P0`/`P1`) ends in part
/// `s`: each split fixes it toward the child region that holds that part.
/// On a budget stop the remaining regions are still assigned (each
/// unsplit region collapses onto its base part, its fixed cells onto
/// their own), so the outcome is always a legal full-size k-way
/// partition — possibly with empty parts.
///
/// # Panics
///
/// Panics if `k < 2`.
pub fn recursive_bisection_with(
    h: &Hypergraph,
    k: usize,
    fraction: f64,
    ml_config: &MlConfig,
    ctx: &mut RunCtx<'_>,
) -> KWayOutcome {
    assert!(k >= 2, "k must be at least 2, got {k}");
    let ml = MlPartitioner::new(ml_config.clone());
    let base_seed = ctx.seed;
    let mut probe = ctx.probe();
    let mut stopped = StopReason::Completed;
    // Every part must end inside the k-way window [lo, hi]. See the
    // tolerance of each split below.
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), k, fraction);
    let (lo, hi) = (balance.lower() as f64, balance.upper() as f64);

    let mut assignment = vec![0u16; h.num_vertices()];
    // Collapses a region onto its base part; a fixed cell goes to its own
    // part, which the splits above kept inside the region.
    let mut collapse = |cells: &[VertexId], base: usize| {
        for &v in cells {
            assignment[v.index()] = h.fixed_part(v).map_or(base, PartId::index) as u16;
        }
    };
    // Work list: (cells of the region, base part index, parts to split into).
    let mut stack: Vec<(Vec<VertexId>, usize, usize)> = vec![(h.vertices().collect(), 0, k)];
    let mut next_seed = base_seed;
    let mut first_split = true;
    let mut audit_failure: Option<AuditError> = None;

    while let Some((cells, base, parts)) = stack.pop() {
        if parts == 1 || cells.is_empty() || stopped.is_stopped() {
            collapse(&cells, base);
            continue;
        }
        // Check the budget between splits (the first split always runs so
        // the outcome is a genuine bisection even with an expired budget).
        if !first_split {
            if let Some(reason) = probe.stop_now() {
                stopped = reason;
                collapse(&cells, base);
                continue;
            }
        }
        first_split = false;
        let (k0, k1) = (parts.div_ceil(2), parts / 2);
        // An odd region pads the smaller side (see `region_instance`).
        let weight: u64 = cells.iter().map(|&v| h.vertex_weight(v)).sum();
        let pad = (weight as f64 * (k0 - k1) as f64 / parts as f64).round() as u64;
        let sub = region_instance(h, &cells, base + k0, pad);
        // A part of this region is at most ⌈log2 p⌉ splits deep, and a
        // split may scale a child's mean part weight by 1 ± g. Use the
        // largest g for which both (1 + g)^levels and (1 − g)^levels keep
        // the region's mean part weight `avg` inside [lo, hi]. At the top
        // that is about (1 + fraction)^(1/⌈log2 k⌉) − 1; below, the slack
        // the splits above left unused goes to the levels that remain (the
        // adaptive imbalance of Schlag et al.). The window's slack is a
        // share of side 0's target, so scaling it by k1/k0 gives the
        // smaller side a relative slack of g as well.
        let levels = f64::from(usize::BITS - (parts - 1).leading_zeros());
        let avg = weight as f64 / parts as f64;
        let up = ((hi / avg).ln() / levels).exp_m1();
        let down = -((lo / avg).ln() / levels).exp_m1();
        let tolerance = (up.min(down).max(0.0) * k1 as f64 / k0 as f64).min(1.0);
        let constraint = BalanceConstraint::with_fraction(sub.total_vertex_weight(), tolerance);
        ctx.seed = next_seed;
        let out = ml.run_with(&sub, &constraint, ctx);
        if out.stopped.is_stopped() {
            stopped = out.stopped;
        }
        if audit_failure.is_none() {
            audit_failure = out.audit_failure.clone();
        }
        next_seed = next_seed.wrapping_add(0x9E37_79B9);

        // The pad, if any, is the vertex after the region's cells.
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (&orig, &side) in cells.iter().zip(&out.assignment) {
            match side {
                PartId::P0 => left.push(orig),
                PartId::P1 => right.push(orig),
            }
        }
        stack.push((left, base, k0));
        stack.push((right, base + k0, k1));
    }
    ctx.seed = base_seed;

    let partition = KWayPartition::new(h, k, assignment);
    // Final whole-partition checkpoint: the recursion's bookkeeping lives
    // in per-region instances, so re-verify the assembled k-way result on
    // the input graph from scratch.
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
        stopped,
        audit_failure,
        assignment: partition.into_assignment(),
    }
}

/// The 2-way instance of one split of a region whose second child's
/// parts start at `split`:
///
/// * the region's cells, in order, with their weights;
/// * each net restricted to its pins in the region (nets left with fewer
///   than two pins are dropped: they can never be cut);
/// * each fixed cell fixed on side 0 if its part is below `split`, else
///   on side 1;
/// * if `pad > 0`, the pad: a last vertex of weight `pad`, without nets,
///   fixed on side 1.
///
/// A region of W weight and p parts, p odd, splits into ⌈p/2⌉ and
/// ⌊p/2⌋ parts with a pad of round(W/p): the symmetric 2-way window then
/// centres side 0 on W·⌈p/2⌉/p, the first child's fair share.
fn region_instance(h: &Hypergraph, cells: &[VertexId], split: usize, pad: u64) -> Hypergraph {
    let mut index_of = vec![u32::MAX; h.num_vertices()];
    let mut builder = HypergraphBuilder::with_capacity(cells.len() + 1, cells.len());
    for (i, &v) in cells.iter().enumerate() {
        index_of[v.index()] = i as u32;
        let sub_v = builder.add_vertex(h.vertex_weight(v));
        if let Some(p) = h.fixed_part(v) {
            let side = if p.index() < split {
                PartId::P0
            } else {
                PartId::P1
            };
            builder.fix_vertex(sub_v, side);
        }
    }
    let mut seen = vec![false; h.num_nets()];
    for &v in cells {
        for &e in h.vertex_nets(v) {
            if std::mem::replace(&mut seen[e.index()], true) {
                continue;
            }
            let pins: Vec<VertexId> = h
                .net_pins(e)
                .iter()
                .filter(|p| index_of[p.index()] != u32::MAX)
                .map(|p| VertexId::new(index_of[p.index()]))
                .collect();
            if pins.len() >= 2 {
                if let Err(err) = builder.add_net(pins, h.net_weight(e)) {
                    unreachable!("region pins are distinct region vertices: {err}");
                }
            }
        }
    }
    if pad > 0 {
        let pad = builder.add_vertex(pad);
        builder.fix_vertex(pad, PartId::P1);
    }
    match builder.build() {
        Ok(sub) => sub,
        Err(e) => unreachable!("a region instance is a valid hypergraph: {e}"),
    }
}

/// Audits `partition` from scratch with the [`PartitionAuditor`],
/// emitting an `InvariantViolation` event and recording the first error.
fn record_kway_audit(
    partition: &KWayPartition<'_>,
    window: Option<(u64, u64)>,
    failure: &mut Option<AuditError>,
    sink: &dyn TraceSink,
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

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_benchgen::mcnc_like;
    use hypart_benchgen::toys::grid;
    use hypart_hypergraph::NetId;

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
        for k in [3, 8] {
            let out = recursive_bisection(&h, k, 0.3, &MlConfig::default(), 3);
            let part_of = |v: VertexId| usize::from(out.assignment[v.index()]);
            PartitionAuditor::audit_parts(&h, k, part_of, out.cut, &out.part_weights, None)
                .unwrap();
        }
    }

    #[test]
    fn all_parts_nonempty_on_reasonable_instances() {
        let h = mcnc_like(600, 2);
        for k in [4, 5, 6, 7] {
            let out = recursive_bisection(&h, k, 0.2, &MlConfig::default(), 9);
            for (p, &w) in out.part_weights.iter().enumerate() {
                assert!(w > 0, "k = {k}: part {p} is empty");
            }
        }
    }

    /// The pad of a 3-part region of 36 cells: 12, fixed on side 1, so
    /// the symmetric window centres side 0 on 24 = 2/3 of the cells.
    #[test]
    fn uneven_split_pads_the_smaller_side() {
        let h = grid(6, 6);
        let cells: Vec<VertexId> = h.vertices().collect();
        let sub = region_instance(&h, &cells, 2, 12);
        assert_eq!(sub.num_vertices(), 37);
        assert_eq!(sub.num_nets(), h.num_nets());
        let pad = VertexId::new(36);
        assert_eq!(sub.vertex_weight(pad), 12);
        assert_eq!(sub.fixed_part(pad), Some(PartId::P1));
        assert!(sub.vertex_nets(pad).is_empty());
        assert_eq!(sub.total_vertex_weight() / 2, 24);
    }

    /// A region keeps the nets with two or more pins inside it and fixes
    /// each fixed cell toward the child that holds its part.
    #[test]
    fn region_restricts_nets_and_retargets_fixed_cells() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (1..=5).map(|w| b.add_vertex(w)).collect();
        b.add_net([v[0], v[1], v[4]], 2).unwrap();
        b.add_net([v[1], v[4]], 1).unwrap();
        b.add_net([v[2], v[3]], 1).unwrap();
        b.fix_vertex(v[0], PartId::P0);
        b.fix_vertex(v[1], PartId::P1);
        let h = b.build().unwrap();
        // Parts 0 and 1 both lie in the first child of a 4-part region.
        let sub = region_instance(&h, &v[..4], 2, 0);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(sub.total_vertex_weight(), 10);
        assert_eq!(sub.num_nets(), 2);
        assert_eq!(
            sub.net_pins(NetId::new(0)),
            [VertexId::new(0), VertexId::new(1)]
        );
        assert_eq!(sub.net_weight(NetId::new(0)), 2);
        assert_eq!(
            sub.net_pins(NetId::new(1)),
            [VertexId::new(2), VertexId::new(3)]
        );
        assert_eq!(sub.fixed_part(VertexId::new(0)), Some(PartId::P0));
        assert_eq!(sub.fixed_part(VertexId::new(1)), Some(PartId::P0));
        // In a 2-part region, part 1 is the second child.
        let sub = region_instance(&h, &v[..4], 1, 0);
        assert_eq!(sub.fixed_part(VertexId::new(1)), Some(PartId::P1));
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn k_below_two_panics() {
        let h = grid(4, 4);
        let _ = recursive_bisection(&h, 1, 0.2, &MlConfig::default(), 0);
    }
}
