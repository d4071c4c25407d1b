//! Independent checks of every result the benchmark times.
//!
//! Both checks go through [`PartitionAuditor`], which recomputes cut and
//! part weights from the raw hypergraph, and both compare against the
//! cut the engine *reported*, so a result whose assignment and cut
//! disagree is caught even when the assignment alone looks legal.

use hypart_core::{BalanceConstraint, Bisection, PartitionAuditor, StopReason};
use hypart_hypergraph::{Hypergraph, PartId};
use hypart_kway::{KWayBalance, KWayOutcome};
use hypart_ml::MlOutcome;

/// Checks a 2-way outcome's own flags: a run that stopped early, ended
/// unbalanced or tripped an audit is a failed op.
pub fn claims(out: &MlOutcome) -> Result<(), String> {
    if out.stopped != StopReason::Completed {
        return Err(format!("stopped: {}", out.stopped.name()));
    }
    if !out.balanced {
        return Err("unbalanced result".to_string());
    }
    match &out.audit_failure {
        Some(e) => Err(format!("audit: {e}")),
        None => Ok(()),
    }
}

/// Checks a 2-way result: the assignment's recomputed cut equals
/// `reported_cut` and both sides sit inside the balance window.
pub fn bisection(
    h: &Hypergraph,
    assignment: Vec<PartId>,
    reported_cut: u64,
    constraint: &BalanceConstraint,
) -> Result<(), String> {
    let bisection = Bisection::new(h, assignment).map_err(|e| format!("assignment: {e}"))?;
    if bisection.cut() != reported_cut {
        return Err(format!(
            "reported cut {reported_cut}, assignment cuts {}",
            bisection.cut()
        ));
    }
    let window = (constraint.lower(), constraint.upper());
    PartitionAuditor::audit_bisection(&bisection, Some(window)).map_err(|e| e.to_string())
}

/// A 2-way assignment off the wire (one `u16` part per vertex) as sides;
/// any part but 0 and 1 is an error.
pub fn two_way_sides(assignment: &[u16]) -> Result<Vec<PartId>, String> {
    assignment
        .iter()
        .map(|&p| match p {
            0 => Ok(PartId::P0),
            1 => Ok(PartId::P1),
            other => Err(format!("part {other} in a 2-way assignment")),
        })
        .collect()
}

/// Checks a k-way result: every part index is in range, and the
/// recomputed cut and part weights match the reported ones; when the
/// result claims balance, also that every part sits inside the window.
pub fn kway(h: &Hypergraph, out: &KWayOutcome, balance: &KWayBalance) -> Result<(), String> {
    let k = out.num_parts;
    if out.assignment.len() != h.num_vertices() {
        return Err(format!(
            "assignment has {} entries for {} vertices",
            out.assignment.len(),
            h.num_vertices()
        ));
    }
    if let Some(&p) = out.assignment.iter().find(|&&p| usize::from(p) >= k) {
        return Err(format!("part {p} out of range for k = {k}"));
    }
    let window = out
        .is_balanced(balance)
        .then(|| (balance.lower(), balance.upper()));
    PartitionAuditor::audit_parts(
        h,
        k,
        |v| usize::from(out.assignment[v.index()]),
        out.cut,
        &out.part_weights,
        window,
    )
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypart_benchgen::ispd98_like;
    use hypart_core::RunCtx;
    use hypart_kway::recursive_bisection_with;
    use hypart_ml::{MlConfig, MlPartitioner};

    #[test]
    fn an_engine_result_passes_and_a_tampered_one_fails() {
        let h = ispd98_like(1, 0.02, 3);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.1);
        let out = MlPartitioner::new(MlConfig::ml_lifo()).run(&h, &c, 5);
        assert_eq!(bisection(&h, out.assignment.clone(), out.cut, &c), Ok(()));

        let tampered = vec![PartId::P0; h.num_vertices()];
        assert!(bisection(&h, tampered, out.cut, &c).is_err());
        assert!(bisection(&h, out.assignment, out.cut + 1, &c).is_err());
    }

    #[test]
    fn a_tampered_kway_assignment_fails() {
        let h = ispd98_like(1, 0.02, 4);
        let ml = MlConfig::ml_lifo();
        let mut out = recursive_bisection_with(&h, 4, 0.1, &ml, &mut RunCtx::new(2));
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.1);
        assert_eq!(kway(&h, &out, &balance), Ok(()));

        // Everything in part 0: the reported cut and weights no longer
        // match the assignment.
        out.assignment.iter_mut().for_each(|p| *p = 0);
        assert!(kway(&h, &out, &balance).is_err());
        out.assignment[0] = 7;
        assert!(kway(&h, &out, &balance).is_err());
    }
}
