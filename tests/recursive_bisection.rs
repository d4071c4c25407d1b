//! Recursive bisection at any k: fixed pads stay in their parts, the
//! per-level windows compose inside the k-way window, and a budget stop
//! still honours the pads.

use std::time::{Duration, Instant};

use hypart::benchgen::{mcnc_like, with_pad_ring};
use hypart::core::AuditLevel;
use hypart::prelude::*;

/// Checks that every fixed cell of `h` sits in the part of its side.
fn assert_pads_in_their_parts(h: &Hypergraph, assignment: &[u16], context: &str) {
    for v in h.vertices() {
        if let Some(side) = h.fixed_part(v) {
            assert_eq!(
                usize::from(assignment[v.index()]),
                side.index(),
                "{context}: pad {v:?}"
            );
        }
    }
}

/// A netlist with 20 pads, 10 fixed on each side, split at k = 2, 3, 4,
/// 5 and 8 under paranoid audit.
#[test]
fn pads_stay_in_their_parts_at_every_k() {
    let h = with_pad_ring(&mcnc_like(400, 3), 20, 1);
    assert_eq!(h.num_fixed(), 20);
    for k in [2, 3, 4, 5, 8] {
        let sink = MemorySink::new();
        let mut ctx = RunCtx::new(11)
            .with_audit(AuditLevel::Paranoid)
            .with_sink(&sink);
        let out = recursive_bisection_with(&h, k, 0.10, &MlConfig::ml_lifo(), &mut ctx);
        let context = format!("k = {k}");
        assert_pads_in_their_parts(&h, &out.assignment, &context);
        assert!(
            out.audit_failure.is_none(),
            "{context}: {:?}",
            out.audit_failure
        );
        assert!(
            !sink
                .events()
                .iter()
                .any(|e| matches!(e, RunEvent::InvariantViolation { .. })),
            "{context}"
        );
        let balance = KWayBalance::with_fraction(h.total_vertex_weight(), k, 0.10);
        assert!(
            out.is_balanced(&balance),
            "{context}: weights {:?} outside [{}, {}]",
            out.part_weights,
            balance.lower(),
            balance.upper()
        );
    }
}

/// Two seeds whose parts ended one cell over the 4-way window when each
/// level took fraction / log2 k, which compounds to (1 + f/2)² > 1 + f.
#[test]
fn per_level_windows_compose_inside_the_kway_window() {
    let h = mcnc_like(600, 1);
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.15);
    for seed in [0, 1] {
        let out = recursive_bisection(&h, 4, 0.15, &MlConfig::ml_lifo(), seed);
        assert!(
            out.is_balanced(&balance),
            "seed {seed}: weights {:?} outside [{}, {}]",
            out.part_weights,
            balance.lower(),
            balance.upper()
        );
    }
}

/// An expired budget stops after the first split; the unsplit regions
/// collapse onto their base parts, but every pad still lands in its own.
#[test]
fn expired_budget_still_keeps_pads_in_their_parts() {
    let h = with_pad_ring(&mcnc_like(400, 3), 20, 1);
    let mut ctx = RunCtx::new(5).with_deadline(Instant::now() - Duration::from_millis(1));
    let out = recursive_bisection_with(&h, 4, 0.10, &MlConfig::ml_lifo(), &mut ctx);
    assert_eq!(out.stopped, StopReason::Deadline);
    assert_pads_in_their_parts(&h, &out.assignment, "expired budget");
}
