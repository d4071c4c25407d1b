//! Paranoid-audit soak: every engine, per-move independent verification.
//!
//! `AuditLevel::Paranoid` recomputes cut / balance / fixed-vertex
//! invariants from scratch after every accepted move (on instances small
//! enough to afford it) and at every checkpoint. A clean run is strong
//! evidence the incremental gain/cut bookkeeping matches the ground
//! truth; any divergence surfaces as an `InvariantViolation` trace event
//! and a typed `AuditError` on the outcome.

use hypart::benchgen;
use hypart::core::{AuditLevel, BalanceConstraint, FmConfig, FmPartitioner, RunCtx};
use hypart::hypergraph::{Hypergraph, HypergraphBuilder};
use hypart::kway::recursive_bisection_with;
use hypart::ml::{multi_start_with, MlConfig, MlPartitioner, MultiStartPlan};
use hypart::trace::{MemorySink, RunEvent, TraceSink};

fn instances() -> Vec<(&'static str, Hypergraph)> {
    vec![
        ("toy", benchgen::mcnc_like(120, 11)),
        ("ispd98-profile", benchgen::ispd98_like(1, 0.015, 3)),
        ("macro-heavy", macro_heavy(256, 50_000)),
    ]
}

/// A chain of `n` unit cells plus one net of weight `heavy` on four
/// spread-out cells: the gain containers span ~`2 * heavy` (classic) to
/// ~`4 * heavy` (CLIP) buckets while a pass moves at most `n` cells, the
/// widest gain range any test runs.
fn macro_heavy(n: usize, heavy: u32) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
    for i in 0..n - 1 {
        b.add_net([v[i], v[i + 1]], 1).unwrap();
    }
    b.add_net([v[0], v[n / 4], v[n / 2], v[3 * n / 4]], heavy)
        .unwrap();
    b.build().unwrap()
}

fn violations(sink: &MemorySink) -> Vec<RunEvent> {
    sink.events()
        .into_iter()
        .filter(|e| matches!(e, RunEvent::InvariantViolation { .. }))
        .collect()
}

fn paranoid_ctx<'a>(seed: u64, sink: &'a dyn TraceSink) -> RunCtx<'a> {
    RunCtx::new(seed)
        .with_audit(AuditLevel::Paranoid)
        .with_sink(sink)
}

#[test]
fn flat_lifo_fm_is_paranoid_clean() {
    for (name, h) in instances() {
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.1);
        let sink = MemorySink::new();
        let out =
            FmPartitioner::new(FmConfig::lifo()).run_with(&h, &c, &mut paranoid_ctx(7, &sink));
        assert!(
            out.stats.audit_failure.is_none(),
            "{name}: {:?}",
            out.stats.audit_failure
        );
        assert!(violations(&sink).is_empty(), "{name}");
    }
}

#[test]
fn flat_clip_fm_is_paranoid_clean() {
    for (name, h) in instances() {
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.1);
        let sink = MemorySink::new();
        let out =
            FmPartitioner::new(FmConfig::clip()).run_with(&h, &c, &mut paranoid_ctx(13, &sink));
        assert!(
            out.stats.audit_failure.is_none(),
            "{name}: {:?}",
            out.stats.audit_failure
        );
        assert!(violations(&sink).is_empty(), "{name}");
    }
}

#[test]
fn multilevel_is_paranoid_clean() {
    for (name, h) in instances() {
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.1);
        let sink = MemorySink::new();
        let out =
            MlPartitioner::new(MlConfig::ml_lifo()).run_with(&h, &c, &mut paranoid_ctx(5, &sink));
        assert!(
            out.audit_failure.is_none(),
            "{name}: {:?}",
            out.audit_failure
        );
        assert!(violations(&sink).is_empty(), "{name}");
    }
}

#[test]
fn multi_start_driver_is_paranoid_clean() {
    let h = benchgen::mcnc_like(150, 2);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.1);
    let sink = MemorySink::new();
    let ml = MlPartitioner::new(MlConfig::default());
    let out = multi_start_with(
        &ml,
        &h,
        &c,
        &MultiStartPlan::count(4, 1),
        &mut paranoid_ctx(9, &sink),
    );
    assert!(out.audit_failure.is_none(), "{:?}", out.audit_failure);
    assert_eq!(out.failed_starts(), 0);
    assert!(violations(&sink).is_empty());
}

#[test]
fn recursive_bisection_is_paranoid_clean() {
    let h = benchgen::mcnc_like(160, 6);
    let sink = MemorySink::new();
    let out = recursive_bisection_with(
        &h,
        4,
        0.2,
        &MlConfig::ml_lifo(),
        &mut paranoid_ctx(17, &sink),
    );
    assert!(out.audit_failure.is_none(), "{:?}", out.audit_failure);
    assert!(violations(&sink).is_empty());
}

/// The n-level backend under paranoid audit: the per-uncontraction cut
/// re-verification plus the final independent bisection audit must both
/// come back clean, for the 2-way engine, V-cycling, and k-way recursive
/// bisection alike.
#[test]
fn nlevel_engine_is_paranoid_clean() {
    use hypart::core::EngineKind;
    let config = MlConfig::default().with_engine(EngineKind::NLevel);
    for (name, h) in instances() {
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.1);
        let sink = MemorySink::new();
        let partitioner = MlPartitioner::new(config.clone());
        let out = partitioner.run_with(&h, &c, &mut paranoid_ctx(5, &sink));
        assert!(
            out.audit_failure.is_none(),
            "{name}: {:?}",
            out.audit_failure
        );
        assert!(violations(&sink).is_empty(), "{name}");

        let vsink = MemorySink::new();
        let vout = partitioner.vcycle_with(&h, &c, &out.assignment, &mut paranoid_ctx(5, &vsink));
        assert!(
            vout.audit_failure.is_none(),
            "{name} vcycle: {:?}",
            vout.audit_failure
        );
        assert!(vout.cut <= out.cut, "{name}: V-cycle worsened the cut");
        assert!(violations(&vsink).is_empty(), "{name} vcycle");
    }

    let h = benchgen::mcnc_like(160, 6);
    let sink = MemorySink::new();
    let out = recursive_bisection_with(&h, 4, 0.2, &config, &mut paranoid_ctx(17, &sink));
    assert!(out.audit_failure.is_none(), "{:?}", out.audit_failure);
    assert!(violations(&sink).is_empty());
}

/// `Off` is the default and must emit nothing: a traced run with the
/// default context is bitwise-identical to one that never heard of the
/// auditor (the golden-trace suite depends on this).
#[test]
fn audit_off_adds_no_events() {
    let h = benchgen::mcnc_like(120, 11);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.1);

    let plain = MemorySink::new();
    FmPartitioner::new(FmConfig::lifo()).run_with(&h, &c, &mut RunCtx::new(7).with_sink(&plain));

    let off = MemorySink::new();
    FmPartitioner::new(FmConfig::lifo()).run_with(
        &h,
        &c,
        &mut RunCtx::new(7).with_audit(AuditLevel::Off).with_sink(&off),
    );
    assert_eq!(plain.events(), off.events());
}
