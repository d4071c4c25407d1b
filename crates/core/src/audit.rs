//! Independent invariant auditing and deterministic fault injection.
//!
//! The paper's thesis is that *silent* implementation decisions corrupt
//! experimental conclusions (§2.2–2.3). A gain-bookkeeping bug is the
//! silent decision nobody made: the engine would keep reporting legal
//! cuts that are simply wrong, and every downstream table would inherit
//! the error. The [`PartitionAuditor`] closes that hole by recomputing
//! cut, part areas, balance legality, and fixed-vertex respect **from
//! scratch** — walking the raw hypergraph and the assignment, sharing no
//! bookkeeping with the incremental hot path — and comparing against what
//! the engine claims.
//!
//! Auditing is opt-in via [`AuditLevel`] on
//! [`RunCtx`](crate::RunCtx): `Off` (the default) does zero work and
//! emits zero events, `Checkpoints` verifies at pass/level/start
//! boundaries, and `Paranoid` adds per-move cut verification on small
//! instances plus gain-container key checks at pass seeding.
//!
//! [`FaultPlan`] is the other half of the robustness story: a
//! deterministic description of a fault to inject (a panicking start or
//! parallel refinement shard), so the degradation paths are exercised
//! in CI rather than assumed.

use std::error::Error;
use std::fmt;

use hypart_hypergraph::{Hypergraph, PartId, VertexId};

use crate::bisection::Bisection;

/// How much independent verification runs during a partitioning run.
///
/// | Level | Work | When it fires |
/// |---|---|---|
/// | `Off` | none — zero events, zero overhead | never (default) |
/// | `Checkpoints` | full from-scratch audit | pass / level / start boundaries |
/// | `Paranoid` | `Checkpoints` + per-move cut recompute on small instances + gain-key checks at pass seeding | every boundary and every move |
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum AuditLevel {
    /// No auditing at all. Golden trace streams are bitwise-unchanged.
    #[default]
    Off,
    /// Audit at pass, level, and start boundaries.
    Checkpoints,
    /// Audit boundaries *and* every tentative move (cut recompute is
    /// restricted to instances of at most
    /// [`PARANOID_MOVE_AUDIT_MAX_VERTICES`] vertices to keep runs
    /// tractable), plus gain-container key consistency at pass seeding.
    Paranoid,
}

/// Largest instance (in vertices) on which `Paranoid` recomputes the cut
/// after every tentative move. Above this, `Paranoid` still audits every
/// boundary and every pass seeding.
pub const PARANOID_MOVE_AUDIT_MAX_VERTICES: usize = 4096;

impl AuditLevel {
    /// `true` unless auditing is off.
    pub fn is_on(self) -> bool {
        self != AuditLevel::Off
    }

    /// `true` for the per-move level.
    pub fn is_paranoid(self) -> bool {
        self == AuditLevel::Paranoid
    }

    /// Stable lowercase name (what the CLI `--audit` flag accepts).
    pub fn name(self) -> &'static str {
        match self {
            AuditLevel::Off => "off",
            AuditLevel::Checkpoints => "checkpoints",
            AuditLevel::Paranoid => "paranoid",
        }
    }

    /// Parses a [`name`](AuditLevel::name) back.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown level.
    pub fn parse(s: &str) -> Result<AuditLevel, String> {
        match s {
            "off" => Ok(AuditLevel::Off),
            "checkpoints" => Ok(AuditLevel::Checkpoints),
            "paranoid" => Ok(AuditLevel::Paranoid),
            other => Err(format!(
                "unknown audit level `{other}` (expected off, checkpoints, or paranoid)"
            )),
        }
    }
}

/// A discrepancy between the engine's incremental bookkeeping and the
/// auditor's independent recomputation.
///
/// Every variant names both sides of the disagreement so the failure is
/// actionable from the error alone.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditError {
    /// The reported cut disagrees with a from-scratch recount.
    CutMismatch {
        /// Cut the engine reports.
        reported: u64,
        /// Cut recomputed by walking every net.
        recomputed: u64,
    },
    /// A reported part weight disagrees with a from-scratch sum.
    PartWeightMismatch {
        /// Zero-based part index.
        part: usize,
        /// Weight the engine reports.
        reported: u64,
        /// Weight recomputed by summing vertex weights.
        recomputed: u64,
    },
    /// A part weight falls outside the balance window.
    Unbalanced {
        /// Zero-based part index.
        part: usize,
        /// Recomputed weight of the part.
        weight: u64,
        /// Lower bound of the balance window.
        lower: u64,
        /// Upper bound of the balance window.
        upper: u64,
    },
    /// A fixed vertex sits in the wrong part.
    FixedViolated {
        /// The offending vertex (raw index).
        vertex: usize,
        /// The part it is fixed in.
        fixed: usize,
        /// The part the assignment put it in.
        assigned: usize,
    },
    /// A per-net pin count disagrees with a from-scratch recount.
    PinCountMismatch {
        /// Zero-based net index.
        net: usize,
        /// Zero-based part index.
        part: usize,
        /// Pin count the engine reports.
        reported: u32,
        /// Pin count recomputed from the raw pin list.
        recomputed: u32,
    },
    /// A gain-container key disagrees with the freshly computed FM gain.
    GainMismatch {
        /// The offending vertex (raw index).
        vertex: usize,
        /// Key stored in the gain container.
        stored: i64,
        /// Gain recomputed from the pin distribution.
        recomputed: i64,
    },
}

impl AuditError {
    /// Short check name for the `InvariantViolation` trace event
    /// (`"cut"`, `"balance"`, `"fixed"`, `"gain"`).
    pub fn check(&self) -> &'static str {
        match self {
            AuditError::CutMismatch { .. } | AuditError::PinCountMismatch { .. } => "cut",
            AuditError::PartWeightMismatch { .. } | AuditError::Unbalanced { .. } => "balance",
            AuditError::FixedViolated { .. } => "fixed",
            AuditError::GainMismatch { .. } => "gain",
        }
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::CutMismatch {
                reported,
                recomputed,
            } => write!(
                f,
                "cut mismatch: reported {reported}, recomputed {recomputed}"
            ),
            AuditError::PartWeightMismatch {
                part,
                reported,
                recomputed,
            } => write!(
                f,
                "part {part} weight mismatch: reported {reported}, recomputed {recomputed}"
            ),
            AuditError::Unbalanced {
                part,
                weight,
                lower,
                upper,
            } => write!(
                f,
                "part {part} weight {weight} outside balance window [{lower}, {upper}]"
            ),
            AuditError::FixedViolated {
                vertex,
                fixed,
                assigned,
            } => write!(
                f,
                "vertex {vertex} is fixed in part {fixed} but assigned to part {assigned}"
            ),
            AuditError::PinCountMismatch {
                net,
                part,
                reported,
                recomputed,
            } => write!(
                f,
                "net {net} pin count in part {part}: reported {reported}, recomputed {recomputed}"
            ),
            AuditError::GainMismatch {
                vertex,
                stored,
                recomputed,
            } => write!(
                f,
                "vertex {vertex} gain-container key {stored} but recomputed gain {recomputed}"
            ),
        }
    }
}

impl Error for AuditError {}

/// The independent verifier.
///
/// Every method recomputes its quantities by walking the raw
/// [`Hypergraph`] — it deliberately shares no code with the incremental
/// update paths it is checking (not even
/// [`Bisection::recompute_cut`]), so a bug in the hot path cannot hide
/// inside the audit.
#[derive(Clone, Copy, Debug, Default)]
pub struct PartitionAuditor;

impl PartitionAuditor {
    /// Audits a 2-way [`Bisection`]: cut, per-net pin counts, part
    /// weights, fixed-vertex respect, and — when `window` is given —
    /// balance legality.
    ///
    /// Pass `window = None` for mid-run checkpoints: the engine may
    /// legitimately traverse infeasible states while recovering from an
    /// unbalanced initial solution, so window legality is only asserted
    /// where the engine claims it (e.g. on a final outcome flagged
    /// `balanced`).
    ///
    /// # Errors
    ///
    /// The first discrepancy found, as a typed [`AuditError`].
    pub fn audit_bisection(
        bisection: &Bisection<'_>,
        window: Option<(u64, u64)>,
    ) -> Result<(), AuditError> {
        let h = bisection.graph();
        // Cut and pin counts, recounted from the raw pin lists.
        let mut cut = 0u64;
        for e in h.nets() {
            let mut counts = [0u32; 2];
            for &v in h.net_pins(e) {
                counts[bisection.side(v).index()] += 1;
            }
            for p in PartId::ALL {
                let reported = bisection.pins_in(e, p);
                if reported != counts[p.index()] {
                    return Err(AuditError::PinCountMismatch {
                        net: e.index(),
                        part: p.index(),
                        reported,
                        recomputed: counts[p.index()],
                    });
                }
            }
            if counts[0] > 0 && counts[1] > 0 {
                cut += u64::from(h.net_weight(e));
            }
        }
        let reported_cut = bisection.cut();
        if reported_cut != cut {
            return Err(AuditError::CutMismatch {
                reported: reported_cut,
                recomputed: cut,
            });
        }
        // Part weights and fixed-vertex respect, from the raw assignment.
        let mut weights = [0u64; 2];
        for v in h.vertices() {
            let side = bisection.side(v);
            weights[side.index()] += h.vertex_weight(v);
            if let Some(fixed) = h.fixed_part(v) {
                if side != fixed {
                    return Err(AuditError::FixedViolated {
                        vertex: v.index(),
                        fixed: fixed.index(),
                        assigned: side.index(),
                    });
                }
            }
        }
        for p in PartId::ALL {
            let reported = bisection.part_weight(p);
            if reported != weights[p.index()] {
                return Err(AuditError::PartWeightMismatch {
                    part: p.index(),
                    reported,
                    recomputed: weights[p.index()],
                });
            }
        }
        Self::check_window(&weights, window)
    }

    /// Audits a flat k-way assignment: recomputed connectivity cut vs
    /// `reported_cut`, recomputed per-part weights vs
    /// `reported_weights`, fixed-vertex respect, and (when `window` is
    /// given) per-part balance legality.
    ///
    /// `part_of` maps each vertex to its zero-based part; the auditor
    /// never reads the engine's derived tables.
    ///
    /// # Errors
    ///
    /// The first discrepancy found, as a typed [`AuditError`].
    pub fn audit_parts(
        h: &Hypergraph,
        k: usize,
        part_of: impl Fn(VertexId) -> usize,
        reported_cut: u64,
        reported_weights: &[u64],
        window: Option<(u64, u64)>,
    ) -> Result<(), AuditError> {
        // Cut: a net is cut when its pins span more than one part.
        let mut cut = 0u64;
        let mut seen = vec![false; k];
        for e in h.nets() {
            for s in seen.iter_mut() {
                *s = false;
            }
            let mut span = 0usize;
            for &v in h.net_pins(e) {
                let p = part_of(v);
                if !seen[p] {
                    seen[p] = true;
                    span += 1;
                }
            }
            if span > 1 {
                cut += u64::from(h.net_weight(e));
            }
        }
        if reported_cut != cut {
            return Err(AuditError::CutMismatch {
                reported: reported_cut,
                recomputed: cut,
            });
        }
        // Part weights and fixed-vertex respect.
        let mut weights = vec![0u64; k];
        for v in h.vertices() {
            let p = part_of(v);
            weights[p] += h.vertex_weight(v);
            if let Some(fixed) = h.fixed_part(v) {
                if p != fixed.index() {
                    return Err(AuditError::FixedViolated {
                        vertex: v.index(),
                        fixed: fixed.index(),
                        assigned: p,
                    });
                }
            }
        }
        for (p, (&reported, &recomputed)) in reported_weights.iter().zip(weights.iter()).enumerate()
        {
            if reported != recomputed {
                return Err(AuditError::PartWeightMismatch {
                    part: p,
                    reported,
                    recomputed,
                });
            }
        }
        Self::check_window(&weights, window)
    }

    fn check_window(weights: &[u64], window: Option<(u64, u64)>) -> Result<(), AuditError> {
        if let Some((lower, upper)) = window {
            for (p, &w) in weights.iter().enumerate() {
                if w < lower || w > upper {
                    return Err(AuditError::Unbalanced {
                        part: p,
                        weight: w,
                        lower,
                        upper,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A deterministic description of a fault to inject into a run.
///
/// Test-only surface: production code never constructs one, and the
/// default ([`FaultPlan::none`]) injects nothing. Plans are plain data,
/// so the same plan injects the same fault on every run — the
/// degradation path under test is reproducible by construction.
///
/// The two faults mirror the two panic-isolation guarantees:
///
/// * [`panic_in_start`](FaultPlan::panic_in_start) — a multi-start
///   worker dies; the sweep must isolate it and return the best of the
///   survivors.
/// * [`panic_in_shard`](FaultPlan::panic_in_shard) — a parallel
///   refinement shard dies; the round must drop its proposals and go on
///   with the surviving shards'.
#[doc(hidden)]
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    panic_in_start: Option<u64>,
    panic_in_shard: Option<(u64, u64)>,
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Injects a panic at the beginning of start `index` of a
    /// multi-start sweep.
    pub fn panic_in_start(index: u64) -> Self {
        FaultPlan {
            panic_in_start: Some(index),
            ..FaultPlan::default()
        }
    }

    /// Injects a panic into shard `shard` of round `round` of every
    /// parallel refinement run. The round must isolate the shard,
    /// announce it with a `ShardAborted` trace event, and continue with
    /// the surviving shards' proposals.
    pub fn panic_in_shard(round: u64, shard: u64) -> Self {
        FaultPlan {
            panic_in_shard: Some((round, shard)),
            ..FaultPlan::default()
        }
    }

    /// `true` if this plan panics start `index`.
    pub fn should_panic_start(&self, index: u64) -> bool {
        self.panic_in_start == Some(index)
    }

    /// Panics with a recognizable payload if this plan targets start
    /// `index`. Drivers call this inside their per-start `catch_unwind`
    /// region.
    pub fn trip_start(&self, index: u64) {
        if self.should_panic_start(index) {
            panic!("injected fault: panic in start {index}");
        }
    }

    /// `true` if this plan panics shard `shard` of round `round`.
    pub fn should_panic_shard(&self, round: u64, shard: u64) -> bool {
        self.panic_in_shard == Some((round, shard))
    }

    /// Panics with a recognizable payload if this plan targets shard
    /// `shard` of round `round`. Parallel refinement calls this inside
    /// its per-shard `catch_unwind` region.
    pub fn trip_shard(&self, round: u64, shard: u64) {
        if self.should_panic_shard(round, shard) {
            panic!("injected fault: panic in shard {shard} of round {round}");
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::balance::BalanceConstraint;
    use crate::generate_initial;
    use crate::InitialSolution;
    use hypart_hypergraph::HypergraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1], v[2]], 1).unwrap();
        b.add_net([v[3], v[4], v[5]], 1).unwrap();
        b.add_net([v[2], v[3]], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn audit_level_names_round_trip() {
        for level in [
            AuditLevel::Off,
            AuditLevel::Checkpoints,
            AuditLevel::Paranoid,
        ] {
            assert_eq!(AuditLevel::parse(level.name()), Ok(level));
        }
        assert!(AuditLevel::parse("verbose").is_err());
        assert!(!AuditLevel::Off.is_on());
        assert!(AuditLevel::Checkpoints.is_on());
        assert!(AuditLevel::Paranoid.is_paranoid());
    }

    #[test]
    fn clean_bisection_passes_audit() {
        let h = sample();
        let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.34);
        let mut rng = SmallRng::seed_from_u64(42);
        let assignment = generate_initial(&h, InitialSolution::RandomBalanced, &mut rng);
        let b = Bisection::new(&h, assignment).unwrap();
        PartitionAuditor::audit_bisection(&b, Some((constraint.lower(), constraint.upper())))
            .unwrap();
    }

    #[test]
    fn unbalanced_bisection_is_flagged() {
        let h = sample();
        let all_zero = vec![PartId::P0; 6];
        let b = Bisection::new(&h, all_zero).unwrap();
        let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.34);
        let window = Some((constraint.lower(), constraint.upper()));
        let err = PartitionAuditor::audit_bisection(&b, window).unwrap_err();
        assert!(
            matches!(err, AuditError::Unbalanced { part: 0, .. }),
            "{err}"
        );
        assert_eq!(err.check(), "balance");
        // Without a window the same state is merely unbalanced, not wrong.
        PartitionAuditor::audit_bisection(&b, None).unwrap();
    }

    #[test]
    fn kway_audit_detects_wrong_cut_and_weights() {
        let h = sample();
        let parts = [0usize, 0, 0, 1, 1, 2];
        let weights = [3u64, 2, 1];
        // Correct claim passes: nets {3,4,5} and {2,3} each span two parts.
        PartitionAuditor::audit_parts(&h, 3, |v| parts[v.index()], 2, &weights, None).unwrap();
        let err = PartitionAuditor::audit_parts(&h, 3, |v| parts[v.index()], 1, &weights, None)
            .unwrap_err();
        assert!(
            matches!(
                err,
                AuditError::CutMismatch {
                    reported: 1,
                    recomputed: 2
                }
            ),
            "{err}"
        );
        let bad_weights = [3u64, 2, 2];
        let err = PartitionAuditor::audit_parts(&h, 3, |v| parts[v.index()], 2, &bad_weights, None)
            .unwrap_err();
        assert!(
            matches!(err, AuditError::PartWeightMismatch { part: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn fixed_violation_is_flagged() {
        let h = sample().with_fixed(VertexId::new(0), Some(PartId::P1));
        let parts = [0usize, 0, 0, 1, 1, 1];
        let err = PartitionAuditor::audit_parts(&h, 2, |v| parts[v.index()], 1, &[3, 3], None)
            .unwrap_err();
        assert!(
            matches!(err, AuditError::FixedViolated { vertex: 0, .. }),
            "{err}"
        );
        assert_eq!(err.check(), "fixed");
    }

    #[test]
    fn fault_plans_are_deterministic_and_typed() {
        let plan = FaultPlan::panic_in_start(3);
        assert!(plan.should_panic_start(3));
        assert!(!plan.should_panic_start(2));
        assert_eq!(plan, FaultPlan::panic_in_start(3));
        assert!(!FaultPlan::none().should_panic_start(0));
        plan.trip_start(2); // off-target: no panic
    }

    #[test]
    #[should_panic(expected = "injected fault")]
    fn trip_start_panics_on_target() {
        FaultPlan::panic_in_start(5).trip_start(5);
    }

    #[test]
    fn shard_fault_is_typed_and_targeted() {
        let plan = FaultPlan::panic_in_shard(1, 2);
        assert!(plan.should_panic_shard(1, 2));
        assert!(!plan.should_panic_shard(1, 1));
        assert!(!plan.should_panic_shard(0, 2));
        assert!(!FaultPlan::none().should_panic_shard(1, 2));
        // A shard fault never masquerades as a start fault.
        assert!(!plan.should_panic_start(2));
        plan.trip_shard(0, 0); // off-target: no panic
    }

    #[test]
    #[should_panic(expected = "injected fault: panic in shard 2 of round 1")]
    fn trip_shard_panics_on_target() {
        FaultPlan::panic_in_shard(1, 2).trip_shard(1, 2);
    }
}
