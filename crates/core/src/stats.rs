//! Run and pass statistics, including the corking diagnostics of §2.3.

use crate::audit::AuditError;
use hypart_trace::StopReason;

/// Statistics of a single FM pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Moves tentatively made during the pass.
    pub moves_made: usize,
    /// Moves undone when rolling back to the best prefix.
    pub moves_rolled_back: usize,
    /// Vertices eligible to move at pass start (free, and inside the
    /// balance window if overweight exclusion is on).
    pub eligible: usize,
    /// Weighted cut at pass start.
    pub cut_before: u64,
    /// Weighted cut after rollback to the best prefix.
    pub cut_after: u64,
    /// `true` if the pass *corked*: it ended with movable vertices still in
    /// the gain container but fewer than [`CORKED_FRACTION`] of the
    /// eligible vertices moved — the CLIP failure mode of §2.3.
    pub corked: bool,
}

/// A pass counts as corked when it moves fewer than this fraction of its
/// eligible vertices while vertices remain available (1/20 = 5 %).
pub const CORKED_FRACTION: (usize, usize) = (1, 20);

impl PassStats {
    /// Cut improvement achieved by the pass (negative if it regressed,
    /// which the engine never accepts).
    pub fn improvement(&self) -> i64 {
        self.cut_before as i64 - self.cut_after as i64
    }
}

/// Statistics of a full FM run (initial solution + passes until
/// convergence).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FmStats {
    /// Per-pass records, in order.
    pub passes: Vec<PassStats>,
    /// Weighted cut of the initial solution.
    pub initial_cut: u64,
    /// Weighted cut of the final solution.
    pub final_cut: u64,
    /// Vertices excluded from the gain container because their area
    /// exceeds the balance window (`FmConfig::exclude_overweight`).
    pub excluded_overweight: usize,
    /// Fixed vertices (never inserted).
    pub fixed: usize,
    /// Why the run ended: normal convergence ([`StopReason::Completed`])
    /// or a cooperative stop at the context's deadline / cancellation
    /// token, with the best-so-far solution kept.
    pub stopped: StopReason,
    /// First invariant violation the [`crate::PartitionAuditor`] found,
    /// if auditing was enabled and the run's bookkeeping disagreed with
    /// the independent recomputation. Always `None` with auditing off.
    pub audit_failure: Option<AuditError>,
}

impl FmStats {
    /// Number of passes executed.
    pub fn num_passes(&self) -> usize {
        self.passes.len()
    }

    /// Total moves tentatively made across all passes.
    pub fn total_moves(&self) -> usize {
        self.passes.iter().map(|p| p.moves_made).sum()
    }

    /// Number of corked passes (§2.3 diagnostic: "traces of CLIP
    /// executions show that corking actually occurs fairly often").
    pub fn corked_passes(&self) -> usize {
        self.passes.iter().filter(|p| p.corked).count()
    }

    /// Fraction of passes that corked, 0.0 if no passes ran.
    pub fn corked_fraction(&self) -> f64 {
        if self.passes.is_empty() {
            0.0
        } else {
            self.corked_passes() as f64 / self.passes.len() as f64
        }
    }

    /// Total cut improvement over the run.
    pub fn improvement(&self) -> i64 {
        self.initial_cut as i64 - self.final_cut as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_improvement() {
        let p = PassStats {
            cut_before: 100,
            cut_after: 80,
            ..PassStats::default()
        };
        assert_eq!(p.improvement(), 20);
    }

    #[test]
    fn aggregates() {
        let stats = FmStats {
            passes: vec![
                PassStats {
                    moves_made: 10,
                    corked: false,
                    ..PassStats::default()
                },
                PassStats {
                    moves_made: 2,
                    corked: true,
                    ..PassStats::default()
                },
            ],
            initial_cut: 50,
            final_cut: 40,
            ..FmStats::default()
        };
        assert_eq!(stats.num_passes(), 2);
        assert_eq!(stats.total_moves(), 12);
        assert_eq!(stats.corked_passes(), 1);
        assert!((stats.corked_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(stats.improvement(), 10);
    }

    #[test]
    fn empty_run_has_zero_corked_fraction() {
        assert_eq!(FmStats::default().corked_fraction(), 0.0);
    }
}
