//! Simulated annealing bipartitioning.
//!
//! Kirkpatrick-style annealing over single-vertex moves: accept an
//! uphill move of Δcut with probability `exp(−Δ/T)`, geometric cooling,
//! temperature auto-calibrated from the initial move distribution. A
//! slow-but-thorough metaheuristic whose quality/runtime profile differs
//! sharply from FM's — exactly the kind of instrument diversity §3.2's
//! comparison methodology is designed to handle.

use hypart_core::{generate_initial, BalanceConstraint, InitialSolution, Outcome};
use hypart_hypergraph::{Hypergraph, PartId, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{bisection_of, completed};

/// A simulated-annealing bipartitioner.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnnealingPartitioner;

impl AnnealingPartitioner {
    /// Moves attempted per temperature step, as a multiple of |V|.
    pub const MOVES_PER_TEMP: usize = 8;
    /// Geometric cooling factor (0 < α < 1).
    pub const ALPHA: f64 = 0.92;
    /// Stop when the acceptance ratio over a temperature step falls below
    /// this value.
    pub const FREEZE_ACCEPTANCE: f64 = 0.005;
    /// Hard cap on temperature steps.
    pub const MAX_STEPS: usize = 200;

    /// Runs the annealing schedule from a seeded balanced initial
    /// solution, returning the best feasible solution encountered.
    pub fn run(&self, h: &Hypergraph, constraint: &BalanceConstraint, seed: u64) -> Outcome {
        let mut rng = SmallRng::seed_from_u64(seed);
        let initial = generate_initial(h, InitialSolution::RandomBalanced, &mut rng);
        let mut bisection = bisection_of(h, initial);
        let free: Vec<VertexId> = h.vertices().filter(|&v| !h.is_fixed(v)).collect();
        if free.is_empty() {
            return completed(bisection, constraint);
        }

        // Calibrate the starting temperature so ~80 % of uphill moves are
        // initially accepted: T0 = mean |Δ| / ln(1/0.8).
        let mut sample_deltas = 0.0f64;
        let mut samples = 0usize;
        for _ in 0..free.len().min(256) {
            let v = free[rng.gen_range(0..free.len())];
            let delta = -bisection.gain(v);
            if delta > 0 {
                sample_deltas += delta as f64;
                samples += 1;
            }
        }
        let mean_uphill = if samples > 0 {
            sample_deltas / samples as f64
        } else {
            1.0
        };
        let mut temperature = (mean_uphill / f64::ln(1.0 / 0.8)).max(1e-3);

        let mut best: Option<(u64, Vec<PartId>)> = None;
        let moves_per_step = Self::MOVES_PER_TEMP * free.len();

        for _ in 0..Self::MAX_STEPS {
            let mut accepted = 0usize;
            for _ in 0..moves_per_step {
                let v = free[rng.gen_range(0..free.len())];
                if !constraint.is_legal_move(&bisection, v) {
                    continue;
                }
                let delta = -bisection.gain(v); // positive = cut increase
                let accept = delta <= 0 || rng.gen::<f64>() < (-(delta as f64) / temperature).exp();
                if !accept {
                    continue;
                }
                bisection.move_vertex(v);
                accepted += 1;
                if constraint.is_satisfied(&bisection) {
                    let cut = bisection.cut();
                    if best.as_ref().is_none_or(|(c, _)| cut < *c) {
                        best = Some((cut, bisection.assignment().to_vec()));
                    }
                }
            }
            temperature *= Self::ALPHA;
            if (accepted as f64) < Self::FREEZE_ACCEPTANCE * moves_per_step as f64 {
                break;
            }
        }

        match best {
            Some((_, assignment)) => completed(bisection_of(h, assignment), constraint),
            None => completed(bisection, constraint),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_benchgen::mcnc_like;
    use hypart_benchgen::toys::{ring, two_clusters};
    use hypart_core::Bisection;

    fn slack(h: &Hypergraph) -> BalanceConstraint {
        BalanceConstraint::with_slack(h.total_vertex_weight(), 1)
    }

    #[test]
    fn finds_the_cluster_cut() {
        let h = two_clusters(6, 2);
        let out = AnnealingPartitioner.run(&h, &slack(&h), 1);
        assert_eq!(out.cut, 2);
        assert!(out.balanced);
    }

    #[test]
    fn ring_cut_reaches_optimum_with_multistart() {
        let h = ring(12);
        let best = (0..5u64)
            .map(|s| AnnealingPartitioner.run(&h, &slack(&h), s).cut)
            .min()
            .expect("runs");
        assert_eq!(best, 2);
    }

    #[test]
    fn balanced_on_weighted_instances() {
        let h = mcnc_like(150, 5);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let out = AnnealingPartitioner.run(&h, &c, 3);
        assert!(out.balanced);
        let bis = Bisection::new(&h, out.assignment).expect("valid");
        assert_eq!(bis.cut(), out.cut);
    }

    #[test]
    fn deterministic_per_seed() {
        let h = mcnc_like(100, 2);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let a = AnnealingPartitioner.run(&h, &c, 7);
        let b = AnnealingPartitioner.run(&h, &c, 7);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn all_fixed_graph_returns_initial() {
        use hypart_benchgen::with_pad_ring;
        let h = with_pad_ring(&ring(8), 100, 1); // fixes everything
        let c = BalanceConstraint::with_fraction(8, 0.5);
        let out = AnnealingPartitioner.run(&h, &c, 0);
        assert_eq!(out.assignment.len(), 8);
    }
}
