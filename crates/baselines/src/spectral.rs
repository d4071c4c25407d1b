//! Spectral ratio-cut bisection (Wei–Cheng / EIG1 tradition).
//!
//! The hypergraph is clique-expanded (net `e` of size `k` contributes
//! weight `w(e)/(k−1)` between every pin pair), the Fiedler vector of the
//! resulting Laplacian is approximated by deflated power iteration, and a
//! sweep over the sorted eigenvector picks the best feasible prefix cut.
//! The Laplacian is never materialized: the matrix–vector product is
//! evaluated per net in O(pins).

use hypart_core::BalanceConstraint;
use hypart_hypergraph::{Hypergraph, PartId, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{bisection_of, BaselineOutcome};

/// Spectral ratio-cut bisection.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpectralPartitioner;

impl SpectralPartitioner {
    /// Power-iteration steps (each is one O(pins) matvec).
    pub const ITERATIONS: usize = 300;

    /// Runs the spectral bisection. `seed` only affects the power-iteration
    /// start vector (the method is otherwise deterministic); the sweep cut
    /// is the best *feasible* prefix under `constraint`, falling back to
    /// the ratio-cut-optimal prefix when no prefix is feasible.
    pub fn run(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        seed: u64,
    ) -> BaselineOutcome {
        let n = h.num_vertices();
        if n == 0 {
            return BaselineOutcome::from_bisection(bisection_of(h, Vec::new()), constraint);
        }
        let fiedler = self.fiedler_vector(h, seed);

        // Sweep: vertices in eigenvector order; every prefix is a candidate
        // bisection. Track cut incrementally by moving one vertex at a time.
        let mut order: Vec<VertexId> = h.vertices().collect();
        order.sort_by(|&a, &b| {
            let by_value = match fiedler[a.index()].partial_cmp(&fiedler[b.index()]) {
                Some(order) => order,
                None => unreachable!("the Fiedler vector holds no NaN"),
            };
            by_value.then(a.cmp(&b))
        });
        // Start with everything in P1; prefix vertices move to P0.
        // Fixed vertices stay put and are skipped by the sweep.
        let start: Vec<PartId> = h
            .vertices()
            .map(|v| h.fixed_part(v).unwrap_or(PartId::P1))
            .collect();
        let mut bisection = bisection_of(h, start);

        let mut best_prefix = 0usize;
        let mut best_feasible: Option<(u64, usize)> = None;
        let mut best_ratio = f64::INFINITY;
        let total = h.total_vertex_weight() as f64;
        for (i, &v) in order.iter().enumerate() {
            if h.is_fixed(v) {
                continue;
            }
            if bisection.side(v) == PartId::P1 {
                bisection.move_vertex(v);
            }
            let w0 = bisection.part_weight(PartId::P0) as f64;
            let w1 = bisection.part_weight(PartId::P1) as f64;
            if w0 == 0.0 || w1 == 0.0 || total == 0.0 {
                continue;
            }
            let cut = bisection.cut();
            if constraint.is_satisfied(&bisection) && best_feasible.is_none_or(|(c, _)| cut < c) {
                best_feasible = Some((cut, i + 1));
            }
            let ratio = cut as f64 / (w0 * w1);
            if ratio < best_ratio {
                best_ratio = ratio;
                best_prefix = i + 1;
            }
        }
        let chosen = best_feasible.map(|(_, p)| p).unwrap_or(best_prefix);

        // Rebuild the chosen prefix assignment.
        let mut assignment: Vec<PartId> = h
            .vertices()
            .map(|v| h.fixed_part(v).unwrap_or(PartId::P1))
            .collect();
        for &v in order.iter().take(chosen) {
            if !h.is_fixed(v) {
                assignment[v.index()] = PartId::P0;
            }
        }
        BaselineOutcome::from_bisection(bisection_of(h, assignment), constraint)
    }

    /// Approximates the Fiedler vector by power iteration on `σI − L`
    /// (σ from Gershgorin), deflating the constant vector.
    fn fiedler_vector(&self, h: &Hypergraph, seed: u64) -> Vec<f64> {
        let n = h.num_vertices();
        // Clique-expansion weighted degree per vertex for the Gershgorin
        // bound: deg(v) = Σ_e∋v w(e) (each net contributes w/(k-1) to each
        // of the k-1 incident pairs).
        let mut degree = vec![0.0f64; n];
        for e in h.nets() {
            let k = h.net_size(e);
            if k < 2 {
                continue;
            }
            let w = f64::from(h.net_weight(e));
            for &v in h.net_pins(e) {
                degree[v.index()] += w;
            }
        }
        let sigma = 2.0 * degree.iter().fold(0.0f64, |a, &b| a.max(b)) + 1.0;

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y = vec![0.0f64; n];
        for _ in 0..Self::ITERATIONS {
            deflate_constant(&mut x);
            normalize(&mut x);
            // y = (σI − L) x ; (Lx)_v = Σ_{e∋v} w/(k−1) (k x_v − S_e)
            y.iter_mut().zip(&x).for_each(|(yi, &xi)| *yi = sigma * xi);
            for e in h.nets() {
                let k = h.net_size(e);
                if k < 2 {
                    continue;
                }
                let wp = f64::from(h.net_weight(e)) / (k - 1) as f64;
                let sum: f64 = h.net_pins(e).iter().map(|v| x[v.index()]).sum();
                for &v in h.net_pins(e) {
                    y[v.index()] -= wp * (k as f64 * x[v.index()] - sum);
                }
            }
            std::mem::swap(&mut x, &mut y);
        }
        deflate_constant(&mut x);
        normalize(&mut x);
        x
    }
}

fn deflate_constant(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    x.iter_mut().for_each(|v| *v -= mean);
}

fn normalize(x: &mut [f64]) {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 1e-300 {
        x.iter_mut().for_each(|v| *v /= norm);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_benchgen::toys::{grid, ring, two_clusters};
    use hypart_benchgen::{ispd98_like, mcnc_like};
    use hypart_core::{FmConfig, FmPartitioner};

    fn slack(h: &Hypergraph) -> BalanceConstraint {
        BalanceConstraint::with_slack(h.total_vertex_weight(), 1)
    }

    #[test]
    fn separates_two_clusters_exactly() {
        let h = two_clusters(8, 2);
        let out = SpectralPartitioner.run(&h, &slack(&h), 3);
        assert_eq!(out.cut, 2);
        assert!(out.balanced);
    }

    #[test]
    fn ring_cut_is_two() {
        let h = ring(16);
        let out = SpectralPartitioner.run(&h, &slack(&h), 1);
        assert_eq!(out.cut, 2);
    }

    #[test]
    fn grid_cut_is_near_optimal() {
        let h = grid(8, 8);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let out = SpectralPartitioner.run(&h, &c, 1);
        assert!(out.balanced);
        assert!(out.cut <= 12, "cut {}", out.cut); // optimal straight line: 8
    }

    #[test]
    fn respects_fixed_vertices() {
        let h = ring(12).with_fixed(VertexId::new(0), Some(PartId::P0));
        let c = BalanceConstraint::with_fraction(12, 0.34);
        let out = SpectralPartitioner.run(&h, &c, 5);
        assert_eq!(out.assignment[0], PartId::P0);
    }

    #[test]
    fn deterministic_per_seed() {
        let h = mcnc_like(200, 4);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let a = SpectralPartitioner.run(&h, &c, 9);
        let b = SpectralPartitioner.run(&h, &c, 9);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn within_striking_distance_of_fm_on_structured_instances() {
        let h = ispd98_like(1, 0.03, 7);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let spectral = SpectralPartitioner.run(&h, &c, 1);
        let fm = FmPartitioner::new(FmConfig::lifo()).run(&h, &c, 1);
        assert!(spectral.balanced);
        // Pure spectral (no iterative-improvement cleanup) is known to
        // trail FM on netlists — clique expansion distorts hyperedges —
        // but it must stay within an order of magnitude.
        assert!(
            spectral.cut <= fm.cut.max(1) * 10,
            "spectral {} vs fm {}",
            spectral.cut,
            fm.cut
        );
    }

    #[test]
    fn empty_graph_is_handled() {
        let h = hypart_hypergraph::HypergraphBuilder::new().build().unwrap();
        let c = BalanceConstraint::with_fraction(0, 0.1);
        let out = SpectralPartitioner.run(&h, &c, 0);
        assert_eq!(out.cut, 0);
    }
}
