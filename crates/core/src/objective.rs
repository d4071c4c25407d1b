//! Partitioning objective functions.
//!
//! The engines optimize weighted net cut; the other classical objectives
//! from the paper's §1 (ratio cut \[Wei–Cheng\], scaled cost
//! \[Chan–Schlag–Zien\], absorption \[Sun–Sechen\]) are provided as
//! *evaluation* metrics so experiments can report them alongside cut size.

use crate::bisection::Bisection;
use hypart_hypergraph::PartId;

/// Ratio cut \[Wei–Cheng ICCAD-89\]: `cut / (w(P0) · w(P1))`.
///
/// Returns `f64::INFINITY` if either side has zero weight (the formulation
/// is undefined there, and such a "partitioning" is degenerate anyway).
pub fn ratio_cut(bisection: &Bisection<'_>) -> f64 {
    let w0 = bisection.part_weight(PartId::P0) as f64;
    let w1 = bisection.part_weight(PartId::P1) as f64;
    if w0 == 0.0 || w1 == 0.0 {
        return f64::INFINITY;
    }
    bisection.cut() as f64 / (w0 * w1)
}

/// Scaled cost \[Chan–Schlag–Zien TCAD-94\], specialized to 2 partitions:
/// `(1 / (n (k-1))) Σ_p cut_p / w(p)` with `cut_p = cut` for k = 2.
///
/// Returns `f64::INFINITY` for degenerate zero-weight sides.
pub fn scaled_cost(bisection: &Bisection<'_>) -> f64 {
    let n = bisection.graph().num_vertices() as f64;
    let cut = bisection.cut() as f64;
    let w0 = bisection.part_weight(PartId::P0) as f64;
    let w1 = bisection.part_weight(PartId::P1) as f64;
    if w0 == 0.0 || w1 == 0.0 || n == 0.0 {
        return f64::INFINITY;
    }
    (cut / w0 + cut / w1) / n
}

/// Absorption objective \[Sun–Sechen ICCAD-93\]: for each net and each
/// partition it touches, credit `(pins_in(e,p) − 1) / (|e| − 1)`; higher is
/// better (fully absorbed nets score 1). Single-pin nets contribute 1.
pub fn absorption(bisection: &Bisection<'_>) -> f64 {
    let graph = bisection.graph();
    let mut total = 0.0;
    for e in graph.nets() {
        let size = graph.net_size(e);
        if size <= 1 {
            total += 1.0;
            continue;
        }
        for p in PartId::ALL {
            let pins = bisection.pins_in(e, p);
            if pins > 0 {
                total += (pins - 1) as f64 / (size - 1) as f64;
            }
        }
    }
    total
}

/// Number of uncut nets (complement of the unweighted cut count).
pub fn uncut_nets(bisection: &Bisection<'_>) -> usize {
    let graph = bisection.graph();
    graph.nets().filter(|&e| !bisection.is_cut(e)).count()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_hypergraph::{Hypergraph, HypergraphBuilder, PartId};

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(2)).collect();
        b.add_net([v[0], v[1]], 1).unwrap();
        b.add_net([v[1], v[2], v[3]], 1).unwrap();
        b.add_net([v[2], v[3]], 1).unwrap();
        b.build().unwrap()
    }

    fn split(h: &Hypergraph) -> Bisection<'_> {
        Bisection::new(h, vec![PartId::P0, PartId::P0, PartId::P1, PartId::P1]).unwrap()
    }

    #[test]
    fn ratio_cut_value() {
        let h = sample();
        let b = split(&h);
        // cut 1, weights 4 and 4.
        assert!((ratio_cut(&b) - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_cut_degenerate_is_infinite() {
        let h = sample();
        let b = Bisection::new(&h, vec![PartId::P0; 4]).unwrap();
        assert!(ratio_cut(&b).is_infinite());
        assert!(scaled_cost(&b).is_infinite());
    }

    #[test]
    fn scaled_cost_value() {
        let h = sample();
        let b = split(&h);
        // (1/4 + 1/4) / 4 = 0.125
        assert!((scaled_cost(&b) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn absorption_counts_partial_absorption() {
        let h = sample();
        let b = split(&h);
        // net0 fully in P0: 1. net1: P0 has 1 pin (credit 0), P1 has 2 pins
        // (credit 1/2). net2 fully in P1: 1. Total 2.5.
        assert!((absorption(&b) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn absorption_is_maximal_when_nothing_is_cut() {
        let h = sample();
        let b = Bisection::new(&h, vec![PartId::P0; 4]).unwrap();
        assert!((absorption(&b) - 3.0).abs() < 1e-12);
        assert_eq!(uncut_nets(&b), 3);
    }

    #[test]
    fn uncut_nets_complements_cut() {
        let h = sample();
        let b = split(&h);
        assert_eq!(uncut_nets(&b), 2);
    }
}
