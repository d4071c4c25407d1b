//! A k-way partition and its objectives.

use hypart_hypergraph::{Hypergraph, VertexId};

/// A k-way partitioning with its per-part weights and both classical
/// k-way objectives, counted from the assignment when it is built:
///
/// * **hyperedge cut** — Σ over nets spanning λ ≥ 2 parts of w(e);
/// * **(λ−1) metric** — Σ over nets of (λ(e) − 1)·w(e) (the "sum of
///   external degrees minus one" objective hMetis optimizes for k-way).
#[derive(Clone, Debug)]
pub struct KWayPartition<'h> {
    graph: &'h Hypergraph,
    k: usize,
    part_of: Vec<u16>,
    part_weight: Vec<u64>,
    cut_weight: u64,
    lambda_cost: u64,
}

impl<'h> KWayPartition<'h> {
    /// Creates a k-way partition over `graph` from an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2`, `assignment.len() != graph.num_vertices()`, any
    /// part index is ≥ `k`, or a fixed vertex is assigned off its fixed
    /// part (fixed parts are interpreted as part indices 0/1).
    pub fn new(graph: &'h Hypergraph, k: usize, assignment: Vec<u16>) -> Self {
        assert!(k >= 2, "k must be at least 2, got {k}");
        assert!(k <= u16::MAX as usize, "k too large");
        assert_eq!(
            assignment.len(),
            graph.num_vertices(),
            "assignment length mismatch"
        );
        let mut part_weight = vec![0u64; k];
        for v in graph.vertices() {
            let p = assignment[v.index()] as usize;
            assert!(p < k, "vertex {v:?} assigned to part {p} but k = {k}");
            if let Some(fp) = graph.fixed_part(v) {
                assert_eq!(
                    p,
                    fp.index(),
                    "vertex {v:?} fixed in part {} but assigned to {p}",
                    fp.index()
                );
            }
            part_weight[p] += graph.vertex_weight(v);
        }
        // last_net[p] = 1 + the last net found to touch part p.
        let mut last_net = vec![0usize; k];
        let mut cut_weight = 0u64;
        let mut lambda_cost = 0u64;
        for e in graph.nets() {
            let mut lambda = 0u64;
            for &v in graph.net_pins(e) {
                let seen = &mut last_net[assignment[v.index()] as usize];
                if *seen != e.index() + 1 {
                    *seen = e.index() + 1;
                    lambda += 1;
                }
            }
            let w = u64::from(graph.net_weight(e));
            if lambda >= 2 {
                cut_weight += w;
            }
            lambda_cost += lambda.saturating_sub(1) * w;
        }
        KWayPartition {
            graph,
            k,
            part_of: assignment,
            part_weight,
            cut_weight,
            lambda_cost,
        }
    }

    /// The underlying hypergraph.
    #[inline]
    pub fn graph(&self) -> &'h Hypergraph {
        self.graph
    }

    /// Number of parts.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.k
    }

    /// Part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> usize {
        self.part_of[v.index()] as usize
    }

    /// Total weight in part `p`.
    #[inline]
    pub fn part_weight(&self, p: usize) -> u64 {
        self.part_weight[p]
    }

    /// Weighted hyperedge cut (nets with λ ≥ 2).
    #[inline]
    pub fn cut(&self) -> u64 {
        self.cut_weight
    }

    /// Weighted (λ−1) cost.
    #[inline]
    pub fn lambda_minus_one(&self) -> u64 {
        self.lambda_cost
    }

    /// Consumes the partition, returning the assignment.
    pub fn into_assignment(self) -> Vec<u16> {
        self.part_of
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_hypergraph::HypergraphBuilder;

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1], v[2]], 1).unwrap();
        b.add_net([v[2], v[3]], 2).unwrap();
        b.add_net([v[3], v[4], v[5]], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn objectives_are_counted_per_net() {
        let h = sample();
        let p = KWayPartition::new(&h, 3, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(p.part_weight(0), 2);
        assert_eq!(p.part_weight(1), 2);
        assert_eq!(p.part_weight(2), 2);
        // net0 spans {0,1}: cut. net1 spans {1}: uncut. net2 spans {1,2}: cut.
        assert_eq!(p.cut(), 2);
        assert_eq!(p.lambda_minus_one(), 2);
        // Nets span 3, 2 and 3 parts: cut 1 + 2 + 1, (λ−1) 2·1 + 1·2 + 2·1.
        let spread = KWayPartition::new(&h, 3, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(spread.cut(), 4);
        assert_eq!(spread.lambda_minus_one(), 6);
    }

    #[test]
    #[should_panic(expected = "k = 2")]
    fn out_of_range_part_panics() {
        let h = sample();
        let _ = KWayPartition::new(&h, 2, vec![0, 0, 0, 0, 0, 5]);
    }

    #[test]
    fn two_way_agrees_with_bisection() {
        use hypart_core::Bisection;
        use hypart_hypergraph::PartId;
        let h = sample();
        let parts = vec![0u16, 0, 1, 1, 0, 1];
        let kp = KWayPartition::new(&h, 2, parts.clone());
        let bis = Bisection::new(
            &h,
            parts
                .iter()
                .map(|&p| if p == 0 { PartId::P0 } else { PartId::P1 })
                .collect(),
        )
        .unwrap();
        assert_eq!(kp.cut(), bis.cut());
    }
}
