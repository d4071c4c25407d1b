//! Incremental k-way partitioning state.

use hypart_hypergraph::{Hypergraph, NetId, VertexId};

/// A k-way partitioning with incrementally maintained per-part weights,
/// per-net pin distribution, per-net span λ, and both classical k-way
/// objectives:
///
/// * **hyperedge cut** — Σ over nets with λ ≥ 2 of w(e);
/// * **(λ−1) metric** — Σ over nets of (λ(e) − 1)·w(e) (the "sum of
///   external degrees minus one" objective hMetis optimizes for k-way).
///
/// All mutation goes through [`move_vertex`](KWayPartition::move_vertex)
/// (`O(deg(v))`).
#[derive(Clone, Debug)]
pub struct KWayPartition<'h> {
    graph: &'h Hypergraph,
    k: usize,
    part_of: Vec<u16>,
    part_weight: Vec<u64>,
    /// pins_in[e * k + p] = pins of net e in part p.
    pins_in: Vec<u32>,
    /// span[e] = λ(e): number of parts net e touches.
    span: Vec<u16>,
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
        }
        let mut part_weight = vec![0u64; k];
        for v in graph.vertices() {
            part_weight[assignment[v.index()] as usize] += graph.vertex_weight(v);
        }
        let mut pins_in = vec![0u32; graph.num_nets() * k];
        let mut span = vec![0u16; graph.num_nets()];
        let mut cut_weight = 0u64;
        let mut lambda_cost = 0u64;
        for e in graph.nets() {
            let base = e.index() * k;
            for &v in graph.net_pins(e) {
                pins_in[base + assignment[v.index()] as usize] += 1;
            }
            let lambda = pins_in[base..base + k].iter().filter(|&&c| c > 0).count() as u16;
            span[e.index()] = lambda;
            let w = u64::from(graph.net_weight(e));
            if lambda >= 2 {
                cut_weight += w;
            }
            lambda_cost += u64::from(lambda.saturating_sub(1)) * w;
        }
        KWayPartition {
            graph,
            k,
            part_of: assignment,
            part_weight,
            pins_in,
            span,
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

    /// Current part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> usize {
        self.part_of[v.index()] as usize
    }

    /// Total weight currently in part `p`.
    #[inline]
    pub fn part_weight(&self, p: usize) -> u64 {
        self.part_weight[p]
    }

    /// Pins of net `e` currently in part `p`.
    #[inline]
    pub fn pins_in(&self, e: NetId, p: usize) -> u32 {
        self.pins_in[e.index() * self.k + p]
    }

    /// Span λ(e): number of parts net `e` touches.
    #[inline]
    pub fn span(&self, e: NetId) -> usize {
        self.span[e.index()] as usize
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

    /// The assignment as a slice of part indices.
    #[inline]
    pub fn assignment(&self) -> &[u16] {
        &self.part_of
    }

    /// Consumes the partition, returning the assignment.
    pub fn into_assignment(self) -> Vec<u16> {
        self.part_of
    }

    /// Moves `v` to part `to`, updating all derived state in `O(deg(v))`,
    /// and returns the hyperedge-cut gain realized (positive = improved).
    ///
    /// # Panics
    ///
    /// Panics if `to >= k` or `to` equals the current part of `v`.
    pub fn move_vertex(&mut self, v: VertexId, to: usize) -> i64 {
        let from = self.part_of[v.index()] as usize;
        assert!(to < self.k, "target part {to} out of range");
        assert_ne!(from, to, "vertex already in part {to}");
        let cut_before = self.cut_weight as i64;
        for &e in self.graph.vertex_nets(v) {
            let base = e.index() * self.k;
            let w = u64::from(self.graph.net_weight(e));
            let lambda_before = self.span[e.index()];
            let from_count = self.pins_in[base + from];
            let to_count = self.pins_in[base + to];
            self.pins_in[base + from] = from_count - 1;
            self.pins_in[base + to] = to_count + 1;
            let mut lambda = lambda_before;
            if from_count == 1 {
                lambda -= 1;
            }
            if to_count == 0 {
                lambda += 1;
            }
            if lambda != lambda_before {
                self.span[e.index()] = lambda;
                let was_cut = lambda_before >= 2;
                let now_cut = lambda >= 2;
                match (was_cut, now_cut) {
                    (false, true) => self.cut_weight += w,
                    (true, false) => self.cut_weight -= w,
                    _ => {}
                }
                let before_cost = u64::from(lambda_before.saturating_sub(1)) * w;
                let after_cost = u64::from(lambda.saturating_sub(1)) * w;
                self.lambda_cost = self.lambda_cost + after_cost - before_cost;
            }
        }
        let w = self.graph.vertex_weight(v);
        self.part_weight[from] -= w;
        self.part_weight[to] += w;
        self.part_of[v.index()] = to as u16;
        cut_before - self.cut_weight as i64
    }

    /// Hyperedge-cut gain of moving `v` to part `to`, without mutating
    /// (`O(deg(v))`).
    pub fn gain(&self, v: VertexId, to: usize) -> i64 {
        let from = self.part_of[v.index()] as usize;
        debug_assert_ne!(from, to);
        let mut gain = 0i64;
        for &e in self.graph.vertex_nets(v) {
            let base = e.index() * self.k;
            let w = i64::from(self.graph.net_weight(e));
            let lambda = self.span[e.index()];
            let from_count = self.pins_in[base + from];
            let to_count = self.pins_in[base + to];
            let mut lambda_after = lambda;
            if from_count == 1 {
                lambda_after -= 1;
            }
            if to_count == 0 {
                lambda_after += 1;
            }
            gain += w * (i64::from(lambda >= 2) - i64::from(lambda_after >= 2));
        }
        gain
    }

    /// Recomputes the hyperedge cut from scratch (test oracle).
    pub fn recompute_cut(&self) -> u64 {
        let mut cut = 0u64;
        for e in self.graph.nets() {
            let mut parts_seen = 0;
            let base = e.index() * self.k;
            for p in 0..self.k {
                if self.pins_in[base + p] > 0 {
                    parts_seen += 1;
                }
            }
            // Cross-check against the assignment directly.
            let mut seen = vec![false; self.k];
            for &v in self.graph.net_pins(e) {
                seen[self.part_of[v.index()] as usize] = true;
            }
            debug_assert_eq!(seen.iter().filter(|&&s| s).count(), parts_seen);
            if parts_seen >= 2 {
                cut += u64::from(self.graph.net_weight(e));
            }
        }
        cut
    }

    /// Recomputes the (λ−1) cost from scratch (test oracle).
    pub fn recompute_lambda_minus_one(&self) -> u64 {
        let mut cost = 0u64;
        for e in self.graph.nets() {
            let mut seen = vec![false; self.k];
            for &v in self.graph.net_pins(e) {
                seen[self.part_of[v.index()] as usize] = true;
            }
            let lambda = seen.iter().filter(|&&s| s).count() as u64;
            cost += (lambda.saturating_sub(1)) * u64::from(self.graph.net_weight(e));
        }
        cost
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
    fn initial_state_consistent() {
        let h = sample();
        let p = KWayPartition::new(&h, 3, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(p.part_weight(0), 2);
        assert_eq!(p.part_weight(1), 2);
        assert_eq!(p.part_weight(2), 2);
        // net0 spans {0,1}: cut. net1 spans {1}: uncut. net2 spans {1,2}: cut.
        assert_eq!(p.cut(), 2);
        assert_eq!(p.cut(), p.recompute_cut());
        assert_eq!(p.lambda_minus_one(), 2);
        assert_eq!(p.lambda_minus_one(), p.recompute_lambda_minus_one());
        assert_eq!(p.span(NetId::new(0)), 2);
        assert_eq!(p.span(NetId::new(1)), 1);
    }

    #[test]
    fn move_updates_incrementally() {
        let h = sample();
        let mut p = KWayPartition::new(&h, 3, vec![0, 0, 1, 1, 2, 2]);
        let predicted = p.gain(VertexId::new(2), 0);
        let realized = p.move_vertex(VertexId::new(2), 0);
        assert_eq!(predicted, realized);
        assert_eq!(p.cut(), p.recompute_cut());
        assert_eq!(p.lambda_minus_one(), p.recompute_lambda_minus_one());
        assert_eq!(p.part_of(VertexId::new(2)), 0);
        assert_eq!(p.part_weight(0), 3);
        assert_eq!(p.part_weight(1), 1);
    }

    #[test]
    fn gains_match_for_all_targets() {
        let h = sample();
        let p = KWayPartition::new(&h, 3, vec![0, 1, 2, 0, 1, 2]);
        for v in h.vertices() {
            for to in 0..3 {
                if to == p.part_of(v) {
                    continue;
                }
                let mut probe = p.clone();
                let realized = probe.move_vertex(v, to);
                assert_eq!(p.gain(v, to), realized, "{v:?} -> {to}");
            }
        }
    }

    #[test]
    fn lambda_cost_exceeds_or_equals_cut() {
        let h = sample();
        let p = KWayPartition::new(&h, 3, vec![0, 1, 2, 0, 1, 2]);
        assert!(p.lambda_minus_one() >= p.cut());
    }

    #[test]
    #[should_panic(expected = "already in part")]
    fn move_to_same_part_panics() {
        let h = sample();
        let mut p = KWayPartition::new(&h, 2, vec![0; 6]);
        p.move_vertex(VertexId::new(0), 0);
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
