//! Incremental bipartitioning state.

use std::error::Error;
use std::fmt;

use hypart_hypergraph::{Hypergraph, NetId, PartId, VertexId};

/// Error constructing a [`Bisection`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BisectionError {
    /// The assignment vector length does not match the vertex count.
    LengthMismatch {
        /// Vertices in the hypergraph.
        expected: usize,
        /// Entries in the supplied assignment.
        actual: usize,
    },
    /// A fixed vertex was assigned to the wrong partition.
    FixedViolated {
        /// The offending vertex.
        vertex: VertexId,
        /// The partition it is fixed in.
        fixed: PartId,
        /// The partition the assignment put it in.
        assigned: PartId,
    },
}

impl fmt::Display for BisectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BisectionError::LengthMismatch { expected, actual } => write!(
                f,
                "assignment has {actual} entries but hypergraph has {expected} vertices"
            ),
            BisectionError::FixedViolated {
                vertex,
                fixed,
                assigned,
            } => write!(
                f,
                "vertex {vertex:?} is fixed in partition {fixed} but assigned to {assigned}"
            ),
        }
    }
}

impl Error for BisectionError {}

/// A 2-way partitioning of a hypergraph with incrementally maintained cut
/// weight, per-partition vertex weights, and per-net pin distribution.
///
/// All mutation goes through [`move_vertex`](Bisection::move_vertex), which
/// runs in `O(deg(v))` and keeps every derived quantity consistent — this is
/// the substrate both the FM engine and all evaluation objectives share.
///
/// # Example
///
/// ```
/// use hypart_core::Bisection;
/// use hypart_hypergraph::{HypergraphBuilder, PartId, VertexId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::new();
/// let v: Vec<_> = (0..3).map(|_| b.add_vertex(1)).collect();
/// b.add_net([v[0], v[1], v[2]], 1)?;
/// let h = b.build()?;
/// let mut bis = Bisection::new(&h, vec![PartId::P0, PartId::P0, PartId::P1])?;
/// assert_eq!(bis.cut(), 1);
/// bis.move_vertex(VertexId::new(2));
/// assert_eq!(bis.cut(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Bisection<'h> {
    graph: &'h Hypergraph,
    side: Vec<PartId>,
    part_weight: [u64; 2],
    pins_in: Vec<[u32; 2]>,
    cut_weight: u64,
    num_moves: u64,
}

impl<'h> Bisection<'h> {
    /// Creates a bisection over `graph` from an explicit assignment.
    ///
    /// # Errors
    ///
    /// Fails if `assignment.len() != graph.num_vertices()` or if a fixed
    /// vertex is assigned to the wrong partition.
    pub fn new(graph: &'h Hypergraph, assignment: Vec<PartId>) -> Result<Self, BisectionError> {
        if assignment.len() != graph.num_vertices() {
            return Err(BisectionError::LengthMismatch {
                expected: graph.num_vertices(),
                actual: assignment.len(),
            });
        }
        for v in graph.vertices() {
            if let Some(fixed) = graph.fixed_part(v) {
                if assignment[v.index()] != fixed {
                    return Err(BisectionError::FixedViolated {
                        vertex: v,
                        fixed,
                        assigned: assignment[v.index()],
                    });
                }
            }
        }
        let mut part_weight = [0u64; 2];
        for v in graph.vertices() {
            part_weight[assignment[v.index()].index()] += graph.vertex_weight(v);
        }
        let mut pins_in = vec![[0u32; 2]; graph.num_nets()];
        let mut cut_weight = 0u64;
        for e in graph.nets() {
            let counts = &mut pins_in[e.index()];
            for &v in graph.net_pins(e) {
                counts[assignment[v.index()].index()] += 1;
            }
            if counts[0] > 0 && counts[1] > 0 {
                cut_weight += u64::from(graph.net_weight(e));
            }
        }
        Ok(Bisection {
            graph,
            side: assignment,
            part_weight,
            pins_in,
            cut_weight,
            num_moves: 0,
        })
    }

    /// The underlying hypergraph.
    #[inline]
    pub fn graph(&self) -> &'h Hypergraph {
        self.graph
    }

    /// Current partition of vertex `v`.
    #[inline]
    pub fn side(&self, v: VertexId) -> PartId {
        self.side[v.index()]
    }

    /// Total vertex weight currently in partition `p`.
    #[inline]
    pub fn part_weight(&self, p: PartId) -> u64 {
        self.part_weight[p.index()]
    }

    /// Current weighted cut: sum of weights of nets with pins on both sides.
    #[inline]
    pub fn cut(&self) -> u64 {
        self.cut_weight
    }

    /// How many pins of net `e` are currently in partition `p`.
    #[inline]
    pub fn pins_in(&self, e: NetId, p: PartId) -> u32 {
        self.pins_in[e.index()][p.index()]
    }

    /// `true` if net `e` currently has pins on both sides.
    #[inline]
    pub fn is_cut(&self, e: NetId) -> bool {
        let c = self.pins_in[e.index()];
        c[0] > 0 && c[1] > 0
    }

    /// Number of `move_vertex` calls performed so far (diagnostics).
    #[inline]
    pub fn num_moves(&self) -> u64 {
        self.num_moves
    }

    /// The full assignment as a slice (index = vertex id).
    #[inline]
    pub fn assignment(&self) -> &[PartId] {
        &self.side
    }

    /// Consumes the bisection, returning the assignment vector.
    pub fn into_assignment(self) -> Vec<PartId> {
        self.side
    }

    /// Moves vertex `v` to the opposite partition, updating cut, partition
    /// weights, and pin counts in `O(deg(v))`, and returns the realized gain
    /// (decrease in weighted cut; negative if the cut grew).
    ///
    /// Balance legality and fixed-vertex constraints are *not* checked here
    /// — they are engine policy; see
    /// [`BalanceConstraint::is_legal_move`](crate::BalanceConstraint::is_legal_move).
    pub fn move_vertex(&mut self, v: VertexId) -> i64 {
        self.move_vertex_with(v, |_, _, _, _| {})
    }

    /// [`move_vertex`](Self::move_vertex) that also calls
    /// `visit(e, from_pins, to_pins, assignment)` for each net `e` of `v`,
    /// in [`Hypergraph::vertex_nets`] order, once `e`'s pin counts and the
    /// cut are updated. `from_pins` and `to_pins` are `e`'s pin counts
    /// *before* the move on `v`'s old and new side; `assignment` still
    /// holds `v` on its old side. The FM engine updates neighbour gains
    /// in the visit, so one pass over `v`'s nets does both.
    pub(crate) fn move_vertex_with<F>(&mut self, v: VertexId, mut visit: F) -> i64
    where
        F: FnMut(NetId, u32, u32, &[PartId]),
    {
        let from = self.side[v.index()];
        let to = from.other();
        let graph = self.graph;
        let w = graph.vertex_weight(v);
        let cut_before = self.cut_weight;
        for &e in graph.vertex_nets(v) {
            let counts = &mut self.pins_in[e.index()];
            let (from_pins, to_pins) = (counts[from.index()], counts[to.index()]);
            let was_cut = counts[0] > 0 && counts[1] > 0;
            counts[from.index()] -= 1;
            counts[to.index()] += 1;
            let now_cut = counts[0] > 0 && counts[1] > 0;
            let we = u64::from(graph.net_weight(e));
            match (was_cut, now_cut) {
                (false, true) => self.cut_weight += we,
                (true, false) => self.cut_weight -= we,
                _ => {}
            }
            visit(e, from_pins, to_pins, &self.side);
        }
        self.side[v.index()] = to;
        self.part_weight[from.index()] -= w;
        self.part_weight[to.index()] += w;
        self.num_moves += 1;
        cut_before as i64 - self.cut_weight as i64
    }

    /// The FM gain of moving `v` to the other side — the decrease in
    /// weighted cut the move would realize — computed in `O(deg(v))`
    /// without mutating anything: `FS(v) − TE(v)` in FM terminology.
    pub fn gain(&self, v: VertexId) -> i64 {
        let from = self.side[v.index()];
        let to = from.other();
        let mut gain = 0i64;
        for &e in self.graph.vertex_nets(v) {
            let counts = self.pins_in[e.index()];
            let we = i64::from(self.graph.net_weight(e));
            if counts[from.index()] == 1 {
                // v is the only pin on its side: the net becomes uncut.
                gain += we;
            }
            if counts[to.index()] == 0 {
                // Net is entirely on v's side: the move cuts it.
                gain -= we;
            }
        }
        gain
    }

    /// Recomputes the cut from scratch (reference implementation for tests
    /// and debug assertions).
    pub fn recompute_cut(&self) -> u64 {
        let mut cut = 0u64;
        for e in self.graph.nets() {
            let mut seen = [false; 2];
            for &v in self.graph.net_pins(e) {
                seen[self.side[v.index()].index()] = true;
            }
            if seen[0] && seen[1] {
                cut += u64::from(self.graph.net_weight(e));
            }
        }
        cut
    }

    /// Absolute imbalance `|w(P0) - w(P1)|`.
    pub fn imbalance(&self) -> u64 {
        self.part_weight[0].abs_diff(self.part_weight[1])
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_hypergraph::HypergraphBuilder;

    fn sample() -> Hypergraph {
        // nets: {0,1} w1, {1,2,3} w2, {0,3} w1
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = [2u64, 1, 1, 3].iter().map(|&w| b.add_vertex(w)).collect();
        b.add_net([v[0], v[1]], 1).unwrap();
        b.add_net([v[1], v[2], v[3]], 2).unwrap();
        b.add_net([v[0], v[3]], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn initial_state_is_consistent() {
        let h = sample();
        let b = Bisection::new(&h, vec![PartId::P0, PartId::P0, PartId::P1, PartId::P1]).unwrap();
        assert_eq!(b.part_weight(PartId::P0), 3);
        assert_eq!(b.part_weight(PartId::P1), 4);
        assert_eq!(b.cut(), 3); // net1 (w2) and net2 (w1) are cut
        assert_eq!(b.cut(), b.recompute_cut());
        assert_eq!(b.pins_in(NetId::new(1), PartId::P0), 1);
        assert_eq!(b.pins_in(NetId::new(1), PartId::P1), 2);
        assert!(b.is_cut(NetId::new(1)));
        assert!(!b.is_cut(NetId::new(0)));
    }

    #[test]
    fn length_mismatch_rejected() {
        let h = sample();
        let err = Bisection::new(&h, vec![PartId::P0; 3]).unwrap_err();
        assert!(matches!(err, BisectionError::LengthMismatch { .. }));
    }

    #[test]
    fn fixed_violation_rejected() {
        let h = sample().with_fixed(VertexId::new(0), Some(PartId::P1));
        let err = Bisection::new(&h, vec![PartId::P0; 4]).unwrap_err();
        assert!(matches!(err, BisectionError::FixedViolated { .. }));
    }

    #[test]
    fn move_updates_everything_incrementally() {
        let h = sample();
        let mut b =
            Bisection::new(&h, vec![PartId::P0, PartId::P0, PartId::P1, PartId::P1]).unwrap();
        let predicted = b.gain(VertexId::new(1));
        let realized = b.move_vertex(VertexId::new(1));
        assert_eq!(predicted, realized);
        assert_eq!(b.cut(), b.recompute_cut());
        assert_eq!(b.side(VertexId::new(1)), PartId::P1);
        assert_eq!(b.part_weight(PartId::P0), 2);
        assert_eq!(b.part_weight(PartId::P1), 5);
        assert_eq!(b.num_moves(), 1);
    }

    #[test]
    fn move_back_restores_cut() {
        let h = sample();
        let assignment = vec![PartId::P0, PartId::P1, PartId::P0, PartId::P1];
        let mut b = Bisection::new(&h, assignment.clone()).unwrap();
        let cut0 = b.cut();
        b.move_vertex(VertexId::new(2));
        b.move_vertex(VertexId::new(2));
        assert_eq!(b.cut(), cut0);
        assert_eq!(b.assignment(), assignment.as_slice());
    }

    #[test]
    fn gain_matches_brute_force_on_all_vertices() {
        let h = sample();
        let b = Bisection::new(&h, vec![PartId::P0, PartId::P1, PartId::P0, PartId::P1]).unwrap();
        for v in h.vertices() {
            let mut probe = b.clone();
            let realized = probe.move_vertex(v);
            assert_eq!(b.gain(v), realized, "gain mismatch for {v:?}");
        }
    }

    #[test]
    fn imbalance_and_assignment_accessors() {
        let h = sample();
        let b = Bisection::new(&h, vec![PartId::P0; 4]).unwrap();
        assert_eq!(b.imbalance(), 7);
        assert_eq!(b.cut(), 0);
        let parts = b.into_assignment();
        assert_eq!(parts.len(), 4);
    }
}
