//! Reusable FM scratch arenas.
//!
//! `refine_with` is called at every level of every start of every V-cycle
//! of a multi-start sweep — millions of times in a Table 4–5 style experiment —
//! so allocating and zeroing `O(V + bucket range)` gain containers per
//! call is a methodology-level cost, not a constant. An [`FmWorkspace`]
//! owns the containers and per-pass scratch vectors once and re-points
//! them at each refinement target ([`GainContainer::retarget`] keeps the
//! allocations and only grows them), turning per-call setup into
//! O(len + buckets touched).
//!
//! One workspace serves every engine layer: the flat 2-way engine takes
//! two containers, the n-level engine's localized FM a k² grid (one per
//! ordered pair of parts) from the same pool. Workspaces are plain owned
//! data — to parallelize, give each unit of parallel work its own context
//! and with it its own workspace.

use crate::gain::GainContainer;
use hypart_hypergraph::VertexId;

/// Reusable gain-container arena plus per-pass scratch vectors.
///
/// Feed one to [`crate::FmPartitioner::refine_with`] (or the
/// multilevel and n-level equivalents) to amortize container setup across
/// passes, levels, and starts. A fresh workspace is what
/// [`crate::RunCtx::new`] holds; reuse never changes results, only removes
/// allocation and reset cost.
#[derive(Clone, Debug, Default)]
pub struct FmWorkspace {
    /// Container pool, re-targeted on acquisition. The flat engine uses
    /// entries 0–1 (one per partition side); n-level localized FM a k²
    /// grid.
    pub(crate) pool: Vec<GainContainer>,
    /// Free movable vertices of the current pass.
    pub(crate) eligible: Vec<VertexId>,
    /// Move sequence of the current pass (for best-prefix rollback).
    pub(crate) moves: Vec<VertexId>,
    /// CLIP seeding scratch: `eligible` sorted by initial gain.
    pub(crate) order: Vec<VertexId>,
    /// Per-net mask of the sides holding a pin locked this pass (bit 0:
    /// `P0`, bit 1: `P1`), for the flat engine's pass cutoff.
    pub(crate) locked: Vec<u8>,
}

impl FmWorkspace {
    /// Creates an empty workspace. Arenas grow on first use and are kept
    /// from then on.
    pub fn new() -> Self {
        FmWorkspace::default()
    }

    /// Borrows `count` cleared containers sized for `num_vertices`
    /// vertices and keys in `±max_abs_key`, reusing (and growing only when
    /// necessary) the pooled allocations.
    pub fn containers(
        &mut self,
        count: usize,
        num_vertices: usize,
        max_abs_key: i64,
    ) -> &mut [GainContainer] {
        while self.pool.len() < count {
            self.pool.push(GainContainer::new(0, 0));
        }
        for c in &mut self.pool[..count] {
            c.retarget(num_vertices, max_abs_key);
        }
        &mut self.pool[..count]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InsertionPolicy;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pool_grows_and_comes_back_cleared() {
        let mut ws = FmWorkspace::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let cs = ws.containers(2, 8, 5);
        assert_eq!(cs.len(), 2);
        cs[0].insert(VertexId::new(3), 4, InsertionPolicy::Lifo, &mut rng);
        assert_eq!(cs[0].len(), 1);
        // Re-acquire: same pool, larger grid, everything cleared.
        let cs = ws.containers(9, 16, 12);
        assert_eq!(cs.len(), 9);
        for c in cs.iter_mut() {
            assert!(c.is_empty());
            assert_eq!(c.min_key_bound(), -12);
        }
        // Shrinking the request leaves surplus pool entries untouched.
        let cs = ws.containers(2, 4, 3);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs[0].min_key_bound(), -3);
    }
}
