//! Shareable, immutable coarsening-hierarchy handles.
//!
//! A multilevel run spends most of its wall clock building the coarsening
//! hierarchy, yet the hierarchy is a pure function of
//! `(hypergraph, coarsening config, seed)` — a re-query against the same
//! instance with a different balance constraint or part count can reuse it
//! wholesale and pay only initial partitioning + refinement. These types
//! make that reuse safe across threads: a [`Hierarchy`] is built once,
//! frozen, wrapped in a [`SharedHierarchy`] (`Arc`), and handed to any
//! number of concurrent runs, none of which can mutate it.
//!
//! The partitioning service keys its hierarchy cache on
//! `(instance digest, coarsening config, seed)` and emits
//! `RunEvent::HierarchyReused` when a run starts from a cached handle, so
//! cache hits are observable from the trace stream.

use std::sync::Arc;

use hypart_hypergraph::{Hypergraph, PartId, VertexId};

/// One coarsening level: the coarse hypergraph plus the fine→coarse vertex
/// map.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The coarse hypergraph.
    pub graph: Hypergraph,
    /// `map[fine_vertex] = coarse_vertex`.
    pub map: Vec<VertexId>,
}

impl CoarseLevel {
    /// Projects a coarse assignment back to the fine level.
    pub fn project(&self, coarse_assignment: &[PartId]) -> Vec<PartId> {
        self.map
            .iter()
            .map(|cv| coarse_assignment[cv.index()])
            .collect()
    }
}

/// An immutable, complete coarsening hierarchy: the levels produced by
/// coarsening a hypergraph, finest first (level 0 maps the original
/// vertices onto the first coarse graph).
///
/// Constructed once (by `build_hierarchy_with` in the multilevel crate or
/// any equivalent builder) and then only read. Wrap in a
/// [`SharedHierarchy`] to share across threads.
#[derive(Clone, Debug, Default)]
pub struct Hierarchy {
    levels: Vec<CoarseLevel>,
}

impl Hierarchy {
    /// Wraps an already-built level stack (finest first).
    pub fn new(levels: Vec<CoarseLevel>) -> Self {
        Hierarchy { levels }
    }

    /// The levels, finest first.
    pub fn levels(&self) -> &[CoarseLevel] {
        &self.levels
    }

    /// Number of coarse levels (0 means coarsening produced nothing and
    /// runs operate directly on the original hypergraph).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// `true` when there are no coarse levels.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The coarsest graph in the hierarchy, if any level exists.
    pub fn coarsest(&self) -> Option<&Hypergraph> {
        self.levels.last().map(|l| &l.graph)
    }

    /// Freezes the hierarchy into a cheaply clonable shared handle.
    pub fn into_shared(self) -> SharedHierarchy {
        Arc::new(self)
    }
}

impl From<Vec<CoarseLevel>> for Hierarchy {
    fn from(levels: Vec<CoarseLevel>) -> Self {
        Hierarchy::new(levels)
    }
}

/// A thread-safe, immutable handle to a frozen [`Hierarchy`]. Cloning is
/// O(1); the underlying levels are never mutated after construction.
pub type SharedHierarchy = Arc<Hierarchy>;
