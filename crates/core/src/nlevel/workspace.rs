//! Scratch arenas of the n-level backend.
//!
//! Each n-level run touches `O(n)` scratch: the [`DynHypergraph`] view
//! itself, the contraction schedule's pair/match buffers and
//! connectivity accumulator, the partition's two pin counts per net, the
//! label scatter buffer, the flat-sweep seed list, and the localized
//! refiner's lock/log/gain-cache state. An [`NLevelWorkspace`] owns all
//! of it, grow-only. The driver builds one per run and keeps it to
//! itself; within the run it re-points the arenas
//! ([`DynHypergraph::reset_from_csr`], [`NLevelPartition::reset`], epoch
//! bumps) instead of reallocating, so the contract / uncontract /
//! localized-FM loop allocates nothing once the arenas have grown.
//! Reusing a workspace never changes results, which the
//! allocation-counter test checks by running the loop twice on one.

use super::dynhg::{ContractionMemento, DynHypergraph};
use super::partition::NLevelPartition;
use crate::scores::SparseScores;
use hypart_hypergraph::{PartId, VertexId};

/// Scratch of the rating-driven contraction schedule
/// ([`super::select_contractions`]): the produced memento stack plus the
/// per-round match flags, candidate-pair buffer and connectivity
/// accumulator.
#[derive(Clone, Debug, Default)]
pub struct ContractScratch {
    /// The memento stack of the most recent schedule, in contraction
    /// order (undo it back to front).
    pub mementos: Vec<ContractionMemento>,
    /// Per-slot "contracted this round" flags.
    pub(crate) matched: Vec<bool>,
    /// Candidate pairs of the current round: `(rating, tie-break hash,
    /// survivor, absorbed)`, sorted descending.
    pub(crate) pairs: Vec<(u64, u64, u32, u32)>,
    /// Per-vertex partner ratings of the current round.
    pub(crate) scores: SparseScores,
}

impl ContractScratch {
    /// Creates an empty scratch. Arenas grow on first use and are kept.
    pub fn new() -> Self {
        ContractScratch::default()
    }
}

/// Scratch of the localized FM refiner ([`super::refine_localized`]):
/// epoch-stamped lock flags, the applied-move log, and the exact
/// per-vertex gain cache.
///
/// The gain cache holds, for every vertex stamped in the current epoch,
/// the exact gain of moving it to the other side — identical at all
/// times to what [`NLevelPartition::gain`] would recompute. It is filled
/// once per vertex per invocation (one pass over the vertex's nets) and
/// then delta-maintained in O(affected pins) per applied move, replacing
/// the per-activation full rescans. One epoch bump retires the whole
/// cache in O(1) at the next invocation.
#[derive(Clone, Debug, Default)]
pub struct LocalSearchScratch {
    /// Current invocation epoch; stamps below it are stale.
    pub(crate) epoch: u32,
    /// `locked[v] == epoch` iff `v` already moved this invocation.
    pub(crate) locked: Vec<u32>,
    /// `gain_stamp[v] == epoch` iff `v`'s cached gain is live.
    pub(crate) gain_stamp: Vec<u32>,
    /// Cached gain per slot of moving the vertex to the other side.
    pub(crate) gains: Vec<i64>,
    /// Applied moves, in order, for best-prefix rollback: each vertex
    /// moves at most once per invocation, so moving it back to the other
    /// side undoes it.
    pub(crate) log: Vec<VertexId>,
}

impl LocalSearchScratch {
    /// Creates an empty scratch. Arenas grow on first use and are kept.
    pub fn new() -> Self {
        LocalSearchScratch::default()
    }

    /// Starts a new invocation over `slots` slots: all locks and cached
    /// gains become stale in O(1) (amortized — a full epoch wrap every
    /// 2³² invocations costs one stamp clear).
    pub(crate) fn begin(&mut self, slots: usize) {
        if self.locked.len() < slots {
            self.locked.resize(slots, 0);
            self.gain_stamp.resize(slots, 0);
            self.gains.resize(slots, 0);
        }
        if self.epoch == u32::MAX {
            self.locked.fill(0);
            self.gain_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.log.clear();
    }

    /// Whether `v` already moved this invocation.
    #[inline]
    pub(crate) fn is_locked(&self, v: VertexId) -> bool {
        self.locked[v.index()] == self.epoch
    }

    /// Marks `v` as moved this invocation.
    #[inline]
    pub(crate) fn lock(&mut self, v: VertexId) {
        self.locked[v.index()] = self.epoch;
    }

    /// Whether `v`'s cached gain is live this invocation.
    #[inline]
    pub(crate) fn is_cached(&self, v: VertexId) -> bool {
        self.gain_stamp[v.index()] == self.epoch
    }

    /// The cached gain of moving `v` to the other side. It must be live.
    #[inline]
    pub(crate) fn gain_of(&self, v: VertexId) -> i64 {
        debug_assert!(self.is_cached(v), "gain read before fill");
        self.gains[v.index()]
    }
}

/// The scratch arenas of one n-level run.
///
/// The n-level drivers build one per run and pass it between their
/// phases; it never lives on [`crate::RunCtx`]. All fields are public:
/// the drivers live in the multilevel crate and drive them directly.
#[derive(Clone, Debug, Default)]
pub struct NLevelWorkspace {
    /// The dynamic hypergraph view (slab adjacency arenas inside),
    /// re-pointed at the input via [`DynHypergraph::reset_from_csr`].
    pub dynhg: DynHypergraph,
    /// Contraction-schedule scratch, including the memento stack.
    pub contract: ContractScratch,
    /// The partition state, rebuilt from `labels` via
    /// [`NLevelPartition::reset`].
    pub partition: NLevelPartition,
    /// Per-slot label scatter buffer (initial-partition projection).
    pub labels: Vec<PartId>,
    /// Flat-sweep seed list (all active vertices of the current view).
    pub seeds: Vec<VertexId>,
    /// `materialize` scratch: original slot → dense coarse id.
    pub dense_of: Vec<u32>,
    /// `materialize` scratch: dense coarse id → original slot.
    pub slot_of: Vec<VertexId>,
    /// Localized-refiner scratch (locks, move log, gain cache).
    pub refine: LocalSearchScratch,
}

impl NLevelWorkspace {
    /// Creates an empty workspace. Arenas grow on first use and are kept
    /// from then on.
    pub fn new() -> Self {
        NLevelWorkspace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_search_scratch_epochs_retire_locks_and_cache() {
        let mut s = LocalSearchScratch::new();
        s.begin(4);
        let v = VertexId::new(1);
        assert!(!s.is_locked(v));
        assert!(!s.is_cached(v));
        s.lock(v);
        s.gain_stamp[1] = s.epoch;
        s.gains[1] = 7;
        assert!(s.is_locked(v));
        assert_eq!(s.gain_of(v), 7);
        // Next invocation: everything stale, allocations kept.
        s.begin(4);
        assert!(!s.is_locked(v));
        assert!(!s.is_cached(v));
    }

    #[test]
    fn local_search_scratch_survives_epoch_wrap() {
        let mut s = LocalSearchScratch::new();
        s.begin(2);
        s.lock(VertexId::new(0));
        s.epoch = u32::MAX;
        s.begin(2);
        assert_eq!(s.epoch, 1);
        assert!(!s.is_locked(VertexId::new(0)));
    }

    #[test]
    fn workspace_defaults_are_empty() {
        let ws = NLevelWorkspace::new();
        assert_eq!(ws.dynhg.num_slots(), 0);
        assert!(ws.contract.mementos.is_empty());
        assert!(ws.labels.is_empty());
    }
}
