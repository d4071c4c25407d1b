//! Reusable coarsening scratch arenas.
//!
//! Coarsening runs once per level of every start of every V-cycle — the
//! same multiplicity as refinement — and its naive implementation spends
//! most of its time in allocator traffic: a fresh `HashMap` entry per
//! candidate cluster, two `Vec` clones per unique coarse net, and new
//! cluster arrays at every level. A [`CoarsenWorkspace`] owns all of that
//! scratch once, grow-only, exactly like [`crate::FmWorkspace`] does for
//! the gain containers:
//!
//! * the per-level clustering state (`cluster_of`, weights, fixed sides,
//!   restriction sides, the shuffled visit order);
//! * a dense [`SparseScores`] accumulator replacing the per-vertex
//!   connectivity `HashMap` (O(touched) reset via epoch stamps);
//! * a pin arena plus fingerprint tables replacing the
//!   `HashMap<Vec<u32>, NetId>` identical-net merge;
//! * a recycled [`HypergraphBuilder`] and [`CsrScratch`] so assembling the
//!   coarse graph reuses the builder's staging vectors and the CSR
//!   counting pass scratch.
//!
//! The workspace holds the serial coarsener's state only: the
//! lane-parallel coarsener keeps its window scratch to itself. Reuse
//! never changes results: a fresh workspace is exactly what the plain
//! entry points construct internally.

use hypart_hypergraph::{CsrScratch, HypergraphBuilder, PartId, VertexId};

/// One interleaved (stamp, score) accumulator slot.
#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    score: f64,
    stamp: u32,
}

/// A dense score accumulator with O(touched) reset.
///
/// Functionally a `HashMap<slot, f64>` restricted to a known slot range:
/// [`add`](SparseScores::add) accumulates into a dense `f64` array, an
/// epoch stamp per slot distinguishes live entries from stale ones (a
/// zero-score sentinel would misclassify legitimate 0.0 scores, e.g. from
/// weight-0 nets), and [`begin`](SparseScores::begin) retires the whole
/// map by bumping the epoch instead of touching memory.
#[derive(Clone, Debug, Default)]
pub struct SparseScores {
    /// Stamp and score interleaved: accumulation is memory-bound random
    /// access, and a single 16-byte entry costs one cache line where
    /// split stamp/score arrays cost two.
    entries: Vec<Entry>,
    epoch: u32,
    touched: Vec<u32>,
}

impl SparseScores {
    /// Creates an empty accumulator; arenas grow on first use.
    pub fn new() -> Self {
        SparseScores::default()
    }

    /// Starts a fresh accumulation over `slots` slots: all previous
    /// entries become stale in O(1) (amortized — a full epoch wrap every
    /// 2³² begins costs one `stamp` clear).
    pub fn begin(&mut self, slots: usize) {
        if self.entries.len() < slots {
            self.entries.resize(slots, Entry::default());
        }
        if self.epoch == u32::MAX {
            for e in &mut self.entries {
                e.stamp = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Accumulates `value` into `slot`, first-touch-initializing it to
    /// zero and recording it in the touched list.
    #[inline]
    pub fn add(&mut self, slot: usize, value: f64) {
        let e = &mut self.entries[slot];
        if e.stamp != self.epoch {
            e.stamp = self.epoch;
            e.score = 0.0;
            self.touched.push(slot as u32);
        }
        e.score += value;
    }

    /// The accumulated score of `slot` (0.0 if untouched this epoch).
    #[inline]
    pub fn get(&self, slot: usize) -> f64 {
        let e = &self.entries[slot];
        if e.stamp == self.epoch {
            e.score
        } else {
            0.0
        }
    }

    /// The accumulated score of a slot known to be in
    /// [`touched`](SparseScores::touched) this epoch — skips the staleness
    /// check [`get`](SparseScores::get) pays.
    #[inline]
    pub fn get_touched(&self, slot: usize) -> f64 {
        debug_assert_eq!(self.entries[slot].stamp, self.epoch);
        self.entries[slot].score
    }

    /// The slots touched since [`begin`](SparseScores::begin), in
    /// first-touch order.
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }
}

/// Packed admissibility record of one clustering candidate (a vertex or a
/// formed cluster): weight, inherited fixed side, and restriction side in
/// a single 16-byte load. The candidate scan is random-access bound;
/// reading one packed record per candidate replaces three scattered array
/// loads.
#[derive(Clone, Copy, Debug, Default)]
pub struct CandInfo {
    /// Vertex or accumulated cluster weight.
    pub weight: u64,
    /// Fixed-partition side (inherited by clusters from their members).
    pub fixed: Option<PartId>,
    /// Restriction side; meaningful only in restricted coarsening, where
    /// every vertex carries its current partition side.
    pub side: PartId,
}

/// One surviving coarse net staged in the workspace pin arena: its pin
/// range, accumulated weight, and the 64-bit fingerprint of its (sorted,
/// deduplicated) pin slice used to group identical nets.
#[derive(Clone, Copy, Debug)]
pub struct CoarseNet {
    /// Start of the pin slice in [`CoarsenWorkspace::pin_arena`].
    pub start: u32,
    /// Number of pins in the slice.
    pub len: u32,
    /// Net weight (accumulated across merged identical nets).
    pub weight: u32,
    /// FNV-1a fingerprint of the sorted pin slice.
    pub fp: u64,
}

impl CoarseNet {
    /// The pin slice range as `usize` bounds.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// Reusable scratch arenas for the multilevel coarsener.
///
/// Carried on [`crate::RunCtx`] next to [`crate::FmWorkspace`]; the
/// coarsening entry points re-point the arenas at each level
/// ([`begin_level`](CoarsenWorkspace::begin_level)) instead of
/// reallocating them. All fields are public: the coarsening algorithm
/// lives in the multilevel crate and drives them directly.
#[derive(Clone, Debug, Default)]
pub struct CoarsenWorkspace {
    /// `cluster_of[v] = cluster id`, `u32::MAX` while unmatched.
    pub cluster_of: Vec<u32>,
    /// `slot_of[v]` = the connectivity slot pins of `v` accumulate into:
    /// `n + v` while unmatched, then the cluster slot (first-choice) or
    /// the dead slot `2n` (heavy-edge) once matched. Keeping this beside
    /// `cluster_of` makes the per-pin slot lookup a single indexed load.
    pub slot_of: Vec<u32>,
    /// Per-net matching score of the current fine graph, `-1.0` for nets
    /// excluded from matching (single-pin or over the size threshold).
    pub net_score: Vec<f64>,
    /// Packed admissibility record per fine vertex of the current level.
    pub vert_info: Vec<CandInfo>,
    /// Packed admissibility record per formed cluster.
    pub cluster_info: Vec<CandInfo>,
    /// Shuffled vertex visit order of the current level.
    pub order: Vec<VertexId>,
    /// Dense connectivity accumulator (slots: clusters then vertices).
    pub conn: SparseScores,
    /// Staged coarse pins of all surviving nets, back to back.
    pub pin_arena: Vec<VertexId>,
    /// One entry per surviving coarse net, in fine-net order.
    pub nets: Vec<CoarseNet>,
    /// Net indices sorted by (fingerprint, index) for duplicate grouping.
    pub sort_idx: Vec<u32>,
    /// `rep[i]` = index of the first net with identical pins to net `i`.
    pub rep: Vec<u32>,
    /// Recycled coarse-graph builder (left empty between levels).
    pub builder: HypergraphBuilder,
    /// Recycled CSR counting-pass scratch for the builder.
    pub csr: CsrScratch,
    /// Current-level restriction sides (V-cycle hierarchies only).
    pub restrict: Vec<PartId>,
    /// Next-level restriction sides, swapped with `restrict` per level.
    pub restrict_next: Vec<PartId>,
}

impl CoarsenWorkspace {
    /// Creates an empty workspace. Arenas grow on first use and are kept
    /// from then on.
    pub fn new() -> Self {
        CoarsenWorkspace::default()
    }

    /// Re-points the per-level arenas at a level with `n` fine vertices:
    /// all vertices unmatched, no clusters formed, net staging empty.
    /// Keeps every allocation.
    pub fn begin_level(&mut self, n: usize) {
        self.cluster_of.clear();
        self.cluster_of.resize(n, u32::MAX);
        self.slot_of.clear();
        self.slot_of.extend(n as u32..2 * n as u32);
        self.net_score.clear();
        self.vert_info.clear();
        self.cluster_info.clear();
        self.pin_arena.clear();
        self.nets.clear();
        self.sort_idx.clear();
        self.rep.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_scores_accumulate_and_reset() {
        let mut s = SparseScores::new();
        s.begin(8);
        s.add(3, 1.5);
        s.add(3, 0.25);
        s.add(5, 2.0);
        assert_eq!(s.get(3), 1.75);
        assert_eq!(s.get(5), 2.0);
        assert_eq!(s.get(0), 0.0);
        assert_eq!(s.touched(), &[3, 5]);
        // Next epoch: everything stale, allocation kept.
        s.begin(8);
        assert_eq!(s.get(3), 0.0);
        assert!(s.touched().is_empty());
    }

    #[test]
    fn sparse_scores_track_legitimate_zero() {
        // A zero accumulated value must still count as touched: a
        // zero-score sentinel would lose weight-0 net contributions.
        let mut s = SparseScores::new();
        s.begin(4);
        s.add(2, 0.0);
        assert_eq!(s.touched(), &[2]);
        assert_eq!(s.get(2), 0.0);
    }

    #[test]
    fn sparse_scores_survive_epoch_wrap() {
        let mut s = SparseScores::new();
        s.begin(4);
        s.add(1, 9.0);
        // Force the wrap path: the next begin() clears stamps and
        // restarts the epoch counter.
        s.epoch = u32::MAX;
        s.begin(4);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.get(1), 0.0);
        s.add(1, 2.0);
        assert_eq!(s.get(1), 2.0);
    }

    #[test]
    fn sparse_scores_grow_between_epochs() {
        let mut s = SparseScores::new();
        s.begin(2);
        s.add(1, 1.0);
        s.begin(10);
        s.add(9, 3.0);
        assert_eq!(s.get(9), 3.0);
        assert_eq!(s.get(1), 0.0);
    }

    #[test]
    fn begin_level_resets_but_keeps_capacity() {
        let mut ws = CoarsenWorkspace::new();
        ws.begin_level(4);
        assert_eq!(ws.cluster_of, vec![u32::MAX; 4]);
        ws.cluster_of[2] = 0;
        ws.cluster_info.push(CandInfo {
            weight: 7,
            fixed: None,
            side: PartId::P0,
        });
        ws.pin_arena.push(VertexId::new(1));
        ws.nets.push(CoarseNet {
            start: 0,
            len: 1,
            weight: 1,
            fp: 0,
        });
        assert_eq!(ws.slot_of, vec![4, 5, 6, 7]);
        let cap = ws.cluster_of.capacity();
        ws.begin_level(3);
        assert_eq!(ws.cluster_of, vec![u32::MAX; 3]);
        assert_eq!(ws.slot_of, vec![3, 4, 5]);
        assert!(ws.cluster_info.is_empty());
        assert!(ws.pin_arena.is_empty());
        assert!(ws.nets.is_empty());
        assert_eq!(ws.cluster_of.capacity(), cap);
    }

    #[test]
    fn coarse_net_range() {
        let n = CoarseNet {
            start: 5,
            len: 3,
            weight: 2,
            fp: 42,
        };
        assert_eq!(n.range(), 5..8);
    }
}
