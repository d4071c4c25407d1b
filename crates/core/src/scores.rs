//! The connectivity-score accumulator of the coarseners.
//!
//! The multilevel coarsener's clustering (`hypart_ml::coarsen`), the
//! n-level contraction schedule and the lane engine's matching proposals
//! each rate a vertex's candidate partners by summing one score per
//! candidate. [`SparseScores`] is that sum without a per-vertex
//! `HashMap`: each owner keeps one for the rating rounds of a call, so it
//! grows once and each round retires the last by bumping an epoch.

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
}
