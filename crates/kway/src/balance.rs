//! Per-part balance windows for k-way partitioning.

use crate::partition::KWayPartition;

/// Symmetric per-part weight window around the perfect `total / k` split:
/// every part must hold between `(1 − f)·total/k` and `(1 + f)·total/k`
/// (the hMETIS "UBfactor" convention generalizing the paper's 2-way
/// tolerance).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct KWayBalance {
    lower: u64,
    upper: u64,
    k: usize,
}

impl KWayBalance {
    /// Builds the window for `k` parts and tolerance `fraction` (so that
    /// `fraction = 0.10` allows each part 90–110 % of its fair share).
    /// An empty window is widened minimally around the fair share.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `fraction` is not in `[0, 1]`.
    pub fn with_fraction(total: u64, k: usize, fraction: f64) -> Self {
        assert!(k >= 2, "k-way balance needs k >= 2, got {k}");
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "balance fraction must be in [0, 1], got {fraction}"
        );
        let share = total as f64 / k as f64;
        let mut lower = (share * (1.0 - fraction)).ceil() as u64;
        let mut upper = (share * (1.0 + fraction)).floor() as u64;
        if lower > upper {
            lower = share.floor() as u64;
            upper = share.ceil() as u64;
        }
        KWayBalance { lower, upper, k }
    }

    /// Number of parts the window was built for.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.k
    }

    /// Lower bound on a part's weight.
    #[inline]
    pub fn lower(&self) -> u64 {
        self.lower
    }

    /// Upper bound on a part's weight.
    #[inline]
    pub fn upper(&self) -> u64 {
        self.upper
    }

    /// `true` if a part of weight `w` is inside the window.
    #[inline]
    pub fn contains(&self, w: u64) -> bool {
        (self.lower..=self.upper).contains(&w)
    }

    /// `true` if every part is inside the window.
    pub fn is_satisfied(&self, partition: &KWayPartition<'_>) -> bool {
        (0..self.k).all(|p| self.contains(partition.part_weight(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_way_window() {
        let b = KWayBalance::with_fraction(1000, 4, 0.10);
        assert_eq!(b.lower(), 225);
        assert_eq!(b.upper(), 275);
        assert!(b.contains(250));
        assert!(!b.contains(224));
        assert_eq!(b.num_parts(), 4);
    }

    #[test]
    fn empty_window_is_widened() {
        let b = KWayBalance::with_fraction(10, 3, 0.0);
        assert!(b.lower() <= b.upper());
        assert!(b.contains(3) || b.contains(4));
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn k_one_panics() {
        let _ = KWayBalance::with_fraction(10, 1, 0.1);
    }
}
