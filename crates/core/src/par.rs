//! Per-lane scratch state for the lane engine's round refiner.
//!
//! The round refiner ([`refine_rounds_parallel`]) splits each round's
//! proposal scan into one shard per *lane*; each lane owns its shard's
//! proposal buffer and panic flag. The engine builds its lanes once per
//! run or V-cycle and reuses them across that call's levels; they never
//! live on [`RunCtx`](crate::RunCtx), which carries only the serial
//! engines' workspaces.
//!
//! Lanes are plain owned data. The engine lends each spawned job mutable
//! access to exactly one lane (disjoint `&mut` splits of the lane
//! vector), so no lane is ever shared between threads.
//!
//! [`refine_rounds_parallel`]: crate::refine_rounds_parallel

/// One candidate move proposed by a refinement shard: move `vertex` to
/// the opposite side for a gain of `gain` *as seen in the frozen
/// pre-round snapshot* (the serial commit re-derives the live gain).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MoveProposal {
    /// Raw index of the vertex to move.
    pub vertex: u32,
    /// Snapshot gain (cut decrease) of moving the vertex.
    pub gain: i64,
}

/// The scratch state owned by one parallel lane.
#[derive(Clone, Debug, Default)]
pub struct ParLane {
    /// Move proposals of the refinement shard this lane last scanned.
    pub moves: Vec<MoveProposal>,
    /// Whether this lane's shard panicked in the current round (set
    /// inside the shard's `catch_unwind` region, read by the serial
    /// commit).
    pub aborted: bool,
}

/// Derives a decorrelated per-unit seed from a base seed and a unit
/// index (SplitMix64 finalizer over the golden-ratio-striped index).
///
/// Used for per-try seeds of the parallel initial portfolio: each try's
/// seed is a pure function of `(base, index)`, independent of which lane
/// runs it — a prerequisite for thread-count-invariant results.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_index_sensitive() {
        assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
        assert_ne!(derive_seed(42, 3), derive_seed(42, 4));
        assert_ne!(derive_seed(42, 3), derive_seed(43, 3));
        // Index 0 still decorrelates from the raw base.
        assert_ne!(derive_seed(7, 0), 7);
    }
}
