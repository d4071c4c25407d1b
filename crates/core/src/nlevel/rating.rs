//! Rating-driven contraction selection for the n-level backend.
//!
//! Pairs are rated with the hMetis heavy-edge connectivity
//! `Σ_{e ∋ u,v} w(e) / (|e| − 1)` over the *current* (lazily shrunk) net
//! sizes, exactly the score the coarse-grained matcher uses — so the two
//! backends explore the same clustering landscape and differ only in
//! granularity. Selection proceeds in rounds: every active vertex names
//! its best admissible partner, the candidate pairs are sorted by
//! (rating, seeded hash) descending, and the winners are contracted **one
//! pair at a time**, each producing its own
//! [`ContractionMemento`](super::ContractionMemento).
//! Ratings refresh at round boundaries (each vertex contracts at most
//! once per round), a batch-lazy refresh that keeps selection
//! deterministic without a decrease-key priority queue; the memento
//! stack — and therefore the uncoarsening side — remains strictly
//! one-pair-at-a-time.

use super::dynhg::DynHypergraph;
use super::workspace::ContractScratch;
use crate::ctx::BudgetProbe;
use crate::scores::SparseScores;
use hypart_hypergraph::{PartId, VertexId};

/// Admissibility limits of the contraction schedule, lifted from the
/// shared coarsening configuration so both backends obey the same caps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContractionLimits {
    /// Stop contracting once at most this many vertices remain.
    pub stop_size: usize,
    /// Nets larger than this are ignored when rating pairs.
    pub max_net_size: usize,
    /// Maximum aggregate weight of a contracted cluster.
    pub cluster_cap: u64,
}

/// SplitMix64: the seeded tie-break hash of the pair ordering.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs the rating-driven contraction schedule on `d` until
/// `limits.stop_size` vertices remain, no admissible pair is left, or
/// `probe` fires. The memento stack lands in `scratch.mementos`, in
/// contraction order (undo it back to front); any previous contents of
/// the scratch are discarded.
///
/// `restriction`, when given, carries one partition side per vertex slot
/// and forbids contracting across sides — the n-level analogue of
/// restricted coarsening for V-cycles. Fixed vertices only merge with
/// free vertices or vertices fixed on the same side.
///
/// Deterministic: a pure function of `(d, limits, restriction, seed)`.
/// `scratch` is a borrowed arena; reuse never changes results.
pub fn select_contractions(
    d: &mut DynHypergraph,
    limits: &ContractionLimits,
    restriction: Option<&[PartId]>,
    seed: u64,
    scratch: &mut ContractScratch,
    probe: &mut BudgetProbe,
) {
    let slots = d.num_slots();
    scratch.mementos.clear();
    scratch.matched.clear();
    scratch.matched.resize(slots, false);
    scratch.pairs.clear();

    loop {
        if d.num_active() <= limits.stop_size || probe.stop_now().is_some() {
            break;
        }
        scratch.pairs.clear();
        for slot in 0..slots {
            let u = VertexId::from_index(slot);
            if !d.is_active(u) {
                continue;
            }
            if let Some(pair) = best_partner(d, u, limits, restriction, seed, &mut scratch.scores) {
                scratch.pairs.push(pair);
            }
        }
        if scratch.pairs.is_empty() {
            break;
        }
        scratch.pairs.sort_unstable_by(|a, b| b.cmp(a));
        for flag in scratch.matched.iter_mut() {
            *flag = false;
        }
        let mut progressed = false;
        for i in 0..scratch.pairs.len() {
            let (_, _, u_raw, v_raw) = scratch.pairs[i];
            if d.num_active() <= limits.stop_size {
                break;
            }
            let (u, v) = (VertexId::new(u_raw), VertexId::new(v_raw));
            if scratch.matched[u.index()]
                || scratch.matched[v.index()]
                || !d.is_active(u)
                || !d.is_active(v)
            {
                continue;
            }
            scratch.mementos.push(d.contract(u, v));
            scratch.matched[u.index()] = true;
            scratch.matched[v.index()] = true;
            progressed = true;
            if probe.stop_every().is_some() {
                return;
            }
        }
        if !progressed {
            break;
        }
    }
}

/// Rates every admissible partner of `u` and returns the winning pair
/// record, or `None` when `u` has no admissible partner this round.
fn best_partner(
    d: &DynHypergraph,
    u: VertexId,
    limits: &ContractionLimits,
    restriction: Option<&[PartId]>,
    seed: u64,
    scores: &mut SparseScores,
) -> Option<(u64, u64, u32, u32)> {
    scores.begin(d.num_slots());
    for &e in d.incident_nets(u) {
        let s = d.net_size(e) as usize;
        if s < 2 || s > limits.max_net_size {
            continue;
        }
        // Integer-scaled heavy-edge score: w(e) · 2¹⁶ / (|e| − 1). The
        // f64 accumulator holds it exactly (values stay far below 2⁵³).
        let contrib = ((u64::from(d.net_weight(e)) << 16) / (s as u64 - 1)) as f64;
        for &p in d.net_pins(e) {
            if p != u {
                scores.add(p.index(), contrib);
            }
        }
    }
    let wu = d.weight(u);
    let fu = d.fixed_part(u);
    let su = restriction.map(|r| r[u.index()]);
    let mut best: Option<(u64, u64, u32, u32)> = None;
    for i in 0..scores.touched().len() {
        let slot = scores.touched()[i] as usize;
        let p = VertexId::from_index(slot);
        if wu + d.weight(p) > limits.cluster_cap {
            continue;
        }
        let fp = d.fixed_part(p);
        if fu.is_some() && fp.is_some() && fu != fp {
            continue;
        }
        if let Some(side) = su {
            if restriction.is_some_and(|r| r[slot] != side) {
                continue;
            }
        }
        let rating = scores.get_touched(slot) as u64;
        let tie = splitmix64(seed ^ ((u.raw() as u64) << 32) ^ p.raw() as u64);
        let cand = (rating, tie, u.raw(), p.raw());
        if best.as_ref().is_none_or(|b| cand > *b) {
            best = Some(cand);
        }
    }
    best
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ctx::RunCtx;
    use hypart_hypergraph::HypergraphBuilder;

    fn clusters(groups: usize, size: usize) -> hypart_hypergraph::Hypergraph {
        let mut b = HypergraphBuilder::new();
        let mut all = Vec::new();
        for _ in 0..groups {
            let g: Vec<_> = (0..size).map(|_| b.add_vertex(1)).collect();
            for w in g.windows(2) {
                b.add_net([w[0], w[1]], 3).unwrap();
            }
            all.push(g[0]);
        }
        for w in all.windows(2) {
            b.add_net([w[0], w[1]], 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn contracts_to_stop_size_and_undoes_cleanly() {
        let h = clusters(4, 8);
        let mut d = DynHypergraph::new(&h);
        let limits = ContractionLimits {
            stop_size: 4,
            max_net_size: 300,
            cluster_cap: 16,
        };
        let ctx = RunCtx::new(7);
        let mut probe = ctx.probe();
        let mut scratch = ContractScratch::new();
        select_contractions(&mut d, &limits, None, 7, &mut scratch, &mut probe);
        assert!(d.num_active() <= 8, "should contract well below 32");
        while let Some(m) = scratch.mementos.pop() {
            d.uncontract(&m);
        }
        d.validate_pristine(&h).unwrap();
    }

    #[test]
    fn deterministic_per_seed_and_across_scratch_reuse() {
        let h = clusters(3, 6);
        let limits = ContractionLimits {
            stop_size: 3,
            max_net_size: 300,
            cluster_cap: 12,
        };
        let run = |seed: u64, scratch: &mut ContractScratch| {
            let mut d = DynHypergraph::new(&h);
            let ctx = RunCtx::new(seed);
            let mut probe = ctx.probe();
            select_contractions(&mut d, &limits, None, seed, scratch, &mut probe);
            scratch.mementos.clone()
        };
        let mut fresh = ContractScratch::new();
        let first = run(5, &mut fresh);
        // Rerun on the dirty scratch: identical schedule.
        let again = run(5, &mut fresh);
        assert_eq!(first, again);
        let mut other = ContractScratch::new();
        assert_eq!(first, run(5, &mut other));
    }

    #[test]
    fn cluster_cap_is_respected() {
        let h = clusters(2, 10);
        let mut d = DynHypergraph::new(&h);
        let limits = ContractionLimits {
            stop_size: 1,
            max_net_size: 300,
            cluster_cap: 4,
        };
        let ctx = RunCtx::new(1);
        let mut probe = ctx.probe();
        let mut scratch = ContractScratch::new();
        select_contractions(&mut d, &limits, None, 1, &mut scratch, &mut probe);
        for slot in 0..d.num_slots() {
            let v = VertexId::from_index(slot);
            if d.is_active(v) {
                assert!(d.weight(v) <= 4, "aggregate over the cap");
            }
        }
    }
}
