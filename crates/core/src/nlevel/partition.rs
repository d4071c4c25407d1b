//! Incremental 2-way partition state over a [`DynHypergraph`], plus the
//! localized FM refiner that runs after every uncontraction.
//!
//! [`NLevelPartition`] owns plain vectors (sides, per-net side counts,
//! side weights, weighted cut) and takes the hypergraph view as a method
//! argument, so the driver can interleave `partition.begin_uncontract`
//! (bookkeeping, *before* the undo) with `d.uncontract` (the structural
//! undo) without borrow conflicts. The vectors are grow-only:
//! [`NLevelPartition::reset`] rebuilds the state for a new view inside
//! the existing allocations.
//!
//! [`refine_localized`] is the n-level refinement step: it seeds the
//! two gain containers (one per side) with only the two vertices
//! released by the current uncontraction, then grows the active set
//! along boundary nets as moves land. Any balance-admissible move is
//! applied — adverse (negative gain) moves included, the classic FM
//! hill-climb — with every move logged and the exploration tail rolled
//! back to the best `(violation, cut)` prefix on exit. Vertices move at
//! most once per invocation and the search stalls out a bounded number
//! of moves after the last improvement, so termination is structural.
//! Like the coarse backend, n-level reaches k parts only through
//! recursive bisection, so the state is 2-way throughout.
//!
//! # The exact gain cache
//!
//! Refinement runs ~n times per n-level pass, and the dominant cost used
//! to be gain *recomputation*: every activation rescanned all nets of
//! every neighbor of every applied move. The refiner now keeps an exact
//! per-vertex gain in its [`LocalSearchScratch`]: filled once per vertex
//! per invocation (one pass over the vertex's nets, via
//! [`NLevelPartition::gain`]) and delta-maintained in O(affected pins)
//! per applied move by [`NLevelPartition::move_vertex_cached`] — and only
//! pins of nets whose pre-move side counts sit next to the uncut
//! threshold are touched at all; nets that stay deeply cut contribute
//! zero delta and are skipped without a pin scan. The invariant is strict
//! equality: a cached gain always matches what [`NLevelPartition::gain`]
//! would recompute, so caching cannot change any decision (debug builds
//! assert this at every pop). Between invocations — across
//! uncontractions in particular — the whole cache retires in O(1) via an
//! epoch bump, so no per-uncontract invalidation is needed.

use super::dynhg::{ContractionMemento, DynHypergraph};
use super::workspace::LocalSearchScratch;
use crate::config::InsertionPolicy;
use crate::ctx::RunCtx;
use hypart_hypergraph::{NetId, PartId, VertexId};
use hypart_trace::RunEvent;
use rand::Rng;

/// Nets larger than this do not propagate activation during localized
/// refinement (the same "skip huge nets" cutoff the matcher uses).
const ACTIVATION_NET_SIZE_CAP: u32 = 300;

/// Incremental 2-way partition state for the n-level backend.
///
/// Tracks, per net, how many of its *active* pins lie on each side
/// (`counts`), plus side weights and the weighted cut, all updated in
/// O(affected pins) per move or uncontraction. Sides live in the full
/// slot range of the underlying [`DynHypergraph`]; inactive slots keep
/// the side of their survivor so uncontraction is side inheritance plus
/// a constant-size count patch.
///
/// The default value is an empty placeholder for workspace storage;
/// [`NLevelPartition::reset`] turns it into a live state.
#[derive(Clone, Debug, Default)]
pub struct NLevelPartition {
    part: Vec<PartId>,
    counts: Vec<[u32; 2]>,
    part_weight: [u64; 2],
    cut: u64,
}

impl NLevelPartition {
    /// Builds the state from per-slot sides; only active slots of `d`
    /// are read, inactive slots are carried verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `sides` is shorter than `d.num_slots()`.
    pub fn new(d: &DynHypergraph, sides: Vec<PartId>) -> NLevelPartition {
        let mut p = NLevelPartition {
            part: sides,
            ..NLevelPartition::default()
        };
        p.rebuild(d);
        p
    }

    /// Rebuilds the state in place from per-slot sides, keeping all
    /// allocations — the recycling twin of [`NLevelPartition::new`],
    /// with identical results.
    ///
    /// # Panics
    ///
    /// Panics if `sides` is shorter than `d.num_slots()`.
    pub fn reset(&mut self, d: &DynHypergraph, sides: &[PartId]) {
        self.part.clear();
        self.part.extend_from_slice(sides);
        self.rebuild(d);
    }

    /// Recomputes counts, side weights, and cut from `self.part`.
    fn rebuild(&mut self, d: &DynHypergraph) {
        assert!(self.part.len() >= d.num_slots(), "side per slot required");
        self.counts.clear();
        self.counts.resize(d.num_nets(), [0; 2]);
        self.part_weight = [0; 2];
        for slot in 0..d.num_slots() {
            let v = VertexId::from_index(slot);
            if d.is_active(v) {
                self.part_weight[self.part[slot].index()] += d.weight(v);
            }
        }
        self.cut = 0;
        for (e, counts) in self.counts.iter_mut().enumerate() {
            let net = NetId::from_index(e);
            for &p in d.net_pins(net) {
                counts[self.part[p.index()].index()] += 1;
            }
            if is_cut(*counts, d.net_size(net)) {
                self.cut += u64::from(d.net_weight(net));
            }
        }
    }

    /// Side of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> PartId {
        self.part[v.index()]
    }

    /// Weight of side `p`.
    #[inline]
    pub fn part_weight(&self, p: PartId) -> u64 {
        self.part_weight[p.index()]
    }

    /// Current weighted cut (incrementally maintained).
    #[inline]
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// The per-slot side vector.
    #[inline]
    pub fn assignment(&self) -> &[PartId] {
        &self.part
    }

    /// Consumes the state, returning the per-slot side vector.
    pub fn into_assignment(self) -> Vec<PartId> {
        self.part
    }

    /// Sum over both sides of the distance outside `[lower, upper]`.
    pub fn total_violation(&self, lower: u64, upper: u64) -> u64 {
        self.part_weight
            .iter()
            .map(|&w| window_violation(w, lower, upper))
            .sum()
    }

    /// Cut delta of moving `v` to the other side, negated (positive =
    /// cut improves). `v` must be active in `d`.
    pub fn gain(&self, d: &DynHypergraph, v: VertexId) -> i64 {
        let from = self.part_of(v).index();
        let mut gain = 0i64;
        for &e in d.incident_nets(v) {
            let size = d.net_size(e);
            if size < 2 {
                continue;
            }
            let c = self.counts[e.index()];
            debug_assert!(c[from] >= 1);
            // v sits in `from`, so c[from] ≥ 1 and the other side cannot
            // hold all pins: uncut before iff c[from] == size, uncut
            // after iff c[to] + 1 == size.
            let w = i64::from(d.net_weight(e));
            gain += w * (i64::from(c[1 - from] + 1 == size) - i64::from(c[from] == size));
        }
        gain
    }

    /// Moves `v` to the other side, updating counts, weights and cut.
    /// Returns the realized gain (cut before minus cut after).
    pub fn move_vertex(&mut self, d: &DynHypergraph, v: VertexId) -> i64 {
        let from = self.part_of(v);
        let before = self.cut;
        for &e in d.incident_nets(v) {
            let size = d.net_size(e);
            let c = &mut self.counts[e.index()];
            let was_cut = is_cut(*c, size);
            c[from.index()] -= 1;
            c[from.other().index()] += 1;
            let now_cut = is_cut(*c, size);
            if was_cut && !now_cut {
                self.cut -= u64::from(d.net_weight(e));
            } else if !was_cut && now_cut {
                self.cut += u64::from(d.net_weight(e));
            }
        }
        self.shift_weight(d, v, from);
        before as i64 - self.cut as i64
    }

    /// [`NLevelPartition::move_vertex`] plus exact maintenance of every
    /// live cached gain in `cache`: for each net of `v`, the gain deltas
    /// of the pins left on `v`'s old side and of the pins on its new side
    /// follow from the pre-move side counts, and the net's pins are
    /// scanned **only when a delta is nonzero** — i.e. only when the net
    /// is uncut or one pin away from uncut. Deeply cut nets (the common
    /// case on large mixed nets) cost O(1).
    ///
    /// `v`'s own cached gain is left stale; callers lock `v` immediately,
    /// so it is never read again this invocation.
    pub(crate) fn move_vertex_cached(
        &mut self,
        d: &DynHypergraph,
        v: VertexId,
        cache: &mut LocalSearchScratch,
    ) -> i64 {
        let from = self.part_of(v);
        let (f, t) = (from.index(), from.other().index());
        let before = self.cut;
        for &e in d.incident_nets(v) {
            let size = d.net_size(e);
            let c = self.counts[e.index()];
            debug_assert!(c[f] >= 1);
            let counts = &mut self.counts[e.index()];
            counts[f] -= 1;
            counts[t] += 1;
            if size < 2 {
                continue;
            }
            let w = i64::from(d.net_weight(e));
            let (was_cut, now_cut) = (c[f] != size, c[t] + 1 != size);
            if was_cut && !now_cut {
                self.cut -= w as u64;
            } else if !was_cut && now_cut {
                self.cut += w as u64;
            }
            // A pin on side p moving to q contributes
            // w·([c_q + 1 = s] − [c_p = s]) to its gain. The move takes
            // one pin off `from` and puts one on `to`:
            //   pins left on `from` (moving to `to`) see c_to rise and
            //   c_from drop;
            //   pins on `to` (moving to `from`) see c_from drop and c_to
            //   rise.
            let full = |count: u32| i64::from(count == size);
            let stay = w * (full(c[t] + 2) - full(c[t] + 1) + full(c[f]) - full(c[f] - 1));
            let joined = w * (full(c[f]) - full(c[f] + 1) + full(c[t]) - full(c[t] + 1));
            if stay == 0 && joined == 0 {
                continue;
            }
            for &y in d.net_pins(e) {
                if y == v || !cache.is_cached(y) {
                    continue;
                }
                cache.gains[y.index()] += if self.part[y.index()] == from {
                    stay
                } else {
                    joined
                };
            }
        }
        self.shift_weight(d, v, from);
        before as i64 - self.cut as i64
    }

    /// Moves `v`'s weight and side from `from` to the other side.
    fn shift_weight(&mut self, d: &DynHypergraph, v: VertexId, from: PartId) {
        let weight = d.weight(v);
        self.part_weight[from.index()] -= weight;
        self.part_weight[from.other().index()] += weight;
        self.part[v.index()] = from.other();
    }

    /// Partition-side bookkeeping for undoing `m`. **Call before**
    /// [`DynHypergraph::uncontract`]: the case-A detection reads the
    /// parked tail pin, which the structural undo consumes.
    ///
    /// `v` inherits `u`'s side, so the cut never changes: case-A nets
    /// regain a pin on a side they already touch (via `u`), case-B nets
    /// swap which vertex represents the cluster without changing counts.
    pub fn begin_uncontract(&mut self, d: &DynHypergraph, m: &ContractionMemento) {
        let p = self.part[m.u.index()];
        self.part[m.v.index()] = p;
        for &e in d.incident_nets(m.v) {
            if d.tail_pin(e) == Some(m.v) {
                self.counts[e.index()][p.index()] += 1;
            }
        }
        // Weights: `uncontract` restores d's vertex weights; the side
        // totals are unchanged because u's aggregate already counted v.
    }

    /// Recomputes the weighted cut from scratch (audit paths only).
    pub fn recompute_cut(&self, d: &DynHypergraph) -> u64 {
        (0..d.num_nets())
            .map(NetId::from_index)
            .filter(|&e| is_cut(self.counts[e.index()], d.net_size(e)))
            .map(|e| u64::from(d.net_weight(e)))
            .sum()
    }
}

/// Whether a net of `size` active pins with side counts `counts` is cut.
#[inline]
fn is_cut(counts: [u32; 2], size: u32) -> bool {
    size >= 2 && counts[0] != size && counts[1] != size
}

/// A localized search stalls out after this many consecutive applied
/// moves without a new best (violation, cut): adverse moves may explore
/// past a local minimum, but only this far.
const STALL_LIMIT: usize = 64;

/// Fills `v`'s cached gain in `scratch` if it is stale this invocation.
fn ensure_cached(
    partition: &NLevelPartition,
    d: &DynHypergraph,
    scratch: &mut LocalSearchScratch,
    v: VertexId,
) {
    if !scratch.is_cached(v) {
        scratch.gains[v.index()] = partition.gain(d, v);
        scratch.gain_stamp[v.index()] = scratch.epoch;
    }
}

/// Localized FM refinement around one uncontraction.
///
/// Seeds the two gain containers (one per side) with `seeds` (normally
/// the released pair `[u, v]`), then repeatedly applies the best pending
/// move that keeps the balance window `[lower, upper]` satisfiable —
/// **including adverse (negative-gain) moves**, the classic FM
/// hill-climb; a tie between the two sides' best keys goes to side 0.
/// Every applied move is logged; whenever the lexicographic potential
/// (total violation, cut) reaches a new strict minimum the log position
/// is recorded, and on exit everything after the best prefix is rolled
/// back. Neighbors of every moved vertex (through nets of size ≤ 300)
/// are activated, so improvement ripples outward exactly as far as it
/// keeps paying. Vertices move at most once per invocation, and the
/// search stops a fixed stall limit (64 moves) after the last
/// improvement, so termination is structural.
///
/// All gains come from the exact cache in `scratch` (see the module
/// docs): one fill per touched vertex, O(affected pins) deltas per
/// applied move, identical values to recomputation — reusing a dirty
/// scratch never changes results, it only skips allocations.
///
/// Returns the number of *retained* moves (the best prefix); emits
/// [`RunEvent::Move`] per applied move on enabled sinks (like a flat FM
/// pass, rolled-back tail moves included).
#[allow(clippy::too_many_arguments)]
pub fn refine_localized<R: Rng>(
    partition: &mut NLevelPartition,
    d: &DynHypergraph,
    seeds: &[VertexId],
    lower: u64,
    upper: u64,
    insertion: InsertionPolicy,
    rng: &mut R,
    scratch: &mut LocalSearchScratch,
    ctx: &mut RunCtx<'_>,
) -> usize {
    let sink = ctx.sink;
    let traced = sink.is_enabled();
    let containers = ctx.workspace.containers(d.num_slots(), d.gain_bound());
    scratch.begin(d.num_slots());
    let mut best_len = 0usize;
    let mut cur_viol = partition.total_violation(lower, upper);
    let mut best_viol = cur_viol;
    let mut best_cut = partition.cut();

    for &s in seeds {
        if !d.is_active(s) || d.fixed_part(s).is_some() {
            continue;
        }
        let side = partition.part_of(s).index();
        if containers[side].contains(s) {
            continue;
        }
        ensure_cached(partition, d, scratch, s);
        containers[side].insert(s, scratch.gain_of(s), insertion, rng);
    }

    loop {
        // Highest-keyed head across both sides.
        let mut best: Option<(i64, PartId, VertexId)> = None;
        for (container, side) in containers.iter_mut().zip(PartId::ALL) {
            let Some(key) = container.descend_max() else {
                continue;
            };
            if best.is_some_and(|(g, _, _)| key <= g) {
                continue;
            }
            if let Some(head) = container.head_of(key) {
                best = Some((key, side, head));
            }
        }
        let Some((key, from, v)) = best else { break };
        debug_assert_eq!(partition.part_of(v), from, "container holds a moved vertex");
        let true_gain = scratch.gain_of(v);
        debug_assert_eq!(
            true_gain,
            partition.gain(d, v),
            "gain cache drifted from recomputation"
        );
        if true_gain != key {
            containers[from.index()].update(v, true_gain, insertion, rng);
            continue;
        }
        let w = d.weight(v);
        let from_after = partition.part_weight(from) - w;
        let to_after = partition.part_weight(from.other()) + w;
        let inside = from_after >= lower && to_after <= upper;
        let viol_before = partition.total_violation(lower, upper);
        let viol_after =
            window_violation(from_after, lower, upper) + window_violation(to_after, lower, upper);
        // Balance admissibility only — adverse gains are welcome, the
        // best-prefix rollback keeps them honest.
        let admissible = (inside && viol_after <= viol_before) || viol_after < viol_before;
        containers[from.index()].remove(v);
        if !admissible {
            continue;
        }

        let realized = partition.move_vertex_cached(d, v, scratch);
        debug_assert_eq!(realized, true_gain);
        scratch.lock(v);
        scratch.log.push(v);
        if traced {
            sink.emit(RunEvent::Move {
                vertex: v.raw() as u64,
                gain: realized,
                cut: partition.cut(),
            });
        }
        cur_viol = cur_viol + viol_after - viol_before;
        if (cur_viol, partition.cut()) < (best_viol, best_cut) {
            best_viol = cur_viol;
            best_cut = partition.cut();
            best_len = scratch.log.len();
        } else if scratch.log.len() - best_len > STALL_LIMIT {
            break;
        }

        // Refresh / activate the boundary around the move. Cached gains
        // are already move-exact; only first-touch vertices pay a fill.
        for &e in d.incident_nets(v) {
            if d.net_size(e) > ACTIVATION_NET_SIZE_CAP {
                continue;
            }
            for &y in d.net_pins(e) {
                if y == v || scratch.is_locked(y) || d.fixed_part(y).is_some() {
                    continue;
                }
                let side = partition.part_of(y).index();
                ensure_cached(partition, d, scratch, y);
                let g = scratch.gain_of(y);
                if containers[side].contains(y) {
                    containers[side].update(y, g, insertion, rng);
                } else {
                    containers[side].insert(y, g, insertion, rng);
                }
            }
        }
    }

    // Roll the exploration tail back to the best prefix. The replayed
    // inverse moves restore counts, weights, and cut exactly (plain
    // moves: the cache is dead after the loop, the next invocation's
    // epoch bump retires it wholesale).
    while scratch.log.len() > best_len {
        let Some(v) = scratch.log.pop() else {
            break;
        };
        partition.move_vertex(d, v);
    }
    debug_assert_eq!(partition.cut(), best_cut);
    debug_assert_eq!(partition.total_violation(lower, upper), best_viol);
    best_len
}

#[inline]
fn window_violation(w: u64, lower: u64, upper: u64) -> u64 {
    w.saturating_sub(upper) + lower.saturating_sub(w)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_hypergraph::{Hypergraph, HypergraphBuilder};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Two triangles joined by one bridge net (the dynhg toy).
    fn toy() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1], v[2]], 2).unwrap();
        b.add_net([v[3], v[4], v[5]], 2).unwrap();
        b.add_net([v[2], v[3]], 1).unwrap();
        b.add_net([v[0], v[1]], 3).unwrap();
        b.build().unwrap()
    }

    /// Sides from 0/1 labels.
    fn sides(labels: &[u8]) -> Vec<PartId> {
        labels
            .iter()
            .map(|&l| if l == 0 { PartId::P0 } else { PartId::P1 })
            .collect()
    }

    #[test]
    fn new_counts_weights_and_cut_agree_with_recompute() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        let p = NLevelPartition::new(&d, sides(&[0, 0, 0, 1, 1, 1]));
        assert_eq!(p.cut(), 1);
        assert_eq!(p.part_weight(PartId::P0), 3);
        assert_eq!(p.part_weight(PartId::P1), 3);
        assert_eq!(p.recompute_cut(&d), p.cut());
    }

    #[test]
    fn reset_matches_new_after_dirtying() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        let mut p = NLevelPartition::new(&d, sides(&[0, 1, 0, 1, 0, 1]));
        p.move_vertex(&d, VertexId::new(1));
        // Reset onto fresh sides: indistinguishable from a fresh build.
        p.reset(&d, &sides(&[0, 0, 0, 1, 1, 1]));
        let q = NLevelPartition::new(&d, sides(&[0, 0, 0, 1, 1, 1]));
        assert_eq!(p.cut(), q.cut());
        assert_eq!(p.part_weight(PartId::P0), q.part_weight(PartId::P0));
        assert_eq!(p.assignment(), q.assignment());
        assert_eq!(p.recompute_cut(&d), p.cut());
    }

    #[test]
    fn move_vertex_updates_cut_incrementally() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        let mut p = NLevelPartition::new(&d, sides(&[0, 0, 0, 1, 1, 1]));
        let v2 = VertexId::new(2);
        let g = p.gain(&d, v2);
        let realized = p.move_vertex(&d, v2);
        assert_eq!(g, realized);
        assert_eq!(p.part_of(v2), PartId::P1);
        assert_eq!(p.recompute_cut(&d), p.cut());
        assert_eq!(p.part_weight(PartId::P0), 2);
        assert_eq!(p.part_weight(PartId::P1), 4);
    }

    #[test]
    fn cached_moves_keep_every_live_gain_exact() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        let mut p = NLevelPartition::new(&d, sides(&[0, 0, 1, 1, 0, 1]));
        let mut s = LocalSearchScratch::new();
        s.begin(d.num_slots());
        for slot in 0..6 {
            ensure_cached(&p, &d, &mut s, VertexId::new(slot));
        }
        // A few moves, each followed by a full cache/recompute audit of
        // every vertex except the ones already moved.
        let mut moved = Vec::new();
        for slot in [2usize, 4, 0] {
            let v = VertexId::from_index(slot);
            let expected = p.gain(&d, v);
            assert_eq!(s.gain_of(v), expected);
            let realized = p.move_vertex_cached(&d, v, &mut s);
            assert_eq!(realized, expected);
            moved.push(slot);
            assert_eq!(p.recompute_cut(&d), p.cut());
            for y in 0..6 {
                if moved.contains(&y) {
                    continue;
                }
                let yv = VertexId::from_index(y);
                assert_eq!(s.gain_of(yv), p.gain(&d, yv), "gain of {y} drifted");
            }
        }
    }

    #[test]
    fn uncontraction_preserves_cut_and_weights() {
        let h = toy();
        let mut d = DynHypergraph::new(&h);
        let (a, b) = (VertexId::new(0), VertexId::new(1));
        let m = d.contract(a, b);
        let mut p = NLevelPartition::new(&d, sides(&[0, 0, 0, 1, 1, 1]));
        let cut_before = p.cut();
        let weights_before = (p.part_weight(PartId::P0), p.part_weight(PartId::P1));
        p.begin_uncontract(&d, &m);
        d.uncontract(&m);
        assert_eq!(p.cut(), cut_before);
        assert_eq!(p.recompute_cut(&d), p.cut());
        assert_eq!(
            (p.part_weight(PartId::P0), p.part_weight(PartId::P1)),
            weights_before
        );
        assert_eq!(p.part_of(b), p.part_of(a));
    }

    #[test]
    fn localized_refinement_moves_the_bridge_vertex() {
        // Put v2 on the wrong side: net 0 (w=2) cut, net 2 (w=1) uncut.
        // Moving v2 from side 1 to side 0 gains 2 - 1 = 1.
        let h = toy();
        let d = DynHypergraph::new(&h);
        let mut p = NLevelPartition::new(&d, sides(&[0, 0, 1, 1, 1, 1]));
        assert_eq!(p.cut(), 2);
        let mut ctx = RunCtx::new(11);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut scratch = LocalSearchScratch::new();
        let moves = refine_localized(
            &mut p,
            &d,
            &[VertexId::new(2)],
            1,
            5,
            InsertionPolicy::Lifo,
            &mut rng,
            &mut scratch,
            &mut ctx,
        );
        assert!(moves >= 1);
        assert_eq!(p.part_of(VertexId::new(2)), PartId::P0);
        assert_eq!(p.cut(), 1);
        assert_eq!(p.recompute_cut(&d), p.cut());
    }

    #[test]
    fn zero_gain_moves_only_repair_balance() {
        let h = toy();
        let d = DynHypergraph::new(&h);
        // Perfectly balanced optimum: no move should apply.
        let mut p = NLevelPartition::new(&d, sides(&[0, 0, 0, 1, 1, 1]));
        let mut ctx = RunCtx::new(3);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut scratch = LocalSearchScratch::new();
        let seeds: Vec<_> = (0..6).map(VertexId::new).collect();
        let moves = refine_localized(
            &mut p,
            &d,
            &seeds,
            2,
            4,
            InsertionPolicy::Lifo,
            &mut rng,
            &mut scratch,
            &mut ctx,
        );
        assert_eq!(moves, 0);
        assert_eq!(p.cut(), 1);
    }
}
