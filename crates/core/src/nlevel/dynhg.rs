//! The incrementally mutated hypergraph view of the n-level backend.
//!
//! A [`DynHypergraph`] is built once from an immutable CSR
//! [`Hypergraph`] and then mutated in place by single-pair contractions:
//! no per-level CSR rebuild ever happens. Each net keeps its pins in one
//! array with an *active prefix* — contracting `v` into `u` either swaps
//! `v` out to the disabled tail (when `u` is already on the net) or
//! overwrites `v`'s slot with `u` (when it is not). This is the **lazy
//! net shrinking** discipline: nets that become identical after a
//! contraction are *not* merged and keep their separate weights, because
//! a merge could not be undone by a constant-size memento.
//!
//! Undo correctness rests on strict LIFO: when a
//! [`ContractionMemento`] is undone, every later contraction has already
//! been undone, so each affected net is in exactly the state the matching
//! contraction left it in. In that state, `v` sits in the first disabled
//! slot of every net it was swapped out of (case A), and `u` occupies
//! `v`'s old slot on every net it was substituted into (case B) — which
//! is why the memento needs no per-net bookkeeping at all.
//!
//! # Storage: slab adjacency arenas
//!
//! Both adjacency directions live in flat slabs instead of per-entity
//! `Vec`s, so the contract/uncontract hot loop walks contiguous memory
//! and a reused view re-fills arenas instead of reallocating:
//!
//! * **pins** never change length (contraction permutes the active
//!   prefix in place), so they are a plain CSR pair
//!   (`pin_off`/`pin_data`) with the active-prefix length in `size` and
//!   the original length recoverable from the offsets;
//! * **incidence lists** grow (case-B contractions append to the
//!   survivor), so each vertex holds an 8-byte segment handle
//!   (offset + length) into one grow-only slab. When a segment fills, it
//!   moves to a power-of-two-capacity segment — taken from a per-class
//!   free list of previously parked segments when possible, carved off
//!   the slab end otherwise — and the old segment is parked on its
//!   class's free list for reuse.
//!
//! [`DynHypergraph::reset_from_csr`] re-points every arena at a new (or
//! the same) source graph while keeping all allocations, so a view
//! reused through a [`super::NLevelWorkspace`] allocates nothing once
//! its arenas have grown.

use hypart_hypergraph::{Hypergraph, NetId, PartId, VertexId};

/// The constant-size undo record of one contraction `(u ← v)`.
///
/// Valid only under strict LIFO undo (see the module docs): the memento
/// stores which pair was merged, how many nets `u` was on before the
/// merge (everything appended past that length came from case-B
/// substitutions and is truncated on undo), and `u`'s fixed side before
/// it inherited `v`'s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContractionMemento {
    /// The surviving vertex.
    pub u: VertexId,
    /// The vertex contracted into `u` (inactive until undone).
    pub v: VertexId,
    /// Length of `u`'s incidence list before the contraction.
    u_nets_len: u32,
    /// `u`'s fixed side before inheriting `v`'s.
    u_fixed_before: Option<PartId>,
}

/// An 8-byte handle to one vertex's incidence segment in the slab.
#[derive(Clone, Copy, Debug, Default)]
struct Seg {
    /// Start of the segment in the incidence slab.
    off: u32,
    /// Current logical length (capacity lives in `inc_cap`).
    len: u32,
}

/// Number of power-of-two segment size classes (covers every `u32`
/// capacity).
const NUM_CLASSES: usize = 33;

/// An incrementally mutated hypergraph view supporting single-pair
/// [`contract`](DynHypergraph::contract) /
/// [`uncontract`](DynHypergraph::uncontract) with lazy net shrinking.
///
/// Vertex and net ids are those of the source [`Hypergraph`]; inactive
/// vertices keep their slots so a memento stack can reactivate them.
#[derive(Clone, Debug, Default)]
pub struct DynHypergraph {
    /// `true` while the vertex is a live (representative) vertex.
    active: Vec<bool>,
    /// Aggregated cluster weight per live vertex.
    weight: Vec<u64>,
    /// Inherited fixed side per live vertex.
    fixed: Vec<Option<PartId>>,
    /// Per-vertex incidence segment handle. Case-B contractions append
    /// to the survivor's segment; undo truncates back to the recorded
    /// length.
    inc_seg: Vec<Seg>,
    /// Per-vertex segment capacity (initial segments are laid out tight;
    /// grown segments have power-of-two capacity).
    inc_cap: Vec<u32>,
    /// The incidence slab all segments live in.
    inc_data: Vec<NetId>,
    /// Per-class free lists of parked segment offsets; class `c` holds
    /// segments with capacity ≥ 2ᶜ, reused as capacity-2ᶜ segments.
    free: Vec<Vec<u32>>,
    /// CSR offsets of the pin slab (`num_nets + 1` entries). Pin arrays
    /// never change length, so the original size of net `e` is
    /// `pin_off[e+1] - pin_off[e]`.
    pin_off: Vec<u32>,
    /// Pin slab; `pin_data[pin_off[e]..][..size[e]]` is the active
    /// prefix of net `e`.
    pin_data: Vec<VertexId>,
    /// Active pin count per net.
    size: Vec<u32>,
    /// Net weights (never change: identical nets are not merged).
    net_weight: Vec<u32>,
    /// Number of active vertices.
    num_active: usize,
    /// Total weight of all nets — a safe gain bound for any aggregate.
    total_net_weight: u64,
}

impl DynHypergraph {
    /// Builds the dynamic view of `h` with every vertex active.
    pub fn new(h: &Hypergraph) -> DynHypergraph {
        let mut d = DynHypergraph::default();
        d.reset_from_csr(h);
        d
    }

    /// Re-points the view at `h` with every vertex active, keeping all
    /// slab and table allocations. A reset view is indistinguishable
    /// from a fresh [`DynHypergraph::new`] — reuse across multi-starts,
    /// V-cycles, and recursive-bisection subproblems never changes
    /// results, only removes allocation cost.
    pub fn reset_from_csr(&mut self, h: &Hypergraph) {
        let n = h.num_vertices();
        self.active.clear();
        self.active.resize(n, true);
        self.weight.clear();
        self.weight.extend(h.vertices().map(|v| h.vertex_weight(v)));
        self.fixed.clear();
        self.fixed.extend(h.vertices().map(|v| h.fixed_part(v)));
        self.inc_seg.clear();
        self.inc_cap.clear();
        self.inc_data.clear();
        if self.free.len() < NUM_CLASSES {
            self.free.resize_with(NUM_CLASSES, Vec::new);
        }
        for f in &mut self.free {
            f.clear();
        }
        for v in h.vertices() {
            let nets = h.vertex_nets(v);
            let off = self.inc_data.len() as u32;
            self.inc_data.extend_from_slice(nets);
            self.inc_seg.push(Seg {
                off,
                len: nets.len() as u32,
            });
            self.inc_cap.push(nets.len() as u32);
        }
        self.pin_off.clear();
        self.pin_data.clear();
        self.size.clear();
        self.net_weight.clear();
        self.pin_off.push(0);
        self.total_net_weight = 0;
        for e in h.nets() {
            let p = h.net_pins(e);
            self.pin_data.extend_from_slice(p);
            self.pin_off.push(self.pin_data.len() as u32);
            self.size.push(p.len() as u32);
            self.net_weight.push(h.net_weight(e));
            self.total_net_weight += u64::from(h.net_weight(e));
        }
        self.num_active = n;
    }

    /// Number of vertex slots (the source graph's vertex count).
    pub fn num_slots(&self) -> usize {
        self.active.len()
    }

    /// Number of currently active vertices.
    pub fn num_active(&self) -> usize {
        self.num_active
    }

    /// Number of net slots (the source graph's net count).
    pub fn num_nets(&self) -> usize {
        self.size.len()
    }

    /// Number of nets whose active prefix still spans two or more pins.
    pub fn num_live_nets(&self) -> usize {
        self.size.iter().filter(|&&s| s >= 2).count()
    }

    /// `true` while `v` is a live representative.
    pub fn is_active(&self, v: VertexId) -> bool {
        self.active[v.index()]
    }

    /// Aggregated cluster weight of `v`.
    pub fn weight(&self, v: VertexId) -> u64 {
        self.weight[v.index()]
    }

    /// Inherited fixed side of `v`.
    pub fn fixed_part(&self, v: VertexId) -> Option<PartId> {
        self.fixed[v.index()]
    }

    /// Weight of net `e`.
    pub fn net_weight(&self, e: NetId) -> u32 {
        self.net_weight[e.index()]
    }

    /// Active pin count of net `e`.
    pub fn net_size(&self, e: NetId) -> u32 {
        self.size[e.index()]
    }

    /// Original (full) pin count of net `e`.
    #[inline]
    fn orig_size(&self, e: usize) -> usize {
        (self.pin_off[e + 1] - self.pin_off[e]) as usize
    }

    /// The active pins of net `e` (prefix order is an implementation
    /// detail: contractions permute it).
    pub fn net_pins(&self, e: NetId) -> &[VertexId] {
        let i = e.index();
        let off = self.pin_off[i] as usize;
        &self.pin_data[off..off + self.size[i] as usize]
    }

    /// The nets `v` currently sits on (only meaningful while active).
    pub fn incident_nets(&self, v: VertexId) -> &[NetId] {
        let seg = self.inc_seg[v.index()];
        &self.inc_data[seg.off as usize..(seg.off + seg.len) as usize]
    }

    /// The first disabled pin of `e`, if any. At LIFO-undo time this is
    /// the vertex the matching case-A contraction swapped out, which is
    /// how callers distinguish case A from case B *before* undoing.
    pub fn tail_pin(&self, e: NetId) -> Option<VertexId> {
        let i = e.index();
        let s = self.size[i] as usize;
        if s < self.orig_size(i) {
            Some(self.pin_data[self.pin_off[i] as usize + s])
        } else {
            None
        }
    }

    /// Total weight of all nets — a safe bound on any vertex's gain in
    /// any partition of this view, however aggregated its clusters are.
    pub fn gain_bound(&self) -> i64 {
        i64::try_from(self.total_net_weight)
            .unwrap_or(i64::MAX)
            .max(1)
    }

    /// Appends `e` to `u`'s incidence segment, migrating to a larger
    /// power-of-two segment (free list first, slab end otherwise) when
    /// the current one is full. The outgrown segment is parked on its
    /// class's free list.
    fn inc_push(&mut self, u: usize, e: NetId) {
        let Seg { off, len } = self.inc_seg[u];
        let cap = self.inc_cap[u];
        if len == cap {
            let new_cap = (cap + 1).next_power_of_two().max(4);
            let class = new_cap.trailing_zeros() as usize;
            let new_off = match self.free[class].pop() {
                Some(o) => o,
                None => {
                    let o = self.inc_data.len() as u32;
                    self.inc_data
                        .resize(self.inc_data.len() + new_cap as usize, NetId::new(u32::MAX));
                    o
                }
            };
            self.inc_data
                .copy_within(off as usize..(off + len) as usize, new_off as usize);
            if cap > 0 {
                // floor(log2(cap)): a parked segment serves any request
                // of its floor class or below.
                let old_class = (31 - cap.leading_zeros()) as usize;
                self.free[old_class].push(off);
            }
            self.inc_seg[u] = Seg { off: new_off, len };
            self.inc_cap[u] = new_cap;
        }
        let seg = self.inc_seg[u];
        self.inc_data[(seg.off + seg.len) as usize] = e;
        self.inc_seg[u].len = seg.len + 1;
    }

    /// Contracts `v` into `u`: `u` absorbs `v`'s weight, nets, and (if
    /// `u` was free) fixed side; `v` becomes inactive. Returns the
    /// memento undoing the step.
    ///
    /// For each net of `v`: if `u` is already on the net, `v` is swapped
    /// to the disabled tail (case A — the net shrinks lazily); otherwise
    /// `v`'s slot is overwritten with `u` and the net is appended to
    /// `u`'s incidence list (case B).
    ///
    /// # Panics
    ///
    /// Debug-asserts that `u != v`, both are active, and their fixed
    /// sides are compatible.
    pub fn contract(&mut self, u: VertexId, v: VertexId) -> ContractionMemento {
        debug_assert_ne!(u, v, "self-contraction");
        debug_assert!(self.active[u.index()] && self.active[v.index()]);
        debug_assert!(
            self.fixed[u.index()].is_none()
                || self.fixed[v.index()].is_none()
                || self.fixed[u.index()] == self.fixed[v.index()],
            "contracting across fixed sides"
        );
        let memento = ContractionMemento {
            u,
            v,
            u_nets_len: self.inc_seg[u.index()].len,
            u_fixed_before: self.fixed[u.index()],
        };
        // v's segment is never touched while contracting into u, so
        // indexed iteration stays valid across slab growth.
        let v_seg = self.inc_seg[v.index()];
        for i in 0..v_seg.len {
            let e = self.inc_data[(v_seg.off + i) as usize];
            let ei = e.index();
            let s = self.size[ei] as usize;
            let off = self.pin_off[ei] as usize;
            let pins = &mut self.pin_data[off..off + s];
            let mut pos_v = usize::MAX;
            let mut has_u = false;
            for (j, &p) in pins.iter().enumerate() {
                if p == v {
                    pos_v = j;
                } else if p == u {
                    has_u = true;
                }
            }
            debug_assert_ne!(pos_v, usize::MAX, "v not on its own net");
            if has_u {
                pins.swap(pos_v, s - 1);
                self.size[ei] = (s - 1) as u32;
            } else {
                pins[pos_v] = u;
                self.inc_push(u.index(), e);
            }
        }
        self.weight[u.index()] += self.weight[v.index()];
        if self.fixed[u.index()].is_none() {
            self.fixed[u.index()] = self.fixed[v.index()];
        }
        self.active[v.index()] = false;
        self.num_active -= 1;
        memento
    }

    /// Undoes the **most recent not-yet-undone** contraction. Mementos
    /// must be undone in strict LIFO order; nothing checks this beyond
    /// debug assertions, and out-of-order undo corrupts the view.
    pub fn uncontract(&mut self, m: &ContractionMemento) {
        let (u, v) = (m.u, m.v);
        debug_assert!(self.active[u.index()] && !self.active[v.index()]);
        // Drop every net case B appended to u during this contraction
        // (the segment keeps its capacity, like a `Vec` truncate).
        self.inc_seg[u.index()].len = m.u_nets_len;
        let v_seg = self.inc_seg[v.index()];
        for i in 0..v_seg.len {
            let e = self.inc_data[(v_seg.off + i) as usize];
            let ei = e.index();
            let s = self.size[ei] as usize;
            let off = self.pin_off[ei] as usize;
            if s < self.orig_size(ei) && self.pin_data[off + s] == v {
                // Case A: v sits in the first disabled slot — regrow the
                // active prefix over it. (The prefix order is permuted
                // relative to the original CSR, which is fine: no
                // consumer depends on pin order.)
                self.size[ei] = (s + 1) as u32;
            } else {
                // Case B: u stands in v's old slot; give it back.
                let pins = &mut self.pin_data[off..off + s];
                match pins.iter().position(|&p| p == u) {
                    Some(j) => pins[j] = v,
                    None => debug_assert!(false, "undo: u missing from net prefix"),
                }
            }
        }
        self.weight[u.index()] -= self.weight[v.index()];
        self.fixed[u.index()] = m.u_fixed_before;
        self.active[v.index()] = true;
        self.num_active += 1;
    }

    /// Materializes the active residual as a standalone [`Hypergraph`]
    /// (for initial partitioning on the coarsest state), filling the
    /// caller's map buffers instead of allocating: `dense_of` maps
    /// original slots to dense coarse ids (`u32::MAX` for inactive
    /// slots), `slot_of` maps dense ids back. Nets with fewer than two
    /// active pins are dropped; fixed sides are carried over.
    ///
    /// # Panics
    ///
    /// Panics if the residual violates builder invariants, which would
    /// indicate memento corruption (duplicated pins on one net).
    pub fn materialize_into(
        &self,
        dense_of: &mut Vec<u32>,
        slot_of: &mut Vec<VertexId>,
    ) -> Hypergraph {
        let mut builder = hypart_hypergraph::HypergraphBuilder::new();
        dense_of.clear();
        dense_of.resize(self.active.len(), u32::MAX);
        slot_of.clear();
        for (i, &alive) in self.active.iter().enumerate() {
            if alive {
                let dense = builder.add_vertex(self.weight[i]);
                dense_of[i] = dense.raw();
                slot_of.push(VertexId::from_index(i));
                if let Some(p) = self.fixed[i] {
                    builder.fix_vertex(dense, p);
                }
            }
        }
        for e in 0..self.size.len() {
            let s = self.size[e] as usize;
            if s < 2 {
                continue;
            }
            let off = self.pin_off[e] as usize;
            let pins = self.pin_data[off..off + s]
                .iter()
                .map(|p| VertexId::new(dense_of[p.index()]));
            if let Err(err) = builder.add_net(pins, self.net_weight[e]) {
                unreachable!("residual net {e} violates builder invariants: {err}");
            }
        }
        match builder.build() {
            Ok(h) => h,
            Err(err) => unreachable!("residual graph is structurally valid: {err}"),
        }
    }

    /// Checks that this view matches the source graph it was built from —
    /// every vertex active with its original weight, fixed side, and
    /// incidence count, every net at full size. Test/audit support for
    /// the contract → uncontract twin property.
    ///
    /// Debug and test builds additionally verify the full pin and
    /// incidence *sets* (a clone-and-sort comparison per entity);
    /// release builds stop at the O(n + m) structural checks so
    /// paranoid-audit production runs don't pay O(n log n) time and
    /// per-vertex allocations here.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn validate_pristine(&self, h: &Hypergraph) -> Result<(), String> {
        if self.num_active != h.num_vertices() {
            return Err(format!(
                "active count {} != vertex count {}",
                self.num_active,
                h.num_vertices()
            ));
        }
        for v in h.vertices() {
            let i = v.index();
            if !self.active[i] {
                return Err(format!("vertex {i} inactive"));
            }
            if self.weight[i] != h.vertex_weight(v) {
                return Err(format!("vertex {i} weight drifted"));
            }
            if self.fixed[i] != h.fixed_part(v) {
                return Err(format!("vertex {i} fixed side drifted"));
            }
            if self.inc_seg[i].len as usize != h.vertex_nets(v).len() {
                return Err(format!("vertex {i} incidence length drifted"));
            }
        }
        for e in h.nets() {
            let i = e.index();
            if self.size[i] as usize != h.net_size(e) {
                return Err(format!("net {i} size drifted"));
            }
        }
        if !cfg!(debug_assertions) {
            return Ok(());
        }
        // Full set verification, debug/test builds only. The two scratch
        // buffers are reused across entities.
        let mut mine: Vec<u32> = Vec::new();
        let mut orig: Vec<u32> = Vec::new();
        for v in h.vertices() {
            let i = v.index();
            mine.clear();
            mine.extend(self.incident_nets(v).iter().map(|e| e.raw()));
            orig.clear();
            orig.extend(h.vertex_nets(v).iter().map(|e| e.raw()));
            mine.sort_unstable();
            orig.sort_unstable();
            if mine != orig {
                return Err(format!("vertex {i} incidence drifted"));
            }
        }
        for e in h.nets() {
            let i = e.index();
            mine.clear();
            mine.extend(self.net_pins(e).iter().map(|p| p.raw()));
            orig.clear();
            orig.extend(h.net_pins(e).iter().map(|p| p.raw()));
            mine.sort_unstable();
            orig.sort_unstable();
            if mine != orig {
                return Err(format!("net {i} pin set drifted"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_hypergraph::HypergraphBuilder;

    fn toy() -> Hypergraph {
        // v0-v1-v2 triangle net, v2-v3 bridge, v3-v4-v5 triangle net.
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..6).map(|_| b.add_vertex(1)).collect();
        b.add_net([v[0], v[1], v[2]], 1).unwrap();
        b.add_net([v[3], v[4], v[5]], 2).unwrap();
        b.add_net([v[2], v[3]], 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn contract_then_uncontract_restores_everything() {
        let h = toy();
        let mut d = DynHypergraph::new(&h);
        let mut stack = vec![
            d.contract(VertexId::new(0), VertexId::new(1)),
            d.contract(VertexId::new(2), VertexId::new(3)),
            d.contract(VertexId::new(0), VertexId::new(2)),
            d.contract(VertexId::new(4), VertexId::new(5)),
        ];
        assert_eq!(d.num_active(), 2);
        while let Some(m) = stack.pop() {
            d.uncontract(&m);
        }
        d.validate_pristine(&h).unwrap();
    }

    #[test]
    fn case_a_shrinks_shared_nets_lazily() {
        let h = toy();
        let mut d = DynHypergraph::new(&h);
        // v0 and v1 share net 0: case A, the net shrinks in place.
        let m = d.contract(VertexId::new(0), VertexId::new(1));
        assert_eq!(d.net_size(NetId::new(0)), 2);
        assert_eq!(d.tail_pin(NetId::new(0)), Some(VertexId::new(1)));
        assert_eq!(d.weight(VertexId::new(0)), 2);
        d.uncontract(&m);
        d.validate_pristine(&h).unwrap();
    }

    #[test]
    fn case_b_substitutes_and_extends_incidence() {
        let h = toy();
        let mut d = DynHypergraph::new(&h);
        // v0 is not on net 2 (v2-v3); contracting v2 into v0 substitutes.
        let before = d.incident_nets(VertexId::new(0)).len();
        let m = d.contract(VertexId::new(0), VertexId::new(2));
        assert_eq!(d.net_size(NetId::new(2)), 2);
        assert!(d.net_pins(NetId::new(2)).contains(&VertexId::new(0)));
        assert_eq!(d.incident_nets(VertexId::new(0)).len(), before + 1);
        d.uncontract(&m);
        d.validate_pristine(&h).unwrap();
    }

    #[test]
    fn materialize_drops_dead_nets_and_maps_back() {
        let h = toy();
        let mut d = DynHypergraph::new(&h);
        d.contract(VertexId::new(0), VertexId::new(1));
        d.contract(VertexId::new(0), VertexId::new(2));
        // Net 0 is now single-pin; nets 1 and 2 survive.
        let mut slot_of = Vec::new();
        let ch = d.materialize_into(&mut Vec::new(), &mut slot_of);
        assert_eq!(ch.num_vertices(), 4);
        assert_eq!(ch.num_nets(), 2);
        assert_eq!(slot_of[0], VertexId::new(0));
        assert_eq!(ch.vertex_weight(VertexId::new(0)), 3);
        assert_eq!(ch.total_vertex_weight(), h.total_vertex_weight());
    }

    #[test]
    fn fixed_sides_are_inherited_and_restored() {
        let h = toy().with_fixed(VertexId::new(1), Some(PartId::P1));
        let mut d = DynHypergraph::new(&h);
        let m = d.contract(VertexId::new(0), VertexId::new(1));
        assert_eq!(d.fixed_part(VertexId::new(0)), Some(PartId::P1));
        d.uncontract(&m);
        assert_eq!(d.fixed_part(VertexId::new(0)), None);
        d.validate_pristine(&h).unwrap();
    }

    #[test]
    fn reset_from_csr_recycles_into_a_pristine_view() {
        let h = toy();
        let mut d = DynHypergraph::new(&h);
        // Dirty the view thoroughly (grown segments, parked tails) …
        d.contract(VertexId::new(0), VertexId::new(2));
        d.contract(VertexId::new(0), VertexId::new(3));
        d.contract(VertexId::new(4), VertexId::new(5));
        // … then reset onto the same graph: indistinguishable from new.
        d.reset_from_csr(&h);
        d.validate_pristine(&h).unwrap();
        assert_eq!(d.num_active(), 6);
        // And onto a different graph entirely.
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..3).map(|_| b.add_vertex(2)).collect();
        b.add_net([v[0], v[1], v[2]], 5).unwrap();
        let h2 = b.build().unwrap();
        d.reset_from_csr(&h2);
        d.validate_pristine(&h2).unwrap();
        assert_eq!(d.num_slots(), 3);
        assert_eq!(d.gain_bound(), 5);
    }

    #[test]
    fn segment_growth_reuses_parked_segments() {
        // A star: contracting every leaf into the hub forces repeated
        // case-B growth of the hub's segment through several classes.
        let mut b = HypergraphBuilder::new();
        let hub = b.add_vertex(1);
        let leaves: Vec<_> = (0..40).map(|_| b.add_vertex(1)).collect();
        // Hub starts with one net; each leaf brings a private net pair.
        for w in leaves.windows(2) {
            b.add_net([w[0], w[1]], 1).unwrap();
        }
        b.add_net([hub, leaves[0]], 1).unwrap();
        let h = b.build().unwrap();
        let mut d = DynHypergraph::new(&h);
        let mut stack = Vec::new();
        for &leaf in &leaves {
            stack.push(d.contract(hub, leaf));
        }
        assert_eq!(d.num_active(), 1);
        while let Some(m) = stack.pop() {
            d.uncontract(&m);
        }
        d.validate_pristine(&h).unwrap();
    }
}
