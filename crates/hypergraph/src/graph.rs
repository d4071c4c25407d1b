//! The immutable [`Hypergraph`] structure.

use crate::ids::{NetId, PartId, VertexId};

/// An immutable vertex- and net-weighted hypergraph with optional fixed
/// vertices, stored in CSR form in both directions.
///
/// Construct one with [`crate::HypergraphBuilder`]. Once built, the structure
/// is immutable; partitioning engines keep their mutable state (partition
/// assignments, gain containers) outside the hypergraph so that many
/// concurrent runs can share one instance.
///
/// # Representation
///
/// * net → pins: `net_pin_offsets` / `net_pin_list` (CSR)
/// * vertex → incident nets: `vertex_net_offsets` / `vertex_net_list` (CSR)
/// * `vertex_weights[v]`: cell area of `v` (`u64`)
/// * `net_weights[e]`: weight of net `e` (`u32`, typically 1)
/// * `fixed[v]`: `Some(part)` if vertex `v` is preplaced
#[derive(Clone, Debug)]
pub struct Hypergraph {
    name: String,
    net_pin_offsets: Vec<u32>,
    net_pin_list: Vec<VertexId>,
    vertex_net_offsets: Vec<u32>,
    vertex_net_list: Vec<NetId>,
    vertex_weights: Vec<u64>,
    net_weights: Vec<u32>,
    fixed: Vec<Option<PartId>>,
    total_vertex_weight: u64,
    num_fixed: usize,
    /// The largest weighted vertex degree (see
    /// [`max_gain_bound`](Hypergraph::max_gain_bound)).
    max_gain_bound: i64,
}

/// Reusable scratch for the inverse-CSR counting pass of hypergraph
/// construction.
///
/// [`crate::HypergraphBuilder::build_in`] runs its vertex-degree counting
/// and scatter cursors inside this arena instead of allocating two
/// `O(|V|)` vectors per build. The arenas grow on demand and are kept, so
/// a caller that builds many hypergraphs in sequence (the multilevel
/// coarsener builds one per level per start) pays the allocation once.
#[derive(Clone, Debug, Default)]
pub struct CsrScratch {
    /// Vertex degrees, then re-used as scatter cursors.
    degree: Vec<u32>,
    /// Scatter cursors (next free inverse-CSR slot per vertex).
    cursor: Vec<u32>,
}

impl CsrScratch {
    /// Creates an empty scratch; arenas grow on first use.
    pub fn new() -> Self {
        CsrScratch::default()
    }
}

impl Hypergraph {
    /// Assembles a hypergraph from raw CSR parts, running the inverse-CSR
    /// counting pass in recycled `scratch`. The offset accumulator is
    /// `u32`: the builder rejects pin counts beyond `u32::MAX` with
    /// [`crate::BuildError::TooManyPins`] before reaching this point, and
    /// the debug assertion below guards any future internal caller that
    /// might skip that check (an unchecked overflow here would silently
    /// corrupt the CSR).
    pub(crate) fn from_parts_in(
        name: String,
        net_pin_offsets: Vec<u32>,
        net_pin_list: Vec<VertexId>,
        vertex_weights: Vec<u64>,
        net_weights: Vec<u32>,
        fixed: Vec<Option<PartId>>,
        scratch: &mut CsrScratch,
    ) -> Self {
        let num_vertices = vertex_weights.len();
        debug_assert_eq!(net_pin_offsets.len(), net_weights.len() + 1);
        debug_assert_eq!(fixed.len(), num_vertices);
        debug_assert!(
            u32::try_from(net_pin_list.len()).is_ok(),
            "pin count {} overflows the u32 CSR offsets — builders must \
             reject this with BuildError::TooManyPins",
            net_pin_list.len()
        );

        // Build the inverse (vertex -> nets) CSR with a counting pass.
        let degree = &mut scratch.degree;
        degree.clear();
        degree.resize(num_vertices, 0);
        for &v in &net_pin_list {
            degree[v.index()] += 1;
        }
        let mut vertex_net_offsets = Vec::with_capacity(num_vertices + 1);
        let mut acc = 0u32;
        vertex_net_offsets.push(0);
        for &d in degree.iter() {
            acc += d;
            vertex_net_offsets.push(acc);
        }
        let cursor = &mut scratch.cursor;
        cursor.clear();
        cursor.extend_from_slice(&vertex_net_offsets[..num_vertices]);
        let mut vertex_net_list = vec![NetId::new(0); net_pin_list.len()];
        for e in 0..net_weights.len() {
            let start = net_pin_offsets[e] as usize;
            let end = net_pin_offsets[e + 1] as usize;
            for &v in &net_pin_list[start..end] {
                let slot = cursor[v.index()];
                vertex_net_list[slot as usize] = NetId::from_index(e);
                cursor[v.index()] = slot + 1;
            }
        }

        let total_vertex_weight = vertex_weights.iter().sum();
        let num_fixed = fixed.iter().filter(|f| f.is_some()).count();
        let max_gain_bound = vertex_net_offsets
            .windows(2)
            .map(|w| {
                vertex_net_list[w[0] as usize..w[1] as usize]
                    .iter()
                    .map(|e| i64::from(net_weights[e.index()]))
                    .sum::<i64>()
            })
            .max()
            .unwrap_or(0);

        Hypergraph {
            name,
            net_pin_offsets,
            net_pin_list,
            vertex_net_offsets,
            vertex_net_list,
            vertex_weights,
            net_weights,
            fixed,
            total_vertex_weight,
            num_fixed,
            max_gain_bound,
        }
    }

    /// Human-readable instance name (e.g. `"ibm01s"`); empty if unnamed.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vertices (cells).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_weights.len()
    }

    /// Number of nets (hyperedges).
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.net_weights.len()
    }

    /// Total number of pins (sum of net sizes).
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.net_pin_list.len()
    }

    /// Iterator over all vertex ids, `v0 .. v(n-1)`.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + Clone {
        (0..self.num_vertices() as u32).map(VertexId::new)
    }

    /// Iterator over all net ids, `e0 .. e(m-1)`.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = NetId> + Clone {
        (0..self.num_nets() as u32).map(NetId::new)
    }

    /// The pins (member vertices) of net `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[inline]
    pub fn net_pins(&self, e: NetId) -> &[VertexId] {
        let start = self.net_pin_offsets[e.index()] as usize;
        let end = self.net_pin_offsets[e.index() + 1] as usize;
        &self.net_pin_list[start..end]
    }

    /// The size (pin count) of net `e`.
    #[inline]
    pub fn net_size(&self, e: NetId) -> usize {
        (self.net_pin_offsets[e.index() + 1] - self.net_pin_offsets[e.index()]) as usize
    }

    /// The nets incident to vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn vertex_nets(&self, v: VertexId) -> &[NetId] {
        let start = self.vertex_net_offsets[v.index()] as usize;
        let end = self.vertex_net_offsets[v.index() + 1] as usize;
        &self.vertex_net_list[start..end]
    }

    /// The degree (number of incident nets) of vertex `v`.
    #[inline]
    pub fn vertex_degree(&self, v: VertexId) -> usize {
        (self.vertex_net_offsets[v.index() + 1] - self.vertex_net_offsets[v.index()]) as usize
    }

    /// The weight (cell area) of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: VertexId) -> u64 {
        self.vertex_weights[v.index()]
    }

    /// The weight of net `e`.
    #[inline]
    pub fn net_weight(&self, e: NetId) -> u32 {
        self.net_weights[e.index()]
    }

    /// Sum of all vertex weights.
    #[inline]
    pub fn total_vertex_weight(&self) -> u64 {
        self.total_vertex_weight
    }

    /// The partition vertex `v` is fixed in, or `None` if it is free.
    #[inline]
    pub fn fixed_part(&self, v: VertexId) -> Option<PartId> {
        self.fixed[v.index()]
    }

    /// `true` if vertex `v` is fixed in some partition.
    #[inline]
    pub fn is_fixed(&self, v: VertexId) -> bool {
        self.fixed[v.index()].is_some()
    }

    /// Number of fixed vertices.
    #[inline]
    pub fn num_fixed(&self) -> usize {
        self.num_fixed
    }

    /// A 128-bit content digest of the hypergraph, for use as an
    /// instance-cache key: two hypergraphs have the same digest exactly
    /// when they describe the same partitioning problem.
    ///
    /// The digest covers what the partitioners can observe — vertex
    /// count, per-vertex weights and fixed sides (in vertex-id order,
    /// since pins refer to vertex ids), and the multiset of nets, where a
    /// net is its weight plus its *set* of pins. It is deliberately
    /// invariant under the two representation choices that carry no
    /// semantic content: the order nets were added in, and the order of
    /// pins within a net (both combine commutatively). Any change to a
    /// pin, a weight, a fixed side, or the net multiset changes the
    /// digest (modulo 128-bit collisions). The instance
    /// [`name`](Hypergraph::name) is metadata and excluded.
    pub fn content_digest(&self) -> u128 {
        // SplitMix64 finalizer: the per-element mixer. Elements must be
        // well mixed *before* the commutative sum/xor combines so that
        // nearby raw values cannot cancel.
        #[inline]
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        #[inline]
        fn fnv(h: u64, x: u64) -> u64 {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        }

        // Ordered lane: vertex identity is positional, so vertex content
        // hashes in id order.
        let mut ordered: u64 = 0xcbf2_9ce4_8422_2325;
        ordered = fnv(ordered, self.num_vertices() as u64);
        for v in 0..self.num_vertices() {
            ordered = fnv(ordered, mix(self.vertex_weights[v]));
            let side = match self.fixed[v] {
                None => 0u64,
                Some(PartId::P0) => 1,
                Some(PartId::P1) => 2,
            };
            ordered = fnv(ordered, mix(side));
        }

        // Unordered lane: each net hashes to one well-mixed word (its
        // pins combined commutatively), and the nets combine
        // commutatively in turn — sum and xor accumulators are each
        // order-invariant, and together they make multiset collisions
        // require simultaneous cancellation in both.
        let mut net_sum: u64 = 0;
        let mut net_xor: u64 = 0;
        for e in 0..self.num_nets() {
            let start = self.net_pin_offsets[e] as usize;
            let end = self.net_pin_offsets[e + 1] as usize;
            let pins = &self.net_pin_list[start..end];
            let mut pin_sum: u64 = 0;
            let mut pin_xor: u64 = 0;
            for &p in pins {
                let ph = mix(u64::from(p.raw()) ^ 0x517c_c1b7_2722_0a95);
                pin_sum = pin_sum.wrapping_add(ph);
                pin_xor ^= ph;
            }
            let mut nh = 0xcbf2_9ce4_8422_2325u64;
            nh = fnv(nh, u64::from(self.net_weights[e]));
            nh = fnv(nh, pins.len() as u64);
            nh = fnv(nh, pin_sum);
            nh = fnv(nh, pin_xor);
            let nh = mix(nh);
            net_sum = net_sum.wrapping_add(nh);
            net_xor ^= nh;
        }

        let hi = mix(ordered ^ net_sum.wrapping_add(self.num_nets() as u64));
        let lo = mix(ordered.wrapping_add(net_xor) ^ mix(self.num_pins() as u64));
        (u128::from(hi) << 64) | u128::from(lo)
    }

    /// `true` if all vertices have weight 1 (the classic "unit-area" mode the
    /// paper warns against using exclusively).
    pub fn is_unit_area(&self) -> bool {
        self.vertex_weights.iter().all(|&w| w == 1)
    }

    /// Maximum vertex weight (0 for an empty hypergraph).
    pub fn max_vertex_weight(&self) -> u64 {
        self.vertex_weights.iter().copied().max().unwrap_or(0)
    }

    /// Maximum vertex degree (0 for an empty hypergraph).
    pub fn max_vertex_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.vertex_degree(VertexId::from_index(v)))
            .max()
            .unwrap_or(0)
    }

    /// Maximum net size (0 for a hypergraph with no nets).
    pub fn max_net_size(&self) -> usize {
        (0..self.num_nets())
            .map(|e| self.net_size(NetId::from_index(e)))
            .max()
            .unwrap_or(0)
    }

    /// Upper bound on the gain of any single vertex move under the weighted
    /// net-cut objective: the maximum over vertices of the sum of incident
    /// net weights. Gain containers size their bucket arrays with this.
    /// Computed once when the CSR is built.
    #[inline]
    pub fn max_gain_bound(&self) -> i64 {
        self.max_gain_bound
    }

    /// Returns a copy of this hypergraph with a different name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Returns a copy of this hypergraph with all vertex weights set to 1
    /// ("unit-area mode", as historically used with the MCNC benchmarks).
    pub fn to_unit_area(&self) -> Hypergraph {
        let mut h = self.clone();
        h.vertex_weights.iter_mut().for_each(|w| *w = 1);
        h.total_vertex_weight = h.vertex_weights.len() as u64;
        h
    }

    /// Returns a copy with vertex `v` fixed in partition `part` (or freed,
    /// with `None`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn with_fixed(&self, v: VertexId, part: Option<PartId>) -> Hypergraph {
        let mut h = self.clone();
        let was = h.fixed[v.index()];
        h.fixed[v.index()] = part;
        match (was, part) {
            (None, Some(_)) => h.num_fixed += 1,
            (Some(_), None) => h.num_fixed -= 1,
            _ => {}
        }
        h
    }

    /// Checks internal consistency (CSR offsets monotone, ids in range, the
    /// two CSR directions agree). Intended for tests and debug assertions;
    /// returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        let m = self.num_nets();
        if self.net_pin_offsets.len() != m + 1 {
            return Err("net offset array has wrong length".into());
        }
        if self.vertex_net_offsets.len() != n + 1 {
            return Err("vertex offset array has wrong length".into());
        }
        for w in self.net_pin_offsets.windows(2) {
            if w[0] > w[1] {
                return Err("net offsets not monotone".into());
            }
        }
        for w in self.vertex_net_offsets.windows(2) {
            if w[0] > w[1] {
                return Err("vertex offsets not monotone".into());
            }
        }
        for &v in &self.net_pin_list {
            if v.index() >= n {
                return Err(format!("pin references out-of-range vertex {v:?}"));
            }
        }
        // Cross-check: v appears in net_pins(e) iff e appears in vertex_nets(v).
        let mut pin_pairs: Vec<(u32, u32)> = Vec::with_capacity(self.num_pins());
        for e in self.nets() {
            for &v in self.net_pins(e) {
                pin_pairs.push((v.raw(), e.raw()));
            }
        }
        let mut inv_pairs: Vec<(u32, u32)> = Vec::with_capacity(self.num_pins());
        for v in self.vertices() {
            for &e in self.vertex_nets(v) {
                inv_pairs.push((v.raw(), e.raw()));
            }
        }
        pin_pairs.sort_unstable();
        inv_pairs.sort_unstable();
        if pin_pairs != inv_pairs {
            return Err("forward and inverse CSR disagree".into());
        }
        let expected_total: u64 = self.vertex_weights.iter().sum();
        if expected_total != self.total_vertex_weight {
            return Err("cached total vertex weight is stale".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{Hypergraph, HypergraphBuilder, NetId, PartId, VertexId};

    fn tiny() -> crate::Hypergraph {
        // v0 --e0-- v1 --e1-- v2 ; e2 = {v0, v1, v2}
        let mut b = HypergraphBuilder::new();
        let v0 = b.add_vertex(1);
        let v1 = b.add_vertex(2);
        let v2 = b.add_vertex(3);
        b.add_net([v0, v1], 1).unwrap();
        b.add_net([v1, v2], 5).unwrap();
        b.add_net([v0, v1, v2], 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let h = tiny();
        assert_eq!(h.num_vertices(), 3);
        assert_eq!(h.num_nets(), 3);
        assert_eq!(h.num_pins(), 7);
        assert_eq!(h.total_vertex_weight(), 6);
        assert_eq!(h.vertex_weight(VertexId::new(2)), 3);
        assert_eq!(h.net_weight(NetId::new(1)), 5);
        assert_eq!(h.net_size(NetId::new(2)), 3);
        assert_eq!(h.vertex_degree(VertexId::new(1)), 3);
        assert_eq!(h.max_net_size(), 3);
        assert_eq!(h.max_vertex_degree(), 3);
        assert_eq!(h.max_vertex_weight(), 3);
        assert!(!h.is_unit_area());
        h.validate().unwrap();
    }

    #[test]
    fn inverse_csr_matches_forward() {
        let h = tiny();
        let nets_of_v1: Vec<u32> = h
            .vertex_nets(VertexId::new(1))
            .iter()
            .map(|e| e.raw())
            .collect();
        let mut sorted = nets_of_v1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn built_graphs_keep_no_spare_capacity() {
        // Nine pins per net against `with_capacity`'s guess of four, and
        // vertex weights grown by doubling (4, 8, 16 slots for 10).
        let mut b = HypergraphBuilder::with_capacity(0, 3);
        for _ in 0..10 {
            b.add_vertex(1);
        }
        for e in 0..3u32 {
            b.add_net((0..9).map(|i| VertexId::new((i + e) % 10)), 1)
                .unwrap();
        }
        let h = b.build().unwrap();
        assert_eq!(h.net_pin_list.len(), 27);
        assert_eq!(h.net_pin_list.capacity(), h.net_pin_list.len());
        assert_eq!(h.net_pin_offsets.capacity(), h.net_pin_offsets.len());
        assert_eq!(h.vertex_weights.capacity(), h.vertex_weights.len());
        assert_eq!(h.net_weights.capacity(), h.net_weights.len());
    }

    #[test]
    fn max_gain_bound_is_weighted_degree() {
        let h = tiny();
        // v1 touches nets of weight 1, 5, 1 -> bound 7.
        assert_eq!(h.max_gain_bound(), 7);
    }

    /// The bound as a scan over every vertex's nets.
    fn scanned_gain_bound(h: &Hypergraph) -> i64 {
        h.vertices()
            .map(|v| {
                h.vertex_nets(v)
                    .iter()
                    .map(|&e| i64::from(h.net_weight(e)))
                    .sum::<i64>()
            })
            .max()
            .unwrap_or(0)
    }

    proptest::proptest! {
        /// The bound stored at build time equals the scan, on random
        /// hypergraphs and on their fixed-vertex and unit-area copies.
        #[test]
        fn stored_gain_bound_equals_the_scan(
            n in 0usize..40,
            nets in proptest::collection::vec(
                (proptest::collection::vec(0usize..40, 1..8), 0u32..1000),
                0..60,
            ),
            fix in 0usize..40,
        ) {
            let mut b = HypergraphBuilder::new();
            let vs: Vec<_> = (0..n).map(|i| b.add_vertex(i as u64 % 5)).collect();
            for (pins, w) in &nets {
                if n > 0 {
                    b.add_net(pins.iter().map(|&p| vs[p % n]), *w).unwrap();
                }
            }
            let h = b.build().unwrap();
            proptest::prop_assert_eq!(h.max_gain_bound(), scanned_gain_bound(&h));
            let unit = h.to_unit_area();
            proptest::prop_assert_eq!(unit.max_gain_bound(), scanned_gain_bound(&unit));
            if n > 0 {
                let fixed = h.with_fixed(VertexId::from_index(fix % n), Some(PartId::P1));
                proptest::prop_assert_eq!(fixed.max_gain_bound(), scanned_gain_bound(&fixed));
            }
        }
    }

    #[test]
    fn unit_area_conversion() {
        let h = tiny().to_unit_area();
        assert!(h.is_unit_area());
        assert_eq!(h.total_vertex_weight(), 3);
        h.validate().unwrap();
    }

    #[test]
    fn fixed_vertices() {
        let h = tiny();
        assert_eq!(h.num_fixed(), 0);
        let h = h.with_fixed(VertexId::new(0), Some(PartId::P1));
        assert_eq!(h.num_fixed(), 1);
        assert!(h.is_fixed(VertexId::new(0)));
        assert_eq!(h.fixed_part(VertexId::new(0)), Some(PartId::P1));
        let h = h.with_fixed(VertexId::new(0), None);
        assert_eq!(h.num_fixed(), 0);
    }

    #[test]
    fn with_name_renames() {
        let h = tiny().with_name("tiny3");
        assert_eq!(h.name(), "tiny3");
    }

    #[test]
    fn empty_graph_is_valid() {
        let h = HypergraphBuilder::new().build().unwrap();
        assert_eq!(h.num_vertices(), 0);
        assert_eq!(h.num_nets(), 0);
        assert_eq!(h.max_gain_bound(), 0);
        h.validate().unwrap();
    }

    #[test]
    fn iterators_cover_everything() {
        let h = tiny();
        assert_eq!(h.vertices().count(), 3);
        assert_eq!(h.nets().count(), 3);
        let total_pins: usize = h.nets().map(|e| h.net_pins(e).len()).sum();
        assert_eq!(total_pins, h.num_pins());
    }
}
