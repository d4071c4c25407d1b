//! Hypergraph coarsening: FirstChoice / heavy-edge clustering.
//!
//! Connectivity between two vertices is the hMetis weight
//! `Σ_{e ∋ u,v} w(e) / (|e| − 1)` over shared nets. Vertices are visited in
//! random order; each unmatched vertex joins the most strongly connected
//! candidate subject to a cluster-weight cap. The coarse hypergraph
//! collapses duplicate pins, drops single-pin nets, and merges identical
//! nets (summing weights).
//!
//! Fixed vertices only cluster with free vertices or vertices fixed in the
//! same partition; the cluster inherits the fixed side. Restricted
//! coarsening (for V-cycles) additionally forbids clustering across the
//! current partition boundary.
//!
//! # Hot path
//!
//! Coarsening runs once per level of every start of every V-cycle, so the
//! `*_with` entry points draw all their scratch from a
//! [`CoarsenWorkspace`] and are allocation-free across the levels of one
//! build, apart from the levels they return. The partitioner makes one
//! workspace per hierarchy build and drops it before refinement starts,
//! so the arenas never outlive the build that grew them.
//! Per-vertex connectivity accumulates into a dense epoch-stamped score
//! array with O(touched) reset instead of a `HashMap`, and identical
//! coarse nets are merged by sorting 64-bit fingerprints of their pin
//! slices (collisions verified by slice comparison) instead of hashing
//! owned `Vec` keys. Both rewrites are *behaviorally invisible*: candidate
//! selection tie-breaks on the raw candidate key, which makes the choice
//! independent of accumulation-container iteration order, and fingerprint
//! grouping preserves the first-occurrence emission order of the merged
//! nets — the executable specification is retained as
//! [`coarsen_once_reference`] and twin-tested against the optimized path.

use rand::seq::SliceRandom;
use rand::Rng;

use hypart_core::SparseScores;
use hypart_hypergraph::{CsrScratch, Hypergraph, HypergraphBuilder, NetId, PartId, VertexId};

/// Matching scheme used by [`coarsen_once`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum CoarsenScheme {
    /// FirstChoice: an unmatched vertex may join an already-formed cluster
    /// (hMetis's default; shrinks faster on sparse netlists).
    #[default]
    FirstChoice,
    /// Heavy-edge matching: only pairs of unmatched vertices merge.
    HeavyEdge,
}

/// Parameters of the coarsening process. Two decisions are fixed
/// rather than configured: [`SHRINK_THRESHOLD`](Self::SHRINK_THRESHOLD)
/// and [`CLUSTER_CAP_MULTIPLE`](Self::CLUSTER_CAP_MULTIPLE).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CoarsenConfig {
    /// Matching scheme.
    pub scheme: CoarsenScheme,
    /// Stop coarsening when at most this many vertices remain.
    pub stop_size: usize,
    /// Nets larger than this are ignored during connectivity computation
    /// (clock-like nets carry no clustering signal and cost O(size²)).
    pub max_net_size_for_matching: usize,
}

impl CoarsenConfig {
    /// A level must shrink below this fraction of the previous vertex
    /// count to be kept; otherwise coarsening stops (guards against
    /// stalls).
    pub const SHRINK_THRESHOLD: f64 = 0.95;
    /// Cluster weight cap as a multiple of the current level's average
    /// vertex weight: a cluster may not exceed
    /// `CLUSTER_CAP_MULTIPLE × total_weight / |V|` (but a single vertex
    /// heavier than that still forms its own singleton cluster). Keeps the
    /// per-level shrink factor in the healthy 2–4× range.
    pub const CLUSTER_CAP_MULTIPLE: f64 = 6.0;
}

impl Default for CoarsenConfig {
    fn default() -> Self {
        CoarsenConfig {
            scheme: CoarsenScheme::FirstChoice,
            stop_size: 120,
            max_net_size_for_matching: 300,
        }
    }
}

pub use hypart_core::CoarseLevel;

/// Packed admissibility record of one clustering candidate (a vertex or a
/// formed cluster): weight, inherited fixed side, and restriction side in
/// a single 16-byte load. The candidate scan is random-access bound;
/// reading one packed record per candidate replaces three scattered array
/// loads.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CandInfo {
    /// Vertex or accumulated cluster weight.
    pub(crate) weight: u64,
    /// Fixed-partition side (inherited by clusters from their members).
    pub(crate) fixed: Option<PartId>,
    /// Restriction side; meaningful only in restricted coarsening, where
    /// every vertex carries its current partition side.
    pub(crate) side: PartId,
}

/// One surviving coarse net staged in the workspace pin arena: its pin
/// range, accumulated weight, and the 64-bit fingerprint of its (sorted,
/// deduplicated) pin slice used to group identical nets.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CoarseNet {
    /// Start of the pin slice in [`CoarsenWorkspace::pin_arena`].
    pub(crate) start: u32,
    /// Number of pins in the slice.
    pub(crate) len: u32,
    /// Net weight (accumulated across merged identical nets).
    pub(crate) weight: u32,
    /// FNV-1a fingerprint of the sorted pin slice.
    pub(crate) fp: u64,
}

impl CoarseNet {
    /// The pin slice range as `usize` bounds.
    #[inline]
    pub(crate) fn range(&self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// Reusable scratch arenas of one hierarchy build.
///
/// A naive coarsener spends most of its time in allocator traffic: a
/// fresh `HashMap` entry per candidate cluster, two `Vec` clones per
/// unique coarse net, and new cluster arrays at every level. The
/// workspace owns that scratch, grow-only, and the entry points re-point
/// it at each level instead of reallocating it:
///
/// * the per-level clustering state (`cluster_of`, weights, fixed sides,
///   restriction sides, the shuffled visit order);
/// * a dense [`SparseScores`] accumulator in place of the per-vertex
///   connectivity `HashMap`;
/// * a pin arena plus fingerprint tables in place of the
///   `HashMap<Vec<u32>, NetId>` identical-net merge;
/// * a recycled [`HypergraphBuilder`] and [`CsrScratch`], so assembling
///   the coarse graph reuses the builder's staging vectors and the CSR
///   counting-pass scratch.
///
/// [`MlPartitioner`](crate::MlPartitioner) builds one per hierarchy
/// (serial or lane-parallel) and drops it before refinement, so a start
/// does not hold the arenas while it refines, and nothing holds them
/// between starts. Reuse never changes results: a fresh workspace is
/// what the plain entry points construct.
#[derive(Clone, Debug, Default)]
pub struct CoarsenWorkspace {
    /// `cluster_of[v] = cluster id`, `u32::MAX` while unmatched.
    pub(crate) cluster_of: Vec<u32>,
    /// `slot_of[v]` = the connectivity slot pins of `v` accumulate into:
    /// `n + v` while unmatched, then the cluster slot (first-choice) or
    /// the dead slot `2n` (heavy-edge) once matched. Keeping this beside
    /// `cluster_of` makes the per-pin slot lookup a single indexed load.
    pub(crate) slot_of: Vec<u32>,
    /// Per-net matching score of the current fine graph, `-1.0` for nets
    /// excluded from matching (single-pin or over the size threshold).
    pub(crate) net_score: Vec<f64>,
    /// Packed admissibility record per fine vertex of the current level.
    pub(crate) vert_info: Vec<CandInfo>,
    /// Packed admissibility record per formed cluster.
    pub(crate) cluster_info: Vec<CandInfo>,
    /// Shuffled vertex visit order of the current level.
    pub(crate) order: Vec<VertexId>,
    /// Dense connectivity accumulator (slots: clusters then vertices).
    pub(crate) conn: SparseScores,
    /// Staged coarse pins of all surviving nets, back to back.
    pub(crate) pin_arena: Vec<VertexId>,
    /// One entry per surviving coarse net, in fine-net order.
    pub(crate) nets: Vec<CoarseNet>,
    /// Net indices sorted by (fingerprint, index) for duplicate grouping.
    pub(crate) sort_idx: Vec<u32>,
    /// `rep[i]` = index of the first net with identical pins to net `i`.
    pub(crate) rep: Vec<u32>,
    /// Recycled coarse-graph builder (left empty between levels).
    pub(crate) builder: HypergraphBuilder,
    /// Recycled CSR counting-pass scratch for the builder.
    pub(crate) csr: CsrScratch,
    /// Current-level restriction sides (V-cycle hierarchies only).
    pub(crate) restrict: Vec<PartId>,
    /// Next-level restriction sides, swapped with `restrict` per level.
    pub(crate) restrict_next: Vec<PartId>,
}

impl CoarsenWorkspace {
    /// Creates an empty workspace. Arenas grow on first use and are kept
    /// until it is dropped.
    pub fn new() -> Self {
        CoarsenWorkspace::default()
    }

    /// Re-points the per-level arenas at a level with `n` fine vertices:
    /// all vertices unmatched, no clusters formed, net staging empty.
    /// Keeps every allocation.
    pub(crate) fn begin_level(&mut self, n: usize) {
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

/// Candidate keys: bit 31 tags an unmatched vertex (cluster-to-be); clear
/// bit 31 to recover the vertex id. Untagged keys are formed cluster ids.
pub(crate) const TAG: u32 = 1 << 31;
pub(crate) const UNMATCHED: u32 = u32::MAX;

/// FNV-1a over the raw pin words. Used only to *group* candidate
/// identical nets — equal-fingerprint groups are verified by pin-slice
/// comparison, so a collision costs a comparison, never correctness.
#[inline]
pub(crate) fn fingerprint(pins: &[VertexId]) -> u64 {
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in pins {
        fp ^= u64::from(p.raw());
        fp = fp.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fp
}

/// The cluster-weight cap of one coarsening level.
#[inline]
pub(crate) fn cluster_cap(h: &Hypergraph) -> u64 {
    let avg_weight = h.total_vertex_weight() as f64 / h.num_vertices() as f64;
    ((avg_weight * CoarsenConfig::CLUSTER_CAP_MULTIPLE) as u64)
        .max(h.max_vertex_weight())
        .max(1)
}

/// The connectivity slot matched vertices accumulate into from now on:
/// the cluster slot under FirstChoice (pins keep scoring the cluster),
/// the dead slot under HeavyEdge (matched vertices leave the market).
#[inline]
pub(crate) fn matched_slot(scheme: CoarsenScheme, dead: u32, c: u32) -> u32 {
    match scheme {
        CoarsenScheme::FirstChoice => c,
        CoarsenScheme::HeavyEdge => dead,
    }
}

/// Accumulates `v`'s connectivity into `conn` over its scoring nets.
/// The inner pin loop is branch-free: every pin accumulates into
/// `slot_of[pin]`, including `v` itself (its own slot) and, under
/// heavy-edge, already-matched vertices (the dead slot) — both filtered
/// out in the far smaller candidate scan.
#[inline]
pub(crate) fn accumulate_conn(
    h: &Hypergraph,
    v: VertexId,
    slot_of: &[u32],
    net_score: &[f64],
    conn: &mut SparseScores,
    n: usize,
) {
    conn.begin(2 * n + 1);
    for &e in h.vertex_nets(v) {
        let score = net_score[e.index()];
        if score < 0.0 {
            continue;
        }
        for &u in h.net_pins(e) {
            conn.add(slot_of[u.index()] as usize, score);
        }
    }
}

/// Scans the accumulated candidates of `v` and returns the admissible
/// candidate with the highest connectivity (ties broken on the raw key,
/// which makes the winner independent of enumeration order).
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_best(
    conn: &SparseScores,
    v: VertexId,
    v_info: CandInfo,
    vert_info: &[CandInfo],
    cluster_info: &[CandInfo],
    n: usize,
    dead: u32,
    cap: u64,
    restricted: bool,
) -> Option<(u32, f64)> {
    let v_weight = v_info.weight;
    let self_slot = (n + v.index()) as u32;
    let mut best: Option<(u32, f64)> = None;
    for &slot in conn.touched() {
        if slot == self_slot || slot == dead {
            continue;
        }
        let slot = slot as usize;
        let score = conn.get_touched(slot);
        let key = if slot >= n {
            (slot - n) as u32 | TAG
        } else {
            slot as u32
        };
        // Rank before admissibility: a candidate that does not beat
        // the current (admissible) best can be dropped without ever
        // loading its record, and the surviving maximum is the same
        // either way. Most candidates lose, so the scan touches far
        // fewer cache lines.
        let better = match best {
            None => true,
            Some((bk, bs)) => score > bs || (score == bs && key < bk),
        };
        if !better {
            continue;
        }
        let target = if slot >= n {
            vert_info[slot - n]
        } else {
            cluster_info[slot]
        };
        if v_weight + target.weight > cap {
            continue;
        }
        if let (Some(a), Some(b)) = (v_info.fixed, target.fixed) {
            if a != b {
                continue;
            }
        }
        if restricted && v_info.side != target.side {
            continue;
        }
        best = Some((key, score));
    }
    best
}

/// Applies a matching decision for `v`: merge with an unmatched partner
/// (tagged key), join an existing cluster (untagged key), or stay a
/// singleton (`None`). Returns the pair partner when one was consumed.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_decision(
    scheme: CoarsenScheme,
    dead: u32,
    v: VertexId,
    v_info: CandInfo,
    best: Option<(u32, f64)>,
    cluster_of: &mut [u32],
    slot_of: &mut [u32],
    vert_info: &[CandInfo],
    cluster_info: &mut Vec<CandInfo>,
    num_clusters: &mut u32,
) -> Option<VertexId> {
    let v_weight = v_info.weight;
    match best {
        Some((key, _)) if key & TAG != 0 => {
            // Merge v with the unmatched vertex u into a new cluster.
            let u = VertexId::new(key & !TAG);
            let c = *num_clusters;
            *num_clusters += 1;
            cluster_of[v.index()] = c;
            cluster_of[u.index()] = c;
            slot_of[v.index()] = matched_slot(scheme, dead, c);
            slot_of[u.index()] = matched_slot(scheme, dead, c);
            let u_info = vert_info[u.index()];
            cluster_info.push(CandInfo {
                weight: v_weight + u_info.weight,
                fixed: v_info.fixed.or(u_info.fixed),
                side: v_info.side,
            });
            Some(u)
        }
        Some((key, _)) => {
            // Join v to the existing cluster `key`.
            cluster_of[v.index()] = key;
            slot_of[v.index()] = matched_slot(scheme, dead, key);
            let c = &mut cluster_info[key as usize];
            c.weight += v_weight;
            if c.fixed.is_none() {
                c.fixed = v_info.fixed;
            }
            None
        }
        None => {
            // v stays a singleton cluster.
            let c = *num_clusters;
            *num_clusters += 1;
            cluster_of[v.index()] = c;
            slot_of[v.index()] = matched_slot(scheme, dead, c);
            cluster_info.push(CandInfo {
                weight: v_weight,
                fixed: v_info.fixed,
                side: v_info.side,
            });
            None
        }
    }
}

/// Sorts a staged coarse pin slice and dedups it in place, returning the
/// unique count. Coarse pin slices are overwhelmingly tiny; tiny sorting
/// networks skip the general sort's dispatch overhead.
#[inline]
pub(crate) fn sort_dedup_pins(slice: &mut [VertexId]) -> usize {
    match slice.len() {
        0 | 1 => {}
        2 => {
            if slice[0] > slice[1] {
                slice.swap(0, 1);
            }
        }
        3 => {
            if slice[0] > slice[1] {
                slice.swap(0, 1);
            }
            if slice[1] > slice[2] {
                slice.swap(1, 2);
            }
            if slice[0] > slice[1] {
                slice.swap(0, 1);
            }
        }
        _ => slice.sort_unstable(),
    }
    let mut unique = 0usize;
    for i in 0..slice.len() {
        if unique == 0 || slice[i] != slice[unique - 1] {
            slice[unique] = slice[i];
            unique += 1;
        }
    }
    unique
}

/// Merges identical staged coarse nets and assembles the coarse
/// hypergraph through the recycled builder. Consumes the staging state
/// produced by either the serial (compact) or the parallel (offset-
/// addressed) staging pass: only each net's `range()` slice and the
/// fine-net ordering of `nets` matter, so both produce identical graphs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_and_build(
    h: &Hypergraph,
    coarse_n: usize,
    pin_arena: &[VertexId],
    nets: &mut [CoarseNet],
    sort_idx: &mut Vec<u32>,
    rep: &mut Vec<u32>,
    cluster_info: &[CandInfo],
    cluster_of: &[u32],
    builder: &mut HypergraphBuilder,
    csr: &mut hypart_hypergraph::CsrScratch,
) -> CoarseLevel {
    // Merge identical nets: group by fingerprint (sorting indices keyed by
    // (fp, index) keeps groups in first-occurrence order), verify each
    // group member against the representatives found so far — so a
    // fingerprint collision degrades to an extra slice comparison — then
    // fold duplicate weights into the representative in fine-net order,
    // exactly like the reference's first-occurrence accumulation.
    sort_idx.extend(0..nets.len() as u32);
    sort_idx.sort_unstable_by_key(|&i| (nets[i as usize].fp, i));
    rep.extend(0..nets.len() as u32);
    let mut g = 0usize;
    while g < sort_idx.len() {
        let fp = nets[sort_idx[g] as usize].fp;
        let mut gend = g + 1;
        while gend < sort_idx.len() && nets[sort_idx[gend] as usize].fp == fp {
            gend += 1;
        }
        for a in (g + 1)..gend {
            let ia = sort_idx[a] as usize;
            for &earlier in &sort_idx[g..a] {
                let ib = earlier as usize;
                if rep[ib] as usize != ib {
                    continue; // only compare against representatives
                }
                if pin_arena[nets[ia].range()] == pin_arena[nets[ib].range()] {
                    rep[ia] = ib as u32;
                    break;
                }
            }
        }
        g = gend;
    }
    let (mut unique_nets, mut unique_pins) = (0usize, 0usize);
    for (i, net) in nets.iter().enumerate() {
        if rep[i] as usize == i {
            unique_nets += 1;
            unique_pins += net.len as usize;
        }
    }
    for i in 0..nets.len() {
        let r = rep[i] as usize;
        if r != i {
            let w = nets[i].weight;
            nets[r].weight += w;
        }
    }

    // Assemble the coarse hypergraph through the recycled builder; exact
    // reservation avoids every CSR growth reallocation.
    builder.reserve(coarse_n, unique_nets, unique_pins);
    for info in cluster_info.iter() {
        builder.add_vertex(info.weight);
    }
    for (c, info) in cluster_info.iter().enumerate() {
        if let Some(p) = info.fixed {
            builder.fix_vertex(VertexId::from_index(c), p);
        }
    }
    for (i, net) in nets.iter().enumerate() {
        if rep[i] as usize == i {
            if let Err(e) = builder.add_net_sorted_unique(&pin_arena[net.range()], net.weight) {
                unreachable!("coarse pins are valid: {e}");
            }
        }
    }
    builder.set_name(format!("{}|c{}", h.name(), coarse_n));
    let graph = match builder.build_in(csr) {
        Ok(g) => g,
        Err(e) => unreachable!("coarse hypergraph is valid: {e}"),
    };
    CoarseLevel {
        graph,
        map: cluster_of.iter().map(|&c| VertexId::new(c)).collect(),
    }
}

/// Performs one coarsening step on `h`. Returns `None` if the result would
/// not shrink below [`CoarsenConfig::SHRINK_THRESHOLD`] of the input size
/// (coarsening has stalled) or if `h` is already at or below
/// `config.stop_size`.
///
/// `restrict`: when `Some(assignment)`, vertices may only cluster with
/// vertices on the same side (restricted coarsening for V-cycles).
///
/// Equivalent to [`coarsen_once_with`] with a fresh workspace.
pub fn coarsen_once<R: Rng>(
    h: &Hypergraph,
    config: &CoarsenConfig,
    restrict: Option<&[PartId]>,
    rng: &mut R,
) -> Option<CoarseLevel> {
    coarsen_once_with(h, config, restrict, rng, &mut CoarsenWorkspace::new())
}

/// [`coarsen_once`] with all scratch drawn from `ws` — the hot-path entry
/// point, allocation-free across levels apart from the returned
/// [`CoarseLevel`] itself. Results are bitwise identical to
/// [`coarsen_once`] (and to [`coarsen_once_reference`]); the workspace
/// only removes allocation and reset cost.
pub fn coarsen_once_with<R: Rng>(
    h: &Hypergraph,
    config: &CoarsenConfig,
    restrict: Option<&[PartId]>,
    rng: &mut R,
    ws: &mut CoarsenWorkspace,
) -> Option<CoarseLevel> {
    let n = h.num_vertices();
    if n <= config.stop_size {
        return None;
    }
    if let Some(r) = restrict {
        assert_eq!(r.len(), n, "restriction assignment length mismatch");
    }
    let cap = cluster_cap(h);

    ws.begin_level(n);
    let CoarsenWorkspace {
        cluster_of,
        slot_of,
        net_score,
        vert_info,
        cluster_info,
        order,
        conn,
        pin_arena,
        nets,
        sort_idx,
        rep,
        builder,
        csr,
        ..
    } = ws;
    let mut num_clusters = 0u32;

    order.clear();
    order.extend(h.vertices());
    order.shuffle(rng);

    // Per-net matching scores, computed once per level instead of once
    // per (vertex, net) visit; `-1.0` marks nets excluded from matching
    // (legitimate scores are >= 0.0, including 0.0 for weight-0 nets).
    net_score.reserve(h.num_nets());
    for e in h.nets() {
        let size = h.net_size(e);
        net_score.push(if size < 2 || size > config.max_net_size_for_matching {
            -1.0
        } else {
            f64::from(h.net_weight(e)) / (size - 1) as f64
        });
    }

    // Packed per-vertex admissibility records: the candidate scan reads
    // one 16-byte record per candidate instead of three scattered arrays.
    // The side field is only consulted under restriction.
    vert_info.reserve(n);
    for v in h.vertices() {
        vert_info.push(CandInfo {
            weight: h.vertex_weight(v),
            fixed: h.fixed_part(v),
            side: restrict.map_or(PartId::P0, |r| r[v.index()]),
        });
    }

    // Connectivity accumulates into dense slots: formed cluster `c` maps
    // to slot `c`, unmatched vertex `u` to slot `n + u`. The slot encoding
    // round-trips to the candidate *key* (cluster id, or vertex id with
    // the tag bit), so selection below is identical to the reference.
    //
    // The deterministic tie-break on the raw key makes the winner
    // independent of the order candidates are enumerated in, which is
    // what licenses swapping the HashMap for the dense accumulator.
    let dead = 2 * n as u32;
    let restricted = restrict.is_some();
    for &v in order.iter() {
        if cluster_of[v.index()] != UNMATCHED {
            continue;
        }
        let v_info = vert_info[v.index()];
        accumulate_conn(h, v, slot_of, net_score, conn, n);
        let best = scan_best(
            conn,
            v,
            v_info,
            vert_info,
            cluster_info,
            n,
            dead,
            cap,
            restricted,
        );
        apply_decision(
            config.scheme,
            dead,
            v,
            v_info,
            best,
            cluster_of,
            slot_of,
            vert_info,
            cluster_info,
            &mut num_clusters,
        );
    }

    let coarse_n = num_clusters as usize;
    if (coarse_n as f64) > CoarsenConfig::SHRINK_THRESHOLD * n as f64 {
        return None;
    }

    // Stage coarse nets in the pin arena: map pins to clusters, sort +
    // dedupe each slice in place, drop single-pin nets, fingerprint the
    // survivors.
    pin_arena.reserve(h.num_pins());
    for e in h.nets() {
        let start = pin_arena.len();
        for &fv in h.net_pins(e) {
            pin_arena.push(VertexId::new(cluster_of[fv.index()]));
        }
        let unique = sort_dedup_pins(&mut pin_arena[start..]);
        if unique < 2 {
            pin_arena.truncate(start);
            continue;
        }
        pin_arena.truncate(start + unique);
        nets.push(CoarseNet {
            start: start as u32,
            len: unique as u32,
            weight: h.net_weight(e),
            fp: fingerprint(&pin_arena[start..]),
        });
    }

    Some(merge_and_build(
        h,
        coarse_n,
        pin_arena,
        nets,
        sort_idx,
        rep,
        cluster_info,
        cluster_of,
        builder,
        csr,
    ))
}

/// Builds a full coarsening hierarchy: `levels[0]` coarsens the input,
/// `levels[i]` coarsens `levels[i-1].graph`, until `stop_size` or a stall.
///
/// Equivalent to [`build_hierarchy_with`] with a fresh workspace.
pub fn build_hierarchy<R: Rng>(
    h: &Hypergraph,
    config: &CoarsenConfig,
    restrict: Option<&[PartId]>,
    rng: &mut R,
) -> Vec<CoarseLevel> {
    build_hierarchy_with(h, config, restrict, rng, &mut CoarsenWorkspace::new())
}

/// [`build_hierarchy`] with all scratch drawn from `ws`, including the
/// double-buffered restriction projection of V-cycle hierarchies.
pub fn build_hierarchy_with<R: Rng>(
    h: &Hypergraph,
    config: &CoarsenConfig,
    restrict: Option<&[PartId]>,
    rng: &mut R,
    ws: &mut CoarsenWorkspace,
) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let restricted = restrict.is_some();
    ws.restrict.clear();
    if let Some(r) = restrict {
        ws.restrict.extend_from_slice(r);
    }
    loop {
        let current = levels.last().map_or(h, |l| &l.graph);
        // The restriction buffer is lent out of the workspace for the
        // duration of the call (the workspace is borrowed whole).
        let r_buf = std::mem::take(&mut ws.restrict);
        let level = coarsen_once_with(current, config, restricted.then_some(&r_buf[..]), rng, ws);
        let Some(level) = level else {
            ws.restrict = r_buf;
            break;
        };
        if restricted {
            // Project the restriction to the coarse level: every fine
            // vertex of a cluster is on the same side by construction.
            let mut next = std::mem::take(&mut ws.restrict_next);
            next.clear();
            next.resize(level.graph.num_vertices(), PartId::P0);
            for (fine, coarse) in level.map.iter().enumerate() {
                next[coarse.index()] = r_buf[fine];
            }
            ws.restrict = next;
            ws.restrict_next = r_buf;
        } else {
            ws.restrict = r_buf;
        }
        levels.push(level);
    }
    levels
}

/// The original `HashMap`-based coarsening step, retained verbatim as the
/// executable specification of [`coarsen_once_with`]: the twin-model tests
/// assert both produce identical [`CoarseLevel`]s on random hypergraphs.
/// Not part of the supported API.
#[doc(hidden)]
pub fn coarsen_once_reference<R: Rng>(
    h: &Hypergraph,
    config: &CoarsenConfig,
    restrict: Option<&[PartId]>,
    rng: &mut R,
) -> Option<CoarseLevel> {
    use std::collections::HashMap;

    let n = h.num_vertices();
    if n <= config.stop_size {
        return None;
    }
    if let Some(r) = restrict {
        assert_eq!(r.len(), n, "restriction assignment length mismatch");
    }
    let avg_weight = h.total_vertex_weight() as f64 / n as f64;
    let cap = ((avg_weight * CoarsenConfig::CLUSTER_CAP_MULTIPLE) as u64)
        .max(h.max_vertex_weight())
        .max(1);

    let mut cluster_of = vec![UNMATCHED; n];
    let mut cluster_weight: Vec<u64> = Vec::new();
    let mut cluster_fixed: Vec<Option<PartId>> = Vec::new();
    let mut cluster_side: Vec<Option<PartId>> = Vec::new(); // for restricted mode
    let mut num_clusters = 0u32;

    let mut order: Vec<VertexId> = h.vertices().collect();
    order.shuffle(rng);

    // Scratch: connectivity accumulation per candidate cluster/vertex.
    let mut conn: HashMap<u32, f64> = HashMap::new();

    for &v in &order {
        if cluster_of[v.index()] != UNMATCHED {
            continue;
        }
        let v_fixed = h.fixed_part(v);
        let v_side = restrict.map(|r| r[v.index()]);
        let v_weight = h.vertex_weight(v);
        conn.clear();
        for &e in h.vertex_nets(v) {
            let size = h.net_size(e);
            if size < 2 || size > config.max_net_size_for_matching {
                continue;
            }
            let score = f64::from(h.net_weight(e)) / (size - 1) as f64;
            for &u in h.net_pins(e) {
                if u == v {
                    continue;
                }
                let target = match (config.scheme, cluster_of[u.index()]) {
                    (CoarsenScheme::FirstChoice, c) if c != UNMATCHED => c,
                    (CoarsenScheme::HeavyEdge, c) if c != UNMATCHED => continue,
                    _ => u.raw() | TAG,
                };
                *conn.entry(target).or_insert(0.0) += score;
            }
        }

        // Pick the admissible candidate with the highest connectivity
        // (deterministic tie-break on the raw key for reproducibility).
        let mut best: Option<(u32, f64)> = None;
        for (&key, &score) in conn.iter() {
            let (target_weight, target_fixed, target_side) = if key & TAG != 0 {
                let u = VertexId::new(key & !TAG);
                (
                    h.vertex_weight(u),
                    h.fixed_part(u),
                    restrict.map(|r| r[u.index()]),
                )
            } else {
                (
                    cluster_weight[key as usize],
                    cluster_fixed[key as usize],
                    cluster_side[key as usize],
                )
            };
            if v_weight + target_weight > cap {
                continue;
            }
            if let (Some(a), Some(b)) = (v_fixed, target_fixed) {
                if a != b {
                    continue;
                }
            }
            if restrict.is_some() && v_side != target_side {
                continue;
            }
            let better = match best {
                None => true,
                Some((bk, bs)) => score > bs || (score == bs && key < bk),
            };
            if better {
                best = Some((key, score));
            }
        }

        match best {
            Some((key, _)) if key & TAG != 0 => {
                let u = VertexId::new(key & !TAG);
                let c = num_clusters;
                num_clusters += 1;
                cluster_of[v.index()] = c;
                cluster_of[u.index()] = c;
                cluster_weight.push(v_weight + h.vertex_weight(u));
                cluster_fixed.push(v_fixed.or(h.fixed_part(u)));
                cluster_side.push(v_side);
            }
            Some((key, _)) => {
                cluster_of[v.index()] = key;
                cluster_weight[key as usize] += v_weight;
                if cluster_fixed[key as usize].is_none() {
                    cluster_fixed[key as usize] = v_fixed;
                }
            }
            None => {
                let c = num_clusters;
                num_clusters += 1;
                cluster_of[v.index()] = c;
                cluster_weight.push(v_weight);
                cluster_fixed.push(v_fixed);
                cluster_side.push(v_side);
            }
        }
    }

    let coarse_n = num_clusters as usize;
    if (coarse_n as f64) > CoarsenConfig::SHRINK_THRESHOLD * n as f64 {
        return None;
    }

    // Build the coarse hypergraph.
    let mut builder = HypergraphBuilder::with_capacity(coarse_n, h.num_nets());
    for &w in cluster_weight.iter().take(coarse_n) {
        builder.add_vertex(w);
    }
    for (c, fix) in cluster_fixed.iter().take(coarse_n).enumerate() {
        if let Some(p) = fix {
            builder.fix_vertex(VertexId::from_index(c), *p);
        }
    }
    // Collapse nets: map pins, dedupe within net, drop single-pin nets,
    // merge identical nets by summing weights.
    let mut net_index: HashMap<Vec<u32>, NetId> = HashMap::new();
    let mut merged: Vec<(Vec<u32>, u32)> = Vec::new();
    let mut pin_scratch: Vec<u32> = Vec::new();
    for e in h.nets() {
        pin_scratch.clear();
        for &v in h.net_pins(e) {
            pin_scratch.push(cluster_of[v.index()]);
        }
        pin_scratch.sort_unstable();
        pin_scratch.dedup();
        if pin_scratch.len() < 2 {
            continue;
        }
        match net_index.get(&pin_scratch) {
            Some(&idx) => merged[idx.index()].1 += h.net_weight(e),
            None => {
                let idx = NetId::from_index(merged.len());
                net_index.insert(pin_scratch.clone(), idx);
                merged.push((pin_scratch.clone(), h.net_weight(e)));
            }
        }
    }
    for (pins, weight) in merged {
        if let Err(e) = builder.add_net(pins.into_iter().map(VertexId::new), weight) {
            unreachable!("coarse pins are valid: {e}");
        }
    }
    let graph = match builder.name(format!("{}|c{}", h.name(), coarse_n)).build() {
        Ok(g) => g,
        Err(e) => unreachable!("coarse hypergraph is valid: {e}"),
    };
    Some(CoarseLevel {
        graph,
        map: cluster_of.into_iter().map(VertexId::new).collect(),
    })
}

/// The original hierarchy loop over [`coarsen_once_reference`], for
/// twin-testing whole hierarchies (including restricted projection).
/// Not part of the supported API.
#[doc(hidden)]
pub fn build_hierarchy_reference<R: Rng>(
    h: &Hypergraph,
    config: &CoarsenConfig,
    restrict: Option<&[PartId]>,
    rng: &mut R,
) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut projected_restrict: Option<Vec<PartId>> = restrict.map(<[PartId]>::to_vec);
    loop {
        let current = levels.last().map_or(h, |l| &l.graph);
        let Some(level) =
            coarsen_once_reference(current, config, projected_restrict.as_deref(), rng)
        else {
            break;
        };
        if let Some(r) = &projected_restrict {
            let mut coarse_r = vec![PartId::P0; level.graph.num_vertices()];
            for (fine, coarse) in level.map.iter().enumerate() {
                coarse_r[coarse.index()] = r[fine];
            }
            projected_restrict = Some(coarse_r);
        }
        levels.push(level);
    }
    levels
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hypart_benchgen::toys::{grid, two_clusters};
    use hypart_benchgen::{ispd98_like, mcnc_like};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    #[test]
    fn coarsening_preserves_total_weight() {
        let h = ispd98_like(1, 0.03, 4);
        let level = coarsen_once(&h, &CoarsenConfig::default(), None, &mut rng()).unwrap();
        assert_eq!(level.graph.total_vertex_weight(), h.total_vertex_weight());
        level.graph.validate().unwrap();
    }

    #[test]
    fn coarsening_shrinks() {
        let h = mcnc_like(1000, 2);
        let level = coarsen_once(&h, &CoarsenConfig::default(), None, &mut rng()).unwrap();
        assert!(level.graph.num_vertices() < h.num_vertices());
        assert!(level.graph.num_vertices() >= h.num_vertices() / 8);
    }

    #[test]
    fn map_covers_all_coarse_vertices() {
        let h = mcnc_like(500, 2);
        let level = coarsen_once(&h, &CoarsenConfig::default(), None, &mut rng()).unwrap();
        let mut seen = vec![false; level.graph.num_vertices()];
        for cv in &level.map {
            seen[cv.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "every coarse vertex has members");
    }

    #[test]
    fn small_graph_is_not_coarsened() {
        let h = two_clusters(5, 1); // 10 vertices < stop_size
        assert!(coarsen_once(&h, &CoarsenConfig::default(), None, &mut rng()).is_none());
    }

    #[test]
    fn hierarchy_reaches_stop_size() {
        let h = mcnc_like(2000, 8);
        let cfg = CoarsenConfig::default();
        let levels = build_hierarchy(&h, &cfg, None, &mut rng());
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().graph;
        // Either small enough, or coarsening stalled above it — both legal;
        // for mcnc-like instances it should comfortably reach stop size.
        assert!(coarsest.num_vertices() <= cfg.stop_size * 3);
    }

    #[test]
    fn heavy_edge_matches_only_pairs() {
        let h = mcnc_like(600, 1);
        let cfg = CoarsenConfig {
            scheme: CoarsenScheme::HeavyEdge,
            ..CoarsenConfig::default()
        };
        let level = coarsen_once(&h, &cfg, None, &mut rng()).unwrap();
        // Pair matching can at best halve: coarse size >= n/2.
        assert!(level.graph.num_vertices() >= h.num_vertices() / 2);
        level.graph.validate().unwrap();
    }

    #[test]
    fn restricted_coarsening_never_crosses_the_cut() {
        let h = grid(20, 20);
        let assignment: Vec<PartId> = (0..400)
            .map(|i| {
                if i % 400 < 200 {
                    PartId::P0
                } else {
                    PartId::P1
                }
            })
            .collect();
        let level =
            coarsen_once(&h, &CoarsenConfig::default(), Some(&assignment), &mut rng()).unwrap();
        // All fine vertices of one cluster must share a side.
        let mut side_of_cluster: Vec<Option<PartId>> = vec![None; level.graph.num_vertices()];
        for (fine, coarse) in level.map.iter().enumerate() {
            match side_of_cluster[coarse.index()] {
                None => side_of_cluster[coarse.index()] = Some(assignment[fine]),
                Some(s) => assert_eq!(s, assignment[fine], "cluster crosses the cut"),
            }
        }
    }

    #[test]
    fn fixed_vertices_propagate_and_never_conflict() {
        use hypart_benchgen::with_pad_ring;
        let h = with_pad_ring(&mcnc_like(400, 3), 40, 1);
        let level = coarsen_once(&h, &CoarsenConfig::default(), None, &mut rng()).unwrap();
        // Count fixed area per side before and after: must match.
        let fixed_area = |g: &Hypergraph, p: PartId| -> u64 {
            g.vertices()
                .filter(|&v| g.fixed_part(v) == Some(p))
                .map(|v| g.vertex_weight(v))
                .sum()
        };
        // Each coarse fixed cluster contains at least the fixed fine area
        // of its members; no cluster may contain fixed vertices of both
        // sides (checked via the fine map).
        let mut cluster_fix: Vec<Option<PartId>> = vec![None; level.graph.num_vertices()];
        for v in h.vertices() {
            if let Some(p) = h.fixed_part(v) {
                let c = level.map[v.index()];
                match cluster_fix[c.index()] {
                    None => cluster_fix[c.index()] = Some(p),
                    Some(q) => assert_eq!(p, q, "cluster mixes fixed sides"),
                }
            }
        }
        let _ = fixed_area(&h, PartId::P0);
    }

    #[test]
    fn cluster_cap_is_respected() {
        let h = ispd98_like(2, 0.02, 9);
        let cfg = CoarsenConfig::default();
        let avg = h.total_vertex_weight() as f64 / h.num_vertices() as f64;
        let cap = ((avg * CoarsenConfig::CLUSTER_CAP_MULTIPLE) as u64).max(h.max_vertex_weight());
        let level = coarsen_once(&h, &cfg, None, &mut rng()).unwrap();
        for v in level.graph.vertices() {
            assert!(level.graph.vertex_weight(v) <= cap);
        }
    }

    #[test]
    fn coarse_nets_have_no_duplicates_or_singletons() {
        let h = mcnc_like(800, 6);
        let level = coarsen_once(&h, &CoarsenConfig::default(), None, &mut rng()).unwrap();
        let g = &level.graph;
        let mut seen = std::collections::HashSet::new();
        for e in g.nets() {
            assert!(g.net_size(e) >= 2);
            let mut pins: Vec<u32> = g.net_pins(e).iter().map(|v| v.raw()).collect();
            pins.sort_unstable();
            assert!(seen.insert(pins), "duplicate coarse net");
        }
    }

    /// Direct admissibility test for the combined restricted + fixed
    /// matching rules: a chain with fixed endpoints on opposite sides,
    /// restricted down the middle. No cluster may cross the cut or mix
    /// fixed sides, and clusters containing a fixed vertex must inherit
    /// its side — across many visit orders.
    #[test]
    fn restricted_and_fixed_matching_is_admissible() {
        let mut b = HypergraphBuilder::new();
        let v: Vec<_> = (0..8).map(|_| b.add_vertex(1)).collect();
        for i in 0..7 {
            b.add_net([v[i], v[i + 1]], 1).unwrap();
        }
        b.fix_vertex(v[0], PartId::P0);
        b.fix_vertex(v[1], PartId::P0);
        b.fix_vertex(v[7], PartId::P1);
        let h = b.build().unwrap();
        let sides: Vec<PartId> = (0..8)
            .map(|i| if i < 4 { PartId::P0 } else { PartId::P1 })
            .collect();
        let cfg = CoarsenConfig {
            stop_size: 2,
            ..CoarsenConfig::default()
        };
        let mut ws = CoarsenWorkspace::new();
        for seed in 0..20u64 {
            let mut r = SmallRng::seed_from_u64(seed);
            let level = coarsen_once_with(&h, &cfg, Some(&sides), &mut r, &mut ws).unwrap();
            let g = &level.graph;
            let mut side: Vec<Option<PartId>> = vec![None; g.num_vertices()];
            let mut fix: Vec<Option<PartId>> = vec![None; g.num_vertices()];
            for (fine, coarse) in level.map.iter().enumerate() {
                let c = coarse.index();
                match side[c] {
                    None => side[c] = Some(sides[fine]),
                    Some(s) => assert_eq!(s, sides[fine], "cluster crosses the cut"),
                }
                if let Some(p) = h.fixed_part(VertexId::from_index(fine)) {
                    match fix[c] {
                        None => fix[c] = Some(p),
                        Some(q) => assert_eq!(p, q, "cluster mixes fixed sides"),
                    }
                }
            }
            // The coarse graph inherits exactly the member fixed sides.
            for c in g.vertices() {
                assert_eq!(g.fixed_part(c), fix[c.index()], "inherited side wrong");
            }
            // Weight is conserved level to level.
            assert_eq!(g.total_vertex_weight(), h.total_vertex_weight());
        }
    }

    /// Reusing one workspace across levels and calls must be invisible:
    /// the same seed through a dirty workspace reproduces the fresh-
    /// workspace result bit for bit.
    #[test]
    fn workspace_reuse_is_behaviorally_invisible() {
        let h = ispd98_like(1, 0.03, 4);
        let mut ws = CoarsenWorkspace::new();
        // Dirty the workspace on an unrelated instance first.
        let other = mcnc_like(700, 3);
        let _ = coarsen_once_with(&other, &CoarsenConfig::default(), None, &mut rng(), &mut ws);
        let fresh = coarsen_once(&h, &CoarsenConfig::default(), None, &mut rng()).unwrap();
        let reused =
            coarsen_once_with(&h, &CoarsenConfig::default(), None, &mut rng(), &mut ws).unwrap();
        assert_eq!(fresh.map, reused.map);
        assert_eq!(fresh.graph.num_nets(), reused.graph.num_nets());
        for e in fresh.graph.nets() {
            assert_eq!(fresh.graph.net_pins(e), reused.graph.net_pins(e));
            assert_eq!(fresh.graph.net_weight(e), reused.graph.net_weight(e));
        }
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
