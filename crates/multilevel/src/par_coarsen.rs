//! Shared-memory parallel coarsening: window-speculative matching and
//! sharded net staging.
//!
//! # Design
//!
//! The serial matcher visits vertices in one shuffled order and commits
//! each decision before scoring the next vertex, so every score depends on
//! every earlier decision. The parallel matcher breaks that chain with
//! *window speculation*: the shuffled order is processed in windows; all
//! proposals of one window are computed in parallel from a **frozen
//! snapshot** of the clustering state, then committed **serially in window
//! order**, validating each proposal against the live state.
//!
//! In **deterministic** mode a stale proposal is detected exactly: a
//! proposal is committed as-is only when (a) none of the vertex's scoring
//! nets were touched by an earlier commit of the same window (tracked by
//! epoch-stamped per-net dirty bits), and (b) the chosen candidate is
//! still admissible against the live cluster state. Otherwise the vertex
//! is rescanned serially — which is the exact serial computation.
//! Admissibility only *shrinks* as the window commits (cluster weights
//! only grow, fixed sides only get set, restriction sides never change),
//! and condition (a) guarantees the live candidate scores and keys equal
//! the snapshot's, so a surviving speculative winner *is* the serial
//! winner. The result is therefore bitwise identical to
//! [`coarsen_once_with`](crate::coarsen::coarsen_once_with) regardless of
//! lane count or physical thread count — validation is conservative, and
//! every rejection falls back to the serial scan.
//!
//! In **relaxed** mode the dirty-net check is skipped: a proposal commits
//! whenever it is still *legal* (cap, fixed-side, restriction — checked
//! against the live state, so no illegal cluster can ever form), and the
//! window grows with the lane count. Results then genuinely depend on the
//! lane count, but never on data races: proposals read a frozen `&`
//! snapshot and all writes happen in the serial commit.
//!
//! Net staging parallelizes over disjoint net ranges: a prefix-sum of
//! fine-net sizes (`net_off`) pre-assigns every net a private slice of the
//! pin arena, each lane stages its range in place, and dropped nets keep
//! `len == 0` and are retained out afterwards — preserving the serial
//! fine-net emission order that duplicate merging depends on.

use rand::seq::SliceRandom;
use rand::Rng;

use hypart_core::{BudgetProbe, CandInfo, CoarseNet, CoarsenWorkspace, MatchProposal, ParLane};
use hypart_hypergraph::{Hypergraph, PartId, VertexId};

use crate::coarsen::{
    accumulate_conn, apply_decision, cluster_cap, fingerprint, merge_and_build, scan_best,
    sort_dedup_pins, CoarseLevel, CoarsenConfig, TAG, UNMATCHED,
};

/// Matching window size of deterministic mode. A thread-independent
/// constant: the speculation granularity must not depend on how many
/// lanes compute the proposals, or the commit sequence would change with
/// the thread count.
pub const PAR_MATCH_WINDOW: usize = 128;

/// Below this many vertices a level is coarsened serially by
/// [`build_hierarchy_par_with`]: window bookkeeping costs more than the
/// scan itself. Deterministic-mode results are unaffected (the parallel
/// matcher is bitwise identical to the serial one), so this is purely a
/// performance threshold.
pub const PAR_COARSEN_MIN_VERTICES: usize = 512;

/// Below this many nets the staging pass runs serially.
pub const PAR_STAGE_MIN_NETS: usize = 1024;

/// Marks every scoring net of `v` dirty in the current window epoch.
/// Non-scoring nets never contribute to connectivity, so their stamps
/// are irrelevant.
#[inline]
fn mark_dirty(h: &Hypergraph, v: VertexId, net_score: &[f64], net_stamp: &mut [u32], epoch: u32) {
    for &e in h.vertex_nets(v) {
        if net_score[e.index()] >= 0.0 {
            net_stamp[e.index()] = epoch;
        }
    }
}

/// Whether any scoring net of `v` was touched by an earlier commit of the
/// current window.
#[inline]
fn nets_dirty(
    h: &Hypergraph,
    v: VertexId,
    net_score: &[f64],
    net_stamp: &[u32],
    epoch: u32,
) -> bool {
    h.vertex_nets(v)
        .iter()
        .any(|&e| net_score[e.index()] >= 0.0 && net_stamp[e.index()] == epoch)
}

/// Whether a speculative proposal is still legal against the live state.
/// `NONE` (singleton) is always legal. Conservative rejection is safe:
/// it only forces an exact serial rescan.
#[inline]
#[allow(clippy::too_many_arguments)]
fn proposal_admissible(
    key: u32,
    v_info: CandInfo,
    vert_info: &[CandInfo],
    cluster_info: &[CandInfo],
    cluster_of: &[u32],
    cap: u64,
    restricted: bool,
) -> bool {
    if key == MatchProposal::NONE {
        return true;
    }
    let target = if key & TAG != 0 {
        let u = (key & !TAG) as usize;
        if cluster_of[u] != UNMATCHED {
            return false; // pair partner was consumed by an earlier commit
        }
        vert_info[u]
    } else {
        cluster_info[key as usize]
    };
    if v_info.weight + target.weight > cap {
        return false;
    }
    if let (Some(a), Some(b)) = (v_info.fixed, target.fixed) {
        if a != b {
            return false;
        }
    }
    if restricted && v_info.side != target.side {
        return false;
    }
    true
}

/// Advances the dirty-net epoch, clearing the stamps on wrap so a stale
/// stamp can never alias a live epoch.
#[inline]
fn bump_epoch(epoch: &mut u32, stamps: &mut [u32]) {
    if *epoch == u32::MAX {
        stamps.fill(0);
        *epoch = 0;
    }
    *epoch += 1;
}

/// Parallel counterpart of
/// [`coarsen_once_with`](crate::coarsen::coarsen_once_with): one
/// coarsening step using `lanes` proposal lanes.
///
/// Consumes `rng` exactly like the serial step (one shuffle of the visit
/// order), so serial and parallel levels can be mixed freely in one
/// hierarchy without perturbing downstream randomness. In deterministic
/// mode the returned level is bitwise identical to the serial step's for
/// any lane count; in relaxed mode it is a legal clustering that may vary
/// with the lane count.
#[allow(clippy::too_many_arguments)]
pub fn coarsen_once_par_with<R: Rng>(
    h: &Hypergraph,
    config: &CoarsenConfig,
    restrict: Option<&[PartId]>,
    rng: &mut R,
    ws: &mut CoarsenWorkspace,
    lanes: &mut [ParLane],
    deterministic: bool,
) -> Option<CoarseLevel> {
    assert!(
        !lanes.is_empty(),
        "parallel coarsening needs at least one lane"
    );
    let n = h.num_vertices();
    if n <= config.stop_size {
        return None;
    }
    if let Some(r) = restrict {
        assert_eq!(r.len(), n, "restriction assignment length mismatch");
    }
    let cap = cluster_cap(h);

    ws.begin_level(n);
    if ws.net_stamp.len() < h.num_nets() {
        ws.net_stamp.resize(h.num_nets(), 0);
    }
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
        match_props,
        net_stamp,
        net_epoch,
        net_off,
        ..
    } = ws;
    let mut num_clusters = 0u32;

    // Identical preamble to the serial step, including the single rng use.
    order.clear();
    order.extend(h.vertices());
    order.shuffle(rng);

    net_score.reserve(h.num_nets());
    for e in h.nets() {
        let size = h.net_size(e);
        net_score.push(if size < 2 || size > config.max_net_size_for_matching {
            -1.0
        } else {
            f64::from(h.net_weight(e)) / (size - 1) as f64
        });
    }

    vert_info.reserve(n);
    for v in h.vertices() {
        vert_info.push(CandInfo {
            weight: h.vertex_weight(v),
            fixed: h.fixed_part(v),
            side: restrict.map_or(PartId::P0, |r| r[v.index()]),
        });
    }

    let dead = 2 * n as u32;
    let restricted = restrict.is_some();
    let lane_count = lanes.len();
    let window = if deterministic {
        PAR_MATCH_WINDOW
    } else {
        PAR_MATCH_WINDOW * lane_count
    };

    let mut pos = 0usize;
    while pos < order.len() {
        let end = (pos + window).min(order.len());
        let win = &order[pos..end];
        bump_epoch(net_epoch, net_stamp);
        let epoch = *net_epoch;

        // Proposal phase: every lane scores a disjoint chunk of the window
        // from a frozen `&` snapshot of the clustering state, writing into
        // its disjoint chunk of the proposal array.
        match_props.clear();
        match_props.resize(
            win.len(),
            MatchProposal {
                key: MatchProposal::NONE,
            },
        );
        {
            let cluster_of_s: &[u32] = cluster_of;
            let slot_of_s: &[u32] = slot_of;
            let vert_info_s: &[CandInfo] = vert_info;
            let cluster_info_s: &[CandInfo] = cluster_info;
            let net_score_s: &[f64] = net_score;
            let chunk = win.len().div_ceil(lane_count).max(1);
            rayon::scope(|sc| {
                let mut props_rest: &mut [MatchProposal] = match_props;
                let mut win_rest: &[VertexId] = win;
                for lane in lanes.iter_mut() {
                    if props_rest.is_empty() {
                        break;
                    }
                    let take = chunk.min(props_rest.len());
                    let (props_chunk, pr) = props_rest.split_at_mut(take);
                    let (win_chunk, wr) = win_rest.split_at(take);
                    props_rest = pr;
                    win_rest = wr;
                    sc.spawn(move |_| {
                        for (p, &v) in props_chunk.iter_mut().zip(win_chunk) {
                            if cluster_of_s[v.index()] != UNMATCHED {
                                p.key = MatchProposal::SKIP;
                                continue;
                            }
                            let v_info = vert_info_s[v.index()];
                            accumulate_conn(h, v, slot_of_s, net_score_s, &mut lane.conn, n);
                            p.key = match scan_best(
                                &lane.conn,
                                v,
                                v_info,
                                vert_info_s,
                                cluster_info_s,
                                n,
                                dead,
                                cap,
                                restricted,
                            ) {
                                Some((key, _)) => key,
                                None => MatchProposal::NONE,
                            };
                        }
                    });
                }
            });
        }

        // Commit phase: serial, in window (= serial visit) order.
        for (i, &v) in win.iter().enumerate() {
            if cluster_of[v.index()] != UNMATCHED {
                continue;
            }
            let v_info = vert_info[v.index()];
            let key = match_props[i].key;
            let valid = key != MatchProposal::SKIP
                && (!deterministic || !nets_dirty(h, v, net_score, net_stamp, epoch))
                && proposal_admissible(
                    key,
                    v_info,
                    vert_info,
                    cluster_info,
                    cluster_of,
                    cap,
                    restricted,
                );
            let best = if valid {
                (key != MatchProposal::NONE).then_some((key, 0.0))
            } else {
                // Stale or illegal: rescan against the live state — the
                // exact serial computation for this vertex.
                accumulate_conn(h, v, slot_of, net_score, conn, n);
                scan_best(
                    conn,
                    v,
                    v_info,
                    vert_info,
                    cluster_info,
                    n,
                    dead,
                    cap,
                    restricted,
                )
            };
            let partner = apply_decision(
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
            if deterministic {
                // Any decision changes v's slot; a pair merge changes the
                // partner's too. Later proposals touching either must be
                // recomputed.
                mark_dirty(h, v, net_score, net_stamp, epoch);
                if let Some(u) = partner {
                    mark_dirty(h, u, net_score, net_stamp, epoch);
                }
            }
        }
        pos = end;
    }

    let coarse_n = num_clusters as usize;
    if (coarse_n as f64) > CoarsenConfig::SHRINK_THRESHOLD * n as f64 {
        return None;
    }

    if lane_count > 1 && h.num_nets() >= PAR_STAGE_MIN_NETS {
        // Parallel staging: prefix offsets pre-assign each net a private
        // arena slice; lanes stage disjoint net ranges in place. Dropped
        // nets keep `len == 0` and are retained out below, preserving the
        // fine-net order. Arena gaps (from dedup) are harmless: merging
        // and building only read each net's `range()` slice.
        net_off.clear();
        net_off.reserve(h.num_nets() + 1);
        let mut acc = 0u32;
        net_off.push(0);
        for e in h.nets() {
            acc += h.net_size(e) as u32;
            net_off.push(acc);
        }
        pin_arena.clear();
        pin_arena.resize(acc as usize, VertexId::new(0));
        nets.clear();
        nets.resize(
            h.num_nets(),
            CoarseNet {
                start: 0,
                len: 0,
                weight: 0,
                fp: 0,
            },
        );
        {
            let cluster_of_s: &[u32] = cluster_of;
            let net_off_s: &[u32] = net_off;
            let per = h.num_nets().div_ceil(lane_count).max(1);
            rayon::scope(|sc| {
                let mut nets_rest: &mut [CoarseNet] = nets;
                let mut arena_rest: &mut [VertexId] = pin_arena;
                let mut net_base = 0usize;
                let mut arena_base = 0usize;
                while !nets_rest.is_empty() {
                    let take = per.min(nets_rest.len());
                    let pin_end = net_off_s[net_base + take] as usize;
                    let (net_chunk, nr) = nets_rest.split_at_mut(take);
                    let (arena_chunk, ar) = arena_rest.split_at_mut(pin_end - arena_base);
                    nets_rest = nr;
                    arena_rest = ar;
                    let base = net_base;
                    let abase = arena_base;
                    sc.spawn(move |_| {
                        for (j, slot) in net_chunk.iter_mut().enumerate() {
                            let e = hypart_hypergraph::NetId::from_index(base + j);
                            let lo = net_off_s[base + j] as usize - abase;
                            let hi = net_off_s[base + j + 1] as usize - abase;
                            let slice = &mut arena_chunk[lo..hi];
                            for (dst, &fv) in slice.iter_mut().zip(h.net_pins(e)) {
                                *dst = VertexId::new(cluster_of_s[fv.index()]);
                            }
                            let unique = sort_dedup_pins(slice);
                            if unique >= 2 {
                                *slot = CoarseNet {
                                    start: net_off_s[base + j],
                                    len: unique as u32,
                                    weight: h.net_weight(e),
                                    fp: fingerprint(&slice[..unique]),
                                };
                            }
                        }
                    });
                    net_base += take;
                    arena_base = pin_end;
                }
            });
        }
        nets.retain(|net| net.len >= 2);
    } else {
        // Serial staging, identical to the serial step.
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

/// Parallel counterpart of
/// [`build_hierarchy_with`](crate::coarsen::build_hierarchy_with): builds
/// the full hierarchy, coarsening each level with
/// [`coarsen_once_par_with`] once it is large enough to amortize the
/// window bookkeeping (a size threshold — never a thread-count test, so
/// deterministic hierarchies do not depend on the lane count).
///
/// `probe` is polled at every level boundary; on expiry the hierarchy
/// built so far is returned (a legal, merely shallower, hierarchy).
#[allow(clippy::too_many_arguments)]
pub fn build_hierarchy_par_with<R: Rng>(
    h: &Hypergraph,
    config: &CoarsenConfig,
    restrict: Option<&[PartId]>,
    rng: &mut R,
    ws: &mut CoarsenWorkspace,
    lanes: &mut [ParLane],
    deterministic: bool,
    probe: &mut BudgetProbe,
) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let restricted = restrict.is_some();
    ws.restrict.clear();
    if let Some(r) = restrict {
        ws.restrict.extend_from_slice(r);
    }
    loop {
        if probe.stop_now().is_some() {
            break;
        }
        let current = levels.last().map_or(h, |l| &l.graph);
        let r_buf = std::mem::take(&mut ws.restrict);
        let r = restricted.then_some(&r_buf[..]);
        let level = if current.num_vertices() >= PAR_COARSEN_MIN_VERTICES {
            coarsen_once_par_with(current, config, r, rng, ws, lanes, deterministic)
        } else {
            crate::coarsen::coarsen_once_with(current, config, r, rng, ws)
        };
        let Some(level) = level else {
            ws.restrict = r_buf;
            break;
        };
        if restricted {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::{build_hierarchy_with, coarsen_once_with, CoarsenScheme};
    use hypart_core::ensure_lanes;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn lanes_of(count: usize) -> Vec<ParLane> {
        let mut lanes = Vec::new();
        ensure_lanes(&mut lanes, count);
        lanes
    }

    fn assert_same_level(a: &Option<CoarseLevel>, b: &Option<CoarseLevel>) {
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.map, b.map, "cluster maps differ");
                assert_eq!(
                    a.graph.num_vertices(),
                    b.graph.num_vertices(),
                    "coarse vertex counts differ"
                );
                assert_eq!(
                    a.graph.num_nets(),
                    b.graph.num_nets(),
                    "coarse net counts differ"
                );
                for v in a.graph.vertices() {
                    assert_eq!(a.graph.vertex_weight(v), b.graph.vertex_weight(v));
                    assert_eq!(a.graph.fixed_part(v), b.graph.fixed_part(v));
                }
                for e in a.graph.nets() {
                    assert_eq!(a.graph.net_pins(e), b.graph.net_pins(e));
                    assert_eq!(a.graph.net_weight(e), b.graph.net_weight(e));
                }
            }
            _ => panic!("one side coarsened, the other stalled"),
        }
    }

    #[test]
    fn deterministic_parallel_matches_serial_for_every_lane_count() {
        let h = hypart_benchgen::ispd98_like(1, 0.05, 0x5eed);
        for scheme in [CoarsenScheme::FirstChoice, CoarsenScheme::HeavyEdge] {
            let config = CoarsenConfig {
                scheme,
                ..CoarsenConfig::default()
            };
            let mut rng = SmallRng::seed_from_u64(7);
            let serial =
                coarsen_once_with(&h, &config, None, &mut rng, &mut CoarsenWorkspace::new());
            for lane_count in [1usize, 2, 3, 8] {
                let mut rng = SmallRng::seed_from_u64(7);
                let mut ws = CoarsenWorkspace::new();
                let mut lanes = lanes_of(lane_count);
                let par =
                    coarsen_once_par_with(&h, &config, None, &mut rng, &mut ws, &mut lanes, true);
                assert_same_level(&serial, &par);
            }
        }
    }

    #[test]
    fn deterministic_parallel_hierarchy_matches_serial() {
        let h = hypart_benchgen::ispd98_like(2, 0.04, 0xabcd);
        let config = CoarsenConfig::default();
        let mut rng = SmallRng::seed_from_u64(11);
        let serial =
            build_hierarchy_with(&h, &config, None, &mut rng, &mut CoarsenWorkspace::new());
        let mut rng = SmallRng::seed_from_u64(11);
        let mut ws = CoarsenWorkspace::new();
        let mut lanes = lanes_of(4);
        let mut probe = hypart_core::RunCtx::new(0).probe();
        let par = build_hierarchy_par_with(
            &h, &config, None, &mut rng, &mut ws, &mut lanes, true, &mut probe,
        );
        assert_eq!(serial.len(), par.len(), "hierarchy depths differ");
        for (s, p) in serial.iter().zip(par.iter()) {
            let (s, p) = (Some(s.clone()), Some(p.clone()));
            assert_same_level(&s, &p);
        }
    }

    #[test]
    fn relaxed_parallel_respects_restriction_and_cap() {
        let h = hypart_benchgen::ispd98_like(1, 0.03, 0x1234);
        let config = CoarsenConfig::default();
        let sides: Vec<PartId> = (0..h.num_vertices())
            .map(|v| if v % 3 == 0 { PartId::P0 } else { PartId::P1 })
            .collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ws = CoarsenWorkspace::new();
        let mut lanes = lanes_of(4);
        let level = coarsen_once_par_with(
            &h,
            &config,
            Some(&sides),
            &mut rng,
            &mut ws,
            &mut lanes,
            false,
        );
        let Some(level) = level else {
            return; // a stall is a legal outcome
        };
        let cap = cluster_cap(&h);
        for v in level.graph.vertices() {
            assert!(
                level.graph.vertex_weight(v) <= cap,
                "cluster exceeds the cap"
            );
        }
        // No cluster may span the restriction boundary.
        let mut side_of = vec![None; level.graph.num_vertices()];
        for (fine, &coarse) in level.map.iter().enumerate() {
            let prev = side_of[coarse.index()].replace(sides[fine]);
            if let Some(p) = prev {
                assert_eq!(p, sides[fine], "cluster spans the restriction boundary");
            }
        }
    }
}
