//! FM hot-path constant factors: gain-container reset and per-refinement
//! allocation cost.
//!
//! The regime that exposes the O(bucket-range) container clear is a
//! *macro-heavy* instance: one clock-tree-like net of very large weight
//! makes `max_gain_bound` (and therefore the bucket range) enormous while
//! passes stay short — so zeroing the bucket arrays, not moving vertices,
//! dominates each refinement. The benches cover the three engine layers
//! that own gain containers: flat FM/CLIP, the multilevel multi-start
//! driver (one refinement per level per start per V-cycle), and direct
//! k-way FM (a k·(k−1) container grid per refinement).
//!
//! Baseline vs. optimized numbers are recorded in `BENCH_fm_hotpath.json`
//! at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use hypart_core::{BalanceConstraint, FmConfig, FmPartitioner, RunCtx};
use hypart_hypergraph::{Hypergraph, HypergraphBuilder};
use hypart_kway::{KWayBalance, KWayConfig, KWayFmPartitioner};
use hypart_ml::{multi_start_with, MlConfig, MlPartitioner, MultiStartPlan};

/// Fixed seed: every sample runs the identical move sequence.
const SEED: u64 = 11;

/// A chain of `n` unit cells plus one net of weight `heavy` spanning four
/// spread-out cells. `max_gain_bound` is ≈ `heavy` (the weighted degree of
/// the hub), so the gain containers span ~`4 * heavy` buckets while a pass
/// moves at most `n` vertices — the short-pass / huge-bucket-range corner.
fn macro_heavy(n: usize, heavy: u32) -> Hypergraph {
    let mut b = HypergraphBuilder::new();
    let v: Vec<_> = (0..n).map(|_| b.add_vertex(1)).collect();
    for i in 0..n - 1 {
        b.add_net([v[i], v[i + 1]], 1).unwrap();
    }
    b.add_net([v[0], v[n / 4], v[n / 2], v[3 * n / 4]], heavy)
        .unwrap();
    b.build().unwrap()
}

fn bench_flat(c: &mut Criterion) {
    let h = macro_heavy(256, 50_000);
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let mut group = c.benchmark_group("fm_hotpath_flat");
    for (name, cfg) in [("classic", FmConfig::lifo()), ("clip", FmConfig::clip())] {
        let engine = FmPartitioner::new(cfg);
        group.bench_function(name, |b| b.iter(|| engine.run(&h, &constraint, SEED)));
    }
    group.finish();
}

fn bench_multilevel(c: &mut Criterion) {
    let h = macro_heavy(512, 50_000);
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let ml = MlPartitioner::new(MlConfig::ml_lifo());
    let mut group = c.benchmark_group("fm_hotpath_ml");
    group.bench_function("multi_start4", |b| {
        b.iter(|| {
            multi_start_with(
                &ml,
                &h,
                &constraint,
                &MultiStartPlan::count(4, 1),
                &mut RunCtx::new(SEED),
            )
        })
    });
    group.finish();
}

fn bench_kway(c: &mut Criterion) {
    let h = macro_heavy(256, 20_000);
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, 0.15);
    let engine = KWayFmPartitioner::new(KWayConfig::default());
    let mut group = c.benchmark_group("fm_hotpath_kway");
    group.bench_function("k4", |b| b.iter(|| engine.run(&h, &balance, SEED)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_flat, bench_multilevel, bench_kway
}
criterion_main!(benches);
