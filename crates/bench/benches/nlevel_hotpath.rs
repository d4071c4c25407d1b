//! n-level hot-path constant factors: single-pair contraction with
//! memento undo, and the full engine against the coarse-grained backend.
//!
//! The n-level backend's cost profile is nothing like the coarse one:
//! instead of a handful of CSR rebuilds there are ~n contractions, ~n
//! constant-size undos, and ~n localized refinement invocations, all
//! against one incrementally mutated [`DynHypergraph`] view. The benches
//! isolate the three layers: the contraction schedule alone (select +
//! contract), the structural round-trip (contract everything, undo
//! everything), and the end-to-end engines on the same instance so the
//! per-backend overhead is directly comparable.

use criterion::{criterion_group, criterion_main, Criterion};
use hypart_benchgen::ispd98_like;
use hypart_core::{
    select_contractions, BalanceConstraint, ContractScratch, ContractionLimits, DynHypergraph,
    EngineKind, RunCtx, SparseScores,
};
use hypart_ml::{multi_start_with, MlConfig, MlPartitioner, MultiStartPlan};

/// Fixed seed: every sample runs the identical contraction sequence.
const SEED: u64 = 11;

fn limits(h: &hypart_hypergraph::Hypergraph) -> ContractionLimits {
    ContractionLimits {
        stop_size: 30,
        max_net_size: 300,
        cluster_cap: h.total_vertex_weight(),
    }
}

fn bench_contraction(c: &mut Criterion) {
    let h = ispd98_like(2, 0.25, 7);
    let mut group = c.benchmark_group("nlevel_hotpath");
    // Warm arenas reused across samples, the steady-state shape the
    // workspace targets; the first sample pays the allocations.
    let mut d = DynHypergraph::new(&h);
    let mut scores = SparseScores::new();
    let mut scratch = ContractScratch::new();
    group.bench_function("contract_schedule", |b| {
        b.iter(|| {
            d.reset_from_csr(&h);
            let ctx = RunCtx::new(SEED);
            let mut probe = ctx.probe();
            select_contractions(
                &mut d,
                &limits(&h),
                None,
                SEED,
                &mut scores,
                &mut scratch,
                &mut probe,
            );
            scratch.mementos.len()
        })
    });
    group.bench_function("contract_undo_roundtrip", |b| {
        b.iter(|| {
            d.reset_from_csr(&h);
            let ctx = RunCtx::new(SEED);
            let mut probe = ctx.probe();
            select_contractions(
                &mut d,
                &limits(&h),
                None,
                SEED,
                &mut scores,
                &mut scratch,
                &mut probe,
            );
            while let Some(m) = scratch.mementos.pop() {
                d.uncontract(&m);
            }
            d.num_active()
        })
    });
    group.finish();
}

fn bench_engines(c: &mut Criterion) {
    let h = ispd98_like(2, 0.25, 7);
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let mut group = c.benchmark_group("nlevel_hotpath_engine");
    let nlevel = MlPartitioner::new(MlConfig::default().with_engine(EngineKind::NLevel));
    group.bench_function("nlevel_full", |b| {
        let mut ctx = RunCtx::new(SEED);
        b.iter(|| nlevel.run_with(&h, &constraint, &mut ctx))
    });
    let coarse = MlPartitioner::new(MlConfig::ml_lifo());
    group.bench_function("ml_coarse_full", |b| {
        let mut ctx = RunCtx::new(SEED);
        b.iter(|| coarse.run_with(&h, &constraint, &mut ctx))
    });
    // The steady-state case the workspace exists for: one context reused
    // across four starts plus a V-cycle on the winner — every start after
    // the first should run on warm arenas.
    group.bench_function("nlevel_multi_start4", |b| {
        let mut ctx = RunCtx::new(SEED);
        b.iter(|| {
            multi_start_with(
                &nlevel,
                &h,
                &constraint,
                &MultiStartPlan::count(4, 1),
                &mut ctx,
            )
            .cut
        })
    });
    group.finish();
}

criterion_group!(benches, bench_contraction, bench_engines);
criterion_main!(benches);
