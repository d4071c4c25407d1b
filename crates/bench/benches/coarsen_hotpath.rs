//! Coarsening hot-path constant factors: per-level allocation churn,
//! connectivity-table accumulation, and identical-net dedup cost.
//!
//! With the FM refinement hot path workspace-backed (see `fm_hotpath`),
//! the coarsening phase is the dominant remaining per-start cost of a
//! multilevel run: every level used to re-accumulate connectivity through
//! a `HashMap<u32, f64>`, dedup collapsed nets through a
//! `HashMap<Vec<u32>, NetId>` (hashing and cloning sorted pin vectors),
//! and rebuild the coarse CSR pair from scratch. The benches cover the
//! two consumer layers: the raw hierarchy builder (coarsening alone, free
//! and restricted), and the multilevel multi-start driver where the
//! coarsening cost recurs at every level of every start and V-cycle.
//!
//! Baseline vs. optimized numbers are recorded in
//! `BENCH_coarsen_hotpath.json` at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use hypart_benchgen::ispd98_like;
use hypart_core::{BalanceConstraint, RunCtx};
use hypart_hypergraph::PartId;
use hypart_ml::coarsen::{build_hierarchy, CoarsenConfig};
use hypart_ml::{multi_start_with, MlConfig, MlPartitioner, MultiStartPlan};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Fixed seed: every sample runs the identical clustering sequence.
const SEED: u64 = 11;

fn bench_hierarchy(c: &mut Criterion) {
    let h = ispd98_like(2, 0.25, 7);
    let cfg = CoarsenConfig::default();
    let mut group = c.benchmark_group("coarsen_hotpath");
    group.bench_function("hierarchy", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(SEED);
            build_hierarchy(&h, &cfg, None, &mut rng)
        })
    });
    // Restricted coarsening (the V-cycle flavor): same instance, vertices
    // may only cluster within their current side.
    let restrict: Vec<PartId> = (0..h.num_vertices())
        .map(|i| if i % 2 == 0 { PartId::P0 } else { PartId::P1 })
        .collect();
    group.bench_function("hierarchy_restricted", |b| {
        b.iter(|| {
            let mut rng = SmallRng::seed_from_u64(SEED);
            build_hierarchy(&h, &cfg, Some(&restrict), &mut rng)
        })
    });
    group.finish();
}

fn bench_multilevel(c: &mut Criterion) {
    let h = ispd98_like(2, 0.25, 7);
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let ml = MlPartitioner::new(MlConfig::ml_lifo());
    let mut group = c.benchmark_group("coarsen_hotpath_ml");
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hierarchy, bench_multilevel
}
criterion_main!(benches);
