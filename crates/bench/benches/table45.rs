//! Criterion bench behind Tables 4-5: multi-start multilevel runs at
//! increasing start counts (the quality/runtime tradeoff subject).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hypart_bench::{instance, tol2, ExperimentConfig};
use hypart_core::RunCtx;
use hypart_ml::{multi_start_with, MlConfig, MlPartitioner, MultiStartPlan};

fn bench_multi_start(c: &mut Criterion) {
    let cfg = ExperimentConfig {
        scale: 0.02,
        trials: 1,
        seed: 4,
    };
    let h = instance(&cfg, 1);
    let constraint = tol2(&h);
    let ml = MlPartitioner::new(MlConfig::default());
    let mut group = c.benchmark_group("table45_multistart");
    for nruns in [1usize, 2, 4] {
        let mut seed = 0u64;
        group.bench_function(format!("starts_{nruns}"), |b| {
            b.iter_batched(
                || {
                    seed += 1;
                    seed
                },
                |s| {
                    multi_start_with(
                        &ml,
                        &h,
                        &constraint,
                        &MultiStartPlan::count(nruns, 1),
                        &mut RunCtx::new(s),
                    )
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_multi_start
}
criterion_main!(benches);
