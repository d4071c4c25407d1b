//! Overhead of the trace instrumentation on the flat FM inner loop.
//!
//! The acceptance bar is that `run_with` on a `NullSink` context stays
//! within ~2% of the untraced `run`: every per-move emission site is
//! gated on a cached `is_enabled()` check, so a disabled sink must cost
//! one branch, not a formatting call. `MemorySink` is included to show
//! the real price of capturing the full stream, and the multilevel engine
//! gets the same three-way comparison since it threads the sink through
//! every level.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hypart_bench::{instance, tol2, ExperimentConfig};
use hypart_core::{FmConfig, FmPartitioner, RunCtx};
use hypart_ml::{MlConfig, MlPartitioner};
use hypart_trace::{MemorySink, NullSink};

/// Fixed seed so every sample runs the identical move sequence: the
/// comparison isolates instrumentation cost from per-seed work variance.
const SEED: u64 = 7;

fn bench_flat(c: &mut Criterion) {
    let cfg = ExperimentConfig {
        scale: 0.02,
        trials: 3,
        seed: 1,
    };
    let h = instance(&cfg, 1);
    let constraint = tol2(&h);
    let engine = FmPartitioner::new(FmConfig::clip());
    let mut group = c.benchmark_group("trace_overhead_flat");

    group.bench_function("untraced", |b| b.iter(|| engine.run(&h, &constraint, SEED)));
    group.bench_function("null_sink", |b| {
        b.iter(|| engine.run_with(&h, &constraint, &mut RunCtx::new(SEED).with_sink(&NullSink)))
    });
    group.bench_function("memory_sink", |b| {
        b.iter_batched(
            MemorySink::new,
            |sink| engine.run_with(&h, &constraint, &mut RunCtx::new(SEED).with_sink(&sink)),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_multilevel(c: &mut Criterion) {
    let cfg = ExperimentConfig {
        scale: 0.02,
        trials: 3,
        seed: 1,
    };
    let h = instance(&cfg, 1);
    let constraint = tol2(&h);
    let ml = MlPartitioner::new(MlConfig::default());
    let mut group = c.benchmark_group("trace_overhead_ml");

    group.bench_function("untraced", |b| b.iter(|| ml.run(&h, &constraint, SEED)));
    group.bench_function("null_sink", |b| {
        b.iter(|| ml.run_with(&h, &constraint, &mut RunCtx::new(SEED).with_sink(&NullSink)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_flat, bench_multilevel
}
criterion_main!(benches);
