//! The corking effect in CLIP (§2.3), live.
//!
//! CLIP starts every pass with all moves in the 0-gain bucket, ordered by
//! initial gain — so the highest-degree (and hence usually highest-area)
//! cells sit at the bucket heads. On an actual-area instance under a tight
//! balance window those heads are illegal and the pass dies immediately:
//! the big cell "acts as a cork". On unit-area instances the effect is
//! invisible, which is how it went unnoticed.
//!
//! Run: `cargo run --release --example corking_demo`

use hypart::benchgen::{ispd98_like, mcnc_like};
use hypart::prelude::*;

fn main() {
    let trials = 10;

    println!("=== actual-area ISPD98-like instance, 2% window ===");
    let h = ispd98_like(2, 0.08, 5);
    demo(&h, trials);

    println!("\n=== unit-area MCNC-like instance, 2% window (corking masked) ===");
    let m = mcnc_like(2000, 5);
    demo(&m, trials);
}

fn demo(h: &Hypergraph, trials: usize) {
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.02);
    let window = constraint.upper() - constraint.lower();
    let overweight = h
        .vertices()
        .filter(|&v| h.vertex_weight(v) > window)
        .count();
    println!(
        "{}: {} cells, window width {}, {} cells wider than the window",
        h.name(),
        h.num_vertices(),
        window,
        overweight
    );

    for (label, fm) in [
        (
            "CLIP, corkable      ",
            FmConfig::clip().with_exclude_overweight(false),
        ),
        ("CLIP + exclusion fix", FmConfig::clip()),
    ] {
        let engine = FmPartitioner::new(fm);
        let trace = MemorySink::new();
        let mut cuts = Vec::with_capacity(trials);
        for seed in 0..trials as u64 {
            let out = engine.run_with(h, &constraint, &mut RunCtx::new(seed).with_sink(&trace));
            cuts.push(out.cut);
        }
        // Every pass ends with a `PassEnd` event carrying the §2.3
        // `corked` flag.
        let (mut corked, mut passes) = (0, 0);
        for event in trace.take() {
            if let RunEvent::PassEnd { corked: c, .. } = event {
                corked += usize::from(c);
                passes += 1;
            }
        }
        let min = cuts.iter().min().copied().unwrap_or(0);
        let avg = cuts.iter().sum::<u64>() as f64 / cuts.len() as f64;
        println!("  {label}: corked passes {corked}/{passes}, cuts min/avg {min}/{avg:.0}");
    }
}
