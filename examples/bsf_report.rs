//! The reporting style the paper prescribes (§3.2): best-so-far curves,
//! a non-dominated (cost, runtime) frontier, and a Wilcoxon significance
//! check — instead of bare "best of 100 starts" numbers.
//!
//! Run: `cargo run --release --example bsf_report`

use hypart::benchgen::ispd98_like;
use hypart::eval::bsf::BsfCurve;
use hypart::eval::pareto::{frontier_report, PerfPoint};
use hypart::eval::stats::{wilcoxon_rank_sum, Summary};
use hypart::prelude::*;

fn main() {
    let trials = 12;
    let h = ispd98_like(1, 0.06, 3);
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.02);
    println!(
        "instance {}: {} cells / {} nets; {} trials per heuristic\n",
        h.name(),
        h.num_vertices(),
        h.num_nets(),
        trials
    );

    let heuristics: Vec<Box<dyn Heuristic>> = vec![
        Box::new(FlatFmHeuristic::new("Flat LIFO", FmConfig::lifo())),
        Box::new(FlatFmHeuristic::new("Flat CLIP", FmConfig::clip())),
        Box::new(MlHeuristic::new("ML LIFO", MlConfig::ml_lifo())),
    ];

    let mut sets = Vec::new();
    for heuristic in &heuristics {
        let set = run_trials_with(
            heuristic.as_ref(),
            &h,
            &constraint,
            trials,
            &mut RunCtx::new(7),
        );
        let summary = Summary::of(&set.cuts()).expect("trials exist");
        println!(
            "{:<10} cuts: min {} avg {:.1} ± {:.1} (median {}), {:.1} ms/start",
            set.heuristic,
            summary.min,
            summary.mean,
            summary.std_dev,
            summary.median,
            set.avg_seconds() * 1e3,
        );
        sets.push(set);
    }

    // BSF curves: what each heuristic achieves under a CPU budget.
    println!();
    for set in &sets {
        let curve = BsfCurve::from_trials(set, 32);
        println!("{}", curve.ascii_plot(56, 8));
    }

    // Pareto frontier over (avg cut, avg seconds).
    let points: Vec<PerfPoint> = sets
        .iter()
        .map(|s| PerfPoint::new(s.heuristic.clone(), s.avg_cut(), s.avg_seconds()))
        .collect();
    println!("{}", frontier_report(&points));

    // Is ML really better than flat, or is it chance? (Brglez's question.)
    let w = wilcoxon_rank_sum(&sets[2].cuts(), &sets[0].cuts()).expect("non-empty");
    println!(
        "Wilcoxon rank-sum, ML LIFO vs Flat LIFO: z = {:.2}, p = {:.2e} → {}",
        w.z,
        w.p_value,
        if w.significant_at(0.01) {
            "significant at 1%"
        } else {
            "NOT significant at 1%"
        }
    );
}
