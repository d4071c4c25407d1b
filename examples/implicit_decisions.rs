//! The paper's core demonstration (§2.2, Table 1): silently different
//! implementation decisions inside "the same" FM algorithm produce wildly
//! different solution quality.
//!
//! Sweeps the zero-delta-gain policy × tie-break bias grid over a flat
//! LIFO FM on an actual-area ISPD98-like instance, then shows the same
//! grid wrapped in a multilevel engine (where the dynamic range shrinks —
//! the "danger" the paper warns of, since a strong wrapper can hide a bad
//! flat engine).
//!
//! Run: `cargo run --release --example implicit_decisions`

use hypart::benchgen::ispd98_like;
use hypart::eval::table::Table;
use hypart::prelude::*;

fn main() {
    let trials = 10;
    let h = ispd98_like(1, 0.08, 99);
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.02);
    println!(
        "instance {}: {} cells, {} nets, 2% balance window [{}, {}]\n",
        h.name(),
        h.num_vertices(),
        h.num_nets(),
        constraint.lower(),
        constraint.upper()
    );

    for wrap_ml in [false, true] {
        let mut table = Table::new(["Updates", "Bias", "min/avg cut"]).with_title(if wrap_ml {
            "ML LIFO FM (multilevel wrapper narrows the spread)"
        } else {
            "Flat LIFO FM (implicit decisions swing the average)"
        });
        for (update_name, zero_delta) in [
            ("All-delta", ZeroDeltaPolicy::All),
            ("Nonzero", ZeroDeltaPolicy::Nonzero),
        ] {
            for (bias_name, tie_break) in [
                ("Away", TieBreak::Away),
                ("Part0", TieBreak::Part0),
                ("Toward", TieBreak::Toward),
            ] {
                let fm = FmConfig::lifo()
                    .with_zero_delta(zero_delta)
                    .with_tie_break(tie_break);
                let heuristic: Box<dyn Heuristic> = if wrap_ml {
                    Box::new(MlHeuristic::new("ml", MlConfig::default().with_refine(fm)))
                } else {
                    Box::new(FlatFmHeuristic::new("flat", fm))
                };
                let set = run_trials_with(
                    heuristic.as_ref(),
                    &h,
                    &constraint,
                    trials,
                    &mut RunCtx::new(1),
                );
                table.add_row([update_name, bias_name, &set.min_avg_cell()]);
            }
        }
        println!("{}", table.render());
    }
    println!(
        "Note how the flat rows spread far more than any published\n\
         algorithm-innovation delta — the paper's central warning."
    );
}
