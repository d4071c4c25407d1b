//! The application-level payoff experiment: how much does partitioner
//! quality matter *in the driving application's own metric* (HPWL of a
//! top-down min-cut placement)? §2.1 argues heuristics must be evaluated
//! "in light of the driving application"; this harness does exactly that
//! by swapping engines inside the same placer.
//!
//! Usage: `cargo run --release -p hypart-bench --bin placement_quality -- [--scale S] [--trials N] [--seed K]`

use hypart_bench::{instance, parse_or_exit, write_result, ExperimentConfig};
use hypart_core::FmConfig;
use hypart_eval::stats::Summary;
use hypart_eval::table::Table;
use hypart_ml::MlConfig;
use hypart_place::{hpwl, PlacerConfig, Rect, TopDownPlacer};

fn main() {
    let cfg = parse_or_exit(
        "placement_quality [--scale S] [--trials N] [--seed K]",
        ExperimentConfig::from_args,
    );
    let h = instance(&cfg, 1);
    let die = Rect::new(0.0, 0.0, 2000.0, 2000.0);

    let mut table = Table::new([
        "engine in placer",
        "term-prop",
        "HPWL min",
        "HPWL mean",
        "std",
    ])
    .with_title(format!(
        "Placement quality vs partitioner strength on {} ({} cells, {} seeds)",
        h.name(),
        h.num_vertices(),
        cfg.trials
    ));

    let engines: [(&str, MlConfig); 3] = [
        ("ML + Our LIFO", MlConfig::ml_lifo()),
        ("ML + Our CLIP", MlConfig::ml_clip()),
        (
            "ML + Reported LIFO",
            MlConfig::default().with_refine(FmConfig::reported_lifo()),
        ),
    ];
    for (label, ml) in engines {
        for term_prop in [true, false] {
            let placer = TopDownPlacer::new(PlacerConfig {
                ml: ml.clone(),
                terminal_propagation: term_prop,
            });
            let samples: Vec<f64> = (0..cfg.trials as u64)
                .map(|seed| hpwl(&h, &placer.run(&h, die, cfg.seed.wrapping_add(seed))))
                .collect();
            let s = Summary::of(&samples).expect("trials exist");
            table.add_row([
                label.to_string(),
                term_prop.to_string(),
                format!("{:.0}", s.min),
                format!("{:.0}", s.mean),
                format!("{:.0}", s.std_dev),
            ]);
        }
    }
    println!("{}", table.render());
    match write_result("placement_quality.csv", &table.to_csv()) {
        Ok(path) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
