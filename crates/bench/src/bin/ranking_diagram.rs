//! Regenerates the Schreiber-Martin ranking-diagram methodology figure of
//! §3.2: dominance regions over (instance size, CPU budget).
//!
//! Usage: `cargo run --release -p hypart-bench --bin ranking_diagram -- [--scale S] [--trials N] [--seed K]`

use hypart_bench::{parse_or_exit, ranking_experiment, write_result, ExperimentConfig};

fn main() {
    let cfg = parse_or_exit(
        "ranking_diagram [--scale S] [--trials N] [--seed K]",
        ExperimentConfig::from_args,
    );
    let report = ranking_experiment(&cfg);
    println!("{report}");
    match write_result("ranking_diagram.txt", &report) {
        Ok(path) => println!("(written to {})", path.display()),
        Err(e) => eprintln!("could not write: {e}"),
    }
}
