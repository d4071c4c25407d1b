//! Regenerates the non-dominated-frontier methodology figure of §3.2:
//! (average cut, average seconds) across engine configurations.
//!
//! Usage: `cargo run --release -p hypart-bench --bin pareto_frontier -- [--scale S] [--trials N] [--seed K]`

use hypart_bench::{pareto_experiment, parse_or_exit, write_result, ExperimentConfig};

fn main() {
    let cfg = parse_or_exit(
        "pareto_frontier [--scale S] [--trials N] [--seed K]",
        ExperimentConfig::from_args,
    );
    let report = pareto_experiment(&cfg);
    println!("{report}");
    match write_result("pareto_frontier.txt", &report) {
        Ok(path) => println!("(written to {})", path.display()),
        Err(e) => eprintln!("could not write: {e}"),
    }
}
