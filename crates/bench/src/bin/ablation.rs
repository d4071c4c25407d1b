//! Ablation study over design choices beyond the paper's main grid:
//! insertion policy, CLIP lookahead, coarsening scheme.
//!
//! Usage: `cargo run --release -p hypart-bench --bin ablation -- [--scale S] [--trials N] [--seed K]`

use hypart_bench::{ablation_experiment, parse_or_exit, write_result, ExperimentConfig};

fn main() {
    let cfg = parse_or_exit(
        "ablation [--scale S] [--trials N] [--seed K]",
        ExperimentConfig::from_args,
    );
    let table = ablation_experiment(&cfg);
    println!("{}", table.render());
    match write_result("ablation.csv", &table.to_csv()) {
        Ok(path) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
