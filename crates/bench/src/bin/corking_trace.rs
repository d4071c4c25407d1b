//! Regenerates the §2.3 corking evidence: frequency of corked CLIP passes
//! with and without the overweight-cell exclusion, on actual-area vs
//! unit-area instances.
//!
//! Usage: `cargo run --release -p hypart-bench --bin corking_trace -- [--scale S] [--trials N] [--seed K]`

use hypart_bench::{corking_experiment, parse_or_exit, write_result, ExperimentConfig};

fn main() {
    let cfg = parse_or_exit(
        "corking_trace [--scale S] [--trials N] [--seed K]",
        ExperimentConfig::from_args,
    );
    let table = corking_experiment(&cfg);
    println!("{}", table.render());
    match write_result("corking_trace.csv", &table.to_csv()) {
        Ok(path) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
