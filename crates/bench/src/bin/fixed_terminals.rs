//! The fixed-terminals experiment of §2.1: how pinning terminals changes
//! the cut distribution of the same instance.
//!
//! Usage: `cargo run --release -p hypart-bench --bin fixed_terminals -- [--scale S] [--trials N] [--seed K]`

use hypart_bench::{fixed_terminals_experiment, parse_or_exit, write_result, ExperimentConfig};

fn main() {
    let cfg = parse_or_exit(
        "fixed_terminals [--scale S] [--trials N] [--seed K]",
        ExperimentConfig::from_args,
    );
    let table = fixed_terminals_experiment(&cfg);
    println!("{}", table.render());
    match write_result("fixed_terminals.csv", &table.to_csv()) {
        Ok(path) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
