//! Regenerates the paper's Table 1: implicit-decision grid over the four
//! engines on ibm01s-ibm03s, actual areas, 2% tolerance.
//!
//! Usage: `cargo run --release -p hypart-bench --bin table1 -- [--scale S] [--trials N] [--seed K]`

use hypart_bench::{parse_or_exit, table1, write_result, ExperimentConfig};

fn main() {
    let cfg = parse_or_exit(
        "table1 [--scale S] [--trials N] [--seed K]",
        ExperimentConfig::from_args,
    );
    let table = table1(&cfg);
    println!("{}", table.render());
    match write_result("table1.csv", &table.to_csv()) {
        Ok(path) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
