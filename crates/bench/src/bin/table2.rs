//! Regenerates the paper's Table 2: our LIFO FM vs a weak "Reported" LIFO
//! FM at 2% and 10% tolerance.
//!
//! Usage: `cargo run --release -p hypart-bench --bin table2 -- [--scale S] [--trials N] [--seed K]`

use hypart_bench::{parse_or_exit, table2, write_result, ExperimentConfig};

fn main() {
    let cfg = parse_or_exit(
        "table2 [--scale S] [--trials N] [--seed K]",
        ExperimentConfig::from_args,
    );
    let table = table2(&cfg);
    println!("{}", table.render());
    match write_result("table2.csv", &table.to_csv()) {
        Ok(path) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
