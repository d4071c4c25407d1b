//! Regenerates the paper's Table 3: our CLIP FM (anti-corking exclusion)
//! vs a weak "Reported" CLIP FM at 2% and 10% tolerance.
//!
//! Usage: `cargo run --release -p hypart-bench --bin table3 -- [--scale S] [--trials N] [--seed K]`

use hypart_bench::{parse_or_exit, table3, write_result, ExperimentConfig};

fn main() {
    let cfg = parse_or_exit(
        "table3 [--scale S] [--trials N] [--seed K]",
        ExperimentConfig::from_args,
    );
    let table = table3(&cfg);
    println!("{}", table.render());
    match write_result("table3.csv", &table.to_csv()) {
        Ok(path) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
