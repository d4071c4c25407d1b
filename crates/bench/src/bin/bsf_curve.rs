//! Regenerates the BSF-curve methodology figure of §3.2: expected best cut
//! versus CPU budget for the flat and multilevel engines.
//!
//! Usage: `cargo run --release -p hypart-bench --bin bsf_curve -- [--scale S] [--trials N] [--seed K]`

use hypart_bench::{bsf_experiment, parse_or_exit, write_result, ExperimentConfig};

fn main() {
    let cfg = parse_or_exit(
        "bsf_curve [--scale S] [--trials N] [--seed K]",
        ExperimentConfig::from_args,
    );
    let report = bsf_experiment(&cfg);
    println!("{report}");
    match write_result("bsf_curves.csv", &report) {
        Ok(path) => println!("(written to {})", path.display()),
        Err(e) => eprintln!("could not write: {e}"),
    }
}
