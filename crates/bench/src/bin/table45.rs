//! Regenerates the paper's Tables 4 and 5: hMetis-1.5-style multi-start
//! quality/runtime sweep (configs = 1, 2, 4, 8, 16, 100 starts + V-cycle).
//!
//! Usage: `cargo run --release -p hypart-bench --bin table45 -- \
//!   [--tol 0.02|0.10] [--scale S] [--reps R] [--instances M] [--seed K]`

use hypart_bench::{parse_or_exit, table45, write_result, Flags};

fn main() {
    let usage = "table45 [--tol F] [--scale S] [--reps R] [--instances M] [--seed K]";
    let (cfg, tol, reps, max_instances) = parse_or_exit(usage, |args| {
        let flags = Flags::parse(
            args,
            &["--tol", "--scale", "--reps", "--instances", "--seed"],
        )?;
        Ok((
            flags.experiment()?,
            flags.get("--tol", 0.02f64)?,
            flags.get("--reps", 5usize)?,
            flags.get("--instances", 9usize)?,
        ))
    });
    let table = table45(&cfg, tol, max_instances, reps);
    println!("{}", table.render());
    let which = if tol <= 0.05 { "table4" } else { "table5" };
    match write_result(&format!("{which}.csv"), &table.to_csv()) {
        Ok(path) => println!("(csv written to {})", path.display()),
        Err(e) => eprintln!("could not write csv: {e}"),
    }
}
