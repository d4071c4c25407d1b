//! Every table binary refuses a flag it does not take, a flag without its
//! value and a value that is not a number: it exits with status 2 and
//! the usage text before it runs or writes anything.

use std::process::Command;

const BINS: [(&str, &str); 11] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("bsf_curve", env!("CARGO_BIN_EXE_bsf_curve")),
    ("corking_trace", env!("CARGO_BIN_EXE_corking_trace")),
    ("fixed_terminals", env!("CARGO_BIN_EXE_fixed_terminals")),
    ("pareto_frontier", env!("CARGO_BIN_EXE_pareto_frontier")),
    ("placement_quality", env!("CARGO_BIN_EXE_placement_quality")),
    ("ranking_diagram", env!("CARGO_BIN_EXE_ranking_diagram")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("table2", env!("CARGO_BIN_EXE_table2")),
    ("table3", env!("CARGO_BIN_EXE_table3")),
    ("table45", env!("CARGO_BIN_EXE_table45")),
];

/// Runs `bin` with the words of `line` and asserts a usage error that
/// names `error`.
fn assert_refused(bin: &str, line: &str, error: &str) {
    let exe = BINS.iter().find(|(name, _)| *name == bin).unwrap().1;
    let out = Command::new(exe)
        .args(line.split_whitespace())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {line}: {stderr}");
    assert!(stderr.contains(error), "{bin} {line}: {stderr}");
    assert!(
        stderr.contains(&format!("usage: {bin} ")),
        "{bin}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{bin} {line}: ran anyway");
}

#[test]
fn unknown_flags_are_refused_by_every_table_binary() {
    for (bin, _) in BINS {
        // Valid tiny-run flags first: the typo alone must stop the run.
        let line = if bin == "table45" {
            "--scale 0.01 --reps 1 --instances 1 --trial 50"
        } else {
            "--scale 0.01 --trials 1 --trial 50"
        };
        assert_refused(bin, line, "unknown flag `--trial`");
    }
}

#[test]
fn valueless_and_non_numeric_flags_are_refused() {
    assert_refused("table45", "--tol", "--tol takes a value");
    assert_refused("table45", "--reps 2.5", "--reps takes a usize");
    let tiny = "--scale 0.01 --reps 1 --instances 1 --trials 5";
    assert_refused("table45", tiny, "unknown flag `--trials`");
    assert_refused("table1", "--scale x", "--scale takes a f64");
    assert_refused("table1", "--seed", "--seed takes a value");
}
