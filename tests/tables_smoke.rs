//! Smoke tests of the table/figure regeneration harness at tiny scale,
//! asserting the *shape* properties the paper reports (who wins, and in
//! which direction the numbers move).

use hypart::core::RunCtx;
use hypart_bench::{
    corking_experiment, instance, table2, table3, table45, tol2, ExperimentConfig, TABLE45_STARTS,
};
use hypart_eval::runner::{run_trials_with, MultiStartHeuristic};
use hypart_ml::MlConfig;

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.03,
        trials: 6,
        seed: 77,
    }
}

/// Parses a "min/avg" cell into (min, avg).
fn parse_cell(cell: &str) -> (u64, u64) {
    let (min, avg) = cell.split_once('/').expect("min/avg cell");
    (min.parse().expect("min"), avg.parse().expect("avg"))
}

#[test]
fn table2_shape_our_lifo_beats_reported_on_average() {
    let t = table2(&cfg());
    let csv = t.to_csv();
    let mut reported_avg_total = 0u64;
    let mut ours_avg_total = 0u64;
    for line in csv.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        let avg_sum: u64 = cells[2..=4].iter().map(|c| parse_cell(c).1).sum();
        if cells[1].contains("Reported") {
            reported_avg_total += avg_sum;
        } else {
            ours_avg_total += avg_sum;
        }
    }
    assert!(
        ours_avg_total < reported_avg_total,
        "our LIFO (avg total {ours_avg_total}) should beat reported ({reported_avg_total})"
    );
}

#[test]
fn table3_shape_our_clip_beats_reported_on_average() {
    let t = table3(&cfg());
    let csv = t.to_csv();
    let mut reported = 0u64;
    let mut ours = 0u64;
    for line in csv.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        let avg_sum: u64 = cells[2..=4].iter().map(|c| parse_cell(c).1).sum();
        if cells[1].contains("Reported") {
            reported += avg_sum;
        } else {
            ours += avg_sum;
        }
    }
    assert!(
        ours < reported,
        "our CLIP (avg total {ours}) should beat reported ({reported})"
    );
}

#[test]
fn table45_shape_cut_improves_and_time_grows_with_starts() {
    // Direct check of the two monotone trends Tables 4-5 exhibit:
    // average best cut non-increasing, average CPU time increasing,
    // as the number of starts grows.
    let cfg = cfg();
    let h = instance(&cfg, 1);
    let c = tol2(&h);
    let mut prev_cut = f64::INFINITY;
    let mut first_secs = None;
    let mut last_secs = 0.0;
    for &starts in &TABLE45_STARTS[..4] {
        let heuristic =
            MultiStartHeuristic::new(format!("x{starts}"), MlConfig::default(), starts, 2);
        let set = run_trials_with(&heuristic, &h, &c, 3, &mut RunCtx::new(cfg.seed));
        assert!(
            set.avg_cut() <= prev_cut + 1.0,
            "avg cut must not grow materially with starts: {} after {prev_cut}",
            set.avg_cut()
        );
        prev_cut = set.avg_cut();
        first_secs.get_or_insert(set.avg_seconds());
        last_secs = set.avg_seconds();
    }
    assert!(
        last_secs > first_secs.expect("ran") * 2.0,
        "8 starts should cost much more than 1 start"
    );
}

#[test]
fn table45_structure() {
    let t = table45(&ExperimentConfig { trials: 2, ..cfg() }, 0.10, 3);
    assert_eq!(t.num_rows(), 3);
    let csv = t.to_csv();
    assert!(csv.lines().next().expect("header").split(',').count() == 7);
}

#[test]
fn corking_shape_exclusion_reduces_corked_passes_on_actual_areas() {
    let t = corking_experiment(&cfg());
    let csv = t.to_csv();
    // Rows come in (corkable, fixed) pairs per instance; compare the
    // actual-area pairs.
    let rows: Vec<Vec<String>> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect();
    let corked_of = |row: &[String]| -> u64 {
        row[3]
            .split('/')
            .next()
            .expect("pair")
            .parse()
            .expect("corked count")
    };
    let mut corkable_total = 0u64;
    let mut fixed_total = 0u64;
    for pair in rows.chunks(2) {
        if pair[0][1] == "actual" {
            corkable_total += corked_of(&pair[0]);
            fixed_total += corked_of(&pair[1]);
        }
    }
    assert!(
        fixed_total <= corkable_total,
        "exclusion should not increase corking: {fixed_total} vs {corkable_total}"
    );
}
