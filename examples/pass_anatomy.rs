//! Anatomy of an FM pass: the cut trajectory move by move.
//!
//! A pass tentatively moves eligible vertices one at a time, tracking the
//! best prefix; the characteristic trajectory descends into a valley,
//! bottoms out, then climbs as bad moves remain. Nets with moved (or
//! fixed) pins on both sides stay cut for the rest of the pass, so once
//! they outweigh the valley floor no later prefix can beat it: the pass
//! stops there (after at least 5 % of its eligible vertices have moved)
//! and the engine rolls back to the valley floor. Watching this
//! trajectory is how the paper's authors *found* the corking effect
//! ("traces of CLIP executions show that corking actually occurs fairly
//! often"), so the engine reports every tentative move as a `Move` event
//! whose `cut` column is the trajectory.
//!
//! Run: `cargo run --release --example pass_anatomy`

use hypart::benchgen::ispd98_like;
use hypart::prelude::*;

fn main() {
    let h = ispd98_like(1, 0.04, 13);
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);

    let engine = FmPartitioner::new(FmConfig::lifo());
    let sink = MemorySink::new();
    let out = engine.run_with(&h, &constraint, &mut RunCtx::new(7).with_sink(&sink));
    let events = sink.take();

    let Some(&RunEvent::RunEnd { passes, .. }) = events.last() else {
        unreachable!("a run closes with RunEnd");
    };
    let Some(&RunEvent::RunBegin { cut: initial }) = events.first() else {
        unreachable!("a run opens with RunBegin");
    };
    println!(
        "instance {}: {} cells; run converged in {} passes, cut {} -> {}\n",
        h.name(),
        h.num_vertices(),
        passes,
        initial,
        out.cut
    );

    // Each pass is a `PassBegin`, its `Move` events (the trajectory) and
    // rollbacks, and a `PassEnd`.
    let (mut eligible_at_start, mut cut_before) = (0, 0);
    let mut trajectory: Vec<u64> = Vec::new();
    for event in events {
        match event {
            RunEvent::PassBegin { cut, eligible, .. } => {
                (eligible_at_start, cut_before) = (eligible, cut);
                trajectory.clear();
            }
            RunEvent::Move { cut, .. } => trajectory.push(cut),
            RunEvent::PassEnd {
                pass,
                cut,
                moves_made,
                moves_rolled_back,
                corked,
                ..
            } => {
                println!(
                    "pass {}: {} of {} eligible moves made, {} rolled back, cut {} -> {}{}",
                    pass + 1,
                    moves_made,
                    eligible_at_start,
                    moves_rolled_back,
                    cut_before,
                    cut,
                    if corked { "  [CORKED]" } else { "" }
                );
                if !trajectory.is_empty() {
                    println!("{}", ascii_trajectory(&trajectory, 72, 9));
                }
            }
            _ => {}
        }
    }
    println!(
        "Each plot is the cut after every tentative move; a pass stops once no\n\
         later prefix can beat the valley floor, then undoes the climb."
    );
}

/// Renders a cut trajectory as a small ASCII plot.
fn ascii_trajectory(trace: &[u64], width: usize, height: usize) -> String {
    let (lo, hi) = trace
        .iter()
        .fold((u64::MAX, 0u64), |(lo, hi), &c| (lo.min(c), hi.max(c)));
    let span = (hi - lo).max(1) as f64;
    let mut grid = vec![vec![b' '; width]; height];
    for (i, &cut) in trace.iter().enumerate() {
        let x = if trace.len() == 1 {
            0
        } else {
            i * (width - 1) / (trace.len() - 1)
        };
        let yf = (cut - lo) as f64 / span;
        let y = ((1.0 - yf) * (height - 1) as f64).round() as usize;
        grid[y.min(height - 1)][x] = b'*';
    }
    let mut out = String::new();
    for row in grid {
        out.push_str("  ");
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!(
        "  cut range [{lo}, {hi}], {} moves\n",
        trace.len()
    ));
    out
}
