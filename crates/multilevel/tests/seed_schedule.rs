//! Pins the *intentional* seed-schedule divergence between the serial
//! and parallel multilevel engines (documented on [`MlConfig::threads`]
//! and `parallel_initial`).
//!
//! The serial engine draws its coarsest-graph initial tries from one
//! `SmallRng` stream seeded with the start's seed; the parallel engine
//! gives try *t* the pure per-try seed `derive_seed(seed, t)` — the
//! property that makes its results invariant in the lane count.
//! Consequence: `threads: 1` is *not* the serial engine, and this suite
//! is the regression tripwire that makes any silent change to either
//! schedule visible:
//!
//! * `derive_seed` itself is pinned to golden values (any change to the
//!   mix constants re-seeds every parallel run ever traced);
//! * each engine is a pure function of `(graph, config, seed)` — same
//!   trace bytes run-to-run;
//! * the parallel schedule is lane-count-invariant (1 lane == 4 lanes);
//! * the two schedules genuinely differ on the golden instance.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hypart_benchgen::mcnc_like;
use hypart_core::{derive_seed, BalanceConstraint, Outcome, RunCtx};
use hypart_hypergraph::Hypergraph;
use hypart_ml::{MlConfig, MlPartitioner};
use hypart_trace::JsonlSink;

fn golden() -> Hypergraph {
    mcnc_like(220, 0x5EED)
}

fn traced_run(h: &Hypergraph, threads: usize, seed: u64) -> (Vec<u8>, Outcome) {
    let sink = JsonlSink::new(Vec::new());
    let mut ctx = RunCtx::new(seed).with_sink(&sink);
    let ml = MlPartitioner::new(MlConfig::default().with_threads(threads));
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let out = ml.run_with(h, &constraint, &mut ctx);
    (sink.finish().expect("in-memory sink"), out)
}

/// Golden values of the SplitMix64-based per-try seed derivation. These
/// are load-bearing: every parallel trace ever recorded embeds them.
#[test]
fn derive_seed_matches_golden_values() {
    assert_eq!(derive_seed(0, 0), GOLDEN[0]);
    assert_eq!(derive_seed(0, 1), GOLDEN[1]);
    assert_eq!(derive_seed(42, 0), GOLDEN[2]);
    assert_eq!(derive_seed(42, 1), GOLDEN[3]);
    assert_eq!(derive_seed(42, 7), GOLDEN[4]);
    assert_eq!(derive_seed(u64::MAX, 3), GOLDEN[5]);
}

/// Filled from the implementation once, then frozen. If this test fails
/// the wire-compatible seed schedule changed — that is a breaking change
/// to every recorded parallel trace, not a test to update casually.
const GOLDEN: [u64; 6] = [
    16294208416658607535,
    7960286522194355700,
    13679457532755275413,
    2949826092126892291,
    14680896716286437513,
    8325766680316962815,
];

/// Both engines are individually deterministic: identical trace bytes
/// and outcomes on a repeat run.
#[test]
fn each_engine_is_run_to_run_deterministic() {
    let h = golden();
    for threads in [0usize, 1] {
        let (a_bytes, a) = traced_run(&h, threads, 42);
        let (b_bytes, b) = traced_run(&h, threads, 42);
        assert_eq!(a_bytes, b_bytes, "threads={threads}");
        assert_eq!(a.assignment, b.assignment, "threads={threads}");
        assert_eq!(a.cut, b.cut, "threads={threads}");
    }
}

/// The parallel schedule is a function of the logical try index only,
/// so one lane and four lanes trace identically.
#[test]
fn parallel_schedule_is_lane_count_invariant() {
    let h = golden();
    let (one_lane, out_one) = traced_run(&h, 1, 42);
    let (four_lanes, out_four) = traced_run(&h, 4, 42);
    assert_eq!(one_lane, four_lanes);
    assert_eq!(out_one.cut, out_four.cut);
}

/// The documented divergence: `threads: 1` (parallel schedule, one
/// lane) is not `threads: 0` (serial shared-stream schedule). The
/// traces differ on the golden instance because the initial-partition
/// tries consume different seeds.
#[test]
fn serial_and_parallel_seed_schedules_diverge() {
    let h = golden();
    let (serial_bytes, serial) = traced_run(&h, 0, 42);
    let (parallel_bytes, parallel) = traced_run(&h, 1, 42);
    assert_ne!(
        serial_bytes, parallel_bytes,
        "serial and 1-lane parallel runs should consume different seed schedules; \
         if they converged, the engines were unified and MlConfig::threads docs \
         plus this suite must be updated together"
    );
    // Both remain legal full-size partitions regardless.
    assert_eq!(serial.assignment.len(), h.num_vertices());
    assert_eq!(parallel.assignment.len(), h.num_vertices());
}
