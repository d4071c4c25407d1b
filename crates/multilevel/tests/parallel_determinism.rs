//! Thread-count-invariance and degradation tests of the lane engine
//! ([`MlConfig::threads`] `>= 1`).
//!
//! The determinism contract under test: a lane run is a pure function of
//! `(graph, config, seed)` — the JSONL trace is *bitwise identical* for
//! every lane count and every physical thread count. The suite drives the
//! same golden instance at 1, 2, 4, and 8 lanes and compares the raw
//! trace bytes; the CI matrix re-runs the whole suite under
//! `RAYON_NUM_THREADS=1,2,8` to cover the physical axis.
//!
//! Beyond the headline trace equality, the suite exercises the
//! injected-fault degradation paths (`StartAborted` / `ShardAborted`),
//! runs the paranoid auditor over lane runs, and checks that budgets and
//! cross-thread cancellation stop a wide run promptly with a legal,
//! audited best-so-far. The hierarchy comes from the serial coarsener,
//! whose twin test against the reference coarsener is `coarsen_twin.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::{Duration, Instant};

use hypart_benchgen::ispd98_like;
use hypart_core::{
    AuditLevel, BalanceConstraint, Bisection, CancelToken, FaultPlan, Outcome, PartitionAuditor,
    RunCtx,
};
use hypart_hypergraph::{Hypergraph, PartId};
use hypart_ml::{MlConfig, MlPartitioner};
use hypart_trace::{JsonlSink, MemorySink, RunEvent, StopReason};

/// The golden ML instance: large enough to engage the round refiner
/// (>= 256 vertices) at the top levels, small enough to keep the suite
/// fast on one core.
fn golden() -> Hypergraph {
    ispd98_like(1, 0.08, 0xD1CE)
}

fn constraint(h: &Hypergraph) -> BalanceConstraint {
    BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10)
}

/// Runs one deterministic parallel start at `threads` lanes and returns
/// the raw JSONL trace bytes plus the outcome.
fn traced_run(h: &Hypergraph, threads: usize, seed: u64) -> (Vec<u8>, Outcome) {
    let sink = JsonlSink::new(Vec::new());
    let mut ctx = RunCtx::new(seed).with_sink(&sink);
    let ml = MlPartitioner::new(MlConfig::default().with_threads(threads));
    let out = ml.run_with(h, &constraint(h), &mut ctx);
    (sink.finish().expect("in-memory sink"), out)
}

#[test]
fn deterministic_traces_bitwise_identical_across_lane_counts() {
    let h = golden();
    let (reference_bytes, reference_out) = traced_run(&h, 1, 42);
    assert!(
        !reference_bytes.is_empty(),
        "the traced run must emit events"
    );
    for threads in [2usize, 4, 8] {
        let (bytes, out) = traced_run(&h, threads, 42);
        assert_eq!(
            bytes, reference_bytes,
            "JSONL trace at {threads} lanes differs from the 1-lane trace"
        );
        assert_eq!(out.assignment, reference_out.assignment, "{threads} lanes");
        assert_eq!(out.cut, reference_out.cut, "{threads} lanes");
    }
}

#[test]
fn deterministic_vcycle_traces_bitwise_identical_across_lane_counts() {
    let h = golden();
    let c = constraint(&h);
    // A fixed legal starting assignment: alternating sides.
    let start: Vec<PartId> = (0..h.num_vertices())
        .map(|i| if i % 2 == 0 { PartId::P0 } else { PartId::P1 })
        .collect();
    let vcycle = |threads: usize| {
        let sink = JsonlSink::new(Vec::new());
        let mut ctx = RunCtx::new(7).with_sink(&sink);
        let ml = MlPartitioner::new(MlConfig::default().with_threads(threads));
        let out = ml.vcycle_with(&h, &c, &start, &mut ctx);
        (sink.finish().expect("in-memory sink"), out)
    };
    let (reference_bytes, reference_out) = vcycle(1);
    for threads in [2usize, 8] {
        let (bytes, out) = vcycle(threads);
        assert_eq!(bytes, reference_bytes, "{threads} lanes");
        assert_eq!(out.assignment, reference_out.assignment, "{threads} lanes");
    }
}

#[test]
fn parallel_engine_improves_or_matches_nothing_burned() {
    // Sanity: the parallel engine produces a legal, balanced solution of
    // the same quality class as the serial engine on the golden instance.
    let h = golden();
    let c = constraint(&h);
    let serial = MlPartitioner::new(MlConfig::default()).run(&h, &c, 42);
    let (_, parallel) = traced_run(&h, 4, 42);
    assert!(parallel.balanced, "parallel result must be balanced");
    let bisection = Bisection::new(&h, parallel.assignment.clone()).unwrap();
    assert_eq!(bisection.cut(), parallel.cut, "claimed cut must verify");
    // Both engines refine greedily from the same portfolio class; the
    // parallel cut should be in the same ballpark, never catastrophic.
    assert!(
        parallel.cut <= serial.cut.max(1) * 3,
        "parallel cut {} vs serial {}",
        parallel.cut,
        serial.cut
    );
}

// ---------------------------------------------------------------------
// Fault injection: per-try and per-shard panics must degrade to
// best-of-survivors, announced in the trace, never a poisoned lock or
// a hang.
// ---------------------------------------------------------------------

#[test]
fn injected_try_panic_degrades_to_best_of_survivors() {
    let h = golden();
    let c = constraint(&h);
    let sink = MemorySink::new();
    let mut ctx = RunCtx::new(3)
        .with_audit(AuditLevel::Paranoid)
        .with_fault_plan(FaultPlan::panic_in_start(1))
        .with_sink(&sink);
    let out = MlPartitioner::new(MlConfig::default().with_threads(4)).run_with(&h, &c, &mut ctx);
    assert!(out.audit_failure.is_none(), "{:?}", out.audit_failure);
    assert!(out.balanced);
    let aborted: Vec<_> = sink
        .take()
        .into_iter()
        .filter(|e| matches!(e, RunEvent::StartAborted { index: 1, .. }))
        .collect();
    assert_eq!(aborted.len(), 1, "portfolio try 1 must be announced dead");
}

#[test]
fn injected_shard_panic_degrades_and_stays_audit_clean() {
    let h = golden();
    let c = constraint(&h);
    let sink = MemorySink::new();
    let mut ctx = RunCtx::new(3)
        .with_audit(AuditLevel::Paranoid)
        .with_fault_plan(FaultPlan::panic_in_shard(0, 1))
        .with_sink(&sink);
    let out = MlPartitioner::new(MlConfig::default().with_threads(4)).run_with(&h, &c, &mut ctx);
    assert!(out.audit_failure.is_none(), "{:?}", out.audit_failure);
    assert!(out.balanced);
    // The shard fault trips in round 0 of every parallel refinement
    // level; at least one must announce it.
    assert!(
        sink.take()
            .iter()
            .any(|e| matches!(e, RunEvent::ShardAborted { round: 0, shard: 1 })),
        "shard abort must be announced in the trace"
    );
    // The degraded solution still verifies from scratch.
    let bisection = Bisection::new(&h, out.assignment).unwrap();
    PartitionAuditor::audit_bisection(&bisection, None).unwrap();
}

#[test]
fn injected_faults_do_not_break_determinism() {
    // A fault plan is part of the run's pure-function inputs: the same
    // plan yields the same degraded trace at every lane count that has
    // the targeted shard.
    let h = golden();
    let c = constraint(&h);
    let run = |threads: usize| {
        let sink = JsonlSink::new(Vec::new());
        let mut ctx = RunCtx::new(11)
            .with_fault_plan(FaultPlan::panic_in_shard(0, 0))
            .with_sink(&sink);
        let out = MlPartitioner::new(MlConfig::default().with_threads(threads))
            .run_with(&h, &c, &mut ctx);
        (sink.finish().expect("in-memory sink"), out.assignment)
    };
    // Shard 0 exists at every lane count, so the degradation itself is
    // lane-count-invariant only when the shard *split* is too — which it
    // is not in general (shard 0 covers different vertices). Compare
    // equal lane counts instead: the degraded run is reproducible.
    let (a_bytes, a) = run(4);
    let (b_bytes, b) = run(4);
    assert_eq!(a_bytes, b_bytes);
    assert_eq!(a, b);
}

// ---------------------------------------------------------------------
// Budgets and cross-thread cancellation.
// ---------------------------------------------------------------------

/// A heavier instance, so that a run lasts long enough to be stopped
/// mid-run: 20–30 ms in a release build and 89–125 ms in a debug build
/// at 8 lanes on a 2-core Xeon.
fn heavy_instance() -> Hypergraph {
    ispd98_like(2, 0.35, 0xB16)
}

/// Wall-clock assertions on a one-core CI host are contended by the
/// sibling tests of this binary (under `--test-threads` > 1 everything
/// runs at once): the correctness properties must hold on *every*
/// attempt, but the timing bound only has to hold once in a few
/// attempts (a genuine overrun or hang fails all of them). The two
/// timing tests serialize against each other via [`TIMING_LOCK`] and
/// back off between attempts so sibling tests drain first.
const TIMING_ATTEMPTS: usize = 6;

/// Backoff between failed timing attempts.
const TIMING_BACKOFF: Duration = Duration::from_millis(400);

static TIMING_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn budget_stops_a_wide_deterministic_run_promptly() {
    let _serial = TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let h = heavy_instance();
    let c = constraint(&h);
    let ml = MlPartitioner::new(MlConfig::default().with_threads(8));
    let run = |ctx: RunCtx<'static>| {
        let t0 = Instant::now();
        let out = ml.run_with(&h, &c, &mut ctx.with_audit(AuditLevel::Checkpoints));
        (out, t0.elapsed())
    };
    let mut within_bound = false;
    let mut last = Duration::ZERO;
    let mut budget = Duration::ZERO;
    for attempt in 0..TIMING_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(TIMING_BACKOFF);
        }
        // Half of an unbudgeted run of the same call, the faster of two,
        // on this build and host: a fixed 50 ms expires mid-run in a debug
        // build but outlasts the whole run in a release build. Taking the
        // faster run keeps one slow measurement from stretching the
        // budget past the whole run.
        let mut whole = Duration::MAX;
        for _ in 0..2 {
            let (full, elapsed) = run(RunCtx::new(5));
            assert_eq!(full.stopped, StopReason::Completed);
            whole = whole.min(elapsed);
        }
        budget = whole / 2;
        let (out, elapsed) = run(RunCtx::new(5).with_budget(budget));
        last = elapsed;
        assert_eq!(out.stopped, StopReason::Deadline);
        // Best-so-far is still a legal full-size partition that verifies.
        assert_eq!(out.assignment.len(), h.num_vertices());
        let bisection = Bisection::new(&h, out.assignment).unwrap();
        assert_eq!(bisection.cut(), out.cut);
        PartitionAuditor::audit_bisection(&bisection, None).unwrap();
        assert!(out.audit_failure.is_none(), "{:?}", out.audit_failure);
        // After the hierarchy build, which polls no budget in any engine,
        // the probe is polled at level/round boundaries and every
        // move-check interval, so the overrun is bounded; 2x budget is
        // the contract mirrored from the RunCtx budget tests.
        if last <= budget * 2 {
            within_bound = true;
            break;
        }
    }
    assert!(
        within_bound,
        "run overran its budget on every attempt: last {last:?} vs {budget:?}"
    );
}

#[test]
fn cross_thread_cancel_stops_a_wide_deterministic_run() {
    let _serial = TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let h = heavy_instance();
    let c = constraint(&h);
    let mut within_bound = false;
    let mut last = Duration::ZERO;
    for attempt in 0..TIMING_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(TIMING_BACKOFF);
        }
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                token.cancel();
            })
        };
        let t0 = Instant::now();
        let mut ctx = RunCtx::new(5)
            .with_audit(AuditLevel::Checkpoints)
            .with_cancel_token(token);
        let out =
            MlPartitioner::new(MlConfig::default().with_threads(8)).run_with(&h, &c, &mut ctx);
        last = t0.elapsed();
        canceller.join().unwrap();
        assert_eq!(out.stopped, StopReason::Cancelled);
        assert_eq!(out.assignment.len(), h.num_vertices());
        let bisection = Bisection::new(&h, out.assignment).unwrap();
        PartitionAuditor::audit_bisection(&bisection, None).unwrap();
        assert!(out.audit_failure.is_none(), "{:?}", out.audit_failure);
        if last <= Duration::from_millis(100) {
            within_bound = true;
            break;
        }
    }
    assert!(
        within_bound,
        "cancel never stopped the run promptly, last took {last:?}"
    );
}

// ---------------------------------------------------------------------
// Lane runs must stay legal and audit-clean under the paranoid auditor.
// ---------------------------------------------------------------------

#[test]
fn lane_runs_are_audit_clean_under_paranoid() {
    let h = golden();
    let c = constraint(&h);
    for threads in [2usize, 8] {
        let mut ctx = RunCtx::new(9).with_audit(AuditLevel::Paranoid);
        let out = MlPartitioner::new(MlConfig::default().with_threads(threads))
            .run_with(&h, &c, &mut ctx);
        assert!(
            out.audit_failure.is_none(),
            "threads={threads}: {:?}",
            out.audit_failure
        );
        assert!(out.balanced, "threads={threads}");
        let bisection = Bisection::new(&h, out.assignment).unwrap();
        assert_eq!(bisection.cut(), out.cut, "threads={threads}");
        PartitionAuditor::audit_bisection(&bisection, None).unwrap();
    }
}
