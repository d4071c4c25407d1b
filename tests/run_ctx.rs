//! Execution-context (`RunCtx`) behavior across the stack: the `run`
//! convenience entry points must reproduce the canonical `run_with`
//! results, deadlines must stop a budgeted multi-start promptly
//! with a legal best-so-far, and cancellation from another thread must
//! interrupt a fixed-count multi-start.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use hypart::benchgen::ispd98_like;
use hypart::prelude::*;

/// Serializes this binary's tests. `budgeted_multi_start_hits_deadline`
/// needs a start to finish inside its budget, which a debug build misses
/// while the two other tests load both cores.
static TIMING_LOCK: Mutex<()> = Mutex::new(());

fn jsonl_of(f: impl FnOnce(&JsonlSink<Vec<u8>>)) -> String {
    let sink = JsonlSink::new(Vec::new());
    f(&sink);
    String::from_utf8(sink.finish().expect("in-memory write")).expect("utf-8")
}

/// Each engine's one convenience wrapper, plain `run(h, c, seed)`, is a
/// thin delegation to the canonical `run_with`, so it must return the
/// same assignment and cut. A pre-seeded external workspace must leave
/// the canonical JSONL stream bitwise unchanged, and an unbudgeted
/// context must add no budget or start events to it.
#[test]
fn wrappers_reproduce_canonical_jsonl_streams() {
    let _serial = TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let h = ispd98_like(1, 0.02, 23);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);

    // Flat FM: run vs run_with.
    let fm = FmPartitioner::new(FmConfig::clip());
    let wrapped = fm.run(&h, &c, 7);
    let canonical = fm.run_with(&h, &c, &mut RunCtx::new(7));
    assert_eq!(wrapped.assignment, canonical.assignment, "flat FM drifted");
    assert_eq!(wrapped.cut, canonical.cut, "flat FM drifted");

    // Multilevel: run vs run_with, then the stream of a fresh context vs
    // one with an external workspace (arena reuse must not perturb it).
    let ml = MlPartitioner::new(MlConfig::ml_lifo());
    let wrapped = ml.run(&h, &c, 9);
    let canonical = ml.run_with(&h, &c, &mut RunCtx::new(9));
    assert_eq!(
        wrapped.assignment, canonical.assignment,
        "multilevel drifted"
    );
    assert_eq!(wrapped.cut, canonical.cut, "multilevel drifted");
    let ml_stream = jsonl_of(|sink| {
        ml.run_with(&h, &c, &mut RunCtx::new(9).with_sink(sink));
    });
    let via_workspace = jsonl_of(|sink| {
        let mut ctx = RunCtx::new(9)
            .with_workspace(hypart::core::FmWorkspace::new())
            .with_sink(sink);
        ml.run_with(&h, &c, &mut ctx);
    });
    assert_eq!(ml_stream, via_workspace, "multilevel stream drifted");

    // Recursive bisection: the seed wrapper vs the context entry point.
    let ml_config = MlConfig::ml_lifo();
    let wrapped = recursive_bisection(&h, 3, 0.15, &ml_config, 5);
    let canonical = recursive_bisection_with(&h, 3, 0.15, &ml_config, &mut RunCtx::new(5));
    assert_eq!(wrapped.assignment, canonical.assignment, "k-way drifted");
    assert_eq!(wrapped.cut, canonical.cut, "k-way drifted");
    let kway_stream = jsonl_of(|sink| {
        recursive_bisection_with(&h, 3, 0.15, &ml_config, &mut RunCtx::new(5).with_sink(sink));
    });

    // An unbudgeted context adds no events: no BudgetExhausted,
    // StartBegin, or StartEnd anywhere in the streams above.
    for stream in [&ml_stream, &kway_stream] {
        for kind in ["budget_exhausted", "start_begin", "start_end"] {
            assert!(
                !stream.contains(kind),
                "unbudgeted run leaked a `{kind}` event"
            );
        }
    }
}

/// A budget of 4x one measured start (at least 50 ms) on an
/// ISPD-98-profile instance: the budgeted multi-start must come back
/// within 2x the budget with
/// `StopReason::Deadline`, a legal balanced best-so-far, and a reported
/// cut equal to the best cut among the fully-completed starts in the
/// trace stream.
#[test]
fn budgeted_multi_start_hits_deadline() {
    let _serial = TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let h = ispd98_like(1, 0.05, 11);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let ml = MlPartitioner::new(MlConfig::ml_lifo());

    // Sized from this build on this host, so a slow build or a busy host
    // still fits a whole start.
    let t0 = Instant::now();
    ml.run_with(&h, &c, &mut RunCtx::new(3));
    let budget = (t0.elapsed() * 4).max(Duration::from_millis(50));
    let sink = MemorySink::new();
    let mut ctx = RunCtx::new(3).with_budget(budget).with_sink(&sink);
    let t0 = Instant::now();
    let out = multi_start_with(&ml, &h, &c, &MultiStartPlan::until_budget(), &mut ctx)
        .expect("no start panics")
        .outcome;
    let elapsed = t0.elapsed();

    assert!(
        elapsed <= budget * 2,
        "budgeted run overshot: {elapsed:?} for a {budget:?} budget"
    );
    assert_eq!(out.stopped, StopReason::Deadline);
    assert!(out.balanced, "best-so-far must satisfy the balance window");

    // The solution is a full-size legal bisection and the reported cut
    // is real.
    assert_eq!(out.assignment.len(), h.num_vertices());
    let bis = Bisection::new(&h, out.assignment.clone()).expect("legal partition");
    assert_eq!(bis.cut(), out.cut);

    // The reported best must be the best among fully-completed starts —
    // the determinism contract: truncated starts never displace it.
    let events = sink.take();
    let completed_cuts: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            RunEvent::StartEnd {
                cut,
                completed: true,
                ..
            } => Some(*cut),
            _ => None,
        })
        .collect();
    assert!(
        !completed_cuts.is_empty(),
        "expected at least one completed start within {budget:?}"
    );
    assert_eq!(
        out.cut,
        *completed_cuts.iter().min().expect("non-empty"),
        "reported best must equal the best fully-completed start"
    );
    assert!(
        events.iter().any(
            |e| matches!(e, RunEvent::BudgetExhausted { reason } if *reason == StopReason::Deadline)
        ),
        "the deadline stop must be announced in the trace"
    );
}

/// Flipping the shared cancellation token from another thread interrupts
/// a multi-start sweep: it returns promptly with `StopReason::Cancelled`,
/// skips the starts it had not launched and the V-cycle tail, and
/// reports a well-formed best-so-far.
#[test]
fn cancellation_interrupts_multi_start() {
    let _serial = TIMING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let h = ispd98_like(2, 0.06, 31);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let ml = MlPartitioner::new(MlConfig::ml_lifo());

    let token = CancelToken::new();
    let mut ctx = RunCtx::new(1).with_cancel_token(token.clone());
    let out = std::thread::scope(|scope| {
        let canceller = token.clone();
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            canceller.cancel();
        });
        // Far more starts than can finish in 30 ms on this instance.
        multi_start_with(&ml, &h, &c, &MultiStartPlan::count(64, 2), &mut ctx)
    })
    .expect("no start panics");

    assert_eq!(out.outcome.stopped, StopReason::Cancelled);
    assert!(
        out.trials.len() < 64,
        "the sweep must stop launching starts once cancelled, ran {}",
        out.trials.len()
    );
    assert_eq!(out.vcycles_applied, 0, "V-cycling is skipped when stopped");
    let out = out.outcome;
    assert_eq!(out.assignment.len(), h.num_vertices());
    let bis = Bisection::new(&h, out.assignment.clone()).expect("legal partition");
    assert_eq!(bis.cut(), out.cut);
}
