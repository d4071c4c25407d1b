//! The n-level backend as an engine: bitwise determinism of repeated
//! runs, legal best-so-far under deadlines and cross-thread
//! cancellation, and the headline quality claim — at an equal wall-clock
//! budget, n-level matches or beats the coarse-grained multilevel
//! backend's min-cut on an ISPD-98-profile instance.

use std::time::{Duration, Instant};

use hypart::benchgen::ispd98_like;
use hypart::prelude::*;

fn jsonl_of(f: impl FnOnce(&JsonlSink<Vec<u8>>)) -> String {
    let sink = JsonlSink::new(Vec::new());
    f(&sink);
    String::from_utf8(sink.finish().expect("in-memory write")).expect("utf-8")
}

fn nlevel_config() -> MlConfig {
    MlConfig::default().with_engine(EngineKind::NLevel)
}

/// Two identical n-level runs emit byte-identical JSONL streams; a
/// different seed emits a different stream (the trace actually depends
/// on the inputs it claims to be a pure function of).
#[test]
fn nlevel_runs_are_bitwise_deterministic() {
    let h = ispd98_like(1, 0.03, 19);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let ml = MlPartitioner::new(nlevel_config());

    let run = |seed: u64| {
        jsonl_of(|sink| {
            ml.run_with(&h, &c, &mut RunCtx::new(seed).with_sink(sink));
        })
    };
    let first = run(7);
    assert_eq!(
        first,
        run(7),
        "same-seed n-level streams must be bitwise equal"
    );
    assert_ne!(first, run(8), "the stream must depend on the seed");

    // The k-way composition is deterministic too.
    let kway = |seed: u64| {
        jsonl_of(|sink| {
            hypart::kway::recursive_bisection_with(
                &h,
                4,
                0.15,
                &nlevel_config(),
                &mut RunCtx::new(seed).with_sink(sink),
            );
        })
    };
    assert_eq!(
        kway(3),
        kway(3),
        "n-level k-way streams must be bitwise equal"
    );
}

/// A sub-second deadline on a budgeted n-level multi-start: prompt
/// return, `StopReason::Deadline`, and a legal full-size best-so-far
/// whose cut matches the best completed start in the trace. The budget
/// fits a handful of starts even under the unoptimized test profile.
#[test]
fn budgeted_nlevel_multi_start_hits_deadline() {
    let h = ispd98_like(1, 0.05, 11);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let ml = MlPartitioner::new(nlevel_config());

    let budget = Duration::from_millis(800);
    let sink = MemorySink::new();
    let mut ctx = RunCtx::new(3).with_budget(budget).with_sink(&sink);
    let t0 = Instant::now();
    let out = multi_start_with(&ml, &h, &c, &MultiStartPlan::until_budget(), &mut ctx)
        .expect("no start panics")
        .outcome;
    let elapsed = t0.elapsed();

    assert!(
        elapsed <= budget * 4,
        "budgeted n-level run overshot: {elapsed:?} for a {budget:?} budget"
    );
    assert_eq!(out.stopped, StopReason::Deadline);
    assert!(out.balanced, "best-so-far must satisfy the balance window");
    assert_eq!(out.assignment.len(), h.num_vertices());
    let bis = Bisection::new(&h, out.assignment.clone()).expect("legal partition");
    assert_eq!(bis.cut(), out.cut);

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
        "expected at least one completed n-level start within the budget"
    );
    assert_eq!(
        out.cut,
        *completed_cuts.iter().min().expect("non-empty"),
        "reported best must equal the best fully-completed start"
    );
}

/// Cancelling from another thread mid-run stops the sweep with
/// `StopReason::Cancelled` and a legal result — and a single n-level run
/// under an already-expired deadline still returns a legal (merely
/// unrefined) partition.
#[test]
fn cancellation_and_expired_deadlines_degrade_legally() {
    let h = ispd98_like(2, 0.06, 31);
    let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
    let ml = MlPartitioner::new(nlevel_config());

    let token = CancelToken::new();
    let mut ctx = RunCtx::new(1)
        .with_budget(Duration::from_secs(3600))
        .with_cancel_token(token.clone());
    let out = std::thread::scope(|scope| {
        let canceller = token.clone();
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            canceller.cancel();
        });
        multi_start_with(&ml, &h, &c, &MultiStartPlan::until_budget(), &mut ctx)
    })
    .expect("no start panics")
    .outcome;
    assert_eq!(out.stopped, StopReason::Cancelled);
    assert_eq!(out.assignment.len(), h.num_vertices());
    let bis = Bisection::new(&h, out.assignment.clone()).expect("legal partition");
    assert_eq!(bis.cut(), out.cut);

    // Zero budget: the mandatory first start runs construction-only and
    // must still produce a legal full-size partition.
    let mut ctx = RunCtx::new(5).with_budget(Duration::ZERO);
    let out = ml.run_with(&h, &c, &mut ctx);
    assert_eq!(out.assignment.len(), h.num_vertices());
    let bis = Bisection::new(&h, out.assignment.clone()).expect("legal partition");
    assert_eq!(bis.cut(), out.cut);
}

/// The quality bar of ISSUE 8: at an equal wall-clock budget, the
/// n-level backend's min-cut matches or beats coarse-grained ML on at
/// least one ISPD-98-profile instance. Both backends sweep seeds under
/// the same deadline; n-level's localized refinement at every one of the
/// ~n uncontraction steps is what pays here.
#[test]
fn nlevel_matches_or_beats_coarse_ml_at_equal_budget() {
    let budget = Duration::from_millis(400);
    let instances = [
        ispd98_like(1, 0.04, 5),
        ispd98_like(2, 0.03, 23),
        ispd98_like(1, 0.05, 41),
    ];
    let coarse = MlPartitioner::new(MlConfig::ml_lifo());
    let fine = MlPartitioner::new(nlevel_config());

    let mut wins = 0usize;
    let mut report = Vec::new();
    for (i, h) in instances.iter().enumerate() {
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let run = |p: &MlPartitioner| {
            let mut ctx = RunCtx::new(9).with_budget(budget);
            let out = multi_start_with(p, h, &c, &MultiStartPlan::until_budget(), &mut ctx)
                .expect("no start panics")
                .outcome;
            assert!(out.balanced, "instance {i}: unbalanced best-so-far");
            out.cut
        };
        let coarse_cut = run(&coarse);
        let fine_cut = run(&fine);
        report.push((i, coarse_cut, fine_cut));
        if fine_cut <= coarse_cut {
            wins += 1;
        }
    }
    assert!(
        wins >= 1,
        "n-level lost every equal-budget head-to-head: {report:?}"
    );
}
