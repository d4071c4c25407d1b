//! Seeded multi-trial execution of partitioning heuristics.
//!
//! [`run_trials_with`] runs on [`hypart_core::sweep_with`], the one
//! seeded start loop it shares with the multilevel multi-start driver
//! and the CLI's flat `--starts`. The loop isolates panics at the trial
//! boundary: a trial that panics is counted in
//! [`TrialSet::failed_trials`], announced with a
//! [`RunEvent::StartAborted`] that closes its `TrialBegin`, and skipped —
//! the surviving trials are unaffected, so one crashing configuration
//! cannot take down a whole experiment sweep. What stays here is the
//! runner's own: the `TrialBegin`/`TrialEnd` brackets.

use hypart_core::{sweep_with, BalanceConstraint, FmConfig, FmPartitioner, Outcome, RunCtx};
use hypart_hypergraph::Hypergraph;
use hypart_ml::{multi_start_with, MlConfig, MlPartitioner, MultiStartPlan};
use hypart_trace::RunEvent;

/// One trial's outcome — the per-start record of the shared start loop,
/// re-exported here where the evaluation harness has always named it.
pub use hypart_core::Trial;

/// An algorithm under experimental evaluation.
///
/// Implementations must be deterministic functions of the context's seed
/// so that experiments are reproducible — one of the paper's core
/// demands.
pub trait Heuristic {
    /// Display name used in tables and diagrams.
    fn name(&self) -> &str;

    /// Solves one instance from `ctx.seed` under the context's sink,
    /// workspaces and budget. Engines that honour the budget stop
    /// cooperatively at the context's deadline or cancellation and
    /// record the fact in [`Outcome::stopped`]. The trial runner times
    /// the call and keeps its [`Trial`].
    fn solve_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Outcome;
}

/// Flat FM / CLIP heuristic (single start of [`FmPartitioner`]).
#[derive(Clone, Debug)]
pub struct FlatFmHeuristic {
    name: String,
    partitioner: FmPartitioner,
}

impl FlatFmHeuristic {
    /// Wraps a flat engine configuration under a display name.
    pub fn new(name: impl Into<String>, config: FmConfig) -> Self {
        FlatFmHeuristic {
            name: name.into(),
            partitioner: FmPartitioner::new(config),
        }
    }
}

impl Heuristic for FlatFmHeuristic {
    fn name(&self) -> &str {
        &self.name
    }

    fn solve_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Outcome {
        self.partitioner.run_with(h, constraint, ctx)
    }
}

/// Multilevel heuristic (single start of [`MlPartitioner`]).
#[derive(Clone, Debug)]
pub struct MlHeuristic {
    name: String,
    partitioner: MlPartitioner,
}

impl MlHeuristic {
    /// Wraps a multilevel configuration under a display name.
    pub fn new(name: impl Into<String>, config: MlConfig) -> Self {
        MlHeuristic {
            name: name.into(),
            partitioner: MlPartitioner::new(config),
        }
    }
}

impl Heuristic for MlHeuristic {
    fn name(&self) -> &str {
        &self.name
    }

    fn solve_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Outcome {
        self.partitioner.run_with(h, constraint, ctx)
    }
}

/// hMetis-1.5-style multi-start driver: `nruns` starts then V-cycling of
/// the best (the Tables 4–5 evaluation subject; one "trial" is a full
/// multi-start configuration run).
#[derive(Clone, Debug)]
pub struct MultiStartHeuristic {
    name: String,
    partitioner: MlPartitioner,
    nruns: usize,
    max_vcycles: usize,
}

impl MultiStartHeuristic {
    /// Wraps a multilevel configuration in an `nruns`-start driver.
    pub fn new(
        name: impl Into<String>,
        config: MlConfig,
        nruns: usize,
        max_vcycles: usize,
    ) -> Self {
        MultiStartHeuristic {
            name: name.into(),
            partitioner: MlPartitioner::new(config),
            nruns,
            max_vcycles,
        }
    }

    /// Number of independent starts per trial.
    pub fn nruns(&self) -> usize {
        self.nruns
    }
}

impl Heuristic for MultiStartHeuristic {
    fn name(&self) -> &str {
        &self.name
    }

    /// # Panics
    ///
    /// If every start of the sweep panicked, with the sweep's
    /// diagnostic, so the trial runner counts one failed trial.
    fn solve_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Outcome {
        let plan = MultiStartPlan::count(self.nruns, self.max_vcycles);
        match multi_start_with(&self.partitioner, h, constraint, &plan, ctx) {
            Ok(out) => out.outcome,
            Err(all) => panic!("{all}"),
        }
    }
}

/// A set of independent trials of one heuristic on one instance.
#[derive(Clone, Debug)]
pub struct TrialSet {
    /// Heuristic display name.
    pub heuristic: String,
    /// Instance name.
    pub instance: String,
    /// Per-trial records, in seed order. Panicked trials leave no record
    /// here; they are only counted in
    /// [`failed_trials`](Self::failed_trials).
    pub trials: Vec<Trial>,
    /// Number of trials that panicked and were isolated.
    pub failed_trials: usize,
}

impl TrialSet {
    /// Number of trials.
    pub fn len(&self) -> usize {
        self.trials.len()
    }

    /// `true` if no trials were recorded.
    pub fn is_empty(&self) -> bool {
        self.trials.is_empty()
    }

    /// Minimum cut across trials.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn min_cut(&self) -> u64 {
        self.trials.iter().map(|t| t.cut).min().expect("non-empty")
    }

    /// Average cut across trials.
    pub fn avg_cut(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().map(|t| t.cut as f64).sum::<f64>() / self.trials.len() as f64
    }

    /// Average trial duration in seconds.
    pub fn avg_seconds(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials
            .iter()
            .map(|t| t.elapsed.as_secs_f64())
            .sum::<f64>()
            / self.trials.len() as f64
    }

    /// Cut values as `f64`, for statistics.
    pub fn cuts(&self) -> Vec<f64> {
        self.trials.iter().map(|t| t.cut as f64).collect()
    }

    /// Fraction of trials whose final solution was balanced.
    pub fn balanced_fraction(&self) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| t.balanced).count() as f64 / self.trials.len() as f64
    }

    /// The traditional "min/avg" cell the partitioning literature reports,
    /// e.g. `"333/639"`.
    pub fn min_avg_cell(&self) -> String {
        format!("{}/{}", self.min_cut(), self.avg_cut().round() as u64)
    }
}

/// The trial runner: `num_trials` independent trials of `heuristic` with
/// seeds `ctx.seed..ctx.seed + num_trials`, in seed order, under the
/// context's sink, workspaces and budget. One set of workspaces serves
/// every trial. Each trial's engine events are bracketed by
/// [`RunEvent::TrialBegin`]/[`RunEvent::TrialEnd`].
///
/// On a deadline or cancellation the in-flight trial returns its
/// best-so-far (flagged in [`Trial::stopped`]) and the remaining trials
/// are skipped — the returned set then holds fewer than `num_trials`
/// records, and the stop is announced with a
/// [`RunEvent::BudgetExhausted`]. The first trial always runs. A trial
/// that panics leaves no record; its `TrialBegin` is closed by a
/// [`RunEvent::StartAborted`] instead of a `TrialEnd`.
pub fn run_trials_with(
    heuristic: &dyn Heuristic,
    h: &Hypergraph,
    constraint: &BalanceConstraint,
    num_trials: usize,
    ctx: &mut RunCtx<'_>,
) -> TrialSet {
    let sweep = sweep_with(
        ctx,
        num_trials as u64,
        |trial, ctx| {
            if ctx.sink.is_enabled() {
                ctx.sink.emit(RunEvent::TrialBegin {
                    trial,
                    seed: ctx.seed,
                    heuristic: heuristic.name().to_string(),
                    instance: h.name().to_string(),
                });
            }
        },
        |trial, ctx| {
            let seed = ctx.seed;
            let out = heuristic.solve_with(h, constraint, ctx);
            if ctx.sink.is_enabled() {
                ctx.sink.emit(RunEvent::TrialEnd {
                    trial,
                    seed,
                    cut: out.cut,
                    balanced: out.balanced,
                });
            }
            out
        },
    );
    TrialSet {
        heuristic: heuristic.name().to_string(),
        instance: h.name().to_string(),
        trials: sweep.trials,
        failed_trials: sweep.panicked.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypart_benchgen::toys::two_clusters;
    use hypart_core::{FaultPlan, FmConfig, StopReason};
    use hypart_trace::MemorySink;
    use std::time::Duration;

    fn setup() -> (Hypergraph, BalanceConstraint) {
        let h = two_clusters(8, 2);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        (h, c)
    }

    /// `num_trials` unbudgeted, untraced trials from `seed`.
    fn unbudgeted_trials(
        heuristic: &dyn Heuristic,
        h: &Hypergraph,
        c: &BalanceConstraint,
        num_trials: usize,
        seed: u64,
    ) -> TrialSet {
        run_trials_with(heuristic, h, c, num_trials, &mut RunCtx::new(seed))
    }

    #[test]
    fn flat_trials_find_optimum() {
        let (h, c) = setup();
        let heur = FlatFmHeuristic::new("LIFO", FmConfig::lifo());
        let set = unbudgeted_trials(&heur, &h, &c, 8, 0);
        assert_eq!(set.len(), 8);
        assert_eq!(set.min_cut(), 2);
        assert!(set.avg_cut() >= 2.0);
        assert_eq!(set.balanced_fraction(), 1.0);
        assert_eq!(set.heuristic, "LIFO");
    }

    #[test]
    fn trials_are_reproducible() {
        let (h, c) = setup();
        let heur = FlatFmHeuristic::new("CLIP", FmConfig::clip());
        let a = unbudgeted_trials(&heur, &h, &c, 5, 42);
        let b = unbudgeted_trials(&heur, &h, &c, 5, 42);
        let cuts_a: Vec<u64> = a.trials.iter().map(|t| t.cut).collect();
        let cuts_b: Vec<u64> = b.trials.iter().map(|t| t.cut).collect();
        assert_eq!(cuts_a, cuts_b);
    }

    #[test]
    fn ml_heuristic_runs() {
        let (h, c) = setup();
        let heur = MlHeuristic::new("ML LIFO", MlConfig::ml_lifo());
        let set = unbudgeted_trials(&heur, &h, &c, 3, 0);
        assert_eq!(set.min_cut(), 2);
    }

    #[test]
    fn multi_start_heuristic_runs() {
        let (h, c) = setup();
        let heur = MultiStartHeuristic::new("hMetis-like x4", MlConfig::ml_lifo(), 4, 1);
        assert_eq!(heur.nruns(), 4);
        let set = unbudgeted_trials(&heur, &h, &c, 2, 0);
        assert_eq!(set.min_cut(), 2);
    }

    #[test]
    fn traced_trials_bracket_each_trial() {
        let (h, c) = setup();
        let heur = MlHeuristic::new("ML", MlConfig::ml_lifo());
        let sink = MemorySink::new();
        let set = run_trials_with(&heur, &h, &c, 3, &mut RunCtx::new(10).with_sink(&sink));
        let events = sink.take();
        let begins: Vec<(u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::TrialBegin { trial, seed, .. } => Some((*trial, *seed)),
                _ => None,
            })
            .collect();
        assert_eq!(begins, vec![(0, 10), (1, 11), (2, 12)]);
        let ends: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                RunEvent::TrialEnd { cut, .. } => Some(*cut),
                _ => None,
            })
            .collect();
        let cuts: Vec<u64> = set.trials.iter().map(|t| t.cut).collect();
        assert_eq!(ends, cuts);
    }

    #[test]
    fn panicked_trial_is_isolated() {
        let (h, c) = setup();
        let heur = FlatFmHeuristic::new("LIFO", FmConfig::lifo());
        let clean = unbudgeted_trials(&heur, &h, &c, 6, 3);

        let sink = MemorySink::new();
        let mut ctx = RunCtx::new(3)
            .with_sink(&sink)
            .with_fault_plan(FaultPlan::panic_in_start(2));
        let set = run_trials_with(&heur, &h, &c, 6, &mut ctx);
        assert_eq!(set.failed_trials, 1);
        assert_eq!(set.len(), 5);
        // The trial is announced as aborted at its seed, and the
        // survivors are bitwise the fault-free trials minus #2.
        let aborted: Vec<RunEvent> = sink
            .take()
            .into_iter()
            .filter(|e| matches!(e, RunEvent::StartAborted { .. }))
            .collect();
        assert_eq!(aborted, vec![RunEvent::StartAborted { index: 2, seed: 5 }]);
        let expect: Vec<u64> = clean
            .trials
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, t)| t.cut)
            .collect();
        let cuts: Vec<u64> = set.trials.iter().map(|t| t.cut).collect();
        assert_eq!(cuts, expect);
    }

    /// A multi-start trial whose every start panicked re-raises, so the
    /// trial runner counts it as one failed trial.
    #[test]
    #[should_panic(expected = "every start panicked")]
    fn multi_start_trial_with_every_start_panicked_re_raises() {
        let (h, c) = setup();
        let heur = MultiStartHeuristic::new("hMetis-like x1", MlConfig::ml_lifo(), 1, 0);
        let mut ctx = RunCtx::new(0).with_fault_plan(FaultPlan::panic_in_start(0));
        heur.solve_with(&h, &c, &mut ctx);
    }

    /// The `TrialBegin` of a panicked trial opens before the panic
    /// boundary, so the trial's `StartAborted` closes it.
    #[test]
    fn panicked_trial_begin_is_closed_by_start_aborted() {
        let (h, c) = setup();
        let heur = FlatFmHeuristic::new("LIFO", FmConfig::lifo());
        let sink = MemorySink::new();
        let plan = FaultPlan::panic_in_start(1);
        let mut ctx = RunCtx::new(3).with_sink(&sink).with_fault_plan(plan);
        run_trials_with(&heur, &h, &c, 3, &mut ctx);
        let events = sink.take();
        let kinds: Vec<&str> = events
            .iter()
            .map(RunEvent::kind)
            .filter(|k| k.starts_with("trial_") || *k == "start_aborted")
            .collect();
        let (begin, end, aborted) = ("trial_begin", "trial_end", "start_aborted");
        assert_eq!(kinds, [begin, end, begin, aborted, begin, end]);
    }

    #[test]
    fn min_avg_cell_formats_like_the_paper() {
        let set = TrialSet {
            heuristic: "x".into(),
            instance: "y".into(),
            trials: vec![
                Trial {
                    seed: 0,
                    cut: 333,
                    balanced: true,
                    stopped: StopReason::Completed,
                    elapsed: Duration::ZERO,
                },
                Trial {
                    seed: 1,
                    cut: 945,
                    balanced: true,
                    stopped: StopReason::Completed,
                    elapsed: Duration::ZERO,
                },
            ],
            failed_trials: 0,
        };
        assert_eq!(set.min_avg_cell(), "333/639");
    }

    #[test]
    fn empty_set_behaves() {
        let set = TrialSet {
            heuristic: "x".into(),
            instance: "y".into(),
            trials: vec![],
            failed_trials: 0,
        };
        assert!(set.is_empty());
        assert_eq!(set.avg_cut(), 0.0);
        assert_eq!(set.avg_seconds(), 0.0);
        assert_eq!(set.balanced_fraction(), 0.0);
    }
}
