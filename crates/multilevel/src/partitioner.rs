//! The multilevel partitioner: coarsen → initial partition → uncoarsen +
//! refine, plus restricted-coarsening V-cycles.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::coarsen::{build_hierarchy, CoarsenConfig};
use hypart_core::{
    generate_initial, AuditError, BalanceConstraint, Bisection, EngineKind, FmConfig,
    FmPartitioner, Hierarchy, InitialSolution, Outcome, PartitionAuditor, RunCtx, StopReason,
};
use hypart_hypergraph::{Hypergraph, PartId};
use hypart_trace::{RunEvent, TraceSink};

/// Configuration of the multilevel partitioner.
///
/// Every field has a `with_*` builder. The ML rows of the paper's Table 1
/// come from composing this wrapper with a flat engine config:
///
/// | knob | role | Table 1 connection |
/// |------|------|--------------------|
/// | [`refine`](Self::refine) | flat engine at every level | selects the ML LIFO / ML CLIP row family |
/// | [`coarsen`](Self::coarsen) | clustering schedule | fixed across the grid (FirstChoice-style) |
/// | [`engine`](Self::engine) | multilevel backend | `MlCoarse` = Table 1 ML rows; `NLevel` adds an n-level row family |
///
/// The initial partition is the best of
/// [`INITIAL_TRIES`](Self::INITIAL_TRIES) seeded starts on the coarsest
/// graph, fixed across the grid.
#[derive(Clone, Debug, PartialEq)]
pub struct MlConfig {
    /// Flat engine used for refinement at every level — ML LIFO vs ML CLIP
    /// in the paper's Table 1 is exactly this knob.
    pub refine: FmConfig,
    /// Coarsening parameters.
    pub coarsen: CoarsenConfig,
    /// Number of parallel lanes of the shared-memory engine. `0` (the
    /// default) selects the serial legacy engine; `>= 1` selects the
    /// parallel engine with that many logical lanes (the physical worker
    /// count comes from the rayon pool). In deterministic mode results
    /// are identical for every lane count, so this is purely a
    /// decomposition knob there. The parallel engine seeds initial try
    /// *t* with `derive_seed(seed, t)`, so even one lane does not return
    /// the serial engine's partition.
    pub threads: usize,
    /// Whether the parallel engine must be bitwise deterministic: a pure
    /// function of `(graph, config, seed)`, independent of the lane count
    /// and the physical thread count (the default). When `false`,
    /// speculation windows scale with the lane count and results may vary
    /// with it — but stay race-free, legal, and audit-clean. Ignored by
    /// the serial engine (`threads == 0`), which is always deterministic.
    pub deterministic: bool,
    /// Which multilevel backend runs: the coarse-grained level-by-level
    /// hierarchy (the default) or the n-level single-pair contraction
    /// engine. The n-level backend is serial-only and ignores
    /// [`threads`](Self::threads); it is always deterministic.
    pub engine: EngineKind,
}

impl Default for MlConfig {
    fn default() -> Self {
        MlConfig {
            refine: FmConfig::lifo(),
            coarsen: CoarsenConfig::default(),
            threads: 0,
            deterministic: true,
            engine: EngineKind::MlCoarse,
        }
    }
}

impl MlConfig {
    /// Seeded initial partitions tried on the coarsest graph (best kept).
    pub const INITIAL_TRIES: usize = 10;

    /// ML LIFO: multilevel with the classic LIFO FM refinement engine.
    pub fn ml_lifo() -> Self {
        MlConfig::default()
    }

    /// ML CLIP: multilevel with the CLIP refinement engine.
    pub fn ml_clip() -> Self {
        MlConfig {
            refine: FmConfig::clip(),
            ..MlConfig::default()
        }
    }

    /// Replaces the refinement engine configuration (builder-style).
    pub fn with_refine(mut self, refine: FmConfig) -> Self {
        self.refine = refine;
        self
    }

    /// Replaces the coarsening parameters (builder-style).
    pub fn with_coarsen(mut self, coarsen: CoarsenConfig) -> Self {
        self.coarsen = coarsen;
        self
    }

    /// Sets the lane count of the parallel engine (builder-style); `0`
    /// keeps the serial legacy engine.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the determinism contract of the parallel engine
    /// (builder-style).
    pub fn with_deterministic(mut self, deterministic: bool) -> Self {
        self.deterministic = deterministic;
        self
    }

    /// Selects the multilevel backend (builder-style).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }
}

/// A multilevel 2-way partitioner (hMetis-style V-cycle refinement is
/// available via [`vcycle_with`](MlPartitioner::vcycle_with)).
#[derive(Clone, Debug)]
pub struct MlPartitioner {
    config: MlConfig,
}

impl MlPartitioner {
    /// Creates a multilevel partitioner with the given configuration.
    pub fn new(config: MlConfig) -> Self {
        MlPartitioner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MlConfig {
        &self.config
    }

    /// The canonical run entry point: one multilevel start on `h` under
    /// the context's sink, workspace, seed, and budget. On a budget stop
    /// the remaining refinement stages are skipped but the solution is
    /// still projected through every level, so the returned assignment is
    /// always full-size and legal.
    ///
    /// The serial engine runs exactly
    /// [`coarsen_hierarchy_with`](MlPartitioner::coarsen_hierarchy_with)
    /// followed by
    /// [`run_from_hierarchy_with`](MlPartitioner::run_from_hierarchy_with),
    /// so a start returns the same partition and trace whether it builds
    /// its hierarchy here or takes it from the service's cache.
    pub fn run_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Outcome {
        if self.config.engine == EngineKind::NLevel {
            return crate::nlevel::run_nlevel(self, h, constraint, ctx);
        }
        if self.config.threads > 0 {
            return self.run_parallel_with(h, constraint, ctx);
        }
        let hierarchy = self.coarsen_hierarchy_with(h, ctx);
        self.run_from_hierarchy_with(h, &hierarchy, constraint, ctx)
    }

    /// Runs one multilevel start on `h` from `seed`.
    ///
    /// Equivalent to [`run_with`](MlPartitioner::run_with) with a default
    /// [`RunCtx`] (no sink, no deadline).
    pub fn run(&self, h: &Hypergraph, constraint: &BalanceConstraint, seed: u64) -> Outcome {
        self.run_with(h, constraint, &mut RunCtx::new(seed))
    }

    /// Builds and freezes the unrestricted coarsening hierarchy for `h`,
    /// without partitioning — the build half of every serial 2-way start,
    /// and the half the partitioning service's hierarchy cache skips.
    ///
    /// The hierarchy is a pure function of
    /// `(h, self.config().coarsen, ctx.seed)`: the clustering RNG is a
    /// fresh `SmallRng` seeded with `ctx.seed`, so a cache keyed on
    /// `(instance digest, coarsening config, seed)` reproduces the same
    /// levels bitwise. No trace events are emitted here; the consuming
    /// [`run_from_hierarchy_with`](MlPartitioner::run_from_hierarchy_with)
    /// announces the levels so that cached and freshly built hierarchies
    /// produce identical traces. The build makes its own coarsening
    /// arenas and drops them on return: `ctx` lends it only the seed.
    pub fn coarsen_hierarchy_with(&self, h: &Hypergraph, ctx: &mut RunCtx<'_>) -> Hierarchy {
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let levels = build_hierarchy(h, &self.config.coarsen, None, &mut rng);
        Hierarchy::new(levels)
    }

    /// One multilevel start on `h` reusing an already-built
    /// `hierarchy` (see
    /// [`coarsen_hierarchy_with`](MlPartitioner::coarsen_hierarchy_with)):
    /// initial partitioning on the coarsest graph, then uncoarsening with
    /// refinement at every level — everything *except* the hierarchy
    /// build, which is precisely the work a hierarchy-cache hit skips.
    ///
    /// # Determinism contract
    ///
    /// The run is a pure function of
    /// `(h, hierarchy, self.config(), ctx.seed)`: initial partitioning
    /// and refinement draw from a fresh `SmallRng` seeded with
    /// `ctx.seed`, *independent* of the RNG that built the hierarchy.
    /// Consequently a cache-hit run, a fresh
    /// `coarsen_hierarchy_with` + `run_from_hierarchy_with` pair and
    /// [`run_with`](MlPartitioner::run_with) with the same seed are
    /// bitwise identical (same trace, same assignment).
    ///
    /// The split pipeline always runs the serial engine: per-job
    /// parallelism in the service comes from running many jobs
    /// concurrently, not from lanes inside one job, so
    /// [`threads`](MlConfig::threads) is ignored here.
    ///
    /// # Panics
    ///
    /// If `hierarchy` was not built for a hypergraph with
    /// `h.num_vertices()` vertices.
    pub fn run_from_hierarchy_with(
        &self,
        h: &Hypergraph,
        hierarchy: &Hierarchy,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> Outcome {
        if let Some(first) = hierarchy.levels().first() {
            assert_eq!(
                first.map.len(),
                h.num_vertices(),
                "hierarchy was built for a different hypergraph"
            );
        }
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        emit_level_downs(hierarchy.levels(), ctx.sink);
        let coarsest: &Hypergraph = hierarchy.coarsest().unwrap_or(h);
        let mut audit_failure = None;
        let initial = self.best_initial(coarsest, constraint, &mut rng, ctx, &mut audit_failure);
        self.uncoarsen(
            h,
            hierarchy.levels(),
            initial,
            constraint,
            &mut rng,
            ctx,
            audit_failure,
        )
    }

    /// The canonical V-cycle entry point: restricted coarsening that
    /// never clusters across the cut, then uncoarsening with refinement
    /// at every level starting from the projected solution — all under
    /// the context's sink, workspace, seed, and budget.
    pub fn vcycle_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        assignment: &[PartId],
        ctx: &mut RunCtx<'_>,
    ) -> Outcome {
        assert_eq!(
            assignment.len(),
            h.num_vertices(),
            "assignment length mismatch"
        );
        if self.config.engine == EngineKind::NLevel {
            return crate::nlevel::vcycle_nlevel(self, h, constraint, assignment, ctx);
        }
        if self.config.threads > 0 {
            return self.vcycle_parallel_with(h, constraint, assignment, ctx);
        }
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let levels = build_hierarchy(h, &self.config.coarsen, Some(assignment), &mut rng);
        emit_level_downs(&levels, ctx.sink);

        // Project the current solution down the (restricted) hierarchy:
        // every cluster is on one side by construction.
        let mut coarse_assignment = assignment.to_vec();
        for level in &levels {
            let mut next = vec![PartId::P0; level.graph.num_vertices()];
            for (fine, coarse) in level.map.iter().enumerate() {
                next[coarse.index()] = coarse_assignment[fine];
            }
            coarse_assignment = next;
        }

        self.uncoarsen(
            h,
            &levels,
            coarse_assignment,
            constraint,
            &mut rng,
            ctx,
            None,
        )
    }

    pub(crate) fn best_initial<R: Rng>(
        &self,
        coarsest: &Hypergraph,
        constraint: &BalanceConstraint,
        rng: &mut R,
        ctx: &mut RunCtx<'_>,
        audit_failure: &mut Option<AuditError>,
    ) -> Vec<PartId> {
        let engine = FmPartitioner::new(self.config.refine);
        let mut best: Option<(u64, u64, Vec<PartId>)> = None; // (violation, cut, parts)
        for t in 0..MlConfig::INITIAL_TRIES {
            let rule = if t % 2 == 0 {
                InitialSolution::AreaSortedGreedy
            } else {
                InitialSolution::RandomBalanced
            };
            let parts = generate_initial(coarsest, rule, rng);
            let mut bisection = match Bisection::new(coarsest, parts) {
                Ok(b) => b,
                Err(e) => unreachable!("generated initial is valid: {e}"),
            };
            let (stopped, failure) = engine.refine_with(&mut bisection, constraint, rng, ctx);
            if audit_failure.is_none() {
                *audit_failure = failure;
            }
            let score = (constraint.total_violation(&bisection), bisection.cut());
            if best.as_ref().is_none_or(|(v, c, _)| score < (*v, *c)) {
                best = Some((score.0, score.1, bisection.into_assignment()));
            }
            // The first try always completes construction (even with an
            // already-expired deadline the engine returns a valid, merely
            // unrefined bisection); later tries are skipped once stopped.
            if stopped.is_stopped() {
                break;
            }
        }
        match best {
            Some((_, _, assignment)) => assignment,
            None => unreachable!("the first initial try always completes"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn uncoarsen<R: Rng>(
        &self,
        h: &Hypergraph,
        levels: &[crate::coarsen::CoarseLevel],
        coarsest_assignment: Vec<PartId>,
        constraint: &BalanceConstraint,
        rng: &mut R,
        ctx: &mut RunCtx<'_>,
        mut audit_failure: Option<AuditError>,
    ) -> Outcome {
        let engine = FmPartitioner::new(self.config.refine);
        let mut assignment = coarsest_assignment;
        let mut probe = ctx.probe();
        let mut stopped = StopReason::Completed;

        // Refine at the coarsest level, then project and refine at each
        // finer level down to the input graph. Once the budget is gone,
        // refinement stops but the projection continues: a full-size
        // solution is part of the graceful-degradation contract.
        for i in (0..=levels.len()).rev() {
            let graph: &Hypergraph = if i == 0 { h } else { &levels[i - 1].graph };
            if i < levels.len() {
                assignment = levels[i].project(&assignment);
            }
            if stopped.is_stopped() {
                continue;
            }
            if let Some(reason) = probe.stop_now() {
                stopped = reason;
                ctx.sink.emit(RunEvent::BudgetExhausted { reason });
                continue;
            }
            if ctx.sink.is_enabled() {
                ctx.sink.emit(RunEvent::LevelUp {
                    level: i,
                    vertices: graph.num_vertices(),
                    nets: graph.num_nets(),
                });
            }
            let mut bisection = match Bisection::new(graph, assignment) {
                Ok(b) => b,
                Err(e) => unreachable!("projected assignment is valid: {e}"),
            };
            let (stop, failure) = engine.refine_with(&mut bisection, constraint, rng, ctx);
            audit_failure = audit_failure.or(failure);
            // A stop inside the engine was already announced there.
            stopped = stop;
            assignment = bisection.into_assignment();
        }
        finish(h, assignment, constraint, stopped, audit_failure, ctx)
    }
}

/// Closes a multilevel run on the input graph `h`: the whole-run
/// checkpoint re-verifies the claimed solution from scratch, independent
/// of the per-level engine audits (which a budget stop skips), and
/// `audit_failure` keeps the first violation found.
pub(crate) fn finish(
    h: &Hypergraph,
    assignment: Vec<PartId>,
    constraint: &BalanceConstraint,
    stopped: StopReason,
    mut audit_failure: Option<AuditError>,
    ctx: &RunCtx<'_>,
) -> Outcome {
    let bisection = match Bisection::new(h, assignment) {
        Ok(b) => b,
        Err(e) => unreachable!("a multilevel assignment is valid: {e}"),
    };
    if ctx.audit().is_on() {
        let window = constraint
            .is_satisfied(&bisection)
            .then(|| (constraint.lower(), constraint.upper()));
        if let Err(e) = PartitionAuditor::audit_bisection(&bisection, window) {
            ctx.sink.emit(RunEvent::InvariantViolation {
                check: e.check().to_string(),
                detail: e.to_string(),
            });
            audit_failure.get_or_insert(e);
        }
    }
    Outcome::new(bisection, constraint, stopped, audit_failure)
}

/// Emits one [`RunEvent::LevelDown`] per coarse level, coarsest last.
///
/// Level `0` is the input graph (never announced going down — the caller
/// is already there); coarse level `i + 1` holds `levels[i].graph`.
pub(crate) fn emit_level_downs<S: TraceSink + ?Sized>(
    levels: &[crate::coarsen::CoarseLevel],
    sink: &S,
) {
    if !sink.is_enabled() {
        return;
    }
    for (i, level) in levels.iter().enumerate() {
        sink.emit(RunEvent::LevelDown {
            level: i + 1,
            vertices: level.graph.num_vertices(),
            nets: level.graph.num_nets(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypart_benchgen::toys::{grid, two_clusters};
    use hypart_benchgen::{ispd98_like, mcnc_like};
    use hypart_core::{FmConfig, FmPartitioner};

    #[test]
    fn finds_optimal_cut_on_clusters() {
        let h = two_clusters(12, 3);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        let out = MlPartitioner::new(MlConfig::ml_lifo()).run(&h, &c, 3);
        assert_eq!(out.cut, 3);
        assert!(out.balanced);
    }

    #[test]
    fn grid_cut_is_near_optimal() {
        let h = grid(16, 16);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.1);
        let out = MlPartitioner::new(MlConfig::ml_lifo()).run(&h, &c, 1);
        assert!(out.balanced);
        // Optimal straight cutline cuts 16; allow slack for heuristics.
        assert!(out.cut <= 24, "cut {}", out.cut);
    }

    #[test]
    fn multilevel_beats_flat_on_structured_instances() {
        let h = ispd98_like(1, 0.04, 5);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let flat_avg: u64 = (0..3)
            .map(|s| FmPartitioner::new(FmConfig::lifo()).run(&h, &c, s).cut)
            .sum::<u64>()
            / 3;
        let ml_avg: u64 = (0..3)
            .map(|s| MlPartitioner::new(MlConfig::ml_lifo()).run(&h, &c, s).cut)
            .sum::<u64>()
            / 3;
        assert!(
            ml_avg <= flat_avg,
            "ML avg {ml_avg} should not exceed flat avg {flat_avg}"
        );
    }

    #[test]
    fn ml_clip_works_and_is_balanced() {
        let h = ispd98_like(1, 0.03, 6);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let sink = hypart_trace::MemorySink::new();
        let ml = MlPartitioner::new(MlConfig::ml_clip());
        let out = ml.run_with(&h, &c, &mut RunCtx::new(4).with_sink(&sink));
        assert!(out.balanced);
        let coarsened = sink
            .take()
            .iter()
            .any(|e| matches!(e, RunEvent::LevelDown { .. }));
        assert!(coarsened);
    }

    #[test]
    fn vcycle_never_worsens() {
        let h = ispd98_like(1, 0.03, 8);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let first = ml.run(&h, &c, 2);
        let cycled = ml.vcycle_with(&h, &c, &first.assignment, &mut RunCtx::new(77));
        assert!(
            cycled.cut <= first.cut,
            "v-cycle worsened: {} -> {}",
            first.cut,
            cycled.cut
        );
        assert!(cycled.balanced);
    }

    #[test]
    fn deterministic_per_seed() {
        let h = mcnc_like(600, 9);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let ml = MlPartitioner::new(MlConfig::ml_lifo());
        let a = ml.run(&h, &c, 42);
        let b = ml.run(&h, &c, 42);
        assert_eq!(a.cut, b.cut);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn respects_fixed_vertices() {
        use hypart_benchgen::with_pad_ring;
        let h = with_pad_ring(&mcnc_like(400, 3), 20, 1);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let out = MlPartitioner::new(MlConfig::ml_lifo()).run(&h, &c, 0);
        for v in h.vertices() {
            if let Some(p) = h.fixed_part(v) {
                assert_eq!(out.assignment[v.index()], p, "{v:?} moved off its pad");
            }
        }
    }
}
