//! The flat FM / CLIP-FM pass engine.
//!
//! One engine implements all four flat variants of the paper's Table 1 and
//! both "Reported"-style baselines of Tables 2–3: classic-FM vs CLIP
//! selection, every tie-break/update/insertion knob, the overweight-cell
//! exclusion that fixes corking, and an optional in-bucket lookahead.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::audit::{AuditError, AuditLevel, PartitionAuditor, PARANOID_MOVE_AUDIT_MAX_VERTICES};
use crate::balance::BalanceConstraint;
use crate::bisection::Bisection;
use crate::config::{FmConfig, IllegalHeadPolicy, SelectionRule, TieBreak, ZeroDeltaPolicy};
use crate::ctx::{BudgetProbe, RunCtx};
use crate::initial::generate_initial;
use crate::stats::{FmStats, PassStats, CORKED_FRACTION};
use crate::workspace::FmWorkspace;
use hypart_hypergraph::{Hypergraph, NetId, PartId, VertexId};
use hypart_trace::{RunEvent, StopReason, TraceSink};

/// Result of a full FM run on one instance.
#[derive(Clone, Debug)]
pub struct FmOutcome {
    /// Final partition assignment (index = vertex id).
    pub assignment: Vec<PartId>,
    /// Final weighted cut.
    pub cut: u64,
    /// `true` if the final solution satisfies the balance constraint.
    pub balanced: bool,
    /// Why the run ended ([`StopReason::Completed`] unless the context's
    /// budget ran out or its token was cancelled).
    pub stopped: StopReason,
    /// Detailed run statistics.
    pub stats: FmStats,
}

/// A configurable flat Fiduccia–Mattheyses 2-way partitioner.
///
/// Construct with an [`FmConfig`] (see its presets), then either
/// [`run`](FmPartitioner::run) end-to-end from a seeded random initial
/// solution, or [`refine_with`](FmPartitioner::refine_with) an existing
/// [`Bisection`] in place (as the multilevel framework does at each level).
#[derive(Clone, Debug)]
pub struct FmPartitioner {
    config: FmConfig,
    /// Update gains with the generic per-pin computation: the oracle the
    /// FM-82 critical-net update is twin-tested against.
    #[cfg(test)]
    generic_update: bool,
}

impl FmPartitioner {
    /// Creates a partitioner with the given configuration.
    pub fn new(config: FmConfig) -> Self {
        FmPartitioner {
            config,
            #[cfg(test)]
            generic_update: false,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FmConfig {
        &self.config
    }

    /// The canonical run entry point: generates the configured initial
    /// solution from `ctx.seed`, then refines under the context's sink,
    /// workspace, and budget. [`run`](FmPartitioner::run) delegates here.
    ///
    /// If the context's deadline expires (or its token is cancelled) the
    /// engine stops at its next cooperative check and returns the
    /// best-so-far solution with `stopped` set — see
    /// [`refine_with`](FmPartitioner::refine_with).
    pub fn run_with(
        &self,
        h: &Hypergraph,
        constraint: &BalanceConstraint,
        ctx: &mut RunCtx<'_>,
    ) -> FmOutcome {
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let assignment = generate_initial(h, self.config.initial, &mut rng);
        let mut bisection = match Bisection::new(h, assignment) {
            Ok(b) => b,
            Err(e) => unreachable!("generated initial solution is always valid: {e}"),
        };
        let stats = self.refine_with(&mut bisection, constraint, &mut rng, ctx);
        FmOutcome {
            cut: bisection.cut(),
            balanced: constraint.is_satisfied(&bisection),
            stopped: stats.stopped,
            assignment: bisection.into_assignment(),
            stats,
        }
    }

    /// Runs a complete partitioning of `h`: generate the configured initial
    /// solution from `seed`, then refine until no pass improves.
    ///
    /// Equivalent to [`run_with`](FmPartitioner::run_with) with a default
    /// [`RunCtx`] (no sink, no deadline).
    pub fn run(&self, h: &Hypergraph, constraint: &BalanceConstraint, seed: u64) -> FmOutcome {
        self.run_with(h, constraint, &mut RunCtx::new(seed))
    }

    /// The canonical refinement entry point: FM passes on `bisection`
    /// until no pass improves, `max_passes` is reached, or the context's
    /// budget runs out. The gain containers and scratch vectors come from
    /// (and return to) `ctx.workspace`, so a caller that refines many
    /// times — the multilevel driver at every level of every start — pays
    /// the container setup O(len + buckets touched) instead of
    /// O(V + bucket range) allocate-and-zero per call. Results do not
    /// depend on what the workspace held before.
    ///
    /// The budget is polled cooperatively: at every pass boundary and
    /// every [`MOVE_CHECK_INTERVAL`](crate::MOVE_CHECK_INTERVAL) moves inside a pass. A
    /// mid-pass stop still performs the normal best-prefix rollback, so
    /// the bisection is always a legal, coherent solution; the run then
    /// emits [`RunEvent::BudgetExhausted`] and returns with
    /// `stats.stopped` set to the [`StopReason`].
    ///
    /// A pass ends as soon as no later prefix can beat its best one (the
    /// pass cutoff, DESIGN §6), which returns the partition an exhausted
    /// pass would return after fewer tentative moves.
    pub fn refine_with<R: Rng>(
        &self,
        bisection: &mut Bisection<'_>,
        constraint: &BalanceConstraint,
        rng: &mut R,
        ctx: &mut RunCtx<'_>,
    ) -> FmStats {
        self.refine::<R, true>(bisection, constraint, rng, ctx)
    }

    /// [`refine_with`](FmPartitioner::refine_with) with every pass run
    /// until its gain containers are empty: the oracle the pass cutoff is
    /// twin-tested against.
    #[cfg(test)]
    fn refine_exhaustive<R: Rng>(
        &self,
        bisection: &mut Bisection<'_>,
        constraint: &BalanceConstraint,
        rng: &mut R,
        ctx: &mut RunCtx<'_>,
    ) -> FmStats {
        self.refine::<R, false>(bisection, constraint, rng, ctx)
    }

    /// The refinement loop; `CUTOFF` says whether passes end at the
    /// cutoff.
    fn refine<R: Rng, const CUTOFF: bool>(
        &self,
        bisection: &mut Bisection<'_>,
        constraint: &BalanceConstraint,
        rng: &mut R,
        ctx: &mut RunCtx<'_>,
    ) -> FmStats {
        let mut probe = ctx.probe();
        let audit = ctx.audit();
        let sink: &dyn TraceSink = ctx.sink;
        let workspace = &mut ctx.workspace;
        let graph = bisection.graph();
        // Bucket range per selection rule: classic FM keys are true gains,
        // bounded by ±max_gain_bound; only CLIP's cumulative delta-gain
        // keys (current gain minus initial gain) need twice that.
        let bound = match self.config.selection {
            SelectionRule::Classic => graph.max_gain_bound(),
            SelectionRule::Clip => 2 * graph.max_gain_bound(),
        }
        .max(1);
        workspace.containers(2, graph.num_vertices(), bound);
        let mut state = PassState::<CUTOFF> {
            config: &self.config,
            constraint,
            ws: workspace,
            last_moved_from: None,
            excluded_overweight: 0,
            dead_cut: 0,
            audit,
            audit_failure: None,
            #[cfg(test)]
            generic_update: self.generic_update,
        };

        let mut stats = FmStats {
            initial_cut: bisection.cut(),
            fixed: graph.num_fixed(),
            ..FmStats::default()
        };
        sink.emit(RunEvent::RunBegin {
            cut: stats.initial_cut,
        });
        for pass_index in 0..self.config.max_passes {
            // Pass-boundary budget check: the cheapest place to stop, and
            // the one that keeps the reported partition identical to what
            // an unbudgeted run would have had after the same passes.
            if probe.stop_now().is_some() {
                break;
            }
            let before = (constraint.total_violation(bisection), bisection.cut());
            let pass = state.run_pass(bisection, rng, sink, pass_index, &mut probe);
            stats.passes.push(pass);
            // Pass-boundary checkpoint: independently recount cut, pin
            // distribution, part weights, and fixed-vertex respect.
            if state.audit.is_on() {
                state.record_audit(PartitionAuditor::audit_bisection(bisection, None), sink);
            }
            let after = (constraint.total_violation(bisection), bisection.cut());
            // A mid-pass stop latches in the probe; the truncated pass has
            // already rolled back to its best prefix, so just exit.
            if probe.reason().is_stopped() || after >= before {
                break;
            }
        }
        stats.stopped = probe.reason();
        if stats.stopped.is_stopped() {
            sink.emit(RunEvent::BudgetExhausted {
                reason: stats.stopped,
            });
        }
        // Final checkpoint: when the engine claims a balanced solution,
        // also assert the recomputed weights sit inside the window.
        if state.audit.is_on() {
            let window = constraint
                .is_satisfied(bisection)
                .then(|| (constraint.lower(), constraint.upper()));
            state.record_audit(PartitionAuditor::audit_bisection(bisection, window), sink);
        }
        stats.audit_failure = state.audit_failure.take();
        stats.excluded_overweight = state.excluded_overweight;
        stats.final_cut = bisection.cut();
        sink.emit(RunEvent::RunEnd {
            cut: stats.final_cut,
            passes: stats.passes.len(),
        });
        stats
    }
}

/// Mutable working state shared across the passes of one refinement. The
/// containers and scratch vectors live in the borrowed [`FmWorkspace`]
/// (entries 0–1 of its pool, one per partition side), so they outlive the
/// refinement and are reused by the next one. `CUTOFF` is `false` only in
/// the twin tests' exhaustive oracle.
struct PassState<'c, const CUTOFF: bool> {
    config: &'c FmConfig,
    constraint: &'c BalanceConstraint,
    ws: &'c mut FmWorkspace,
    last_moved_from: Option<PartId>,
    excluded_overweight: usize,
    /// Weight of the nets with locked pins on both sides this pass: they
    /// stay cut until the pass ends, so every later prefix cuts at least
    /// this much.
    dead_cut: u64,
    audit: AuditLevel,
    audit_failure: Option<AuditError>,
    #[cfg(test)]
    generic_update: bool,
}

impl<const CUTOFF: bool> PassState<'_, CUTOFF> {
    fn run_pass<R: Rng, S: TraceSink + ?Sized>(
        &mut self,
        bisection: &mut Bisection<'_>,
        rng: &mut R,
        sink: &S,
        pass_index: usize,
        probe: &mut BudgetProbe,
    ) -> PassStats {
        self.seed(bisection, rng);
        // Paranoid seeding audit: every container key must agree with a
        // freshly computed gain (classic FM) or the CLIP zero-seed.
        if self.audit.is_paranoid() {
            let check = self.audit_container_keys(bisection);
            self.record_audit(check, sink);
        }
        self.ws.moves.clear();
        self.last_moved_from = None;

        let cut_before = bisection.cut();
        let violation_before = self.constraint.total_violation(bisection);
        let eligible = self.ws.eligible.len();
        sink.emit(RunEvent::PassBegin {
            pass: pass_index,
            cut: cut_before,
            eligible,
        });
        if self.excluded_overweight > 0 {
            sink.emit(RunEvent::OverweightExcluded {
                pass: pass_index,
                count: self.excluded_overweight,
            });
        }
        // Cached once per pass: per-move emission only for enabled sinks,
        // so a NullSink costs one branch per move at most.
        let traced = sink.is_enabled();

        // Best-prefix tracking, lexicographic on (violation, cut), with the
        // configured tie-break among equals. Prefix 0 = "make no moves".
        let mut best = PrefixScore {
            violation: violation_before,
            cut: cut_before,
            margin: self.constraint.margin(bisection),
            prefix: 0,
        };
        let ended_with_leftovers = loop {
            let Some(v) = self.select(bisection) else {
                break !self.ws.pool[0].is_empty() || !self.ws.pool[1].is_empty();
            };
            let from = bisection.side(v);
            self.ws.pool[from.index()].remove(v);
            let cut_prev = bisection.cut();
            self.apply_and_update(bisection, v, rng);
            self.ws.moves.push(v);
            self.last_moved_from = Some(from);
            if traced {
                sink.emit(RunEvent::Move {
                    vertex: v.index() as u64,
                    gain: cut_prev as i64 - bisection.cut() as i64,
                    cut: bisection.cut(),
                });
            }
            // Paranoid per-move audit, bounded to small instances: a full
            // from-scratch recount after every tentative move.
            if self.audit.is_paranoid()
                && bisection.graph().num_vertices() <= PARANOID_MOVE_AUDIT_MAX_VERTICES
            {
                let check = PartitionAuditor::audit_bisection(bisection, None);
                self.record_audit(check, sink);
            }

            let candidate = PrefixScore {
                violation: self.constraint.total_violation(bisection),
                cut: bisection.cut(),
                margin: self.constraint.margin(bisection),
                prefix: self.ws.moves.len(),
            };
            if candidate.beats(&best, self.config.pass_best) {
                best = candidate;
            }

            // Pass cutoff (DESIGN §6): every later prefix cuts at least
            // `dead_cut`, so once that exceeds a feasible best, no later
            // prefix can tie or beat it under any `PassBestRule` and the
            // rollback target is final. (Legal moves only lower a positive
            // violation, so an infeasible best is always the current
            // prefix; the violation test keeps the argument from leaning
            // on that.) The move floor keeps `corked` what the exhausted
            // pass would report.
            if CUTOFF
                && best.violation == 0
                && self.dead_cut > best.cut
                && self.ws.moves.len() * CORKED_FRACTION.1 >= eligible * CORKED_FRACTION.0
            {
                break !self.ws.pool[0].is_empty() || !self.ws.pool[1].is_empty();
            }

            // Mid-pass budget check, counter-gated so the hot loop pays one
            // increment per move. Truncating here is safe: the rollback
            // below restores the best prefix seen so far, exactly as if
            // the gain containers had run empty.
            if probe.stop_every().is_some() {
                break !self.ws.pool[0].is_empty() || !self.ws.pool[1].is_empty();
            }
        };

        // Roll back everything after the best prefix.
        let rolled_back = self.ws.moves.len() - best.prefix;
        for &v in self.ws.moves[best.prefix..].iter().rev() {
            bisection.move_vertex(v);
            if traced {
                sink.emit(RunEvent::Rollback {
                    vertex: v.index() as u64,
                    cut: bisection.cut(),
                });
            }
        }
        debug_assert_eq!(bisection.cut(), best.cut);

        let moves_made = self.ws.moves.len();
        let corked = ended_with_leftovers
            && eligible > 0
            && moves_made * CORKED_FRACTION.1 < eligible * CORKED_FRACTION.0;
        if corked {
            sink.emit(RunEvent::Corked {
                pass: pass_index,
                moves_made,
                eligible,
            });
        }
        sink.emit(RunEvent::PassEnd {
            pass: pass_index,
            cut: bisection.cut(),
            moves_made,
            moves_rolled_back: rolled_back,
            leftovers: ended_with_leftovers,
            corked,
        });
        PassStats {
            moves_made,
            moves_rolled_back: rolled_back,
            eligible,
            cut_before,
            cut_after: bisection.cut(),
            corked,
        }
    }

    /// Emits an `InvariantViolation` event and records the first failure
    /// when an audit check comes back with a discrepancy.
    fn record_audit<S: TraceSink + ?Sized>(&mut self, result: Result<(), AuditError>, sink: &S) {
        if let Err(e) = result {
            sink.emit(RunEvent::InvariantViolation {
                check: e.check().to_string(),
                detail: e.to_string(),
            });
            if self.audit_failure.is_none() {
                self.audit_failure = Some(e);
            }
        }
    }

    /// Verifies every freshly seeded container key against an independent
    /// gain computation: classic FM keys are true FS−TE gains; CLIP seeds
    /// every vertex in the zero bucket.
    fn audit_container_keys(&self, bisection: &Bisection<'_>) -> Result<(), AuditError> {
        for &v in &self.ws.eligible {
            let side = bisection.side(v);
            let container = &self.ws.pool[side.index()];
            if !container.contains(v) {
                continue;
            }
            let stored = container.key_of(v);
            let expected = match self.config.selection {
                SelectionRule::Classic => bisection.gain(v),
                SelectionRule::Clip => 0,
            };
            if stored != expected {
                return Err(AuditError::GainMismatch {
                    vertex: v.index(),
                    stored,
                    recomputed: expected,
                });
            }
        }
        Ok(())
    }

    /// Seeds both gain containers for a fresh pass, and locks the pins
    /// of the cells that cannot move in it: fixed and excluded ones.
    fn seed<R: Rng>(&mut self, bisection: &Bisection<'_>, rng: &mut R) {
        let graph = bisection.graph();
        let ws = &mut *self.ws;
        ws.pool[0].clear();
        ws.pool[1].clear();
        ws.eligible.clear();
        ws.locked.clear();
        ws.locked.resize(graph.num_nets(), 0);
        self.excluded_overweight = 0;
        self.dead_cut = 0;
        let window = self.constraint.window();
        for v in graph.vertices() {
            let fixed = graph.is_fixed(v);
            let excluded =
                !fixed && self.config.exclude_overweight && graph.vertex_weight(v) > window;
            if !fixed && !excluded {
                ws.eligible.push(v);
                continue;
            }
            self.excluded_overweight += usize::from(excluded);
            // Fixed or excluded: its pins stay locked on its side all pass.
            let side = bisection.side(v);
            for &e in graph.vertex_nets(v) {
                if lock_pin(&mut ws.locked, e, side) {
                    self.dead_cut += u64::from(graph.net_weight(e));
                }
            }
        }
        match self.config.selection {
            SelectionRule::Classic => {
                // Insert in vertex-id order at each vertex's initial gain —
                // itself an implicit decision; id order is the common
                // "netlist order" choice.
                for &v in &ws.eligible {
                    let side = bisection.side(v);
                    ws.pool[side.index()].insert(v, bisection.gain(v), self.config.insertion, rng);
                }
            }
            SelectionRule::Clip => {
                // CLIP prescribes: every move starts in the 0 bucket with
                // the highest-initial-gain move at the head. Seeding in
                // ascending gain order with head insertion realizes that
                // (and is precisely what puts high-degree, high-area cells
                // at the head — the corking setup of §2.3). The sort runs
                // in persistent scratch (same contents, same stable sort,
                // same order as ever) instead of a per-pass clone.
                ws.order.clear();
                ws.order.extend_from_slice(&ws.eligible);
                ws.order.sort_by_key(|&v| bisection.gain(v));
                for &v in &ws.order {
                    let side = bisection.side(v);
                    ws.pool[side.index()].push_head(v, 0);
                }
            }
        }
    }

    /// Selects the next move per the paper's selection discipline: each
    /// side exposes the head of its highest gain bucket (scanning past
    /// illegal heads per `IllegalHeadPolicy` / `lookahead`); the higher key
    /// wins; equal keys go to the `TieBreak` rule.
    fn select(&mut self, bisection: &Bisection<'_>) -> Option<VertexId> {
        let c0 = self.scan_side(bisection, PartId::P0);
        let c1 = self.scan_side(bisection, PartId::P1);
        match (c0, c1) {
            (None, None) => None,
            (Some((v, _)), None) => Some(v),
            (None, Some((v, _))) => Some(v),
            (Some((v0, k0)), Some((v1, k1))) => {
                if k0 != k1 {
                    return Some(if k0 > k1 { v0 } else { v1 });
                }
                let pick_p0 = match self.config.tie_break {
                    TieBreak::Part0 => true,
                    // "Away": not from the same partition the last vertex
                    // was moved from; first move defaults to partition 0.
                    TieBreak::Away => self.last_moved_from != Some(PartId::P0),
                    TieBreak::Toward => self.last_moved_from != Some(PartId::P1),
                };
                Some(if pick_p0 { v0 } else { v1 })
            }
        }
    }

    /// Finds the best selectable move from one side's container, visiting
    /// its non-empty buckets from the highest key down.
    fn scan_side(&mut self, bisection: &Bisection<'_>, side: PartId) -> Option<(VertexId, i64)> {
        let container = &mut self.ws.pool[side.index()];
        let mut key = container.descend_max()?;
        loop {
            let mut cursor = container.head_of(key);
            let mut examined = 0usize;
            while let Some(v) = cursor {
                if examined >= self.config.lookahead {
                    break;
                }
                examined += 1;
                if self.constraint.is_legal_move(bisection, v) {
                    return Some((v, key));
                }
                cursor = container.next_in_bucket(v);
            }
            // Every examined entry was illegal.
            if self.config.illegal_head == IllegalHeadPolicy::SkipSide {
                return None;
            }
            key = container.next_key_below(key)?;
        }
    }

    /// Moves `v` and updates its neighbours' gains in the same pass over
    /// `v`'s nets, with the critical-net rule of FM-82. With `F` and `T`
    /// a net's pin counts on the from and to side before the move, each
    /// other from-side pin's gain changes by `w·([F=2] + [T=0])` and each
    /// to-side pin's by `−w·([F=1] + [T=1])`. Under
    /// [`ZeroDeltaPolicy::Nonzero`] a net's scan skips the pins of a side
    /// whose delta is 0 and ends once the last pin whose key changes has
    /// been seen: the zero-delta skip the paper notes is implicit in
    /// FM-82. Under [`ZeroDeltaPolicy::All`] every free pin is
    /// re-inserted, a zero delta included. Either way the updates, and
    /// the random draws of a random insertion, come in the order the
    /// generic four-cut-value computation makes them.
    fn apply_and_update<R: Rng>(
        &mut self,
        bisection: &mut Bisection<'_>,
        v: VertexId,
        rng: &mut R,
    ) {
        #[cfg(test)]
        if self.generic_update {
            return self.apply_and_update_generic(bisection, v, rng);
        }
        let graph = bisection.graph();
        let from = bisection.side(v);
        let to = from.other();
        let insertion = self.config.insertion;
        let nonzero_only = self.config.zero_delta == ZeroDeltaPolicy::Nonzero;
        let ws = &mut *self.ws;
        let dead_cut = &mut self.dead_cut;
        bisection.move_vertex_with(v, |e, f, t, side| {
            let weight = graph.net_weight(e);
            // `v` is locked on `to` until the pass ends.
            if lock_pin(&mut ws.locked, e, to) {
                *dead_cut += u64::from(weight);
            }
            let w = i64::from(weight);
            // The key change of a pin, indexed by the pin's side.
            let mut delta = [0i64; 2];
            delta[from.index()] = w * i64::from(f == 2) + w * i64::from(t == 0);
            delta[to.index()] = -w * i64::from(f == 1) - w * i64::from(t == 1);
            // Under `Nonzero`, the pins still to be seen whose key changes.
            let mut pending = if nonzero_only {
                let from_side = if delta[from.index()] == 0 { 0 } else { f - 1 };
                let to_side = if delta[to.index()] == 0 { 0 } else { t };
                from_side + to_side
            } else {
                u32::MAX
            };
            if pending == 0 {
                return;
            }
            for &y in graph.net_pins(e) {
                if y == v {
                    continue;
                }
                let s = side[y.index()].index();
                if nonzero_only {
                    if delta[s] == 0 {
                        continue;
                    }
                    pending -= 1;
                }
                let container = &mut ws.pool[s];
                // Pins locked this pass, fixed, or excluded are in no
                // container.
                if container.contains(y) {
                    let key = container.key_of(y);
                    container.update(y, key + delta[s], insertion, rng);
                }
                if pending == 0 {
                    break;
                }
            }
        });
    }

    /// [`apply_and_update`](Self::apply_and_update) as the generic
    /// four-cut-value delta computation on every pin of every net of `v`,
    /// after the move: the oracle of the FM-82 update's twin test.
    #[cfg(test)]
    fn apply_and_update_generic<R: Rng>(
        &mut self,
        bisection: &mut Bisection<'_>,
        v: VertexId,
        rng: &mut R,
    ) {
        let from = bisection.side(v);
        let to = from.other();
        bisection.move_vertex(v);
        let graph = bisection.graph();
        for &e in graph.vertex_nets(v) {
            let w = i64::from(graph.net_weight(e));
            if lock_pin(&mut self.ws.locked, e, to) {
                self.dead_cut += u64::from(graph.net_weight(e));
            }
            let after = [
                bisection.pins_in(e, PartId::P0),
                bisection.pins_in(e, PartId::P1),
            ];
            let mut before = after;
            before[from.index()] += 1;
            before[to.index()] -= 1;
            for &y in graph.net_pins(e) {
                if y == v {
                    continue;
                }
                let side_y = bisection.side(y);
                if !self.ws.pool[side_y.index()].contains(y) {
                    continue;
                }
                let s = side_y.index();
                let o = side_y.other().index();
                let contrib_before = i64::from(before[s] == 1) * w - i64::from(before[o] == 0) * w;
                let contrib_after = i64::from(after[s] == 1) * w - i64::from(after[o] == 0) * w;
                let delta = contrib_after - contrib_before;
                if delta != 0 || self.config.zero_delta == ZeroDeltaPolicy::All {
                    let container = &mut self.ws.pool[s];
                    let key = container.key_of(y);
                    container.update(y, key + delta, self.config.insertion, rng);
                }
            }
        }
    }
}

/// Records a locked pin of net `e` on `side` in the pass's per-net mask
/// (bit `side`); returns `true` when this locks the net's second side,
/// making it dead: cut until the pass ends.
fn lock_pin(locked: &mut [u8], e: NetId, side: PartId) -> bool {
    let mask = &mut locked[e.index()];
    let was = *mask;
    *mask = was | (1 << side.index());
    was == 1 << side.other().index()
}

/// Score of a move-sequence prefix for best-prefix selection.
#[derive(Clone, Copy, Debug)]
struct PrefixScore {
    violation: u64,
    cut: u64,
    margin: i64,
    prefix: usize,
}

impl PrefixScore {
    fn beats(&self, best: &PrefixScore, rule: crate::config::PassBestRule) -> bool {
        use crate::config::PassBestRule;
        match (self.violation, self.cut).cmp(&(best.violation, best.cut)) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => match rule {
                PassBestRule::FirstSeen => false,
                PassBestRule::LastSeen => true,
                PassBestRule::MostBalanced => self.margin > best.margin,
            },
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::config::{InitialSolution, InsertionPolicy, PassBestRule, TieBreak};
    use hypart_hypergraph::HypergraphBuilder;
    use proptest::prelude::*;

    /// Two unit-weight cliques of size k bridged by `bridges` nets.
    fn two_clusters(k: usize, bridges: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let left: Vec<_> = (0..k).map(|_| b.add_vertex(1)).collect();
        let right: Vec<_> = (0..k).map(|_| b.add_vertex(1)).collect();
        for grp in [&left, &right] {
            for i in 0..k {
                for j in (i + 1)..k {
                    b.add_net([grp[i], grp[j]], 1).unwrap();
                }
            }
        }
        for i in 0..bridges {
            b.add_net([left[i % k], right[i % k]], 1).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn finds_the_natural_two_cluster_cut() {
        let h = two_clusters(6, 2);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        for seed in 0..5 {
            let out = FmPartitioner::new(FmConfig::lifo()).run(&h, &c, seed);
            assert_eq!(out.cut, 2, "seed {seed}");
            assert!(out.balanced);
        }
    }

    #[test]
    fn clip_also_finds_the_cut() {
        let h = two_clusters(6, 2);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        let out = FmPartitioner::new(FmConfig::clip()).run(&h, &c, 1);
        assert_eq!(out.cut, 2);
        assert!(out.balanced);
    }

    #[test]
    fn all_knob_combinations_produce_legal_solutions() {
        let h = two_clusters(5, 3);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        for selection in [SelectionRule::Classic, SelectionRule::Clip] {
            for tie in [TieBreak::Away, TieBreak::Part0, TieBreak::Toward] {
                for zd in [ZeroDeltaPolicy::All, ZeroDeltaPolicy::Nonzero] {
                    for ins in [
                        InsertionPolicy::Lifo,
                        InsertionPolicy::Fifo,
                        InsertionPolicy::Random,
                    ] {
                        let cfg = FmConfig::default()
                            .with_selection(selection)
                            .with_tie_break(tie)
                            .with_zero_delta(zd)
                            .with_insertion(ins);
                        let out = FmPartitioner::new(cfg).run(&h, &c, 7);
                        assert!(out.balanced, "{cfg:?}");
                        assert!(out.cut <= 10, "{cfg:?} cut {}", out.cut);
                    }
                }
            }
        }
    }

    #[test]
    fn refinement_never_worsens_the_cut() {
        let h = two_clusters(8, 5);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let out = FmPartitioner::new(FmConfig::lifo()).run(&h, &c, 3);
        assert!(out.stats.final_cut <= out.stats.initial_cut);
    }

    #[test]
    fn fixed_vertices_never_move() {
        let h = two_clusters(4, 1);
        // Fix one left-cluster vertex on the *wrong* side.
        let h = h.with_fixed(VertexId::new(0), Some(PartId::P1));
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.25);
        let out = FmPartitioner::new(FmConfig::lifo()).run(&h, &c, 5);
        assert_eq!(out.assignment[0], PartId::P1);
    }

    #[test]
    fn overweight_exclusion_reports_excluded_cells() {
        let mut b = HypergraphBuilder::new();
        let macro_cell = b.add_vertex(1000);
        let v: Vec<_> = (0..10).map(|_| b.add_vertex(1)).collect();
        b.add_net([macro_cell, v[0]], 1).unwrap();
        for i in 0..9 {
            b.add_net([v[i], v[i + 1]], 1).unwrap();
        }
        let h = b.build().unwrap();
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.02);
        let out = FmPartitioner::new(FmConfig::lifo()).run(&h, &c, 1);
        assert_eq!(out.stats.excluded_overweight, 1);
    }

    #[test]
    fn reported_baselines_are_weaker_on_average() {
        let h = two_clusters(7, 4);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        let strong: u64 = (0..20)
            .map(|s| FmPartitioner::new(FmConfig::lifo()).run(&h, &c, s).cut)
            .sum();
        let weak: u64 = (0..20)
            .map(|s| {
                FmPartitioner::new(FmConfig::reported_lifo())
                    .run(&h, &c, s)
                    .cut
            })
            .sum();
        assert!(
            strong <= weak,
            "strong total {strong} should not exceed weak total {weak}"
        );
    }

    #[test]
    fn pass_best_rules_all_converge() {
        let h = two_clusters(5, 2);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        for rule in [
            PassBestRule::FirstSeen,
            PassBestRule::LastSeen,
            PassBestRule::MostBalanced,
        ] {
            let cfg = FmConfig::default().with_pass_best(rule);
            let out = FmPartitioner::new(cfg).run(&h, &c, 11);
            assert!(out.balanced, "{rule:?}");
            assert_eq!(out.cut, 2, "{rule:?}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let h = two_clusters(6, 3);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let a = FmPartitioner::new(FmConfig::clip()).run(&h, &c, 123);
        let b = FmPartitioner::new(FmConfig::clip()).run(&h, &c, 123);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.cut, b.cut);
    }

    #[test]
    fn lookahead_still_produces_legal_results() {
        let h = two_clusters(5, 2);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        let cfg = FmConfig::clip().with_lookahead(8);
        let out = FmPartitioner::new(cfg).run(&h, &c, 2);
        assert!(out.balanced);
    }

    #[test]
    fn empty_graph_runs_cleanly() {
        let h = HypergraphBuilder::new().build().unwrap();
        let c = BalanceConstraint::with_fraction(0, 0.02);
        let out = FmPartitioner::new(FmConfig::lifo()).run(&h, &c, 0);
        assert_eq!(out.cut, 0);
        assert!(out.assignment.is_empty());
    }

    #[test]
    fn paranoid_audit_passes_clean_and_emits_nothing() {
        use crate::audit::AuditLevel;
        use hypart_trace::MemorySink;
        let h = two_clusters(6, 3);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        for cfg in [FmConfig::lifo(), FmConfig::clip()] {
            let sink = MemorySink::new();
            let mut ctx = RunCtx::new(9)
                .with_audit(AuditLevel::Paranoid)
                .with_sink(&sink);
            let out = FmPartitioner::new(cfg).run_with(&h, &c, &mut ctx);
            assert!(
                out.stats.audit_failure.is_none(),
                "{:?}",
                out.stats.audit_failure
            );
            assert!(
                !sink
                    .events()
                    .iter()
                    .any(|e| matches!(e, RunEvent::InvariantViolation { .. })),
                "clean run must not emit violations"
            );
        }
    }

    #[test]
    fn audit_off_is_the_default_and_adds_no_events() {
        let h = two_clusters(5, 2);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        let out = FmPartitioner::new(FmConfig::lifo()).run(&h, &c, 3);
        assert!(out.stats.audit_failure.is_none());
    }

    /// `events` without `Move`/`Rollback`, and with the `PassEnd` fields
    /// that depend on where a pass stopped masked, so a cutoff stream can
    /// be compared with an exhausted one.
    fn without_stop_point(events: &[RunEvent]) -> Vec<RunEvent> {
        events
            .iter()
            .filter(|e| !matches!(e, RunEvent::Move { .. } | RunEvent::Rollback { .. }))
            .map(|e| match e {
                RunEvent::PassEnd {
                    pass, cut, corked, ..
                } => RunEvent::PassEnd {
                    pass: *pass,
                    cut: *cut,
                    moves_made: 0,
                    moves_rolled_back: 0,
                    leftovers: false,
                    corked: *corked,
                },
                other => other.clone(),
            })
            .collect()
    }

    /// The `Move` events of each pass, in order.
    fn moves_per_pass(events: &[RunEvent]) -> Vec<Vec<RunEvent>> {
        let mut passes = Vec::new();
        for e in events {
            match e {
                RunEvent::PassBegin { .. } => passes.push(Vec::new()),
                RunEvent::Move { .. } => passes.last_mut().unwrap().push(e.clone()),
                _ => {}
            }
        }
        passes
    }

    /// Stats with the counts that depend on where a pass stopped zeroed.
    fn without_move_counts(stats: &FmStats) -> FmStats {
        let mut stats = stats.clone();
        for p in &mut stats.passes {
            p.moves_made = 0;
            p.moves_rolled_back = 0;
        }
        stats
    }

    /// One refinement from `start`: (assignment, cut, stats, events).
    fn twin_run(
        engine: &FmPartitioner,
        h: &Hypergraph,
        start: &[PartId],
        c: &BalanceConstraint,
        seed: u64,
        exhaustive: bool,
    ) -> (Vec<PartId>, u64, FmStats, Vec<RunEvent>) {
        use hypart_trace::MemorySink;
        let sink = MemorySink::new();
        let mut bisection = Bisection::new(h, start.to_vec()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ctx = RunCtx::new(seed).with_sink(&sink);
        let stats = if exhaustive {
            engine.refine_exhaustive(&mut bisection, c, &mut rng, &mut ctx)
        } else {
            engine.refine_with(&mut bisection, c, &mut rng, &mut ctx)
        };
        let cut = bisection.cut();
        (bisection.into_assignment(), cut, stats, sink.take())
    }

    /// Asserts that the cutoff run from `start` is the exhausted run with
    /// shorter passes; returns (cutoff moves, exhausted moves).
    fn assert_cutoff_is_exact(
        cfg: FmConfig,
        h: &Hypergraph,
        start: &[PartId],
        c: &BalanceConstraint,
        seed: u64,
    ) -> (usize, usize) {
        // A random insertion draws numbers after the cutoff in the
        // exhausted pass only, so the twins agree on one pass and may
        // part ways from the second.
        let cfg = if cfg.insertion == InsertionPolicy::Random {
            cfg.with_max_passes(1)
        } else {
            cfg
        };
        let engine = FmPartitioner::new(cfg);
        let (assignment, cut, stats, events) = twin_run(&engine, h, start, c, seed, false);
        let (want_assignment, want_cut, want_stats, want_events) =
            twin_run(&engine, h, start, c, seed, true);
        assert_eq!(assignment, want_assignment, "{cfg:?}");
        assert_eq!(cut, want_cut, "{cfg:?}");
        assert_eq!(
            without_move_counts(&stats),
            without_move_counts(&want_stats),
            "{cfg:?}"
        );
        assert_eq!(
            without_stop_point(&events),
            without_stop_point(&want_events),
            "{cfg:?}"
        );
        let (passes, want_passes) = (moves_per_pass(&events), moves_per_pass(&want_events));
        assert_eq!(passes.len(), want_passes.len());
        for (i, (moves, want)) in passes.iter().zip(&want_passes).enumerate() {
            assert!(
                want.starts_with(moves),
                "pass {i}: cutoff moves are not a prefix of the exhausted pass's ({cfg:?})"
            );
        }
        (stats.total_moves(), want_stats.total_moves())
    }

    #[test]
    fn cutoff_skips_moves_on_a_netlist() {
        let h = hypart_benchgen::ispd98_like(1, 0.02, 3);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let mut rng = SmallRng::seed_from_u64(4);
        let start = generate_initial(&h, InitialSolution::RandomBalanced, &mut rng);
        for cfg in [FmConfig::lifo(), FmConfig::clip()] {
            let (moves, exhausted) = assert_cutoff_is_exact(cfg, &h, &start, &c, 4);
            assert!(moves < exhausted, "{cfg:?}: {moves} vs {exhausted}");
        }
    }

    /// Two stars, each of 20 cells tied to a hub fixed on the cells' side:
    /// the cut is 0, and the first move kills a net, so the cutoff
    /// condition holds after one move. The floor must hold the pass to
    /// 2 of its 40 eligible moves, where the exhausted pass is not corked.
    #[test]
    fn cutoff_waits_for_the_corking_floor() {
        let mut b = HypergraphBuilder::new();
        let mut start = Vec::new();
        for side in [PartId::P0, PartId::P1] {
            let hub = b.add_vertex(1);
            b.fix_vertex(hub, side);
            start.push(side);
            for _ in 0..20 {
                let leaf = b.add_vertex(1);
                b.add_net([hub, leaf], 1).unwrap();
                start.push(side);
            }
        }
        let h = b.build().unwrap();
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let (moves, exhausted) = assert_cutoff_is_exact(FmConfig::lifo(), &h, &start, &c, 1);
        assert_eq!(moves, 2);
        assert!(exhausted > 2);
    }

    /// A random instance for the cutoff twin: 4–40 cells of weight 1–4
    /// (cell 0 optionally a macro wider than most windows), 1–80 nets of
    /// 2–4 pins and weight 1–3, some cells fixed, and a start that is
    /// often infeasible (random sides, or every free cell on `P0`).
    fn twin_instance() -> impl Strategy<Value = (Hypergraph, Vec<PartId>, f64)> {
        (
            4usize..=40,
            proptest::collection::vec(1u64..=4, 40..41),
            proptest::collection::vec(
                (proptest::collection::vec(any::<usize>(), 2..5), 1u32..=3),
                1..81,
            ),
            proptest::collection::vec(0u8..10, 40..41),
            any::<bool>(),
            any::<bool>(),
            5u32..40,
        )
            .prop_map(|(n, weights, nets, codes, with_macro, skewed, percent)| {
                let mut b = HypergraphBuilder::new();
                let macro_weight = weights[1..n].iter().sum::<u64>() / 2 + 1;
                for (i, &w) in weights[..n].iter().enumerate() {
                    let w = if i == 0 && with_macro {
                        macro_weight
                    } else {
                        w
                    };
                    b.add_vertex(w);
                }
                for (pins, w) in nets {
                    let pins = pins.into_iter().map(|p| VertexId::from_index(p % n));
                    b.add_net(pins, w).unwrap();
                }
                // Codes 0 and 1 fix the cell on that side; the rest leave
                // it free, on side `code % 2` unless the start is skewed.
                let start: Vec<PartId> = codes[..n]
                    .iter()
                    .map(|&code| match code {
                        1 => PartId::P1,
                        _ if code == 0 || skewed || code % 2 == 0 => PartId::P0,
                        _ => PartId::P1,
                    })
                    .collect();
                for (i, &code) in codes[..n].iter().enumerate() {
                    if code < 2 {
                        b.fix_vertex(VertexId::from_index(i), start[i]);
                    }
                }
                (b.build().unwrap(), start, f64::from(percent) / 100.0)
            })
    }

    fn twin_config() -> impl Strategy<Value = FmConfig> {
        (
            prop_oneof![Just(SelectionRule::Classic), Just(SelectionRule::Clip)],
            prop_oneof![
                Just(InsertionPolicy::Lifo),
                Just(InsertionPolicy::Fifo),
                Just(InsertionPolicy::Random)
            ],
            prop_oneof![
                Just(PassBestRule::FirstSeen),
                Just(PassBestRule::LastSeen),
                Just(PassBestRule::MostBalanced)
            ],
            prop_oneof![
                Just(TieBreak::Away),
                Just(TieBreak::Part0),
                Just(TieBreak::Toward)
            ],
            prop_oneof![Just(ZeroDeltaPolicy::All), Just(ZeroDeltaPolicy::Nonzero)],
            prop_oneof![
                Just(IllegalHeadPolicy::SkipBucket),
                Just(IllegalHeadPolicy::SkipSide)
            ],
            any::<bool>(),
            1usize..4,
        )
            .prop_map(
                |(
                    selection,
                    insertion,
                    pass_best,
                    tie,
                    zero_delta,
                    illegal,
                    exclude,
                    lookahead,
                )| {
                    FmConfig::default()
                        .with_selection(selection)
                        .with_insertion(insertion)
                        .with_pass_best(pass_best)
                        .with_tie_break(tie)
                        .with_zero_delta(zero_delta)
                        .with_illegal_head(illegal)
                        .with_exclude_overweight(exclude)
                        .with_lookahead(lookahead)
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The pass cutoff is exact: ending a pass once its dead nets
        /// outweigh its feasible best prefix gives the exhausted pass's
        /// assignment, cut, pass count and per-pass stats, and its moves
        /// are a prefix of the exhausted pass's.
        #[test]
        fn cutoff_matches_the_exhausted_pass(
            (h, start, tolerance) in twin_instance(),
            cfg in twin_config(),
            seed in any::<u64>(),
        ) {
            let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), tolerance);
            let (moves, exhausted) = assert_cutoff_is_exact(cfg, &h, &start, &c, seed);
            prop_assert!(moves <= exhausted);
        }

        /// The FM-82 critical-net update makes the generic update's
        /// moves: the same assignment, cut, stats and event stream, every
        /// `Move` and `Rollback` included.
        #[test]
        fn critical_net_update_matches_the_generic_update(
            (h, start, tolerance) in twin_instance(),
            cfg in twin_config(),
            seed in any::<u64>(),
        ) {
            let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), tolerance);
            assert_update_is_exact(cfg, &h, &start, &c, seed);
        }
    }

    /// Asserts that the FM-82 update refines `start` exactly as the
    /// generic per-pin update does.
    fn assert_update_is_exact(
        cfg: FmConfig,
        h: &Hypergraph,
        start: &[PartId],
        c: &BalanceConstraint,
        seed: u64,
    ) {
        let fast = FmPartitioner::new(cfg);
        let generic = FmPartitioner {
            generic_update: true,
            ..fast.clone()
        };
        let got = twin_run(&fast, h, start, c, seed, false);
        let want = twin_run(&generic, h, start, c, seed, false);
        assert_eq!(got.0, want.0, "assignment, {cfg:?}");
        assert_eq!(got.1, want.1, "cut, {cfg:?}");
        assert_eq!(got.2, want.2, "stats, {cfg:?}");
        assert_eq!(got.3, want.3, "events, {cfg:?}");
    }

    /// The twin on a netlist, whose multi-pin nets end scans early.
    #[test]
    fn critical_net_update_matches_on_a_netlist() {
        let h = hypart_benchgen::ispd98_like(1, 0.02, 3);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let mut rng = SmallRng::seed_from_u64(4);
        let start = generate_initial(&h, InitialSolution::RandomBalanced, &mut rng);
        for base in [FmConfig::lifo(), FmConfig::clip()] {
            for zero_delta in [ZeroDeltaPolicy::Nonzero, ZeroDeltaPolicy::All] {
                for insertion in [InsertionPolicy::Lifo, InsertionPolicy::Random] {
                    let cfg = base.with_zero_delta(zero_delta).with_insertion(insertion);
                    assert_update_is_exact(cfg, &h, &start, &c, 4);
                }
            }
        }
    }

    #[test]
    fn uniform_random_initial_recovers_feasibility() {
        let h = two_clusters(8, 2);
        let c = BalanceConstraint::with_slack(h.total_vertex_weight(), 1);
        let cfg = FmConfig::lifo().with_initial(InitialSolution::UniformRandom);
        // Several seeds: even badly unbalanced starts must end feasible.
        for seed in 0..10 {
            let out = FmPartitioner::new(cfg).run(&h, &c, seed);
            assert!(out.balanced, "seed {seed}");
        }
    }
}
