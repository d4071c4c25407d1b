//! The uniform run-event vocabulary shared by every engine.
//!
//! Events are deliberately **timing-free and allocation-free on the hot
//! path**: two runs of the same engine on the same instance and seed emit
//! byte-identical streams regardless of thread count or machine load,
//! which is what makes trace equality a usable test oracle. Wall-clock
//! observations belong to sinks (see
//! [`CounterSink`](crate::CounterSink)), not to events.

use crate::json::{self, JsonValue};

/// Why an engine handed control back to its caller.
///
/// Every outcome type carries one of these: [`Completed`](StopReason::Completed)
/// is the normal convergence path, the other two are the cooperative early
/// exits of a budgeted execution context. An early exit is *graceful
/// degradation*: the engine rolls back to its best prefix and returns a
/// well-formed best-so-far solution, never a torn partition.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The engine ran to its natural convergence.
    #[default]
    Completed,
    /// The wall-clock deadline of the execution context expired.
    Deadline,
    /// The context's cancellation token was flipped (typically from
    /// another thread).
    Cancelled,
}

impl StopReason {
    /// `true` unless the run completed naturally.
    pub fn is_stopped(self) -> bool {
        self != StopReason::Completed
    }

    /// Stable snake_case name (the `"reason"` field of the JSONL schema).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::Deadline => "deadline",
            StopReason::Cancelled => "cancelled",
        }
    }

    /// Parses a [`name`](StopReason::name) back.
    ///
    /// # Errors
    ///
    /// Returns the unknown name.
    pub fn parse(s: &str) -> Result<StopReason, String> {
        match s {
            "completed" => Ok(StopReason::Completed),
            "deadline" => Ok(StopReason::Deadline),
            "cancelled" => Ok(StopReason::Cancelled),
            other => Err(format!("unknown stop reason `{other}`")),
        }
    }
}

/// One observation from a partitioning engine.
///
/// The variants cover the full anatomy of a run, from experiment harness
/// scope (`TrialBegin`/`TrialEnd`) through flat-engine scope
/// (`RunBegin`..`RunEnd`, one per [`refine`] invocation) down to
/// per-move granularity, plus the multilevel hierarchy transitions and
/// V-cycle boundaries that wrap flat runs.
///
/// Per-move events ([`Move`](RunEvent::Move) /
/// [`Rollback`](RunEvent::Rollback)) are only emitted when the sink
/// reports [`is_enabled`](crate::TraceSink::is_enabled), so a
/// [`NullSink`](crate::NullSink) costs one cached boolean test per pass.
///
/// [`refine`]: RunEvent::RunBegin
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunEvent {
    /// An experiment-harness trial starts (one seeded heuristic
    /// invocation).
    TrialBegin {
        /// Trial index within the trial set.
        trial: u64,
        /// Seed of the trial.
        seed: u64,
        /// Heuristic display name.
        heuristic: String,
        /// Instance name.
        instance: String,
    },
    /// The trial finished.
    TrialEnd {
        /// Trial index within the trial set.
        trial: u64,
        /// Seed of the trial.
        seed: u64,
        /// Final weighted cut.
        cut: u64,
        /// Whether the final solution was balanced.
        balanced: bool,
    },
    /// A flat-engine refinement starts (one `refine` call — the
    /// multilevel wrapper emits one per level, plus one per initial try).
    RunBegin {
        /// Weighted cut of the starting solution.
        cut: u64,
    },
    /// The refinement converged.
    RunEnd {
        /// Final weighted cut.
        cut: u64,
        /// Number of passes executed.
        passes: usize,
    },
    /// An FM pass starts with freshly seeded gain containers.
    PassBegin {
        /// Zero-based pass index within the run.
        pass: usize,
        /// Weighted cut at pass start.
        cut: u64,
        /// Free vertices inserted into the gain containers.
        eligible: usize,
    },
    /// Cells wider than the balance window were kept out of the gain
    /// containers this pass (`FmConfig::exclude_overweight`). Only
    /// emitted when the count is nonzero.
    OverweightExcluded {
        /// Zero-based pass index.
        pass: usize,
        /// Number of excluded cells.
        count: usize,
    },
    /// One tentative move was applied (emitted only for enabled sinks).
    Move {
        /// Moved vertex id.
        vertex: u64,
        /// Realized gain: cut before the move minus cut after (may be
        /// negative; under CLIP this is *not* the bucket key).
        gain: i64,
        /// Weighted cut after the move.
        cut: u64,
    },
    /// One tentative move was undone while rolling back to the best
    /// prefix (emitted only for enabled sinks, in undo order).
    Rollback {
        /// Un-moved vertex id.
        vertex: u64,
        /// Weighted cut after the undo.
        cut: u64,
    },
    /// The pass corked (§2.3): it ended with movable vertices left in the
    /// containers but moved fewer than `CORKED_FRACTION` of its eligible
    /// vertices.
    Corked {
        /// Zero-based pass index.
        pass: usize,
        /// Moves tentatively made.
        moves_made: usize,
        /// Eligible vertices at pass start.
        eligible: usize,
    },
    /// The pass finished (after rollback).
    PassEnd {
        /// Zero-based pass index.
        pass: usize,
        /// Weighted cut after rollback to the best prefix.
        cut: u64,
        /// Moves tentatively made.
        moves_made: usize,
        /// Moves undone by the rollback.
        moves_rolled_back: usize,
        /// Whether the pass ended with movable vertices still available
        /// (the corking precondition).
        leftovers: bool,
        /// Whether the pass corked.
        corked: bool,
    },
    /// Coarsening produced the next (smaller) level of the hierarchy.
    LevelDown {
        /// One-based coarse level index (1 = first clustering).
        level: usize,
        /// Vertices of the coarse graph.
        vertices: usize,
        /// Nets of the coarse graph.
        nets: usize,
    },
    /// Uncoarsening is about to refine at a level (0 = the input graph).
    LevelUp {
        /// Level index about to be refined (0 = input graph).
        level: usize,
        /// Vertices of the graph at this level.
        vertices: usize,
        /// Nets of the graph at this level.
        nets: usize,
    },
    /// A V-cycle on the incumbent best solution starts.
    VcycleBegin {
        /// Zero-based V-cycle index.
        index: usize,
        /// Incumbent cut entering the cycle.
        cut: u64,
    },
    /// The V-cycle finished.
    VcycleEnd {
        /// Zero-based V-cycle index.
        index: usize,
        /// Cut produced by the cycle (kept only if it improves).
        cut: u64,
    },
    /// The execution context's budget ran out (deadline expired or the
    /// cancellation token flipped). Emitted exactly once by the engine
    /// layer that observes the exhaustion, right before it returns its
    /// best-so-far outcome; never emitted on the
    /// [`Completed`](StopReason::Completed) path, so pre-budget golden
    /// streams are unchanged.
    BudgetExhausted {
        /// Why the budget check fired ([`StopReason::Deadline`] or
        /// [`StopReason::Cancelled`]).
        reason: StopReason,
    },
    /// One independent start of a *budgeted* multi-start sweep begins.
    /// Only the budgeted driver emits start brackets — the fixed-count
    /// drivers predate them and keep their pinned streams.
    StartBegin {
        /// Zero-based start index.
        index: u64,
        /// Seed of the start.
        seed: u64,
    },
    /// The budgeted start finished (completed or interrupted).
    StartEnd {
        /// Zero-based start index.
        index: u64,
        /// Seed of the start.
        seed: u64,
        /// Cut the start achieved.
        cut: u64,
        /// `true` if the start ran to natural convergence — only
        /// completed starts compete for the reported best-so-far.
        completed: bool,
    },
    /// The partition auditor found a discrepancy between the engine's
    /// incremental bookkeeping and an independent from-scratch
    /// recomputation. Never emitted with auditing off (the default), so
    /// pre-audit golden streams are unchanged.
    InvariantViolation {
        /// Name of the failed check (`"cut"`, `"balance"`, `"fixed"`,
        /// `"gain"`).
        check: String,
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// A multi-start worker panicked; its start was isolated and
    /// discarded, and the sweep continued with the surviving starts.
    StartAborted {
        /// Zero-based start index of the panicked start.
        index: u64,
        /// Seed of the panicked start.
        seed: u64,
    },
    /// A shard of a parallel refinement round panicked; its proposals were
    /// discarded and the round continued with the surviving shards
    /// (best-of-survivors degradation, mirroring
    /// [`StartAborted`](RunEvent::StartAborted) at round granularity).
    ShardAborted {
        /// Zero-based round index within the parallel refinement run.
        round: u64,
        /// Zero-based shard index of the panicked shard.
        shard: u64,
    },
    /// A run reused a previously built coarsening hierarchy instead of
    /// coarsening from scratch (the partitioning service's hierarchy
    /// cache, keyed by `(instance digest, coarsening config, seed)`).
    /// The cost of the skipped work is exactly the hierarchy build of a
    /// fresh run; the events that follow are identical to a fresh run on
    /// the same hierarchy, so cache hits are observable — and assertable —
    /// from the trace stream alone.
    HierarchyReused {
        /// Number of coarse levels in the reused hierarchy.
        levels: usize,
    },
    /// The n-level contraction phase starts (the n-level analogue of the
    /// [`LevelDown`](RunEvent::LevelDown) bracket: one bracket for the
    /// whole phase rather than one event per single-pair contraction,
    /// keeping golden traces compact).
    ContractionBegin {
        /// Active vertices before the first contraction.
        vertices: usize,
        /// Live nets (≥ 2 active pins) before the first contraction.
        nets: usize,
    },
    /// The n-level contraction phase ends.
    ContractionEnd {
        /// Mementos recorded (single-pair contractions performed).
        contractions: usize,
        /// Active vertices remaining at the coarsest point.
        vertices: usize,
        /// Live nets remaining at the coarsest point.
        nets: usize,
    },
    /// The n-level uncontraction/refinement phase starts (the analogue of
    /// the [`LevelUp`](RunEvent::LevelUp) bracket).
    UncontractionBegin {
        /// Mementos about to be undone, one localized refinement each.
        contractions: usize,
    },
    /// The n-level uncontraction/refinement phase ends.
    UncontractionEnd {
        /// Localized refinement moves applied across the whole phase.
        moves: usize,
        /// Weighted cut after the final uncontraction.
        cut: u64,
    },
}

/// One scalar field of an event.
#[derive(Clone, Copy)]
enum Field<'a> {
    Uint(u64),
    Int(i64),
    Bool(bool),
    Str(&'a str),
}

/// Most fields any event has: `PassEnd`'s six plus `"ev"`.
const MAX_FIELDS: usize = 7;

/// An event's `(key, value)` pairs, held on the stack.
struct Fields<'a> {
    pairs: [(&'static str, Field<'a>); MAX_FIELDS],
    len: usize,
}

impl Default for Fields<'_> {
    fn default() -> Self {
        Fields {
            pairs: [("", Field::Bool(false)); MAX_FIELDS],
            len: 0,
        }
    }
}

impl<'a> Fields<'a> {
    fn push(&mut self, key: &'static str, value: Field<'a>) {
        self.pairs[self.len] = (key, value);
        self.len += 1;
    }

    fn as_slice(&self) -> &[(&'static str, Field<'a>)] {
        &self.pairs[..self.len]
    }

    fn as_mut_slice(&mut self) -> &mut [(&'static str, Field<'a>)] {
        &mut self.pairs[..self.len]
    }
}

/// Event kind names, in [`RunEvent::kind_index`] order.
pub const EVENT_KINDS: [&str; 25] = [
    "trial_begin",
    "trial_end",
    "run_begin",
    "run_end",
    "pass_begin",
    "overweight_excluded",
    "move",
    "rollback",
    "corked",
    "pass_end",
    "level_down",
    "level_up",
    "vcycle_begin",
    "vcycle_end",
    "budget_exhausted",
    "start_begin",
    "start_end",
    "invariant_violation",
    "start_aborted",
    "shard_aborted",
    "hierarchy_reused",
    "contraction_begin",
    "contraction_end",
    "uncontraction_begin",
    "uncontraction_end",
];

impl RunEvent {
    /// Stable snake_case name of the variant (the `"ev"` field of the
    /// JSONL schema).
    pub fn kind(&self) -> &'static str {
        EVENT_KINDS[self.kind_index()]
    }

    /// Dense index of the variant, for counter arrays.
    pub fn kind_index(&self) -> usize {
        match self {
            RunEvent::TrialBegin { .. } => 0,
            RunEvent::TrialEnd { .. } => 1,
            RunEvent::RunBegin { .. } => 2,
            RunEvent::RunEnd { .. } => 3,
            RunEvent::PassBegin { .. } => 4,
            RunEvent::OverweightExcluded { .. } => 5,
            RunEvent::Move { .. } => 6,
            RunEvent::Rollback { .. } => 7,
            RunEvent::Corked { .. } => 8,
            RunEvent::PassEnd { .. } => 9,
            RunEvent::LevelDown { .. } => 10,
            RunEvent::LevelUp { .. } => 11,
            RunEvent::VcycleBegin { .. } => 12,
            RunEvent::VcycleEnd { .. } => 13,
            RunEvent::BudgetExhausted { .. } => 14,
            RunEvent::StartBegin { .. } => 15,
            RunEvent::StartEnd { .. } => 16,
            RunEvent::InvariantViolation { .. } => 17,
            RunEvent::StartAborted { .. } => 18,
            RunEvent::ShardAborted { .. } => 19,
            RunEvent::HierarchyReused { .. } => 20,
            RunEvent::ContractionBegin { .. } => 21,
            RunEvent::ContractionEnd { .. } => 22,
            RunEvent::UncontractionBegin { .. } => 23,
            RunEvent::UncontractionEnd { .. } => 24,
        }
    }

    /// Serializes the event as a flat JSON object with an `"ev"` kind
    /// field (one line of the JSONL schema).
    pub fn to_json(&self) -> JsonValue {
        let fields = self.fields();
        JsonValue::object(fields.as_slice().iter().map(|&(key, value)| {
            let value = match value {
                Field::Uint(x) => JsonValue::from(x),
                Field::Int(x) => JsonValue::from(x),
                Field::Bool(b) => JsonValue::Bool(b),
                Field::Str(s) => JsonValue::string(s),
            };
            (key, value)
        }))
    }

    /// Appends the text of [`to_json`](RunEvent::to_json) to `out`,
    /// byte for byte, without building the JSON tree: keys in sorted
    /// order, numbers and strings through the formatting `JsonValue`
    /// uses.
    ///
    /// ```
    /// use hypart_trace::RunEvent;
    ///
    /// let event = RunEvent::Move { vertex: 17, gain: -3, cut: 503 };
    /// let mut line = Vec::new();
    /// event.write_json(&mut line);
    /// assert_eq!(line, br#"{"cut":503,"ev":"move","gain":-3,"vertex":17}"#);
    /// assert_eq!(line, event.to_json().to_string().into_bytes());
    /// ```
    pub fn write_json(&self, out: &mut Vec<u8>) {
        let mut fields = self.fields();
        let fields = fields.as_mut_slice();
        fields.sort_unstable_by_key(|&(key, _)| key);
        out.push(b'{');
        for (i, &(key, value)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            json::push_string(out, key);
            out.push(b':');
            match value {
                Field::Uint(x) => json::push_number(out, x as f64),
                Field::Int(x) => json::push_number(out, x as f64),
                Field::Bool(b) => out.extend_from_slice(if b { b"true" } else { b"false" }),
                Field::Str(s) => json::push_string(out, s),
            }
        }
        out.push(b'}');
    }

    /// The event's fields, `"ev"` first and then in declaration order:
    /// the one list both [`to_json`](RunEvent::to_json) and
    /// [`write_json`](RunEvent::write_json) render.
    fn fields(&self) -> Fields<'_> {
        use Field::{Bool, Int, Str, Uint};
        let u = |x: usize| Uint(x as u64);
        let mut fields = Fields::default();
        fields.push("ev", Str(self.kind()));
        let rest: &[(&'static str, Field<'_>)] = match self {
            RunEvent::TrialBegin {
                trial,
                seed,
                heuristic,
                instance,
            } => &[
                ("trial", Uint(*trial)),
                ("seed", Uint(*seed)),
                ("heuristic", Str(heuristic)),
                ("instance", Str(instance)),
            ],
            RunEvent::TrialEnd {
                trial,
                seed,
                cut,
                balanced,
            } => &[
                ("trial", Uint(*trial)),
                ("seed", Uint(*seed)),
                ("cut", Uint(*cut)),
                ("balanced", Bool(*balanced)),
            ],
            RunEvent::RunBegin { cut } => &[("cut", Uint(*cut))],
            RunEvent::RunEnd { cut, passes } => &[("cut", Uint(*cut)), ("passes", u(*passes))],
            RunEvent::PassBegin {
                pass,
                cut,
                eligible,
            } => &[
                ("pass", u(*pass)),
                ("cut", Uint(*cut)),
                ("eligible", u(*eligible)),
            ],
            RunEvent::OverweightExcluded { pass, count } => {
                &[("pass", u(*pass)), ("count", u(*count))]
            }
            RunEvent::Move { vertex, gain, cut } => &[
                ("vertex", Uint(*vertex)),
                ("gain", Int(*gain)),
                ("cut", Uint(*cut)),
            ],
            RunEvent::Rollback { vertex, cut } => &[("vertex", Uint(*vertex)), ("cut", Uint(*cut))],
            RunEvent::Corked {
                pass,
                moves_made,
                eligible,
            } => &[
                ("pass", u(*pass)),
                ("moves_made", u(*moves_made)),
                ("eligible", u(*eligible)),
            ],
            RunEvent::PassEnd {
                pass,
                cut,
                moves_made,
                moves_rolled_back,
                leftovers,
                corked,
            } => &[
                ("pass", u(*pass)),
                ("cut", Uint(*cut)),
                ("moves_made", u(*moves_made)),
                ("moves_rolled_back", u(*moves_rolled_back)),
                ("leftovers", Bool(*leftovers)),
                ("corked", Bool(*corked)),
            ],
            RunEvent::LevelDown {
                level,
                vertices,
                nets,
            }
            | RunEvent::LevelUp {
                level,
                vertices,
                nets,
            } => &[
                ("level", u(*level)),
                ("vertices", u(*vertices)),
                ("nets", u(*nets)),
            ],
            RunEvent::VcycleBegin { index, cut } | RunEvent::VcycleEnd { index, cut } => {
                &[("index", u(*index)), ("cut", Uint(*cut))]
            }
            RunEvent::BudgetExhausted { reason } => &[("reason", Str(reason.name()))],
            RunEvent::StartBegin { index, seed } | RunEvent::StartAborted { index, seed } => {
                &[("index", Uint(*index)), ("seed", Uint(*seed))]
            }
            RunEvent::StartEnd {
                index,
                seed,
                cut,
                completed,
            } => &[
                ("index", Uint(*index)),
                ("seed", Uint(*seed)),
                ("cut", Uint(*cut)),
                ("completed", Bool(*completed)),
            ],
            RunEvent::InvariantViolation { check, detail } => {
                &[("check", Str(check)), ("detail", Str(detail))]
            }
            RunEvent::ShardAborted { round, shard } => {
                &[("round", Uint(*round)), ("shard", Uint(*shard))]
            }
            RunEvent::HierarchyReused { levels } => &[("levels", u(*levels))],
            RunEvent::ContractionBegin { vertices, nets } => {
                &[("vertices", u(*vertices)), ("nets", u(*nets))]
            }
            RunEvent::ContractionEnd {
                contractions,
                vertices,
                nets,
            } => &[
                ("contractions", u(*contractions)),
                ("vertices", u(*vertices)),
                ("nets", u(*nets)),
            ],
            RunEvent::UncontractionBegin { contractions } => &[("contractions", u(*contractions))],
            RunEvent::UncontractionEnd { moves, cut } => {
                &[("moves", u(*moves)), ("cut", Uint(*cut))]
            }
        };
        for &(key, value) in rest {
            fields.push(key, value);
        }
        fields
    }

    /// Parses one JSONL object back into an event.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing/ill-typed field.
    pub fn from_json(value: &JsonValue) -> Result<RunEvent, String> {
        let kind = value
            .get("ev")
            .and_then(JsonValue::as_str)
            .ok_or("missing `ev` field")?;
        let u = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{kind}: missing u64 `{key}`"))
        };
        let us = |key: &str| -> Result<usize, String> { u(key).map(|x| x as usize) };
        let i = |key: &str| -> Result<i64, String> {
            value
                .get(key)
                .and_then(JsonValue::as_i64)
                .ok_or_else(|| format!("{kind}: missing i64 `{key}`"))
        };
        let b = |key: &str| -> Result<bool, String> {
            value
                .get(key)
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| format!("{kind}: missing bool `{key}`"))
        };
        let s = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind}: missing string `{key}`"))
        };
        match kind {
            "trial_begin" => Ok(RunEvent::TrialBegin {
                trial: u("trial")?,
                seed: u("seed")?,
                heuristic: s("heuristic")?,
                instance: s("instance")?,
            }),
            "trial_end" => Ok(RunEvent::TrialEnd {
                trial: u("trial")?,
                seed: u("seed")?,
                cut: u("cut")?,
                balanced: b("balanced")?,
            }),
            "run_begin" => Ok(RunEvent::RunBegin { cut: u("cut")? }),
            "run_end" => Ok(RunEvent::RunEnd {
                cut: u("cut")?,
                passes: us("passes")?,
            }),
            "pass_begin" => Ok(RunEvent::PassBegin {
                pass: us("pass")?,
                cut: u("cut")?,
                eligible: us("eligible")?,
            }),
            "overweight_excluded" => Ok(RunEvent::OverweightExcluded {
                pass: us("pass")?,
                count: us("count")?,
            }),
            "move" => Ok(RunEvent::Move {
                vertex: u("vertex")?,
                gain: i("gain")?,
                cut: u("cut")?,
            }),
            "rollback" => Ok(RunEvent::Rollback {
                vertex: u("vertex")?,
                cut: u("cut")?,
            }),
            "corked" => Ok(RunEvent::Corked {
                pass: us("pass")?,
                moves_made: us("moves_made")?,
                eligible: us("eligible")?,
            }),
            "pass_end" => Ok(RunEvent::PassEnd {
                pass: us("pass")?,
                cut: u("cut")?,
                moves_made: us("moves_made")?,
                moves_rolled_back: us("moves_rolled_back")?,
                leftovers: b("leftovers")?,
                corked: b("corked")?,
            }),
            "level_down" => Ok(RunEvent::LevelDown {
                level: us("level")?,
                vertices: us("vertices")?,
                nets: us("nets")?,
            }),
            "level_up" => Ok(RunEvent::LevelUp {
                level: us("level")?,
                vertices: us("vertices")?,
                nets: us("nets")?,
            }),
            "vcycle_begin" => Ok(RunEvent::VcycleBegin {
                index: us("index")?,
                cut: u("cut")?,
            }),
            "vcycle_end" => Ok(RunEvent::VcycleEnd {
                index: us("index")?,
                cut: u("cut")?,
            }),
            "budget_exhausted" => Ok(RunEvent::BudgetExhausted {
                reason: StopReason::parse(&s("reason")?)?,
            }),
            "start_begin" => Ok(RunEvent::StartBegin {
                index: u("index")?,
                seed: u("seed")?,
            }),
            "start_end" => Ok(RunEvent::StartEnd {
                index: u("index")?,
                seed: u("seed")?,
                cut: u("cut")?,
                completed: b("completed")?,
            }),
            "invariant_violation" => Ok(RunEvent::InvariantViolation {
                check: s("check")?,
                detail: s("detail")?,
            }),
            "start_aborted" => Ok(RunEvent::StartAborted {
                index: u("index")?,
                seed: u("seed")?,
            }),
            "shard_aborted" => Ok(RunEvent::ShardAborted {
                round: u("round")?,
                shard: u("shard")?,
            }),
            "hierarchy_reused" => Ok(RunEvent::HierarchyReused {
                levels: us("levels")?,
            }),
            "contraction_begin" => Ok(RunEvent::ContractionBegin {
                vertices: us("vertices")?,
                nets: us("nets")?,
            }),
            "contraction_end" => Ok(RunEvent::ContractionEnd {
                contractions: us("contractions")?,
                vertices: us("vertices")?,
                nets: us("nets")?,
            }),
            "uncontraction_begin" => Ok(RunEvent::UncontractionBegin {
                contractions: us("contractions")?,
            }),
            "uncontraction_end" => Ok(RunEvent::UncontractionEnd {
                moves: us("moves")?,
                cut: u("cut")?,
            }),
            other => Err(format!("unknown event kind `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<RunEvent> {
        vec![
            RunEvent::TrialBegin {
                trial: 0,
                seed: 42,
                heuristic: "ML LIFO".into(),
                instance: "ibm01\"q".into(),
            },
            RunEvent::TrialEnd {
                trial: 0,
                seed: 42,
                cut: 312,
                balanced: true,
            },
            RunEvent::RunBegin { cut: 500 },
            RunEvent::RunEnd {
                cut: 300,
                passes: 3,
            },
            RunEvent::PassBegin {
                pass: 0,
                cut: 500,
                eligible: 120,
            },
            RunEvent::OverweightExcluded { pass: 0, count: 2 },
            RunEvent::Move {
                vertex: 17,
                gain: -3,
                cut: 503,
            },
            RunEvent::Rollback {
                vertex: 17,
                cut: 500,
            },
            RunEvent::Corked {
                pass: 1,
                moves_made: 2,
                eligible: 120,
            },
            RunEvent::PassEnd {
                pass: 1,
                cut: 480,
                moves_made: 2,
                moves_rolled_back: 1,
                leftovers: true,
                corked: true,
            },
            RunEvent::LevelDown {
                level: 1,
                vertices: 60,
                nets: 70,
            },
            RunEvent::LevelUp {
                level: 0,
                vertices: 120,
                nets: 140,
            },
            RunEvent::VcycleBegin { index: 0, cut: 310 },
            RunEvent::VcycleEnd { index: 0, cut: 305 },
            RunEvent::BudgetExhausted {
                reason: StopReason::Deadline,
            },
            RunEvent::StartBegin { index: 2, seed: 44 },
            RunEvent::StartEnd {
                index: 2,
                seed: 44,
                cut: 307,
                completed: false,
            },
            RunEvent::InvariantViolation {
                check: "cut".into(),
                detail: "reported 300, recomputed 301".into(),
            },
            RunEvent::StartAborted { index: 3, seed: 45 },
            RunEvent::ShardAborted { round: 2, shard: 1 },
            RunEvent::HierarchyReused { levels: 4 },
            RunEvent::ContractionBegin {
                vertices: 120,
                nets: 140,
            },
            RunEvent::ContractionEnd {
                contractions: 100,
                vertices: 20,
                nets: 25,
            },
            RunEvent::UncontractionBegin { contractions: 100 },
            RunEvent::UncontractionEnd {
                moves: 17,
                cut: 305,
            },
        ]
    }

    /// The tree-building `to_json` that the field lists replaced, kept
    /// as the oracle `to_json` and `write_json` must match byte for byte.
    fn oracle_to_json(event: &RunEvent) -> JsonValue {
        let ev = ("ev", JsonValue::string(event.kind()));
        match event {
            RunEvent::TrialBegin {
                trial,
                seed,
                heuristic,
                instance,
            } => JsonValue::object([
                ev,
                ("trial", (*trial).into()),
                ("seed", (*seed).into()),
                ("heuristic", JsonValue::string(heuristic.clone())),
                ("instance", JsonValue::string(instance.clone())),
            ]),
            RunEvent::TrialEnd {
                trial,
                seed,
                cut,
                balanced,
            } => JsonValue::object([
                ev,
                ("trial", (*trial).into()),
                ("seed", (*seed).into()),
                ("cut", (*cut).into()),
                ("balanced", (*balanced).into()),
            ]),
            RunEvent::RunBegin { cut } => JsonValue::object([ev, ("cut", (*cut).into())]),
            RunEvent::RunEnd { cut, passes } => {
                JsonValue::object([ev, ("cut", (*cut).into()), ("passes", (*passes).into())])
            }
            RunEvent::PassBegin {
                pass,
                cut,
                eligible,
            } => JsonValue::object([
                ev,
                ("pass", (*pass).into()),
                ("cut", (*cut).into()),
                ("eligible", (*eligible).into()),
            ]),
            RunEvent::OverweightExcluded { pass, count } => {
                JsonValue::object([ev, ("pass", (*pass).into()), ("count", (*count).into())])
            }
            RunEvent::Move { vertex, gain, cut } => JsonValue::object([
                ev,
                ("vertex", (*vertex).into()),
                ("gain", (*gain).into()),
                ("cut", (*cut).into()),
            ]),
            RunEvent::Rollback { vertex, cut } => {
                JsonValue::object([ev, ("vertex", (*vertex).into()), ("cut", (*cut).into())])
            }
            RunEvent::Corked {
                pass,
                moves_made,
                eligible,
            } => JsonValue::object([
                ev,
                ("pass", (*pass).into()),
                ("moves_made", (*moves_made).into()),
                ("eligible", (*eligible).into()),
            ]),
            RunEvent::PassEnd {
                pass,
                cut,
                moves_made,
                moves_rolled_back,
                leftovers,
                corked,
            } => JsonValue::object([
                ev,
                ("pass", (*pass).into()),
                ("cut", (*cut).into()),
                ("moves_made", (*moves_made).into()),
                ("moves_rolled_back", (*moves_rolled_back).into()),
                ("leftovers", (*leftovers).into()),
                ("corked", (*corked).into()),
            ]),
            RunEvent::LevelDown {
                level,
                vertices,
                nets,
            } => JsonValue::object([
                ev,
                ("level", (*level).into()),
                ("vertices", (*vertices).into()),
                ("nets", (*nets).into()),
            ]),
            RunEvent::LevelUp {
                level,
                vertices,
                nets,
            } => JsonValue::object([
                ev,
                ("level", (*level).into()),
                ("vertices", (*vertices).into()),
                ("nets", (*nets).into()),
            ]),
            RunEvent::VcycleBegin { index, cut } => {
                JsonValue::object([ev, ("index", (*index).into()), ("cut", (*cut).into())])
            }
            RunEvent::VcycleEnd { index, cut } => {
                JsonValue::object([ev, ("index", (*index).into()), ("cut", (*cut).into())])
            }
            RunEvent::BudgetExhausted { reason } => {
                JsonValue::object([ev, ("reason", JsonValue::string(reason.name()))])
            }
            RunEvent::StartBegin { index, seed } => {
                JsonValue::object([ev, ("index", (*index).into()), ("seed", (*seed).into())])
            }
            RunEvent::StartEnd {
                index,
                seed,
                cut,
                completed,
            } => JsonValue::object([
                ev,
                ("index", (*index).into()),
                ("seed", (*seed).into()),
                ("cut", (*cut).into()),
                ("completed", (*completed).into()),
            ]),
            RunEvent::InvariantViolation { check, detail } => JsonValue::object([
                ev,
                ("check", JsonValue::string(check.clone())),
                ("detail", JsonValue::string(detail.clone())),
            ]),
            RunEvent::StartAborted { index, seed } => {
                JsonValue::object([ev, ("index", (*index).into()), ("seed", (*seed).into())])
            }
            RunEvent::ShardAborted { round, shard } => {
                JsonValue::object([ev, ("round", (*round).into()), ("shard", (*shard).into())])
            }
            RunEvent::HierarchyReused { levels } => {
                JsonValue::object([ev, ("levels", (*levels).into())])
            }
            RunEvent::ContractionBegin { vertices, nets } => JsonValue::object([
                ev,
                ("vertices", (*vertices).into()),
                ("nets", (*nets).into()),
            ]),
            RunEvent::ContractionEnd {
                contractions,
                vertices,
                nets,
            } => JsonValue::object([
                ev,
                ("contractions", (*contractions).into()),
                ("vertices", (*vertices).into()),
                ("nets", (*nets).into()),
            ]),
            RunEvent::UncontractionBegin { contractions } => {
                JsonValue::object([ev, ("contractions", (*contractions).into())])
            }
            RunEvent::UncontractionEnd { moves, cut } => {
                JsonValue::object([ev, ("moves", (*moves).into()), ("cut", (*cut).into())])
            }
        }
    }

    /// Integers from every range the number formatting treats
    /// differently: small ones, the switch to float display at 9e15,
    /// 2^53, and the whole `u64` range up to `u64::MAX`, where the tree
    /// prints the nearest `f64`.
    fn wire_u64() -> impl Strategy<Value = u64> {
        prop_oneof![
            0u64..1_000,
            8_999_999_999_999_990u64..9_000_000_000_000_010,
            (1u64 << 53) - 4..(1u64 << 53) + 4,
            any::<u64>(),
            Just(u64::MAX),
        ]
    }

    /// Gains: small ones of either sign and the whole `i64` range.
    fn wire_i64() -> impl Strategy<Value = i64> {
        prop_oneof![
            -1_000i64..1_000,
            -9_000_000_000_000_010i64..-8_999_999_999_999_990,
            any::<i64>(),
            Just(i64::MIN),
        ]
    }

    /// Strings with quotes, backslashes, C0 controls and non-ASCII text.
    fn wire_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(crate::json::tests::wire_char(), 0..12)
            .prop_map(|chars| chars.into_iter().collect())
    }

    /// The event of kind `kind` (an [`EVENT_KINDS`] index) built from
    /// drawn values.
    fn event_of(
        kind: usize,
        [a, b, c, d]: [u64; 4],
        gain: i64,
        (p, q): (bool, bool),
        (s, t): (String, String),
        reason: StopReason,
    ) -> RunEvent {
        let (ua, ub, uc, ud) = (a as usize, b as usize, c as usize, d as usize);
        match kind {
            0 => RunEvent::TrialBegin {
                trial: a,
                seed: b,
                heuristic: s,
                instance: t,
            },
            1 => RunEvent::TrialEnd {
                trial: a,
                seed: b,
                cut: c,
                balanced: p,
            },
            2 => RunEvent::RunBegin { cut: a },
            3 => RunEvent::RunEnd { cut: a, passes: ub },
            4 => RunEvent::PassBegin {
                pass: ua,
                cut: b,
                eligible: uc,
            },
            5 => RunEvent::OverweightExcluded {
                pass: ua,
                count: ub,
            },
            6 => RunEvent::Move {
                vertex: a,
                gain,
                cut: b,
            },
            7 => RunEvent::Rollback { vertex: a, cut: b },
            8 => RunEvent::Corked {
                pass: ua,
                moves_made: ub,
                eligible: uc,
            },
            9 => RunEvent::PassEnd {
                pass: ua,
                cut: b,
                moves_made: uc,
                moves_rolled_back: ud,
                leftovers: p,
                corked: q,
            },
            10 => RunEvent::LevelDown {
                level: ua,
                vertices: ub,
                nets: uc,
            },
            11 => RunEvent::LevelUp {
                level: ua,
                vertices: ub,
                nets: uc,
            },
            12 => RunEvent::VcycleBegin { index: ua, cut: b },
            13 => RunEvent::VcycleEnd { index: ua, cut: b },
            14 => RunEvent::BudgetExhausted { reason },
            15 => RunEvent::StartBegin { index: a, seed: b },
            16 => RunEvent::StartEnd {
                index: a,
                seed: b,
                cut: c,
                completed: p,
            },
            17 => RunEvent::InvariantViolation {
                check: s,
                detail: t,
            },
            18 => RunEvent::StartAborted { index: a, seed: b },
            19 => RunEvent::ShardAborted { round: a, shard: b },
            20 => RunEvent::HierarchyReused { levels: ua },
            21 => RunEvent::ContractionBegin {
                vertices: ua,
                nets: ub,
            },
            22 => RunEvent::ContractionEnd {
                contractions: ua,
                vertices: ub,
                nets: uc,
            },
            23 => RunEvent::UncontractionBegin { contractions: ua },
            _ => RunEvent::UncontractionEnd { moves: ua, cut: b },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5_000))]

        #[test]
        fn direct_writer_matches_the_tree(
            (kind, ints, gain, flags, strings, reason) in (
                0..EVENT_KINDS.len(),
                (wire_u64(), wire_u64(), wire_u64(), wire_u64()),
                wire_i64(),
                (any::<bool>(), any::<bool>()),
                (wire_string(), wire_string()),
                0usize..3,
            ),
        ) {
            let (a, b, c, d) = ints;
            let reason = [StopReason::Completed, StopReason::Deadline, StopReason::Cancelled][reason];
            let event = event_of(kind, [a, b, c, d], gain, flags, strings, reason);
            prop_assert_eq!(event.kind_index(), kind);
            let oracle = oracle_to_json(&event).to_string();
            // The writer appends after whatever the buffer holds.
            let mut out = b"prefix".to_vec();
            event.write_json(&mut out);
            prop_assert_eq!(String::from_utf8(out).unwrap(), format!("prefix{oracle}"));
            prop_assert_eq!(event.to_json().to_string(), oracle);
        }
    }

    #[test]
    fn kinds_are_dense_and_distinct() {
        let events = samples();
        assert_eq!(events.len(), EVENT_KINDS.len());
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.kind_index(), i);
            assert_eq!(e.kind(), EVENT_KINDS[i]);
        }
    }

    #[test]
    fn json_round_trip_every_variant() {
        for event in samples() {
            let line = event.to_json().to_string();
            let parsed = RunEvent::from_json(&JsonValue::parse(&line).unwrap()).unwrap();
            assert_eq!(parsed, event, "{line}");
        }
    }

    #[test]
    fn from_json_rejects_malformed() {
        let missing = JsonValue::parse(r#"{"ev":"move","vertex":1}"#).unwrap();
        assert!(RunEvent::from_json(&missing).is_err());
        let unknown = JsonValue::parse(r#"{"ev":"warp"}"#).unwrap();
        assert!(RunEvent::from_json(&unknown).is_err());
        let no_ev = JsonValue::parse(r#"{"cut":1}"#).unwrap();
        assert!(RunEvent::from_json(&no_ev).is_err());
    }
}
