//! Configuration of the FM engine: every implicit implementation decision
//! of the Fiduccia–Mattheyses description, made explicit.

/// How the engine selects moves from the gain structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SelectionRule {
    /// Classic FM: bucket key = current gain; at pass start every free
    /// vertex is inserted at its initial gain.
    #[default]
    Classic,
    /// CLIP \[Dutt–Deng ICCAD-96\]: bucket key = *cumulative delta gain*
    /// (actual gain minus initial gain). At pass start every free vertex
    /// sits in the 0 bucket, ordered by descending initial gain — which is
    /// exactly what makes CLIP susceptible to *corking* on actual-area
    /// instances (§2.3 of the paper).
    Clip,
}

/// Tie-breaking between the two partitions' highest-gain buckets when both
/// head moves are legal and have equal gain (§2.2, first implicit decision).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum TieBreak {
    /// Choose the move that is *not* from the partition the last vertex was
    /// moved from.
    #[default]
    Away,
    /// Always prefer the move whose source is partition 0.
    Part0,
    /// Choose the move from the *same* partition as the last vertex moved.
    Toward,
}

/// Whether to perform a gain-container update when a vertex's delta gain is
/// zero (§2.2, second implicit decision).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ZeroDeltaPolicy {
    /// Re-insert the vertex even on a zero delta, shifting its position
    /// within the same bucket ("All∆gain" in Table 1).
    All,
    /// Skip the update entirely, leaving the vertex's position unchanged
    /// ("Nonzero" in Table 1). This is the side effect the original FM-82
    /// netcut-specific update rule has implicitly.
    #[default]
    Nonzero,
}

/// Where a (re-)inserted vertex is attached within its gain bucket
/// (§2.2, third implicit decision; studied by Hagen–Huang–Kahng EuroDAC-95).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum InsertionPolicy {
    /// Insert at the head: last-in-first-out. What every strong FM
    /// implementation has used since \[HHK95\].
    #[default]
    Lifo,
    /// Insert at the tail: first-in-first-out.
    Fifo,
    /// Insert at head or tail uniformly at random (constant-time
    /// approximation of random-position insertion). Each pass draws one
    /// number per (re-)insertion up to where the pass cutoff ends it, so
    /// a run's draws, and with them its results, depend on where passes
    /// stop (DESIGN §6).
    Random,
}

/// Tie-breaking when several prefixes of the move sequence achieve the same
/// best cut (§2.2, fourth implicit decision).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PassBestRule {
    /// Roll back to the *first* best prefix encountered.
    FirstSeen,
    /// Roll back to the *last* best prefix encountered.
    #[default]
    LastSeen,
    /// Roll back to the best prefix whose partition weights are furthest
    /// from violating the balance constraint.
    MostBalanced,
}

/// What to do when the head move of a gain bucket is illegal (§2.3, first
/// observation: partitioners look only at the first move in a bucket).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum IllegalHeadPolicy {
    /// Skip the whole bucket and continue with the next lower gain bucket
    /// of the same partition.
    #[default]
    SkipBucket,
    /// Skip every remaining bucket of that partition for this selection.
    SkipSide,
}

/// How the initial solution is generated before the first pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum InitialSolution {
    /// Shuffle the vertices, then greedily add each to the currently
    /// lighter side (respecting fixed vertices). Produces feasible or
    /// near-feasible starts with high probability.
    #[default]
    RandomBalanced,
    /// Sort by descending area, then greedily add to the lighter side with
    /// randomized tie-breaking. More reliable on macro-heavy instances.
    AreaSortedGreedy,
    /// Independently assign each free vertex to a uniformly random side —
    /// ignores balance entirely; the weakest reasonable choice (used by the
    /// "Reported"-style baseline).
    UniformRandom,
}

/// Complete configuration of [`crate::FmPartitioner`].
///
/// The defaults are the strong choices identified in the paper; the
/// constructors give the four named engine variants of Table 1 plus the
/// deliberately weak "Reported"-style baselines of Tables 2–3.
///
/// Every field has a `with_*` builder, so any cell of the paper's Table 1
/// grid is one chained expression. How the knobs map onto that grid:
///
/// | knob | Table 1 axis | strong default |
/// |------|--------------|----------------|
/// | [`selection`](Self::selection) | FM vs CLIP row family | `Classic` |
/// | [`zero_delta`](Self::zero_delta) | "All∆gain" vs "Nonzero" columns | `Nonzero` |
/// | [`tie_break`](Self::tie_break) | tie-break bias columns | `Away` |
/// | [`insertion`](Self::insertion) | LIFO / FIFO / random rows | `Lifo` |
/// | [`pass_best`](Self::pass_best) | §2.2 rollback decision | `LastSeen` |
/// | [`illegal_head`](Self::illegal_head) | §2.3 bucket-head handling | `SkipBucket` |
/// | [`exclude_overweight`](Self::exclude_overweight) | §2.3 anti-corking fix | `true` |
/// | [`lookahead`](Self::lookahead) | §2.3 in-bucket lookahead | `1` |
/// | [`max_passes`](Self::max_passes) | pass-limit stop rule | `64` |
/// | [`initial`](Self::initial) | initial-solution generator | `RandomBalanced` |
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FmConfig {
    /// Classic FM or CLIP selection.
    pub selection: SelectionRule,
    /// Tie-break between the two sides' equal-gain head moves.
    pub tie_break: TieBreak,
    /// Zero-delta-gain update policy.
    pub zero_delta: ZeroDeltaPolicy,
    /// Bucket insertion position policy.
    pub insertion: InsertionPolicy,
    /// Which equal-cut prefix to keep at end of pass.
    pub pass_best: PassBestRule,
    /// What to skip when a bucket head move is illegal.
    pub illegal_head: IllegalHeadPolicy,
    /// Do not insert cells wider than the balance window into the gain
    /// container (the paper's zero-overhead anti-corking fix; benefits all
    /// FM variants).
    pub exclude_overweight: bool,
    /// How many list entries to examine past an illegal head before giving
    /// up on a bucket (1 = head only; the paper finds larger values too
    /// slow and harmful to quality, but the knob exists to reproduce that
    /// experiment).
    pub lookahead: usize,
    /// Upper bound on the number of passes (a pass that fails to improve
    /// the cut always terminates the run regardless).
    pub max_passes: usize,
    /// Initial solution generator.
    pub initial: InitialSolution,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            selection: SelectionRule::default(),
            tie_break: TieBreak::default(),
            zero_delta: ZeroDeltaPolicy::default(),
            insertion: InsertionPolicy::default(),
            pass_best: PassBestRule::default(),
            illegal_head: IllegalHeadPolicy::default(),
            exclude_overweight: true,
            lookahead: 1,
            max_passes: 64,
            initial: InitialSolution::default(),
        }
    }
}

impl FmConfig {
    /// The authors' competent flat **LIFO FM** ("Our LIFO" in Table 2):
    /// classic selection, LIFO insertion, `Nonzero` updates, overweight
    /// cells excluded.
    pub fn lifo() -> Self {
        FmConfig::default()
    }

    /// The authors' competent flat **CLIP FM** ("Our CLIP" in Table 3):
    /// CLIP selection with the anti-corking overweight exclusion.
    pub fn clip() -> Self {
        FmConfig {
            selection: SelectionRule::Clip,
            ..FmConfig::default()
        }
    }

    /// A weak **"Reported"-style LIFO FM** standing in for the
    /// irreproducible implementation of \[Alpert, ISPD-98\] (Table 2):
    /// FIFO insertion masquerading as "a gain bucket", `All` updates,
    /// `Part0` bias, uniform-random initial solutions, no overweight
    /// exclusion, first-seen rollback.
    pub fn reported_lifo() -> Self {
        FmConfig {
            selection: SelectionRule::Classic,
            tie_break: TieBreak::Part0,
            zero_delta: ZeroDeltaPolicy::All,
            insertion: InsertionPolicy::Fifo,
            pass_best: PassBestRule::FirstSeen,
            illegal_head: IllegalHeadPolicy::SkipSide,
            exclude_overweight: false,
            lookahead: 1,
            max_passes: 64,
            initial: InitialSolution::UniformRandom,
        }
    }

    /// A weak **"Reported"-style CLIP FM** (Table 3): CLIP selection
    /// *without* the overweight exclusion — fully exposed to corking —
    /// plus the same weak secondary choices as [`reported_lifo`](Self::reported_lifo).
    pub fn reported_clip() -> Self {
        FmConfig {
            selection: SelectionRule::Clip,
            ..FmConfig::reported_lifo()
        }
    }

    /// Returns this configuration with a different tie-break rule
    /// (builder-style, for sweeping the Table 1 grid).
    pub fn with_tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Returns this configuration with a different zero-delta policy.
    pub fn with_zero_delta(mut self, zero_delta: ZeroDeltaPolicy) -> Self {
        self.zero_delta = zero_delta;
        self
    }

    /// Returns this configuration with a different insertion policy.
    pub fn with_insertion(mut self, insertion: InsertionPolicy) -> Self {
        self.insertion = insertion;
        self
    }

    /// Returns this configuration with a different selection rule.
    pub fn with_selection(mut self, selection: SelectionRule) -> Self {
        self.selection = selection;
        self
    }

    /// Returns this configuration with overweight exclusion switched
    /// on/off.
    pub fn with_exclude_overweight(mut self, exclude: bool) -> Self {
        self.exclude_overweight = exclude;
        self
    }

    /// Returns this configuration with a different in-bucket lookahead.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead == 0` (the head itself always counts).
    pub fn with_lookahead(mut self, lookahead: usize) -> Self {
        assert!(lookahead >= 1, "lookahead must be at least 1");
        self.lookahead = lookahead;
        self
    }

    /// Returns this configuration with a different initial-solution rule.
    pub fn with_initial(mut self, initial: InitialSolution) -> Self {
        self.initial = initial;
        self
    }

    /// Returns this configuration with a different illegal-head policy.
    pub fn with_illegal_head(mut self, illegal_head: IllegalHeadPolicy) -> Self {
        self.illegal_head = illegal_head;
        self
    }

    /// Returns this configuration with a different pass limit.
    ///
    /// # Panics
    ///
    /// Panics if `max_passes == 0` (the engine always runs one pass).
    pub fn with_max_passes(mut self, max_passes: usize) -> Self {
        assert!(max_passes >= 1, "max_passes must be at least 1");
        self.max_passes = max_passes;
        self
    }

    /// Returns this configuration with a different pass-best rule.
    pub fn with_pass_best(mut self, pass_best: PassBestRule) -> Self {
        self.pass_best = pass_best;
        self
    }

    /// Short human-readable label, e.g. `"CLIP/Nonzero/Away/LIFO"` — used
    /// as the algorithm column in regenerated tables.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            match self.selection {
                SelectionRule::Classic => "FM",
                SelectionRule::Clip => "CLIP",
            },
            match self.zero_delta {
                ZeroDeltaPolicy::All => "All",
                ZeroDeltaPolicy::Nonzero => "Nonzero",
            },
            match self.tie_break {
                TieBreak::Away => "Away",
                TieBreak::Part0 => "Part0",
                TieBreak::Toward => "Toward",
            },
            match self.insertion {
                InsertionPolicy::Lifo => "LIFO",
                InsertionPolicy::Fifo => "FIFO",
                InsertionPolicy::Random => "RAND",
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_strong_choices() {
        let c = FmConfig::default();
        assert_eq!(c.selection, SelectionRule::Classic);
        assert_eq!(c.zero_delta, ZeroDeltaPolicy::Nonzero);
        assert_eq!(c.insertion, InsertionPolicy::Lifo);
        assert!(c.exclude_overweight);
        assert_eq!(c.lookahead, 1);
    }

    #[test]
    fn presets_differ_where_the_paper_says() {
        assert_eq!(FmConfig::clip().selection, SelectionRule::Clip);
        assert!(FmConfig::clip().exclude_overweight);
        let weak = FmConfig::reported_clip();
        assert_eq!(weak.selection, SelectionRule::Clip);
        assert!(!weak.exclude_overweight);
        assert_eq!(weak.insertion, InsertionPolicy::Fifo);
        assert_eq!(weak.initial, InitialSolution::UniformRandom);
    }

    #[test]
    fn builder_methods_compose() {
        let c = FmConfig::lifo()
            .with_tie_break(TieBreak::Toward)
            .with_zero_delta(ZeroDeltaPolicy::All)
            .with_insertion(InsertionPolicy::Random)
            .with_lookahead(4);
        assert_eq!(c.tie_break, TieBreak::Toward);
        assert_eq!(c.zero_delta, ZeroDeltaPolicy::All);
        assert_eq!(c.insertion, InsertionPolicy::Random);
        assert_eq!(c.lookahead, 4);
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn zero_lookahead_panics() {
        let _ = FmConfig::default().with_lookahead(0);
    }

    #[test]
    fn label_is_compact() {
        assert_eq!(FmConfig::lifo().label(), "FM/Nonzero/Away/LIFO");
        assert_eq!(
            FmConfig::clip().with_tie_break(TieBreak::Part0).label(),
            "CLIP/Nonzero/Part0/LIFO"
        );
    }
}
