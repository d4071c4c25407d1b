//! Regeneration harness for every table and figure of the paper.
//!
//! Each public function rebuilds one evaluation artifact on the synthetic
//! ISPD98-like suite (see `hypart-benchgen` and DESIGN.md §4 for the
//! substitution rationale):
//!
//! | paper artifact | function | binary |
//! |----------------|----------|--------|
//! | Table 1 (implicit decisions × engines) | [`table1`] | `table1` |
//! | Table 2 (our vs reported LIFO) | [`table2`] | `table2` |
//! | Table 3 (our vs reported CLIP) | [`table3`] | `table3` |
//! | Tables 4–5 (hMetis-style quality/runtime sweep) | [`table45`] | `table45` |
//! | BSF curve methodology (§3.2) | [`bsf_experiment`] | `bsf_curve` |
//! | Pareto frontier methodology (§3.2) | [`pareto_experiment`] | `pareto_frontier` |
//! | Ranking diagram methodology (§3.2) | [`ranking_experiment`] | `ranking_diagram` |
//! | CLIP corking traces (§2.3) | [`corking_experiment`] | `corking_trace` |
//!
//! All functions take an [`ExperimentConfig`] so binaries and tests share
//! one code path at different scales.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hypart_benchgen::{ispd98_like, mcnc_like};
use hypart_core::{BalanceConstraint, FmConfig, RunCtx, SelectionRule, TieBreak, ZeroDeltaPolicy};
use hypart_eval::bsf::BsfCurve;
use hypart_eval::pareto::{frontier_report, pareto_frontier, PerfPoint};
use hypart_eval::ranking::{RankingDiagram, RankingRow};
use hypart_eval::runner::{
    run_trials_with, FlatFmHeuristic, Heuristic, MlHeuristic, MultiStartHeuristic, TrialSet,
};
use hypart_eval::stats::wilcoxon_rank_sum;
use hypart_eval::table::Table;
use hypart_hypergraph::Hypergraph;
use hypart_ml::MlConfig;

/// Shared experiment parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExperimentConfig {
    /// Instance scale relative to the published ISPD98 sizes (1.0 = full).
    pub scale: f64,
    /// Independent trials per configuration (the paper uses 100 for
    /// Tables 1–3 and 50 for Tables 4–5).
    pub trials: usize,
    /// Base RNG seed for instance generation and trial seeding.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: 0.10,
            trials: 20,
            seed: 1999, // DAC-99
        }
    }
}

impl ExperimentConfig {
    /// Parses `--scale`, `--trials` and `--seed` from a table binary's
    /// arguments.
    ///
    /// # Errors
    ///
    /// Any other flag, a flag without its value, or a value that is not
    /// a number of the flag's type.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        Flags::parse(args, &["--scale", "--trials", "--seed"])?.experiment()
    }
}

/// A table binary's command line: flag/value pairs, checked against the
/// flags the binary takes. Every flag takes a value.
#[derive(Debug)]
pub struct Flags(Vec<(String, String)>);

impl Flags {
    /// Pairs each flag in `args` with its value.
    ///
    /// # Errors
    ///
    /// A word that is not in `accepted`, or a flag without its value.
    pub fn parse(args: &[String], accepted: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut words = args.iter();
        while let Some(flag) = words.next() {
            if !accepted.contains(&flag.as_str()) {
                return Err(format!("unknown flag `{flag}`"));
            }
            let value = words
                .next()
                .ok_or_else(|| format!("{flag} takes a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    /// The first value given for `flag`, or `default` when it is absent.
    ///
    /// # Errors
    ///
    /// A value that does not parse as a `T`.
    pub fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(name, _)| name == flag) {
            None => Ok(default),
            Some((_, value)) => value.parse().map_err(|_| {
                format!(
                    "{flag} takes a {}, got `{value}`",
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    /// The experiment parameters `--scale`, `--trials` and `--seed`, each
    /// defaulting to [`ExperimentConfig::default`]'s value.
    ///
    /// # Errors
    ///
    /// A value that does not parse.
    pub fn experiment(&self) -> Result<ExperimentConfig, String> {
        let default = ExperimentConfig::default();
        Ok(ExperimentConfig {
            scale: self.get("--scale", default.scale)?,
            trials: self.get("--trials", default.trials)?,
            seed: self.get("--seed", default.seed)?,
        })
    }
}

/// Parses a table binary's arguments with `parse`. On an error it prints
/// the error and `usage` to stderr and exits with status 2, as `hypart`
/// does on a usage error.
pub fn parse_or_exit<T>(usage: &str, parse: impl FnOnce(&[String]) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n\nusage: {usage}");
            std::process::exit(2)
        }
    }
}

/// Builds the synthetic instance for 1-based IBM index `i`.
pub fn instance(cfg: &ExperimentConfig, i: usize) -> Hypergraph {
    ispd98_like(i, cfg.scale, cfg.seed.wrapping_add(i as u64))
}

/// The paper's 2 % balance constraint (49–51 %) for `h`.
pub fn tol2(h: &Hypergraph) -> BalanceConstraint {
    BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.02)
}

/// The paper's 10 % balance constraint (45–55 %) for `h`.
pub fn tol10(h: &Hypergraph) -> BalanceConstraint {
    BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10)
}

fn flat(config: FmConfig, label: &str) -> Box<dyn Heuristic> {
    Box::new(FlatFmHeuristic::new(label, config))
}

fn ml(config: FmConfig, label: &str) -> Box<dyn Heuristic> {
    Box::new(MlHeuristic::new(
        label,
        MlConfig::default().with_refine(config),
    ))
}

/// **Table 1**: best/average cuts for the four engines × the two implicit
/// decisions (zero-delta updates × tie-break bias), on ibm01s–ibm03s with
/// actual areas and 2 % balance tolerance.
pub fn table1(cfg: &ExperimentConfig) -> Table {
    let instances: Vec<Hypergraph> = (1..=3).map(|i| instance(cfg, i)).collect();
    let mut table = Table::new(["ENGINE", "Updates", "Bias", "ibm01s", "ibm02s", "ibm03s"])
        .with_title(format!(
            "Table 1: min/avg cuts, actual areas, 2% tolerance, {} runs, scale {}",
            cfg.trials, cfg.scale
        ));

    let engines: [(&str, bool, SelectionRule); 4] = [
        ("Flat LIFO FM", false, SelectionRule::Classic),
        ("Flat CLIP FM", false, SelectionRule::Clip),
        ("ML LIFO FM", true, SelectionRule::Classic),
        ("ML CLIP FM", true, SelectionRule::Clip),
    ];
    let updates = [
        ("All\u{2206}gain", ZeroDeltaPolicy::All),
        ("Nonzero", ZeroDeltaPolicy::Nonzero),
    ];
    let biases = [
        ("Away", TieBreak::Away),
        ("Part0", TieBreak::Part0),
        ("Toward", TieBreak::Toward),
    ];

    for (engine_name, is_ml, selection) in engines {
        for (update_name, zero_delta) in updates {
            for (bias_name, tie_break) in biases {
                let fm = FmConfig::default()
                    .with_selection(selection)
                    .with_zero_delta(zero_delta)
                    .with_tie_break(tie_break);
                let heuristic: Box<dyn Heuristic> = if is_ml {
                    ml(fm, engine_name)
                } else {
                    flat(fm, engine_name)
                };
                let mut cells = Vec::with_capacity(3);
                for h in &instances {
                    let set = run_trials_with(
                        heuristic.as_ref(),
                        h,
                        &tol2(h),
                        cfg.trials,
                        &mut RunCtx::new(cfg.seed),
                    );
                    cells.push(set.min_avg_cell());
                }
                table.add_row([
                    engine_name.to_string(),
                    update_name.to_string(),
                    bias_name.to_string(),
                    cells[0].clone(),
                    cells[1].clone(),
                    cells[2].clone(),
                ]);
            }
        }
    }
    table
}

/// Shared engine-vs-baseline comparison behind Tables 2 and 3.
fn ours_vs_reported(
    cfg: &ExperimentConfig,
    title: &str,
    reported_label: &str,
    reported: FmConfig,
    ours_label: &str,
    ours: FmConfig,
) -> Table {
    let instances: Vec<Hypergraph> = (1..=3).map(|i| instance(cfg, i)).collect();
    let mut table = Table::new(["Tolerance", "Algorithm", "ibm01s", "ibm02s", "ibm03s"])
        .with_title(format!(
            "{title} (min/avg over {} single-start trials, scale {})",
            cfg.trials, cfg.scale
        ));
    for (tol_name, tol_fraction) in [("02%", 0.02), ("10%", 0.10)] {
        for (label, config) in [(reported_label, reported), (ours_label, ours)] {
            let heuristic = FlatFmHeuristic::new(label, config);
            let mut cells = Vec::with_capacity(3);
            for h in &instances {
                let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), tol_fraction);
                let set =
                    run_trials_with(&heuristic, h, &c, cfg.trials, &mut RunCtx::new(cfg.seed));
                cells.push(set.min_avg_cell());
            }
            table.add_row([
                tol_name.to_string(),
                label.to_string(),
                cells[0].clone(),
                cells[1].clone(),
                cells[2].clone(),
            ]);
        }
    }
    table
}

/// **Table 2**: our LIFO FM vs a "Reported"-style weak LIFO FM, at 2 % and
/// 10 % tolerance with actual areas.
pub fn table2(cfg: &ExperimentConfig) -> Table {
    ours_vs_reported(
        cfg,
        "Table 2: LIFO FM vs weak `Reported' LIFO FM",
        "Reported LIFO",
        FmConfig::reported_lifo(),
        "Our LIFO",
        FmConfig::lifo(),
    )
}

/// **Table 3**: our CLIP FM (with the anti-corking overweight exclusion)
/// vs a "Reported"-style CLIP FM fully exposed to corking.
pub fn table3(cfg: &ExperimentConfig) -> Table {
    ours_vs_reported(
        cfg,
        "Table 3: CLIP FM vs weak `Reported' CLIP FM",
        "Reported CLIP",
        FmConfig::reported_clip(),
        "Our CLIP",
        FmConfig::clip(),
    )
}

/// IBM indices used by the paper for Tables 4–5.
pub const TABLE45_INSTANCES: [usize; 9] = [1, 2, 3, 4, 5, 6, 10, 14, 18];

/// Number-of-starts per configuration column, as in the paper.
pub const TABLE45_STARTS: [usize; 6] = [1, 2, 4, 8, 16, 100];

/// **Tables 4–5**: hMetis-1.5-style evaluation — average best cut and
/// average CPU seconds per multi-start configuration (1, 2, 4, 8, 16, 100
/// starts, V-cycling the best), at the given balance `fraction`
/// (0.02 → Table 4, 0.10 → Table 5).
///
/// `max_instances` truncates the instance list (large ibm14/ibm18 replicas
/// are expensive at high scales); `repetitions` is the number of times
/// each configuration is re-run (50 in the paper).
pub fn table45(
    cfg: &ExperimentConfig,
    fraction: f64,
    max_instances: usize,
    repetitions: usize,
) -> Table {
    let mut headers = vec!["Circuit".to_string()];
    headers.extend(
        TABLE45_STARTS
            .iter()
            .enumerate()
            .map(|(i, s)| format!("cfg{} ({}s)", i + 1, s)),
    );
    let mut table = Table::new(headers).with_title(format!(
        "Tables 4/5 style: avg cut / avg CPU sec, {}% window, {} reps, scale {}",
        (fraction * 100.0) as u32,
        repetitions,
        cfg.scale
    ));
    for &idx in TABLE45_INSTANCES.iter().take(max_instances) {
        let h = instance(cfg, idx);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), fraction);
        let mut row = vec![h.name().to_string()];
        for &starts in &TABLE45_STARTS {
            let heuristic =
                MultiStartHeuristic::new(format!("hML x{starts}"), MlConfig::default(), starts, 4);
            let set = run_trials_with(&heuristic, &h, &c, repetitions, &mut RunCtx::new(cfg.seed));
            row.push(format!("{:.1}/{:.2}", set.avg_cut(), set.avg_seconds()));
        }
        table.add_row(row);
    }
    table
}

/// **BSF methodology figure**: best-so-far curves (expected best cut vs
/// CPU budget) for the flat and multilevel engines on one instance,
/// rendered as CSV series plus an ASCII plot.
pub fn bsf_experiment(cfg: &ExperimentConfig) -> String {
    let h = instance(cfg, 1);
    let c = tol2(&h);
    let heuristics: Vec<Box<dyn Heuristic>> = vec![
        flat(FmConfig::lifo(), "Flat LIFO"),
        flat(FmConfig::clip(), "Flat CLIP"),
        ml(FmConfig::lifo(), "ML LIFO"),
        ml(FmConfig::clip(), "ML CLIP"),
        Box::new(hypart_baselines::SpectralPartitioner),
        Box::new(hypart_baselines::AnnealingPartitioner),
    ];
    let mut out = String::new();
    out.push_str("heuristic,starts,budget_seconds,expected_best_cut\n");
    let mut plots = String::new();
    for heuristic in &heuristics {
        let set = run_trials_with(
            heuristic.as_ref(),
            &h,
            &c,
            cfg.trials,
            &mut RunCtx::new(cfg.seed),
        );
        let curve = BsfCurve::from_trials(&set, 100);
        for p in &curve.points {
            out.push_str(&format!(
                "{},{},{:.6},{:.3}\n",
                curve.heuristic, p.starts, p.seconds, p.expected_best_cut
            ));
        }
        plots.push_str(&curve.ascii_plot(64, 10));
        plots.push('\n');
    }
    format!("{out}\n{plots}")
}

/// **Pareto methodology figure**: the non-dominated frontier of
/// (average cut, average seconds) across engine configurations on one
/// instance.
pub fn pareto_experiment(cfg: &ExperimentConfig) -> String {
    let h = instance(cfg, 1);
    let c = tol2(&h);
    let mut points = Vec::new();
    let configs: Vec<(String, Box<dyn Heuristic>)> = vec![
        ("Flat LIFO".into(), flat(FmConfig::lifo(), "Flat LIFO")),
        ("Flat CLIP".into(), flat(FmConfig::clip(), "Flat CLIP")),
        ("ML LIFO".into(), ml(FmConfig::lifo(), "ML LIFO")),
        ("ML CLIP".into(), ml(FmConfig::clip(), "ML CLIP")),
        (
            "hML x4+V".into(),
            Box::new(MultiStartHeuristic::new(
                "hML x4+V",
                MlConfig::default(),
                4,
                4,
            )),
        ),
        (
            "Spectral".into(),
            Box::new(hypart_baselines::SpectralPartitioner),
        ),
        (
            "Annealing".into(),
            Box::new(hypart_baselines::AnnealingPartitioner),
        ),
    ];
    for (label, heuristic) in &configs {
        let set = run_trials_with(
            heuristic.as_ref(),
            &h,
            &c,
            cfg.trials,
            &mut RunCtx::new(cfg.seed),
        );
        points.push(PerfPoint::new(
            label.clone(),
            set.avg_cut(),
            set.avg_seconds(),
        ));
    }
    let frontier = pareto_frontier(&points);
    let mut out = frontier_report(&points);
    out.push_str(&format!(
        "\nfrontier size: {} of {} configurations\n",
        frontier.len(),
        points.len()
    ));
    out
}

/// **Ranking methodology figure**: (instance size × CPU budget) dominance
/// grid for flat vs multilevel engines across three instance sizes.
pub fn ranking_experiment(cfg: &ExperimentConfig) -> String {
    let mut rows = Vec::new();
    let mut min_budget = f64::INFINITY;
    let mut max_budget: f64 = 0.0;
    for idx in [1usize, 2, 3] {
        let h = instance(cfg, idx);
        let c = tol2(&h);
        let mut curves = Vec::new();
        for (label, heuristic) in [
            ("Flat LIFO", flat(FmConfig::lifo(), "Flat LIFO")),
            ("ML LIFO", ml(FmConfig::lifo(), "ML LIFO")),
        ] {
            let set = run_trials_with(
                heuristic.as_ref(),
                &h,
                &c,
                cfg.trials,
                &mut RunCtx::new(cfg.seed),
            );
            let curve = BsfCurve::from_trials(&set, 100);
            min_budget = min_budget.min(curve.min_budget());
            max_budget = max_budget.max(curve.points.last().expect("points").seconds);
            let _ = label;
            curves.push(curve);
        }
        rows.push(RankingRow {
            instance: h.name().to_string(),
            size: h.num_vertices(),
            curves,
        });
    }
    // Geometric budget spacing from the cheapest single start up to the
    // full multistart budget, so the cheap-regime / rich-regime crossover
    // (where a fast weak heuristic beats a slow strong one) is visible.
    let ratio = (max_budget / min_budget).max(1.0 + 1e-9);
    let budgets: Vec<f64> = (0..6)
        .map(|i| min_budget * ratio.powf(i as f64 / 5.0))
        .collect();
    RankingDiagram::new(rows, budgets).render()
}

/// **Corking trace** (§2.3): frequency of corked CLIP passes and average
/// cuts with and without the overweight-cell exclusion, on actual-area
/// instances versus a unit-area MCNC-like control (where the paper says
/// corking is masked), plus a Wilcoxon significance check of the cut
/// difference.
pub fn corking_experiment(cfg: &ExperimentConfig) -> Table {
    let mut table = Table::new([
        "instance",
        "areas",
        "engine",
        "corked passes",
        "min/avg cut",
        "p vs fixed",
    ])
    .with_title(format!(
        "CLIP corking trace, 2% tolerance, {} runs, scale {}",
        cfg.trials, cfg.scale
    ));
    let mut instances: Vec<(Hypergraph, &str)> =
        (1..=2).map(|i| (instance(cfg, i), "actual")).collect();
    instances.push((
        mcnc_like((2000.0 * cfg.scale * 10.0) as usize + 100, cfg.seed),
        "unit",
    ));

    for (h, areas) in &instances {
        let c = tol2(h);
        let corked = corked_stats(h, &c, FmConfig::reported_clip(), cfg);
        let fixed = corked_stats(
            h,
            &c,
            FmConfig::reported_clip().with_exclude_overweight(true),
            cfg,
        );
        let p = wilcoxon_rank_sum(&corked.2.cuts(), &fixed.2.cuts())
            .map(|w| format!("{:.4}", w.p_value))
            .unwrap_or_else(|| "-".into());
        table.add_row([
            h.name().to_string(),
            areas.to_string(),
            "CLIP (corkable)".to_string(),
            format!("{}/{}", corked.0, corked.1),
            corked.2.min_avg_cell(),
            p,
        ]);
        table.add_row([
            h.name().to_string(),
            areas.to_string(),
            "CLIP + exclusion".to_string(),
            format!("{}/{}", fixed.0, fixed.1),
            fixed.2.min_avg_cell(),
            "-".to_string(),
        ]);
    }
    table
}

/// Runs CLIP trials collecting (corked passes, total passes, trial set).
///
/// Corking is counted from the uniform [`RunEvent`] stream — the same
/// `corked`-flagged `PassEnd` events the CLI's `--trace` writes — rather
/// than from engine-private statistics, so this experiment exercises the
/// observability path it reports on.
fn corked_stats(
    h: &Hypergraph,
    c: &BalanceConstraint,
    fm: FmConfig,
    cfg: &ExperimentConfig,
) -> (usize, usize, TrialSet) {
    use hypart_core::FmPartitioner;
    use hypart_trace::{MemorySink, RunEvent};
    let engine = FmPartitioner::new(fm);
    let mut corked = 0usize;
    let mut total = 0usize;
    let mut trials = Vec::with_capacity(cfg.trials);
    for i in 0..cfg.trials {
        let seed = cfg.seed.wrapping_add(i as u64);
        let sink = MemorySink::new();
        let t = std::time::Instant::now();
        let out = engine.run_with(h, c, &mut RunCtx::new(seed).with_sink(&sink));
        for event in sink.take() {
            if let RunEvent::PassEnd { corked: true, .. } = event {
                corked += 1;
            }
        }
        total += out.stats.num_passes();
        trials.push(hypart_eval::runner::Trial {
            seed,
            cut: out.cut,
            balanced: out.balanced,
            stopped: out.stopped,
            elapsed: t.elapsed(),
        });
    }
    (
        corked,
        total,
        TrialSet {
            heuristic: "CLIP".into(),
            instance: h.name().to_string(),
            trials,
            failed_trials: 0,
        },
    )
}

/// **Ablation study** over the design choices DESIGN.md calls out beyond
/// the paper's main grid: gain-bucket insertion policy (LIFO / FIFO /
/// random — the \[HHK-95\] result), in-bucket lookahead past illegal heads
/// (the paper judges it "too time-consuming … harmful"), and the
/// multilevel coarsening scheme (FirstChoice vs heavy-edge matching).
/// Reports min/avg cut and average seconds per run.
pub fn ablation_experiment(cfg: &ExperimentConfig) -> Table {
    use hypart_core::InsertionPolicy;
    use hypart_ml::coarsen::{CoarsenConfig, CoarsenScheme};

    let h = instance(cfg, 1);
    let c = tol2(&h);
    let mut table =
        Table::new(["dimension", "setting", "min/avg cut", "avg sec"]).with_title(format!(
            "Ablations on {} (2% tolerance, {} runs)",
            h.name(),
            cfg.trials
        ));

    let run_flat = |dimension: &str, setting: &str, fm: FmConfig, table: &mut Table| {
        let set = run_trials_with(
            &FlatFmHeuristic::new(setting, fm),
            &h,
            &c,
            cfg.trials,
            &mut RunCtx::new(cfg.seed),
        );
        table.add_row([
            dimension.to_string(),
            setting.to_string(),
            set.min_avg_cell(),
            format!("{:.4}", set.avg_seconds()),
        ]);
    };

    for (setting, insertion) in [
        ("LIFO", InsertionPolicy::Lifo),
        ("FIFO", InsertionPolicy::Fifo),
        ("Random", InsertionPolicy::Random),
    ] {
        run_flat(
            "insertion",
            setting,
            FmConfig::lifo().with_insertion(insertion),
            &mut table,
        );
    }
    for lookahead in [1usize, 4, 16] {
        run_flat(
            "lookahead",
            &format!("k={lookahead}"),
            FmConfig::clip().with_lookahead(lookahead),
            &mut table,
        );
    }
    for (setting, scheme) in [
        ("FirstChoice", CoarsenScheme::FirstChoice),
        ("HeavyEdge", CoarsenScheme::HeavyEdge),
    ] {
        let ml_cfg = MlConfig {
            coarsen: CoarsenConfig {
                scheme,
                ..CoarsenConfig::default()
            },
            ..MlConfig::default()
        };
        let set = run_trials_with(
            &MlHeuristic::new(setting, ml_cfg),
            &h,
            &c,
            cfg.trials,
            &mut RunCtx::new(cfg.seed),
        );
        table.add_row([
            "coarsening".to_string(),
            setting.to_string(),
            set.min_avg_cell(),
            format!("{:.4}", set.avg_seconds()),
        ]);
    }
    table
}

/// **Fixed-terminals experiment** (§2.1): the paper argues that the many
/// fixed vertices real top-down placement instances carry "fundamentally
/// change the nature of the partitioning problem" versus the unfixed
/// benchmarks the literature studies. Partition the same instance with
/// increasing fractions of terminals fixed and report how the cut
/// distribution moves (mean up — the boundary is pinned — and relative
/// spread down — the problem gets "easier"/more determined).
pub fn fixed_terminals_experiment(cfg: &ExperimentConfig) -> Table {
    use hypart_benchgen::with_pad_ring;
    use hypart_eval::stats::Summary;

    let base = instance(cfg, 1);
    let mut table = Table::new([
        "fixed fraction",
        "fixed cells",
        "min/avg cut",
        "std dev",
        "rel spread",
    ])
    .with_title(format!(
        "Fixed-terminal effect on {} (ML LIFO, 10% tolerance, {} runs)",
        base.name(),
        cfg.trials
    ));
    for fraction in [0.0, 0.05, 0.20, 0.50] {
        let count = (base.num_vertices() as f64 * fraction) as usize;
        let h = if count == 0 {
            base.clone()
        } else {
            with_pad_ring(&base, count, cfg.seed)
        };
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let set = run_trials_with(
            &MlHeuristic::new("ML LIFO", MlConfig::ml_lifo()),
            &h,
            &c,
            cfg.trials,
            &mut RunCtx::new(cfg.seed),
        );
        let summary = Summary::of(&set.cuts()).expect("trials exist");
        table.add_row([
            format!("{:.0}%", fraction * 100.0),
            count.to_string(),
            set.min_avg_cell(),
            format!("{:.1}", summary.std_dev),
            format!("{:.3}", summary.std_dev / summary.mean.max(1.0)),
        ]);
    }
    table
}

/// Writes `content` to `results/<name>` relative to the workspace root
/// (falling back to the current directory when run elsewhere) and returns
/// the path written.
pub fn write_result(name: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ExperimentConfig {
        ExperimentConfig {
            scale: 0.01,
            trials: 3,
            seed: 5,
        }
    }

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn config_from_args() {
        let cfg = ExperimentConfig::from_args(&words("--scale 0.3 --trials 7 --seed 12")).unwrap();
        assert_eq!(cfg.scale, 0.3);
        assert_eq!(cfg.trials, 7);
        assert_eq!(cfg.seed, 12);
        for (line, error) in [
            ("--scale 0.3 --junk 1", "unknown flag `--junk`"),
            ("--trial 50", "unknown flag `--trial`"),
            ("--trials", "--trials takes a value"),
            ("--trials 2.5", "--trials takes a usize, got `2.5`"),
            ("--seed -1", "--seed takes a u64, got `-1`"),
            ("--scale x", "--scale takes a f64, got `x`"),
            ("--tol 0.1", "unknown flag `--tol`"),
        ] {
            assert_eq!(
                ExperimentConfig::from_args(&words(line)),
                Err(error.to_string())
            );
        }
    }

    #[test]
    fn table1_has_24_rows() {
        let t = table1(&tiny_cfg());
        assert_eq!(t.num_rows(), 24); // 4 engines × 2 updates × 3 biases
    }

    #[test]
    fn table2_and_3_have_4_rows() {
        assert_eq!(table2(&tiny_cfg()).num_rows(), 4);
        assert_eq!(table3(&tiny_cfg()).num_rows(), 4);
    }

    #[test]
    fn table45_row_per_instance() {
        let t = table45(&tiny_cfg(), 0.02, 2, 1);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn corking_table_renders() {
        let t = corking_experiment(&tiny_cfg());
        assert_eq!(t.num_rows(), 6); // 3 instances × 2 engines
        assert!(t.render().contains("CLIP"));
    }

    #[test]
    fn ablation_table_has_all_dimensions() {
        let t = ablation_experiment(&tiny_cfg());
        assert_eq!(t.num_rows(), 8); // 3 insertion + 3 lookahead + 2 coarsening
        let text = t.render();
        assert!(text.contains("FIFO"));
        assert!(text.contains("HeavyEdge"));
    }

    #[test]
    fn fixed_terminals_table_has_four_rows() {
        let t = fixed_terminals_experiment(&tiny_cfg());
        assert_eq!(t.num_rows(), 4);
        assert!(t.render().contains("50%"));
    }

    /// The baselines report their own names, so no BSF series is
    /// unnamed.
    #[test]
    fn bsf_rows_name_every_heuristic() {
        let report = bsf_experiment(&tiny_cfg());
        let mut names: Vec<&str> = report
            .lines()
            .skip(1)
            .take_while(|row| !row.is_empty())
            .map(|row| row.split(',').next().unwrap())
            .collect();
        names.dedup();
        let expected = [
            "Flat LIFO",
            "Flat CLIP",
            "ML LIFO",
            "ML CLIP",
            "Spectral",
            "Annealing",
        ];
        assert_eq!(names, expected);
    }

    #[test]
    fn figures_render() {
        let cfg = tiny_cfg();
        assert!(bsf_experiment(&cfg).contains("expected_best_cut"));
        assert!(pareto_experiment(&cfg).contains("frontier"));
        assert!(ranking_experiment(&cfg).contains("ibm01"));
    }
}
