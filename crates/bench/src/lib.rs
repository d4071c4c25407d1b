//! Regeneration harness for every table and figure of the paper.
//!
//! Each public function rebuilds one evaluation artifact on the synthetic
//! ISPD98-like suite (see `hypart-benchgen` and DESIGN.md §4 for the
//! substitution rationale); `hypart experiment <name>` runs it by name
//! (see [`run_experiment`]) and saves it under `results/`:
//!
//! | paper artifact | function | `hypart experiment` |
//! |----------------|----------|---------------------|
//! | Table 1 (implicit decisions × engines) | [`table1`] | `table1` |
//! | Table 2 (our vs reported LIFO) | [`table2`] | `table2` |
//! | Table 3 (our vs reported CLIP) | [`table3`] | `table3` |
//! | Tables 4–5 (hMetis-style quality/runtime sweep) | [`table45`] | `table4`, `table5` |
//! | BSF curve methodology (§3.2) | [`bsf_experiment`] | `bsf_curve` |
//! | Pareto frontier methodology (§3.2) | [`pareto_experiment`] | `pareto_frontier` |
//! | Ranking diagram methodology (§3.2) | [`ranking_experiment`] | `ranking_diagram` |
//! | CLIP corking traces (§2.3) | [`corking_experiment`] | `corking_trace` |
//! | Ablations of DESIGN.md's design choices | [`ablation_experiment`] | `ablation` |
//! | Fixed terminals (§2.1) | [`fixed_terminals_experiment`] | `fixed_terminals` |
//! | Placement quality (§2.1 use model) | [`placement_quality_experiment`] | `placement_quality` |
//!
//! All functions take an [`ExperimentConfig`] so the CLI and tests share
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
use hypart_trace::{CounterSink, EVENT_KINDS};

/// Shared experiment parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExperimentConfig {
    /// Instance scale relative to the published ISPD98 sizes (1.0 = full).
    pub scale: f64,
    /// Independent trials per configuration (the paper uses 100 for
    /// Tables 1–3 and 50 for Tables 4–5, where each trial is one full
    /// multi-start run).
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
/// are expensive at high scales); each configuration is re-run
/// `cfg.trials` times (50 in the paper).
pub fn table45(cfg: &ExperimentConfig, fraction: f64, max_instances: usize) -> Table {
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
        cfg.trials,
        cfg.scale
    ));
    for &idx in TABLE45_INSTANCES.iter().take(max_instances) {
        let h = instance(cfg, idx);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), fraction);
        let mut row = vec![h.name().to_string()];
        for &starts in &TABLE45_STARTS {
            let heuristic =
                MultiStartHeuristic::new(format!("hML x{starts}"), MlConfig::default(), starts, 4);
            let set = run_trials_with(&heuristic, &h, &c, cfg.trials, &mut RunCtx::new(cfg.seed));
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
    let heuristics: Vec<Box<dyn Heuristic>> = vec![
        flat(FmConfig::lifo(), "Flat LIFO"),
        flat(FmConfig::clip(), "Flat CLIP"),
        ml(FmConfig::lifo(), "ML LIFO"),
        ml(FmConfig::clip(), "ML CLIP"),
        Box::new(MultiStartHeuristic::new(
            "hML x4+V",
            MlConfig::default(),
            4,
            4,
        )),
        Box::new(hypart_baselines::SpectralPartitioner),
        Box::new(hypart_baselines::AnnealingPartitioner),
    ];
    let points: Vec<PerfPoint> = heuristics
        .iter()
        .map(|heuristic| {
            let set = run_trials_with(
                heuristic.as_ref(),
                &h,
                &c,
                cfg.trials,
                &mut RunCtx::new(cfg.seed),
            );
            PerfPoint::new(heuristic.name(), set.avg_cut(), set.avg_seconds())
        })
        .collect();
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
        for heuristic in [
            flat(FmConfig::lifo(), "Flat LIFO"),
            ml(FmConfig::lifo(), "ML LIFO"),
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
/// Passes are counted from the uniform `RunEvent` stream — the same
/// `corked`-flagged `PassEnd` events the CLI's `--trace` writes — rather
/// than from engine-private statistics, so this experiment exercises the
/// observability path it reports on.
fn corked_stats(
    h: &Hypergraph,
    c: &BalanceConstraint,
    fm: FmConfig,
    cfg: &ExperimentConfig,
) -> (usize, usize, TrialSet) {
    let counters = CounterSink::new();
    let set = run_trials_with(
        &FlatFmHeuristic::new("CLIP", fm),
        h,
        c,
        cfg.trials,
        &mut RunCtx::new(cfg.seed).with_sink(&counters),
    );
    let pass_end = EVENT_KINDS
        .iter()
        .position(|&kind| kind == "pass_end")
        .expect("pass_end is an event kind");
    (
        counters.corked_passes() as usize,
        counters.count_of(pass_end) as usize,
        set,
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

/// **Placement quality** (§2.1 use model): how much partitioner quality
/// matters in the driving application's own metric. The same top-down
/// min-cut placer runs with strong and weak engines, with and without
/// terminal propagation, and the table reports the HPWL of its
/// placements.
pub fn placement_quality_experiment(cfg: &ExperimentConfig) -> Table {
    use hypart_eval::stats::Summary;
    use hypart_place::{hpwl, PlacerConfig, Rect, TopDownPlacer};

    let h = instance(cfg, 1);
    let die = Rect::new(0.0, 0.0, 2000.0, 2000.0);
    let mut table = Table::new([
        "engine in placer",
        "term-prop",
        "HPWL min",
        "HPWL mean",
        "std",
    ])
    .with_title(format!(
        "Placement quality vs partitioner strength on {} ({} cells, {} seeds)",
        h.name(),
        h.num_vertices(),
        cfg.trials
    ));
    let engines: [(&str, MlConfig); 3] = [
        ("ML + Our LIFO", MlConfig::ml_lifo()),
        ("ML + Our CLIP", MlConfig::ml_clip()),
        (
            "ML + Reported LIFO",
            MlConfig::default().with_refine(FmConfig::reported_lifo()),
        ),
    ];
    for (label, ml) in engines {
        for term_prop in [true, false] {
            let placer = TopDownPlacer::new(PlacerConfig {
                ml: ml.clone(),
                terminal_propagation: term_prop,
            });
            let samples: Vec<f64> = (0..cfg.trials as u64)
                .map(|seed| hpwl(&h, &placer.run(&h, die, cfg.seed.wrapping_add(seed))))
                .collect();
            let s = Summary::of(&samples).expect("trials exist");
            table.add_row([
                label.to_string(),
                term_prop.to_string(),
                format!("{:.0}", s.min),
                format!("{:.0}", s.mean),
                format!("{:.0}", s.std_dev),
            ]);
        }
    }
    table
}

/// The names [`run_experiment`] takes, in the order of the paper.
pub const EXPERIMENTS: [&str; 12] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "corking_trace",
    "bsf_curve",
    "pareto_frontier",
    "ranking_diagram",
    "ablation",
    "fixed_terminals",
    "placement_quality",
];

/// A regenerated artifact.
#[derive(Clone, Debug)]
pub enum Artifact {
    /// A table: printed aligned, saved as CSV.
    Table(Table),
    /// A text report (CSV series, plots, diagrams): printed and saved as
    /// it is.
    Text(String),
}

/// Regenerates the experiment called `name` (one of [`EXPERIMENTS`]) and
/// returns it with the name of its file under `results/`; `None` for any
/// other name. `max_instances` truncates the instance list of `table4`
/// and `table5` (see [`table45`]); no other experiment reads it.
pub fn run_experiment(
    name: &str,
    cfg: &ExperimentConfig,
    max_instances: usize,
) -> Option<(&'static str, Artifact)> {
    Some(match name {
        "table1" => ("table1.csv", Artifact::Table(table1(cfg))),
        "table2" => ("table2.csv", Artifact::Table(table2(cfg))),
        "table3" => ("table3.csv", Artifact::Table(table3(cfg))),
        "table4" => (
            "table4.csv",
            Artifact::Table(table45(cfg, 0.02, max_instances)),
        ),
        "table5" => (
            "table5.csv",
            Artifact::Table(table45(cfg, 0.10, max_instances)),
        ),
        "corking_trace" => (
            "corking_trace.csv",
            Artifact::Table(corking_experiment(cfg)),
        ),
        "bsf_curve" => ("bsf_curves.csv", Artifact::Text(bsf_experiment(cfg))),
        "pareto_frontier" => (
            "pareto_frontier.txt",
            Artifact::Text(pareto_experiment(cfg)),
        ),
        "ranking_diagram" => (
            "ranking_diagram.txt",
            Artifact::Text(ranking_experiment(cfg)),
        ),
        "ablation" => ("ablation.csv", Artifact::Table(ablation_experiment(cfg))),
        "fixed_terminals" => (
            "fixed_terminals.csv",
            Artifact::Table(fixed_terminals_experiment(cfg)),
        ),
        "placement_quality" => (
            "placement_quality.csv",
            Artifact::Table(placement_quality_experiment(cfg)),
        ),
        _ => return None,
    })
}

/// Writes `content` to `results/<name>` under the current directory,
/// creating `results/` if needed, and returns the path written.
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
        let t = table45(
            &ExperimentConfig {
                trials: 1,
                ..tiny_cfg()
            },
            0.02,
            2,
        );
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
