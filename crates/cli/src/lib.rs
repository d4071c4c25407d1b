//! Implementation of the `hypart` command-line partitioner.
//!
//! Subcommands:
//!
//! * `partition <netlist>` — 2-way partition a `.hgr` / netD file with
//!   flat FM, multilevel FM or the hMetis-style driver, or k-way by
//!   multilevel recursive bisection, write a `.part` solution, report
//!   cut / balance / timing (the library's n-level and lane-parallel
//!   engines have no switch here: EXPERIMENTS.md's 2-way engine triage
//!   finds both worse at equal time);
//! * `eval <netlist> <partfile>` — evaluate an existing solution
//!   (cut, objectives, balance);
//! * `stats <netlist>` — print the instance profile (the paper's §2.1
//!   "salient attributes");
//! * `place <netlist>` — top-down min-cut placement to a `.pl`
//!   coordinates file (with optional row legalization);
//! * `report <netlist>` — markdown comparison report (tables, BSF plots,
//!   Wilcoxon test) plus raw JSON trial records;
//! * `gen <ibmN|mcncN>` — generate a synthetic benchmark to a file;
//! * `serve` — long-running partitioning daemon over a length-prefixed
//!   JSONL socket protocol (see the `hypart-server` crate), with
//!   instance and coarsening-hierarchy caches;
//! * `experiment <name>` — regenerate one of the paper's tables or
//!   figures (see the `hypart-bench` crate) under `results/`;
//! * `trace <FILE.jsonl>…` — summarize run-event traces offline.
//!
//! The library half exists so the argument parser and command runners are
//! unit-testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use hypart_bench::{Artifact, ExperimentConfig, TABLE45_INSTANCES};
use hypart_core::{
    objective, sweep_with, AllPanicked, AuditLevel, BalanceConstraint, Bisection, FmConfig,
    FmPartitioner, RunCtx, StopReason,
};
use hypart_eval::bsf::BsfCurve;
use hypart_eval::json::trial_set_to_json;
use hypart_eval::report::Report;
use hypart_eval::runner::{run_trials_with, FlatFmHeuristic, MlHeuristic};
use hypart_eval::stats::wilcoxon_rank_sum;
use hypart_hypergraph::{io, Hypergraph, PartId};
use hypart_kway::{recursive_bisection_with, KWayBalance};
use hypart_ml::{multi_start_with, MlConfig, MlPartitioner, MultiStartPlan};
use hypart_place::{hpwl, PlacerConfig, Rect, RowLegalizer, TopDownPlacer};
use hypart_trace::json::JsonValue;
use hypart_trace::{CounterSink, JsonlSink, RunEvent, TeeSink, TraceSink};

/// A failure from [`run`], classified for the process exit code.
///
/// The shell contract: `2` for usage errors (bad flags, unknown
/// subcommands — raised by [`parse_args`]), `3` for input files that do
/// not parse, `4` for runtime failures (I/O on outputs, trace-sink write
/// failures).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// The command line itself was malformed. Exit code 2.
    Usage(String),
    /// An input file was rejected by a parser. Exit code 3.
    Parse(String),
    /// The command failed while executing. Exit code 4.
    Runtime(String),
}

impl CliError {
    /// The process exit code for this failure class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Parse(_) => 3,
            CliError::Runtime(_) => 4,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) | CliError::Parse(m) | CliError::Runtime(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `partition <netlist> [flags]`
    Partition {
        /// Input netlist path.
        input: PathBuf,
        /// Engine selection.
        engine: Engine,
        /// Number of parts (2 = bisection).
        k: usize,
        /// Balance tolerance fraction.
        tolerance: f64,
        /// Number of starts (multi-start engines).
        starts: usize,
        /// RNG seed.
        seed: u64,
        /// Output `.part` path (defaults to `<input>.part`).
        output: Option<PathBuf>,
        /// Optional JSONL run-event trace path.
        trace: Option<PathBuf>,
        /// Optional wall-clock budget in milliseconds. The engines stop
        /// cooperatively at the deadline and report their best-so-far;
        /// with `--engine hmetis` the driver keeps launching starts until
        /// the budget expires instead of running a fixed count.
        budget_ms: Option<u64>,
        /// Invariant-audit level (`off`, `checkpoints`, `paranoid`).
        audit: AuditLevel,
    },
    /// `eval <netlist> <partfile> [--tol F]`
    Eval {
        /// Input netlist path.
        input: PathBuf,
        /// Solution file path.
        part_file: PathBuf,
        /// Balance tolerance fraction.
        tolerance: f64,
    },
    /// `stats <netlist>`
    Stats {
        /// Input netlist path.
        input: PathBuf,
    },
    /// `place <netlist> [--width W] [--height H] [--rows R] [--seed S]
    /// [--out FILE]`
    Place {
        /// Input netlist path.
        input: PathBuf,
        /// Die width.
        width: f64,
        /// Die height.
        height: f64,
        /// Number of legalization rows (0 = skip legalization).
        rows: usize,
        /// RNG seed.
        seed: u64,
        /// Output `.pl` path (defaults to `<input>.pl`).
        output: Option<PathBuf>,
    },
    /// `report <netlist> [--trials N] [--tol F] [--seed S] [--out FILE]`
    Report {
        /// Input netlist path.
        input: PathBuf,
        /// Trials per engine.
        trials: usize,
        /// Balance tolerance fraction.
        tolerance: f64,
        /// RNG seed.
        seed: u64,
        /// Output markdown path (defaults to `<input>.report.md`; a
        /// `.json` sibling carries the raw per-trial records).
        output: Option<PathBuf>,
        /// Optional per-engine wall-clock budget in milliseconds; trials
        /// past the deadline are skipped.
        budget_ms: Option<u64>,
    },
    /// `gen <spec> --out <file>`
    Gen {
        /// Instance spec: `ibm01`..`ibm18` or `mcnc<N>`.
        spec: String,
        /// Scale for ibm specs.
        scale: f64,
        /// RNG seed.
        seed: u64,
        /// Output path (`.hgr`).
        out: PathBuf,
    },
    /// `serve [--addr A] [--workers N] [--queue N] [--instance-cache N]
    /// [--hierarchy-cache N] [--max-cells N]`
    Serve {
        /// Listen address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Worker threads executing jobs.
        workers: usize,
        /// Bounded queue capacity; submissions past it are shed with a
        /// typed `overloaded` rejection.
        queue: usize,
        /// Instance-cache capacity (parsed CSR instances, FIFO).
        instance_cache: usize,
        /// Hierarchy-cache capacity (coarsening hierarchies keyed by
        /// `(digest, coarsen config, seed)`, 2Q admission).
        hierarchy_cache: usize,
        /// Admission cap on declared instance size: inline uploads
        /// declaring more cells are shed with a typed
        /// `rejected_too_large` error before parsing (0 = no cap).
        max_cells: usize,
    },
    /// `experiment <name> [--scale S] [--trials N] [--seed K]
    /// [--instances M]`
    Experiment {
        /// One of [`hypart_bench::EXPERIMENTS`].
        name: String,
        /// Instance scale, trials per configuration and base seed.
        config: ExperimentConfig,
        /// Circuits of the Tables 4–5 sweep (`table4`/`table5` only).
        max_instances: usize,
    },
    /// `trace <FILE.jsonl>...`
    Trace {
        /// JSONL run-event traces, as `partition --trace` writes them.
        files: Vec<PathBuf>,
    },
}

/// Available partitioning engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Flat LIFO FM.
    Lifo,
    /// Flat CLIP FM.
    Clip,
    /// Multilevel with LIFO FM refinement.
    MlLifo,
    /// Multilevel with CLIP refinement.
    MlClip,
    /// hMetis-style multi-start + V-cycling.
    Hmetis,
}

impl Engine {
    fn parse(s: &str) -> Result<Engine, String> {
        match s {
            "lifo" => Ok(Engine::Lifo),
            "clip" => Ok(Engine::Clip),
            "ml-lifo" | "ml" => Ok(Engine::MlLifo),
            "ml-clip" => Ok(Engine::MlClip),
            "hmetis" => Ok(Engine::Hmetis),
            other => Err(format!(
                "unknown engine `{other}` (expected lifo, clip, ml-lifo, ml-clip, hmetis)"
            )),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
hypart — hypergraph partitioning for VLSI CAD

USAGE:
  hypart partition <netlist> [--engine lifo|clip|ml-lifo|ml-clip|hmetis]
                   [--k K] [--tol F] [--starts N] [--seed S] [--out FILE]
                   [--trace FILE.jsonl] [--budget-ms T]
                   [--audit off|checkpoints|paranoid]

Above K = 2, ml-lifo and ml-clip reach any K by recursive multilevel
bisection, one start; cells fixed on side s of a netD file end in part
s. So lifo, clip and hmetis run at K = 2 only, and --starts above 1
needs K = 2.
  hypart eval <netlist> <partfile> [--tol F]
  hypart stats <netlist>
  hypart place <netlist> [--width W] [--height H] [--rows R] [--seed S] [--out FILE]
  hypart report <netlist> [--trials N] [--tol F] [--seed S] [--out FILE] [--budget-ms T]

`eval` scores a solution; `report` runs seeded trials of flat LIFO, flat
CLIP and ML LIFO FM and writes a markdown comparison.
  hypart gen ibm01..ibm18 [--scale S] [--seed K] --out FILE
  hypart gen mcncN [--seed K] --out FILE
  hypart serve [--addr HOST:PORT] [--workers N] [--queue N]
               [--instance-cache N] [--hierarchy-cache N] [--max-cells N]

`serve` runs the partitioning daemon (length-prefixed JSONL frames over
TCP; see crates/server). It blocks until a client sends `shutdown`.
`--max-cells N` sheds inline uploads declaring more cells before
parsing them (0 = no cap). `--instance-cache N` keeps the N newest
parsed instances. `--hierarchy-cache N` keeps at most N coarsening
hierarchies, one per digest, coarsening config and seed: a quarter of
them (at least 1) wait in probation for a second lookup, and the rest
are ones that were looked up again. Both caches take N >= 1.
`hypart-loadgen --self-host` exercises it end to end, and
`hypart-loadgen --self-host --chaos SEED` soaks it through a
deterministic fault-injecting proxy.
  hypart experiment <name> [--scale S] [--trials N] [--seed K]
  hypart experiment table4|table5 [--scale S] [--trials N] [--seed K] [--instances M]
  hypart trace <FILE.jsonl>...

`experiment` regenerates one of the paper's artifacts on the synthetic
ISPD98-like suite, prints it and writes it under `results/` in the
current directory. <name> is table1, table2, table3, table4 (2% window),
table5 (10% window), corking_trace, bsf_curve, pareto_frontier,
ranking_diagram, ablation, fixed_terminals or placement_quality.
Defaults: --scale 0.1 --trials 20 --seed 1999. Tables 4 and 5 run each
multi-start configuration --trials times on their first --instances
circuits (default all 9).
`trace` prints the event counters of traces written by
`partition --trace`.

Every flag takes a value; a flag the subcommand does not list above,
or one without its value, is a usage error. So is a value out of range:
--tol must lie in [0, 1], --scale in (0, 1], --k in [2, 65535],
--width and --height must be finite and not negative, --starts and
--trials must be at least 1, and mcncN needs N >= 8.

Netlists are read as hMETIS .hgr, or as simplified ISPD98 netD when the
file extension contains `net`.
";

/// The flags each subcommand accepts, every one taking a value; `None`
/// for an unknown subcommand.
fn accepted_flags(sub: &str) -> Option<&'static str> {
    Some(match sub {
        "partition" => "--engine --k --tol --starts --seed --out --trace --budget-ms --audit",
        "eval" => "--tol",
        "stats" => "",
        "place" => "--width --height --rows --seed --out",
        "report" => "--trials --tol --seed --out --budget-ms",
        "gen" => "--scale --seed --out",
        "serve" => "--addr --workers --queue --instance-cache --hierarchy-cache --max-cells",
        "experiment" => "--scale --trials --seed --instances",
        "trace" => "",
        _ => return None,
    })
}

/// Parses a full argument list (without argv\[0\]).
///
/// # Errors
///
/// Returns a human-readable message (usage is appended by the caller).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let sub = it.next().ok_or("missing subcommand")?;
    let flags = accepted_flags(sub).ok_or_else(|| format!("unknown subcommand `{sub}`"))?;
    let rest: Vec<&String> = it.collect();

    let flag_value = |name: &str| -> Option<&str> {
        rest.iter()
            .position(|a| a.as_str() == name)
            .and_then(|i| rest.get(i + 1))
            .map(|s| s.as_str())
    };
    // A number outside the library's precondition `ok` (described by
    // `range`) is a usage error here, not a panic in the engine.
    let parse_flag = |name: &str, default: f64, range: &str, ok: fn(f64) -> bool| {
        let Some(v) = flag_value(name) else {
            return Ok(default);
        };
        match v.parse::<f64>() {
            Ok(x) if ok(x) => Ok(x),
            Ok(_) => Err(format!("{name} must be {range}, got `{v}`")),
            Err(_) => Err(format!("{name} takes a number")),
        }
    };
    let parse_tol = || parse_flag("--tol", 0.02, "in [0, 1]", |x| (0.0..=1.0).contains(&x));
    let parse_scale =
        |default: f64| parse_flag("--scale", default, "in (0, 1]", |x| x > 0.0 && x <= 1.0);
    let parse_extent = |name: &str| {
        parse_flag(name, 1000.0, "finite and at least 0", |x| {
            x.is_finite() && x >= 0.0
        })
    };
    // The one integer parser: a fraction, a negative value or an
    // overflow is a usage error, never truncated, clamped or rounded.
    let parse_opt_u64 = |name: &str| -> Result<Option<u64>, String> {
        match flag_value(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} takes a non-negative integer, got `{v}`")),
        }
    };
    let parse_u64 = |name: &str, default: u64| -> Result<u64, String> {
        Ok(parse_opt_u64(name)?.unwrap_or(default))
    };
    let parse_usize = |name: &str, default: usize| -> Result<usize, String> {
        let n = parse_u64(name, default as u64)?;
        usize::try_from(n).map_err(|_| format!("{name} is out of range: {n}"))
    };
    let parse_count = |name: &str, default: usize| -> Result<usize, String> {
        match parse_usize(name, default)? {
            0 => Err(format!("{name} must be at least 1")),
            n => Ok(n),
        }
    };
    let mut positional = Vec::new();
    let mut words = rest.iter();
    while let Some(word) = words.next() {
        if !word.starts_with("--") {
            positional.push(word.as_str());
        } else if !flags.split_whitespace().any(|flag| flag == word.as_str()) {
            return Err(format!("{sub}: unknown flag `{word}`"));
        } else if words.next().is_none() {
            return Err(format!("{word} takes a value"));
        }
    }

    match sub.as_str() {
        "partition" => {
            let input = positional
                .first()
                .ok_or("partition: missing <netlist>")?
                .into();
            let engine_name = flag_value("--engine").unwrap_or("ml-lifo");
            let engine = Engine::parse(engine_name)?;
            let k = parse_usize("--k", 2)?;
            // Part ids are 16-bit throughout the k-way code.
            if !(2..=usize::from(u16::MAX)).contains(&k) {
                return Err("--k must be in [2, 65535]".into());
            }
            // Above k = 2 the CLI runs one start of ML recursive
            // bisection: refuse what would not run.
            if k > 2 && matches!(engine, Engine::Lifo | Engine::Clip | Engine::Hmetis) {
                return Err(format!(
                    "--engine {engine_name} with --k {k}: {engine_name} runs at --k 2 only \
                     (above it use ml-lifo or ml-clip recursive bisection)"
                ));
            }
            let starts = parse_count("--starts", 1)?;
            if starts > 1 && k > 2 {
                return Err(format!(
                    "--starts {starts} with --engine {engine_name} --k {k}: recursive \
                     bisection runs one start (--starts needs --k 2)"
                ));
            }
            Ok(Command::Partition {
                input,
                engine,
                k,
                tolerance: parse_tol()?,
                starts,
                seed: parse_u64("--seed", 1)?,
                output: flag_value("--out").map(PathBuf::from),
                trace: flag_value("--trace").map(PathBuf::from),
                budget_ms: parse_opt_u64("--budget-ms")?,
                audit: match flag_value("--audit") {
                    None => AuditLevel::Off,
                    Some(v) => AuditLevel::parse(v)?,
                },
            })
        }
        "eval" => Ok(Command::Eval {
            input: positional.first().ok_or("eval: missing <netlist>")?.into(),
            part_file: positional.get(1).ok_or("eval: missing <partfile>")?.into(),
            tolerance: parse_tol()?,
        }),
        "stats" => Ok(Command::Stats {
            input: positional.first().ok_or("stats: missing <netlist>")?.into(),
        }),
        "report" => Ok(Command::Report {
            input: positional
                .first()
                .ok_or("report: missing <netlist>")?
                .into(),
            trials: parse_count("--trials", 10)?,
            tolerance: parse_tol()?,
            seed: parse_u64("--seed", 1)?,
            output: flag_value("--out").map(PathBuf::from),
            budget_ms: parse_opt_u64("--budget-ms")?,
        }),
        "place" => Ok(Command::Place {
            input: positional.first().ok_or("place: missing <netlist>")?.into(),
            width: parse_extent("--width")?,
            height: parse_extent("--height")?,
            rows: parse_usize("--rows", 0)?,
            seed: parse_u64("--seed", 1)?,
            output: flag_value("--out").map(PathBuf::from),
        }),
        "gen" => {
            let spec = positional.first().ok_or("gen: missing instance spec")?;
            // mcncN names its size in cells; only the ibmXX profiles scale.
            if spec.starts_with("mcnc") && flag_value("--scale").is_some() {
                return Err(format!("gen {spec}: `--scale` applies to ibmXX specs only"));
            }
            Ok(Command::Gen {
                spec: spec.to_string(),
                scale: parse_scale(0.1)?,
                seed: parse_u64("--seed", 1)?,
                out: flag_value("--out").ok_or("gen: missing --out FILE")?.into(),
            })
        }
        "serve" => Ok(Command::Serve {
            addr: flag_value("--addr").unwrap_or("127.0.0.1:7077").to_string(),
            workers: parse_count("--workers", 2)?,
            queue: parse_count("--queue", 64)?,
            instance_cache: parse_count("--instance-cache", 16)?,
            hierarchy_cache: parse_count("--hierarchy-cache", 32)?,
            max_cells: parse_usize("--max-cells", 0)?,
        }),
        "experiment" => {
            let name = *positional.first().ok_or("experiment: missing <name>")?;
            if !hypart_bench::EXPERIMENTS.contains(&name) {
                return Err(format!("unknown experiment `{name}`"));
            }
            if !matches!(name, "table4" | "table5") && flag_value("--instances").is_some() {
                return Err(format!("experiment {name}: unknown flag `--instances`"));
            }
            let default = ExperimentConfig::default();
            Ok(Command::Experiment {
                name: name.to_string(),
                config: ExperimentConfig {
                    scale: parse_scale(default.scale)?,
                    trials: parse_count("--trials", default.trials)?,
                    seed: parse_u64("--seed", default.seed)?,
                },
                max_instances: parse_usize("--instances", TABLE45_INSTANCES.len())?,
            })
        }
        "trace" => {
            if positional.is_empty() {
                return Err("trace: missing <FILE.jsonl>".into());
            }
            Ok(Command::Trace {
                files: positional.iter().map(PathBuf::from).collect(),
            })
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Loads a netlist, choosing the parser by file name.
///
/// # Errors
///
/// Returns [`CliError::Parse`] for content the parser rejects, and
/// [`CliError::Runtime`] for I/O failures (missing file, bad
/// permissions).
pub fn load_netlist(path: &Path) -> Result<Hypergraph, CliError> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    let result = if name.contains("net") && !name.ends_with(".hgr") {
        io::netd::read_path(path)
    } else {
        io::hgr::read_path(path)
    };
    result
        .map(|h| {
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("input");
            h.with_name(stem)
        })
        .map_err(|e| classify_parse_error(path, e))
}

/// Maps a [`hypart_hypergraph::ParseError`] to the CLI failure class:
/// I/O problems are runtime failures, everything else is a parse
/// rejection of the input content.
fn classify_parse_error(path: &Path, e: hypart_hypergraph::ParseError) -> CliError {
    let message = format!("{}: {e}", path.display());
    match e {
        hypart_hypergraph::ParseError::Io(_) => CliError::Runtime(message),
        _ => CliError::Parse(message),
    }
}

/// Executes a parsed command, returning the report text to print.
///
/// # Errors
///
/// Returns a [`CliError`] carrying a human-readable message and the
/// process exit code class.
pub fn run(command: Command) -> Result<String, CliError> {
    match command {
        Command::Stats { input } => {
            let h = load_netlist(&input)?;
            let stats = hypart_hypergraph::stats::InstanceStats::of(&h);
            Ok(format!("{}\n{}\n", h.name(), stats.summary()))
        }
        Command::Report {
            input,
            trials,
            tolerance,
            seed,
            output,
            budget_ms,
        } => {
            let h = load_netlist(&input)?;
            let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), tolerance);
            let stats = hypart_hypergraph::stats::InstanceStats::of(&h);
            let mut report = Report::new(format!("Partitioning report: {}", h.name()));
            report.section("Instance");
            report.paragraph(stats.summary());
            report.section(format!(
                "Engines ({} seeded trials each, {:.0}% balance window)",
                trials,
                tolerance * 100.0
            ));

            // Each engine gets its own budget window so a slow engine
            // cannot starve the ones evaluated after it.
            let trial_ctx = |seed: u64| {
                let ctx = RunCtx::new(seed);
                match budget_ms {
                    Some(ms) => ctx.with_budget(Duration::from_millis(ms)),
                    None => ctx,
                }
            };
            let flat = run_trials_with(
                &FlatFmHeuristic::new("Flat LIFO FM", hypart_core::FmConfig::lifo()),
                &h,
                &c,
                trials,
                &mut trial_ctx(seed),
            );
            let clip = run_trials_with(
                &FlatFmHeuristic::new("Flat CLIP FM", hypart_core::FmConfig::clip()),
                &h,
                &c,
                trials,
                &mut trial_ctx(seed),
            );
            let ml = run_trials_with(
                &MlHeuristic::new("ML LIFO FM", MlConfig::ml_lifo()),
                &h,
                &c,
                trials,
                &mut trial_ctx(seed),
            );

            let mut table = hypart_eval::table::Table::new([
                "engine",
                "min/avg cut",
                "avg sec",
                "balanced",
                "failed",
            ]);
            for set in [&flat, &clip, &ml] {
                table.add_row([
                    set.heuristic.clone(),
                    set.min_avg_cell(),
                    format!("{:.4}", set.avg_seconds()),
                    format!("{:.0}%", set.balanced_fraction() * 100.0),
                    format!("{}", set.failed_trials),
                ]);
            }
            report.table(&table);
            for set in [&flat, &clip, &ml] {
                report.distribution(&set.heuristic, &set.cuts());
            }
            report.section("Best-so-far (budget) curves");
            for set in [&flat, &ml] {
                report.preformatted(BsfCurve::from_trials(set, 50).ascii_plot(56, 8));
            }
            report.section("Significance");
            match wilcoxon_rank_sum(&ml.cuts(), &flat.cuts()) {
                Some(w) => report.paragraph(format!(
                    "Wilcoxon rank-sum, ML vs flat LIFO: z = {:.2}, p = {:.3e} ({}significant at 1%).",
                    w.z,
                    w.p_value,
                    if w.significant_at(0.01) { "" } else { "NOT " }
                )),
                None => report.paragraph("Wilcoxon: insufficient samples."),
            };

            let out_path = output.unwrap_or_else(|| input.with_extension("report.md"));
            std::fs::write(&out_path, report.render())
                .map_err(|e| CliError::Runtime(format!("{}: {e}", out_path.display())))?;
            let json_path = out_path.with_extension("json");
            let json = hypart_eval::json::JsonValue::array(
                [&flat, &clip, &ml].into_iter().map(trial_set_to_json),
            );
            std::fs::write(&json_path, json.to_string())
                .map_err(|e| CliError::Runtime(format!("{}: {e}", json_path.display())))?;
            Ok(format!(
                "report  : {}
records : {}
",
                out_path.display(),
                json_path.display()
            ))
        }
        Command::Place {
            input,
            width,
            height,
            rows,
            seed,
            output,
        } => {
            let h = load_netlist(&input)?;
            let die = Rect::new(0.0, 0.0, width, height);
            let t0 = Instant::now();
            let placer = TopDownPlacer::new(PlacerConfig::default());
            let coarse = placer.run(&h, die, seed);
            let (placement, legal_note) = if rows > 0 {
                let legal = RowLegalizer::new(die, rows).legalize(&h, &coarse);
                let note = format!(
                    ", legalized onto {rows} rows (displacement {:.0})",
                    legal.total_displacement
                );
                (legal.placement, note)
            } else {
                (coarse, String::new())
            };
            let elapsed = t0.elapsed();
            let out_path = output.unwrap_or_else(|| input.with_extension("pl"));
            let mut text = String::new();
            for (v, p) in placement.iter() {
                let _ = writeln!(text, "{} {:.3} {:.3}", v.raw(), p.x, p.y);
            }
            std::fs::write(&out_path, text)
                .map_err(|e| CliError::Runtime(format!("{}: {e}", out_path.display())))?;
            Ok(format!(
                "placed {} cells in {elapsed:.2?}{legal_note}
HPWL     : {:.0}
solution : {}
",
                h.num_vertices(),
                hpwl(&h, &placement),
                out_path.display(),
            ))
        }
        Command::Gen {
            spec,
            scale,
            seed,
            out,
        } => {
            let h = generate_instance(&spec, scale, seed)?;
            io::hgr::write_path(&h, &out)
                .map_err(|e| CliError::Runtime(format!("{}: {e}", out.display())))?;
            Ok(format!(
                "wrote {} ({} cells, {} nets, {} pins)\n",
                out.display(),
                h.num_vertices(),
                h.num_nets(),
                h.num_pins()
            ))
        }
        Command::Serve {
            addr,
            workers,
            queue,
            instance_cache,
            hierarchy_cache,
            max_cells,
        } => {
            let config = hypart_server::ServerConfig {
                addr,
                workers,
                queue_capacity: queue,
                instance_cache_capacity: instance_cache,
                hierarchy_cache_capacity: hierarchy_cache,
                max_cells,
                ..hypart_server::ServerConfig::default()
            };
            let server = hypart_server::Server::start(config)
                .map_err(|e| CliError::Runtime(format!("serve: {e}")))?;
            // Announce before blocking — clients need the address while
            // the daemon runs, not in the post-shutdown report.
            println!("hypart daemon listening on {}", server.local_addr());
            println!("send a `shutdown` frame (or hypart-loadgen) to stop");
            let stats = server.wait();
            Ok(format!(
                "daemon stopped\nsubmitted : {}\ncompleted : {}\nshed      : {}\nerrors    : {}\ncache     : instances {} hits / {} misses, hierarchies {} hits / {} misses\n",
                stats.submitted,
                stats.completed,
                stats.rejected_overload,
                stats.errors,
                stats.instance_hits,
                stats.instance_misses,
                stats.hierarchy_hits,
                stats.hierarchy_misses,
            ))
        }
        Command::Experiment {
            name,
            config,
            max_instances,
        } => {
            // Fail before the run, not after it, when `results/` cannot
            // be made.
            std::fs::create_dir_all("results")
                .map_err(|e| CliError::Runtime(format!("results: {e}")))?;
            let (file, artifact) = hypart_bench::run_experiment(&name, &config, max_instances)
                .ok_or_else(|| CliError::Usage(format!("unknown experiment `{name}`")))?;
            let (text, content, note) = match artifact {
                Artifact::Table(table) => (table.render(), table.to_csv(), "csv written"),
                Artifact::Text(report) => (report.clone(), report, "written"),
            };
            let path = hypart_bench::write_result(file, &content)
                .map_err(|e| CliError::Runtime(format!("results/{file}: {e}")))?;
            Ok(format!("{text}\n({note} to {})\n", path.display()))
        }
        Command::Trace { files } => {
            let mut out = String::new();
            for path in &files {
                out.push_str(&summarize_trace(path)?);
            }
            Ok(out)
        }
        Command::Eval {
            input,
            part_file,
            tolerance,
        } => {
            let h = load_netlist(&input)?;
            let parts = io::partfile::read_path(&part_file)
                .map_err(|e| classify_parse_error(&part_file, e))?;
            let bis = Bisection::new(&h, parts)
                .map_err(|e| CliError::Parse(format!("{}: {e}", part_file.display())))?;
            let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), tolerance);
            let mut out = String::new();
            let _ = writeln!(out, "instance : {}", h.name());
            let _ = writeln!(out, "cut      : {}", bis.cut());
            let _ = writeln!(
                out,
                "weights  : {} / {} (window [{}, {}], satisfied: {})",
                bis.part_weight(PartId::P0),
                bis.part_weight(PartId::P1),
                c.lower(),
                c.upper(),
                c.is_satisfied(&bis)
            );
            let _ = writeln!(out, "ratio cut   : {:.6e}", objective::ratio_cut(&bis));
            let _ = writeln!(out, "scaled cost : {:.6e}", objective::scaled_cost(&bis));
            let _ = writeln!(out, "absorption  : {:.2}", objective::absorption(&bis));
            Ok(out)
        }
        Command::Partition {
            input,
            engine,
            k,
            tolerance,
            starts,
            seed,
            output,
            trace,
            budget_ms,
            audit,
        } => {
            let h = load_netlist(&input)?;
            let t0 = Instant::now();
            let make_ctx = || {
                let ctx = RunCtx::new(seed).with_audit(audit);
                match budget_ms {
                    Some(ms) => ctx.with_budget(Duration::from_millis(ms)),
                    None => ctx,
                }
            };
            let (outcome, trace_note) = match &trace {
                Some(trace_path) => {
                    let file = std::fs::File::create(trace_path)
                        .map_err(|e| CliError::Runtime(format!("{}: {e}", trace_path.display())))?;
                    let jsonl = JsonlSink::new(std::io::BufWriter::new(file));
                    let counters = CounterSink::new();
                    let tee = TeeSink::new(&jsonl, &counters);
                    let mut ctx = make_ctx().with_sink(&tee);
                    let outcome = partition_with(&h, engine, k, tolerance, starts, &mut ctx);
                    jsonl
                        .finish()
                        .map_err(|e| CliError::Runtime(format!("{}: {e}", trace_path.display())))?;
                    let note = format!(
                        "trace    : {}\n\n{}",
                        trace_path.display(),
                        counters.summary()
                    );
                    (outcome?, note)
                }
                None => {
                    let mut ctx = make_ctx();
                    let outcome = partition_with(&h, engine, k, tolerance, starts, &mut ctx)?;
                    (outcome, String::new())
                }
            };
            let elapsed = t0.elapsed();
            let PartitionRun {
                assignment,
                cut,
                balanced,
                stopped,
                failed_starts,
                audit_failure,
            } = outcome;

            let out_path = output.unwrap_or_else(|| input.with_extension("part"));
            if k == 2 {
                let parts: Vec<PartId> = assignment
                    .iter()
                    .map(|&p| if p == 0 { PartId::P0 } else { PartId::P1 })
                    .collect();
                io::partfile::write_path(&parts, &out_path)
                    .map_err(|e| CliError::Runtime(format!("{}: {e}", out_path.display())))?;
            } else {
                let text: String = assignment.iter().map(|p| format!("{p}\n")).collect();
                std::fs::write(&out_path, text)
                    .map_err(|e| CliError::Runtime(format!("{}: {e}", out_path.display())))?;
            }
            let mut report = format!(
                "instance : {} ({} cells, {} nets)\nengine   : {engine:?}, k = {k}, tol = {tolerance}, starts = {starts}\ncut      : {cut}\nbalanced : {balanced}\ntime     : {elapsed:.2?}\nsolution : {}\n",
                h.name(),
                h.num_vertices(),
                h.num_nets(),
                out_path.display(),
            );
            if stopped.is_stopped() {
                let _ = writeln!(
                    report,
                    "stopped  : {} (best-so-far reported)",
                    stopped.name()
                );
            }
            if failed_starts > 0 {
                let _ = writeln!(
                    report,
                    "failures : {failed_starts} start(s) panicked and were skipped; best of survivors reported"
                );
            }
            if !trace_note.is_empty() {
                report.push_str(&trace_note);
            }
            if let Some(detail) = audit_failure {
                return Err(CliError::Runtime(format!(
                    "invariant audit failed: {detail}\n(partial results written to {})",
                    out_path.display()
                )));
            }
            Ok(report)
        }
    }
}

fn engine_ml_config(engine: Engine) -> MlConfig {
    match engine {
        Engine::MlClip => MlConfig::ml_clip(),
        _ => MlConfig::ml_lifo(),
    }
}

/// `trace`: replays one JSONL run-event trace into a [`CounterSink`]
/// and renders its per-kind counts, corking rate, move/rollback totals
/// and the last `run_end`'s cut — the counters `partition --trace`
/// prints live.
///
/// # Errors
///
/// [`CliError::Runtime`] if the file cannot be read, and
/// [`CliError::Parse`] naming the first line that is not a run event.
fn summarize_trace(path: &Path) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("{}: {e}", path.display())))?;
    let counters = CounterSink::new();
    let mut events = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = JsonValue::parse(line)
            .and_then(|value| RunEvent::from_json(&value))
            .map_err(|e| CliError::Parse(format!("{}:{}: {e}", path.display(), i + 1)))?;
        counters.emit(event);
        events += 1;
    }
    // Events carry no timestamps (determinism), so the histogram times
    // the replay itself; the counts are the faithful part.
    Ok(format!(
        "{}: {events} events\n{}\n  (pass durations reflect replay wall-clock, not the original run)\n",
        path.display(),
        counters.summary()
    ))
}

/// Builds a synthetic instance from a `gen`-style spec (`ibmNN` or
/// `mcncN`).
fn generate_instance(spec: &str, scale: f64, seed: u64) -> Result<Hypergraph, CliError> {
    if let Some(rest) = spec.strip_prefix("mcnc") {
        // `mcnc_like` needs at least 8 cells.
        let cells = rest
            .parse()
            .ok()
            .filter(|&cells| cells >= 8)
            .ok_or_else(|| {
                CliError::Usage(format!("bad mcnc spec `{spec}` (want mcnc<N>, N >= 8)"))
            })?;
        Ok(hypart_benchgen::mcnc_like(cells, seed))
    } else if let Some(index) = hypart_benchgen::IBM_PROFILES
        .iter()
        .position(|q| q.name == spec)
    {
        Ok(hypart_benchgen::ispd98_like(index + 1, scale, seed))
    } else {
        Err(CliError::Usage(format!("unknown instance spec `{spec}`")))
    }
}

/// The result of one CLI partition invocation, with the robustness
/// signals the report surfaces: how many starts panicked (and were
/// skipped) and whether the invariant auditor flagged a violation.
struct PartitionRun {
    assignment: Vec<u16>,
    cut: u64,
    balanced: bool,
    stopped: StopReason,
    failed_starts: usize,
    audit_failure: Option<String>,
}

/// Dispatches one partition invocation to the selected engine under the
/// context's sink, seed, and budget: a 2-way engine at `k == 2`,
/// recursive bisection above it.
fn partition_with(
    h: &Hypergraph,
    engine: Engine,
    k: usize,
    tolerance: f64,
    starts: usize,
    ctx: &mut RunCtx<'_>,
) -> Result<PartitionRun, CliError> {
    if k == 2 {
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), tolerance);
        return run_two_way_with(h, &c, engine, starts, ctx);
    }
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), k, tolerance);
    let out = recursive_bisection_with(h, k, tolerance, &engine_ml_config(engine), ctx);
    let balanced = out.is_balanced(&balance);
    Ok(PartitionRun {
        assignment: out.assignment,
        cut: out.cut,
        balanced,
        stopped: out.stopped,
        failed_starts: 0,
        audit_failure: out.audit_failure.map(|e| e.to_string()),
    })
}

/// `starts` starts of a flat or multilevel 2-way engine; the best under
/// [`Trial::displaces`](hypart_core::Trial::displaces) is reported. A
/// sweep in which every start panicked has no partition to report:
/// [`CliError::Runtime`].
fn run_two_way_with(
    h: &Hypergraph,
    c: &BalanceConstraint,
    engine: Engine,
    starts: usize,
    ctx: &mut RunCtx<'_>,
) -> Result<PartitionRun, CliError> {
    let swept = match engine {
        Engine::Lifo | Engine::Clip => {
            let fm = if engine == Engine::Lifo {
                FmConfig::lifo()
            } else {
                FmConfig::clip()
            };
            let partitioner = FmPartitioner::new(fm);
            let start = |_, ctx: &mut RunCtx<'_>| partitioner.run_with(h, c, ctx);
            let sweep = sweep_with(ctx, starts as u64, |_, _| {}, start);
            match sweep.outcome {
                Some(out) => Ok((out, sweep.panicked.len())),
                None => Err(AllPanicked(sweep.panicked)),
            }
        }
        _ => {
            let ml = MlPartitioner::new(engine_ml_config(engine));
            let plan = match engine {
                // The hMetis-style driver V-cycles the best start. With a
                // budget it launches starts until the deadline instead of
                // a fixed count.
                Engine::Hmetis if ctx.deadline().is_some() => MultiStartPlan::until_budget(),
                Engine::Hmetis => MultiStartPlan::count(starts, 4),
                _ => MultiStartPlan::count(starts, 0),
            };
            multi_start_with(&ml, h, c, &plan, ctx).map(|out| (out.outcome, out.panicked.len()))
        }
    };
    let (out, failed_starts) = swept.map_err(|all| CliError::Runtime(all.to_string()))?;
    Ok(PartitionRun {
        assignment: out.assignment.iter().map(|p| p.index() as u16).collect(),
        cut: out.cut,
        balanced: out.balanced,
        stopped: out.stopped,
        failed_starts,
        audit_failure: out.audit_failure.map(|e| e.to_string()),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_partition_defaults() {
        let cmd = parse_args(&args(&["partition", "x.hgr"])).unwrap();
        match cmd {
            Command::Partition {
                engine,
                k,
                tolerance,
                starts,
                ..
            } => {
                assert_eq!(engine, Engine::MlLifo);
                assert_eq!(k, 2);
                assert_eq!(tolerance, 0.02);
                assert_eq!(starts, 1);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parse_partition_flags() {
        let cmd = parse_args(&args(&[
            "partition",
            "x.hgr",
            "--engine",
            "clip",
            "--tol",
            "0.1",
            "--starts",
            "8",
            "--seed",
            "99",
            "--out",
            "y.part",
        ]))
        .unwrap();
        match cmd {
            Command::Partition {
                engine,
                k,
                tolerance,
                starts,
                seed,
                output,
                ..
            } => {
                assert_eq!(engine, Engine::Clip);
                assert_eq!(k, 2);
                assert_eq!(tolerance, 0.1);
                assert_eq!(starts, 8);
                assert_eq!(seed, 99);
                assert_eq!(output, Some(PathBuf::from("y.part")));
            }
            other => panic!("wrong command {other:?}"),
        }
        let cmd = parse_args(&args(&[
            "partition",
            "x.hgr",
            "--engine",
            "ml-clip",
            "--k",
            "4",
        ]));
        match cmd.unwrap() {
            Command::Partition {
                engine, k, starts, ..
            } => {
                assert_eq!(engine, Engine::MlClip);
                assert_eq!(k, 4);
                assert_eq!(starts, 1);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    /// Integer flags parse as integers: no rounding through `f64`, no
    /// truncated fractions, no negative values clamped to zero.
    #[test]
    fn integer_flags_reject_fractions_negatives_and_overflow() {
        // 2^53 + 1 has no exact f64; it must come through unchanged.
        let gen = parse_args(&args(&[
            "gen",
            "ibm01",
            "--seed",
            "9007199254740993",
            "--out",
            "x.hgr",
        ]));
        match gen.unwrap() {
            Command::Gen { seed, .. } => assert_eq!(seed, 9_007_199_254_740_993),
            other => panic!("wrong command {other:?}"),
        }
        for (flag, value) in [
            ("--starts", "2.9"),
            ("--seed", "-1"),
            ("--k", "4.0"),
            ("--seed", "18446744073709551616"),
        ] {
            let err = parse_args(&args(&["partition", "x.hgr", flag, value])).unwrap_err();
            assert!(err.contains(flag), "{flag} {value}: {err}");
        }
        for flag in [
            "--workers",
            "--queue",
            "--instance-cache",
            "--hierarchy-cache",
            "--max-cells",
        ] {
            assert!(
                parse_args(&args(&["serve", flag, "1.5"])).is_err(),
                "{flag}"
            );
        }
        assert!(parse_args(&args(&["report", "x.hgr", "--trials", "-3"])).is_err());
        assert!(parse_args(&args(&["place", "x.hgr", "--rows", "2.5"])).is_err());
    }

    /// `--engine ml-lifo --starts 4` runs the multi-start driver: a start
    /// that panics is isolated and counted, and the report is the best of
    /// the surviving starts — the fault-free sweep's best over starts 0,
    /// 2 and 3.
    #[test]
    fn panicked_ml_start_is_isolated_by_the_cli_loop() {
        let h = hypart_benchgen::mcnc_like(300, 8);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let mut ctx = RunCtx::new(5).with_fault_plan(hypart_core::FaultPlan::panic_in_start(1));
        let run = run_two_way_with(&h, &c, Engine::MlLifo, 4, &mut ctx).unwrap();
        assert_eq!(run.failed_starts, 1);

        let ml = MlPartitioner::new(engine_ml_config(Engine::MlLifo));
        let best = [0, 2, 3]
            .map(|i| ml.run_with(&h, &c, &mut RunCtx::new(5 + i)))
            .into_iter()
            .min_by_key(|out| (!out.balanced, out.cut))
            .unwrap();
        assert_eq!(run.cut, best.cut);
        assert_eq!(run.balanced, best.balanced);
        let assignment: Vec<u16> = best.assignment.iter().map(|p| p.index() as u16).collect();
        assert_eq!(run.assignment, assignment);
        assert_eq!(run.stopped, StopReason::Completed);
    }

    /// The flat twin: `--engine lifo --starts 4` runs on the same start
    /// loop, so a start that panics is isolated and counted, and the
    /// report is the fault-free sweep's best over starts 0, 2 and 3.
    #[test]
    fn panicked_flat_start_is_isolated_by_the_cli_loop() {
        let h = hypart_benchgen::mcnc_like(300, 8);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let mut ctx = RunCtx::new(5).with_fault_plan(hypart_core::FaultPlan::panic_in_start(1));
        let run = run_two_way_with(&h, &c, Engine::Lifo, 4, &mut ctx).unwrap();
        assert_eq!(run.failed_starts, 1);

        let fm = FmPartitioner::new(FmConfig::lifo());
        let best = [0, 2, 3]
            .map(|i| fm.run_with(&h, &c, &mut RunCtx::new(5 + i)))
            .into_iter()
            .min_by_key(|out| (!out.balanced, out.cut))
            .unwrap();
        assert_eq!(run.cut, best.cut);
        assert_eq!(run.balanced, best.balanced);
        let assignment: Vec<u16> = best.assignment.iter().map(|p| p.index() as u16).collect();
        assert_eq!(run.assignment, assignment);
        assert_eq!(run.stopped, StopReason::Completed);
    }

    /// A flat sweep in which every start panicked has no partition to
    /// report: it is a runtime error naming the payload, not a crash.
    #[test]
    fn every_flat_start_panicked_is_a_runtime_error() {
        let h = hypart_benchgen::mcnc_like(60, 1);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        let mut ctx = RunCtx::new(0).with_fault_plan(hypart_core::FaultPlan::panic_in_start(0));
        let Err(CliError::Runtime(detail)) = run_two_way_with(&h, &c, Engine::Clip, 1, &mut ctx)
        else {
            panic!("a sweep without survivors must be a runtime error");
        };
        assert!(detail.contains("every start panicked"), "{detail}");
        assert!(detail.contains("injected fault"), "{detail}");
    }

    /// The multilevel twin: a multi-start sweep without survivors is the
    /// same runtime error (exit 4), not a crash (exit 101).
    #[test]
    fn every_ml_start_panicked_is_a_runtime_error() {
        let h = hypart_benchgen::mcnc_like(60, 1);
        let c = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.10);
        for engine in [Engine::MlLifo, Engine::MlClip, Engine::Hmetis] {
            let plan = hypart_core::FaultPlan::panic_in_start(0);
            let mut ctx = RunCtx::new(0).with_fault_plan(plan);
            let Err(err) = run_two_way_with(&h, &c, engine, 1, &mut ctx) else {
                panic!("{engine:?}: a sweep without survivors must be an error");
            };
            assert_eq!(err.exit_code(), 4, "{engine:?}");
            let detail = err.to_string();
            assert!(detail.contains("every start panicked"), "{detail}");
            assert!(detail.contains("injected fault"), "{detail}");
        }
    }

    #[test]
    fn parse_rejects_bad_engine_and_k() {
        assert!(parse_args(&args(&["partition", "x.hgr", "--engine", "magic"])).is_err());
        assert!(parse_args(&args(&["partition", "x.hgr", "--k", "1"])).is_err());
        assert!(parse_args(&args(&["partition", "x.hgr", "--k", "65536"])).is_err());
        assert!(parse_args(&args(&["partition", "x.hgr", "--engine", "kway"])).is_err());
        // Recursive bisection takes any k above 2.
        assert!(parse_args(&args(&[
            "partition",
            "x.hgr",
            "--k",
            "3",
            "--engine",
            "ml-lifo"
        ]))
        .is_ok());
    }

    #[test]
    fn parse_eval_and_stats_and_gen() {
        assert!(matches!(
            parse_args(&args(&["eval", "x.hgr", "x.part"])).unwrap(),
            Command::Eval { .. }
        ));
        assert!(parse_args(&args(&["eval", "x.hgr"])).is_err()); // no <partfile>
        assert!(matches!(
            parse_args(&args(&["stats", "x.hgr"])).unwrap(),
            Command::Stats { .. }
        ));
        assert!(matches!(
            parse_args(&args(&["gen", "ibm01", "--out", "z.hgr"])).unwrap(),
            Command::Gen { .. }
        ));
        assert!(parse_args(&args(&["gen", "ibm01"])).is_err()); // missing --out
        assert!(parse_args(&args(&["bogus"])).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn gen_then_stats_then_partition_round_trip() {
        let dir = std::env::temp_dir().join("hypart_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let hgr = dir.join("t.hgr");
        let report = run(Command::Gen {
            spec: "mcnc200".into(),
            scale: 0.1,
            seed: 3,
            out: hgr.clone(),
        })
        .unwrap();
        assert!(report.contains("200 cells"));

        let report = run(Command::Stats { input: hgr.clone() }).unwrap();
        assert!(report.contains("|V|=200"));

        let part = dir.join("t.part");
        let report = run(Command::Partition {
            input: hgr.clone(),
            engine: Engine::MlLifo,
            k: 2,
            tolerance: 0.1,
            starts: 2,
            seed: 5,
            output: Some(part.clone()),
            trace: None,
            budget_ms: None,
            audit: AuditLevel::Checkpoints,
        })
        .unwrap();
        assert!(report.contains("cut"), "{report}");
        assert!(part.exists());

        let report = run(Command::Eval {
            input: hgr.clone(),
            part_file: part.clone(),
            tolerance: 0.1,
        })
        .unwrap();
        assert!(report.contains("ratio cut"), "{report}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn odd_k_partition_via_cli() {
        let dir = std::env::temp_dir().join("hypart_cli_kway");
        std::fs::create_dir_all(&dir).unwrap();
        let hgr = dir.join("k.hgr");
        run(Command::Gen {
            spec: "mcnc120".into(),
            scale: 0.1,
            seed: 3,
            out: hgr.clone(),
        })
        .unwrap();
        let report = run(Command::Partition {
            input: hgr.clone(),
            engine: Engine::MlLifo,
            k: 3,
            tolerance: 0.25,
            starts: 1,
            seed: 5,
            output: None,
            trace: None,
            budget_ms: None,
            audit: AuditLevel::Paranoid,
        })
        .unwrap();
        assert!(report.contains("k = 3"), "{report}");
        assert!(dir.join("k.part").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn place_subcommand_parses_and_runs() {
        let cmd = parse_args(&args(&[
            "place", "x.hgr", "--width", "500", "--height", "400", "--rows", "10",
        ]))
        .unwrap();
        match cmd {
            Command::Place {
                width,
                height,
                rows,
                ..
            } => {
                assert_eq!(width, 500.0);
                assert_eq!(height, 400.0);
                assert_eq!(rows, 10);
            }
            other => panic!("wrong command {other:?}"),
        }

        let dir = std::env::temp_dir().join("hypart_cli_place");
        std::fs::create_dir_all(&dir).unwrap();
        let hgr = dir.join("p.hgr");
        run(Command::Gen {
            spec: "mcnc100".into(),
            scale: 0.1,
            seed: 3,
            out: hgr.clone(),
        })
        .unwrap();
        let report = run(Command::Place {
            input: hgr.clone(),
            width: 500.0,
            height: 400.0,
            rows: 8,
            seed: 2,
            output: None,
        })
        .unwrap();
        assert!(report.contains("HPWL"), "{report}");
        let pl = std::fs::read_to_string(dir.join("p.pl")).unwrap();
        assert_eq!(pl.lines().count(), 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_subcommand_writes_markdown_and_json() {
        let dir = std::env::temp_dir().join("hypart_cli_report");
        std::fs::create_dir_all(&dir).unwrap();
        let hgr = dir.join("r.hgr");
        run(Command::Gen {
            spec: "mcnc150".into(),
            scale: 0.1,
            seed: 3,
            out: hgr.clone(),
        })
        .unwrap();
        let out = run(Command::Report {
            input: hgr.clone(),
            trials: 4,
            tolerance: 0.1,
            seed: 1,
            output: None,
            budget_ms: None,
        })
        .unwrap();
        assert!(out.contains("report"), "{out}");
        let md = std::fs::read_to_string(dir.join("r.report.md")).unwrap();
        assert!(md.contains("# Partitioning report"));
        assert!(md.contains("Wilcoxon"));
        let json = std::fs::read_to_string(dir.join("r.report.json")).unwrap();
        assert!(json.contains("\"heuristic\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        match parse_args(&args(&["serve"])).unwrap() {
            Command::Serve {
                addr,
                workers,
                queue,
                instance_cache,
                hierarchy_cache,
                max_cells,
            } => {
                assert_eq!(addr, "127.0.0.1:7077");
                assert_eq!(workers, 2);
                assert_eq!(queue, 64);
                assert_eq!(instance_cache, 16);
                assert_eq!(hierarchy_cache, 32);
                assert_eq!(max_cells, 0, "admission cap defaults to off");
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&args(&[
            "serve",
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--queue",
            "256",
            "--instance-cache",
            "4",
            "--hierarchy-cache",
            "8",
            "--max-cells",
            "100000",
        ]))
        .unwrap()
        {
            Command::Serve {
                addr,
                workers,
                queue,
                instance_cache,
                hierarchy_cache,
                max_cells,
            } => {
                assert_eq!(addr, "0.0.0.0:9000");
                assert_eq!(workers, 8);
                assert_eq!(queue, 256);
                assert_eq!(instance_cache, 4);
                assert_eq!(hierarchy_cache, 8);
                assert_eq!(max_cells, 100_000);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(parse_args(&args(&["serve", "--workers", "0"])).is_err());
        assert!(parse_args(&args(&["serve", "--queue", "0"])).is_err());
        for flag in ["--instance-cache", "--hierarchy-cache"] {
            let err = parse_args(&args(&["serve", flag, "0"])).unwrap_err();
            assert!(err.contains("must be at least 1"), "{flag}: {err}");
        }
    }

    /// A flag the subcommand does not accept, or one missing its value,
    /// is a usage error instead of being skipped.
    #[test]
    fn unknown_and_valueless_flags_are_refused() {
        let words = |line: &str| line.split(' ').map(String::from).collect::<Vec<_>>();
        for (line, expected) in [
            ("partition x.hgr --tolerance 0.3", "flag `--tolerance`"),
            ("gen ibm01 --out x.hgr --bogus 3", "unknown flag `--bogus`"),
            ("partition x.hgr --k", "--k takes a value"),
            ("serve --threads 2", "unknown flag `--threads`"),
            ("stats x.hgr --seed 1", "unknown flag `--seed`"),
            ("place x.hgr --tol 0.1", "unknown flag `--tol`"),
        ] {
            let err = parse_args(&words(line)).unwrap_err();
            assert!(err.contains(expected), "{line}: {err}");
        }
        for line in [
            "stats x.hgr",
            "place x.hgr --width 9 --height 9 --rows 2 --seed 2 --out x.pl",
            "report x.hgr --trials 2 --tol 0.1 --seed 3 --out r.md --budget-ms 5",
            "eval x.hgr x.part --tol 0.1",
        ] {
            assert!(parse_args(&words(line)).is_ok(), "{line}");
        }
    }

    #[test]
    fn parse_experiment_flags_and_defaults() {
        let line = "experiment table4 --scale 0.3 --trials 7 --seed 12 --instances 2";
        let words: Vec<String> = line.split(' ').map(String::from).collect();
        match parse_args(&words).unwrap() {
            Command::Experiment {
                name,
                config,
                max_instances,
            } => {
                assert_eq!(name, "table4");
                let expected = ExperimentConfig {
                    scale: 0.3,
                    trials: 7,
                    seed: 12,
                };
                assert_eq!(config, expected);
                assert_eq!(max_instances, 2);
            }
            other => panic!("wrong command {other:?}"),
        }
        match parse_args(&args(&["experiment", "table1"])).unwrap() {
            Command::Experiment {
                config,
                max_instances,
                ..
            } => {
                assert_eq!(config, ExperimentConfig::default());
                assert_eq!(max_instances, TABLE45_INSTANCES.len());
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn serve_runs_until_remote_shutdown() {
        // Port 0: the daemon prints the real address to stdout, which a
        // unit test cannot capture — so drive the same code path the
        // command uses, then shut it down over the wire.
        let config = hypart_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..hypart_server::ServerConfig::default()
        };
        let server = hypart_server::Server::start(config).unwrap();
        let addr = server.local_addr();
        let stopper = std::thread::spawn(move || {
            let mut client = hypart_server::Client::connect(addr).unwrap();
            client.shutdown().unwrap();
        });
        let stats = server.wait();
        stopper.join().unwrap();
        assert_eq!(stats.submitted, 0, "no jobs were sent before shutdown");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = run(Command::Stats {
            input: PathBuf::from("/nonexistent/x.hgr"),
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Runtime(_)), "{err:?}");
        assert!(err.to_string().contains("x.hgr"));
    }
}
