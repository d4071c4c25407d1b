//! `hypart-perf`: one benchmark for the hypart engines and daemon.
//!
//! ```text
//! hypart-perf --workload ml_ibm18 --seed 1 --seconds 8 --trace 0
//! hypart-perf --workload serve_mixed --seed 1 --seconds 8 --trace 1 --spans spans.json
//! hypart-perf run-all --seed 1 --seconds 8 --runs 10 --out summary.json
//! ```
//!
//! A run builds its inputs from `--seed`, sets up (repeatedly, untraced),
//! times ops for `--seconds` (and at least 100 of them), runs the fixed
//! quality panel the cut metrics come from (untraced), verifies every
//! result, and prints every metric with its unit. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`, the end-to-end metrics with `--trace 0` and the
//! per-layer metrics with `--trace 1`. See README.md next to this crate.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod bench;
mod engine;
mod serve;
mod stats;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{SystemTime, UNIX_EPOCH};

use hypart_trace::json::JsonValue;

use bench::{drive, Report, StopRule};
use engine::EngineBench;
use serve::ServeBench;

/// Ops a pass runs at least: `latency_s_p90` needs 100 samples.
const MIN_OPS: u64 = 100;

/// The workloads, in `run-all` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    MlIbm18,
    Ml2Ibm18,
    NlevelIbm01,
    ServeRequery,
    ServeMixed,
}

const WORKLOADS: [Workload; 5] = [
    Workload::MlIbm18,
    Workload::Ml2Ibm18,
    Workload::NlevelIbm01,
    Workload::ServeRequery,
    Workload::ServeMixed,
];

/// Instance scales (shares of the ISPD98 profile sizes) and the
/// re-query seed pool.
struct Sizes {
    ml: f64,
    nlevel: f64,
    serve: f64,
    requery_pool: usize,
}

/// The benchmark's sizes: [`MIN_OPS`] ops of each engine workload fit in
/// about 10 s on a 2-core host.
const BENCH: Sizes = Sizes {
    ml: 0.08,
    nlevel: 0.12,
    serve: 0.25,
    requery_pool: 8,
};

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::MlIbm18 => "ml_ibm18",
            Workload::Ml2Ibm18 => "ml2_ibm18",
            Workload::NlevelIbm01 => "nlevel_ibm01",
            Workload::ServeRequery => "serve_requery",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        WORKLOADS
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn run(self, sizes: &Sizes, seed: u64, stop: StopRule, traced: bool) -> Result<Report, String> {
        let name = self.name();
        match self {
            Workload::MlIbm18 => drive(&EngineBench::ml_ibm18(sizes.ml), name, seed, stop, traced),
            Workload::Ml2Ibm18 => {
                drive(&EngineBench::ml2_ibm18(sizes.ml), name, seed, stop, traced)
            }
            Workload::NlevelIbm01 => drive(
                &EngineBench::nlevel_ibm01(sizes.nlevel),
                name,
                seed,
                stop,
                traced,
            ),
            Workload::ServeRequery => drive(
                &ServeBench::requery(sizes.serve, sizes.requery_pool),
                name,
                seed,
                stop,
                traced,
            ),
            Workload::ServeMixed => {
                drive(&ServeBench::mixed(sizes.serve), name, seed, stop, traced)
            }
        }
    }
}

const USAGE: &str = "usage:
  hypart-perf --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
  hypart-perf run-all --seed N --seconds S [--trace 0|1] [--runs R] [--out FILE]
workloads: ml_ibm18 ml2_ibm18 nlevel_ibm01 serve_requery serve_mixed
--spans writes the traced pass's spans as JSON (with --trace 1).
run-all runs each workload on seeds N..N+R; --out writes each metric's
median and quartiles over those runs, with provenance, as JSON.";

struct Options {
    run_all: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans: Option<String>,
    runs: u64,
    out: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            run_all: false,
            workload: None,
            seed: 1,
            seconds: 8.0,
            traced: false,
            spans: None,
            runs: 1,
            out: None,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "run-all" => opts.run_all = true,
                "--workload" => opts.workload = Some(Workload::parse(value()?)?),
                "--seed" => opts.seed = parse_num(value()?)?,
                "--seconds" => {
                    opts.seconds = parse_num::<f64>(value()?)?;
                    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                        return Err(format!(
                            "--seconds must be a non-negative number, got {}",
                            opts.seconds
                        ));
                    }
                }
                "--trace" => {
                    opts.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                    }
                }
                "--spans" => opts.spans = Some(value()?.clone()),
                "--runs" => {
                    opts.runs = parse_num(value()?)?;
                    if opts.runs == 0 {
                        return Err("--runs must be at least 1".to_string());
                    }
                }
                "--out" => opts.out = Some(value()?.clone()),
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
            }
        }
        if opts.run_all == opts.workload.is_some() {
            return Err(format!(
                "give exactly one of --workload or run-all\n{USAGE}"
            ));
        }
        if opts.run_all && opts.spans.is_some() {
            return Err("--spans needs --workload".to_string());
        }
        if !opts.run_all && (opts.runs != 1 || opts.out.is_some()) {
            return Err("--runs and --out need run-all".to_string());
        }
        Ok(opts)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse::<T>().map_err(|e| format!("bad number {s:?}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("hypart-perf: refusing to time a debug build; build with --release");
        return ExitCode::FAILURE;
    }
    let result = if opts.run_all {
        run_all(&opts)
    } else {
        run_one(&opts)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hypart-perf: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(opts: &Options) -> Result<(), String> {
    let workload = opts.workload.ok_or("no workload")?;
    let stop = StopRule {
        seconds: opts.seconds,
        min_ops: MIN_OPS,
    };
    println!(
        "hypart-perf  workload={} seed={} seconds={} trace={}",
        workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    );
    let provenance: Vec<String> = provenance()
        .iter()
        .map(|(key, value)| format!("{key}={value}"))
        .collect();
    println!("provenance   {}", provenance.join(" "));
    let report = workload.run(&BENCH, opts.seed, stop, opts.traced)?;
    if let (Some(path), Some(spans)) = (&opts.spans, &report.spans) {
        std::fs::write(path, format!("{spans}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    print!("{}", render(&report));
    println!("{}", json_line(&report)?);
    if report.failed > 0 {
        return Err(format!(
            "{} of {} ops failed verification",
            report.failed, report.attempted
        ));
    }
    Ok(())
}

/// Metric samples of one workload across runs: name -> (unit, values).
type Samples = BTreeMap<String, (String, Vec<f64>)>;

/// Runs every workload in its own child process, one after another, on
/// `runs` consecutive seeds, and optionally writes a summary.
fn run_all(opts: &Options) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut failed = Vec::new();
    let mut summary = Vec::new();
    for workload in WORKLOADS {
        let mut samples = Samples::new();
        for seed in (0..opts.runs).map(|i| opts.seed.wrapping_add(i)) {
            let out = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.traced { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("running {}: {e}", workload.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            if !out.status.success() {
                failed.push(format!("{} seed {seed}", workload.name()));
                continue;
            }
            let last = stdout.lines().last().unwrap_or_default();
            collect_metrics(last, &mut samples)
                .map_err(|e| format!("{} seed {seed}: {e}", workload.name()))?;
        }
        summary.push((workload.name(), summarize(&samples)));
    }
    if let Some(path) = &opts.out {
        let provenance = provenance()
            .into_iter()
            .map(|(key, value)| (key, JsonValue::string(value)));
        let doc = JsonValue::object([
            ("provenance", JsonValue::object(provenance)),
            ("first_seed", opts.seed.into()),
            ("runs", opts.runs.into()),
            ("seconds", opts.seconds.into()),
            ("trace", JsonValue::Bool(opts.traced)),
            ("workloads", JsonValue::object(summary)),
        ]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed runs: {}", failed.join(", ")))
    }
}

/// Adds the metrics of a run's last output line to `samples`.
fn collect_metrics(line: &str, samples: &mut Samples) -> Result<(), String> {
    let parsed = JsonValue::parse(line)?;
    let Some(JsonValue::Object(metrics)) = parsed.get("metrics") else {
        return Err(format!("no metrics in {line:?}"));
    };
    for (name, metric) in metrics {
        let value = metric.get("value").and_then(JsonValue::as_f64);
        let unit = metric.get("unit").and_then(JsonValue::as_str);
        let (Some(value), Some(unit)) = (value, unit) else {
            return Err(format!("metric {name} has no value or unit"));
        };
        let entry = samples
            .entry(name.clone())
            .or_insert_with(|| (unit.to_string(), Vec::new()));
        entry.1.push(value);
    }
    Ok(())
}

/// Each metric's unit, run count, median and quartiles, and the quartile
/// spread as a share of the median.
fn summarize(samples: &Samples) -> JsonValue {
    let metrics = samples.iter().map(|(name, (unit, values))| {
        let mut fields = vec![
            ("unit", JsonValue::string(unit.clone())),
            ("runs", values.len().into()),
        ];
        if let Some([q1, median, q3]) = stats::quartiles(values) {
            fields.extend([
                ("q1", q1.into()),
                ("median", median.into()),
                ("q3", q3.into()),
            ]);
            if median != 0.0 {
                fields.push(("spread", ((q3 - q1) / median).into()));
            }
        }
        (name.clone(), JsonValue::object(fields))
    });
    JsonValue::object(metrics)
}

/// Commit, core count, rayon pool width, build profile, CPU model and UTC
/// date, as (key, value) pairs.
fn provenance() -> Vec<(&'static str, String)> {
    // `--git-dir` keeps git from searching parent directories, so a copy
    // of the sources outside a repository reads `unknown`.
    let commit = Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name")?.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let days = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() / 86_400);
    vec![
        ("commit", commit),
        ("nproc", nproc.to_string()),
        ("pool_width", rayon::current_num_threads().to_string()),
        ("profile", profile.to_string()),
        ("cpu", cpu),
        ("date", civil_date(days)),
    ]
}

/// `YYYY-MM-DD` of the day `days` after 1970-01-01 in the proleptic
/// Gregorian calendar (Hinnant's days-to-civil algorithm).
fn civil_date(days: u64) -> String {
    let z = days + 719_468;
    let (era, doe) = (z / 146_097, z % 146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = era * 400 + yoe + u64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

/// The human-readable report: notes, then one line per metric.
fn render(report: &Report) -> String {
    let mut out = String::new();
    for note in &report.notes {
        out.push_str(note);
        out.push('\n');
    }
    for &(name, unit, value) in &report.metrics {
        let value = value.map_or_else(
            || "n/a (too few samples)".to_string(),
            |v| format!("{v} {unit}"),
        );
        out.push_str(&format!("metric       {name} = {value}\n"));
    }
    out
}

/// The machine-readable last line. Every metric must have a finite value.
fn json_line(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(report.metrics.len());
    for &(name, unit, value) in &report.metrics {
        let value = value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} has no finite value"))?;
        metrics.push((
            name,
            JsonValue::object([("value", value.into()), ("unit", JsonValue::string(unit))]),
        ));
    }
    let line = JsonValue::object([
        ("correct", JsonValue::Bool(report.failed == 0)),
        ("attempted", report.attempted.into()),
        ("failed", report.failed.into()),
        ("metrics", JsonValue::object(metrics)),
    ]);
    Ok(line.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::{END_TO_END, PER_LAYER};

    /// Tiny instances, so every workload runs in well under a second.
    const SMOKE: Sizes = Sizes {
        ml: 0.002,
        nlevel: 0.02,
        serve: 0.02,
        requery_pool: 2,
    };

    const TWO_OPS: StopRule = StopRule {
        seconds: 0.0,
        min_ops: 2,
    };

    fn assert_prints_all(report: &Report, names: &[(&str, &str)]) {
        let text = render(report);
        for (name, unit) in names {
            assert!(
                text.contains(&format!("metric       {name} = ")),
                "{name} missing from:\n{text}"
            );
            assert!(report
                .metrics
                .iter()
                .any(|&(n, u, _)| n == *name && u == *unit));
        }
        assert_eq!(report.metrics.len(), names.len());
    }

    #[test]
    fn every_workload_runs_clean_and_prints_every_metric() {
        for workload in WORKLOADS {
            let report = workload
                .run(&SMOKE, 7, TWO_OPS, false)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert_eq!(report.failed, 0, "{}: {:?}", workload.name(), report.notes);
            assert!(report.attempted >= 2);
            assert_prints_all(&report, &END_TO_END);
            assert!(render(&report).contains("fail_frac    0 "));

            let traced = workload
                .run(&SMOKE, 7, TWO_OPS, true)
                .unwrap_or_else(|e| panic!("{} traced: {e}", workload.name()));
            assert_eq!(traced.failed, 0, "{}: {:?}", workload.name(), traced.notes);
            assert_prints_all(&traced, &PER_LAYER);
            assert!(json_line(&traced).is_ok());
        }
    }

    #[test]
    fn cut_metrics_come_from_the_fixed_panel() {
        let cuts = |workload: Workload, seed| {
            let report = workload
                .run(&SMOKE, seed, TWO_OPS, false)
                .unwrap_or_else(|e| panic!("{e}"));
            report
                .metrics
                .iter()
                .filter(|(name, _, _)| name.starts_with("cut_"))
                .map(|&(_, _, v)| v)
                .collect::<Vec<_>>()
        };
        assert_eq!(cuts(Workload::MlIbm18, 3), cuts(Workload::MlIbm18, 4));
        assert_eq!(
            cuts(Workload::ServeRequery, 3),
            cuts(Workload::ServeMixed, 4)
        );
    }

    #[test]
    fn the_json_line_has_exactly_the_contract_keys() {
        let report = Workload::NlevelIbm01
            .run(
                &SMOKE,
                1,
                StopRule {
                    seconds: 0.0,
                    min_ops: MIN_OPS,
                },
                false,
            )
            .unwrap_or_else(|e| panic!("{e}"));
        let line = json_line(&report).unwrap_or_else(|e| panic!("{e}"));
        let parsed = JsonValue::parse(&line).unwrap_or_else(|e| panic!("{e}"));
        let JsonValue::Object(top) = &parsed else {
            panic!("not an object: {line}");
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Some(JsonValue::Object(metrics)) = parsed.get("metrics") else {
            panic!("no metrics: {line}");
        };
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    #[test]
    fn benchmark_json_names_what_the_binary_runs_and_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let doc = JsonValue::parse(&text).unwrap_or_else(|e| panic!("{e}"));
        let entries = |key: &str| match doc.get(key) {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(JsonValue::as_str).unwrap_or_default();
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect::<Vec<_>>(),
            _ => panic!("no {key} array"),
        };
        let expected = |metrics: &[(&str, &str)]| {
            metrics
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(entries("end_to_end"), expected(&END_TO_END));
        assert_eq!(entries("per_layer"), expected(&PER_LAYER));
        let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
        // `ml2_ibm18` runs by hand and in `run-all` only; see README.md.
        let gated: Vec<String> = WORKLOADS
            .iter()
            .filter(|&&w| w != Workload::Ml2Ibm18)
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, gated);
    }

    #[test]
    fn options_need_exactly_one_mode() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(Options::parse(&args("--seed 1")).is_err());
        assert!(Options::parse(&args("run-all --workload ml_ibm18")).is_err());
        assert!(Options::parse(&args("--workload nope")).is_err());
        assert!(Options::parse(&args("--workload ml_ibm18 --trace 2")).is_err());
        let ok = Options::parse(&args(
            "--workload serve_mixed --seed 4 --seconds 10 --trace 1",
        ))
        .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(ok.workload, Some(Workload::ServeMixed));
        assert!(ok.traced);
        assert_eq!(ok.seed, 4);
        assert!(Options::parse(&args("--workload ml_ibm18 --runs 3")).is_err());
        assert!(Options::parse(&args("run-all --runs 0")).is_err());
        assert!(Options::parse(&args("run-all --spans x.json")).is_err());
        let all = Options::parse(&args("run-all --runs 10 --out b.json"))
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!((all.runs, all.out.as_deref()), (10, Some("b.json")));
    }

    #[test]
    fn run_all_summarizes_each_metric_over_runs() {
        let mut samples = Samples::new();
        for v in [3.0, 1.0, 2.0, 10.0] {
            let line = format!(
                r#"{{"correct":true,"attempted":1,"failed":0,"metrics":{{"x_s":{{"value":{v},"unit":"s"}}}}}}"#
            );
            collect_metrics(&line, &mut samples).unwrap_or_else(|e| panic!("{e}"));
        }
        let summary = summarize(&samples);
        let x = summary.get("x_s").unwrap_or_else(|| panic!("{summary}"));
        let field = |k| x.get(k).and_then(JsonValue::as_f64);
        assert_eq!(x.get("unit").and_then(JsonValue::as_str), Some("s"));
        assert_eq!(field("runs"), Some(4.0));
        assert_eq!(field("q1"), Some(1.25));
        assert_eq!(field("median"), Some(2.5));
        assert_eq!(field("q3"), Some(8.25));
        assert_eq!(field("spread"), Some(2.8));
        assert!(collect_metrics("{}", &mut samples).is_err());
    }

    #[test]
    fn civil_dates_count_from_the_unix_epoch() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(11_016), "2000-02-29");
        assert_eq!(civil_date(20_742), "2026-10-16");
    }
}
