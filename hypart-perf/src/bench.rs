//! The workload-independent part of a run: repeated set-up, the untimed
//! and traced passes, and turning their samples into named metrics.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use hypart_core::derive_seed;
use hypart_trace::EVENT_KINDS;

use crate::stats;
use crate::trace::SpanLog;

/// Ops in the quality panel, the fixed op set the cut metrics come from.
pub const PANEL_OPS: u64 = 100;

/// Base of the panel's op seeds. It does not depend on the run seed, so
/// the cut metrics repeat exactly between runs, and between two commits
/// whose engines compute the same partitions.
const PANEL_SEED: u64 = 0xDAC9_9CA1;

/// Threads the panel of a single-threaded engine runs on: the 2 cores
/// the benchmark is sized for.
pub const PANEL_THREADS: usize = 2;

/// Seed of panel op `i`. Kept below 2^53 like every daemon job seed, so
/// that the daemon would run the same job.
pub fn panel_seed(i: u64) -> u64 {
    derive_seed(PANEL_SEED, i) & ((1 << 53) - 1)
}

/// Set-ups per untraced run: at least [`SETUP_REPEATS`], and more until
/// [`SETUP_SECONDS`] have gone into set-up, so that a short burst of host
/// noise cannot move the median of a 0.1 s set-up; `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUP_REPEATS: usize = 40;

/// The end-to-end metrics, with units, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_s_p50", "s"),
    ("latency_s_p90", "s"),
    ("ops_per_s", "ops/s"),
    ("cut_mean", "nets"),
    ("cut_min", "nets"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, with units, printed by a traced run. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("hypergraph.parse_s", "s"),
    ("hypergraph.parse_mb_per_s", "MB/s"),
    ("hypergraph.digest_s", "s"),
    ("multilevel.coarsen_s", "s"),
    ("multilevel.levels", "count"),
    ("multilevel.initial_s", "s"),
    ("multilevel.refine_s", "s"),
    ("multilevel.finest_refine_s", "s"),
    ("core.fm.passes", "count"),
    ("core.fm.moves", "count"),
    ("core.fm.kept_ratio", "ratio"),
    ("core.fm.corked_passes", "count"),
    ("core.par.shard_aborted", "count"),
    ("core.nlevel.contract_s", "s"),
    ("core.nlevel.contractions", "count"),
    ("core.nlevel.initial_s", "s"),
    ("core.nlevel.uncontract_s", "s"),
    ("core.nlevel.localized_moves", "count"),
    ("server.engine_s", "s"),
    ("server.overhead_s", "s"),
    ("server.requery_s", "s"),
    ("server.upload_s", "s"),
    ("server.budgeted_s", "s"),
    ("server.traced_s", "s"),
    ("server.kway4_s", "s"),
    ("server.eval_s", "s"),
    ("server.twoway_s", "s"),
    ("server.budgeted_starts", "count"),
    ("server.trace_events_per_job", "count"),
    ("kway.rb4_s", "s"),
    ("server.instance_hit_ratio", "ratio"),
    ("server.hierarchy_hit_ratio", "ratio"),
    ("server.rejected_overload", "count"),
    ("server.errors", "count"),
    ("server.stream_aborted", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.span_coverage", "ratio"),
];

/// When a timed pass ends: after `seconds`, but never before `min_ops`
/// ops, so that `latency_s_p90` always exists.
#[derive(Clone, Copy, Debug)]
pub struct StopRule {
    pub seconds: f64,
    pub min_ops: u64,
}

impl StopRule {
    pub fn done(&self, start: Instant, completed: u64) -> bool {
        completed >= self.min_ops && start.elapsed().as_secs_f64() >= self.seconds
    }
}

/// What one timed pass measured.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    /// One message per failed op.
    pub failures: Vec<String>,
    /// Per-op latency, seconds.
    pub latencies: Vec<f64>,
    /// Wall time from the first send or op start to the last completion.
    pub wall_s: f64,
    /// Per-layer metrics; only a traced pass fills these.
    pub layers: Vec<(&'static str, f64)>,
    pub spans: SpanLog,
    pub event_counts: [u64; EVENT_KINDS.len()],
}

/// The quality panel's results: one cut per op, and one message per
/// failed op.
#[derive(Default)]
pub struct Panel {
    pub cuts: Vec<u64>,
    pub failures: Vec<String>,
}

impl Panel {
    /// Collects `(cut, verdict)` per op, in op order.
    pub fn from_ops(ops: impl IntoIterator<Item = (u64, Result<(), String>)>) -> Self {
        let mut panel = Panel::default();
        for (i, (cut, verdict)) in ops.into_iter().enumerate() {
            panel.cuts.push(cut);
            if let Err(e) = verdict {
                panel.failures.push(format!("panel op {i}: {e}"));
            }
        }
        panel
    }
}

/// A workload: how to set it up and how to run one timed pass on it.
pub trait Bench {
    type Setup;

    /// Everything before the first timed op, including one untimed
    /// warm-up op. Inputs come from `seed` alone.
    fn setup(&self, seed: u64) -> Result<Self::Setup, String>;

    /// Runs ops until `stop` says so and verifies every result. A traced
    /// pass also fills [`Pass::layers`] and [`Pass::spans`].
    fn pass(
        &self,
        setup: &mut Self::Setup,
        seed: u64,
        stop: StopRule,
        traced: bool,
    ) -> Result<Pass, String>;

    /// Runs and verifies the [`PANEL_OPS`] untimed ops of the quality
    /// panel, on the seeds [`panel_seed`] gives.
    fn panel(&self, setup: &Self::Setup) -> Result<Panel, String>;
}

/// `f(0)`, …, `f(n - 1)` on `threads` scoped threads, in index order.
pub fn par_map<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, String> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        let mut done = Vec::with_capacity(n);
        for worker in workers {
            done.extend(worker.join().map_err(|_| "a worker thread panicked")?);
        }
        Ok::<_, String>(done)
    })?;
    done.sort_unstable_by_key(|&(i, _)| i);
    Ok(done.into_iter().map(|(_, v)| v).collect())
}

/// A finished run: counts, metrics by name with units, and notes for the
/// human-readable report.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, Option<f64>)>,
    pub notes: Vec<String>,
    /// The traced pass's spans as JSON, for `--spans`.
    pub spans: Option<hypart_trace::json::JsonValue>,
}

/// Runs one workload end to end: untraced, set-up is repeated (see
/// [`SETUP_REPEATS`]), one pass is timed and the quality panel runs;
/// traced, an untraced and a traced pass of half the length each run on
/// one set-up.
pub fn drive<B: Bench>(
    bench: &B,
    workload: &str,
    seed: u64,
    stop: StopRule,
    traced: bool,
) -> Result<Report, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup = loop {
        let t = Instant::now();
        let fresh = bench.setup(seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let enough = setup_s.len() >= SETUP_REPEATS && setup_s.iter().sum::<f64>() >= SETUP_SECONDS;
        if traced || enough || setup_s.len() == MAX_SETUP_REPEATS {
            break fresh;
        }
        // Dropped here, outside the timed region.
    };

    if !traced {
        let pass = bench.pass(&mut setup, seed, stop, false)?;
        // Read before the panel, whose ops run side by side.
        let rss = peak_rss_mb()?;
        let panel = bench.panel(&setup)?;
        return Ok(end_to_end_report(&pass, &panel, &setup_s, rss));
    }
    let half = StopRule {
        seconds: stop.seconds / 2.0,
        ..stop
    };
    let plain = bench.pass(&mut setup, seed, half, false)?;
    let pass = bench.pass(&mut setup, seed, half, true)?;
    Ok(per_layer_report(workload, seed, &plain, &pass))
}

fn end_to_end_report(pass: &Pass, panel: &Panel, setup_s: &[f64], rss_mb: f64) -> Report {
    let lat = &pass.latencies;
    let cuts: Vec<f64> = panel.cuts.iter().map(|&c| c as f64).collect();
    let attempted = pass.attempted + panel.cuts.len() as u64;
    let failures: Vec<&String> = pass.failures.iter().chain(&panel.failures).collect();
    let values = [
        stats::p50(setup_s),
        stats::p50(lat),
        stats::p90(lat),
        (pass.wall_s > 0.0).then(|| lat.len() as f64 / pass.wall_s),
        stats::mean(&cuts),
        cuts.iter().copied().reduce(f64::min),
        Some(rss_mb),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    let mut notes = vec![
        format!(
            "samples      latency={} panel={} setup={}",
            lat.len(),
            cuts.len(),
            setup_s.len()
        ),
        format!(
            "fail_frac    {} ({} of {} ops)",
            failures.len() as f64 / attempted.max(1) as f64,
            failures.len(),
            attempted
        ),
    ];
    if let Some((label, v)) = stats::highest_tail(lat) {
        notes.push(format!("tail         latency_s_{label} = {v} s"));
    }
    notes.extend(failures.iter().take(5).map(|f| format!("failure      {f}")));
    Report {
        attempted,
        failed: failures.len() as u64,
        metrics,
        notes,
        spans: None,
    }
}

fn per_layer_report(workload: &str, seed: u64, plain: &Pass, pass: &Pass) -> Report {
    let mut values: BTreeMap<&str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    for &(name, v) in &pass.layers {
        values.insert(name, v);
    }
    if let (Some(traced), Some(untraced)) =
        (stats::p50(&pass.latencies), stats::p50(&plain.latencies))
    {
        values.insert("trace.overhead_frac", traced / untraced - 1.0);
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied()))
        .collect();
    let failures: Vec<String> = plain
        .failures
        .iter()
        .chain(&pass.failures)
        .cloned()
        .collect();
    let mut notes = vec![format!(
        "samples      untraced={} traced={} spans={}",
        plain.latencies.len(),
        pass.latencies.len(),
        pass.spans.spans().len()
    )];
    notes.extend(failures.iter().take(5).map(|f| format!("failure      {f}")));
    let spans = pass.spans.to_json(workload, seed, &pass.event_counts);
    Report {
        attempted: plain.attempted + pass.attempted,
        failed: failures.len() as u64,
        metrics,
        notes,
        spans: Some(spans),
    }
}

/// `VmHWM` (the process's peak resident set) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
