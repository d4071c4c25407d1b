//! The in-process engine workloads (`ml_ibm18`, `ml2_ibm18`,
//! `nlevel_ibm01`): one op parses the `.hgr` bytes, runs one multilevel
//! start through `MlPartitioner::run_with` and verifies the result.

use std::time::Instant;

use hypart_benchgen::ispd98_like;
use hypart_core::{derive_seed, BalanceConstraint, EngineKind, RunCtx};
use hypart_hypergraph::io::hgr;
use hypart_ml::{MlConfig, MlPartitioner};
use hypart_trace::{NullSink, RunEvent, TraceSink};

use crate::bench::{panel_seed, par_map, Bench, Panel, Pass, StopRule, PANEL_OPS, PANEL_THREADS};
use crate::stats;
use crate::trace::{ns_since, BenchSink, SpanLog};
use crate::verify;

/// Generator seed of the netlists. A workload partitions one fixed
/// netlist, as the paper's experiments partition the fixed ibm suite;
/// the run seed drives the engine's starts.
const INSTANCE_SEED: u64 = 1;

/// Seed of the warm-up op. It is fixed, like the netlist, so that
/// `setup_s` does the same work for every run seed.
const WARMUP_SEED: u64 = 0;

/// Spans whose self time is not attributed to a named layer.
const WRAPPERS: [&str; 1] = ["multilevel.run"];

/// One engine workload.
pub struct EngineBench {
    profile: usize,
    scale: f64,
    fraction: f64,
    config: MlConfig,
    /// Width of the rayon pool the pass runs in; `None` runs on the
    /// calling thread's default width.
    pool_width: Option<usize>,
}

impl EngineBench {
    /// Serial ML LIFO, one start, 2% balance, on the ibm18 profile.
    pub fn ml_ibm18(scale: f64) -> Self {
        EngineBench {
            profile: 18,
            scale,
            fraction: 0.02,
            config: MlConfig::ml_lifo(),
            pool_width: None,
        }
    }

    /// The same ops on the 2-lane deterministic parallel engine, in a
    /// 2-worker pool.
    pub fn ml2_ibm18(scale: f64) -> Self {
        EngineBench {
            config: MlConfig::ml_lifo().with_threads(2).with_deterministic(true),
            pool_width: Some(2),
            ..EngineBench::ml_ibm18(scale)
        }
    }

    /// The n-level backend, 2% balance, on the ibm01 profile.
    pub fn nlevel_ibm01(scale: f64) -> Self {
        EngineBench {
            profile: 1,
            scale,
            fraction: 0.02,
            config: MlConfig::ml_lifo().with_engine(EngineKind::NLevel),
            pool_width: None,
        }
    }

    fn pass_here(
        &self,
        setup: &EngineSetup,
        seed: u64,
        stop: StopRule,
        traced: bool,
    ) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let mut layers = LayerSamples::default();
        let start = Instant::now();
        let mut i = 0u64;
        while !stop.done(start, i) {
            let sink = traced.then(|| BenchSink::new(start));
            let op = setup.run_op(derive_seed(seed, i), self.fraction, sink.as_ref())?;
            pass.attempted += 1;
            pass.latencies.push((op.done - op.start).as_secs_f64());
            if let Err(e) = &op.verdict {
                pass.failures.push(format!("op {i}: {e}"));
            }
            if let Some(sink) = &sink {
                let counts = sink.counts();
                for (total, n) in pass.event_counts.iter_mut().zip(counts) {
                    *total += n;
                }
                layers.record(&mut pass.spans, i, start, &op, &sink.take_events());
            }
            i += 1;
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        if traced {
            pass.layers = layers.metrics(setup.hgr.len());
        }
        Ok(pass)
    }
}

/// A generated netlist serialized once, and the partitioner to run on it.
pub struct EngineSetup {
    hgr: Vec<u8>,
    partitioner: MlPartitioner,
    pool: Option<rayon::ThreadPool>,
}

/// Timestamps and result of one op.
struct OpRun {
    start: Instant,
    parsed: Instant,
    ran: Instant,
    done: Instant,
    cut: u64,
    verdict: Result<(), String>,
}

impl EngineSetup {
    fn run_op(&self, seed: u64, fraction: f64, sink: Option<&BenchSink>) -> Result<OpRun, String> {
        let start = Instant::now();
        let h =
            hgr::read(&self.hgr[..]).map_err(|e| format!("parsing the generated netlist: {e}"))?;
        let parsed = Instant::now();
        let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), fraction);
        let sink: &dyn TraceSink = match sink {
            Some(sink) => sink,
            None => &NullSink,
        };
        let out =
            self.partitioner
                .run_with(&h, &constraint, &mut RunCtx::new(seed).with_sink(sink));
        let ran = Instant::now();
        let cut = out.cut;
        let verdict = verify::claims(&out)
            .and_then(|()| verify::bisection(&h, out.assignment, cut, &constraint));
        Ok(OpRun {
            start,
            parsed,
            ran,
            done: Instant::now(),
            cut,
            verdict,
        })
    }
}

impl Bench for EngineBench {
    type Setup = EngineSetup;

    fn setup(&self, _seed: u64) -> Result<EngineSetup, String> {
        let h = ispd98_like(self.profile, self.scale, INSTANCE_SEED);
        let mut bytes = Vec::new();
        hgr::write(&h, &mut bytes).map_err(|e| format!("serializing the netlist: {e}"))?;
        let pool = match self.pool_width {
            Some(width) => Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .map_err(|e| format!("building the worker pool: {e}"))?,
            ),
            None => None,
        };
        let setup = EngineSetup {
            hgr: bytes,
            partitioner: MlPartitioner::new(self.config.clone()),
            pool,
        };
        let warm = |s: &EngineSetup| s.run_op(WARMUP_SEED, self.fraction, None);
        let warm = match &setup.pool {
            Some(pool) => pool.install(|| warm(&setup)),
            None => warm(&setup),
        }?;
        warm.verdict.map_err(|e| format!("warm-up op: {e}"))?;
        Ok(setup)
    }

    fn pass(
        &self,
        setup: &mut EngineSetup,
        seed: u64,
        stop: StopRule,
        traced: bool,
    ) -> Result<Pass, String> {
        match &setup.pool {
            Some(pool) => pool.install(|| self.pass_here(setup, seed, stop, traced)),
            None => self.pass_here(setup, seed, stop, traced),
        }
    }

    fn panel(&self, setup: &EngineSetup) -> Result<Panel, String> {
        let op = |i: usize| {
            setup
                .run_op(panel_seed(i as u64), self.fraction, None)
                .map(|op| (op.cut, op.verdict))
        };
        let ops = match &setup.pool {
            // The parallel engine already keeps the pool busy.
            Some(pool) => pool.install(|| (0..PANEL_OPS as usize).map(op).collect()),
            None => par_map(PANEL_OPS as usize, PANEL_THREADS, op)?
                .into_iter()
                .collect::<Result<Vec<_>, String>>(),
        }?;
        Ok(Panel::from_ops(ops))
    }
}

/// Per-op layer samples of a traced pass.
#[derive(Default)]
struct LayerSamples {
    parse_s: Vec<f64>,
    coarsen_s: Vec<f64>,
    levels: Vec<f64>,
    initial_s: Vec<f64>,
    refine_s: Vec<f64>,
    finest_refine_s: Vec<f64>,
    contract_s: Vec<f64>,
    contractions: Vec<f64>,
    nlevel_initial_s: Vec<f64>,
    uncontract_s: Vec<f64>,
    localized_moves: Vec<f64>,
    coverage: Vec<f64>,
    ops: u64,
    passes: u64,
    moves: u64,
    rolled_back: u64,
    corked: u64,
    shard_aborted: u64,
}

impl LayerSamples {
    /// Turns one op's timestamps and structural events into spans and
    /// layer samples.
    fn record(
        &mut self,
        spans: &mut SpanLog,
        op: u64,
        epoch: Instant,
        run: &OpRun,
        events: &[(u64, RunEvent)],
    ) {
        let ns = |t: Instant| ns_since(epoch, t);
        let (begin, end) = (ns(run.parsed), ns(run.ran));
        let root = spans.push(op, "op", None, ns(run.start), ns(run.done));
        spans.push(op, "hypergraph.parse", Some(root), ns(run.start), begin);
        let engine = spans.push(op, "multilevel.run", Some(root), begin, end);
        spans.push(op, "verify", Some(root), end, ns(run.done));

        let first = |pred: &dyn Fn(&RunEvent) -> bool| {
            events.iter().find(|(_, e)| pred(e)).map(|&(t, _)| t)
        };
        let last = |pred: &dyn Fn(&RunEvent) -> bool| {
            events.iter().rev().find(|(_, e)| pred(e)).map(|&(t, _)| t)
        };
        let mut phase = |name, parent, a: u64, b: u64, samples: &mut Vec<f64>| {
            samples.push(b.saturating_sub(a) as f64 * 1e-9);
            spans.push(op, name, Some(parent), a, b)
        };

        let contraction_begin = first(&|e| matches!(e, RunEvent::ContractionBegin { .. }));
        if let Some(cb) = contraction_begin {
            let ce = first(&|e| matches!(e, RunEvent::ContractionEnd { .. })).unwrap_or(end);
            let ub = first(&|e| matches!(e, RunEvent::UncontractionBegin { .. })).unwrap_or(end);
            let ue = first(&|e| matches!(e, RunEvent::UncontractionEnd { .. })).unwrap_or(end);
            phase("core.nlevel.contract", engine, cb, ce, &mut self.contract_s);
            phase(
                "core.nlevel.initial",
                engine,
                ce,
                ub,
                &mut self.nlevel_initial_s,
            );
            phase(
                "core.nlevel.uncontract",
                engine,
                ub,
                ue,
                &mut self.uncontract_s,
            );
        } else {
            let is_down = |e: &RunEvent| matches!(e, RunEvent::LevelDown { .. });
            let first_up = first(&|e| matches!(e, RunEvent::LevelUp { .. })).unwrap_or(end);
            let finest_up =
                last(&|e| matches!(e, RunEvent::LevelUp { level: 0, .. })).unwrap_or(end);
            let coarse_end = first(&is_down).unwrap_or(begin);
            let initial_begin = last(&is_down).unwrap_or(begin);
            phase(
                "multilevel.coarsen",
                engine,
                begin,
                coarse_end,
                &mut self.coarsen_s,
            );
            phase(
                "multilevel.initial",
                engine,
                initial_begin,
                first_up,
                &mut self.initial_s,
            );
            let refine = phase(
                "multilevel.refine",
                engine,
                first_up,
                end,
                &mut self.refine_s,
            );
            phase(
                "multilevel.finest_refine",
                refine,
                finest_up,
                end,
                &mut self.finest_refine_s,
            );
        }

        self.parse_s.push((run.parsed - run.start).as_secs_f64());
        self.coverage.push(spans.coverage(root, &WRAPPERS));
        self.ops += 1;
        let mut levels = 0u64;
        for (_, event) in events {
            match *event {
                RunEvent::LevelDown { .. } => levels += 1,
                RunEvent::PassEnd {
                    moves_made,
                    moves_rolled_back,
                    corked,
                    ..
                } => {
                    self.passes += 1;
                    self.moves += moves_made as u64;
                    self.rolled_back += moves_rolled_back as u64;
                    self.corked += u64::from(corked);
                }
                RunEvent::ShardAborted { .. } => self.shard_aborted += 1,
                RunEvent::ContractionEnd { contractions, .. } => {
                    self.contractions.push(contractions as f64);
                }
                RunEvent::UncontractionEnd { moves, .. } => {
                    self.localized_moves.push(moves as f64);
                }
                _ => {}
            }
        }
        self.levels.push(levels as f64);
    }

    fn metrics(&self, hgr_bytes: usize) -> Vec<(&'static str, f64)> {
        let p50 = |v: &[f64]| stats::p50(v).unwrap_or(0.0);
        let per_op = |n: u64| n as f64 / self.ops.max(1) as f64;
        let mb_per_s: Vec<f64> = self
            .parse_s
            .iter()
            .filter(|&&s| s > 0.0)
            .map(|s| hgr_bytes as f64 / 1e6 / s)
            .collect();
        let kept = if self.moves == 0 {
            0.0
        } else {
            1.0 - self.rolled_back as f64 / self.moves as f64
        };
        vec![
            ("hypergraph.parse_s", p50(&self.parse_s)),
            ("hypergraph.parse_mb_per_s", p50(&mb_per_s)),
            ("multilevel.coarsen_s", p50(&self.coarsen_s)),
            ("multilevel.levels", p50(&self.levels)),
            ("multilevel.initial_s", p50(&self.initial_s)),
            ("multilevel.refine_s", p50(&self.refine_s)),
            ("multilevel.finest_refine_s", p50(&self.finest_refine_s)),
            ("core.fm.passes", per_op(self.passes)),
            ("core.fm.moves", per_op(self.moves)),
            ("core.fm.kept_ratio", kept),
            ("core.fm.corked_passes", per_op(self.corked)),
            ("core.par.shard_aborted", self.shard_aborted as f64),
            ("core.nlevel.contract_s", p50(&self.contract_s)),
            ("core.nlevel.contractions", p50(&self.contractions)),
            ("core.nlevel.initial_s", p50(&self.nlevel_initial_s)),
            ("core.nlevel.uncontract_s", p50(&self.uncontract_s)),
            ("core.nlevel.localized_moves", p50(&self.localized_moves)),
            ("trace.span_coverage", p50(&self.coverage)),
        ]
    }
}
