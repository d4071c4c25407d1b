//! The daemon workloads (`serve_requery`, `serve_mixed`): an in-process
//! [`Server`] with its default configuration under a closed loop of
//! [`CONNECTIONS`] connections, each keeping a fixed number of jobs in
//! flight. The loop is closed because the daemon's callers (loadgen, the
//! eval scripts) wait for each reply before sending more.
//!
//! `serve_mixed` sends the traffic of `hypart-loadgen`, the only model of
//! the daemon's callers in the repository: each connection uploads the
//! netlist inline once, then cycles budgeted 2-way, traced 2-way, 4-way,
//! eval and plain 2-way jobs, with a fresh seed for every budgeted, 4-way
//! and plain 2-way job. `serve_requery` is not a model of any traffic: it
//! isolates the read path, on which both caches hit.
//!
//! Every job but a budgeted one is a deterministic function of (instance,
//! k, fraction, seed), so after the timed phase each distinct job is
//! replayed in process on the pipeline the daemon runs; the daemon's cut,
//! balance and audit flag must equal the replay's, and the replay's own
//! assignment goes through the auditor. A budgeted job stops at its
//! deadline, so its returned assignment goes through the auditor instead.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use hypart_benchgen::ispd98_like;
use hypart_core::{derive_seed, AuditLevel, BalanceConstraint, Bisection, RunCtx, StopReason};
use hypart_hypergraph::io::hgr;
use hypart_hypergraph::{Hypergraph, PartId};
use hypart_kway::{recursive_bisection_with, KWayBalance};
use hypart_ml::{MlConfig, MlPartitioner};
use hypart_server::protocol::{
    read_frame, write_frame, EvalRequest, InstanceRef, JobResult, PartitionRequest, Request,
    Response, StatsSnapshot, DEFAULT_MAX_FRAME_BYTES,
};
use hypart_server::{Client, JobOutcome, Server, ServerConfig, ServerHandle};

use crate::bench::{panel_seed, par_map, Bench, Panel, Pass, StopRule, PANEL_OPS, PANEL_THREADS};
use crate::stats;
use crate::trace::{ns_since, SpanLog};
use crate::verify;

/// Client connections driving the daemon: one per core of the 2-core
/// host the benchmark is sized for.
const CONNECTIONS: usize = 2;

/// Jobs each `serve_mixed` connection keeps in flight. Loadgen's default
/// of 4 clients with 1 job each keeps 4 jobs in flight; here they share
/// the 2 connections.
const MIXED_WINDOW: usize = 2;

/// Balance fraction of every job (the protocol's default).
const FRACTION: f64 = 0.1;

/// Budget of a budgeted job: loadgen's default `--budget-ms`.
const BUDGET_MS: u64 = 20;

/// Generator seed of the netlist (fixed per workload; the run seed
/// drives the job seeds).
const INSTANCE_SEED: u64 = 1;

/// Seed of the upload and traced jobs: loadgen's default `--seed`. It is
/// the same for every run seed because one traced job's cost is the cost
/// of every traced job in a run: its event stream sets `latency_s_p90`,
/// which a base seed drawn from the run seed moved by a third between
/// runs.
const BASE_SEED: u64 = 1;

/// Derivation offsets keeping the seed streams of a run apart.
const REQUERY_SEEDS: u64 = 1 << 20;
const FRESH_SEEDS: u64 = 3 << 20;

/// Derives the fresh seeds of `serve_mixed`'s warm-up cycle.
const WARMUP_SALT: u64 = 0;

/// Job seeds travel as JSON numbers, which are exact only below 2^53;
/// a larger seed would reach the daemon rounded and run another job.
fn job_seed(base: u64, index: u64) -> u64 {
    derive_seed(base, index) & ((1 << 53) - 1)
}

/// Client read timeout: far above any job, so only a hung daemon trips it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// After its upload, a `serve_mixed` connection cycles these kinds in
/// loadgen's order (`client_worker`, job `i % 5`).
const MIX: [Kind; 5] = [
    Kind::Budgeted,
    Kind::Traced,
    Kind::KWay4,
    Kind::Eval,
    Kind::TwoWay,
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `serve_requery`: 2-way by digest with a seed from the pool that
    /// set-up warmed, so both caches hit.
    Requery,
    /// The netlist inline with the base seed, assignment returned:
    /// loadgen's first job on each connection.
    Upload,
    /// 2-way by digest, fresh seed, `budget_ms` set: a multi-start sweep
    /// until the deadline. It also returns its assignment, which loadgen
    /// does not ask for, so that the benchmark can audit it.
    Budgeted,
    /// 2-way by digest with the base seed, streaming its trace events.
    Traced,
    /// 4-way recursive bisection by digest, fresh seed.
    KWay4,
    /// Cut and balance of the upload's assignment.
    Eval,
    /// 2-way by digest, fresh seed.
    TwoWay,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Requery => "server.requery",
            Kind::Upload => "server.upload",
            Kind::Budgeted => "server.budgeted",
            Kind::Traced => "server.traced",
            Kind::KWay4 => "server.kway4",
            Kind::Eval => "server.eval",
            Kind::TwoWay => "server.twoway",
        }
    }

    /// A 2-way partition job, whose result must be balanced.
    fn is_two_way(self) -> bool {
        matches!(
            self,
            Kind::Requery | Kind::Upload | Kind::Budgeted | Kind::Traced | Kind::TwoWay
        )
    }
}

/// What a replayable job computes; equal keys give equal results.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum JobKey {
    /// 2-way on the split pipeline with this seed.
    TwoWay(u64),
    /// 4-way recursive bisection with this seed.
    KWay4(u64),
    /// Eval of the upload's assignment.
    Eval,
}

/// One daemon workload.
pub struct ServeBench {
    scale: f64,
    mixed: bool,
    requery_pool: usize,
}

impl ServeBench {
    /// 2 connections x 1 job in flight, re-queries from a pool of
    /// `requery_pool` seeds only.
    pub fn requery(scale: f64, requery_pool: usize) -> Self {
        ServeBench {
            scale,
            mixed: false,
            requery_pool,
        }
    }

    /// 2 connections x [`MIXED_WINDOW`] jobs in flight, loadgen's mix.
    pub fn mixed(scale: f64) -> Self {
        ServeBench {
            scale,
            mixed: true,
            requery_pool: 0,
        }
    }

    fn window(&self) -> usize {
        if self.mixed {
            MIXED_WINDOW
        } else {
            1
        }
    }

    fn kind(&self, j: u64) -> Kind {
        match (self.mixed, j) {
            (false, _) => Kind::Requery,
            (true, 0) => Kind::Upload,
            (true, j) => MIX[((j - 1) % MIX.len() as u64) as usize],
        }
    }

    /// Job `j` of connection `conn`: its kind, its seed and the request.
    fn job(&self, setup: &ServeSetup, conn: usize, j: u64) -> (Kind, u64, Request) {
        let kind = self.kind(j);
        let id = j + 1;
        let seed = match kind {
            Kind::Requery => {
                let lane = j * CONNECTIONS as u64 + conn as u64;
                setup.requery_seeds[(lane % setup.requery_seeds.len() as u64) as usize]
            }
            Kind::Upload | Kind::Traced => BASE_SEED,
            Kind::Eval => 0,
            Kind::Budgeted | Kind::KWay4 | Kind::TwoWay => {
                job_seed(setup.fresh_salt, ((conn as u64) << 32) | j)
            }
        };
        let by_digest = InstanceRef::Digest(setup.digest);
        if kind == Kind::Eval {
            let eval = EvalRequest {
                id,
                instance: by_digest,
                assignment: setup.assignment.clone(),
                k: 2,
                fraction: FRACTION,
                request_token: None,
            };
            return (kind, seed, Request::Eval(eval));
        }
        let instance = match kind {
            Kind::Upload => InstanceRef::Inline(setup.text.clone()),
            _ => by_digest,
        };
        let mut r = PartitionRequest::new(id, instance, seed);
        r.include_assignment = matches!(kind, Kind::Upload | Kind::Budgeted);
        r.budget_ms = (kind == Kind::Budgeted).then_some(BUDGET_MS);
        r.trace = kind == Kind::Traced;
        if kind == Kind::KWay4 {
            r.k = 4;
        }
        (kind, seed, Request::Partition(r))
    }
}

/// A running daemon with its netlist uploaded and its caches warm.
pub struct ServeSetup {
    daemon: ServerHandle,
    ml: MlConfig,
    /// The netlist as `.hgr` text and parsed.
    text: String,
    netlist: Hypergraph,
    digest: u128,
    /// The set-up upload's assignment, which eval jobs evaluate.
    assignment: Vec<u16>,
    requery_seeds: Vec<u64>,
    /// Derives the fresh seeds of a pass; changes after every pass, so
    /// that no pass finds another pass's hierarchies in the cache.
    fresh_salt: u64,
}

fn hgr_text(h: &Hypergraph) -> Result<String, String> {
    let mut bytes = Vec::new();
    hgr::write(h, &mut bytes).map_err(|e| format!("serializing a netlist: {e}"))?;
    String::from_utf8(bytes).map_err(|e| format!("netlist text is not UTF-8: {e}"))
}

/// Sends job `id` on a set-up connection and waits for its result, which
/// must have completed or, for a budgeted job, met its deadline.
fn submit(client: &mut Client, id: u64, request: &Request) -> Result<JobResult, String> {
    client
        .send(request)
        .map_err(|e| format!("set-up job {id}: {e}"))?;
    match client.wait_outcome(id) {
        Ok(JobOutcome::Finished { result, .. })
            if matches!(result.stopped, StopReason::Completed | StopReason::Deadline) =>
        {
            Ok(result)
        }
        Ok(other) => Err(format!("set-up job {id} ended as {other:?}")),
        Err(e) => Err(format!("set-up job {id}: {e}")),
    }
}

impl Bench for ServeBench {
    type Setup = ServeSetup;

    fn setup(&self, seed: u64) -> Result<ServeSetup, String> {
        let netlist = ispd98_like(1, self.scale, INSTANCE_SEED);
        let text = hgr_text(&netlist)?;
        let requery_seeds: Vec<u64> = (0..self.requery_pool as u64)
            .map(|i| job_seed(seed, REQUERY_SEEDS + i))
            .collect();

        let config = ServerConfig::default();
        let ml = config.ml.clone();
        let daemon = Server::start(config).map_err(|e| format!("starting the daemon: {e}"))?;
        let mut client =
            Client::connect(daemon.local_addr()).map_err(|e| format!("connecting: {e}"))?;
        client.ping().map_err(|e| format!("ping: {e}"))?;

        // Loadgen's upload: it fills the instance cache, warms the
        // hierarchy cache for the base seed and returns the assignment
        // that eval jobs evaluate.
        let mut upload = PartitionRequest::new(1, InstanceRef::Inline(text.clone()), BASE_SEED);
        upload.include_assignment = true;
        let uploaded = submit(&mut client, 1, &Request::Partition(upload))?;
        if uploaded.digest != netlist.content_digest() {
            return Err("the daemon's digest differs from the netlist's".to_string());
        }
        let assignment = uploaded
            .assignment
            .ok_or("the upload returned no assignment")?;
        // Warm the hierarchy cache for every re-query seed, so that every
        // timed re-query hits both caches.
        for (i, &s) in requery_seeds.iter().enumerate() {
            let id = 2 + i as u64;
            let by_digest = InstanceRef::Digest(uploaded.digest);
            let request = Request::Partition(PartitionRequest::new(id, by_digest, s));
            submit(&mut client, id, &request)?;
        }
        let mut setup = ServeSetup {
            daemon,
            ml,
            text,
            netlist,
            digest: uploaded.digest,
            assignment,
            requery_seeds,
            fresh_salt: WARMUP_SALT,
        };
        // The warm-up op of `serve_mixed`: one untimed cycle of the mix,
        // on seeds that are the same for every run seed.
        if self.mixed {
            for j in 1..=MIX.len() as u64 {
                let (_, _, request) = self.job(&setup, 0, j);
                submit(&mut client, j + 1, &request)?;
            }
        }
        setup.fresh_salt = derive_seed(seed, FRESH_SEEDS);
        Ok(setup)
    }

    fn pass(
        &self,
        setup: &mut ServeSetup,
        _seed: u64,
        stop: StopRule,
        traced: bool,
    ) -> Result<Pass, String> {
        let before = stats(setup.daemon.local_addr())?;
        let epoch = Instant::now();
        let completed = AtomicU64::new(0);
        let setup_ref = &*setup;
        let records = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|conn| {
                    let completed = &completed;
                    scope.spawn(move || self.client_loop(setup_ref, conn, stop, epoch, completed))
                })
                .collect();
            let mut records = Vec::new();
            for handle in handles {
                let part = handle
                    .join()
                    .map_err(|_| "a client thread panicked".to_string())??;
                records.extend(part);
            }
            Ok::<_, String>(records)
        })?;
        let after = stats(setup.daemon.local_addr())?;

        let replays = replay_all(setup, records.iter().filter_map(JobRecord::replay_key))?;
        let mut pass = Pass {
            attempted: records.len() as u64,
            wall_s: records
                .iter()
                .map(|r| (r.done - epoch).as_secs_f64())
                .fold(0.0, f64::max),
            ..Pass::default()
        };
        for r in &records {
            pass.latencies.push(r.latency_s());
            let replay = r.replay_key().and_then(|key| replays.get(&key));
            if let Err(e) = check(r, replay, setup) {
                pass.failures
                    .push(format!("connection {} job {}: {e}", r.conn, r.id));
            }
        }
        if traced {
            pass.layers = layers(&records, &replays, setup, &before, &after);
            let coverage = record_spans(&mut pass.spans, &records, &replays, epoch);
            pass.layers
                .push(("trace.span_coverage", stats::p50(&coverage).unwrap_or(0.0)));
        }
        // The next pass draws other fresh seeds.
        setup.fresh_salt = derive_seed(setup.fresh_salt, 1);
        Ok(pass)
    }

    /// The daemon's 2-way job on the panel seeds, replayed in process:
    /// the daemon's answer equals the replay's for every job it runs.
    fn panel(&self, setup: &ServeSetup) -> Result<Panel, String> {
        let ops = par_map(PANEL_OPS as usize, PANEL_THREADS, |i| {
            replay(setup, JobKey::TwoWay(panel_seed(i as u64)))
        })?;
        let ops = ops
            .into_iter()
            .map(|r| r.map(|r| (r.cut, r.verdict)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Panel::from_ops(ops))
    }
}

/// One job as the client saw it.
struct JobRecord {
    conn: usize,
    id: u64,
    kind: Kind,
    seed: u64,
    sent: Instant,
    done: Instant,
    outcome: Result<JobResult, String>,
    events: usize,
}

impl JobRecord {
    fn latency_s(&self) -> f64 {
        (self.done - self.sent).as_secs_f64()
    }

    /// The replay that checks this job; `None` for a budgeted job, whose
    /// result depends on its deadline.
    fn replay_key(&self) -> Option<JobKey> {
        match self.kind {
            Kind::Requery | Kind::Upload | Kind::Traced | Kind::TwoWay => {
                Some(JobKey::TwoWay(self.seed))
            }
            Kind::KWay4 => Some(JobKey::KWay4(self.seed)),
            Kind::Eval => Some(JobKey::Eval),
            Kind::Budgeted => None,
        }
    }
}

struct InFlight {
    kind: Kind,
    seed: u64,
    sent: Instant,
    events: usize,
}

impl ServeBench {
    /// One connection of the closed loop. It speaks the wire protocol
    /// directly so that each reply is timestamped when it arrives, even
    /// when jobs finish out of order.
    fn client_loop(
        &self,
        setup: &ServeSetup,
        conn: usize,
        stop: StopRule,
        start: Instant,
        completed: &AtomicU64,
    ) -> Result<Vec<JobRecord>, String> {
        let io = |e: std::io::Error| format!("connection {conn}: {e}");
        let mut writer = TcpStream::connect(setup.daemon.local_addr()).map_err(io)?;
        let mut reader = writer.try_clone().map_err(io)?;
        reader.set_read_timeout(Some(READ_TIMEOUT)).map_err(io)?;
        let mut in_flight: HashMap<u64, InFlight> = HashMap::new();
        let mut records = Vec::new();
        let mut j = 0u64;
        loop {
            while in_flight.len() < self.window()
                && !stop.done(start, completed.load(Ordering::Relaxed))
            {
                let (kind, seed, request) = self.job(setup, conn, j);
                let sent = Instant::now();
                write_frame(&mut writer, &request.to_json()).map_err(io)?;
                in_flight.insert(
                    j + 1,
                    InFlight {
                        kind,
                        seed,
                        sent,
                        events: 0,
                    },
                );
                j += 1;
            }
            if in_flight.is_empty() {
                return Ok(records);
            }
            let frame = read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
                .map_err(|e| format!("connection {conn}: {e}"))?
                .ok_or_else(|| format!("connection {conn}: the daemon hung up"))?;
            let response =
                Response::from_json(&frame).map_err(|e| format!("connection {conn}: {e}"))?;
            let (id, outcome) = match response {
                Response::Event { id, .. } => {
                    if let Some(job) = in_flight.get_mut(&id) {
                        job.events += 1;
                    }
                    continue;
                }
                Response::Accepted { .. } => continue,
                Response::Result { id, result } => (id, Ok(result)),
                Response::Rejected {
                    id, queue_depth, ..
                } => (id, Err(format!("rejected at queue depth {queue_depth}"))),
                Response::Error {
                    id: Some(id),
                    code,
                    detail,
                } => (id, Err(format!("{code}: {detail}"))),
                other => return Err(format!("connection {conn}: unexpected frame {other:?}")),
            };
            let done = Instant::now();
            let job = in_flight
                .remove(&id)
                .ok_or_else(|| format!("connection {conn}: reply for unknown job {id}"))?;
            completed.fetch_add(1, Ordering::Relaxed);
            records.push(JobRecord {
                conn,
                id,
                kind: job.kind,
                seed: job.seed,
                sent: job.sent,
                done,
                outcome,
                events: job.events,
            });
        }
    }
}

fn stats(addr: SocketAddr) -> Result<StatsSnapshot, String> {
    Client::connect(addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("stats op: {e}"))
}

/// What an in-process replay of a job produced, and when each replayed
/// call started and ended.
struct Replay {
    cut: u64,
    balanced: bool,
    audit_clean: bool,
    digest: u128,
    verdict: Result<(), String>,
    marks: Vec<(&'static str, Instant, Instant)>,
}

impl Replay {
    /// Seconds spent in the replayed call named `name` (0 if not run).
    fn secs(&self, name: &str) -> f64 {
        self.marks
            .iter()
            .filter(|m| m.0 == name)
            .map(|&(_, a, b)| (b - a).as_secs_f64())
            .sum()
    }
}

type Replays = BTreeMap<JobKey, Replay>;

/// Replays each distinct key once, on [`PANEL_THREADS`] threads.
fn replay_all(setup: &ServeSetup, keys: impl Iterator<Item = JobKey>) -> Result<Replays, String> {
    let keys: Vec<JobKey> = keys
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let done = par_map(keys.len(), PANEL_THREADS, |i| replay(setup, keys[i]))?;
    keys.into_iter()
        .zip(done)
        .map(|(key, replay)| replay.map(|r| (key, r)))
        .collect()
}

/// Runs `key` in process exactly as a daemon worker does: split
/// pipeline for 2-way jobs, recursive bisection for 4-way ones, both
/// with checkpoint audits; an eval recomputes cut and balance.
fn replay(setup: &ServeSetup, key: JobKey) -> Result<Replay, String> {
    let mut marks = Vec::new();
    let mut mark = |name, start| {
        let now = Instant::now();
        marks.push((name, start, now));
        now
    };
    let t = Instant::now();
    let h = hgr::read(setup.text.as_bytes()).map_err(|e| format!("parsing the netlist: {e}"))?;
    let t = mark("hypergraph.parse", t);
    let digest = h.content_digest();
    let t = mark("hypergraph.digest", t);
    let mut ctx = RunCtx::new(0).with_audit(AuditLevel::Checkpoints);
    let (cut, balanced, audit_clean, verdict) = match key {
        JobKey::TwoWay(seed) => {
            ctx.seed = seed;
            let partitioner = MlPartitioner::new(setup.ml.clone());
            let hierarchy = partitioner.coarsen_hierarchy_with(&h, &mut ctx);
            let t = mark("multilevel.coarsen", t);
            let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), FRACTION);
            let out = partitioner.run_from_hierarchy_with(&h, &hierarchy, &constraint, &mut ctx);
            let t = mark("multilevel.partition", t);
            let claimed = (out.cut, out.balanced, out.audit_failure.is_none());
            let verdict = verify::claims(&out)
                .and_then(|()| verify::bisection(&h, out.assignment, claimed.0, &constraint));
            mark("verify", t);
            (claimed.0, claimed.1, claimed.2, verdict)
        }
        JobKey::KWay4(seed) => {
            ctx.seed = seed;
            let out = recursive_bisection_with(&h, 4, FRACTION, &setup.ml, &mut ctx);
            let t = mark("kway.rb4", t);
            let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 4, FRACTION);
            let verdict = if out.stopped == StopReason::Completed {
                verify::kway(&h, &out, &balance)
            } else {
                Err(format!("stopped: {}", out.stopped.name()))
            };
            mark("verify", t);
            let balanced = out.is_balanced(&balance);
            (out.cut, balanced, out.audit_failure.is_none(), verdict)
        }
        JobKey::Eval => {
            let (cut, balanced) = eval(&h, &setup.assignment)?;
            mark("core.eval", t);
            (cut, balanced, true, Ok(()))
        }
    };
    Ok(Replay {
        cut,
        balanced,
        audit_clean,
        digest,
        verdict,
        marks,
    })
}

/// Cut and balance flag of a 2-way assignment, as the daemon's eval op
/// reports them, recomputed through [`Bisection`].
fn eval(h: &Hypergraph, assignment: &[u16]) -> Result<(u64, bool), String> {
    let sides = verify::two_way_sides(assignment)?;
    let bisection = Bisection::new(h, sides).map_err(|e| format!("eval assignment: {e}"))?;
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), 2, FRACTION);
    let balanced = [PartId::P0, PartId::P1]
        .into_iter()
        .all(|p| balance.contains(bisection.part_weight(p)));
    Ok((bisection.cut(), balanced))
}

/// The daemon's answer must be a completed, audit-clean result equal to
/// the in-process replay's, and the replay must verify; a budgeted job,
/// which has no replay, is checked by [`check_budgeted`].
fn check(record: &JobRecord, replay: Option<&Replay>, setup: &ServeSetup) -> Result<(), String> {
    let r = record.outcome.as_ref().map_err(Clone::clone)?;
    if !r.audit_clean {
        return Err("the daemon's audit checkpoints failed".to_string());
    }
    if record.kind == Kind::Traced && record.events == 0 {
        return Err("traced job streamed no events".to_string());
    }
    let Some(replay) = replay else {
        return check_budgeted(r, &setup.netlist, setup.digest);
    };
    replay
        .verdict
        .as_ref()
        .map_err(|e| format!("replay: {e}"))?;
    if r.stopped != StopReason::Completed {
        return Err(format!("stopped: {}", r.stopped.name()));
    }
    // Recursive bisection does not promise the 4-way window (it misses it
    // on about one seed in ten on this netlist, and says so), and an eval
    // only reports balance; a 2-way result must always be balanced.
    if !r.balanced && record.kind.is_two_way() {
        return Err("unbalanced result".to_string());
    }
    let daemon = (r.cut, r.balanced, r.audit_clean, r.digest);
    let local = (
        replay.cut,
        replay.balanced,
        replay.audit_clean,
        replay.digest,
    );
    if daemon != local {
        return Err(format!(
            "daemon (cut, balanced, audit_clean, digest) {daemon:?} != replay {local:?}"
        ));
    }
    Ok(())
}

/// A budgeted 2-way result, which depends on where its deadline fell:
/// it must have completed or met its deadline, be balanced, and return
/// an assignment that cuts what it reports inside the balance window.
fn check_budgeted(r: &JobResult, h: &Hypergraph, digest: u128) -> Result<(), String> {
    if !matches!(r.stopped, StopReason::Completed | StopReason::Deadline) {
        return Err(format!("stopped: {}", r.stopped.name()));
    }
    if !r.balanced {
        return Err("unbalanced result".to_string());
    }
    if r.digest != digest {
        return Err(format!("digest {:x}, expected {digest:x}", r.digest));
    }
    let assignment = r
        .assignment
        .as_deref()
        .ok_or("budgeted job returned no assignment")?;
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), FRACTION);
    verify::bisection(h, verify::two_way_sides(assignment)?, r.cut, &constraint)
}

/// In-process time of the work the daemon did for `record`: a hierarchy
/// hit skips coarsening, an upload also parses and digests.
fn engine_s(record: &JobRecord, replay: &Replay) -> f64 {
    let reused = matches!(&record.outcome, Ok(r) if r.hierarchy_reused);
    let calls: &[&str] = match record.kind {
        Kind::KWay4 => &["kway.rb4"],
        Kind::Eval => &["core.eval"],
        Kind::Upload if reused => &[
            "hypergraph.parse",
            "hypergraph.digest",
            "multilevel.partition",
        ],
        Kind::Upload => &[
            "hypergraph.parse",
            "hypergraph.digest",
            "multilevel.coarsen",
            "multilevel.partition",
        ],
        _ if reused => &["multilevel.partition"],
        _ => &["multilevel.coarsen", "multilevel.partition"],
    };
    calls.iter().map(|name| replay.secs(name)).sum()
}

fn layers(
    records: &[JobRecord],
    replays: &Replays,
    setup: &ServeSetup,
    before: &StatsSnapshot,
    after: &StatsSnapshot,
) -> Vec<(&'static str, f64)> {
    let p50 = |v: &[f64]| stats::p50(v).unwrap_or(0.0);
    let of_kind = |kind: Kind| records.iter().filter(move |r| r.kind == kind);
    let latency =
        |kind: Kind| -> f64 { p50(&of_kind(kind).map(JobRecord::latency_s).collect::<Vec<_>>()) };
    let (mut engine, mut overhead) = (Vec::new(), Vec::new());
    let (mut parse, mut parse_rate, mut digest, mut rb4) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in records {
        // A budgeted job has no replay, so its engine time is unknown.
        let Some(replay) = r.replay_key().and_then(|key| replays.get(&key)) else {
            continue;
        };
        let e = engine_s(r, replay);
        engine.push(e);
        overhead.push(r.latency_s() - e);
        match r.kind {
            Kind::Upload => {
                let parse_s = replay.secs("hypergraph.parse");
                parse.push(parse_s);
                digest.push(replay.secs("hypergraph.digest"));
                if parse_s > 0.0 {
                    parse_rate.push(setup.text.len() as f64 / 1e6 / parse_s);
                }
            }
            Kind::KWay4 => rb4.push(replay.secs("kway.rb4")),
            _ => {}
        }
    }
    let events: Vec<f64> = of_kind(Kind::Traced).map(|r| r.events as f64).collect();
    let starts: Vec<f64> = of_kind(Kind::Budgeted)
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|r| r.starts as f64)
        .collect();
    let delta = |f: fn(&StatsSnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    let mut layers = vec![
        ("hypergraph.parse_s", p50(&parse)),
        ("hypergraph.parse_mb_per_s", p50(&parse_rate)),
        ("hypergraph.digest_s", p50(&digest)),
        ("server.engine_s", p50(&engine)),
        ("server.overhead_s", p50(&overhead)),
    ];
    let kinds = [
        Kind::Requery,
        Kind::Upload,
        Kind::Budgeted,
        Kind::Traced,
        Kind::KWay4,
        Kind::Eval,
        Kind::TwoWay,
    ];
    layers.extend(kinds.map(|kind| (latency_metric(kind), latency(kind))));
    layers.extend([
        ("server.budgeted_starts", p50(&starts)),
        ("server.trace_events_per_job", p50(&events)),
        ("kway.rb4_s", p50(&rb4)),
        (
            "server.instance_hit_ratio",
            ratio(delta(|s| s.instance_hits), delta(|s| s.instance_misses)),
        ),
        (
            "server.hierarchy_hit_ratio",
            ratio(delta(|s| s.hierarchy_hits), delta(|s| s.hierarchy_misses)),
        ),
        ("server.rejected_overload", delta(|s| s.rejected_overload)),
        ("server.errors", delta(|s| s.errors)),
        ("server.stream_aborted", delta(|s| s.stream_aborted)),
    ]);
    layers
}

/// The per-layer metric holding the median latency of `kind`'s jobs.
fn latency_metric(kind: Kind) -> &'static str {
    match kind {
        Kind::Requery => "server.requery_s",
        Kind::Upload => "server.upload_s",
        Kind::Budgeted => "server.budgeted_s",
        Kind::Traced => "server.traced_s",
        Kind::KWay4 => "server.kway4_s",
        Kind::Eval => "server.eval_s",
        Kind::TwoWay => "server.twoway_s",
    }
}

/// One span per job (send to terminal frame), then one `replay` tree per
/// distinct job replayed. Returns the span coverage of each replay.
fn record_spans(
    spans: &mut SpanLog,
    records: &[JobRecord],
    replays: &Replays,
    epoch: Instant,
) -> Vec<f64> {
    let ns = |t: Instant| ns_since(epoch, t);
    for r in records {
        let op = ((r.conn as u64) << 32) | r.id;
        spans.push(op, r.kind.name(), None, ns(r.sent), ns(r.done));
    }
    let mut coverage = Vec::new();
    for (i, replay) in replays.values().enumerate() {
        let op = (1 << 40) | i as u64;
        let (Some(first), Some(last)) = (replay.marks.first(), replay.marks.last()) else {
            continue;
        };
        let root = spans.push(op, "replay", None, ns(first.1), ns(last.2));
        for &(name, a, b) in &replay.marks {
            spans.push(op, name, Some(root), ns(a), ns(b));
        }
        coverage.push(spans.coverage(root, &[]));
    }
    coverage
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(kind: Kind, outcome: Result<JobResult, String>, events: usize) -> JobRecord {
        let now = Instant::now();
        JobRecord {
            conn: 0,
            id: 1,
            kind,
            seed: 3,
            sent: now,
            done: now,
            outcome,
            events,
        }
    }

    fn result(cut: u64) -> JobResult {
        JobResult {
            cut,
            balanced: true,
            stopped: StopReason::Completed,
            audit_clean: true,
            hierarchy_reused: true,
            levels: 3,
            starts: 1,
            digest: 7,
            assignment: None,
        }
    }

    fn replay_of(cut: u64) -> Replay {
        Replay {
            cut,
            balanced: true,
            audit_clean: true,
            digest: 7,
            verdict: Ok(()),
            marks: Vec::new(),
        }
    }

    fn tiny_setup() -> ServeSetup {
        ServeBench::mixed(0.02)
            .setup(5)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn a_daemon_answer_that_differs_from_its_replay_fails() {
        let setup = tiny_setup();
        let replay = replay_of(40);
        let check = |r: &JobRecord, replay: &Replay| check(r, Some(replay), &setup);
        assert_eq!(
            check(&record(Kind::Requery, Ok(result(40)), 0), &replay),
            Ok(())
        );
        assert!(check(&record(Kind::Requery, Ok(result(41)), 0), &replay).is_err());
        let unbalanced = JobResult {
            balanced: false,
            ..result(40)
        };
        assert!(check(&record(Kind::TwoWay, Ok(unbalanced), 0), &replay).is_err());
        let rejected = Err("rejected at queue depth 64".to_string());
        assert!(check(&record(Kind::Requery, rejected, 0), &replay).is_err());
        assert!(check(&record(Kind::Traced, Ok(result(40)), 0), &replay).is_err());
        assert_eq!(
            check(&record(Kind::Traced, Ok(result(40)), 9), &replay),
            Ok(())
        );

        let bad_replay = Replay {
            verdict: Err("assignment cuts 39".to_string()),
            ..replay_of(40)
        };
        assert!(check(&record(Kind::Requery, Ok(result(40)), 0), &bad_replay).is_err());
    }

    #[test]
    fn a_budgeted_answer_is_audited_from_its_assignment() {
        let setup = tiny_setup();
        let (cut, _) = eval(&setup.netlist, &setup.assignment).unwrap_or_else(|e| panic!("{e}"));
        let budgeted = JobResult {
            cut,
            stopped: StopReason::Deadline,
            digest: setup.digest,
            assignment: Some(setup.assignment.clone()),
            ..result(cut)
        };
        let check = |r: JobResult| check(&record(Kind::Budgeted, Ok(r), 0), None, &setup);
        assert_eq!(check(budgeted.clone()), Ok(()));
        assert!(check(JobResult {
            cut: cut + 1,
            ..budgeted.clone()
        })
        .is_err());
        let mut tampered = setup.assignment.clone();
        tampered.iter_mut().for_each(|p| *p = 0);
        assert!(check(JobResult {
            assignment: Some(tampered),
            ..budgeted.clone()
        })
        .is_err());
        assert!(check(JobResult {
            assignment: None,
            ..budgeted.clone()
        })
        .is_err());
        assert!(check(JobResult {
            stopped: StopReason::Cancelled,
            ..budgeted
        })
        .is_err());
    }

    #[test]
    fn the_mixed_cycle_follows_loadgen() {
        let bench = ServeBench::mixed(0.02);
        let kinds: Vec<Kind> = (0..11).map(|j| bench.kind(j)).collect();
        assert_eq!(kinds[0], Kind::Upload);
        assert_eq!(kinds[1..6], MIX);
        assert_eq!(kinds[6..11], MIX);
        let setup = tiny_setup();
        let mut fresh = std::collections::BTreeSet::new();
        for conn in 0..CONNECTIONS {
            for j in 1..=20 {
                match bench.job(&setup, conn, j) {
                    (Kind::Budgeted | Kind::KWay4 | Kind::TwoWay, seed, _) => {
                        assert!(fresh.insert(seed), "fresh seed {seed} repeats");
                    }
                    (Kind::Upload | Kind::Traced, seed, _) => assert_eq!(seed, BASE_SEED),
                    _ => {}
                }
            }
        }
        assert_eq!(fresh.len(), 3 * 4 * CONNECTIONS);
    }
}
