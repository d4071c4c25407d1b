//! Load generator for the partitioning daemon.
//!
//! Drives a mixed workload — 2-way jobs (budgeted and not, traced and
//! not), k-way jobs, evals, and digest re-queries that exercise both
//! caches — from several client threads, then prints a one-screen
//! summary of outcomes, daemon counters and, from a closing `ping`, how
//! many instances and hierarchies the daemon's caches hold.
//!
//! With `--chaos SEED`, all client traffic is routed through the
//! in-process [`ChaosProxy`] running the hostile plan for that seed:
//! frames are shredded, connections torn mid-frame, bytes corrupted,
//! and chunks delayed/stalled. Clients run with a retry policy and
//! idempotency tokens, so every job must still end in exactly one
//! outcome — the run exits nonzero if any job is lost.
//!
//! ```text
//! hypart-loadgen --self-host --jobs 200 --clients 4
//! hypart-loadgen --addr 127.0.0.1:7117 --jobs 1000 --cells 800
//! hypart-loadgen --self-host --chaos 0xC0FFEE --jobs 500
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::net::ToSocketAddrs;
use std::process::ExitCode;
use std::time::Duration;

use hypart_core::derive_seed;
use hypart_server::protocol::{EvalRequest, InstanceRef, PartitionRequest, Request, MAX_WIRE_INT};
use hypart_server::{ChaosPlan, ChaosProxy, Client, JobOutcome, RetryPolicy, Server, ServerConfig};

struct Options {
    addr: Option<String>,
    self_host: bool,
    jobs: usize,
    clients: usize,
    cells: usize,
    budget_ms: u64,
    seed: u64,
    chaos: Option<u64>,
    shutdown: bool,
}

impl Options {
    fn parse() -> Result<Options, String> {
        let mut opts = Options {
            addr: None,
            self_host: false,
            jobs: 200,
            clients: 4,
            cells: 300,
            budget_ms: 20,
            seed: 1,
            chaos: None,
            shutdown: false,
        };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
            match arg.as_str() {
                "--addr" => opts.addr = Some(value("--addr")?),
                "--self-host" => opts.self_host = true,
                "--jobs" => opts.jobs = parse_num(&value("--jobs")?)?,
                "--clients" => opts.clients = parse_num(&value("--clients")?)?,
                "--cells" => opts.cells = parse_num(&value("--cells")?)?,
                "--budget-ms" => opts.budget_ms = parse_num(&value("--budget-ms")?)? as u64,
                "--seed" => opts.seed = parse_num(&value("--seed")?)? as u64,
                "--chaos" => opts.chaos = Some(parse_seed(&value("--chaos")?)?),
                "--shutdown" => opts.shutdown = true,
                "--help" | "-h" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
            }
        }
        if opts.addr.is_none() && !opts.self_host {
            return Err(format!("give --addr or --self-host\n{USAGE}"));
        }
        Ok(opts)
    }
}

const USAGE: &str = "usage: hypart-loadgen (--addr HOST:PORT | --self-host) \
[--jobs N] [--clients N] [--cells N] [--budget-ms MS] [--seed S] \
[--chaos SEED] [--shutdown]

--chaos routes all traffic through a deterministic fault-injecting
proxy (seed accepts decimal or 0x hex); clients then retry with
idempotency tokens and the run fails if any job is lost.
--shutdown sends the remote shutdown op after the workload, stopping an
external daemon (a --self-host daemon is always stopped).";

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse::<u64>(),
    };
    parsed.map_err(|e| format!("bad seed {s:?}: {e}"))
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse::<usize>()
        .map_err(|e| format!("bad number {s:?}: {e}"))
}

#[derive(Default)]
struct Tally {
    finished: usize,
    rejected: usize,
    failed: usize,
    cache_reuses: usize,
    total_cut: u64,
    events: usize,
    heals: u64,
}

fn main() -> ExitCode {
    let opts = match Options::parse() {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Blocks until the daemon at `addr` answers a `ping` — the readiness
/// probe that replaces sleep-and-hope startup waits.
fn wait_ready(addr: &str, attempts: u32) -> Result<(), String> {
    let mut last = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(50));
        }
        match Client::connect(addr).and_then(|mut probe| probe.ping()) {
            Ok(_) => return Ok(()),
            Err(e) => last = e.to_string(),
        }
    }
    Err(format!("daemon at {addr} never became ready: {last}"))
}

fn run(opts: &Options) -> Result<(), String> {
    let hosted = if opts.self_host {
        Some(
            Server::start(ServerConfig::default())
                .map_err(|e| format!("self-host bind failed: {e}"))?,
        )
    } else {
        None
    };
    let addr = match (&hosted, &opts.addr) {
        (Some(handle), _) => handle.local_addr().to_string(),
        (None, Some(addr)) => addr.clone(),
        (None, None) => return Err("no address".to_string()),
    };
    // Probe the daemon directly (never through the chaos proxy): the
    // workload must not start before the daemon can answer.
    wait_ready(&addr, 100)?;

    let proxy = match opts.chaos {
        Some(seed) => {
            let upstream = addr
                .to_socket_addrs()
                .map_err(|e| format!("resolving {addr}: {e}"))?
                .next()
                .ok_or_else(|| format!("{addr} resolved to nothing"))?;
            Some(
                ChaosProxy::start(ChaosPlan::hostile(seed), upstream)
                    .map_err(|e| format!("chaos proxy bind failed: {e}"))?,
            )
        }
        None => None,
    };
    let dial_addr = proxy
        .as_ref()
        .map_or_else(|| addr.clone(), |p| p.local_addr().to_string());

    // One instance shared by every job, serialized once: the whole point
    // of the daemon is amortizing this.
    let instance = hypart_benchgen::mcnc_like(opts.cells, opts.seed);
    let mut hgr_text = Vec::new();
    hypart_hypergraph::io::hgr::write(&instance, &mut hgr_text)
        .map_err(|e| format!("serializing instance: {e}"))?;
    let hgr_text = String::from_utf8(hgr_text).map_err(|e| format!("non-utf8 hgr: {e}"))?;

    let clients = opts.clients.max(1);
    let per_client = opts.jobs.div_ceil(clients);
    let start = std::time::Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let cfg = WorkerCfg {
            addr: dial_addr.clone(),
            hgr_text: hgr_text.clone(),
            client_index: c as u64,
            jobs: per_client,
            budget_ms: opts.budget_ms,
            base_seed: opts.seed,
            retry: opts.chaos.map(|seed| RetryPolicy {
                max_attempts: 10,
                base_backoff: Duration::from_millis(2),
                max_backoff: Duration::from_millis(50),
                jitter_seed: derive_seed(seed, c as u64),
                read_timeout: Duration::from_secs(5),
            }),
            // Globally unique, replayable idempotency tokens: one
            // deterministic stream per client.
            token_base: opts.chaos.map(|seed| derive_seed(seed, 1000 + c as u64)),
        };
        handles.push(std::thread::spawn(move || client_worker(&cfg)));
    }
    let mut tally = Tally::default();
    for handle in handles {
        let part = handle
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        tally.finished += part.finished;
        tally.rejected += part.rejected;
        tally.failed += part.failed;
        tally.cache_reuses += part.cache_reuses;
        tally.total_cut += part.total_cut;
        tally.events += part.events;
        tally.heals += part.heals;
    }
    let elapsed = start.elapsed();

    let mut reporter =
        Client::connect(&addr).map_err(|e| format!("stats connection failed: {e}"))?;
    let stats = reporter
        .stats()
        .map_err(|e| format!("stats op failed: {e}"))?;
    let health = reporter
        .ping()
        .map_err(|e| format!("ping op failed: {e}"))?;

    println!(
        "jobs:        {} finished, {} rejected, {} failed",
        tally.finished, tally.rejected, tally.failed
    );
    println!("traces:      {} events streamed", tally.events);
    println!(
        "cache:       {} hierarchy reuses seen by clients",
        tally.cache_reuses
    );
    println!(
        "daemon:      submitted {} completed {} shed {} errors {}",
        stats.submitted, stats.completed, stats.rejected_overload, stats.errors
    );
    println!(
        "instances:   {} hits / {} misses, {} cached; hierarchies: {} hits / {} misses, {} cached",
        stats.instance_hits,
        stats.instance_misses,
        health.instances_cached,
        stats.hierarchy_hits,
        stats.hierarchy_misses,
        health.hierarchies_cached
    );
    if opts.chaos.is_some() {
        println!(
            "chaos:       {} client heals; daemon dedup {} stream-aborts {} oversized {}",
            tally.heals, stats.dedup_hits, stats.stream_aborted, stats.rejected_too_large
        );
    }
    println!(
        "throughput:  {:.0} jobs/s over {:.2?}",
        tally.finished as f64 / elapsed.as_secs_f64().max(1e-9),
        elapsed
    );

    // Accounting invariant: every submitted job (the per-client upload
    // plus the workload) ended in exactly one outcome. Client threads
    // fail hard on transport errors, so a shortfall here means a lost
    // job — under chaos, that is the whole point of the exercise.
    let expected = clients * (per_client + 1);
    let total = tally.finished + tally.rejected + tally.failed;
    if total != expected {
        return Err(format!(
            "lost jobs: expected {expected} outcomes, saw {total}"
        ));
    }

    if opts.shutdown {
        reporter
            .shutdown()
            .map_err(|e| format!("shutdown op failed: {e}"))?;
        println!("daemon told to shut down");
    }
    if let Some(proxy) = proxy {
        proxy.shutdown();
    }
    if let Some(handle) = hosted {
        handle.shutdown();
    }
    Ok(())
}

/// Everything one client thread needs, bundled so the spawn site stays
/// readable.
struct WorkerCfg {
    addr: String,
    hgr_text: String,
    client_index: u64,
    jobs: usize,
    budget_ms: u64,
    base_seed: u64,
    retry: Option<RetryPolicy>,
    token_base: Option<u64>,
}

fn client_worker(cfg: &WorkerCfg) -> Result<Tally, String> {
    let mut client = match &cfg.retry {
        Some(policy) => Client::connect_with_retry(&cfg.addr, policy.clone())
            .map_err(|e| format!("connect failed: {e}"))?,
        None => Client::connect(&cfg.addr).map_err(|e| format!("connect failed: {e}"))?,
    };
    // Masked to the integers a JSON number carries exactly.
    let token_for = |id: u64| {
        cfg.token_base
            .map(|base| derive_seed(base, id) & MAX_WIRE_INT)
    };
    let mut tally = Tally::default();

    // Upload once, then re-query by digest.
    let mut first =
        PartitionRequest::new(1, InstanceRef::Inline(cfg.hgr_text.clone()), cfg.base_seed);
    first.include_assignment = true;
    first.request_token = token_for(1);
    client
        .send(&Request::Partition(first))
        .map_err(|e| format!("send failed: {e}"))?;
    let (digest, assignment) = match client
        .wait_outcome(1)
        .map_err(|e| format!("first job failed: {e}"))?
    {
        JobOutcome::Finished { result, .. } => {
            tally.finished += 1;
            tally.total_cut += result.cut;
            (result.digest, result.assignment.unwrap_or_default())
        }
        JobOutcome::Rejected { .. } => return Err("upload job was shed".to_string()),
        JobOutcome::Failed { code, detail } => return Err(format!("upload job: {code}: {detail}")),
    };

    for i in 0..cfg.jobs as u64 {
        let id = 2 + i;
        let seed = cfg.base_seed.wrapping_add(cfg.client_index * 1000 + i);
        // Mixed workload: mostly 2-way (some budgeted, some traced, the
        // traced ones hammering the hierarchy cache by reusing one
        // seed), some 4-way, some evals.
        let request = match i % 5 {
            0 => {
                let mut r = PartitionRequest::new(id, InstanceRef::Digest(digest), seed);
                r.budget_ms = Some(cfg.budget_ms);
                r.request_token = token_for(id);
                Request::Partition(r)
            }
            1 => {
                let mut r = PartitionRequest::new(id, InstanceRef::Digest(digest), cfg.base_seed);
                r.trace = true;
                r.request_token = token_for(id);
                Request::Partition(r)
            }
            2 => {
                let mut r = PartitionRequest::new(id, InstanceRef::Digest(digest), seed);
                r.k = 4;
                r.request_token = token_for(id);
                Request::Partition(r)
            }
            3 if !assignment.is_empty() => Request::Eval(EvalRequest {
                id,
                instance: InstanceRef::Digest(digest),
                assignment: assignment.clone(),
                k: 2,
                fraction: 0.1,
                request_token: token_for(id),
            }),
            _ => {
                let mut r = PartitionRequest::new(id, InstanceRef::Digest(digest), seed);
                r.request_token = token_for(id);
                Request::Partition(r)
            }
        };
        client
            .send(&request)
            .map_err(|e| format!("send failed: {e}"))?;
        match client
            .wait_outcome(id)
            .map_err(|e| format!("job {id} failed: {e}"))?
        {
            JobOutcome::Finished { result, events } => {
                tally.finished += 1;
                tally.total_cut += result.cut;
                tally.events += events.len();
                if result.hierarchy_reused {
                    tally.cache_reuses += 1;
                }
            }
            JobOutcome::Rejected { .. } => tally.rejected += 1,
            JobOutcome::Failed { .. } => tally.failed += 1,
        }
    }
    tally.heals = client.retries();
    Ok(tally)
}
