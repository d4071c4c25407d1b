//! Chaos soak: hundreds of mixed jobs driven through the deterministic
//! chaos proxy by a self-healing client, plus targeted tests for the
//! robustness features it leans on — idempotent replay and
//! declared-size admission control.
//!
//! The headline assertions mirror the in-process fault-injection suite:
//! every job ends in exactly one terminal outcome, the whole run is
//! bitwise-reproducible from `(seed, plan)`, and no OS thread outlives
//! the harness.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::time::Duration;

use hypart_core::derive_seed;
use hypart_server::chaos::{ChaosPlan, ChaosProxy};
use hypart_server::protocol::{EvalRequest, InstanceRef, PartitionRequest, Request, MAX_WIRE_INT};
use hypart_server::{Client, JobOutcome, RetryPolicy, Server, ServerConfig};
use hypart_trace::StopReason;

const CHAOS_SEED: u64 = 0xC0FFEE;
const SOAK_JOBS: u64 = 500;

fn hgr_text(cells: usize, seed: u64) -> String {
    let h = hypart_benchgen::mcnc_like(cells, seed);
    let mut text = Vec::new();
    hypart_hypergraph::io::hgr::write(&h, &mut text).unwrap();
    String::from_utf8(text).unwrap()
}

/// Thread count of this process from `/proc/self/status`; `None` off
/// Linux (the leak assertion is then skipped).
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Threads:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A compact, comparable fingerprint of one job's terminal outcome.
fn outcome_key(id: u64, outcome: &JobOutcome) -> String {
    match outcome {
        JobOutcome::Finished { result, .. } => format!(
            "{id}:finished:{}:{}:{}:{:?}",
            result.cut, result.balanced, result.audit_clean, result.stopped
        ),
        JobOutcome::Rejected { .. } => format!("{id}:rejected"),
        JobOutcome::Failed { code, .. } => format!("{id}:failed:{code}"),
    }
}

struct SoakRun {
    outcomes: Vec<String>,
    finished_clean: usize,
    client_retries: u64,
    dedup_hits: u64,
    hierarchy_hits: u64,
}

/// One full soak: daemon + seeded proxy + one self-healing client
/// pushing `SOAK_JOBS` mixed jobs through the hostile plan, one at a
/// time (so every outcome is a pure function of its request and the
/// run is comparable across reruns).
fn run_soak(seed: u64) -> SoakRun {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    })
    .unwrap();
    let proxy = ChaosProxy::start(ChaosPlan::hostile(seed), server.local_addr()).unwrap();

    let policy = RetryPolicy {
        max_attempts: 10,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(50),
        jitter_seed: seed,
        // Short enough that a scripted stall or a lost response heals
        // quickly, long enough for any real job to answer.
        read_timeout: Duration::from_secs(2),
    };
    let mut client = Client::connect_with_retry(&proxy.local_addr().to_string(), policy).unwrap();

    // Upload the instance (token-stamped like everything else: the
    // upload itself may be torn mid-frame and resubmitted).
    let mut upload = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(120, 0xD00D)), 17);
    upload.include_assignment = true;
    upload.request_token = Some(derive_seed(seed, 1) & MAX_WIRE_INT);
    client.send(&Request::Partition(upload)).unwrap();
    let (digest, assignment) = match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, .. } => (result.digest, result.assignment.unwrap()),
        other => panic!("upload failed: {other:?}"),
    };

    let mut outcomes = Vec::with_capacity(SOAK_JOBS as usize);
    let mut finished_clean = 0usize;
    for i in 0..SOAK_JOBS {
        let id = 10 + i;
        // The token is a pure function of (chaos seed, job id): reruns
        // stamp identical tokens, and a resubmission after a fault
        // carries the same token as the original. Masked to the
        // integers a JSON number carries exactly.
        let token = Some(derive_seed(seed, id) & MAX_WIRE_INT);
        let request = match i % 4 {
            0 => {
                // Plain 2-way, fresh seed per job.
                let mut req = PartitionRequest::new(id, InstanceRef::Digest(digest), 1000 + id);
                req.request_token = token;
                Request::Partition(req)
            }
            1 => {
                // The fixed traced job: hammers the hierarchy cache.
                let mut req = PartitionRequest::new(id, InstanceRef::Digest(digest), 17);
                req.trace = true;
                req.request_token = token;
                Request::Partition(req)
            }
            2 => {
                // 4-way recursive bisection.
                let mut req = PartitionRequest::new(id, InstanceRef::Digest(digest), 29 + id);
                req.k = 4;
                req.request_token = token;
                Request::Partition(req)
            }
            _ => Request::Eval(EvalRequest {
                id,
                instance: InstanceRef::Digest(digest),
                assignment: assignment.clone(),
                k: 2,
                fraction: 0.1,
                request_token: token,
            }),
        };
        client.send(&request).unwrap();
        let outcome = client.wait_outcome(id).unwrap();
        if let JobOutcome::Finished { result, .. } = &outcome {
            if result.audit_clean && result.stopped == StopReason::Completed {
                finished_clean += 1;
            }
        }
        outcomes.push(outcome_key(id, &outcome));
    }

    // Counter evidence straight from the daemon, bypassing the proxy.
    let mut probe = Client::connect(server.local_addr()).unwrap();
    let stats = probe.stats().unwrap();
    let client_retries = client.retries();
    drop(client);
    drop(probe);
    proxy.shutdown();
    server.shutdown();

    SoakRun {
        outcomes,
        finished_clean,
        client_retries,
        dedup_hits: stats.dedup_hits,
        hierarchy_hits: stats.hierarchy_hits,
    }
}

#[test]
fn chaos_soak_heals_every_fault_and_replays_bitwise() {
    let baseline_threads = os_thread_count();

    let first = run_soak(CHAOS_SEED);
    assert_eq!(
        first.outcomes.len(),
        SOAK_JOBS as usize,
        "every job must end in exactly one terminal outcome"
    );
    // The hostile plan disconnects a third of all connections, so the
    // client must actually have healed, and resubmissions must have
    // been deduplicated rather than recomputed.
    assert!(
        first.client_retries >= 1,
        "pinned plan must force at least one heal, saw {}",
        first.client_retries
    );
    assert!(
        first.dedup_hits >= 1,
        "resubmitted tokens must hit the dedup path, saw {}",
        first.dedup_hits
    );
    assert!(
        first.hierarchy_hits >= 1,
        "the repeated traced job must reuse its hierarchy"
    );
    // The overwhelming majority of jobs must come back as clean audited
    // results (scripted corruption may turn a few into typed errors).
    assert!(
        first.finished_clean >= (SOAK_JOBS as usize) * 9 / 10,
        "only {}/{SOAK_JOBS} jobs finished clean",
        first.finished_clean
    );

    // Replayability: the same (seed, plan) reproduces the same faults
    // and therefore bitwise the same outcome for every single job.
    let second = run_soak(CHAOS_SEED);
    assert_eq!(
        first.outcomes, second.outcomes,
        "rerun of the same (seed, plan) must be bitwise identical"
    );

    // Zero leaked threads once both runs are fully torn down.
    if let Some(baseline) = baseline_threads {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let now = os_thread_count().unwrap();
            if now <= baseline {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "threads leaked: baseline {baseline}, now {now}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }
}

/// The dedup contract in isolation (no proxy): a token resubmitted
/// after completion is answered from the outcome cache — same result,
/// `dedup_hits` evidence, and no second execution (`submitted` does not
/// move) — and a fresh same-seed job shows the `hierarchy_reused`
/// cache path is live.
#[test]
fn idempotent_retry_replays_cached_outcome_without_recompute() {
    let server = Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();

    let mut client = Client::connect(addr).unwrap();
    let mut original = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(100, 7)), 23);
    original.request_token = Some(0xBEEF);
    client.send(&Request::Partition(original.clone())).unwrap();
    let first = match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, .. } => result,
        other => panic!("original failed: {other:?}"),
    };
    let submitted_before = client.stats().unwrap().submitted;

    // Simulate the client crashing and retrying from scratch: new
    // connection, same token, different job id.
    drop(client);
    let mut retry_client = Client::connect(addr).unwrap();
    let mut retried = original;
    retried.id = 99;
    retry_client.send(&Request::Partition(retried)).unwrap();
    let replayed = match retry_client.wait_outcome(99).unwrap() {
        JobOutcome::Finished { result, .. } => result,
        other => panic!("replay failed: {other:?}"),
    };
    assert_eq!(first, replayed, "replay must be the cached result, bitwise");

    let stats = retry_client.stats().unwrap();
    assert_eq!(
        stats.submitted, submitted_before,
        "a deduplicated retry must not be admitted as a new job"
    );
    assert!(stats.dedup_hits >= 1, "replay must count as a dedup hit");

    // The sibling cache path: a *fresh* job with the same (digest,
    // config, seed) reuses the hierarchy the original built and says so
    // in its trace.
    let mut fresh = PartitionRequest::new(100, InstanceRef::Digest(first.digest), 23);
    fresh.trace = true;
    retry_client.send(&Request::Partition(fresh)).unwrap();
    match retry_client.wait_outcome(100).unwrap() {
        JobOutcome::Finished { result, events } => {
            assert!(result.hierarchy_reused, "same-key job must hit the cache");
            assert!(matches!(
                events.first(),
                Some(hypart_trace::RunEvent::HierarchyReused { .. })
            ));
            assert_eq!(result.cut, first.cut);
        }
        other => panic!("fresh same-seed job failed: {other:?}"),
    }
    server.shutdown();
}

/// Declared-size admission control rejects an oversized instance from
/// its header alone — typed `rejected_too_large`, before parsing.
#[test]
fn oversized_declared_instance_is_rejected_before_parse() {
    let server = Server::start(ServerConfig {
        max_cells: 1000,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The header declares a million vertices; the body is absent, which
    // would be a parse error — proving rejection happened first.
    let huge = "% comment\n5 1000000\n".to_string();
    let req = PartitionRequest::new(1, InstanceRef::Inline(huge), 1);
    client.send(&Request::Partition(req)).unwrap();
    match client.wait_outcome(1).unwrap() {
        JobOutcome::Failed { code, detail } => {
            assert_eq!(code, "rejected_too_large");
            assert!(
                detail.contains("1000000"),
                "detail carries the counts: {detail}"
            );
        }
        other => panic!("expected rejected_too_large, got {other:?}"),
    }

    // Within bounds: admitted and parsed as usual.
    let req = PartitionRequest::new(2, InstanceRef::Inline(hgr_text(100, 9)), 1);
    client.send(&Request::Partition(req)).unwrap();
    match client.wait_outcome(2).unwrap() {
        JobOutcome::Finished { result, .. } => assert!(result.audit_clean),
        other => panic!("in-bounds job failed: {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected_too_large, 1);
    server.shutdown();
}

/// The `ping` op answers with a live health snapshot and works as a
/// readiness probe through a self-healing client.
#[test]
fn ping_reports_health_and_serves_as_readiness_probe() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let mut client =
        Client::connect_with_retry(&server.local_addr().to_string(), RetryPolicy::default())
            .unwrap();

    let health = client.ping().unwrap();
    assert_eq!(health.queue_depth, 0);
    assert!(health.queue_capacity > 0);
    assert_eq!(health.instances_cached, 0);

    // Run one cached job; the snapshot must reflect it.
    let mut req = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(80, 2)), 3);
    req.request_token = Some(42);
    client.send(&Request::Partition(req)).unwrap();
    match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { .. } => {}
        other => panic!("job failed: {other:?}"),
    }
    let health = client.ping().unwrap();
    assert_eq!(health.instances_cached, 1);
    assert_eq!(health.hierarchies_cached, 1);
    assert_eq!(health.tokens_cached, 1);
    server.shutdown();
}
