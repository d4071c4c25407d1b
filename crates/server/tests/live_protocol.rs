//! Live-socket tests of the daemon: typed errors, cancellation,
//! trace streaming, the hierarchy-cache trace contract,
//! poisoned-stream aborts, and shutdown.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

use hypart_server::protocol::{
    digest_to_hex, read_frame, write_frame, EvalRequest, InstanceRef, PartitionRequest, Request,
    Response, DEFAULT_MAX_FRAME_BYTES,
};
use hypart_server::{Client, JobOutcome, Server, ServerConfig};
use hypart_trace::{RunEvent, StopReason};

fn hgr_text(cells: usize, seed: u64) -> String {
    let h = hypart_benchgen::mcnc_like(cells, seed);
    let mut text = Vec::new();
    hypart_hypergraph::io::hgr::write(&h, &mut text).unwrap();
    String::from_utf8(text).unwrap()
}

fn start_default() -> hypart_server::ServerHandle {
    Server::start(ServerConfig::default()).unwrap()
}

#[test]
fn malformed_frame_gets_typed_parse_error_and_connection_survives() {
    let server = start_default();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // A syntactically broken frame: valid length prefix, junk payload.
    let junk = b"{not json";
    raw.write_all(&(junk.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(junk).unwrap();
    raw.flush().unwrap();
    // The daemon counts the error before it answers, so once the typed
    // reply is read the `stats` check below cannot race the reader.
    let reply = read_frame(&mut raw, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .unwrap();
    assert_eq!(reply.get("code").and_then(|v| v.as_str()), Some("parse"));

    // The same socket still serves real requests afterwards.
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .send(&Request::Partition(PartitionRequest::new(
            1,
            InstanceRef::Inline(hgr_text(60, 1)),
            7,
        )))
        .unwrap();
    let outcome = client.wait_outcome(1).unwrap();
    assert!(matches!(outcome, JobOutcome::Finished { .. }));
    let stats = client.stats().unwrap();
    assert!(stats.errors >= 1, "the junk frame must be counted");
    server.shutdown();
}

/// Without the parser's nesting cap, a frame of 100,000 `[` overflows
/// the reader thread's stack and aborts the daemon. With it, the frame
/// gets a typed `parse` error and the same connection keeps serving.
#[test]
fn deeply_nested_frame_gets_parse_error_and_connection_keeps_serving() {
    let server = start_default();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let deep = "[".repeat(100_000);
    raw.write_all(&(deep.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(deep.as_bytes()).unwrap();
    let reply = read_frame(&mut raw, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .unwrap();
    match Response::from_json(&reply).unwrap() {
        Response::Error { code, detail, .. } => {
            assert_eq!(code, "parse");
            assert!(detail.contains("nesting"), "{detail}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    write_frame(&mut raw, &Request::Ping.to_json()).unwrap();
    let pong = read_frame(&mut raw, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .unwrap();
    assert!(matches!(
        Response::from_json(&pong).unwrap(),
        Response::Pong(_)
    ));
    server.shutdown();
}

/// A length prefix past the frame cap leaves the stream out of sync: the
/// daemon answers `bad_request` and closes the connection.
#[test]
fn oversized_frame_is_answered_and_the_connection_closed() {
    let server = start_default();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let reply = read_frame(&mut raw, DEFAULT_MAX_FRAME_BYTES).unwrap();
    match Response::from_json(&reply.unwrap()).unwrap() {
        Response::Error { code, .. } => assert_eq!(code, "bad_request"),
        other => panic!("expected bad_request, got {other:?}"),
    }
    assert!(read_frame(&mut raw, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .is_none());
    server.shutdown();
}

/// Each frame leaves in one write on a `TCP_NODELAY` socket, so a round
/// trip costs no delayed-ACK wait (≥ 40 ms per frame on Linux when a
/// frame was split into prefix and payload writes under Nagle).
#[test]
fn ping_round_trip_has_no_delayed_ack_stall() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_median_below_10ms("ping", || {
        client.ping().unwrap();
    });
    server.shutdown();
}

/// A job answers with two frames back to back (`accepted`, then the
/// result); under Nagle on the daemon's socket the second would wait for
/// the client's delayed ACK of the first.
#[test]
fn job_round_trip_has_no_delayed_ack_stall() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let upload = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(40, 3)), 5);
    client.send(&Request::Partition(upload)).unwrap();
    let digest = match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, .. } => result.digest,
        other => panic!("upload failed: {other:?}"),
    };
    let mut id = 1;
    assert_median_below_10ms("re-query", || {
        id += 1;
        let requery = PartitionRequest::new(id, InstanceRef::Digest(digest), 5);
        client.send(&Request::Partition(requery)).unwrap();
        assert!(matches!(
            client.wait_outcome(id).unwrap(),
            JobOutcome::Finished { .. }
        ));
    });
    server.shutdown();
}

/// Times 20 sequential calls of `round_trip` and asserts their median is
/// below 10 ms (a delayed-ACK stall is ≥ 40 ms).
fn assert_median_below_10ms(what: &str, mut round_trip: impl FnMut()) {
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let start = std::time::Instant::now();
            round_trip();
            start.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median {what} round trip {median:?} (all: {rtts:?})"
    );
}

#[test]
fn unknown_digest_and_bad_requests_fail_typed() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();

    client
        .send(&Request::Partition(PartitionRequest::new(
            5,
            InstanceRef::Digest(0xDEAD_BEEF),
            1,
        )))
        .unwrap();
    match client.wait_outcome(5).unwrap() {
        JobOutcome::Failed { code, .. } => assert_eq!(code, "unknown_instance"),
        other => panic!("expected unknown_instance, got {other:?}"),
    }

    // k = 1 violates the [2, 4096] validation; the raw frame carries an
    // id, so the error comes back job-scoped.
    let text = format!(
        r#"{{"op":"partition","id":6,"digest":"{}","k":1}}"#,
        digest_to_hex(1)
    );
    let value = hypart_trace::json::JsonValue::parse(&text).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let bytes = value.to_string();
    raw.write_all(&(bytes.len() as u32).to_be_bytes()).unwrap();
    raw.write_all(bytes.as_bytes()).unwrap();
    raw.flush().unwrap();
    // Read the job-scoped error reply off the raw socket — a
    // deterministic sync point (no sleeping and hoping the reader
    // thread got there) before checking the counter.
    let reply = hypart_server::protocol::read_frame(&mut raw, 1 << 20)
        .unwrap()
        .unwrap();
    assert_eq!(
        reply.get("reply").and_then(|v| v.as_str()),
        Some("error"),
        "raw k=1 frame must fail typed: {reply:?}"
    );
    let stats = client.stats().unwrap();
    assert!(stats.errors >= 2);

    // Eval with mismatched assignment length.
    client
        .send(&Request::Partition(PartitionRequest::new(
            7,
            InstanceRef::Inline(hgr_text(40, 2)),
            1,
        )))
        .unwrap();
    let digest = match client.wait_outcome(7).unwrap() {
        JobOutcome::Finished { result, .. } => result.digest,
        other => panic!("setup job failed: {other:?}"),
    };
    client
        .send(&Request::Eval(EvalRequest {
            id: 8,
            instance: InstanceRef::Digest(digest),
            assignment: vec![0, 1],
            k: 2,
            fraction: 0.1,
            request_token: None,
        }))
        .unwrap();
    match client.wait_outcome(8).unwrap() {
        JobOutcome::Failed { code, .. } => assert_eq!(code, "bad_request"),
        other => panic!("expected bad_request, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn cancel_stops_a_queued_job_and_unknown_cancel_is_typed() {
    let config = ServerConfig {
        workers: 1,
        worker_delay_ms: 150,
        ..ServerConfig::default()
    };
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    client
        .send(&Request::Partition(PartitionRequest::new(
            1,
            InstanceRef::Inline(hgr_text(80, 3)),
            5,
        )))
        .unwrap();
    // The worker is sleeping on the delay knob; the cancel lands while
    // the job is queued/starting, so the engine observes the token.
    assert!(client.cancel(1).unwrap(), "in-flight cancel must ack");
    match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, .. } => {
            assert_eq!(result.stopped, StopReason::Cancelled);
            assert_eq!(result.starts, 1, "the mandatory start still runs");
        }
        other => panic!("expected a cancelled result, got {other:?}"),
    }

    assert!(
        !client.cancel(99).unwrap(),
        "unknown job cancel returns false"
    );
    server.shutdown();
}

#[test]
fn eval_scores_an_assignment_without_running_engines() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut req = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(60, 4)), 9);
    req.include_assignment = true;
    client.send(&Request::Partition(req)).unwrap();
    let (digest, assignment, cut) = match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, .. } => (
            result.digest,
            result.assignment.clone().unwrap(),
            result.cut,
        ),
        other => panic!("setup job failed: {other:?}"),
    };
    client
        .send(&Request::Eval(EvalRequest {
            id: 2,
            instance: InstanceRef::Digest(digest),
            assignment,
            k: 2,
            fraction: 0.1,
            request_token: None,
        }))
        .unwrap();
    match client.wait_outcome(2).unwrap() {
        JobOutcome::Finished { result, .. } => {
            assert_eq!(result.cut, cut, "eval must agree with the engine's cut");
            assert_eq!(result.starts, 0);
            assert_eq!(result.stopped, StopReason::Completed);
        }
        other => panic!("eval failed: {other:?}"),
    }
    server.shutdown();
}

/// The acceptance contract of the hierarchy cache: a re-query with the
/// same `(digest, coarsening config, seed)` replays the cold run's
/// trace bitwise, prefixed by exactly one `hierarchy_reused` event; a
/// re-query with a *new balance* still skips hierarchy construction
/// (observable from the same leading event) while refining differently.
#[test]
fn cache_hit_trace_is_cold_trace_plus_reuse_prefix() {
    let server = start_default();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut cold = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(90, 5)), 11);
    cold.trace = true;
    client.send(&Request::Partition(cold)).unwrap();
    let (digest, cold_events, cold_result) = match client.wait_outcome(1).unwrap() {
        JobOutcome::Finished { result, events } => (result.digest, events, result),
        other => panic!("cold job failed: {other:?}"),
    };
    assert!(!cold_result.hierarchy_reused);
    assert!(!cold_events.is_empty());
    assert!(
        !cold_events
            .iter()
            .any(|e| matches!(e, RunEvent::HierarchyReused { .. })),
        "a cold run must not claim reuse"
    );

    // Identical re-query: bitwise replay plus the one-event prefix.
    let mut warm = PartitionRequest::new(2, InstanceRef::Digest(digest), 11);
    warm.trace = true;
    client.send(&Request::Partition(warm)).unwrap();
    let (warm_events, warm_result) = match client.wait_outcome(2).unwrap() {
        JobOutcome::Finished { result, events } => (events, result),
        other => panic!("warm job failed: {other:?}"),
    };
    assert!(warm_result.hierarchy_reused);
    assert_eq!(warm_result.levels, cold_result.levels);
    assert_eq!(warm_result.cut, cold_result.cut);
    match warm_events.first() {
        Some(RunEvent::HierarchyReused { levels }) => {
            assert_eq!(*levels, cold_result.levels)
        }
        other => panic!("warm trace must lead with hierarchy_reused, got {other:?}"),
    }
    assert_eq!(
        &warm_events[1..],
        &cold_events[..],
        "a cache hit must replay the cold trace bitwise after the reuse prefix"
    );

    // New balance over the cached hierarchy: construction still skipped.
    let mut rebalanced = PartitionRequest::new(3, InstanceRef::Digest(digest), 11);
    rebalanced.trace = true;
    rebalanced.fraction = 0.3;
    client.send(&Request::Partition(rebalanced)).unwrap();
    match client.wait_outcome(3).unwrap() {
        JobOutcome::Finished { result, events } => {
            assert!(result.hierarchy_reused);
            assert!(matches!(
                events.first(),
                Some(RunEvent::HierarchyReused { .. })
            ));
        }
        other => panic!("rebalanced job failed: {other:?}"),
    }

    let stats = client.stats().unwrap();
    assert!(stats.hierarchy_hits >= 2);
    assert!(stats.hierarchy_misses >= 1);
    assert!(
        stats.instance_hits >= 2,
        "digest re-queries hit the instance cache"
    );
    server.shutdown();
}

/// One schedule for a 2-way start: an unbudgeted daemon job returns the
/// assignment `MlPartitioner::run_with` returns for the same seed,
/// fraction and `ServerConfig::ml`, whether the job builds its hierarchy
/// or takes it from the cache.
#[test]
fn two_way_job_returns_the_library_partition() {
    let config = ServerConfig::default();
    let ml = hypart_ml::MlPartitioner::new(config.ml.clone());
    let server = Server::start(config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let text = hgr_text(300, 8);
    let h = hypart_hypergraph::io::hgr::read(text.as_bytes()).unwrap();

    let mut instance = InstanceRef::Inline(text);
    let mut id = 0;
    for (seed, fraction) in [(3, 0.1), (4, 0.05), (3, 0.2)] {
        id += 1;
        let mut req = PartitionRequest::new(id, instance.clone(), seed);
        req.fraction = fraction;
        req.include_assignment = true;
        client.send(&Request::Partition(req)).unwrap();
        let result = match client.wait_outcome(id).unwrap() {
            JobOutcome::Finished { result, .. } => result,
            other => panic!("job {id} failed: {other:?}"),
        };
        instance = InstanceRef::Digest(result.digest);

        let c = hypart_core::BalanceConstraint::with_fraction(h.total_vertex_weight(), fraction);
        let library = ml.run_with(&h, &c, &mut hypart_core::RunCtx::new(seed));
        let want: Vec<u16> = library
            .assignment
            .iter()
            .map(|p| p.index() as u16)
            .collect();
        assert_eq!(
            result.assignment.as_deref(),
            Some(&want[..]),
            "seed {seed}, fraction {fraction}: daemon and library partitions differ"
        );
        assert_eq!(result.cut, library.cut);
    }
    // The third job re-used the first job's hierarchy.
    assert_eq!(client.stats().unwrap().hierarchy_hits, 1);
    server.shutdown();
}

/// Disconnecting mid-stream poisons the connection writer; the daemon
/// cancels the job and counts a `stream_aborted` instead of pretending
/// the truncated trace was delivered.
#[test]
fn client_disconnect_mid_trace_counts_stream_aborted() {
    let config = ServerConfig {
        workers: 1,
        worker_delay_ms: 100,
        ..ServerConfig::default()
    };
    let server = Server::start(config).unwrap();

    {
        let mut doomed = Client::connect(server.local_addr()).unwrap();
        let mut req = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(120, 6)), 13);
        req.trace = true;
        doomed.send(&Request::Partition(req)).unwrap();
        // Drop the connection while the job is still queued behind the
        // worker delay: every later write to it fails.
    }

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut observer = Client::connect(server.local_addr()).unwrap();
    loop {
        let stats = observer.stats().unwrap();
        if stats.stream_aborted >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never counted the poisoned stream: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn remote_shutdown_op_stops_the_daemon() {
    let server = start_default();
    let addr = server.local_addr();
    let waiter = std::thread::spawn(move || server.wait());
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    waiter.join().unwrap();
    // The port is released once wait() returns; a fresh connect fails
    // (or connects to nothing that answers — accept loop is gone).
    std::thread::sleep(Duration::from_millis(50));
    let mut probe = Client::connect(addr);
    if let Ok(probe) = probe.as_mut() {
        assert!(
            probe.stats().is_err(),
            "daemon must not answer after shutdown"
        );
    }
}

/// Shutdown wakes each reader by shutting its socket down, once the
/// workers have drained: a peer that went quiet 2 bytes into a length
/// prefix cannot hold it up, and a job admitted before it still gets
/// its result on its connection.
#[test]
fn shutdown_does_not_wait_on_a_peer_stuck_mid_frame() {
    let server = Server::start(ServerConfig {
        workers: 1,
        worker_delay_ms: 100,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let req = PartitionRequest::new(1, InstanceRef::Inline(hgr_text(60, 4)), 3);
    client.send(&Request::Partition(req)).unwrap();
    // The reader handles a connection's frames in order, so the pong
    // means the job was admitted.
    client.ping().unwrap();

    let mut stuck = TcpStream::connect(server.local_addr()).unwrap();
    stuck
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_frame(&mut stuck, &Request::Ping.to_json()).unwrap();
    read_frame(&mut stuck, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .unwrap();
    stuck.write_all(&[0, 0]).unwrap();

    // Shut down on another thread, so that a shutdown waiting on the
    // stuck reader fails the test instead of hanging it.
    let (done, finished) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        let _ = done.send(());
    });
    assert!(
        finished.recv_timeout(Duration::from_secs(2)).is_ok(),
        "shutdown was still waiting 2 s on a peer stuck mid-frame"
    );
    stopper.join().unwrap();
    assert!(matches!(
        client.wait_outcome(1).unwrap(),
        JobOutcome::Finished { .. }
    ));
    // The daemon closed the stuck connection.
    assert!(read_frame(&mut stuck, DEFAULT_MAX_FRAME_BYTES)
        .unwrap()
        .is_none());
}
