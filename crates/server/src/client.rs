//! A blocking client for the partitioning daemon.
//!
//! One connection carries any number of concurrent jobs; the daemon
//! interleaves their `event`/`result` frames freely, so the client
//! demultiplexes by job id: frames for jobs other than the one being
//! waited on are buffered and handed out when their turn comes.
//!
//! # Self-healing
//!
//! A client built with [`Client::connect_with_retry`] carries a
//! [`RetryPolicy`] and survives transport faults: any I/O, framing, or
//! disconnect error triggers a bounded reconnect with deterministic
//! seeded exponential backoff, after which every journaled job request
//! that has not yet reached a terminal outcome is resubmitted in job-id
//! order. Stamp those requests with a `request_token` and resubmission
//! becomes idempotent — the daemon re-attaches to the in-flight job or
//! replays the cached outcome instead of recomputing (the
//! `dedup_hits` counter and replayed results are the observable
//! evidence). Without a policy ([`Client::connect`]) behavior is
//! unchanged: the first transport error is final.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufReader, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use hypart_core::derive_seed;
use hypart_trace::RunEvent;

use crate::protocol::{
    read_frame, write_frame, FrameError, Health, JobResult, Request, Response, StatsSnapshot,
    DEFAULT_MAX_FRAME_BYTES, MAX_WIRE_INT,
};

/// Default client-side read timeout: long enough for any queued job in
/// the test suite, short enough that a hung daemon fails tests instead
/// of wedging them.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Bounded reconnect-and-resubmit behavior for a self-healing client.
///
/// Backoff before attempt `n` is `base_backoff * 2^n` capped at
/// `max_backoff`, half fixed and half seeded jitter — deterministic for
/// a given `(jitter_seed, n)`, so chaos soaks replay their timing
/// decisions exactly.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Reconnect attempts per healing cycle, and the bound on
    /// consecutive healing cycles that make no progress (no frame
    /// absorbed) before the error is surfaced.
    pub max_attempts: u32,
    /// First-attempt backoff (doubles each attempt).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Read timeout installed on (re)connected sockets. Under chaos a
    /// stalled or desynchronized connection is only abandoned when a
    /// read exceeds this, so shorter values heal faster.
    pub read_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter_seed: 0,
            read_timeout: READ_TIMEOUT,
        }
    }
}

impl RetryPolicy {
    /// The deterministic backoff before reconnect attempt `attempt`
    /// (0-based): half the capped exponential step plus seeded jitter
    /// over the other half.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = u64::try_from(self.base_backoff.as_millis()).unwrap_or(u64::MAX);
        let cap = u64::try_from(self.max_backoff.as_millis()).unwrap_or(u64::MAX);
        let exp = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
        let half = exp / 2;
        let jitter = if half == 0 {
            0
        } else {
            derive_seed(self.jitter_seed, u64::from(attempt)) % (half + 1)
        };
        Duration::from_millis(half + jitter)
    }
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Framing or JSON decoding failure.
    Frame(FrameError),
    /// The daemon sent something the protocol does not allow here
    /// (including connection-scoped error frames carrying no job id).
    Protocol(String),
    /// The connection closed while a reply was still owed.
    Disconnected {
        /// The job being waited on when the connection died, when known.
        job: Option<u64>,
        /// Response bytes read over the connection's lifetime before it
        /// died.
        bytes_read: u64,
        /// `true` when the close landed mid-frame (bytes of a frame were
        /// lost), `false` when it happened cleanly between frames.
        mid_frame: bool,
    },
    /// A request integer the wire cannot carry exactly (above
    /// [`MAX_WIRE_INT`]); the request was not sent, because the daemon
    /// would have received a rounded value.
    Unrepresentable {
        /// The offending request field (`id`, `seed` or `token`).
        field: &'static str,
        /// Its value.
        value: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client i/o error: {e}"),
            ClientError::Frame(e) => write!(f, "client framing error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Disconnected {
                job,
                bytes_read,
                mid_frame,
            } => {
                write!(f, "daemon closed the connection")?;
                if let Some(id) = job {
                    write!(f, " while job {id} was pending")?;
                }
                write!(
                    f,
                    " ({} after {bytes_read} response bytes)",
                    if *mid_frame {
                        "mid-frame"
                    } else {
                        "at a frame boundary"
                    }
                )
            }
            ClientError::Unrepresentable { field, value } => write!(
                f,
                "request `{field}` {value} exceeds {MAX_WIRE_INT}, \
                 the largest integer a JSON number carries exactly"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// How one job ended, as seen from the client.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// The job ran and reported a result; `events` holds the streamed
    /// trace (empty unless the request set `trace: true`).
    Finished {
        /// The result payload.
        result: JobResult,
        /// Streamed trace events, in engine order.
        events: Vec<RunEvent>,
    },
    /// Overload shedding: the job never ran.
    Rejected {
        /// Queue depth the daemon observed when shedding.
        queue_depth: usize,
        /// The shedding threshold.
        queue_capacity: usize,
    },
    /// A typed job-scoped error (`unknown_instance`, `parse`,
    /// `rejected_too_large`, `stream_poisoned`, …).
    Failed {
        /// Machine-readable error code.
        code: String,
        /// Human-readable detail.
        detail: String,
    },
}

#[derive(Default)]
struct PendingJob {
    events: Vec<RunEvent>,
    terminal: Option<JobOutcome>,
}

/// The buffered read half of a connection, counting the bytes the frame
/// decoder consumed so disconnect errors can report how far the
/// response stream got. The buffer turns the two `read` calls each frame
/// costs into about one per buffer-full; it lives and dies with its
/// socket, so a heal drops the old connection's buffered bytes too.
struct CountingReader<R = TcpStream> {
    stream: BufReader<R>,
    bytes: u64,
}

impl<R: Read> CountingReader<R> {
    fn new(stream: R) -> Self {
        CountingReader {
            stream: BufReader::new(stream),
            bytes: 0,
        }
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// A blocking connection to the daemon.
pub struct Client {
    writer: TcpStream,
    reader: CountingReader,
    pending: HashMap<u64, PendingJob>,
    /// Reconnect target; `None` on clients built without a policy.
    addr: Option<String>,
    retry: Option<RetryPolicy>,
    /// Job requests not yet terminal, resubmitted in id order after a
    /// reconnect (`BTreeMap` so resubmission order is deterministic).
    journal: BTreeMap<u64, Request>,
    retries: u64,
}

impl Client {
    /// Connects to a running daemon without a retry policy: the first
    /// transport error is final.
    ///
    /// # Errors
    ///
    /// Propagates connection/setup failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let (writer, reader) = Self::open(addr, READ_TIMEOUT)?;
        Ok(Client::from_streams(writer, reader, None, None))
    }

    /// Connects with a retry policy: the initial connection and every
    /// later transport fault get up to `policy.max_attempts` backed-off
    /// reconnects, and journaled jobs are resubmitted after each heal.
    ///
    /// # Errors
    ///
    /// Connection/setup failure persisting through all attempts.
    pub fn connect_with_retry(addr: &str, policy: RetryPolicy) -> Result<Client, ClientError> {
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 || last.is_some() {
                std::thread::sleep(policy.backoff(attempt));
            }
            match Self::open(addr, policy.read_timeout) {
                Ok((writer, reader)) => {
                    return Ok(Client::from_streams(
                        writer,
                        reader,
                        Some(addr.to_string()),
                        Some(policy),
                    ))
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            std::io::Error::other("no connection attempts were made")
        })))
    }

    /// The one place a client socket is opened and configured: write
    /// half, cloned read half with its timeout, and `TCP_NODELAY` (each
    /// frame is one write awaiting a reply, so Nagle's algorithm would
    /// only hold it for the daemon's delayed ACK, ~40 ms).
    fn open(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
    ) -> std::io::Result<(TcpStream, TcpStream)> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = writer.try_clone()?;
        reader.set_read_timeout(Some(read_timeout))?;
        Ok((writer, reader))
    }

    fn from_streams(
        writer: TcpStream,
        reader: TcpStream,
        addr: Option<String>,
        retry: Option<RetryPolicy>,
    ) -> Client {
        Client {
            writer,
            reader: CountingReader::new(reader),
            pending: HashMap::new(),
            addr,
            retry,
            journal: BTreeMap::new(),
            retries: 0,
        }
    }

    /// How many times this client has healed (reconnected) so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Sends one request frame without waiting for anything. Job
    /// requests (`partition`/`eval`) are journaled for resubmission
    /// until their outcome is observed; on a write failure the client
    /// heals (when it has a policy), which already resubmits the
    /// journal — including this request.
    ///
    /// # Errors
    ///
    /// [`ClientError::Unrepresentable`] before anything is written, when
    /// an `id`, `seed` or `token` exceeds [`MAX_WIRE_INT`]; otherwise the
    /// write failure, when unhealable or healing is exhausted.
    pub fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        check_wire_ints(request)?;
        match request {
            Request::Partition(req) => {
                self.journal.insert(req.id, request.clone());
            }
            Request::Eval(req) => {
                self.journal.insert(req.id, request.clone());
            }
            _ => {}
        }
        match write_frame(&mut self.writer, &request.to_json()) {
            Ok(()) => Ok(()),
            Err(e) => {
                let journaled = matches!(request, Request::Partition(_) | Request::Eval(_));
                let err = ClientError::Io(e);
                if self.healable() {
                    // `heal` resubmits the journal; a non-job request
                    // must be re-sent explicitly.
                    self.heal(err)?;
                    if !journaled {
                        write_frame(&mut self.writer, &request.to_json())
                            .map_err(ClientError::Io)?;
                    }
                    Ok(())
                } else {
                    Err(err)
                }
            }
        }
    }

    /// Reads the next response frame raw, bypassing the demultiplexer.
    ///
    /// # Errors
    ///
    /// I/O, framing, or a close ([`ClientError::Disconnected`], with
    /// `mid_frame` telling a torn frame from a clean boundary).
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        let frame = match read_frame(&mut self.reader, DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                return Err(ClientError::Disconnected {
                    job: None,
                    bytes_read: self.reader.bytes,
                    mid_frame: false,
                })
            }
            Err(FrameError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(ClientError::Disconnected {
                    job: None,
                    bytes_read: self.reader.bytes,
                    mid_frame: true,
                })
            }
            Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
            Err(e) => return Err(ClientError::Frame(e)),
        };
        Response::from_json(&frame).map_err(ClientError::Protocol)
    }

    /// Blocks until job `id` reaches a terminal state, buffering frames
    /// of other jobs along the way. With a retry policy, transport
    /// faults along the way trigger reconnect-and-resubmit; the wait
    /// only fails after `max_attempts` consecutive healing cycles make
    /// no progress.
    ///
    /// # Errors
    ///
    /// Transport failures or protocol violations; job-level failures are
    /// data ([`JobOutcome::Failed`] / [`JobOutcome::Rejected`]), not
    /// errors.
    pub fn wait_outcome(&mut self, id: u64) -> Result<JobOutcome, ClientError> {
        let mut stale_heals = 0u32;
        loop {
            if let Some(slot) = self.pending.get_mut(&id) {
                if let Some(terminal) = slot.terminal.take() {
                    let outcome = match terminal {
                        JobOutcome::Finished { result, .. } => JobOutcome::Finished {
                            result,
                            events: std::mem::take(&mut slot.events),
                        },
                        other => other,
                    };
                    self.pending.remove(&id);
                    self.journal.remove(&id);
                    return Ok(outcome);
                }
            }
            let absorbed = self
                .read_response()
                .and_then(|response| self.absorb(response));
            match absorbed {
                Ok(()) => stale_heals = 0,
                Err(e) => {
                    let e = stamp_job(e, id);
                    if !self.healable() || stale_heals >= self.max_heals() {
                        return Err(e);
                    }
                    stale_heals += 1;
                    self.heal(e)?;
                }
            }
        }
    }

    /// Requests a counter snapshot and blocks for the reply (healing
    /// transport faults when a policy is set).
    ///
    /// # Errors
    ///
    /// Transport failures or protocol violations.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        self.roundtrip(&Request::Stats, |response| match response {
            Response::Stats(snapshot) => Ok(snapshot),
            other => Err(other),
        })
    }

    /// Sends a `ping` and blocks for the health snapshot — the
    /// readiness probe (healing transport faults when a policy is set).
    ///
    /// # Errors
    ///
    /// Transport failures or protocol violations.
    pub fn ping(&mut self) -> Result<Health, ClientError> {
        self.roundtrip(&Request::Ping, |response| match response {
            Response::Pong(health) => Ok(health),
            other => Err(other),
        })
    }

    /// Cancels job `id`. Returns `true` when the daemon acknowledged
    /// the cancellation, `false` when it no longer knew the job (already
    /// finished, or never admitted).
    ///
    /// # Errors
    ///
    /// Transport failures or protocol violations (never healed: after a
    /// reconnect the job's fate is already decided, so a retried cancel
    /// would race it); [`ClientError::Unrepresentable`] before writing
    /// when `id` exceeds [`MAX_WIRE_INT`].
    pub fn cancel(&mut self, id: u64) -> Result<bool, ClientError> {
        let request = Request::Cancel { id };
        check_wire_ints(&request)?;
        write_frame(&mut self.writer, &request.to_json()).map_err(ClientError::Io)?;
        loop {
            match self.read_response()? {
                Response::Ok { id: acked } if acked == id => return Ok(true),
                Response::Error {
                    id: Some(error_id),
                    code,
                    ..
                } if error_id == id && code == "unknown_job" => return Ok(false),
                other => self.absorb(other)?,
            }
        }
    }

    /// Asks the daemon to shut down and blocks for the farewell (never
    /// healed: reconnecting to a daemon told to exit is self-defeating).
    ///
    /// # Errors
    ///
    /// Transport failures or protocol violations.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &Request::Shutdown.to_json()).map_err(ClientError::Io)?;
        loop {
            match self.read_response()? {
                Response::Bye => return Ok(()),
                other => self.absorb(other)?,
            }
        }
    }

    /// Send-then-match with healing: the request is re-sent after every
    /// heal, and the loop only fails after `max_attempts` consecutive
    /// healing cycles without progress. Frames the matcher declines go
    /// through the demultiplexer.
    fn roundtrip<T>(
        &mut self,
        request: &Request,
        matcher: impl Fn(Response) -> Result<T, Response>,
    ) -> Result<T, ClientError> {
        let mut stale_heals = 0u32;
        'attempt: loop {
            if let Err(e) = write_frame(&mut self.writer, &request.to_json()) {
                let err = ClientError::Io(e);
                if !self.healable() || stale_heals >= self.max_heals() {
                    return Err(err);
                }
                stale_heals += 1;
                self.heal(err)?;
                continue 'attempt;
            }
            loop {
                let step = self
                    .read_response()
                    .and_then(|response| match matcher(response) {
                        Ok(value) => Ok(Some(value)),
                        Err(other) => self.absorb(other).map(|()| None),
                    });
                match step {
                    Ok(Some(value)) => return Ok(value),
                    Ok(None) => stale_heals = 0,
                    Err(e) => {
                        if !self.healable() || stale_heals >= self.max_heals() {
                            return Err(e);
                        }
                        stale_heals += 1;
                        self.heal(e)?;
                        continue 'attempt;
                    }
                }
            }
        }
    }

    fn healable(&self) -> bool {
        self.retry.is_some() && self.addr.is_some()
    }

    fn max_heals(&self) -> u32 {
        self.retry.as_ref().map_or(0, |p| p.max_attempts)
    }

    /// One healing cycle: backed-off reconnect attempts, then journal
    /// resubmission. Returns the original error when every attempt
    /// fails.
    fn heal(&mut self, original: ClientError) -> Result<(), ClientError> {
        let (Some(policy), Some(addr)) = (self.retry.clone(), self.addr.clone()) else {
            return Err(original);
        };
        for attempt in 0..policy.max_attempts.max(1) {
            std::thread::sleep(policy.backoff(attempt));
            let Ok((writer, reader)) = Self::open(&addr, policy.read_timeout) else {
                continue;
            };
            self.writer = writer;
            self.reader = CountingReader::new(reader);
            self.retries += 1;
            // Partially streamed traces of unfinished jobs died with the
            // old connection; resubmission re-streams from the start.
            for slot in self.pending.values_mut() {
                if slot.terminal.is_none() {
                    slot.events.clear();
                }
            }
            let resubmit: Vec<Request> = self
                .journal
                .values()
                .filter(|request| {
                    let id = match request {
                        Request::Partition(req) => req.id,
                        Request::Eval(req) => req.id,
                        _ => return false,
                    };
                    self.pending
                        .get(&id)
                        .is_none_or(|slot| slot.terminal.is_none())
                })
                .cloned()
                .collect();
            let mut resent_all = true;
            for request in &resubmit {
                if write_frame(&mut self.writer, &request.to_json()).is_err() {
                    resent_all = false;
                    break;
                }
            }
            if resent_all {
                return Ok(());
            }
        }
        Err(original)
    }

    /// Files a response into the per-job buffers.
    fn absorb(&mut self, response: Response) -> Result<(), ClientError> {
        match response {
            // Admission acks carry no payload the client needs; results
            // can even overtake them when a worker is faster than the
            // reader thread's next write slot. A stray pong (a probe
            // abandoned by a heal) is equally ignorable.
            Response::Accepted { .. } | Response::Pong(_) => Ok(()),
            Response::Event { id, event } => {
                self.pending.entry(id).or_default().events.push(event);
                Ok(())
            }
            Response::Result { id, result } => {
                let slot = self.pending.entry(id).or_default();
                slot.terminal = Some(JobOutcome::Finished {
                    result,
                    events: Vec::new(),
                });
                Ok(())
            }
            Response::Rejected {
                id,
                queue_depth,
                queue_capacity,
            } => {
                self.pending.entry(id).or_default().terminal = Some(JobOutcome::Rejected {
                    queue_depth,
                    queue_capacity,
                });
                Ok(())
            }
            Response::Error {
                id: Some(id),
                code,
                detail,
            } => {
                self.pending.entry(id).or_default().terminal =
                    Some(JobOutcome::Failed { code, detail });
                Ok(())
            }
            Response::Error {
                id: None,
                code,
                detail,
            } => Err(ClientError::Protocol(format!(
                "connection-scoped error {code}: {detail}"
            ))),
            Response::Ok { .. } => Ok(()),
            Response::Stats(_) | Response::Bye => Err(ClientError::Protocol(
                "unsolicited stats/bye frame".to_string(),
            )),
        }
    }
}

/// Rejects a request whose `id`, `seed` or `token` would reach the
/// daemon rounded.
fn check_wire_ints(request: &Request) -> Result<(), ClientError> {
    let (id, seed, token) = match request {
        Request::Partition(r) => (Some(r.id), Some(r.seed), r.request_token),
        Request::Eval(r) => (Some(r.id), None, r.request_token),
        Request::Cancel { id } => (Some(*id), None, None),
        Request::Stats | Request::Ping | Request::Shutdown => (None, None, None),
    };
    for (field, value) in [("id", id), ("seed", seed), ("token", token)] {
        if let Some(value) = value.filter(|&v| v > MAX_WIRE_INT) {
            return Err(ClientError::Unrepresentable { field, value });
        }
    }
    Ok(())
}

/// Attributes a job-agnostic disconnect to the job being waited on.
fn stamp_job(e: ClientError, id: u64) -> ClientError {
    match e {
        ClientError::Disconnected {
            job: None,
            bytes_read,
            mid_frame,
        } => ClientError::Disconnected {
            job: Some(id),
            bytes_read,
            mid_frame,
        },
        other => other,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::protocol::{EvalRequest, InstanceRef, PartitionRequest};
    use std::net::TcpListener;

    #[test]
    fn unrepresentable_integers_are_rejected_before_writing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();

        let over = MAX_WIRE_INT + 1;
        let mut seeded = PartitionRequest::new(1, InstanceRef::Digest(7), over);
        let mut tokened = PartitionRequest::new(2, InstanceRef::Digest(7), 3);
        tokened.request_token = Some(u64::MAX);
        let eval = EvalRequest {
            id: over,
            instance: InstanceRef::Digest(7),
            assignment: vec![0, 1],
            k: 2,
            fraction: 0.1,
            request_token: None,
        };
        for (request, field, value) in [
            (Request::Partition(seeded.clone()), "seed", over),
            (Request::Partition(tokened), "token", u64::MAX),
            (Request::Eval(eval), "id", over),
            (Request::Cancel { id: over }, "id", over),
        ] {
            match client.send(&request) {
                Err(ClientError::Unrepresentable { field: f, value: v }) => {
                    assert_eq!((f, v), (field, value));
                }
                other => panic!("expected Unrepresentable for {field}, got {other:?}"),
            }
        }
        assert!(matches!(
            client.cancel(over),
            Err(ClientError::Unrepresentable {
                field: "id",
                value
            }) if value == over
        ));
        assert!(client.journal.is_empty(), "rejected jobs are not journaled");

        // The largest exact integer is accepted and is the only frame the
        // peer ever sees.
        seeded.seed = MAX_WIRE_INT;
        client.send(&Request::Partition(seeded.clone())).unwrap();
        drop(client);
        let frame = read_frame(&mut peer, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(
            Request::from_json(&frame).unwrap(),
            Request::Partition(seeded)
        );
        assert!(read_frame(&mut peer, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .is_none());
    }

    /// A `Read` over a complete byte stream that counts its `read` calls.
    struct Recording {
        bytes: std::io::Cursor<Vec<u8>>,
        reads: usize,
    }

    impl Read for Recording {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.bytes.read(buf)
        }
    }

    #[test]
    fn a_trace_costs_one_read_per_buffer_full() {
        // 16k event frames, as one traced job streams them, then a
        // terminal frame; read_frame asks for each frame in two reads.
        let mut stream = Vec::new();
        for i in 0..16_000u64 {
            let event = RunEvent::Move {
                vertex: i,
                gain: -1,
                cut: 300 + i,
            };
            write_frame(&mut stream, &Response::Event { id: 1, event }.to_json()).unwrap();
        }
        write_frame(&mut stream, &Response::Ok { id: 1 }.to_json()).unwrap();
        let total = stream.len();
        let mut reader = CountingReader::new(Recording {
            bytes: std::io::Cursor::new(stream),
            reads: 0,
        });
        let mut frames = 0;
        while read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .is_some()
        {
            frames += 1;
        }
        assert_eq!(frames, 16_001);
        assert_eq!(
            reader.bytes, total as u64,
            "counts what the decoder consumed"
        );
        let capacity = reader.stream.capacity();
        let reads = reader.stream.get_ref().reads;
        // Every read but the final EOF fills the buffer.
        assert!(
            reads <= total.div_ceil(capacity) + 1,
            "{reads} reads for {total} bytes"
        );
    }

    #[test]
    fn client_sockets_disable_nagle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let plain = Client::connect(&addr).unwrap();
        let healing = Client::connect_with_retry(&addr, RetryPolicy::default()).unwrap();
        for client in [&plain, &healing] {
            assert!(client.writer.nodelay().unwrap());
            assert!(client.reader.stream.get_ref().nodelay().unwrap());
        }
    }
}
