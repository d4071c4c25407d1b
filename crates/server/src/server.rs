//! The daemon: accept loop, per-connection reader threads, and a fixed
//! worker pool over the bounded job queue.
//!
//! # Thread layout and shutdown
//!
//! * **1 accept thread**, blocked in `TcpListener::accept`. Shutdown
//!   unblocks it with a throwaway self-connection. Each accept also
//!   joins the readers whose connections have closed, so a finished
//!   reader's stack is freed then, not at shutdown.
//! * **1 reader thread per live connection**, blocked in `read_frame`
//!   with no timeout. It exits when its peer hangs up or when shutdown
//!   shuts its socket down.
//! * **N worker threads**, blocked in [`BoundedQueue::pop`]. The queue's
//!   close-then-drain semantics mean admitted jobs still finish during a
//!   graceful shutdown; `pop` returning `None` is the workers' exit
//!   signal.
//!
//! [`ServerHandle::shutdown`] (or a remote `shutdown` op) flips one
//! flag, closes the queue, cancels in-flight job tokens and pokes the
//! accept loop. It joins the accept thread and the workers, so every
//! admitted job has answered, and only then shuts down the socket of
//! every live connection, which wakes its reader, and joins the
//! readers. The daemon owns all of its threads, so a clean shutdown
//! leaks none (the soak test asserts this against `/proc/self/status`).
//!
//! # Stream poisoning
//!
//! Results and trace events go through one [`ConnWriter`] per
//! connection. The first failed write poisons the writer (mirroring
//! [`JsonlSink::is_poisoned`](hypart_trace::JsonlSink::is_poisoned));
//! the sink of any job streaming to it then cancels that job's token so
//! the engine stops early, and the worker reports the job as
//! `stream_aborted` instead of pretending a silently truncated trace
//! was delivered.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hypart_core::{AllPanicked, AuditLevel, BalanceConstraint, CancelToken, RunCtx};
use hypart_hypergraph::{io::hgr, Hypergraph, PartId};
use hypart_kway::{recursive_bisection_with, KWayBalance, KWayPartition};
use hypart_ml::{multi_start_with, MlConfig, MlPartitioner, MultiStartPlan};
use hypart_trace::{RunEvent, StopReason, TraceSink};

use crate::cache::{FifoMap, HierarchyCache, HierarchyKey, InstanceCache};
use crate::protocol::{
    encode_event_frame, encode_value_frame, read_frame, EvalRequest, FrameError, Health,
    InstanceRef, JobResult, PartitionRequest, Request, Response, StatsSnapshot,
    DEFAULT_MAX_FRAME_BYTES,
};
use crate::queue::BoundedQueue;

/// Write deadline per response frame: a consumer that stalls reads
/// longer than this poisons its connection writer, feeding the
/// `stream_aborted` accounting.
const WRITE_DEADLINE: Duration = Duration::from_secs(30);

/// Recently-completed idempotency tokens retained for replay (FIFO).
const TOKEN_CACHE_CAPACITY: usize = 256;

/// Daemon configuration. `Default` binds an ephemeral localhost port
/// with a small worker pool, suitable for tests and the CLI alike.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port; read the
    /// actual one from [`ServerHandle::local_addr`]).
    pub addr: String,
    /// Worker threads executing jobs (clamped to at least 1).
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are shed with a
    /// typed `rejected` response.
    pub queue_capacity: usize,
    /// Instances held in the digest-keyed cache, the oldest evicted
    /// first (FIFO). A library caller's 0 is clamped to 1.
    pub instance_cache_capacity: usize,
    /// Coarsening hierarchies held at most, one per `(digest, coarsening
    /// config, seed)`, under 2Q admission (DESIGN §10): a new hierarchy
    /// waits in a probation queue of a quarter of them (at least 1), and
    /// one looked up again there moves to the main queue, which holds the
    /// rest. A library caller's 0 is clamped to 1.
    pub hierarchy_cache_capacity: usize,
    /// Engine configuration shared by all partition jobs. Part of the
    /// hierarchy-cache key, so reconfiguring the daemon never serves a
    /// stale hierarchy.
    pub ml: MlConfig,
    /// Admission control: reject inline instances whose *declared*
    /// header counts (nets or vertices) exceed this, with a typed
    /// `rejected_too_large` error *before* parsing. `0` disables the
    /// check.
    pub max_cells: usize,
    /// Artificial per-job delay before execution, for deterministically
    /// filling the queue in overload and cancellation tests.
    #[doc(hidden)]
    pub worker_delay_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            instance_cache_capacity: 16,
            hierarchy_cache_capacity: 32,
            ml: MlConfig::default(),
            max_cells: 0,
            worker_delay_ms: 0,
        }
    }
}

/// Monotonic daemon counters (the `stats` op snapshot, minus the cache
/// counters which live on the caches themselves).
#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_overload: AtomicU64,
    stream_aborted: AtomicU64,
    errors: AtomicU64,
    rejected_too_large: AtomicU64,
    dedup_hits: AtomicU64,
    io_failures: AtomicU64,
}

/// One admitted unit of work.
struct Job {
    conn_id: u64,
    id: u64,
    writer: Arc<ConnWriter>,
    token: CancelToken,
    /// Idempotency token, when the client stamped one.
    request_token: Option<u64>,
    kind: JobKind,
}

enum JobKind {
    Partition(PartitionRequest, Arc<Hypergraph>, u128),
    Eval(EvalRequest, Arc<Hypergraph>, u128),
}

/// The serialized write half of one connection, shared by its reader
/// thread and every worker streaming that connection's jobs. The first
/// failed write poisons it; later sends are dropped without blocking.
/// Callers encode their frames before they take the lock, so the lock
/// is held for exactly one `write_all`.
struct ConnWriter<W = TcpStream> {
    stream: Mutex<W>,
    poisoned: AtomicBool,
}

impl<W: Write> ConnWriter<W> {
    fn new(stream: W) -> Self {
        ConnWriter {
            stream: Mutex::new(stream),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Sends one response frame; `false` once the writer is poisoned.
    fn send(&self, response: &Response) -> bool {
        if self.is_poisoned() {
            return false;
        }
        let mut frame = Vec::new();
        if encode_value_frame(&mut frame, &response.to_json()).is_err() {
            self.poison();
            return false;
        }
        self.write_frames(&frame)
    }

    /// Writes a buffer of whole frames with one `write_all`; `false` once
    /// the writer is poisoned.
    fn write_frames(&self, frames: &[u8]) -> bool {
        if self.is_poisoned() {
            return false;
        }
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        if stream.write_all(frames).is_err() {
            self.poison();
            return false;
        }
        true
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }
}

/// A retried submission waiting on an in-flight job with the same
/// token: gets the result delivered under its own job id when the
/// original completes.
struct Waiter {
    writer: Arc<ConnWriter>,
    id: u64,
}

/// What the token registry decided about a submission.
enum Admission {
    /// First sighting: run the job.
    Fresh,
    /// Same token is in flight: the caller was registered as a waiter.
    Attached,
    /// Same token recently completed: replay the cached result.
    Replay(JobResult),
}

struct TokenMaps {
    in_flight: HashMap<u64, Vec<Waiter>>,
    completed: FifoMap<u64, JobResult>,
}

/// Idempotency-token dedup: in-flight tokens re-attach, recently
/// completed tokens replay. One lock guards both maps so a completion
/// draining waiters cannot race an admission checking `in_flight`.
struct TokenRegistry {
    inner: Mutex<TokenMaps>,
}

impl TokenRegistry {
    fn new() -> Self {
        TokenRegistry {
            inner: Mutex::new(TokenMaps {
                in_flight: HashMap::new(),
                completed: FifoMap::new(TOKEN_CACHE_CAPACITY),
            }),
        }
    }

    /// Classifies a token-stamped submission. `Fresh` registers the
    /// token as in flight; the caller must later `complete` or
    /// `abandon` it.
    fn admit(&self, token: u64, writer: &Arc<ConnWriter>, id: u64) -> Admission {
        let mut maps = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(result) = maps.completed.get(&token) {
            return Admission::Replay(result);
        }
        if let Some(waiters) = maps.in_flight.get_mut(&token) {
            waiters.push(Waiter {
                writer: Arc::clone(writer),
                id,
            });
            return Admission::Attached;
        }
        maps.in_flight.insert(token, Vec::new());
        Admission::Fresh
    }

    /// Forgets a `Fresh` token whose job never ran (queue rejection or
    /// resolution failure), releasing any waiters that attached in the
    /// window — they are answered by the caller with the same typed
    /// error the primary got.
    fn abandon(&self, token: u64) -> Vec<Waiter> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .in_flight
            .remove(&token)
            .unwrap_or_default()
    }

    /// Records the job's result for replay (FIFO-bounded) and returns
    /// the waiters to notify.
    fn complete(&self, token: u64, result: JobResult) -> Vec<Waiter> {
        let mut maps = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let waiters = maps.in_flight.remove(&token).unwrap_or_default();
        maps.completed.insert(token, result);
        waiters
    }

    /// Number of completed results retained (for the health snapshot).
    fn completed_len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .completed
            .len()
    }
}

/// Bytes of encoded `event` frames a job's sink holds before writing
/// them without waiting for a non-per-move event. A long FM pass emits
/// thousands of `move` events before its `pass_end`; without the cap the
/// whole pass would sit in memory and reach the client only when it
/// ends. 128 KiB holds an FM pass of 1,000 moves (~80 KB) in one write;
/// the median pass on the serve workloads' netlist is ~10 KB.
const STREAM_BATCH_BYTES: usize = 128 << 10;

/// The trace sink of one running job: forwards engine events as `event`
/// frames. Per-move frames (`move`, `rollback`) wait in a batch that
/// leaves in one write with the next other event, or once it reaches
/// [`STREAM_BATCH_BYTES`]; every other event is written at once, behind
/// the moves before it. A poisoned writer cancels the job's token, so
/// the engine stops at its next budget check instead of computing for a
/// client that can no longer hear the answer.
struct StreamSink<W = TcpStream> {
    writer: Arc<ConnWriter<W>>,
    id: u64,
    token: CancelToken,
    enabled: bool,
    /// Token-stamped jobs keep computing through a poisoned writer:
    /// their outcome is still wanted (a healed client will re-attach by
    /// request token), so the sink only stops streaming instead of
    /// cancelling.
    durable: bool,
    /// Whole encoded `event` frames not yet written.
    batch: RefCell<Vec<u8>>,
}

impl<W: Write> StreamSink<W> {
    /// Writes the held frames. The worker calls this before the job's
    /// terminal frame, so the frame order on the connection is the
    /// emission order.
    fn flush(&self) {
        let mut batch = self.batch.borrow_mut();
        if !batch.is_empty() {
            let sent = self.writer.write_frames(&batch);
            batch.clear();
            if !sent {
                self.stream_failed();
            }
        }
    }

    fn stream_failed(&self) {
        if !self.durable {
            self.token.cancel();
        }
    }
}

impl<W: Write> TraceSink for StreamSink<W> {
    fn emit(&self, event: RunEvent) {
        if !self.enabled {
            return;
        }
        if self.writer.is_poisoned() {
            self.stream_failed();
            return;
        }
        let mut batch = self.batch.borrow_mut();
        if encode_event_frame(&mut batch, self.id, &event).is_err() {
            // A frame too long for its length prefix cannot be delivered:
            // the stream is lost as surely as by a failed write.
            self.writer.poison();
            drop(batch);
            self.stream_failed();
            return;
        }
        let per_move = matches!(event, RunEvent::Move { .. } | RunEvent::Rollback { .. });
        if !per_move || batch.len() >= STREAM_BATCH_BYTES {
            drop(batch);
            self.flush();
        }
    }

    fn is_enabled(&self) -> bool {
        self.enabled
    }
}

struct Shared {
    config: ServerConfig,
    queue: BoundedQueue<Job>,
    instances: InstanceCache,
    hierarchies: HierarchyCache,
    tokens: TokenRegistry,
    stats: Stats,
    started: Instant,
    /// The shutdown flag: `wait` sleeps on it, and the accept loop
    /// checks it after every accept.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Cancellation tokens of admitted-but-unfinished jobs, keyed by
    /// `(connection, job id)` so `cancel` cannot reach across
    /// connections. The flag marks durable (token-stamped) jobs, which
    /// survive the death of the connection that submitted them: a
    /// healed client is about to re-attach to them by request token.
    cancels: Mutex<HashMap<(u64, u64), (CancelToken, bool)>>,
    /// Connections whose reader has not been joined yet: the live ones,
    /// and those that closed since the last accept.
    conns: Mutex<Vec<Conn>>,
}

/// One accepted connection: its reader thread, and its socket, which
/// shutdown shuts down to wake the reader from `read_frame`. The reader
/// owns the socket, so it closes when the reader exits.
struct Conn {
    reader: JoinHandle<()>,
    socket: Weak<TcpStream>,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            completed: self.stats.completed.load(Ordering::Relaxed),
            rejected_overload: self.stats.rejected_overload.load(Ordering::Relaxed),
            stream_aborted: self.stats.stream_aborted.load(Ordering::Relaxed),
            errors: self.stats.errors.load(Ordering::Relaxed),
            instance_hits: self.instances.hits(),
            instance_misses: self.instances.misses(),
            hierarchy_hits: self.hierarchies.hits(),
            hierarchy_misses: self.hierarchies.misses(),
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            rejected_too_large: self.stats.rejected_too_large.load(Ordering::Relaxed),
            dedup_hits: self.stats.dedup_hits.load(Ordering::Relaxed),
            io_failures: self.stats.io_failures.load(Ordering::Relaxed),
        }
    }

    fn health(&self) -> Health {
        Health {
            uptime_ms: u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX),
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            instances_cached: self.instances.len(),
            hierarchies_cached: self.hierarchies.len(),
            tokens_cached: self.tokens.completed_len(),
        }
    }

    /// Flips the shutdown flag, stops admissions, cancels in-flight
    /// jobs, and wakes everyone who might be blocked. Idempotent.
    fn begin_shutdown(&self) {
        self.queue.close();
        let cancels = self.cancels.lock().unwrap_or_else(|e| e.into_inner());
        for (token, _) in cancels.values() {
            token.cancel();
        }
        drop(cancels);
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        *done = true;
        drop(done);
        self.done_cv.notify_all();
    }
}

/// Constructor namespace for the daemon.
pub struct Server;

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns a
    /// handle controlling the daemon's lifetime.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            instances: InstanceCache::new(config.instance_cache_capacity),
            hierarchies: HierarchyCache::new(config.hierarchy_cache_capacity),
            tokens: TokenRegistry::new(),
            config,
            stats: Stats::default(),
            started: Instant::now(),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            cancels: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hypart-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        let mut worker_threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("hypart-worker-{w}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        Ok(ServerHandle {
            local_addr,
            shared,
            accept: Some(accept),
            workers: worker_threads,
        })
    }
}

/// Control handle of a running daemon. Dropping it shuts the daemon
/// down and joins every thread.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time snapshot of the daemon counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Gracefully shuts down: stops admitting, cancels in-flight jobs
    /// (they finish with `stopped: cancelled` results), drains the
    /// queue, closes every connection, and joins every thread the
    /// daemon spawned.
    pub fn shutdown(mut self) {
        self.finish();
    }

    /// Blocks until a remote `shutdown` op arrives, then joins all
    /// threads and returns the final counter snapshot. The
    /// `hypart serve` foreground mode.
    pub fn wait(mut self) -> StatsSnapshot {
        let mut done = self.shared.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self
                .shared
                .done_cv
                .wait(done)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(done);
        self.finish();
        self.shared.snapshot()
    }

    fn finish(&mut self) {
        self.shared.begin_shutdown();
        // Unblock the accept loop with a throwaway connection (the
        // connect result is irrelevant — the poke is the point); it
        // checks the flag right after `accept` returns.
        drop(TcpStream::connect(self.local_addr));
        // Joins only fail when the joined thread panicked; make that
        // visible instead of silently discarding it.
        if let Some(accept) = self.accept.take() {
            join_noting_panic(accept, "accept");
        }
        for worker in self.workers.drain(..) {
            join_noting_panic(worker, "worker");
        }
        // Every admitted job has answered. Readers block in `read_frame`
        // with no timeout: shutting a socket down ends its reader's read
        // (and any write stuck on a peer that stopped reading).
        let conns =
            std::mem::take(&mut *self.shared.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for socket in conns.iter().filter_map(|conn| conn.socket.upgrade()) {
            // A socket the peer already closed may refuse; either way
            // its reader is done reading.
            let _ = socket.shutdown(Shutdown::Both);
        }
        for conn in conns {
            join_noting_panic(conn.reader, "reader");
        }
    }
}

fn join_noting_panic(handle: JoinHandle<()>, role: &str) {
    if handle.join().is_err() {
        eprintln!("hypart-server: {role} thread panicked");
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.workers.is_empty() {
            self.finish();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut next_conn_id = 0u64;
    loop {
        let accepted = listener.accept();
        if *shared.done.lock().unwrap_or_else(|e| e.into_inner()) {
            return;
        }
        let Ok((stream, _)) = accepted else {
            // Transient accept failure (e.g. fd pressure): back off
            // briefly instead of spinning.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        let conn_id = next_conn_id;
        next_conn_id += 1;
        let socket = Arc::new(stream);
        let weak = Arc::downgrade(&socket);
        let shared_conn = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name(format!("hypart-conn-{conn_id}"))
            .spawn(move || reader_loop(&socket, conn_id, &shared_conn));
        if let Ok(reader) = spawned {
            // An exited thread keeps its stack until it is joined: join
            // the readers whose connections have closed.
            let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            let (finished, live) = std::mem::take(&mut *conns)
                .into_iter()
                .partition(|conn| conn.reader.is_finished());
            *conns = live;
            conns.push(Conn {
                reader,
                socket: weak,
            });
            drop(conns);
            for conn in finished {
                join_noting_panic(conn.reader, "reader");
            }
        }
    }
}

/// Reads frames from one connection until EOF or error. Shutdown ends
/// the read by shutting the socket down.
fn reader_loop(socket: &TcpStream, conn_id: u64, shared: &Arc<Shared>) {
    // Without `TCP_NODELAY`, Nagle's algorithm would hold every response
    // frame for the client's delayed ACK (~40 ms each). Without the write
    // deadline, a peer that stops reading would block response writes
    // indefinitely; with it, the write fails, which poisons the writer
    // and feeds the `stream_aborted` accounting. A connection that
    // cannot have both is counted and refused.
    let writer = match socket
        .set_nodelay(true)
        .and_then(|()| socket.set_write_timeout(Some(WRITE_DEADLINE)))
        .and_then(|()| socket.try_clone())
    {
        Ok(w) => Arc::new(ConnWriter::new(w)),
        Err(_) => {
            shared.stats.io_failures.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    let mut reader = socket;
    loop {
        match read_frame(&mut reader, DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(frame)) => handle_frame(&frame, conn_id, &writer, shared),
            Ok(None) => break,
            Err(FrameError::BadJson(detail)) => {
                // The frame was fully consumed; the stream is still in
                // sync, so answer and keep serving.
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: None,
                    code: "parse".to_string(),
                    detail,
                });
            }
            Err(FrameError::TooLarge { declared, max }) => {
                // The payload was not consumed; the stream is
                // desynchronized beyond repair. Answer and hang up.
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: None,
                    code: "bad_request".to_string(),
                    detail: format!("frame of {declared} bytes exceeds cap of {max}"),
                });
                break;
            }
            Err(FrameError::Io(_)) => break,
        }
    }
    // Nobody is listening any more: cancel this connection's in-flight
    // jobs so workers stop computing for a dead peer — except durable
    // (token-stamped) jobs, whose result is still wanted: the client
    // advertised its intent to retry, and a resubmission on a fresh
    // connection will attach by token or replay the cached result. (At
    // shutdown the workers have drained before any socket is shut down,
    // so there is nothing left to cancel.)
    let mut cancels = shared.cancels.lock().unwrap_or_else(|e| e.into_inner());
    cancels.retain(|&(conn, _), (token, durable)| {
        if conn == conn_id && !*durable {
            token.cancel();
            false
        } else {
            true
        }
    });
}

fn handle_frame(
    frame: &hypart_trace::json::JsonValue,
    conn_id: u64,
    writer: &Arc<ConnWriter>,
    shared: &Arc<Shared>,
) {
    let request = match Request::from_json(frame) {
        Ok(request) => request,
        Err(detail) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            writer.send(&Response::Error {
                id: frame.get("id").and_then(|v| v.as_u64()),
                code: "bad_request".to_string(),
                detail,
            });
            return;
        }
    };
    match request {
        Request::Stats => {
            writer.send(&Response::Stats(shared.snapshot()));
        }
        Request::Ping => {
            writer.send(&Response::Pong(shared.health()));
        }
        Request::Shutdown => {
            writer.send(&Response::Bye);
            shared.begin_shutdown();
        }
        Request::Cancel { id } => {
            let cancels = shared.cancels.lock().unwrap_or_else(|e| e.into_inner());
            match cancels.get(&(conn_id, id)) {
                Some((token, _)) => {
                    token.cancel();
                    drop(cancels);
                    writer.send(&Response::Ok { id });
                }
                None => {
                    drop(cancels);
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    writer.send(&Response::Error {
                        id: Some(id),
                        code: "unknown_job".to_string(),
                        detail: "no in-flight job with this id on this connection".to_string(),
                    });
                }
            }
        }
        Request::Partition(req) => {
            let request_token = req.request_token;
            if !admit_token(request_token, req.id, writer, shared) {
                return;
            }
            let Some((h, digest)) = resolve_instance(&req.instance, req.id, writer, shared) else {
                abandon_token(request_token, shared);
                return;
            };
            let id = req.id;
            submit(
                Job {
                    conn_id,
                    id,
                    writer: Arc::clone(writer),
                    token: CancelToken::new(),
                    request_token,
                    kind: JobKind::Partition(req, h, digest),
                },
                shared,
            );
        }
        Request::Eval(req) => {
            let request_token = req.request_token;
            if !admit_token(request_token, req.id, writer, shared) {
                return;
            }
            let Some((h, digest)) = resolve_instance(&req.instance, req.id, writer, shared) else {
                abandon_token(request_token, shared);
                return;
            };
            if req.assignment.len() != h.num_vertices() {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: Some(req.id),
                    code: "bad_request".to_string(),
                    detail: format!(
                        "assignment has {} entries, instance has {} vertices",
                        req.assignment.len(),
                        h.num_vertices()
                    ),
                });
                abandon_token(request_token, shared);
                return;
            }
            if let Some(&p) = req.assignment.iter().find(|&&p| usize::from(p) >= req.k) {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: Some(req.id),
                    code: "bad_request".to_string(),
                    detail: format!("assignment uses part {p} but k = {}", req.k),
                });
                abandon_token(request_token, shared);
                return;
            }
            let id = req.id;
            submit(
                Job {
                    conn_id,
                    id,
                    writer: Arc::clone(writer),
                    token: CancelToken::new(),
                    request_token,
                    kind: JobKind::Eval(req, h, digest),
                },
                shared,
            );
        }
    }
}

/// Runs the idempotency check for a token-stamped submission. Returns
/// `true` when the job should proceed (fresh token, or no token at
/// all); `false` when it was deduplicated — the caller already got an
/// `Accepted` plus, for a completed token, the replayed result.
fn admit_token(
    request_token: Option<u64>,
    id: u64,
    writer: &Arc<ConnWriter>,
    shared: &Arc<Shared>,
) -> bool {
    let Some(token) = request_token else {
        return true;
    };
    match shared.tokens.admit(token, writer, id) {
        Admission::Fresh => true,
        Admission::Attached => {
            shared.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
            writer.send(&Response::Accepted { id });
            false
        }
        Admission::Replay(result) => {
            shared.stats.dedup_hits.fetch_add(1, Ordering::Relaxed);
            writer.send(&Response::Accepted { id });
            writer.send(&Response::Result { id, result });
            false
        }
    }
}

/// Releases a freshly admitted token whose job never made it into the
/// queue, answering any waiters that attached in the window so their
/// retries do not hang.
fn abandon_token(request_token: Option<u64>, shared: &Arc<Shared>) {
    if let Some(token) = request_token {
        for waiter in shared.tokens.abandon(token) {
            waiter.writer.send(&Response::Error {
                id: Some(waiter.id),
                code: "bad_request".to_string(),
                detail: "original submission with this token failed before running".to_string(),
            });
        }
    }
}

/// Turns an [`InstanceRef`] into a shared CSR + digest, answering the
/// client with a typed error on failure.
fn resolve_instance(
    instance: &InstanceRef,
    id: u64,
    writer: &Arc<ConnWriter>,
    shared: &Arc<Shared>,
) -> Option<(Arc<Hypergraph>, u128)> {
    match instance {
        InstanceRef::Digest(digest) => match shared.instances.get(digest) {
            Some(h) => Some((h, *digest)),
            None => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                writer.send(&Response::Error {
                    id: Some(id),
                    code: "unknown_instance".to_string(),
                    detail: "no cached instance with this digest; resend it inline".to_string(),
                });
                None
            }
        },
        InstanceRef::Inline(text) => {
            // Admission control: reject on the *declared* header counts
            // before paying for a parse of the full instance text. An
            // unparseable header falls through to the real parser's
            // error reporting.
            if shared.config.max_cells > 0 {
                if let Some((nets, vertices)) = declared_counts(text) {
                    let max = shared.config.max_cells as u64;
                    if nets > max || vertices > max {
                        shared
                            .stats
                            .rejected_too_large
                            .fetch_add(1, Ordering::Relaxed);
                        writer.send(&Response::Error {
                            id: Some(id),
                            code: "rejected_too_large".to_string(),
                            detail: format!(
                                "declared {nets} nets x {vertices} vertices exceeds \
                                 the admission limit of {max} cells"
                            ),
                        });
                        return None;
                    }
                }
            }
            match hgr::read(text.as_bytes()) {
                Ok(h) => {
                    let digest = h.content_digest();
                    let h = Arc::new(h);
                    shared.instances.insert(digest, Arc::clone(&h));
                    Some((h, digest))
                }
                Err(e) => {
                    shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                    writer.send(&Response::Error {
                        id: Some(id),
                        code: "parse".to_string(),
                        detail: format!("instance is not valid .hgr: {e}"),
                    });
                    None
                }
            }
        }
    }
}

/// Extracts the `(num_nets, num_vertices)` pair an `.hgr` header
/// declares, skipping `%` comment lines. `None` when the header is
/// absent or malformed (the real parser then produces the error).
fn declared_counts(text: &str) -> Option<(u64, u64)> {
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let nets = fields.next()?.parse().ok()?;
        let vertices = fields.next()?.parse().ok()?;
        return Some((nets, vertices));
    }
    None
}

/// Registers the job's cancellation token and admits it to the queue,
/// shedding with a typed `rejected` response when the queue is full.
fn submit(job: Job, shared: &Arc<Shared>) {
    let key = (job.conn_id, job.id);
    let writer = Arc::clone(&job.writer);
    let id = job.id;
    let request_token = job.request_token;
    shared
        .cancels
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(key, (job.token.clone(), request_token.is_some()));
    // Acknowledge before enqueueing: a worker may finish a queued job
    // almost instantly, and the `accepted` ack must never trail the
    // result on the wire — sequential clients rely on a deterministic
    // per-connection frame order. A full queue follows up with
    // `rejected`, which supersedes the ack.
    writer.send(&Response::Accepted { id });
    match shared.queue.try_push(job) {
        Ok(_) => {
            shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        }
        Err(full) => {
            shared
                .cancels
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&key);
            abandon_token(request_token, shared);
            shared
                .stats
                .rejected_overload
                .fetch_add(1, Ordering::Relaxed);
            let depth = if full.depth == usize::MAX {
                // Closed-queue sentinel: the daemon is shutting down.
                shared.queue.capacity()
            } else {
                full.depth
            };
            writer.send(&Response::Rejected {
                id,
                queue_depth: depth,
                queue_capacity: shared.queue.capacity(),
            });
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    // The FM workspace lives for the worker's lifetime: arenas grown by
    // one job are reused by the next, the same amortization the
    // multi-start drivers get within a single run. Coarsening arenas
    // live only as long as the hierarchy build that grows them.
    let mut ctx_template = RunCtx::new(0);
    while let Some(job) = shared.queue.pop() {
        if shared.config.worker_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(shared.config.worker_delay_ms));
        }
        run_job(&job, shared, &mut ctx_template);
    }
}

/// Runs one admitted job, forgets its cancel entry and answers it: a
/// result frame, or a typed error when no start of a 2-way job
/// survived. Jobs run under `ctx_template`'s FM workspace and fault plan.
fn run_job(job: &Job, shared: &Arc<Shared>, ctx_template: &mut RunCtx<'static>) {
    let result = match &job.kind {
        JobKind::Eval(req, h, digest) => Ok(eval_job(req, h, *digest)),
        JobKind::Partition(req, h, digest) => {
            partition_job(req, h, *digest, job, shared, ctx_template)
        }
    };
    shared
        .cancels
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&(job.conn_id, job.id));
    let result = match result {
        Ok(result) => result,
        Err(all) => {
            // No start survived, so there is no partition to cache
            // for replay: the job and any retries attached to its
            // token get the same typed error.
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            let error = |id| Response::Error {
                id: Some(id),
                code: "engine_panicked".to_string(),
                detail: all.to_string(),
            };
            job.writer.send(&error(job.id));
            if let Some(token) = job.request_token {
                for waiter in shared.tokens.abandon(token) {
                    waiter.writer.send(&error(waiter.id));
                }
            }
            return;
        }
    };
    // Cache the result for idempotent replay *before* attempting
    // delivery — a retry after a poisoned primary stream is exactly
    // the case replay exists for.
    let waiters = match job.request_token {
        Some(token) => shared.tokens.complete(token, result.clone()),
        None => Vec::new(),
    };
    let delivered = !job.writer.is_poisoned()
        && job.writer.send(&Response::Result {
            id: job.id,
            result: result.clone(),
        });
    if delivered {
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    } else {
        // The connection writer poisoned mid-job (satellite of
        // `JsonlSink::is_poisoned`): the trace the client saw is
        // truncated, so the job is reported as aborted — the typed
        // error below is best-effort (the writer usually being the
        // very thing that failed).
        shared.stats.stream_aborted.fetch_add(1, Ordering::Relaxed);
        job.writer.send(&Response::Error {
            id: Some(job.id),
            code: "stream_poisoned".to_string(),
            detail: "response stream failed mid-job; job aborted".to_string(),
        });
    }
    for waiter in waiters {
        waiter.writer.send(&Response::Result {
            id: waiter.id,
            result: result.clone(),
        });
    }
}

/// Scores an assignment with the k-way objective. The reader has already
/// refused a wrong length or an out-of-range part as `bad_request`, and
/// `.hgr` input carries no fixed cells, so [`KWayPartition::new`]'s
/// preconditions hold.
fn eval_job(req: &EvalRequest, h: &Hypergraph, digest: u128) -> JobResult {
    let partition = KWayPartition::new(h, req.k, req.assignment.clone());
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), req.k, req.fraction);
    JobResult {
        cut: partition.cut(),
        balanced: balance.is_satisfied(&partition),
        stopped: StopReason::Completed,
        audit_clean: true,
        hierarchy_reused: false,
        levels: 0,
        starts: 0,
        digest,
        assignment: None,
    }
}

fn partition_job(
    req: &PartitionRequest,
    h: &Hypergraph,
    digest: u128,
    job: &Job,
    shared: &Arc<Shared>,
    ctx_template: &mut RunCtx<'static>,
) -> Result<JobResult, AllPanicked> {
    let sink = StreamSink {
        writer: Arc::clone(&job.writer),
        id: req.id,
        token: job.token.clone(),
        enabled: req.trace,
        durable: job.request_token.is_some(),
        batch: RefCell::default(),
    };
    // Move the worker's long-lived FM workspace into this job's context
    // and reclaim it afterwards.
    let workspace = std::mem::take(&mut ctx_template.workspace);
    let mut ctx = RunCtx::new(req.seed)
        .with_sink(&sink)
        .with_cancel_token(job.token.clone())
        .with_audit(AuditLevel::Checkpoints)
        .with_fault_plan(ctx_template.fault_plan().clone())
        .with_workspace(workspace);
    if let Some(ms) = req.budget_ms {
        ctx = ctx.with_budget(Duration::from_millis(ms));
    }

    let result = if req.k == 2 {
        bisection_job(req, h, digest, shared, &mut ctx)
    } else {
        Ok(kway_job(req, h, digest, &shared.config.ml, &mut ctx))
    };
    sink.flush();
    ctx_template.workspace = std::mem::take(&mut ctx.workspace);
    result
}

/// 2-way jobs run the two halves of [`MlPartitioner::run_with`] apart so
/// the hierarchy cache applies: build (or reuse) the coarsening
/// hierarchy, then partition from it. An unbudgeted job therefore
/// returns the partition `run_with` returns for the same seed. A cache
/// hit is announced with one `hierarchy_reused` trace event and then
/// replays bitwise the trace of a cold run — the determinism contract of
/// [`MlPartitioner::run_from_hierarchy_with`]. A job whose every start
/// panicked has no partition and returns the sweep's [`AllPanicked`].
fn bisection_job(
    req: &PartitionRequest,
    h: &Hypergraph,
    digest: u128,
    shared: &Arc<Shared>,
    ctx: &mut RunCtx<'_>,
) -> Result<JobResult, AllPanicked> {
    let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), req.fraction);
    let partitioner = MlPartitioner::new(shared.config.ml.clone());
    let key = HierarchyKey::new(digest, &shared.config.ml.coarsen, req.seed);
    let (hierarchy, reused) = match shared.hierarchies.get(&key) {
        Some(hierarchy) => (hierarchy, true),
        None => {
            let hierarchy = partitioner.coarsen_hierarchy_with(h, ctx).into_shared();
            shared.hierarchies.insert(key, Arc::clone(&hierarchy));
            (hierarchy, false)
        }
    };
    if reused {
        ctx.sink.emit(RunEvent::HierarchyReused {
            levels: hierarchy.len(),
        });
    }
    // A counted sweep of one start opens no brackets and runs start 0 at
    // `ctx.seed`, so its trace is the bare `run_from_hierarchy_with` one.
    let starts = if req.budget_ms.is_some() {
        MultiStartPlan::until_budget()
    } else {
        MultiStartPlan::count(1, 0)
    };
    let plan = MultiStartPlan {
        hierarchy: Some(&hierarchy),
        ..starts
    };
    let swept = multi_start_with(&partitioner, h, &constraint, &plan, ctx)?;
    let out = &swept.outcome;
    Ok(JobResult {
        cut: out.cut,
        balanced: out.balanced,
        stopped: out.stopped,
        audit_clean: out.audit_failure.is_none(),
        hierarchy_reused: reused,
        levels: hierarchy.len(),
        starts: swept.trials.len() + swept.panicked.len(),
        digest,
        assignment: req
            .include_assignment
            .then(|| part_assignment(&out.assignment)),
    })
}

/// `k > 2` jobs go through recursive bisection; hierarchies differ per
/// induced subregion, so only the instance cache applies.
fn kway_job(
    req: &PartitionRequest,
    h: &Hypergraph,
    digest: u128,
    ml: &MlConfig,
    ctx: &mut RunCtx<'_>,
) -> JobResult {
    let out = recursive_bisection_with(h, req.k, req.fraction, ml, ctx);
    let balance = KWayBalance::with_fraction(h.total_vertex_weight(), req.k, req.fraction);
    JobResult {
        cut: out.cut,
        balanced: out.is_balanced(&balance),
        stopped: out.stopped,
        audit_clean: out.audit_failure.is_none(),
        hierarchy_reused: false,
        levels: 0,
        starts: 1,
        digest,
        assignment: req.include_assignment.then(|| out.assignment.clone()),
    }
}

fn part_assignment(assignment: &[PartId]) -> Vec<u16> {
    assignment
        .iter()
        .map(|&p| match p {
            PartId::P0 => 0,
            PartId::P1 => 1,
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::protocol::write_frame;
    use hypart_benchgen::ispd98_like;
    use hypart_core::FaultPlan;
    use hypart_trace::MemorySink;

    /// A writer that records every `write` call whole, or fails them all
    /// once `fail` is set.
    #[derive(Clone, Default)]
    struct Recorder {
        writes: Arc<Mutex<Vec<Vec<u8>>>>,
        attempts: Arc<AtomicU64>,
        fail: Arc<AtomicBool>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            if self.fail.load(Ordering::Relaxed) {
                return Err(std::io::Error::other("injected write failure"));
            }
            self.writes.lock().unwrap().push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Recorder {
        fn writes(&self) -> Vec<Vec<u8>> {
            self.writes.lock().unwrap().clone()
        }
    }

    fn sink(recorder: &Recorder, durable: bool) -> StreamSink<Recorder> {
        StreamSink {
            writer: Arc::new(ConnWriter::new(recorder.clone())),
            id: 7,
            token: CancelToken::new(),
            enabled: true,
            durable,
            batch: RefCell::default(),
        }
    }

    /// The events as one `write_frame` each: the bytes a batch must equal.
    fn unbatched(id: u64, events: &[RunEvent]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for event in events {
            let response = Response::Event {
                id,
                event: event.clone(),
            };
            write_frame(&mut bytes, &response.to_json()).unwrap();
        }
        bytes
    }

    fn moves(n: u64) -> Vec<RunEvent> {
        (0..n)
            .map(|i| RunEvent::Move {
                vertex: i,
                gain: 1 - (i % 3) as i64,
                cut: 500 + i,
            })
            .collect()
    }

    #[test]
    fn moves_leave_with_the_next_other_event_in_one_write() {
        let recorder = Recorder::default();
        let sink = sink(&recorder, false);
        let mut events = moves(1_000);
        events.push(RunEvent::Rollback {
            vertex: 3,
            cut: 501,
        });
        for event in &events {
            sink.emit(event.clone());
        }
        assert!(recorder.writes().is_empty(), "per-move frames must wait");
        let pass_end = RunEvent::PassEnd {
            pass: 0,
            cut: 480,
            moves_made: 1_000,
            moves_rolled_back: 1,
            leftovers: true,
            corked: false,
        };
        sink.emit(pass_end.clone());
        events.push(pass_end);
        assert_eq!(recorder.writes(), vec![unbatched(7, &events)]);
    }

    #[test]
    fn other_events_are_written_at_once() {
        let recorder = Recorder::default();
        let sink = sink(&recorder, false);
        let others = [
            RunEvent::RunBegin { cut: 500 },
            RunEvent::PassBegin {
                pass: 0,
                cut: 500,
                eligible: 120,
            },
            RunEvent::LevelUp {
                level: 0,
                vertices: 120,
                nets: 140,
            },
            RunEvent::HierarchyReused { levels: 4 },
            RunEvent::UncontractionBegin { contractions: 100 },
            RunEvent::BudgetExhausted {
                reason: StopReason::Deadline,
            },
            RunEvent::InvariantViolation {
                check: "cut".into(),
                detail: "reported 300, recomputed 301".into(),
            },
        ];
        for (i, event) in others.iter().enumerate() {
            sink.emit(event.clone());
            let writes = recorder.writes();
            assert_eq!(writes.len(), i + 1, "{} must not wait", event.kind());
            assert_eq!(writes[i], unbatched(7, std::slice::from_ref(event)));
        }
    }

    #[test]
    fn a_cap_of_moves_is_written_without_waiting() {
        let recorder = Recorder::default();
        let sink = sink(&recorder, false);
        let events = moves(3_000);
        let mut emitted = 0;
        for event in &events {
            sink.emit(event.clone());
            emitted += 1;
            if !recorder.writes().is_empty() {
                break;
            }
        }
        let writes = recorder.writes();
        assert_eq!(writes.len(), 1, "the cap was never reached");
        assert!(writes[0].len() >= STREAM_BATCH_BYTES);
        assert_eq!(writes[0], unbatched(7, &events[..emitted]));
        // The frame that crossed the cap is the last one in the write.
        assert!(unbatched(7, &events[..emitted - 1]).len() < STREAM_BATCH_BYTES);
    }

    #[test]
    fn a_poisoned_writer_stops_encoding_and_cancels_the_job() {
        for durable in [false, true] {
            let recorder = Recorder::default();
            let sink = sink(&recorder, durable);
            for event in moves(10) {
                sink.emit(event);
            }
            recorder.fail.store(true, Ordering::Relaxed);
            sink.emit(RunEvent::RunBegin { cut: 1 });
            assert!(sink.writer.is_poisoned());
            assert_eq!(recorder.attempts.load(Ordering::Relaxed), 1);
            // Only a non-durable job is cancelled; a durable one keeps
            // computing for a client that re-attaches by token.
            assert_eq!(sink.token.is_cancelled(), !durable);
            for event in moves(5)
                .into_iter()
                .chain([RunEvent::RunEnd { cut: 1, passes: 1 }])
            {
                sink.emit(event);
                assert!(sink.batch.borrow().is_empty(), "nothing is encoded");
            }
            sink.flush();
            assert_eq!(recorder.attempts.load(Ordering::Relaxed), 1);
            assert!(recorder.writes().is_empty());
            assert_eq!(sink.token.is_cancelled(), !durable);
        }
    }

    /// Runs one traced 2-way job through a sink over a recording writer,
    /// as the worker does: engine, flush, result frame. Returns the
    /// writes and the job's events from an unstreamed rerun.
    fn traced_job() -> (Vec<Vec<u8>>, Vec<RunEvent>, Vec<u8>) {
        let h = ispd98_like(1, 0.05, 1);
        let constraint = BalanceConstraint::with_fraction(h.total_vertex_weight(), 0.1);
        let partitioner = MlPartitioner::new(MlConfig::default());
        let recorder = Recorder::default();
        let sink = sink(&recorder, false);
        let out = partitioner.run_with(&h, &constraint, &mut RunCtx::new(1).with_sink(&sink));
        sink.flush();
        let levels = partitioner
            .coarsen_hierarchy_with(&h, &mut RunCtx::new(1))
            .len();
        let result = Response::Result {
            id: 7,
            result: JobResult {
                cut: out.cut,
                balanced: out.balanced,
                stopped: out.stopped,
                audit_clean: true,
                hierarchy_reused: false,
                levels,
                starts: 1,
                digest: 0,
                assignment: None,
            },
        };
        assert!(sink.writer.send(&result));
        let memory = MemorySink::new();
        partitioner.run_with(&h, &constraint, &mut RunCtx::new(1).with_sink(&memory));
        let mut expected = unbatched(7, &memory.events());
        write_frame(&mut expected, &result.to_json()).unwrap();
        (recorder.writes(), memory.take(), expected)
    }

    #[test]
    fn a_traced_job_streams_the_same_bytes_in_few_writes() {
        let (writes, events, expected) = traced_job();
        assert_eq!(writes.concat(), expected, "bytes changed");
        let others = events
            .iter()
            .filter(|e| !matches!(e, RunEvent::Move { .. } | RunEvent::Rollback { .. }))
            .count();
        let stream_bytes = unbatched(7, &events).len();
        let bound = others + stream_bytes.div_ceil(STREAM_BATCH_BYTES) + 1;
        assert!(
            writes.len() <= bound,
            "{} writes for {} events, bound {bound}",
            writes.len(),
            events.len()
        );
        // Far fewer writes than frames.
        assert!(events.len() >= 10 * writes.len());
    }

    /// A 2-way job whose every start panicked is answered with a typed
    /// `engine_panicked` error naming the first payload, leaves no
    /// cancel entry behind, and the worker goes on to the next job.
    #[test]
    fn a_two_way_job_whose_every_start_panicked_gets_a_typed_error() {
        let server = Server::start(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let writer = Arc::new(ConnWriter::new(listener.accept().unwrap().0));
        let h = Arc::new(ispd98_like(1, 0.02, 1));
        let job = |id: u64, kind: JobKind| {
            let token = CancelToken::new();
            let entry = (token.clone(), false);
            shared.cancels.lock().unwrap().insert((0, id), entry);
            Job {
                conn_id: 0,
                id,
                writer: Arc::clone(&writer),
                token,
                request_token: None,
                kind,
            }
        };
        // An unbudgeted 2-way job runs one start: start 0.
        let mut template = RunCtx::new(0).with_fault_plan(FaultPlan::panic_in_start(0));
        let request = PartitionRequest::new(1, InstanceRef::Digest(0), 5);
        let partition = job(1, JobKind::Partition(request, Arc::clone(&h), 0));
        run_job(&partition, shared, &mut template);
        let eval = EvalRequest {
            id: 2,
            instance: InstanceRef::Digest(0),
            assignment: vec![0; h.num_vertices()],
            k: 2,
            fraction: 0.1,
            request_token: None,
        };
        run_job(
            &job(2, JobKind::Eval(eval, Arc::clone(&h), 0)),
            shared,
            &mut template,
        );

        let mut next = || {
            let frame = read_frame(&mut client, DEFAULT_MAX_FRAME_BYTES).unwrap();
            Response::from_json(&frame.unwrap()).unwrap()
        };
        match next() {
            Response::Error {
                id: Some(1),
                code,
                detail,
            } => {
                assert_eq!(code, "engine_panicked");
                assert!(
                    detail.contains("injected fault: panic in start 0"),
                    "{detail}"
                );
            }
            other => panic!("expected a typed error, got {other:?}"),
        }
        assert!(matches!(next(), Response::Result { id: 2, .. }));
        assert!(shared.cancels.lock().unwrap().is_empty());
        assert_eq!(shared.stats.errors.load(Ordering::Relaxed), 1);
        server.shutdown();
    }

    #[test]
    fn finished_readers_are_joined_at_the_next_accept() {
        let server = Server::start(ServerConfig::default()).unwrap();
        for _ in 0..200 {
            crate::Client::connect(server.local_addr())
                .unwrap()
                .ping()
                .unwrap();
        }
        let conns = || server.shared.conns.lock().unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        // Every reader sees its peer hang up and exits...
        while conns().iter().any(|conn| !conn.reader.is_finished()) {
            assert!(Instant::now() < deadline, "a reader outlived its peer");
            std::thread::sleep(Duration::from_millis(5));
        }
        // ...and the next accept joins them all.
        let mut client = crate::Client::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        while conns().len() > 1 {
            let left = conns().len();
            assert!(Instant::now() < deadline, "{left} reader handles left");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(client);
        server.shutdown();
    }
}
