//! Wire protocol of the partitioning service.
//!
//! Frames are length-prefixed JSON: a big-endian `u32` byte length
//! followed by exactly that many bytes of UTF-8 JSON (one value per
//! frame — "JSONL over a socket", with the length prefix standing in for
//! the newline so payloads may contain any text). Requests carry an
//! `"op"` discriminator, responses a `"reply"` discriminator; job-scoped
//! messages echo the client-chosen `"id"` so responses of concurrent
//! jobs can interleave on one connection and be demultiplexed by the
//! client.
//!
//! All numbers travel as JSON numbers (f64), which round-trip integers
//! up to [`MAX_WIRE_INT`]; the 128-bit instance digest therefore travels
//! as a 32-digit lowercase hex *string*.

use std::io::{Read, Write};

use hypart_trace::json::{self, JsonValue};
use hypart_trace::{RunEvent, StopReason};

/// Default cap on a single frame's payload size (64 MiB — inline `.hgr`
/// instances of millions of pins fit; a corrupt length prefix does not
/// allocate unboundedly).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// Largest integer a JSON number (f64) carries exactly, 2^53 − 1. A
/// larger `id`, `seed` or `token` would reach the daemon rounded, so
/// [`Request::from_json`] refuses one, naming the field.
pub const MAX_WIRE_INT: u64 = (1 << 53) - 1;

/// A framing or decoding failure while reading one frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket read failed (including timeouts).
    Io(std::io::Error),
    /// The length prefix exceeds the configured cap.
    TooLarge {
        /// Declared payload length.
        declared: usize,
        /// Configured cap.
        max: usize,
    },
    /// The payload was not valid JSON.
    BadJson(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds cap of {max}")
            }
            FrameError::BadJson(e) => write!(f, "frame payload is not valid JSON: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: big-endian `u32` length, then the serialized JSON.
///
/// Prefix and payload go out in a single `write_all`. Two writes on a
/// TCP socket put the payload behind the prefix's unacknowledged
/// segment (Nagle), and the peer's delayed ACK then holds every frame
/// for ~40 ms on Linux.
///
/// # Errors
///
/// Propagates the underlying write failure; a value serializing to more
/// than `u32::MAX` bytes is rejected without writing.
pub fn write_frame<W: Write>(writer: &mut W, value: &JsonValue) -> std::io::Result<()> {
    let mut frame = Vec::new();
    encode_value_frame(&mut frame, value)?;
    writer.write_all(&frame)?;
    writer.flush()
}

/// Appends one frame holding `value` to `out`.
pub(crate) fn encode_value_frame(out: &mut Vec<u8>, value: &JsonValue) -> std::io::Result<()> {
    encode_frame(out, |payload| write!(payload, "{value}"))
}

/// Appends one `event` frame to `out`: the bytes of [`write_frame`] of
/// `Response::Event { id, event }.to_json()`, written by
/// [`RunEvent::write_json`] without building the JSON tree.
pub(crate) fn encode_event_frame(
    out: &mut Vec<u8>,
    id: u64,
    event: &RunEvent,
) -> std::io::Result<()> {
    encode_frame(out, |payload| {
        payload.extend_from_slice(b"{\"event\":");
        event.write_json(payload);
        payload.extend_from_slice(b",\"id\":");
        json::push_number(payload, id as f64);
        payload.extend_from_slice(b",\"reply\":\"event\"}");
        Ok(())
    })
}

/// The one framing function: appends a big-endian `u32` length prefix
/// and the payload `encode` appends after it. A payload longer than
/// `u32::MAX` bytes is an error and leaves `out` as it was.
fn encode_frame(
    out: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    let len = encode(out).and_then(|()| {
        u32::try_from(out.len() - start - 4)
            .map_err(|_| std::io::Error::other("frame payload exceeds u32 length prefix"))
    });
    match len {
        Ok(len) => {
            out[start..start + 4].copy_from_slice(&len.to_be_bytes());
            Ok(())
        }
        Err(e) => {
            out.truncate(start);
            Err(e)
        }
    }
}

/// Reads one frame. Returns `Ok(None)` on clean end-of-stream at a frame
/// boundary (the peer closed the connection between frames).
///
/// A read timeout is a `FrameError::Io` of the timeout's kind wherever
/// it strikes, before a frame or inside one: a reader whose peer stops
/// mid-frame hears about it when its timeout runs out.
///
/// A frame that arrives whole costs two `read` calls: the first asks for
/// the entire length prefix, the second for the entire payload.
///
/// # Errors
///
/// I/O failures, an oversized length prefix, or an unparsable payload
/// (including one nested deeper than
/// [`MAX_NESTING`](hypart_trace::json::MAX_NESTING)).
pub fn read_frame<R: Read>(
    reader: &mut R,
    max_bytes: usize,
) -> Result<Option<JsonValue>, FrameError> {
    let mut len_buf = [0u8; 4];
    // First read: the only place where EOF is clean.
    let got = loop {
        match reader.read(&mut len_buf) {
            Ok(0) => return Ok(None),
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    };
    reader.read_exact(&mut len_buf[got..])?;
    let declared = u32::from_be_bytes(len_buf) as usize;
    if declared > max_bytes {
        return Err(FrameError::TooLarge {
            declared,
            max: max_bytes,
        });
    }
    let mut payload = vec![0u8; declared];
    reader.read_exact(&mut payload)?;
    let text = String::from_utf8(payload)
        .map_err(|e| FrameError::BadJson(format!("payload is not UTF-8: {e}")))?;
    JsonValue::parse(&text)
        .map(Some)
        .map_err(FrameError::BadJson)
}

/// Renders a 128-bit instance digest as the wire format (32 lowercase
/// hex digits).
pub fn digest_to_hex(digest: u128) -> String {
    format!("{digest:032x}")
}

/// Parses the wire digest format back.
///
/// # Errors
///
/// Anything but 1–32 hex digits.
pub fn digest_from_hex(s: &str) -> Result<u128, String> {
    if s.is_empty() || s.len() > 32 {
        return Err(format!("digest must be 1-32 hex digits, got {:?}", s.len()));
    }
    u128::from_str_radix(s, 16).map_err(|e| format!("bad digest {s:?}: {e}"))
}

/// How a job names its hypergraph instance.
#[derive(Clone, Debug, PartialEq)]
pub enum InstanceRef {
    /// The full instance inline, as `.hgr` text. The server parses it,
    /// registers the CSR in the instance cache under its content digest,
    /// and returns the digest with the result.
    Inline(String),
    /// A content digest of an instance some earlier request already
    /// uploaded. Skips parsing entirely; unknown digests are rejected
    /// with a typed `unknown_instance` error.
    Digest(u128),
}

/// A partition job request. Every job runs the daemon's one multilevel
/// engine, [`ServerConfig::ml`](crate::ServerConfig::ml); a frame that
/// names an `engine` is refused as a bad request.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionRequest {
    /// Client-chosen job id, echoed on every response for this job.
    pub id: u64,
    /// The instance to partition.
    pub instance: InstanceRef,
    /// Number of parts in [2, 4096] (above 2 via recursive bisection).
    pub k: usize,
    /// Balance tolerance fraction (e.g. `0.1` = each side within ±10 %).
    pub fraction: f64,
    /// Seed; jobs are deterministic functions of
    /// `(instance, k, fraction, seed, budget?)` modulo wall-clock start
    /// counts under a budget.
    pub seed: u64,
    /// Wall-clock budget in milliseconds, mapped to the `RunCtx`
    /// deadline; `None` runs a single unbudgeted start.
    pub budget_ms: Option<u64>,
    /// Stream `RunEvent` frames for this job back to the client.
    pub trace: bool,
    /// Include the full assignment vector in the result frame.
    pub include_assignment: bool,
    /// Idempotency token. A retried submission carrying the same token
    /// re-attaches to the in-flight job or replays the cached outcome
    /// instead of recomputing; `None` (the wire default — omitted from
    /// frames, so pre-token clients and golden frames are unchanged)
    /// disables deduplication for this job.
    pub request_token: Option<u64>,
}

impl PartitionRequest {
    /// A 2-way request with the common defaults (no budget, no trace,
    /// no assignment payload).
    pub fn new(id: u64, instance: InstanceRef, seed: u64) -> Self {
        PartitionRequest {
            id,
            instance,
            k: 2,
            fraction: 0.1,
            seed,
            budget_ms: None,
            trace: false,
            include_assignment: false,
            request_token: None,
        }
    }

    /// Serializes to the wire object (`"op": "partition"`).
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("op", JsonValue::string("partition")),
            ("id", (self.id).into()),
            ("k", (self.k).into()),
            ("fraction", self.fraction.into()),
            ("seed", (self.seed).into()),
            ("trace", self.trace.into()),
            ("include_assignment", self.include_assignment.into()),
        ];
        match &self.instance {
            InstanceRef::Inline(text) => pairs.push(("hgr", JsonValue::string(text.clone()))),
            InstanceRef::Digest(d) => pairs.push(("digest", JsonValue::string(digest_to_hex(*d)))),
        }
        if let Some(ms) = self.budget_ms {
            pairs.push(("budget_ms", ms.into()));
        }
        if let Some(token) = self.request_token {
            pairs.push(("token", token.into()));
        }
        JsonValue::object(pairs)
    }
}

/// An eval job request: score an existing assignment on an instance
/// (cut, balance, per-part weights) without running any engine.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalRequest {
    /// Client-chosen job id.
    pub id: u64,
    /// The instance to evaluate on.
    pub instance: InstanceRef,
    /// Part index per vertex.
    pub assignment: Vec<u16>,
    /// Number of parts the assignment uses.
    pub k: usize,
    /// Balance tolerance fraction.
    pub fraction: f64,
    /// Idempotency token; same semantics as
    /// [`PartitionRequest::request_token`].
    pub request_token: Option<u64>,
}

impl EvalRequest {
    /// Serializes to the wire object (`"op": "eval"`).
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("op", JsonValue::string("eval")),
            ("id", (self.id).into()),
            ("k", (self.k).into()),
            ("fraction", self.fraction.into()),
            (
                "assignment",
                JsonValue::array(self.assignment.iter().map(|&p| usize::from(p).into())),
            ),
        ];
        match &self.instance {
            InstanceRef::Inline(text) => pairs.push(("hgr", JsonValue::string(text.clone()))),
            InstanceRef::Digest(d) => pairs.push(("digest", JsonValue::string(digest_to_hex(*d)))),
        }
        if let Some(token) = self.request_token {
            pairs.push(("token", token.into()));
        }
        JsonValue::object(pairs)
    }
}

/// Any request the daemon accepts.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Partition an instance.
    Partition(PartitionRequest),
    /// Evaluate an assignment.
    Eval(EvalRequest),
    /// Cancel a job previously submitted *on this connection*.
    Cancel {
        /// Job id to cancel.
        id: u64,
    },
    /// Snapshot the server's counters.
    Stats,
    /// Liveness/readiness probe: answered inline by the reader thread
    /// (never queued), so a `pong` proves the daemon is accepting and
    /// parsing frames even when every worker is busy.
    Ping,
    /// Gracefully shut the daemon down.
    Shutdown,
}

impl Request {
    /// Serializes to the wire object.
    pub fn to_json(&self) -> JsonValue {
        match self {
            Request::Partition(r) => r.to_json(),
            Request::Eval(r) => r.to_json(),
            Request::Cancel { id } => {
                JsonValue::object([("op", JsonValue::string("cancel")), ("id", (*id).into())])
            }
            Request::Stats => JsonValue::object([("op", JsonValue::string("stats"))]),
            Request::Ping => JsonValue::object([("op", JsonValue::string("ping"))]),
            Request::Shutdown => JsonValue::object([("op", JsonValue::string("shutdown"))]),
        }
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing or ill-typed field.
    pub fn from_json(v: &JsonValue) -> Result<Request, String> {
        let op = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field `op`")?;
        // An integer field: `None` when absent, an error naming the field
        // when it is not an integer in [0, MAX_WIRE_INT] (a larger one
        // arrived already rounded, so its exact value is lost).
        let int = |key: &str| -> Result<Option<u64>, String> {
            v.get(key)
                .map(|x| {
                    x.as_u64().filter(|&n| n <= MAX_WIRE_INT).ok_or_else(|| {
                        format!("{op}: `{key}` must be an integer in [0, {MAX_WIRE_INT}]")
                    })
                })
                .transpose()
        };
        // A bool field: `false` when absent, an error naming the field
        // when it is anything but `true` or `false` (`null` included).
        let flag = |key: &str| -> Result<bool, String> {
            v.get(key).map_or(Ok(false), |x| {
                x.as_bool()
                    .ok_or_else(|| format!("{op}: `{key}` must be a bool"))
            })
        };
        let id = || -> Result<u64, String> {
            int("id")?.ok_or_else(|| format!("{op}: missing u64 field `id`"))
        };
        let instance = || -> Result<InstanceRef, String> {
            match (
                v.get("hgr").and_then(JsonValue::as_str),
                v.get("digest").and_then(JsonValue::as_str),
            ) {
                (Some(text), None) => Ok(InstanceRef::Inline(text.to_string())),
                (None, Some(hex)) => Ok(InstanceRef::Digest(digest_from_hex(hex)?)),
                (Some(_), Some(_)) => Err(format!("{op}: give `hgr` or `digest`, not both")),
                (None, None) => Err(format!("{op}: missing `hgr` or `digest`")),
            }
        };
        let fraction = || -> Result<f64, String> {
            match v.get("fraction") {
                None => Ok(0.1),
                Some(x) => x
                    .as_f64()
                    .filter(|f| f.is_finite() && (0.0..=1.0).contains(f))
                    .ok_or_else(|| format!("{op}: `fraction` must be a number in [0, 1]")),
            }
        };
        let k = || -> Result<usize, String> {
            match v.get("k") {
                None => Ok(2),
                Some(x) => x
                    .as_u64()
                    .map(|k| k as usize)
                    .filter(|&k| (2..=1 << 12).contains(&k))
                    .ok_or_else(|| format!("{op}: `k` must be an integer in [2, 4096]")),
            }
        };
        match op {
            // Running the default engine for a frame that names another
            // would answer a different request than the one sent.
            "partition" if v.get("engine").is_some() => Err(
                "partition: `engine` is not accepted; every job runs the multilevel engine"
                    .to_string(),
            ),
            "partition" => Ok(Request::Partition(PartitionRequest {
                id: id()?,
                instance: instance()?,
                k: k()?,
                fraction: fraction()?,
                seed: int("seed")?.unwrap_or(0),
                budget_ms: match v.get("budget_ms") {
                    None => None,
                    Some(x) => Some(
                        x.as_u64()
                            .ok_or("partition: `budget_ms` must be a u64".to_string())?,
                    ),
                },
                trace: flag("trace")?,
                include_assignment: flag("include_assignment")?,
                request_token: int("token")?,
            })),
            "eval" => {
                let assignment = match v.get("assignment") {
                    Some(JsonValue::Array(items)) => items
                        .iter()
                        .map(|x| {
                            x.as_u64()
                                .filter(|&p| p <= u64::from(u16::MAX))
                                .map(|p| p as u16)
                                .ok_or("eval: `assignment` entries must be u16".to_string())
                        })
                        .collect::<Result<Vec<u16>, String>>()?,
                    _ => return Err("eval: missing array field `assignment`".to_string()),
                };
                Ok(Request::Eval(EvalRequest {
                    id: id()?,
                    instance: instance()?,
                    assignment,
                    k: k()?,
                    fraction: fraction()?,
                    request_token: int("token")?,
                }))
            }
            "cancel" => Ok(Request::Cancel { id: id()? }),
            "stats" => Ok(Request::Stats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// The result payload of a finished job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// Weighted cut of the reported solution.
    pub cut: u64,
    /// Whether the solution satisfies the balance constraint.
    pub balanced: bool,
    /// Why the job ended (`completed`, `deadline`, `cancelled`).
    pub stopped: StopReason,
    /// `true` when the run's audit checkpoints found no invariant
    /// violation (jobs always run with auditing enabled).
    pub audit_clean: bool,
    /// `true` when the job reused a cached coarsening hierarchy (also
    /// observable as a leading `hierarchy_reused` trace event).
    pub hierarchy_reused: bool,
    /// Number of coarsening levels used (0 for eval jobs).
    pub levels: usize,
    /// Number of starts launched (budgeted sweeps launch several; plain
    /// jobs launch 1; eval jobs 0).
    pub starts: usize,
    /// Content digest of the instance, so follow-up requests can submit
    /// by digest instead of re-uploading.
    pub digest: u128,
    /// The assignment, when the request asked for it.
    pub assignment: Option<Vec<u16>>,
}

impl JobResult {
    fn to_json(&self, id: u64) -> JsonValue {
        let mut pairs = vec![
            ("reply", JsonValue::string("result")),
            ("id", id.into()),
            ("cut", self.cut.into()),
            ("balanced", self.balanced.into()),
            ("stopped", JsonValue::string(self.stopped.name())),
            ("audit_clean", self.audit_clean.into()),
            ("hierarchy_reused", self.hierarchy_reused.into()),
            ("levels", self.levels.into()),
            ("starts", self.starts.into()),
            ("digest", JsonValue::string(digest_to_hex(self.digest))),
        ];
        if let Some(assignment) = &self.assignment {
            pairs.push((
                "assignment",
                JsonValue::array(assignment.iter().map(|&p| usize::from(p).into())),
            ));
        }
        JsonValue::object(pairs)
    }

    fn from_json(v: &JsonValue) -> Result<JobResult, String> {
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("result: missing u64 `{key}`"))
        };
        let b = |key: &str| -> Result<bool, String> {
            v.get(key)
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| format!("result: missing bool `{key}`"))
        };
        Ok(JobResult {
            cut: u("cut")?,
            balanced: b("balanced")?,
            stopped: StopReason::parse(
                v.get("stopped")
                    .and_then(JsonValue::as_str)
                    .ok_or("result: missing string `stopped`")?,
            )?,
            audit_clean: b("audit_clean")?,
            hierarchy_reused: b("hierarchy_reused")?,
            levels: u("levels")? as usize,
            starts: u("starts")? as usize,
            digest: digest_from_hex(
                v.get("digest")
                    .and_then(JsonValue::as_str)
                    .ok_or("result: missing string `digest`")?,
            )?,
            assignment: match v.get("assignment") {
                None => None,
                Some(JsonValue::Array(items)) => Some(
                    items
                        .iter()
                        .map(|x| {
                            x.as_u64()
                                .filter(|&p| p <= u64::from(u16::MAX))
                                .map(|p| p as u16)
                                .ok_or("result: `assignment` entries must be u16".to_string())
                        })
                        .collect::<Result<Vec<u16>, String>>()?,
                ),
                Some(_) => return Err("result: `assignment` must be an array".to_string()),
            },
        })
    }
}

/// A snapshot of the daemon's counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jobs accepted onto the queue.
    pub submitted: u64,
    /// Jobs that finished and reported a result.
    pub completed: u64,
    /// Submissions shed with an `overloaded` rejection.
    pub rejected_overload: u64,
    /// Jobs whose trace/result stream failed mid-run (poisoned
    /// connection writer); the job was cancelled and counted here
    /// instead of streaming a silently truncated trace.
    pub stream_aborted: u64,
    /// Parse/validation errors answered with typed error frames.
    pub errors: u64,
    /// Inline instances rejected by declared-size admission control
    /// before parsing.
    pub rejected_too_large: u64,
    /// Retried submissions served by the idempotency layer (re-attached
    /// to an in-flight job or replayed from the completed-token cache)
    /// instead of recomputing.
    pub dedup_hits: u64,
    /// Connection-setup or socket-option failures (e.g. a write
    /// deadline that could not be installed); each one closes the
    /// affected connection instead of being silently dropped.
    pub io_failures: u64,
    /// Instance-cache hits (CSR reuse).
    pub instance_hits: u64,
    /// Instance-cache misses (fresh parse registered).
    pub instance_misses: u64,
    /// Hierarchy-cache hits (coarsening skipped).
    pub hierarchy_hits: u64,
    /// Hierarchy-cache misses (hierarchy built and registered).
    pub hierarchy_misses: u64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Queue capacity (shedding threshold).
    pub queue_capacity: usize,
}

impl StatsSnapshot {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("reply", JsonValue::string("stats")),
            ("submitted", self.submitted.into()),
            ("completed", self.completed.into()),
            ("rejected_overload", self.rejected_overload.into()),
            ("stream_aborted", self.stream_aborted.into()),
            ("errors", self.errors.into()),
            ("rejected_too_large", self.rejected_too_large.into()),
            ("dedup_hits", self.dedup_hits.into()),
            ("io_failures", self.io_failures.into()),
            ("instance_hits", self.instance_hits.into()),
            ("instance_misses", self.instance_misses.into()),
            ("hierarchy_hits", self.hierarchy_hits.into()),
            ("hierarchy_misses", self.hierarchy_misses.into()),
            ("queue_depth", self.queue_depth.into()),
            ("queue_capacity", self.queue_capacity.into()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<StatsSnapshot, String> {
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("stats: missing u64 `{key}`"))
        };
        Ok(StatsSnapshot {
            submitted: u("submitted")?,
            completed: u("completed")?,
            rejected_overload: u("rejected_overload")?,
            stream_aborted: u("stream_aborted")?,
            errors: u("errors")?,
            rejected_too_large: u("rejected_too_large")?,
            dedup_hits: u("dedup_hits")?,
            io_failures: u("io_failures")?,
            instance_hits: u("instance_hits")?,
            instance_misses: u("instance_misses")?,
            hierarchy_hits: u("hierarchy_hits")?,
            hierarchy_misses: u("hierarchy_misses")?,
            queue_depth: u("queue_depth")? as usize,
            queue_capacity: u("queue_capacity")? as usize,
        })
    }
}

/// The payload of a `pong` reply: a cheap health/readiness snapshot
/// answered inline by the connection's reader thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Health {
    /// Milliseconds since the daemon started listening.
    pub uptime_ms: u64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Queue capacity (shedding threshold).
    pub queue_capacity: usize,
    /// Instances currently retained in the digest cache.
    pub instances_cached: usize,
    /// Coarsening hierarchies currently retained.
    pub hierarchies_cached: usize,
    /// Completed idempotency tokens currently retained for replay.
    pub tokens_cached: usize,
}

impl Health {
    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("reply", JsonValue::string("pong")),
            ("uptime_ms", self.uptime_ms.into()),
            ("queue_depth", self.queue_depth.into()),
            ("queue_capacity", self.queue_capacity.into()),
            ("instances_cached", self.instances_cached.into()),
            ("hierarchies_cached", self.hierarchies_cached.into()),
            ("tokens_cached", self.tokens_cached.into()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Health, String> {
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("pong: missing u64 `{key}`"))
        };
        Ok(Health {
            uptime_ms: u("uptime_ms")?,
            queue_depth: u("queue_depth")? as usize,
            queue_capacity: u("queue_capacity")? as usize,
            instances_cached: u("instances_cached")? as usize,
            hierarchies_cached: u("hierarchies_cached")? as usize,
            tokens_cached: u("tokens_cached")? as usize,
        })
    }
}

/// Any response frame the daemon emits.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job was admitted to the work queue.
    Accepted {
        /// Echoed job id.
        id: u64,
    },
    /// Overload shedding: the bounded queue is full, the job was NOT
    /// admitted — the 429 of this protocol, carrying the observed depth
    /// so clients can back off proportionally.
    Rejected {
        /// Echoed job id.
        id: u64,
        /// Queue depth at rejection time.
        queue_depth: usize,
        /// Queue capacity (depth == capacity when shedding).
        queue_capacity: usize,
    },
    /// One streamed trace event of a running job (only with
    /// `trace: true`).
    Event {
        /// Echoed job id.
        id: u64,
        /// The engine event.
        event: RunEvent,
    },
    /// The job finished.
    Result {
        /// Echoed job id.
        id: u64,
        /// Result payload.
        result: JobResult,
    },
    /// A typed failure: request parse errors, unknown digests, unknown
    /// cancel targets, instance parse failures, a 2-way job whose every
    /// start panicked.
    Error {
        /// Echoed job id, when the failing frame carried one.
        id: Option<u64>,
        /// Stable machine-readable code (`bad_request`, `parse`,
        /// `unknown_instance`, `unknown_job`, `overloaded`,
        /// `stream_poisoned`, `rejected_too_large`, `engine_panicked`).
        code: String,
        /// Human-readable detail.
        detail: String,
    },
    /// Acknowledgement of a non-job op (cancel).
    Ok {
        /// Echoed job id.
        id: u64,
    },
    /// Counter snapshot.
    Stats(StatsSnapshot),
    /// Health snapshot answering a `ping`.
    Pong(Health),
    /// Farewell to a `shutdown` request; the daemon stops accepting
    /// work after sending it.
    Bye,
}

impl Response {
    /// Serializes to the wire object.
    pub fn to_json(&self) -> JsonValue {
        match self {
            Response::Accepted { id } => JsonValue::object([
                ("reply", JsonValue::string("accepted")),
                ("id", (*id).into()),
            ]),
            Response::Rejected {
                id,
                queue_depth,
                queue_capacity,
            } => JsonValue::object([
                ("reply", JsonValue::string("rejected")),
                ("id", (*id).into()),
                ("code", JsonValue::string("overloaded")),
                ("queue_depth", (*queue_depth).into()),
                ("queue_capacity", (*queue_capacity).into()),
            ]),
            Response::Event { id, event } => JsonValue::object([
                ("reply", JsonValue::string("event")),
                ("id", (*id).into()),
                ("event", event.to_json()),
            ]),
            Response::Result { id, result } => result.to_json(*id),
            Response::Error { id, code, detail } => {
                let mut pairs = vec![
                    ("reply", JsonValue::string("error")),
                    ("code", JsonValue::string(code.clone())),
                    ("detail", JsonValue::string(detail.clone())),
                ];
                if let Some(id) = id {
                    pairs.push(("id", (*id).into()));
                }
                JsonValue::object(pairs)
            }
            Response::Ok { id } => {
                JsonValue::object([("reply", JsonValue::string("ok")), ("id", (*id).into())])
            }
            Response::Stats(s) => s.to_json(),
            Response::Pong(h) => h.to_json(),
            Response::Bye => JsonValue::object([("reply", JsonValue::string("bye"))]),
        }
    }

    /// Parses a response frame.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the missing or ill-typed field.
    pub fn from_json(v: &JsonValue) -> Result<Response, String> {
        let reply = v
            .get("reply")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field `reply`")?;
        let id = || -> Result<u64, String> {
            v.get("id")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("{reply}: missing u64 field `id`"))
        };
        match reply {
            "accepted" => Ok(Response::Accepted { id: id()? }),
            "rejected" => Ok(Response::Rejected {
                id: id()?,
                queue_depth: v
                    .get("queue_depth")
                    .and_then(JsonValue::as_u64)
                    .ok_or("rejected: missing u64 `queue_depth`")?
                    as usize,
                queue_capacity: v
                    .get("queue_capacity")
                    .and_then(JsonValue::as_u64)
                    .ok_or("rejected: missing u64 `queue_capacity`")?
                    as usize,
            }),
            "event" => Ok(Response::Event {
                id: id()?,
                event: RunEvent::from_json(v.get("event").ok_or("event: missing object `event`")?)?,
            }),
            "result" => Ok(Response::Result {
                id: id()?,
                result: JobResult::from_json(v)?,
            }),
            "error" => Ok(Response::Error {
                id: v.get("id").and_then(JsonValue::as_u64),
                code: v
                    .get("code")
                    .and_then(JsonValue::as_str)
                    .ok_or("error: missing string `code`")?
                    .to_string(),
                detail: v
                    .get("detail")
                    .and_then(JsonValue::as_str)
                    .ok_or("error: missing string `detail`")?
                    .to_string(),
            }),
            "ok" => Ok(Response::Ok { id: id()? }),
            "stats" => Ok(Response::Stats(StatsSnapshot::from_json(v)?)),
            "pong" => Ok(Response::Pong(Health::from_json(v)?)),
            "bye" => Ok(Response::Bye),
            other => Err(format!("unknown reply {other:?}")),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let value = JsonValue::object([("x", 7u64.into()), ("s", JsonValue::string("héllo"))]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(back, value);
        // Clean EOF after the frame.
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .is_none());
    }

    #[test]
    fn frame_is_one_write_call() {
        // A `Write` that records the size of every `write` call.
        struct Counting(Vec<usize>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let value = JsonValue::object([("op", JsonValue::string("ping"))]);
        let mut sink = Counting(Vec::new());
        write_frame(&mut sink, &value).unwrap();
        assert_eq!(sink.0, vec![4 + value.to_string().len()]);
    }

    #[test]
    fn event_frames_match_write_frame_of_the_tree() {
        let events = [
            RunEvent::Move {
                vertex: 17,
                gain: -3,
                cut: 503,
            },
            RunEvent::Rollback {
                vertex: u64::MAX,
                cut: 1 << 53,
            },
            RunEvent::PassEnd {
                pass: 2,
                cut: 480,
                moves_made: 9,
                moves_rolled_back: 4,
                leftovers: true,
                corked: false,
            },
            RunEvent::TrialBegin {
                trial: 0,
                seed: 9_000_000_000_000_001,
                heuristic: "ML \"LIFO\"\\\t".into(),
                instance: "ibm01\u{1}é😀".into(),
            },
            RunEvent::BudgetExhausted {
                reason: StopReason::Cancelled,
            },
        ];
        for id in [0, 7, MAX_WIRE_INT, u64::MAX] {
            for event in &events {
                let response = Response::Event {
                    id,
                    event: event.clone(),
                };
                let mut expected = b"earlier frames".to_vec();
                write_frame(&mut expected, &response.to_json()).unwrap();
                let mut batch = b"earlier frames".to_vec();
                encode_event_frame(&mut batch, id, event).unwrap();
                assert_eq!(batch, expected, "{id} {event:?}");
            }
        }
    }

    #[test]
    fn a_failed_encode_leaves_the_buffer_as_it_was() {
        let mut out = b"whole frames".to_vec();
        let failed = encode_frame(&mut out, |payload| {
            payload.extend_from_slice(b"{\"half\":");
            Err(std::io::Error::other("encoder failed"))
        });
        assert!(failed.is_err());
        assert_eq!(out, b"whole frames");
    }

    #[test]
    fn oversized_frame_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor, 1024) {
            Err(FrameError::TooLarge { declared, max }) => {
                assert_eq!(declared, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_clean_eof() {
        let value = JsonValue::object([("x", 7u64.into())]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &value).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn digest_hex_roundtrip() {
        for d in [0u128, 1, u128::MAX, 0xdead_beef_cafe] {
            assert_eq!(digest_from_hex(&digest_to_hex(d)).unwrap(), d);
        }
        assert!(digest_from_hex("").is_err());
        assert!(digest_from_hex("xyz").is_err());
        assert!(digest_from_hex(&"f".repeat(33)).is_err());
    }

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Partition(PartitionRequest {
                id: 9,
                instance: InstanceRef::Digest(0xabc),
                k: 4,
                fraction: 0.25,
                seed: 17,
                budget_ms: Some(50),
                trace: true,
                include_assignment: true,
                request_token: Some(0xFACE),
            }),
            Request::Partition(PartitionRequest::new(
                1,
                InstanceRef::Inline("2 3\n1 2\n2 3\n".to_string()),
                42,
            )),
            Request::Eval(EvalRequest {
                id: 3,
                instance: InstanceRef::Digest(5),
                assignment: vec![0, 1, 1],
                k: 2,
                fraction: 0.5,
                request_token: Some(7),
            }),
            Request::Cancel { id: 12 },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            let back = Request::from_json(&req.to_json()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn tokenless_frames_are_bitwise_unchanged() {
        // The idempotency token is strictly additive: requests without
        // one must serialize exactly as they did before the field
        // existed (no `token` key, golden frames stable).
        let part = PartitionRequest::new(1, InstanceRef::Digest(0xabc), 42);
        assert!(!part.to_json().to_string().contains("token"));
        let eval = EvalRequest {
            id: 2,
            instance: InstanceRef::Digest(0xabc),
            assignment: vec![0, 1],
            k: 2,
            fraction: 0.1,
            request_token: None,
        };
        assert!(!eval.to_json().to_string().contains("token"));
    }

    #[test]
    fn request_validation_rejects_bad_fields() {
        for text in [
            r#"{"op":"partition","id":1,"hgr":"x","k":1}"#,
            r#"{"op":"partition","id":1,"hgr":"x","k":4097}"#,
            r#"{"op":"partition","id":1,"hgr":"x","fraction":1.5}"#,
            r#"{"op":"partition","id":1}"#,
            r#"{"op":"partition","hgr":"x"}"#,
            r#"{"op":"eval","id":1,"hgr":"x"}"#,
            r#"{"op":"nope"}"#,
            r#"{"id":1}"#,
        ] {
            let v = JsonValue::parse(text).unwrap();
            assert!(Request::from_json(&v).is_err(), "accepted: {text}");
        }
        // Recursive bisection takes any k in range, not only powers of two.
        let v = JsonValue::parse(r#"{"op":"partition","id":1,"hgr":"x","k":3}"#).unwrap();
        assert!(matches!(
            Request::from_json(&v),
            Ok(Request::Partition(PartitionRequest { k: 3, .. }))
        ));
        // Integer fields that are ill-typed or beyond MAX_WIRE_INT (so
        // rounded in transit) are refused by name, never defaulted.
        for (field, text) in [
            ("seed", r#"{"op":"partition","id":1,"hgr":"x","seed":"7"}"#),
            ("seed", r#"{"op":"partition","id":1,"hgr":"x","seed":-1}"#),
            ("seed", r#"{"op":"partition","id":1,"hgr":"x","seed":1.5}"#),
            (
                "seed",
                r#"{"op":"partition","id":1,"hgr":"x","seed":9007199254740993}"#,
            ),
            (
                "seed",
                r#"{"op":"partition","id":1,"hgr":"x","seed":1e300}"#,
            ),
            (
                "token",
                r#"{"op":"partition","id":1,"hgr":"x","token":"abc"}"#,
            ),
            (
                "token",
                r#"{"op":"partition","id":1,"hgr":"x","token":null}"#,
            ),
            (
                "token",
                r#"{"op":"partition","id":1,"hgr":"x","token":1e300}"#,
            ),
            (
                "token",
                r#"{"op":"eval","id":1,"hgr":"x","assignment":[],"token":true}"#,
            ),
            (
                "token",
                r#"{"op":"eval","id":1,"hgr":"x","assignment":[],"token":9007199254740992}"#,
            ),
            ("id", r#"{"op":"partition","id":1e300,"hgr":"x"}"#),
            ("id", r#"{"op":"partition","id":"1","hgr":"x"}"#),
            (
                "id",
                r#"{"op":"eval","id":9007199254740992,"hgr":"x","assignment":[]}"#,
            ),
            ("id", r#"{"op":"cancel","id":-3}"#),
            // Bool fields are refused the same way: never read as `false`.
            ("trace", r#"{"op":"partition","id":1,"hgr":"x","trace":1}"#),
            (
                "trace",
                r#"{"op":"partition","id":1,"hgr":"x","trace":null}"#,
            ),
            (
                "include_assignment",
                r#"{"op":"partition","id":1,"hgr":"x","include_assignment":"yes"}"#,
            ),
            (
                "include_assignment",
                r#"{"op":"partition","id":1,"hgr":"x","include_assignment":null}"#,
            ),
            // The n-level and lane engines are library-only: a frame
            // naming any engine is refused, never run on the default.
            (
                "engine",
                r#"{"op":"partition","id":1,"hgr":"x","engine":"nlevel"}"#,
            ),
            (
                "engine",
                r#"{"op":"partition","id":1,"hgr":"x","engine":"ml"}"#,
            ),
        ] {
            let v = JsonValue::parse(text).unwrap();
            match Request::from_json(&v) {
                Err(detail) => assert!(detail.contains(&format!("`{field}`")), "{text}: {detail}"),
                Ok(req) => panic!("accepted {text} as {req:?}"),
            }
        }
        // The largest exact integer is still accepted.
        let max = format!(
            r#"{{"op":"partition","id":{MAX_WIRE_INT},"hgr":"x","seed":{MAX_WIRE_INT},"token":{MAX_WIRE_INT}}}"#
        );
        match Request::from_json(&JsonValue::parse(&max).unwrap()).unwrap() {
            Request::Partition(req) => {
                assert_eq!((req.id, req.seed), (MAX_WIRE_INT, MAX_WIRE_INT));
                assert_eq!(req.request_token, Some(MAX_WIRE_INT));
            }
            other => panic!("expected a partition request, got {other:?}"),
        }
        // Unknown keys are ignored, so frames from older clients that
        // still carry the retired `use_hierarchy_cache` flag decode.
        let old = r#"{"op":"partition","id":1,"hgr":"x","use_hierarchy_cache":false}"#;
        assert_eq!(
            Request::from_json(&JsonValue::parse(old).unwrap()).unwrap(),
            Request::Partition(PartitionRequest::new(1, InstanceRef::Inline("x".into()), 0))
        );
    }

    #[test]
    fn response_roundtrip() {
        let resps = [
            Response::Accepted { id: 1 },
            Response::Rejected {
                id: 2,
                queue_depth: 8,
                queue_capacity: 8,
            },
            Response::Event {
                id: 3,
                event: RunEvent::HierarchyReused { levels: 4 },
            },
            Response::Result {
                id: 4,
                result: JobResult {
                    cut: 11,
                    balanced: true,
                    stopped: StopReason::Deadline,
                    audit_clean: true,
                    hierarchy_reused: true,
                    levels: 3,
                    starts: 5,
                    digest: 0xfeed,
                    assignment: Some(vec![0, 1, 0]),
                },
            },
            Response::Error {
                id: Some(5),
                code: "unknown_instance".to_string(),
                detail: "no such digest".to_string(),
            },
            Response::Error {
                id: None,
                code: "bad_request".to_string(),
                detail: "missing op".to_string(),
            },
            Response::Ok { id: 6 },
            Response::Stats(StatsSnapshot {
                submitted: 10,
                completed: 9,
                rejected_overload: 1,
                queue_capacity: 8,
                rejected_too_large: 1,
                dedup_hits: 3,
                io_failures: 1,
                ..StatsSnapshot::default()
            }),
            Response::Pong(Health {
                uptime_ms: 1234,
                queue_depth: 1,
                queue_capacity: 64,
                instances_cached: 2,
                hierarchies_cached: 3,
                tokens_cached: 4,
            }),
            Response::Bye,
        ];
        for resp in resps {
            let back = Response::from_json(&resp.to_json()).unwrap();
            assert_eq!(back, resp);
        }
    }
}
