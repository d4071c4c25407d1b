//! Partitioning as a service.
//!
//! The DAC-99 methodology this repo reproduces frames heuristic
//! evaluation as *many runs under explicit budgets*: cost-at-time-τ
//! distributions, multi-start sweeps, same-instance re-queries under
//! different balance tolerances. That traffic shape — heavy query volume
//! over few netlists — is exactly what a long-running daemon amortizes:
//! parse once, coarsen once per seed, answer many.
//!
//! This crate provides that daemon and its client:
//!
//! * [`protocol`] — length-prefixed JSON frames over TCP; requests carry
//!   an `"op"`, responses a `"reply"`, and job-scoped frames echo the
//!   client-chosen id so concurrent jobs multiplex on one connection;
//! * [`queue`] — a bounded MPMC work queue that sheds overload instead
//!   of buffering it (typed `rejected` responses carrying queue depth);
//! * `cache` — the two bounded caches behind the daemon: the
//!   digest-keyed instance cache, which evicts oldest-first, and the
//!   `(digest, coarsening config, seed)`-keyed hierarchy cache, which
//!   keeps a hierarchy once it is looked up again and lets one-shot
//!   hierarchies pass through a small probation queue (2Q admission);
//! * [`Server`] / [`ServerHandle`] — the daemon itself: an accept loop,
//!   one reader thread per connection, and a fixed worker pool that
//!   reuses each worker's FM workspace across jobs;
//! * [`Client`] — a blocking client that demultiplexes interleaved
//!   responses per job id, with optional self-healing: a
//!   [`RetryPolicy`] adds bounded reconnect-and-resubmit with
//!   deterministic seeded backoff, and idempotency tokens let the
//!   daemon deduplicate retried jobs instead of recomputing them;
//! * [`chaos`] — a deterministic TCP chaos proxy: every network fault
//!   (mid-frame disconnects, byte-level rechunking, delays, stalls,
//!   corruption) is scripted from a seed and replayable bit for bit.
//!
//! # Determinism contract
//!
//! Every partition job runs the one engine configured in
//! [`ServerConfig::ml`](ServerConfig::ml); the wire carries no engine
//! choice, and a `partition` frame that names an `engine` is a
//! `bad_request`. Each job is a deterministic function of
//! `(instance content, k, fraction, seed)` — *not* of which worker runs
//! it, how busy the daemon is, or whether any cache hit. A hierarchy
//! cache hit replays bitwise the same trace a cold run would produce,
//! prefixed with one `hierarchy_reused` event (the hierarchy is a pure
//! function of the cache key; see
//! [`MlPartitioner::coarsen_hierarchy_with`](hypart_ml::MlPartitioner::coarsen_hierarchy_with)).
//! An unbudgeted 2-way job returns the partition
//! [`MlPartitioner::run_with`](hypart_ml::MlPartitioner::run_with)
//! returns for the same seed and fraction under
//! [`ServerConfig::ml`](ServerConfig::ml).
//! Budgeted jobs stop deterministically in *shape* (bracketed
//! `start_begin`/`start_end` pairs, `budget_exhausted` terminator) while
//! the number of starts naturally varies with wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

mod cache;
pub mod chaos;
mod client;
pub mod protocol;
pub mod queue;
mod server;

pub use chaos::{ChaosPlan, ChaosProxy};
pub use client::{Client, ClientError, JobOutcome, RetryPolicy};
pub use server::{Server, ServerConfig, ServerHandle};
