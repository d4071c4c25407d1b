//! Uniform run-event tracing for the hypart partitioning engines.
//!
//! Every engine in the workspace (flat FM/CLIP, multilevel, k-way, the
//! multi-start driver, and the trial runner) narrates its execution as a
//! stream of [`RunEvent`]s into a pluggable [`TraceSink`]:
//!
//! * [`NullSink`] — the default; compiles to no-ops, so untraced runs pay
//!   nothing;
//! * [`MemorySink`] — thread-safe accumulation for tests and programmatic
//!   analysis (its [`flush_into`](MemorySink::flush_into) is the
//!   per-trial buffering primitive that keeps parallel traces identical
//!   to sequential ones);
//! * [`JsonlSink`] — streaming newline-delimited JSON, the `--trace`
//!   file format of the CLI;
//! * [`CounterSink`] — per-kind counters plus a pass-duration histogram
//!   for at-a-glance summaries;
//! * [`TeeSink`] — fan-out combinator (e.g. JSONL file + counters).
//!
//! Events are deterministic — no timestamps, no thread ids — so two runs
//! with the same seed produce byte-identical streams. That determinism is
//! load-bearing: tests assert trace equality across thread counts, and
//! the paper's §2.3 corking diagnostics ("traces of CLIP executions show
//! that corking actually occurs fairly often") are reproduced by counting
//! [`RunEvent::Corked`] events in the very same stream the CLI writes.
//!
//! The crate also hosts the workspace's dependency-free [`json`] value
//! builder and parser (re-exported by `hypart-eval` for experiment
//! records), since the JSONL schema is defined here.
//!
//! # Example
//!
//! ```
//! use hypart_trace::{MemorySink, RunEvent, TraceSink};
//!
//! let sink = MemorySink::new();
//! sink.emit(RunEvent::RunBegin { cut: 12 });
//! sink.emit(RunEvent::RunEnd { cut: 7, passes: 2 });
//! let events = sink.events();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[1].kind(), "run_end");
//! // Each event writes one JSONL line straight into a byte buffer, with
//! // no JSON tree in between, and parses back.
//! let mut line = Vec::new();
//! events[1].write_json(&mut line);
//! assert_eq!(line, br#"{"cut":7,"ev":"run_end","passes":2}"#);
//! let text = std::str::from_utf8(&line).unwrap();
//! let back = RunEvent::from_json(&hypart_trace::json::JsonValue::parse(text).unwrap());
//! assert_eq!(back.unwrap(), events[1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod json;
mod sink;

pub use event::{RunEvent, StopReason, EVENT_KINDS};
pub use sink::{
    CounterSink, JsonlSink, MemorySink, NullSink, TeeSink, TraceSink, PASS_HISTOGRAM_BUCKETS,
};
