//! [`TraceSink`] and its implementations.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::event::{RunEvent, EVENT_KINDS};

/// A consumer of [`RunEvent`]s.
///
/// Sinks take `&self` and use interior mutability, so one sink can be
/// shared across engine layers (and, buffered per unit of work, across
/// threads) without threading `&mut` through every call chain.
pub trait TraceSink {
    /// Consumes one event.
    fn emit(&self, event: RunEvent);

    /// Whether per-move events ([`RunEvent::Move`] /
    /// [`RunEvent::Rollback`]) should be produced at all. Engines cache
    /// this once per refinement, so a disabled sink costs one branch per
    /// pass rather than per move.
    fn is_enabled(&self) -> bool {
        true
    }
}

impl<S: TraceSink + ?Sized> TraceSink for &S {
    fn emit(&self, event: RunEvent) {
        (**self).emit(event);
    }

    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
}

/// The zero-cost no-op sink: [`emit`](TraceSink::emit) is empty and
/// [`is_enabled`](TraceSink::is_enabled) is `false`, so the hot move loop
/// never constructs events and the whole call inlines away. The untraced
/// engine entry points are exactly the traced ones with a `NullSink`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn emit(&self, _event: RunEvent) {}

    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }
}

/// A [`Write`] implementation whose every write fails, for exercising
/// `JsonlSink`'s sticky failure flag without touching the filesystem.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default)]
struct FailingWriter;

#[cfg(test)]
impl Write for FailingWriter {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("injected fault: sink write failed"))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::other("injected fault: sink flush failed"))
    }
}

/// Thread-safe in-memory accumulation, for tests and programmatic
/// consumers.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<RunEvent>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A snapshot of the accumulated events, in emission order.
    pub fn events(&self) -> Vec<RunEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Drains the accumulated events, leaving the sink empty.
    pub fn take(&self) -> Vec<RunEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of accumulated events.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-emits every accumulated event into `sink`, in order, draining
    /// this sink. This is the per-unit scoping primitive: the parallel
    /// engine buffers each unit of work into a local `MemorySink` and
    /// flushes in a fixed order, so the downstream stream is identical to
    /// a sequential run regardless of thread count.
    pub fn flush_into<S: TraceSink + ?Sized>(&self, sink: &S) {
        for event in self.take() {
            sink.emit(event);
        }
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, event: RunEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(event);
    }
}

/// Streams events as newline-delimited JSON (one
/// [`RunEvent::to_json`] object per line, written by
/// [`RunEvent::write_json`] with one `write_all`) into any [`Write`].
///
/// Write errors do not panic the engine mid-run: the first failure flips
/// an internal flag, subsequent writes are skipped, and
/// [`finish`](JsonlSink::finish) reports the failure.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    /// The writer and a line buffer reused across events.
    writer: Mutex<(W, Vec<u8>)>,
    failed: AtomicBool,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (callers wanting buffering supply a
    /// [`std::io::BufWriter`]).
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new((writer, Vec::new())),
            failed: AtomicBool::new(false),
        }
    }

    /// `true` once any write has failed. Non-destructive: the sink is
    /// left usable (further emits remain no-ops) and
    /// [`finish`](JsonlSink::finish) still reports the failure.
    ///
    /// Long-running consumers that stream traces (e.g. the partitioning
    /// daemon) poll this mid-run to abort a job with a typed error as
    /// soon as its trace stream is known to be truncated, instead of
    /// discovering the loss only when the sink is torn down.
    pub fn is_poisoned(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Flushes and returns the writer, or the first error encountered.
    ///
    /// # Errors
    ///
    /// Any write or flush failure.
    pub fn finish(self) -> std::io::Result<W> {
        let (mut writer, _) = self.writer.into_inner().unwrap_or_else(|e| e.into_inner());
        if self.failed.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("a trace write failed"));
        }
        writer.flush()?;
        Ok(writer)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&self, event: RunEvent) {
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        let mut guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let (writer, line) = &mut *guard;
        line.clear();
        event.write_json(line);
        line.push(b'\n');
        if writer.write_all(line).is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
    }
}

/// Histogram bucket count of [`CounterSink`]'s pass-duration histogram
/// (power-of-two microsecond buckets; the last bucket absorbs the tail).
pub const PASS_HISTOGRAM_BUCKETS: usize = 22;

#[derive(Debug, Default)]
struct CounterState {
    counts: [u64; EVENT_KINDS.len()],
    corked_passes: u64,
    moves: u64,
    rollbacks: u64,
    last_run_end_cut: Option<u64>,
    pass_started: Option<Instant>,
    pass_micros: [u64; PASS_HISTOGRAM_BUCKETS],
}

/// Aggregating sink: per-kind event counters plus a pass-duration
/// histogram, rendered by [`summary`](CounterSink::summary).
///
/// Durations are measured sink-side (wall clock between `PassBegin` and
/// `PassEnd` arrivals) precisely so that the events themselves stay
/// deterministic; replaying a buffered stream therefore yields counters
/// but degenerate durations.
#[derive(Debug, Default)]
pub struct CounterSink {
    state: Mutex<CounterState>,
}

impl CounterSink {
    /// Creates a zeroed sink.
    pub fn new() -> Self {
        CounterSink::default()
    }

    /// Count of one event kind (index into [`EVENT_KINDS`] via
    /// [`RunEvent::kind_index`]).
    pub fn count_of(&self, kind_index: usize) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).counts[kind_index]
    }

    /// Number of `PassEnd` events flagged `corked`.
    pub fn corked_passes(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .corked_passes
    }

    /// Total events consumed.
    pub fn total(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .counts
            .iter()
            .sum()
    }

    /// Human-readable multi-line summary: nonzero counters, derived
    /// ratios, and the pass-duration histogram.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::from("trace summary\n");
        for (kind, &n) in EVENT_KINDS.iter().zip(state.counts.iter()) {
            if n > 0 {
                let _ = writeln!(out, "  {kind:<20} {n:>10}");
            }
        }
        let pass_end_index = EVENT_KINDS
            .iter()
            .position(|&k| k == "pass_end")
            .expect("pass_end is a kind");
        let passes = state.counts[pass_end_index];
        if passes > 0 {
            let _ = writeln!(
                out,
                "  corked passes        {:>10} ({:.1}% of {passes})",
                state.corked_passes,
                100.0 * state.corked_passes as f64 / passes as f64
            );
            let _ = writeln!(
                out,
                "  moves / rollbacks    {:>10} / {}",
                state.moves, state.rollbacks
            );
        }
        // Under several starts or a V-cycle tail the last `run_end` is
        // not the reported best, so the line names what it is.
        if let Some(cut) = state.last_run_end_cut {
            let _ = writeln!(out, "  last run_end cut     {cut:>10}");
        }
        let total: u64 = state.pass_micros.iter().sum();
        if total > 0 {
            let _ = writeln!(out, "  pass duration histogram ({total} timed passes):");
            for (i, &n) in state.pass_micros.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = 1u64 << i;
                let bar = "#".repeat(((n * 40).div_ceil(total)) as usize);
                let _ = writeln!(out, "    {lo:>8}..{hi:<8} us {n:>8} {bar}");
            }
        }
        out
    }
}

impl TraceSink for CounterSink {
    fn emit(&self, event: RunEvent) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.counts[event.kind_index()] += 1;
        match event {
            RunEvent::PassBegin { .. } => state.pass_started = Some(Instant::now()),
            RunEvent::PassEnd {
                corked,
                moves_made,
                moves_rolled_back,
                ..
            } => {
                if corked {
                    state.corked_passes += 1;
                }
                state.moves += moves_made as u64;
                state.rollbacks += moves_rolled_back as u64;
                if let Some(t0) = state.pass_started.take() {
                    let micros = t0.elapsed().as_micros().max(1) as u64;
                    let bucket =
                        (64 - micros.leading_zeros() as usize).min(PASS_HISTOGRAM_BUCKETS - 1);
                    state.pass_micros[bucket] += 1;
                }
            }
            RunEvent::RunEnd { cut, .. } => state.last_run_end_cut = Some(cut),
            _ => {}
        }
    }

    // Counters do not need the per-move firehose by default — but they do
    // count moves via PassEnd, so stay enabled to also catch Move events
    // when paired (via `TeeSink`) with a stream sink.
}

/// Fans one event stream out to two sinks (e.g. a [`JsonlSink`] file plus
/// a [`CounterSink`] summary, as the CLI `--trace` flag does).
#[derive(Debug)]
pub struct TeeSink<'a, A: TraceSink + ?Sized, B: TraceSink + ?Sized> {
    a: &'a A,
    b: &'a B,
}

impl<'a, A: TraceSink + ?Sized, B: TraceSink + ?Sized> TeeSink<'a, A, B> {
    /// Combines two sinks.
    pub fn new(a: &'a A, b: &'a B) -> Self {
        TeeSink { a, b }
    }
}

impl<A: TraceSink + ?Sized, B: TraceSink + ?Sized> TraceSink for TeeSink<'_, A, B> {
    fn emit(&self, event: RunEvent) {
        self.a.emit(event.clone());
        self.b.emit(event);
    }

    fn is_enabled(&self) -> bool {
        self.a.is_enabled() || self.b.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_pair() -> [RunEvent; 2] {
        [
            RunEvent::PassBegin {
                pass: 0,
                cut: 10,
                eligible: 4,
            },
            RunEvent::PassEnd {
                pass: 0,
                cut: 8,
                moves_made: 3,
                moves_rolled_back: 1,
                leftovers: true,
                corked: true,
            },
        ]
    }

    #[test]
    fn jsonl_sink_poison_is_sticky_and_non_destructive() {
        let sink = JsonlSink::new(FailingWriter);
        assert!(!sink.is_poisoned());
        sink.emit(RunEvent::RunBegin { cut: 1 });
        assert!(sink.is_poisoned());
        // Non-destructive: polling again and emitting again are both
        // safe, and finish() still reports the original failure.
        assert!(sink.is_poisoned());
        sink.emit(RunEvent::RunEnd { cut: 1, passes: 0 });
        assert!(sink.finish().is_err());
    }

    #[test]
    fn jsonl_sink_clean_writer_is_not_poisoned() {
        let sink = JsonlSink::new(Vec::new());
        sink.emit(RunEvent::RunBegin { cut: 1 });
        assert!(!sink.is_poisoned());
        let bytes = match sink.finish() {
            Ok(b) => b,
            Err(e) => panic!("finish failed: {e}"),
        };
        assert!(!bytes.is_empty());
    }

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.is_enabled());
        sink.emit(RunEvent::RunBegin { cut: 1 });
    }

    #[test]
    fn memory_sink_accumulates_and_flushes() {
        let local = MemorySink::new();
        assert!(local.is_empty());
        for e in pass_pair() {
            local.emit(e);
        }
        assert_eq!(local.len(), 2);
        assert_eq!(local.events().len(), 2);

        let downstream = MemorySink::new();
        local.flush_into(&downstream);
        assert!(local.is_empty());
        assert_eq!(downstream.events(), pass_pair().to_vec());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let sink = JsonlSink::new(Vec::new());
        for e in pass_pair() {
            sink.emit(e);
        }
        sink.emit(RunEvent::RunEnd { cut: 8, passes: 1 });
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let events: Vec<RunEvent> = text
            .lines()
            .map(|l| RunEvent::from_json(&crate::json::JsonValue::parse(l).unwrap()).unwrap())
            .collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2], RunEvent::RunEnd { cut: 8, passes: 1 });
    }

    #[test]
    fn jsonl_sink_reports_write_failures() {
        let sink = JsonlSink::new(FailingWriter);
        sink.emit(RunEvent::RunBegin { cut: 1 });
        sink.emit(RunEvent::RunEnd { cut: 1, passes: 0 });
        let err = sink.finish().unwrap_err();
        assert!(err.to_string().contains("trace write failed"));
    }

    #[test]
    fn counter_sink_counts_and_summarizes() {
        let sink = CounterSink::new();
        for e in pass_pair() {
            sink.emit(e);
        }
        sink.emit(RunEvent::Corked {
            pass: 0,
            moves_made: 3,
            eligible: 4,
        });
        sink.emit(RunEvent::RunEnd { cut: 8, passes: 1 });
        assert_eq!(sink.total(), 4);
        let summary = sink.summary();
        assert!(summary.contains("pass_end"), "{summary}");
        assert!(summary.contains("corked passes"), "{summary}");
        let cut_line = summary.lines().find(|l| l.contains("last run_end cut"));
        assert!(cut_line.is_some_and(|l| l.ends_with(" 8")), "{summary}");
        assert!(summary.contains("pass duration histogram"), "{summary}");
    }

    #[test]
    fn tee_fans_out_and_ors_enablement() {
        let mem = MemorySink::new();
        let null = NullSink;
        let tee = TeeSink::new(&mem, &null);
        assert!(tee.is_enabled());
        tee.emit(RunEvent::RunBegin { cut: 5 });
        assert_eq!(mem.len(), 1);

        let tee_off = TeeSink::new(&null, &null);
        assert!(!tee_off.is_enabled());
    }
}
