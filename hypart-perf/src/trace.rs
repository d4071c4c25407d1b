//! The benchmark's own tracing: a [`TraceSink`] that timestamps the
//! structural events the engines already emit, and an in-memory span log
//! written out as JSON when the run ends.
//!
//! Layers are only ever observed from outside: spans wrap calls into
//! public functions, and engine-internal phases are bracketed by the
//! timestamps of their structural events. Nothing here changes what the
//! engines compute.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use hypart_trace::json::JsonValue;
use hypart_trace::{RunEvent, TraceSink, EVENT_KINDS};

/// Nanoseconds from `epoch` to `t` (0 for instants before the epoch).
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// A sink that keeps structural events with their arrival time and only
/// counts per-move events, so tracing a long FM pass costs one counter
/// bump per move instead of a clock read and a push.
pub struct BenchSink {
    epoch: Instant,
    events: RefCell<Vec<(u64, RunEvent)>>,
    counts: [Cell<u64>; EVENT_KINDS.len()],
}

impl BenchSink {
    /// An empty sink whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        BenchSink {
            epoch,
            events: RefCell::new(Vec::new()),
            counts: std::array::from_fn(|_| Cell::new(0)),
        }
    }

    /// Takes the timestamped structural events recorded so far.
    pub fn take_events(&self) -> Vec<(u64, RunEvent)> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    /// Events seen per kind, in [`EVENT_KINDS`] order, per-move events
    /// included.
    pub fn counts(&self) -> [u64; EVENT_KINDS.len()] {
        std::array::from_fn(|i| self.counts[i].get())
    }
}

impl TraceSink for BenchSink {
    fn emit(&self, event: RunEvent) {
        let counter = &self.counts[event.kind_index()];
        counter.set(counter.get() + 1);
        if !matches!(event, RunEvent::Move { .. } | RunEvent::Rollback { .. }) {
            let at = ns_since(self.epoch, Instant::now());
            self.events.borrow_mut().push((at, event));
        }
    }
}

/// One timed interval: `op` groups the spans of one operation, `parent`
/// indexes the enclosing span in the same log.
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans held in memory until the run ends.
#[derive(Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its index, for use as a parent.
    pub fn push(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of it that its
    /// child spans cover (overlapping children are counted once).
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.dur_ns() - covered
    }

    /// The share of root span `root` covered by named layer spans: one
    /// minus the self time of the root and of every span named in
    /// `wrappers` below it, over the root's duration.
    pub fn coverage(&self, root: usize, wrappers: &[&str]) -> f64 {
        let dur = self.spans[root].dur_ns();
        if dur == 0 {
            return 1.0;
        }
        let uncovered: u64 = (root..self.spans.len())
            .filter(|&i| {
                i == root || (self.descends_from(i, root) && wrappers.contains(&self.spans[i].name))
            })
            .map(|i| self.self_ns(i))
            .sum();
        1.0 - uncovered as f64 / dur as f64
    }

    fn descends_from(&self, mut index: usize, ancestor: usize) -> bool {
        while let Some(parent) = self.spans[index].parent {
            if parent == ancestor {
                return true;
            }
            index = parent;
        }
        false
    }

    /// The log as a JSON document.
    pub fn to_json(&self, workload: &str, seed: u64, event_counts: &[u64]) -> JsonValue {
        let spans = self.spans.iter().map(|s| {
            JsonValue::object([
                ("op", s.op.into()),
                ("name", JsonValue::string(s.name)),
                ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
                ("start_ns", s.start_ns.into()),
                ("end_ns", s.end_ns.into()),
            ])
        });
        let counts = EVENT_KINDS
            .iter()
            .zip(event_counts)
            .filter(|(_, &n)| n > 0)
            .map(|(&kind, &n)| (kind, JsonValue::from(n)));
        JsonValue::object([
            ("workload", JsonValue::string(workload)),
            ("seed", seed.into()),
            ("event_counts", JsonValue::object(counts)),
            ("spans", JsonValue::array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::default();
        let root = log.push(0, "op", None, 0, 100);
        log.push(0, "a", Some(root), 10, 40);
        log.push(0, "b", Some(root), 30, 60);
        let c = log.push(0, "c", Some(root), 90, 120);
        log.push(0, "d", Some(c), 95, 96);
        // Children cover 10..60 and 90..100 of the root.
        assert_eq!(log.self_ns(root), 40);
        assert_eq!(log.self_ns(c), 29);
    }

    #[test]
    fn coverage_counts_wrapper_self_time_as_uncovered() {
        let mut log = SpanLog::default();
        let root = log.push(0, "op", None, 0, 100);
        let run = log.push(0, "run", Some(root), 10, 90);
        log.push(0, "layer", Some(run), 20, 90);
        log.push(0, "parse", Some(root), 0, 10);
        // Uncovered: 90..100 in the root, 10..20 in the wrapper.
        assert!((log.coverage(root, &["run"]) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn sink_timestamps_structure_and_only_counts_moves() {
        let sink = BenchSink::new(Instant::now());
        sink.emit(RunEvent::Move {
            vertex: 1,
            gain: 2,
            cut: 3,
        });
        sink.emit(RunEvent::RunBegin { cut: 5 });
        let events = sink.take_events();
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].1, RunEvent::RunBegin { cut: 5 }));
        assert_eq!(sink.counts().iter().sum::<u64>(), 2);
    }
}
