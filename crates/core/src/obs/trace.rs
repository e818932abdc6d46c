//! Lightweight span/event tracing with a ring-buffer recorder.
//!
//! A *span* brackets a region of work: `let _s = span!("inner_step",
//! env = m);` opens it and the guard's drop closes it, recording one
//! [`TraceEvent`] carrying the span's duration, the recording thread's
//! ordinal, its own id, and the id and depth of the span it nests under.
//! An *event* is an instant point (`event!("mrq_hit", env = m)`). Both
//! are no-ops — the macro bodies constant-fold away — unless the `obs`
//! cargo feature is on.
//!
//! Nesting follows the innermost open span of the opening thread. Work
//! fanned out to other threads keeps its place in the tree by carrying a
//! [`SpanContext`]: capture it with [`current`] on the spawning side and
//! [`enter`](SpanContext::enter) it inside each task.
//!
//! Events land in a bounded in-memory ring (the flight recorder, newest
//! ~64k events) and are fanned out to any attached [`TraceSink`]s:
//! a JSON-lines file writer, a stderr pretty-printer, or a no-op.
//! Durations and thread ordinals are observability data only — nothing
//! in the traced code paths reads them back, which is what keeps
//! tracing deterministic-safe.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default ring capacity (events).
pub const RING_CAPACITY: usize = 65_536;

/// What a trace record marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum EventKind {
    /// A completed span (duration in `dur_ns`).
    Span,
    /// An instant event (`dur_ns` = 0).
    Event,
}

/// One recorded span or event.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TraceEvent {
    /// Global record sequence number (assignment order, not span-open
    /// order — spans are recorded when they *close*).
    pub seq: u64,
    /// Ordinal of the recording thread (0, 1, 2… in first-record order).
    pub thread: u64,
    /// The span's id, unique within the process (0 for instant events).
    pub id: u64,
    /// Id of the span this record nests under; `None` at the top level.
    pub parent: Option<u64>,
    /// Nesting depth: 0 for a top-level span, the parent's depth + 1
    /// otherwise (an instant event takes the depth a span opened at the
    /// same point would get).
    pub depth: u32,
    /// Span or instant event.
    pub kind: EventKind,
    /// The site name passed to `span!`/`event!`.
    pub name: String,
    /// The `key = value` fields, rendered to strings.
    pub fields: Vec<(String, String)>,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
}

/// Receives every recorded event. Implementations must tolerate being
/// called from any thread.
pub trait TraceSink: Send + Sync {
    /// Called once per recorded event.
    fn on_event(&self, event: &TraceEvent);
    /// Flush buffered output (called when the sink is detached).
    fn flush(&self) {}
}

/// Discards everything. Attaching it exercises the fan-out path with
/// zero observable effect — used by the determinism tests.
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn on_event(&self, _event: &TraceEvent) {}
}

/// Writes each event as one JSON object per line.
pub struct JsonLinesSink {
    w: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonLinesSink {
    /// Create (truncate) `path` and write JSON lines to it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonLinesSink {
            w: Mutex::new(std::io::BufWriter::new(file)),
        })
    }
}

impl TraceSink for JsonLinesSink {
    fn on_event(&self, event: &TraceEvent) {
        let line = serde_json::to_string(event).unwrap_or_default();
        let mut w = self
            .w
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writeln!(w, "{line}");
    }

    fn flush(&self) {
        let mut w = self
            .w
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = w.flush();
    }
}

/// Pretty-prints events to stderr, indented by nesting depth.
pub struct StderrPrettySink;

impl TraceSink for StderrPrettySink {
    fn on_event(&self, event: &TraceEvent) {
        let indent = "  ".repeat(event.depth as usize);
        let fields: Vec<String> = event
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let fields = if fields.is_empty() {
            String::new()
        } else {
            format!(" [{}]", fields.join(" "))
        };
        match event.kind {
            EventKind::Span => eprintln!(
                "[trace t{} #{:>6}] {indent}{} {:.3}ms{fields}",
                event.thread,
                event.seq,
                event.name,
                event.dur_ns as f64 / 1e6
            ),
            EventKind::Event => eprintln!(
                "[trace t{} #{:>6}] {indent}• {}{fields}",
                event.thread, event.seq, event.name
            ),
        }
    }
}

/// The global trace recorder: sequence counter, bounded ring, sinks.
pub struct Tracer {
    seq: AtomicU64,
    next_span: AtomicU64,
    next_thread: AtomicU64,
    next_sink_id: AtomicU64,
    has_sink: AtomicBool,
    ring: Mutex<VecDeque<TraceEvent>>,
    sinks: Mutex<Vec<(u64, Arc<dyn TraceSink>)>>,
}

thread_local! {
    static THREAD_ORD: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
    /// The depth a span opened now on this thread would get.
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    /// Id of the innermost open span on this thread (0: none).
    static CURRENT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-global tracer.
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer {
        seq: AtomicU64::new(0),
        next_span: AtomicU64::new(1),
        next_thread: AtomicU64::new(0),
        next_sink_id: AtomicU64::new(0),
        has_sink: AtomicBool::new(false),
        ring: Mutex::new(VecDeque::with_capacity(1024)),
        sinks: Mutex::new(Vec::new()),
    })
}

impl Tracer {
    fn thread_ordinal(&self) -> u64 {
        THREAD_ORD.with(|c| {
            let v = c.get();
            if v != u64::MAX {
                return v;
            }
            let v = self.next_thread.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        })
    }

    fn record(
        &self,
        kind: EventKind,
        name: &str,
        fields: Vec<(String, String)>,
        dur_ns: u64,
        id: u64,
        at: SpanContext,
    ) {
        let event = TraceEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            thread: self.thread_ordinal(),
            id,
            parent: (at.parent != 0).then_some(at.parent),
            depth: at.depth,
            kind,
            name: name.to_string(),
            fields,
            dur_ns,
        };
        {
            let mut ring = self
                .ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if ring.len() == RING_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(event.clone());
        }
        if self.has_sink.load(Ordering::Relaxed) {
            let sinks = self
                .sinks
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for (_, sink) in sinks.iter() {
                sink.on_event(&event);
            }
        }
    }

    /// Attach a sink; returns an id for [`remove_sink`](Self::remove_sink).
    pub fn add_sink(&self, sink: Arc<dyn TraceSink>) -> u64 {
        let id = self.next_sink_id.fetch_add(1, Ordering::Relaxed);
        let mut sinks = self
            .sinks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sinks.push((id, sink));
        self.has_sink.store(true, Ordering::Relaxed);
        id
    }

    /// Detach a sink (flushing it first). Unknown ids are ignored.
    pub fn remove_sink(&self, id: u64) {
        let mut sinks = self
            .sinks
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(pos) = sinks.iter().position(|(i, _)| *i == id) {
            let (_, sink) = sinks.remove(pos);
            sink.flush();
        }
        self.has_sink.store(!sinks.is_empty(), Ordering::Relaxed);
    }

    /// Copy of the ring's current contents, oldest first.
    pub fn ring_snapshot(&self) -> Vec<TraceEvent> {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Drop all buffered events (sinks stay attached).
    pub fn clear_ring(&self) {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

/// Open guard returned by [`span!`](crate::span). Records the span on drop.
pub struct SpanGuard {
    name: &'static str,
    fields: Vec<(String, String)>,
    start: Instant,
    id: u64,
    /// Where the span attached; restored as the thread's context on close.
    at: SpanContext,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.at.install();
        tracer().record(
            EventKind::Span,
            self.name,
            std::mem::take(&mut self.fields),
            dur_ns,
            self.id,
            self.at,
        );
    }
}

/// Open a span (called by the `span!` macro; prefer the macro).
pub fn span_guard(name: &'static str, fields: Vec<(String, String)>) -> SpanGuard {
    let id = tracer().next_span.fetch_add(1, Ordering::Relaxed);
    let at = current();
    SpanContext {
        parent: id,
        depth: at.depth + 1,
    }
    .install();
    SpanGuard {
        name,
        fields,
        start: Instant::now(),
        id,
        at,
    }
}

/// Record an instant event (called by the `event!` macro).
pub fn instant_event(name: &str, fields: Vec<(String, String)>) {
    tracer().record(EventKind::Event, name, fields, 0, 0, current());
}

/// Where a span opened now would attach: the innermost open span of
/// this thread and the depth beneath it. Thread-local state does not
/// follow work onto other threads, so capture it with [`current`] before
/// a parallel fan-out and [`enter`](Self::enter) it inside each task;
/// spans opened there then nest under the spawning span instead of
/// starting new roots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanContext {
    /// Id of the span to nest under (0: the top level).
    parent: u64,
    /// Depth of a span opened under `parent`.
    depth: u32,
}

/// This thread's current [`SpanContext`].
#[must_use]
pub fn current() -> SpanContext {
    SpanContext {
        parent: CURRENT.with(std::cell::Cell::get),
        depth: DEPTH.with(std::cell::Cell::get),
    }
}

impl SpanContext {
    /// Make this the thread's context until the guard drops, which
    /// restores the previous one.
    #[must_use]
    pub fn enter(self) -> ContextGuard {
        let prev = current();
        self.install();
        ContextGuard { prev }
    }

    fn install(self) {
        CURRENT.with(|c| c.set(self.parent));
        DEPTH.with(|d| d.set(self.depth));
    }
}

/// Returned by [`SpanContext::enter`]; restores the previous context on
/// drop.
pub struct ContextGuard {
    prev: SpanContext,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        self.prev.install();
    }
}

/// Open a span bracketing the enclosing scope. Bind the guard:
/// `let _span = span!("inner_step", env = m);` — dropping it records
/// the span. Compiles to nothing when the `obs` feature is off (the
/// guard is `Option<SpanGuard>` and the fields are never rendered).
#[macro_export]
macro_rules! span {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::obs::enabled() {
            Some($crate::obs::trace::span_guard(
                $name,
                vec![$((stringify!($k).to_string(), format!("{}", $v))),*],
            ))
        } else {
            None
        }
    };
}

/// Record an instant trace event. Compiles to nothing when the `obs`
/// feature is off.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::obs::enabled() {
            $crate::obs::trace::instant_event(
                $name,
                vec![$((stringify!($k).to_string(), format!("{}", $v))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global and the test harness runs tests in
    // parallel, so these tests filter for their own (unique) span names
    // instead of assuming exclusive ownership of the ring/sinks.

    #[test]
    fn spans_nest_and_record_depth() {
        let t = tracer();
        {
            let _outer = span_guard("trace_test_outer", vec![]);
            {
                let _inner = span_guard("trace_test_inner", vec![("env".into(), "3".into())]);
            }
        }
        instant_event("trace_test_tick", vec![]);
        let ring = t.ring_snapshot();
        let mine: Vec<&TraceEvent> = ring
            .iter()
            .filter(|e| e.name.starts_with("trace_test_"))
            .collect();
        let names: Vec<&str> = mine.iter().map(|e| e.name.as_str()).collect();
        // Spans record at close: inner first, then outer, then the event.
        assert_eq!(
            names,
            ["trace_test_inner", "trace_test_outer", "trace_test_tick"]
        );
        assert_eq!(mine[0].depth, 1);
        assert_eq!(mine[0].parent, Some(mine[1].id));
        assert_eq!(mine[1].parent, None);
        assert_eq!(mine[2].parent, None);
        assert_eq!(mine[0].kind, EventKind::Span);
        assert_eq!(mine[0].fields, [("env".to_string(), "3".to_string())]);
        assert_eq!(mine[1].depth, 0);
        assert_eq!(mine[2].kind, EventKind::Event);
        assert!(mine[0].seq < mine[1].seq && mine[1].seq < mine[2].seq);
        assert_eq!(mine[0].thread, mine[1].thread);
    }

    #[test]
    fn sinks_receive_events_and_detach() {
        struct CountSink(AtomicU64);
        impl TraceSink for CountSink {
            fn on_event(&self, e: &TraceEvent) {
                if e.name.starts_with("sink_test_") {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let sink = Arc::new(CountSink(AtomicU64::new(0)));
        let t = tracer();
        let id = t.add_sink(sink.clone());
        instant_event("sink_test_a", vec![]);
        instant_event("sink_test_b", vec![]);
        t.remove_sink(id);
        instant_event("sink_test_c", vec![]);
        assert_eq!(sink.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn trace_event_serializes_to_json() {
        let ev = TraceEvent {
            seq: 7,
            thread: 1,
            id: 9,
            parent: Some(4),
            depth: 2,
            kind: EventKind::Span,
            name: "inner_step".into(),
            fields: vec![("env".into(), "0".into())],
            dur_ns: 1234,
        };
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.contains("\"inner_step\""), "{json}");
        assert!(json.contains("1234"), "{json}");
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["seq"], 7u64);
    }
}
