//! Spans recorded by the benchmark's own code around each call into a
//! layer of the system, kept in memory and written out when the run
//! ends.
//!
//! A span's layer is its name up to the first `.`; a layer's self time
//! is the sum, over its spans, of the span's duration minus the part of
//! it that the span's children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Ids of request-root spans: `REQUEST_ROOT | request`, so a thread that
/// records a child span before the root exists can still name its parent.
const REQUEST_ROOT: u64 = 1 << 48;

/// The run's time base: every timestamp is nanoseconds since `origin`.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// A clock starting now.
    pub fn new() -> Self {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// `layer.call`.
    pub name: &'static str,
    /// Start, ns on the run's [`Clock`].
    pub start: u64,
    /// End, ns on the run's [`Clock`].
    pub end: u64,
    /// Request the span belongs to; 0 outside requests.
    pub request: u64,
}

impl Span {
    /// The layer prefix of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh span id. Ids only need to be unique, so `Relaxed` suffices.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The id of request `request`'s root span.
pub fn request_root(request: u64) -> u64 {
    REQUEST_ROOT | request
}

/// A span that has started: see [`SpanLog::open`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The span's id, for its children to name as parent.
    pub id: u64,
    start: u64,
}

/// An in-memory span log. Disabled logs record nothing and cost one
/// branch per call, so timed runs can share code with the traced run.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a finished span.
    pub fn record(&mut self, span: Span) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Open a span: its id (0 when disabled) and start time.
    pub fn open(&self, clock: &Clock) -> Open {
        if self.enabled {
            Open {
                id: next_id(),
                start: clock.ns(),
            }
        } else {
            Open { id: 0, start: 0 }
        }
    }

    /// Close `open` as a span named `name` under `parent`; returns its id.
    pub fn close(&mut self, clock: &Clock, open: Open, name: &'static str, parent: u64) -> u64 {
        if self.enabled {
            self.spans.push(Span {
                id: open.id,
                parent,
                name,
                start: open.start,
                end: clock.ns(),
                request: 0,
            });
        }
        open.id
    }

    /// Run `f` inside a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        clock: &Clock,
        name: &'static str,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(clock);
        let out = f();
        self.close(clock, open, name, parent);
        out
    }

    /// Move another log's spans into this one.
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per layer, in ns.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(s.start, s.end, c));
            *by_layer.entry(s.layer()).or_default() += (s.end - s.start).saturating_sub(covered);
        }
        by_layer
    }

    /// Write the spans as tab-separated lines (`id parent name start_ns
    /// end_ns request`), at most `cap` of them, and return how many were
    /// left out.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_tsv(&self, path: &std::path::Path, cap: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\trequest")?;
        for s in self.spans.iter().take(cap) {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()?;
        Ok(self.spans.len().saturating_sub(cap))
    }
}

/// Length of the union of `intervals` clipped to `[start, end)`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut log = SpanLog::new(true);
        log.record(span(1, 0, "driver.request", 0, 100));
        // Overlapping children cover [10, 50) and [60, 70): 50 ns.
        log.record(span(2, 1, "shard.submit", 10, 40));
        log.record(span(3, 1, "engine.wait", 30, 50));
        log.record(span(4, 1, "engine.wait", 60, 70));
        // A grandchild only reduces its own parent.
        log.record(span(5, 3, "bundle.score", 35, 45));
        let t = log.self_time_by_layer();
        assert_eq!(t["driver"], 50);
        assert_eq!(t["shard"], 30);
        assert_eq!(t["engine"], 20 - 10 + 10);
        assert_eq!(t["bundle"], 10);
    }

    #[test]
    fn disabled_log_records_nothing() {
        let clock = Clock::new();
        let mut log = SpanLog::new(false);
        assert_eq!(log.time(&clock, "gbdt.fit", 0, || 7), 7);
        assert_eq!(log.open(&clock).id, 0);
        assert!(log.spans().is_empty());
    }
}
