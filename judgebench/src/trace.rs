//! Spans of the traced run, Dapper-style: every span names its call, its
//! parent span and the docket it belongs to, so one docket's spans join
//! on the docket id. Spans are kept in memory and written when the run
//! ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::stats::json_string;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub docket: u64,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// Span id allocator and clock epoch shared by every thread of a run.
pub struct SpanLog {
    epoch: Instant,
    next: AtomicU64,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
        }
    }

    /// A fresh span id (for a parent whose span is recorded later).
    pub fn next_id(&self) -> u64 {
        // A unique counter publishes no other data.
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A child span of `parent`.
    pub fn span(
        &self,
        name: &'static str,
        parent: u64,
        docket: u64,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            id: self.next_id(),
            parent,
            name,
            docket,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        }
    }

    /// A root span under a pre-allocated id.
    pub fn root(&self, id: u64, name: &'static str, docket: u64, start: Instant, end: Instant) -> Span {
        Span {
            id,
            parent: 0,
            name,
            docket,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        }
    }

    /// Times `call` as a child span of `parent`, appending it to `spans`.
    pub fn timed<T>(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        parent: u64,
        docket: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = call();
        spans.push(self.span(name, parent, docket, start, Instant::now()));
        value
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"docket\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            json_string(s.name),
            s.docket,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
