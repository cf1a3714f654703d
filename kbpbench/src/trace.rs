//! In-memory spans around the benchmark's calls into each crate.
//!
//! No crate is instrumented: every span wraps a public call made from
//! this benchmark's own code. Spans are kept in memory while the run
//! measures and written out as JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    /// The op (request) the span belongs to.
    op: usize,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
}

/// Records spans relative to its creation time.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        (out, self.spans.len() - 1)
    }

    /// Records an already-measured interval as a span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
        self.spans.len() - 1
    }

    pub fn duration(&self, id: SpanId) -> Duration {
        let s = &self.spans[id];
        s.end.saturating_sub(s.start)
    }

    /// Per op, the summed duration (ms) of the spans named `name`; one
    /// value per op that has at least one.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.op).or_default() += crate::stats::ms(s.end.saturating_sub(s.start));
        }
        sums.into_values().collect()
    }

    /// Per span named `name`: its duration minus the summed durations of
    /// its direct children (ms).
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end.saturating_sub(s.start);
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                crate::stats::ms(s.end.saturating_sub(s.start)) - crate::stats::ms(children[i])
            })
            .collect()
    }

    /// Writes every span as one JSON line to `path`, creating its
    /// directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.op,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}
