//! Spans and counts recorded around calls into each crate's public API.
//!
//! With tracing off every entry point is a plain call, so the untraced
//! runs that report end-to-end metrics pay one branch per span. With it
//! on, spans (name, parent, start, end) are kept in memory and written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::clock::CpuStopwatch;

/// One recorded span. Times are host seconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// Totals of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotal {
    pub count: u64,
    /// Summed duration, seconds.
    pub total: f64,
    /// Summed duration minus the time covered by child spans, seconds.
    pub self_time: f64,
}

/// The in-memory trace of one run.
pub struct Tracer {
    on: bool,
    epoch: CpuStopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: CpuStopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Switches recording on or off between phases of a run.
    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed_secs(),
            end: 0.0,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end = self.epoch.elapsed_secs();
        r
    }

    /// Adds `n` to the count called `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += n;
        }
    }

    /// A recorded count (0 when never counted).
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Durations of every span called `name`, seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Per-name totals with self time (duration minus child spans).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total += s.end - s.start;
            t.self_time += (s.end - s.start) - child[i];
        }
        out
    }

    /// Writes the spans (one JSON object per line) and the counts to
    /// `path`, creating its directory.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.name, s.start, s.end
            );
        }
        for (name, n) in &self.counts {
            let _ = writeln!(out, "{{\"count\":\"{name}\",\"value\":{n}}}");
        }
        std::fs::write(path, out)
    }
}
