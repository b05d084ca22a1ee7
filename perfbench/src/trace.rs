//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Spans live in memory (name, parent, start, end) and are written out once
//! the traced run ends, next to the program's own dcfail-obs export, so the
//! self time of each layer can be cross-checked against the span tree
//! `repro metrics` prints. Nothing here reaches inside the program.

use crate::util::Metrics;
use std::fmt::Write as _;
use std::time::Instant;

struct SpanRec {
    name: String,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: Option<u128>,
}

/// In-memory span recorder plus the per-layer metrics of a traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    /// Per-layer metrics gathered so far.
    pub metrics: Metrics,
    /// `(workload, dcfail-obs JSON export)` of each traced pass.
    obs: Vec<(&'static str, String)>,
}

/// Handle of an open span.
#[must_use = "close the span to record its duration"]
pub struct SpanId(usize);

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            metrics: Metrics::default(),
            obs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u128 {
        self.origin.elapsed().as_nanos()
    }

    /// Opens a span nested under the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) -> SpanId {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: None,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span (and any left open inside it); returns its length in ms.
    pub fn close(&mut self, span: SpanId) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = Some(now);
            if top == span.0 {
                break;
            }
        }
        (now - self.spans[span.0].start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span; returns its result and length in ms.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name);
        let out = f();
        let ms = self.close(span);
        (out, ms)
    }

    /// Keeps a dcfail-obs export for the trace file.
    pub fn keep_obs(&mut self, workload: &'static str, json: String) {
        self.obs.push((workload, json));
    }

    /// The trace document: every span with its self time (duration minus
    /// the part its children cover), then the dcfail-obs exports.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut child_ns = vec![0u128; self.spans.len()];
        for span in &self.spans {
            if let (Some(parent), Some(end)) = (span.parent, span.end_ns) {
                child_ns[parent] += end - span.start_ns;
            }
        }
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (i, span) in self.spans.iter().enumerate() {
            let end = span.end_ns.unwrap_or(span.start_ns);
            let total = end - span.start_ns;
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ms\": {:.3}, \"ms\": {:.3}, \"self_ms\": {:.3}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_ns as f64 / 1e6,
                total as f64 / 1e6,
                total.saturating_sub(child_ns[i]) as f64 / 1e6
            );
        }
        out.push_str("\n], \"obs\": {");
        for (i, (name, json)) in self.obs.iter().enumerate() {
            let _ = write!(out, "{}\n\"{name}\": {json}", if i == 0 { "" } else { "," });
        }
        out.push_str("\n}}\n");
        out
    }
}
