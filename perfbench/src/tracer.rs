//! Spans around the benchmark's calls into the program's layers.
//!
//! Spans are kept in memory and written as one JSON file when the run
//! ends. Untraced runs hold a disabled tracer, whose `span` only runs
//! the closure.

use crate::stats::{json_number, json_string, Metric};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Benchmark (or tenant) the call worked on.
    pub subject: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f`, recording it as span `name` when tracing is on.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        subject: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            subject,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records a span measured elsewhere (a phase the program timed
    /// itself), ending now.
    pub fn record(&mut self, name: &'static str, subject: &'static str, secs: f64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            subject,
            start_ns: end_ns.saturating_sub((secs * 1e9) as u64),
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Appends the spans another tracer (another thread's) recorded,
    /// rebased onto this tracer's clock.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Self time per span name: duration minus the time covered by
    /// direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += s.secs() - child[i];
        }
        out
    }

    /// Writes the spans and the run's per-layer metrics (with their
    /// spreads) as one JSON document, the input of `--compare`.
    pub fn write(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
        metrics: &[Metric],
    ) -> std::io::Result<()> {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \"metrics\": {{",
            json_string(workload)
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}, \"spread\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit),
                json_number(m.spread)
            );
        }
        out.push_str("}, \"self_s\": {");
        for (i, (name, secs)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}: {}", json_string(name), json_number(*secs));
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": {}, \"subject\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                json_string(s.name),
                json_string(s.subject),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
