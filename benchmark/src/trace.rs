//! In-memory spans around the calls into each layer.
//!
//! This change may not edit the program, so the spans are recorded from
//! the benchmark's side of every layer boundary. They are kept in memory
//! and written out when the benchmark ends.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One timed call group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// What was called, e.g. `admit_classified`.
    pub name: String,
    /// The layer (module) the call belongs to, e.g. `telescope.admit`.
    pub layer: String,
    /// The workload being traced.
    pub workload: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the trace, if any. A parent always
    /// precedes its children.
    pub parent: Option<usize>,
    /// Records (or attempts, offers) the call group handled.
    pub records: u64,
}

/// Records spans for one workload.
#[derive(Debug)]
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, layer: &str, name: &str) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer: layer.to_string(),
            workload: self.workload.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            records: 0,
        });
        self.open.push(index);
        index
    }

    /// Closes span `index` and returns its duration in seconds.
    pub fn exit(&mut self, index: usize, records: u64) -> f64 {
        let end_ns = self.now_ns();
        debug_assert_eq!(
            self.open.last(),
            Some(&index),
            "spans close innermost first"
        );
        self.open.retain(|open| *open != index);
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.records = records;
        (end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `work` inside a span; `work` returns its result and the
    /// number of records it handled.
    pub fn span<T>(&mut self, layer: &str, name: &str, work: impl FnOnce() -> (T, u64)) -> T {
        let index = self.enter(layer, name);
        let (value, records) = work();
        self.exit(index, records);
        value
    }

    /// Seconds spent in spans of `layer` at or after span index `from`.
    pub fn busy_s(&self, layer: &str, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|span| span.layer == layer)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}
