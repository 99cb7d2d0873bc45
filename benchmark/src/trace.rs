//! Spans recorded from the benchmark's side of each public call.
//!
//! Spans stay in memory and are written out once, at exit. Every span is
//! timed whether or not it is recorded — those timings *are* the
//! end-to-end measurement — so "tracing on" adds exactly the recording.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    workload: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Operations the span covered (0 when it is not a counted batch).
    count: u64,
    /// A roll-up carries a duration measured elsewhere (a worker's own
    /// clock), not an interval on this process's timeline.
    rollup: bool,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Whether spans are being recorded.
    pub on: bool,
    /// Identifier shared by the spans of one workload.
    pub workload: &'static str,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            on: false,
            workload: "",
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f`; records it as a child of the innermost open span when
    /// recording is on. Returns `f`'s result and its seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.on {
            let t = Instant::now();
            let out = f(self);
            return (out, t.elapsed().as_secs_f64());
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            workload: self.workload,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            count: 0,
            rollup: false,
        });
        self.open.push(id);
        let out = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// How many spans are open; with [`Tracer::unwind_to`], lets a caller
    /// that catches a panic close the spans the panic left open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.now_ns();
        for id in self.open.drain(depth..) {
            self.spans[id].end_ns = now;
        }
    }

    /// Sets the operation count of the innermost open span.
    pub fn count(&mut self, ops: u64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].count = ops;
        }
    }

    /// Records time measured on another clock as a child of the innermost
    /// open span.
    pub fn rollup(&mut self, name: &'static str, seconds: f64, ops: u64) {
        let (Some(&parent), true) = (self.open.last(), self.on) else {
            return;
        };
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            workload: self.workload,
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
            parent: Some(parent),
            count: ops,
            rollup: true,
        });
    }

    /// The recorded spans as a JSON array. A span's `self_ns` is its
    /// duration minus its children's (roll-ups excluded: they overlap).
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in self.spans.iter().filter(|s| !s.rollup) {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"workload\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"count\": {}, \"rollup\": {}, \
                 \"self_ns\": {}}}{}",
                s.name,
                s.workload,
                s.start_ns,
                s.end_ns,
                s.count,
                s.rollup,
                dur.saturating_sub(child_ns[id]),
                if id + 1 == self.spans.len() { "" } else { "," },
            );
        }
        out.push_str("]\n");
        out
    }
}
