//! In-memory span recording for traced runs: every call the benchmark makes
//! into a layer's public function can be wrapped in a named span carrying
//! its start, end, parent and request id. Spans are kept in memory and
//! written out once at the end, so recording costs a clock read and a push.

use std::collections::BTreeMap;
use std::time::Instant;

use hybrid_sim::{Recorder, TraceEvent};

/// One closed span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `request` or `prepare:sssp`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Tracer`], if any.
    pub parent: Option<usize>,
    /// The request (or probe) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall time in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder. A disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `epoch`; records only when `on`.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer { on, epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// A recording tracer on the same clock (for a separate span set).
    pub fn fork(&self) -> Tracer {
        Tracer::new(true, self.epoch)
    }

    /// Turns recording on or off from the next span on.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (nested under any open span).
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Imports the program's own `SpanBegin`/`SpanEnd` events from `rec` as
    /// children of the innermost open span. `rec_epoch_ns` is this tracer's
    /// clock at the moment the recorder was created (its `wall_us` zero).
    pub fn import(&mut self, rec: &Recorder, rec_epoch_ns: u64, request: u64) {
        if !self.on {
            return;
        }
        let root = self.open.last().copied();
        let mut stack: Vec<usize> = Vec::new();
        for ev in rec.events() {
            match ev {
                TraceEvent::SpanBegin { name, wall_us, .. } => {
                    let id = self.spans.len();
                    let start_ns = rec_epoch_ns + wall_us * 1000;
                    let parent = stack.last().copied().or(root);
                    self.spans.push(Span {
                        name: name.clone(),
                        start_ns,
                        end_ns: start_ns,
                        parent,
                        request,
                    });
                    stack.push(id);
                }
                TraceEvent::SpanEnd { wall_us, .. } => {
                    if let Some(id) = stack.pop() {
                        self.spans[id].end_ns = rec_epoch_ns + wall_us * 1000;
                    }
                }
                _ => {}
            }
        }
    }

    /// Appends another tracer's spans (e.g. a client thread's), re-basing
    /// parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name, in nanoseconds. A span's self
    /// time is its wall time minus its direct children's.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(group(&s.name)).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(*c);
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                crate::report::json_str(&s.name),
                s.start_ns,
                s.end_ns,
                s.request
            ));
        }
        out.push_str("\n]");
        out
    }
}

/// Span names grouped for the self-time table: per-query program spans
/// (`solve:apsp-thm11`, `prepare:apsp3:skeleton`) fold into their kind.
fn group(name: &str) -> String {
    match name.split_once(':') {
        Some((kind @ ("solve" | "prepare"), _)) => format!("{kind}:*"),
        _ => name.to_string(),
    }
}
