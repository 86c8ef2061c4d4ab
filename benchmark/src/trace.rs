//! In-memory spans around calls into each layer's public functions.
//!
//! A traced request is two root spans sharing one request id:
//! `request` (which contains the `seam` span — the real call through
//! `AccessService`/`MutateService`, the interval the untraced run
//! times) and `replay` (which contains one span per lower layer, each a
//! direct call of that layer's public function with the request's own
//! arguments). Layers are timed from outside: the replay spans stand in
//! for the children the seam span would have if the program recorded
//! spans itself (ROADMAP item 2).
//!
//! The layer table built from these durations is in `layers`.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for `trace.json`; later requests are still timed, just
/// not stored (a ten-second run makes millions).
const MAX_SPANS: usize = 200_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    request: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u64,
    storing: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            storing: true,
        }
    }

    /// Starts a new request: spans opened until the next call carry
    /// its id. Storing stops at a request boundary, so every stored
    /// request is whole.
    pub fn next_request(&mut self) {
        self.request += 1;
        self.storing = self.spans.len() + 64 <= MAX_SPANS;
    }

    /// Requests traced so far (stored or not).
    pub fn requests(&self) -> u64 {
        self.request
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost
    /// open span. Returns `f`'s result and the span's duration in ns.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let start_ns = self.now();
        if !self.storing {
            let out = f(self);
            return (out, self.now() - start_ns);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end_ns = self.now();
        self.spans[id as usize].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// Writes the stored spans as JSON (`id` is the array index).
    pub fn write_json(&self, workload: &str, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"requests_traced\":{},\"spans_stored\":{},\"spans\":[",
            self.request,
            self.spans.len()
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"request\":{}}}", s.request);
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}
