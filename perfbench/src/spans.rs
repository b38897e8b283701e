//! The harness's own span recorder for traced runs.
//!
//! Spans are recorded around each call the benchmark makes into a
//! layer, never inside the program. They stay in memory and are written
//! out once, at the end of a traced run, as chrome://tracing JSON. With
//! recording off every call is a branch on a flag.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span plus one; 0 for a root.
    parent: usize,
    /// Request id (the serving sequence number plus one), 0 if none.
    request: u64,
}

/// In-memory span log for one thread of the harness.
pub struct Spans {
    on: bool,
    origin: Instant,
    done: RefCell<Vec<Span>>,
    /// Indices (plus one) of the spans currently open, innermost last.
    open: RefCell<Vec<usize>>,
}

/// An open span; closes when dropped.
pub struct Guard<'a> {
    spans: &'a Spans,
    index: usize,
}

impl Spans {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            done: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, a child of the innermost open span.
    pub fn enter(&self, name: &str) -> Option<Guard<'_>> {
        if !self.on {
            return None;
        }
        let parent = self.open.borrow().last().copied().unwrap_or(0);
        let mut done = self.done.borrow_mut();
        done.push(Span {
            name: name.to_owned(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request: 0,
        });
        let index = done.len();
        self.open.borrow_mut().push(index);
        Some(Guard { spans: self, index })
    }

    /// Records an already-finished span for request `request` under the
    /// innermost open span (serving spans are reconstructed from the
    /// timings a response reports).
    pub fn record(&self, name: &str, start_ns: u64, end_ns: u64, request: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.borrow().last().copied().unwrap_or(0);
        self.done.borrow_mut().push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            request,
        });
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.done.borrow().len()
    }

    /// chrome://tracing JSON of every recorded span (`X` events, with
    /// parent and request ids as args).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.done.borrow().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"request\": {}}}}}",
                s.name,
                if s.request == 0 { 1 } else { 2 },
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i + 1,
                s.parent,
                s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end = self.spans.now_ns();
        self.spans.done.borrow_mut()[self.index - 1].end_ns = end;
        let mut open = self.spans.open.borrow_mut();
        if let Some(pos) = open.iter().rposition(|&i| i == self.index) {
            open.remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let spans = Spans::new(true);
        {
            let _outer = spans.enter("outer");
            let _inner = spans.enter("inner");
            spans.record("serve.request", 1, 2, 7);
        }
        assert_eq!(spans.len(), 3);
        let json = spans.to_chrome_json();
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"parent\": 2, \"request\": 7"));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let spans = Spans::new(false);
        assert!(spans.enter("x").is_none());
        spans.record("y", 0, 1, 1);
        assert_eq!(spans.len(), 0);
    }
}
