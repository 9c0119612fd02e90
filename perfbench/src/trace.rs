//! Outside-in span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public functions — nothing inside the program is instrumented.
//! Each span carries a name, start and end (nanoseconds since the tracer was
//! created) and the span that was open on the same thread when it started.
//! Spans and counts stay in memory until [`Tracer::write_json`] writes them
//! out at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span and counter store.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }
}

/// Open span; records itself when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: usize,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == self.id) {
                open.remove(pos);
            }
        });
        // A poisoned store only loses this span; Drop must not panic.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(Span {
                id: self.id,
                name: self.name,
                parent: self.parent,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

impl SpanGuard<'_> {
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span whose parent is the innermost span open on this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let parent = OPEN.with(|open| open.borrow().last().copied());
        self.span_under(name, parent)
    }

    /// Opens a span with an explicit parent (for work handed to other
    /// threads, where the thread-local stack does not know the caller).
    pub fn span_under(&self, name: &'static str, parent: Option<usize>) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard {
            tracer: self,
            id,
            name,
            parent,
            start_ns: self.now_ns(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Runs `f` inside a span named `name` when there is a tracer, and
    /// plainly when there is none, so one code path serves the traced and
    /// the untraced run.
    pub fn maybe_time<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match tracer {
            Some(tracer) => tracer.time(name, f),
            None => f(),
        }
    }

    /// Adds `n` to the named counter.
    pub fn count(&self, name: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .expect("no thread panics while holding the tracer lock")
            .entry(name)
            .or_insert(0) += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("no thread panics while holding the tracer lock")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Durations in seconds of every span with this name, in end order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn calls(&self, name: &str) -> usize {
        self.durations(name).len()
    }

    /// One line per span name (calls and total seconds) and per counter, in
    /// name order.
    pub fn summary(&self) -> Vec<String> {
        let mut spans: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in self
            .spans
            .lock()
            .expect("no thread panics while holding the tracer lock")
            .iter()
        {
            let entry = spans.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.seconds();
        }
        let mut lines: Vec<String> = spans
            .into_iter()
            .map(|(name, (calls, total))| format!("span {name} calls {calls} total_s {total:.6}"))
            .collect();
        for (name, n) in self
            .counts
            .lock()
            .expect("no thread panics while holding the tracer lock")
            .iter()
        {
            lines.push(format!("count {name} {n}"));
        }
        lines
    }

    /// Writes every span and counter as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self
            .spans
            .lock()
            .expect("no thread panics while holding the tracer lock")
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n],\"counts\":{");
        for (i, (name, n)) in self
            .counts
            .lock()
            .expect("no thread panics while holding the tracer lock")
            .iter()
            .enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{n}");
        }
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}
