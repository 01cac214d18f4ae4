//! Spans recorded around calls into each layer, kept in memory and
//! written out when the run ends.
//!
//! A span has a name (`layer.part`), a start and an end, the span that
//! was open on the same thread when it began (its parent), and the
//! request it belongs to. A layer's self time is its spans' durations
//! minus the part their child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use straight_json::{obj, Json};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing span on the same thread; 0 for a root span.
    pub parent: u64,
    /// The request the span belongs to; 0 outside requests.
    pub request: u64,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            request: REQUEST.with(Cell::get),
            name,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
        out
    }

    /// Tags the spans this thread records from now on with `request`.
    pub fn set_request(&self, request: u64) {
        REQUEST.with(|r| r.set(request));
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// Self time per span name, plus what the root spans cover.
#[derive(Debug, Default)]
pub struct Profile {
    /// Self time per span name, nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration of root spans, nanoseconds.
    pub root_ns: u64,
    pub spans: usize,
}

impl Profile {
    pub fn of(spans: &[Span]) -> Profile {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for span in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(span.parent).or_default() += span.end_ns - span.start_ns;
        }
        let mut profile = Profile {
            spans: spans.len(),
            ..Profile::default()
        };
        for span in spans {
            let duration = span.end_ns - span.start_ns;
            let covered = child_ns.get(&span.id).copied().unwrap_or(0);
            *profile.self_ns.entry(span.name).or_default() += duration.saturating_sub(covered);
            if span.parent == 0 {
                profile.root_ns += duration;
            }
        }
        profile
    }

    /// Self time of every span whose name starts with `prefix`, seconds.
    pub fn self_s(&self, prefix: &str) -> f64 {
        let ns: u64 = self
            .self_ns
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Self time of every span whose name starts with `prefix`, ms.
    pub fn self_ms(&self, prefix: &str) -> f64 {
        self.self_s(prefix) * 1e3
    }
}

/// The cost of recording one empty span on this host, nanoseconds.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let tracer = Tracer::new();
    let started = Instant::now();
    for _ in 0..N {
        tracer.span("calibrate", || ());
    }
    started.elapsed().as_nanos() as f64 / f64::from(N)
}

/// Writes `spans` as a JSON array to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let items = spans
        .iter()
        .map(|s| {
            obj()
                .field("id", &s.id)
                .field("parent", &s.parent)
                .field("request", &s.request)
                .field("name", s.name)
                .field("thread", &s.thread)
                .field("start_ns", &s.start_ns)
                .field("end_ns", &s.end_ns)
                .build()
        })
        .collect();
    std::fs::write(path, Json::Arr(items).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new();
        tracer.span("outer", || {
            tracer.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = tracer.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        let profile = Profile::of(&spans);
        assert!(profile.self_ms("inner") >= 20.0);
        assert!(profile.self_ms("outer") < 5.0);
        assert_eq!(profile.root_ns, outer.end_ns - outer.start_ns);
    }
}
