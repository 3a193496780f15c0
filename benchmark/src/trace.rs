//! The benchmark's own tracing: spans around each layer call, and a
//! counting global allocator that is off unless a traced rep turns it on.
//!
//! Spans are always recorded — a rep opens about a dozen — because they
//! are how the rep times itself. The allocator counts only after
//! [`start_heap_counting`]; until then each allocation pays one relaxed
//! atomic load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use serde_json::{json, Value};

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in the same recording.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations made inside the span (0 unless counting).
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The span as a `spans.json` record, tagged with its rep.
    pub fn to_json(&self, rep: usize, workload: &str, self_ns: u64) -> Value {
        json!({
            "rep": rep,
            "workload": workload,
            "name": self.name,
            "parent": self.parent.map_or(Value::Null, Value::from),
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "self_ns": self_ns,
            "allocs": self.allocs,
        })
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Runs `f` inside a span named `name`, nested under the innermost open
/// span of this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = RECORDER.with_borrow_mut(|r| {
        let idx = r.spans.len();
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        r.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: ALLOCS.load(Relaxed),
        });
        r.open.push(idx);
        idx
    });
    let out = f();
    RECORDER.with_borrow_mut(|r| {
        let end_ns = r.origin.elapsed().as_nanos() as u64;
        let s = &mut r.spans[idx];
        s.end_ns = end_ns;
        s.allocs = ALLOCS.load(Relaxed) - s.allocs;
        r.open.pop();
    });
    out
}

/// Takes every span recorded on this thread so far and restarts the
/// clock, so each rep run in one process starts from zero.
pub fn take_spans() -> Vec<Span> {
    RECORDER.with_borrow_mut(|r| {
        assert!(r.open.is_empty(), "spans taken while one is still open");
        r.origin = Instant::now();
        std::mem::take(&mut r.spans)
    })
}

/// Self time of `spans[i]`: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    let (lo, hi) = (spans[i].start_ns, spans[i].end_ns);
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi)))
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (hi - lo) - covered
}

/// Self time of the first span named `name`, in seconds (0 if absent).
pub fn self_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .position(|s| s.name == name)
        .map_or(0.0, |i| self_ns(spans, i) as f64 / 1e9)
}

/// Total duration of every span named `name`, in seconds.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The system allocator, counting allocations and live bytes while
/// [`start_heap_counting`] is in effect.
pub struct CountingAlloc;

fn on_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only read the
// layout sizes and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: the caller's layout obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            on_alloc(new_size);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for that alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns allocation counting on for the rest of the process.
pub fn start_heap_counting() {
    COUNTING.store(true, Relaxed);
}

/// Allocations counted so far.
pub fn heap_allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Highest live heap bytes seen while counting.
pub fn heap_peak_bytes() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            at("rep", None, 0, 100),
            at("setup", Some(0), 10, 30),
            at("setup.prepare", Some(1), 12, 20),
            at("serve", Some(0), 40, 90),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 20 - 50);
        assert_eq!(self_ns(&spans, 1), 20 - 8);
        assert_eq!(self_ns(&spans, 2), 8);
        assert_eq!(self_ns(&spans, 3), 50);
        assert_eq!(self_secs(&spans, "serve"), 50e-9);
        assert_eq!(self_secs(&spans, "absent"), 0.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            at("parent", None, 0, 100),
            at("a", Some(0), 10, 50),
            at("b", Some(0), 40, 60),
            at("c", Some(0), 90, 120),
        ];
        // Covered: [10, 60) and [90, 100) -> 60 ns.
        assert_eq!(self_ns(&spans, 0), 40);
    }

    #[test]
    fn recorded_spans_nest_and_restart_per_take() {
        take_spans();
        span("outer", || span("inner", || std::hint::black_box(1 + 1)));
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(take_spans().is_empty());
    }
}
