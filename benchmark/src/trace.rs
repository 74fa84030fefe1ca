//! In-memory span recorder for `--trace 1` runs.
//!
//! A span is a named wall-clock interval with a parent, recorded by the
//! benchmark around each call it makes into a library layer. Spans go into a
//! buffer owned by the recording thread (no lock on the hot path); a
//! thread's buffer moves to a shared sink when the thread exits, and
//! [`drain`] collects everything once the run is over.
//!
//! Recording is off until [`enable`] is called. While off, [`span`] costs
//! one relaxed atomic load and records nothing, so untraced runs measure the
//! program and not the recorder. A traced run switches recording on and
//! off between requests (see `harness::Clock`), so traced and untraced
//! requests interleave in one process and their rates give the recorder's
//! overhead.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span, possibly recorded on another thread.
    pub parent: Option<u64>,
    /// Layer-qualified name, such as `scheduler.run`.
    pub name: &'static str,
    /// Recorder-assigned thread number.
    pub thread: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// The span as one JSON object on one line.
    pub fn json_line(&self) -> String {
        let parent = self
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            self.id, self.name, self.thread, self.start_ns, self.end_ns
        )
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
/// Buffers of threads that have exited, plus whatever [`drain`] flushed.
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// A thread's open-span stack and finished spans.
struct Local {
    thread: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Drop for Local {
    fn drop(&mut self) {
        // Runs at thread exit; must not panic, so a poisoned sink is
        // recovered rather than unwrapped (every push leaves it valid).
        let mut sink = SINK.lock().unwrap_or_else(|e| e.into_inner());
        sink.append(&mut self.spans);
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        spans: Vec::new(),
    });
}

/// Start recording spans.
pub fn enable() {
    epoch();
    set_enabled(true);
}

/// Switch recording on or off, keeping what was recorded.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Recording switched off for this guard's lifetime (for work that is not
/// part of the workload, such as a correctness gate), then restored.
pub struct Paused(bool);

impl Paused {
    /// Pause recording until the guard drops.
    pub fn new() -> Paused {
        let was = enabled();
        set_enabled(false);
        Paused(was)
    }
}

impl Drop for Paused {
    fn drop(&mut self) {
        set_enabled(self.0);
    }
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; records itself when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Guard {
    /// 0 when recording is off.
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.stack.last() == Some(&self.id) {
                l.stack.pop();
            }
            let thread = l.thread;
            l.spans.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                thread,
                start_ns: self.start_ns,
                end_ns,
            });
        });
    }
}

/// Open a span whose parent is the innermost open span on this thread.
pub fn span(name: &'static str) -> Guard {
    span_under(None, name)
}

/// Open a span on a worker thread under `parent`, a span opened on the
/// thread that handed the work over (see [`current`]). The innermost open
/// span on this thread still wins when there is one.
pub fn span_under(parent: Option<u64>, name: &'static str) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: None,
            name,
            start_ns: 0,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let own = l.stack.last().copied();
        l.stack.push(id);
        own.or(parent)
    });
    Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    }
}

/// The innermost open span on this thread, to hand to work that other
/// threads run on its behalf.
pub fn current() -> Option<u64> {
    if !enabled() {
        return None;
    }
    LOCAL.with(|l| l.borrow().stack.last().copied())
}

/// Stop recording and take every span recorded so far: this thread's
/// buffer plus those of threads that have exited.
pub fn drain() -> Vec<Span> {
    set_enabled(false);
    let mut own = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    let mut sink = SINK.lock().expect("span sink poisoned");
    own.append(&mut sink);
    own.sort_by_key(|s| (s.start_ns, s.id));
    own
}

/// Each span's self time in seconds: its length minus the part of it that
/// its children cover. Children may run on other threads and overlap each
/// other; the covered part is the union of their intervals, clipped to the
/// parent's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| union_len(c, s.start_ns, s.end_ns));
            (s.end_ns - s.start_ns - covered) as f64 * 1e-9
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Serializes the tests that run workloads or switch the recorder: the
/// recording flag is process-wide, and a workload's clock toggles it when it
/// starts with recording on.
#[cfg(test)]
pub fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // 0..100 with children 10..30 and 50..90; the second has a child
        // 60..70 that must not be subtracted from the root again.
        let spans = [
            sp(1, None, 0, 0, 100),
            sp(2, Some(1), 0, 10, 30),
            sp(3, Some(1), 0, 50, 90),
            sp(4, Some(3), 0, 60, 70),
        ];
        let self_ns: Vec<f64> = self_times(&spans).iter().map(|s| s * 1e9).collect();
        let expect = [40.0, 20.0, 30.0, 10.0];
        for (got, want) in self_ns.iter().zip(expect) {
            assert!((got - want).abs() < 1e-6, "{self_ns:?}");
        }
        // Self times of a serial tree add up to the root's length.
        assert!((self_ns.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn overlapping_cross_thread_children_count_their_union() {
        // Two workers run children 10..60 and 40..80 under a root on
        // another thread; one child pokes past the root's end.
        let spans = [
            sp(1, None, 0, 0, 100),
            sp(2, Some(1), 1, 10, 60),
            sp(3, Some(1), 2, 40, 80),
            sp(4, Some(1), 1, 95, 120),
        ];
        let root_self = self_times(&spans)[0] * 1e9;
        assert!((root_self - 25.0).abs() < 1e-6, "{root_self}");
    }

    #[test]
    fn recorder_links_worker_spans_to_the_handing_thread() {
        let _serial = serial();
        enable();
        let (outer_id, inner_parent) = {
            let _outer = span("test.outer");
            let outer = current();
            let inner_parent = std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = span_under(outer, "test.worker");
                    let _nested = span("test.nested");
                })
                .join()
                .expect("worker thread");
                outer
            });
            (outer, inner_parent)
        };
        let spans = drain();
        let find = |name: &str| {
            spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} recorded"))
                .clone()
        };
        let (outer, worker, nested) =
            (find("test.outer"), find("test.worker"), find("test.nested"));
        assert_eq!(Some(outer.id), outer_id);
        assert_eq!(worker.parent, inner_parent);
        assert_eq!(nested.parent, Some(worker.id));
        assert_ne!(worker.thread, outer.thread);
        assert!(outer.start_ns <= worker.start_ns && worker.end_ns <= outer.end_ns);
        assert!(worker.json_line().contains("\"name\":\"test.worker\""));
    }
}
