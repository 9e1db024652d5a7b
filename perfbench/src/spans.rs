//! The traced replay's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into the program's
//! public functions — the program itself is not instrumented. Each span
//! keeps its name, start, end, parent and request id; spans are kept in
//! memory and read out once the replay ends. A span's *self time* is its
//! duration minus the part of it that its children cover (children of a
//! scatter run in parallel, so their intervals are unioned, not summed).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the recording (never 0).
    pub id: u32,
    /// The enclosing span's id, 0 for a root.
    pub parent: u32,
    /// The replayed request this span belongs to.
    pub request: u64,
    /// Layer-qualified name, e.g. `core.merge`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// The span's wall duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turns recording on or off. Off, [`enter`] returns an inert guard.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Takes every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"))
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct Guard {
    id: u32,
    parent: u32,
    request: u64,
    name: &'static str,
    start: u64,
    on_stack: bool,
}

impl Guard {
    /// The span id (0 when recording is off) — pass it to work running on
    /// another thread so its spans nest under this one.
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Opens a span under the innermost open span of this thread.
pub fn enter(name: &'static str, request: u64) -> Guard {
    let parent = STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
    open(name, request, parent)
}

/// Opens a span under an explicit parent, for work handed to another
/// thread (the scatter lanes).
pub fn enter_under(name: &'static str, request: u64, parent: u32) -> Guard {
    open(name, request, parent)
}

fn open(name: &'static str, request: u64, parent: u32) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { id: 0, parent: 0, request, name, start: 0, on_stack: false };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard { id, parent, request, name, start: now_ns(), on_stack: true }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.on_stack {
            return;
        }
        let end = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: self.name,
            start: self.start,
            end,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it. Returned in the input order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration().saturating_sub(covered)
        })
        .collect()
}

/// Summed self time per span name, over the spans of requests accepted by
/// `keep`.
pub fn self_ns_by_name(spans: &[Span], keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        if keep(s.request) {
            *out.entry(s.name).or_default() += self_ns;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span { id, parent, request: 0, name: "x", start, end }
    }

    #[test]
    fn self_time_unions_overlapping_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  // overlaps 2: parallel lanes
            span(4, 1, 80, 120), // clipped to the parent
            span(5, 2, 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 20, 30 - 10, 30, 40, 10]);
    }

    #[test]
    fn nested_guards_record_parents() {
        set_enabled(true);
        {
            let outer = enter("outer", 7);
            let outer_id = outer.id();
            {
                let _inner = enter("inner", 7);
            }
            let _cross = enter_under("cross", 7, outer_id);
        }
        set_enabled(false);
        let spans: Vec<Span> = take().into_iter().filter(|s| s.request == 7).collect();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        for name in ["inner", "cross"] {
            let s = spans.iter().find(|s| s.name == name).expect(name);
            assert_eq!(s.parent, outer.id, "{name} nests under outer");
        }
        assert!(enter("off", 7).id() == 0, "disabled recorder hands out inert guards");
    }
}
