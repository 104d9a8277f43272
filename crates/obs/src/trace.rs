//! Span-based tracing into bounded per-thread ring buffers.
//!
//! A [`Span`] is a RAII guard: created by [`span`] when the work starts,
//! recorded into the calling thread's ring when dropped. With tracing
//! disabled (the default) `span` is one relaxed atomic load and a branch —
//! no clock read, no allocation, no lock — so instrumentation can stay in
//! hot paths permanently.
//!
//! Rings are bounded ([`RING_CAPACITY`] spans per thread); overflow drops
//! the *oldest* completed spans and counts them in [`dropped_spans`].
//! Because spans are recorded at *end* time, the survivors of an overflow
//! are the most recently finished spans; the Chrome exporter writes each
//! survivor as one complete event with its own start and duration, so losing
//! inner spans never breaks the output.
//!
//! Timestamps are microseconds since the first span of the process (a lazily
//! initialised `Instant` epoch), which keeps numbers small and keeps
//! absolute wall-clock out of any artifact.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Max completed spans retained per thread before the oldest are dropped.
pub const RING_CAPACITY: usize = 16 * 1024;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Turn span recording on or off process-wide.
pub fn set_tracing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are currently being recorded.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Spans dropped to ring overflow since the last [`take_spans`].
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// One completed span, as drained by [`take_spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Static stage name, e.g. `"sim.capture"`.
    pub name: &'static str,
    /// Optional numeric argument (wave number, launch index, ...).
    pub arg: Option<u64>,
    /// Small dense id of the recording thread.
    pub tid: u32,
    /// Nesting depth at open time (0 = top level on that thread).
    pub depth: u32,
    /// Per-thread open order; later-opened spans have larger `seq`.
    pub seq: u64,
    /// Open time, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs (zero-length spans allowed).
    pub dur_us: u64,
}

struct Ring {
    spans: VecDeque<SpanRec>,
}

struct ThreadState {
    ring: Arc<Mutex<Ring>>,
    tid: u32,
    depth: u32,
    seq: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn all_rings() -> &'static Mutex<Vec<Arc<Mutex<Ring>>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Mutex<Ring>>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static STATE: std::cell::RefCell<Option<ThreadState>> = const { std::cell::RefCell::new(None) };
}

fn with_state<R>(f: impl FnOnce(&mut ThreadState) -> R) -> Option<R> {
    static NEXT_TID: AtomicUsize = AtomicUsize::new(0);
    // try_with: a span guard may drop during thread teardown after the TLS
    // slot is destroyed; in that case the span is silently lost.
    STATE
        .try_with(|cell| {
            let mut cell = cell.borrow_mut();
            let state = cell.get_or_insert_with(|| {
                let ring = Arc::new(Mutex::new(Ring { spans: VecDeque::new() }));
                all_rings().lock().unwrap().push(ring.clone());
                ThreadState {
                    ring,
                    tid: NEXT_TID.fetch_add(1, Ordering::Relaxed) as u32,
                    depth: 0,
                    seq: 0,
                }
            });
            f(state)
        })
        .ok()
}

/// RAII span guard; records into the thread ring when dropped.
pub struct Span {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    name: &'static str,
    arg: Option<u64>,
    start: Instant,
    start_us: u64,
    depth: u32,
    seq: u64,
}

/// Open a span named `name`. Near-free when tracing is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !tracing_enabled() {
        return Span { open: None };
    }
    span_slow(name, None)
}

/// Open a span with a numeric argument (wave number, launch index, ...).
#[inline]
pub fn span_n(name: &'static str, arg: u64) -> Span {
    if !tracing_enabled() {
        return Span { open: None };
    }
    span_slow(name, Some(arg))
}

#[cold]
fn span_slow(name: &'static str, arg: Option<u64>) -> Span {
    let ep = epoch();
    let start = Instant::now();
    let start_us = start.duration_since(ep).as_micros() as u64;
    let opened = with_state(|st| {
        let (depth, seq) = (st.depth, st.seq);
        st.depth += 1;
        st.seq += 1;
        (depth, seq)
    });
    match opened {
        Some((depth, seq)) => {
            Span { open: Some(OpenSpan { name, arg, start, start_us, depth, seq }) }
        }
        None => Span { open: None },
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else { return };
        let dur_us = open.start.elapsed().as_micros() as u64;
        let rec = SpanRec {
            name: open.name,
            arg: open.arg,
            tid: 0, // overwritten below once the thread state is known
            depth: open.depth,
            seq: open.seq,
            start_us: open.start_us,
            dur_us,
        };
        with_state(|st| {
            st.depth = st.depth.saturating_sub(1);
            let mut ring = st.ring.lock().unwrap();
            if ring.spans.len() >= RING_CAPACITY {
                ring.spans.pop_front();
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
            ring.spans.push_back(SpanRec { tid: st.tid, ..rec });
        });
    }
}

/// Drain every thread's ring, returning all completed spans recorded since
/// the previous drain. Also resets the dropped-span counter.
pub fn take_spans() -> Vec<SpanRec> {
    DROPPED.store(0, Ordering::Relaxed);
    let rings = all_rings().lock().unwrap();
    let mut out = Vec::new();
    for ring in rings.iter() {
        out.extend(ring.lock().unwrap().spans.drain(..));
    }
    out
}

/// Aggregate spans by name into a human stage-timing table: calls, total
/// and mean self-reported duration, sorted by total descending.
pub fn stage_summary(spans: &[SpanRec]) -> String {
    let mut agg: std::collections::BTreeMap<&'static str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for s in spans {
        let e = agg.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += s.dur_us;
    }
    let mut rows: Vec<(&'static str, u64, u64)> =
        agg.into_iter().map(|(n, (c, t))| (n, c, t)).collect();
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0).max(5);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$}  {:>8}  {:>12}  {:>12}\n",
        "stage", "calls", "total_us", "mean_us"
    ));
    for (name, calls, total) in rows {
        let mean = total as f64 / calls as f64;
        out.push_str(&format!("{name:<width$}  {calls:>8}  {total:>12}  {mean:>12.1}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share process-global tracing state, so everything that toggles
    // the enabled flag lives in this single test to avoid interleaving.
    #[test]
    fn spans_record_when_enabled_and_not_when_disabled() {
        // Disabled: no spans recorded.
        set_tracing(false);
        take_spans();
        {
            let _s = span("test.disabled");
        }
        assert!(take_spans().is_empty());

        // Enabled: nesting depths and args are captured.
        set_tracing(true);
        {
            let _outer = span("test.outer");
            let _inner = span_n("test.inner", 42);
        }
        set_tracing(false);
        let mut spans = take_spans();
        spans.sort_by_key(|s| s.seq);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "test.outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "test.inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].arg, Some(42));
        assert_eq!(spans[0].tid, spans[1].tid);
        assert!(spans[0].seq < spans[1].seq);

        // Ring overflow drops oldest and counts them.
        set_tracing(true);
        for _ in 0..RING_CAPACITY + 10 {
            let _s = span("test.overflow");
        }
        set_tracing(false);
        assert_eq!(dropped_spans(), 10);
        let spans = take_spans();
        assert_eq!(spans.len(), RING_CAPACITY);
        assert_eq!(dropped_spans(), 0);
    }

    #[test]
    fn stage_summary_aggregates_by_name() {
        let spans = vec![
            SpanRec { name: "a", arg: None, tid: 0, depth: 0, seq: 0, start_us: 0, dur_us: 10 },
            SpanRec { name: "a", arg: None, tid: 0, depth: 0, seq: 1, start_us: 10, dur_us: 30 },
            SpanRec { name: "b", arg: None, tid: 1, depth: 0, seq: 0, start_us: 0, dur_us: 5 },
        ];
        let table = stage_summary(&spans);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        // "a" has the larger total, so it sorts first.
        assert!(lines[1].starts_with('a'));
        assert!(lines[1].contains("40"));
        assert!(lines[2].starts_with('b'));
    }
}
