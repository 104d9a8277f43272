//! The benchmark's own spans: one around each call into a layer, recorded in
//! memory and written as a Chrome trace when the traced run ends. Spans
//! inside the program are a later change, so these time the program from
//! outside, through its public functions.
//!
//! A span's name is the per-layer metric it feeds (`core.consolidate_us`),
//! and its layer is the name's prefix; the unit suffix says how its
//! duration is reported.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dpcons::obs::SpanRec;

#[derive(Default)]
struct State {
    spans: Vec<SpanRec>,
    depth: u32,
    seq: u64,
    /// Identifier shared by every span of the current op.
    op: u64,
}

/// Span recorder. A disabled tracer (the untraced run) records nothing and
/// reads the clock only for the caller's own timing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), state: RefCell::default() }
    }

    /// Start the next op: its spans share the returned identifier.
    pub fn next_op(&self) -> u64 {
        let mut st = self.state.borrow_mut();
        st.op += 1;
        st.op
    }

    /// Run `f` inside a span named `name`; returns its value and its wall
    /// time in seconds. Spans nest: a span opened inside `f` is a child.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            let started = Instant::now();
            let v = f();
            return (v, started.elapsed().as_secs_f64());
        }
        let (depth, seq, op) = {
            let mut st = self.state.borrow_mut();
            let at = (st.depth, st.seq, st.op);
            st.depth += 1;
            st.seq += 1;
            at
        };
        let started = Instant::now();
        let v = f();
        let dur = started.elapsed();
        let mut st = self.state.borrow_mut();
        st.depth -= 1;
        st.spans.push(SpanRec {
            name,
            arg: Some(op),
            tid: 0,
            depth,
            seq,
            start_us: started.duration_since(self.epoch).as_micros() as u64,
            dur_us: dur.as_micros() as u64,
        });
        (v, dur.as_secs_f64())
    }

    /// Record a span that was timed elsewhere (the `serve_mix` clients run on
    /// their own threads). Call in open order per `tid`, parents first.
    pub fn record(&self, name: &'static str, tid: u32, depth: u32, start: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        let mut st = self.state.borrow_mut();
        let (seq, op) = (st.seq, st.op);
        st.seq += 1;
        st.spans.push(SpanRec {
            name,
            arg: Some(op),
            tid,
            depth,
            seq,
            start_us: start.saturating_duration_since(self.epoch).as_micros() as u64,
            dur_us: dur.as_micros() as u64,
        });
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.state.borrow().spans.clone()
    }
}

/// Self time of every span, in µs: its duration minus the part its direct
/// children cover. Index-aligned with `spans`.
pub fn self_times_us(spans: &[SpanRec]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].seq);
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_us).collect();
    // Open-order walk with a stack of ancestors, as the Chrome exporter does.
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while stack.last().is_some_and(|&p| spans[p].depth >= spans[i].depth) {
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            own[parent] = own[parent].saturating_sub(spans[i].dur_us);
        }
        stack.push(i);
    }
    own
}

/// Total self time per layer (the span name up to its first `.`), in ms.
pub fn layer_self_ms(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_us(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_insert(0.0) += own as f64 / 1e3;
    }
    out
}

/// Write the spans as a Chrome trace under `benchmark/out/` and check the
/// file with the program's own validator. Returns the span count.
pub fn write_chrome_trace(workload: &str, spans: &[SpanRec]) -> Result<usize, String> {
    let dir = out_dir()?;
    let path = dir.join(format!("trace-{workload}.json"));
    let text = dpcons::obs::chrome_trace_json(spans);
    let stats = dpcons::obs::validate_chrome_trace(&text)?;
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(stats.span_count)
}

/// `benchmark/out/`, created on demand: the only place the benchmark writes.
pub fn out_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_self_times_and_one_op_id() {
        let tr = Tracer::new(true);
        let op = tr.next_op();
        tr.time("tune.candidate_ms", || {
            tr.time("core.consolidate_us", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.time("ir.install_us", || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.arg == Some(op)));
        let parent = spans.iter().position(|s| s.name == "tune.candidate_ms").unwrap();
        assert_eq!(spans[parent].depth, 0);
        let own = self_times_us(&spans);
        let children: u64 = spans.iter().filter(|s| s.depth == 1).map(|s| s.dur_us).sum();
        assert_eq!(own[parent], spans[parent].dur_us - children);
        // Self times sum to the root's duration: the ledger closes.
        assert_eq!(own.iter().sum::<u64>(), spans[parent].dur_us);
        let layers = layer_self_ms(&spans);
        assert!(layers["core"] >= 2.0 && layers["ir"] >= 2.0);
        let text = dpcons::obs::chrome_trace_json(&spans);
        assert_eq!(dpcons::obs::validate_chrome_trace(&text).unwrap().span_count, 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        let (v, s) = tr.time("sim.replay_ms", || 7);
        assert_eq!(v, 7);
        assert!(s >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
