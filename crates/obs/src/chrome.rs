//! Export drained spans as Chrome trace-event JSON.
//!
//! The output is the classic `{"traceEvents":[...]}` format with duration
//! ("B"/"E") event pairs, loadable in `chrome://tracing` or
//! <https://ui.perfetto.dev>.
//!
//! Spans are recorded at *end* time, so a thread's ring holds children
//! before parents and may have lost arbitrary inner spans to overflow.
//! Rather than trusting timestamps (ties and zero-duration spans make a
//! timestamp sort ambiguous), the exporter replays each thread's spans in
//! open (`seq`) order against an explicit stack: before opening a span at
//! depth `d`, every stacked span at depth `>= d` must already be closed.
//! That reconstruction yields balanced, properly nested, per-thread
//! monotonic B/E pairs by construction — which [`validate_chrome_trace`]
//! then re-checks from the JSON text alone, via the [`crate::jsonv`]
//! parser, so CI exercises the real file format.

use crate::jsonv;
use crate::trace::SpanRec;
use std::collections::BTreeMap;

/// Render spans as a Chrome trace-event JSON document.
pub fn chrome_trace_json(spans: &[SpanRec]) -> String {
    // Group per thread, then replay each thread's spans in open order.
    let mut by_tid: BTreeMap<u32, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut events = String::new();
    let mut first = true;
    let mut push_event = |ev: String| {
        if !first {
            events.push(',');
        }
        first = false;
        events.push('\n');
        events.push_str(&ev);
    };
    for (tid, mut list) in by_tid {
        list.sort_by_key(|s| s.seq);
        // Stack of (depth, end_us, name) for currently-open spans.
        let mut stack: Vec<(u32, u64, &'static str)> = Vec::new();
        let mut cursor = 0u64; // enforce per-thread monotonic timestamps
        for s in &list {
            // Close everything at this depth or deeper before opening.
            while let Some(&(d, end, name)) = stack.last() {
                if d < s.depth {
                    break;
                }
                stack.pop();
                cursor = cursor.max(end);
                push_event(end_event(name, tid, cursor));
            }
            cursor = cursor.max(s.start_us);
            push_event(begin_event(s, tid, cursor));
            stack.push((s.depth, cursor.max(s.start_us.saturating_add(s.dur_us)), s.name));
        }
        while let Some((_, end, name)) = stack.pop() {
            cursor = cursor.max(end);
            push_event(end_event(name, tid, cursor));
        }
    }
    format!("{{\"traceEvents\":[{events}\n]}}\n")
}

fn begin_event(s: &SpanRec, tid: u32, ts: u64) -> String {
    let args = match s.arg {
        Some(a) => format!(",\"args\":{{\"n\":{a}}}"),
        None => String::new(),
    };
    format!(
        "{{\"name\":{},\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}{args}}}",
        quoted(s.name)
    )
}

fn end_event(name: &str, tid: u32, ts: u64) -> String {
    format!("{{\"name\":{},\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{ts}}}", quoted(name))
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    jsonv::render_str(s, &mut out);
    out
}

/// Summary facts extracted by [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total "B" (= total "E") events.
    pub span_count: usize,
    /// Distinct span names seen.
    pub names: Vec<String>,
    /// Distinct tids seen.
    pub threads: usize,
}

/// Parse `text` as Chrome trace JSON and check structural invariants:
/// well-formed JSON, every event has name/ph/pid/tid/ts, per-tid B/E
/// events balance like parentheses with names matching LIFO, and per-tid
/// timestamps are monotonically non-decreasing.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = jsonv::parse(text)?;
    let events =
        doc.get("traceEvents").and_then(|v| v.as_arr()).ok_or("missing traceEvents array")?;
    let mut stacks: BTreeMap<i64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut span_count = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let name =
            ev.get("name").and_then(|v| v.as_str()).ok_or(format!("event {i}: missing name"))?;
        let ph = ev.get("ph").and_then(|v| v.as_str()).ok_or(format!("event {i}: missing ph"))?;
        ev.get("pid").and_then(|v| v.as_num()).ok_or(format!("event {i}: missing pid"))?;
        let tid =
            ev.get("tid").and_then(|v| v.as_num()).ok_or(format!("event {i}: missing tid"))? as i64;
        let ts = ev.get("ts").and_then(|v| v.as_num()).ok_or(format!("event {i}: missing ts"))?;
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!("event {i}: ts {ts} goes backwards on tid {tid}"));
        }
        *prev = ts;
        match ph {
            "B" => {
                stacks.entry(tid).or_default().push(name.to_string());
                span_count += 1;
                if !names.iter().any(|n| n == name) {
                    names.push(name.to_string());
                }
            }
            "E" => {
                let top = stacks.entry(tid).or_default().pop();
                match top {
                    Some(open) if open == name => {}
                    Some(open) => {
                        return Err(format!("event {i}: E {name:?} closes open span {open:?}"));
                    }
                    None => return Err(format!("event {i}: E {name:?} with no open span")),
                }
            }
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} span(s) left open: {stack:?}", stack.len()));
        }
    }
    names.sort();
    Ok(TraceStats { span_count, names, threads: last_ts.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        name: &'static str,
        tid: u32,
        depth: u32,
        seq: u64,
        start_us: u64,
        dur_us: u64,
    ) -> SpanRec {
        SpanRec { name, arg: None, tid, depth, seq, start_us, dur_us }
    }

    #[test]
    fn export_round_trips_through_validator() {
        // Two threads; thread 0 has nesting, thread 1 has back-to-back spans
        // with tied timestamps (the case a timestamp sort would scramble).
        let spans = vec![
            rec("inner", 0, 1, 1, 10, 5),
            rec("outer", 0, 0, 0, 10, 20),
            rec("a", 1, 0, 0, 7, 0),
            rec("b", 1, 0, 1, 7, 0),
        ];
        let json = chrome_trace_json(&spans);
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.span_count, 4);
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.names, vec!["a", "b", "inner", "outer"]);
    }

    #[test]
    fn overflow_survivors_still_balance() {
        // Ring overflow dropped the inner child of the first "outer": the
        // exporter must still close "outer" before the sibling opens.
        let spans = vec![
            rec("outer", 0, 0, 0, 0, 100),
            rec("inner", 0, 1, 3, 120, 10),
            rec("outer", 0, 0, 2, 110, 40),
        ];
        let json = chrome_trace_json(&spans);
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.span_count, 3);
    }

    #[test]
    fn empty_span_list_is_valid() {
        let json = chrome_trace_json(&[]);
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.span_count, 0);
    }

    #[test]
    fn args_are_emitted() {
        let mut s = rec("wave", 0, 0, 0, 0, 10);
        s.arg = Some(3);
        let json = chrome_trace_json(&[s]);
        assert!(json.contains("\"args\":{\"n\":3}"));
        validate_chrome_trace(&json).unwrap();
    }

    #[test]
    fn span_names_needing_escapes_round_trip() {
        let name = "a\"b\\c\n\u{1}";
        let json = chrome_trace_json(&[rec(name, 0, 0, 0, 0, 1)]);
        jsonv::parse(&json).unwrap();
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.names, vec![name]);
    }

    #[test]
    fn validator_rejects_broken_traces() {
        // Unbalanced: a B with no E.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0,"ts":0}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Mismatched close name.
        let bad = concat!(
            r#"{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0,"ts":0},"#,
            r#"{"name":"y","ph":"E","pid":1,"tid":0,"ts":1}]}"#
        );
        assert!(validate_chrome_trace(bad).is_err());
        // Backwards timestamps on one tid.
        let bad = concat!(
            r#"{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0,"ts":5},"#,
            r#"{"name":"x","ph":"E","pid":1,"tid":0,"ts":4}]}"#
        );
        assert!(validate_chrome_trace(bad).is_err());
        // Not JSON at all.
        assert!(validate_chrome_trace("not json").is_err());
    }
}
