//! Export drained spans as Chrome trace-event JSON.
//!
//! The output is the classic `{"traceEvents":[...]}` format with one
//! complete ("X") event per span, carrying its start `ts` and its `dur`,
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>. The viewer
//! nests a thread's events by their intervals, so a span whose children were
//! lost to ring overflow still exports as itself.
//!
//! Each thread's spans are written in open (`seq`) order, which is also
//! start-time order, and [`validate_chrome_trace`] re-checks that from the
//! JSON text alone, via the [`crate::jsonv`] parser, so CI exercises the
//! real file format.

use crate::jsonv;
use crate::trace::SpanRec;
use std::collections::BTreeMap;

/// Render spans as a Chrome trace-event JSON document.
pub fn chrome_trace_json(spans: &[SpanRec]) -> String {
    let mut ordered: Vec<&SpanRec> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.tid, s.seq));
    let events: Vec<String> = ordered.into_iter().map(complete_event).collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

fn complete_event(s: &SpanRec) -> String {
    let args = match s.arg {
        Some(a) => format!(",\"args\":{{\"n\":{a}}}"),
        None => String::new(),
    };
    format!(
        "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}{args}}}",
        quoted(s.name),
        s.tid,
        s.start_us,
        s.dur_us
    )
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    jsonv::render_str(s, &mut out);
    out
}

/// Summary facts extracted by [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStats {
    /// Total "X" events: one per exported span.
    pub span_count: usize,
    /// Distinct span names seen.
    pub names: Vec<String>,
    /// Distinct tids seen.
    pub threads: usize,
}

/// Parse `text` as Chrome trace JSON and check structural invariants:
/// well-formed JSON, every event is a complete (`ph` = "X") event with
/// name/pid/tid/ts/dur, and per-tid start times never go backwards.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = jsonv::parse(text)?;
    let events =
        doc.get("traceEvents").and_then(|v| v.as_arr()).ok_or("missing traceEvents array")?;
    let mut last_ts: BTreeMap<i64, f64> = BTreeMap::new();
    let mut names: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| ev.get(key).ok_or(format!("event {i}: missing {key}"));
        let name = field("name")?.as_str().ok_or(format!("event {i}: name is not a string"))?;
        match field("ph")?.as_str() {
            Some("X") => {}
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
        let num =
            |key: &str| field(key)?.as_num().ok_or(format!("event {i}: {key} is not a number"));
        num("pid")?;
        num("dur")?;
        let tid = num("tid")? as i64;
        let ts = num("ts")?;
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!("event {i}: ts {ts} goes backwards on tid {tid}"));
        }
        *prev = ts;
        if !names.iter().any(|n| n == name) {
            names.push(name.to_string());
        }
    }
    names.sort();
    Ok(TraceStats { span_count: events.len(), names, threads: last_ts.len() })
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
    fn overflow_survivors_export_as_themselves() {
        // Ring overflow dropped the inner child of the first "outer": each
        // survivor is still one complete event, in open order.
        let spans = vec![
            rec("outer", 0, 0, 0, 0, 100),
            rec("inner", 0, 1, 3, 120, 10),
            rec("outer", 0, 0, 2, 110, 40),
        ];
        let json = chrome_trace_json(&spans);
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.span_count, 3);
        let doc = jsonv::parse(&json).unwrap();
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        let ts: Vec<f64> = events.iter().map(|e| e.get("ts").unwrap().as_num().unwrap()).collect();
        assert_eq!(ts, [0.0, 110.0, 120.0]);
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
        // A begin/end pair is not a complete event.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0,"ts":0}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // A complete event without its duration.
        let bad = r#"{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":0}]}"#;
        assert!(validate_chrome_trace(bad).is_err());
        // Backwards start times on one tid.
        let bad = concat!(
            r#"{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":5,"dur":1},"#,
            r#"{"name":"x","ph":"X","pid":1,"tid":0,"ts":4,"dur":1}]}"#
        );
        assert!(validate_chrome_trace(bad).is_err());
        // Not JSON at all.
        assert!(validate_chrome_trace("not json").is_err());
    }
}
