//! The workspace's JSON implementation: one [`Value`] tree, a strict
//! recursive-descent [`parse`]r and two renderings of one tree walker.
//!
//! The workspace has no serde (offline, zero-dep policy), so everything JSON
//! goes through here: the `dpcons-serve` wire format and NDJSON progress
//! stream use the compact [`Value::render`], the committed `BENCH_*.json`
//! records use [`Value::render_pretty`], and the validators in
//! [`crate::chrome`] parse emitted trace files to prove they are well-formed.
//! Objects are `BTreeMap`s, so keys always come out sorted and every
//! rendering is deterministic. Numbers are held as `f64`; non-ASCII `\u`
//! escapes outside the BMP are rejected only when malformed, matching what
//! the emitters produce.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Object field lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|o| o.get(key))
    }

    /// Render this value as a compact JSON document. Deterministic: object
    /// keys come out in `BTreeMap` order, numbers that are exact integers in
    /// the `i64` range print without a fraction, and everything produced
    /// round-trips through [`parse`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, None);
        out
    }

    /// Render this value as [`Value::render`] does, but one element per line
    /// with two-space indentation, `": "` after each key and a trailing
    /// newline: the form of the committed `BENCH_*.json` records.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// The one tree walker of both renderings: `indent` is `None` for the
    /// compact form, else the nesting depth of `self`.
    fn render_into(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                // NaN/inf have no JSON spelling; emit null rather than a
                // document our own parser would reject.
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9.2e18 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Value::Str(s) => render_str(s, out),
            Value::Arr(items) => {
                render_items(out, indent, ['[', ']'], items.iter().map(|v| (None, v)))
            }
            Value::Obj(map) => render_items(
                out,
                indent,
                ['{', '}'],
                map.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// The elements of an array (no keys) or object between `brackets`.
fn render_items<'a>(
    out: &mut String,
    indent: Option<usize>,
    brackets: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Value)>,
) {
    let inner = indent.map(|d| d + 1);
    let mut empty = true;
    out.push(brackets[0]);
    for (key, v) in items {
        if !empty {
            out.push(',');
        }
        empty = false;
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        if let Some(k) = key {
            render_str(k, out);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        v.render_into(out, inner);
    }
    if let (false, Some(d)) = (empty, indent) {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(brackets[1]);
}

/// Append `s` to `out` as a quoted JSON string: `"` and `\` backslash-escaped,
/// `\n`/`\r`/`\t` by name, other control characters as `\u00XX`. The one
/// string escaper of the workspace's JSON emitters.
pub fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => Err(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos - 1,
                got as char
            )),
            None => Err(format!("expected {:?}, got end of input", b as char)),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected {:?} at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(map)),
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos - 1)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut arr = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(arr));
        }
        loop {
            self.skip_ws();
            arr.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(arr)),
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos - 1)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        match char::from_u32(cp) {
                            Some(c) => out.push(c),
                            None => return Err(format!("invalid \\u escape {cp:#x}")),
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                },
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte {c:#x} in string"));
                }
                Some(c) => {
                    // Re-assemble multi-byte UTF-8 (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let width = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        self.pos = start + width;
                        out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = self.bump().ok_or("truncated \\u escape")?;
            let v = (d as char).to_digit(16).ok_or("non-hex digit in \\u escape")?;
            cp = cp * 16 + v;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Value::Num).map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":"hi\n","d":true,"e":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_num(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("hi\n"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Value::Null));
    }

    #[test]
    fn parses_unicode_escapes_and_raw_utf8() {
        let v = parse(r#""é café ü""#).unwrap();
        assert_eq!(v.as_str(), Some("é café ü"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Obj(BTreeMap::new()));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let docs = [
            r#"{"a":[1,2.5,-3],"b":{"c":"hi\n","d":true,"e":null}}"#,
            r#"{"empty_arr":[],"empty_obj":{},"s":"quote \" backslash \\ tab \t"}"#,
            r#"[0,-1,9007199254740991,0.125]"#,
            r#""é café ü""#,
        ];
        for doc in docs {
            let v = parse(doc).unwrap();
            let emitted = v.render();
            assert_eq!(parse(&emitted).unwrap(), v, "round-trip failed for {doc}");
            assert_eq!(parse(&v.render_pretty()).unwrap(), v, "pretty round-trip failed for {doc}");
        }
    }

    #[test]
    fn render_pretty_puts_one_element_per_line() {
        let v = parse(r#"{"b":[1,"x"],"a":{},"c":[],"d":{"e":null}}"#).unwrap();
        let want = "{\n  \"a\": {},\n  \"b\": [\n    1,\n    \"x\"\n  ],\n  \"c\": [],\n  \"d\": {\n    \"e\": null\n  }\n}\n";
        assert_eq!(v.render_pretty(), want);
        assert_eq!(Value::Num(2.0).render_pretty(), "2\n");
    }

    #[test]
    fn render_is_deterministic_and_integers_stay_integral() {
        let mut obj = BTreeMap::new();
        obj.insert("z".to_string(), Value::Num(3.0));
        obj.insert("a".to_string(), Value::Num(1.5));
        obj.insert("ctl".to_string(), Value::Str("bell\u{7}".to_string()));
        let v = Value::Obj(obj);
        assert_eq!(v.render(), r#"{"a":1.5,"ctl":"bell\u0007","z":3}"#);
        assert_eq!(v.render(), v.render());
        assert_eq!(Value::Num(f64::NAN).render(), "null");
    }
}
