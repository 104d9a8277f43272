//! Minimal JSON emission (the environment has no `serde`): an ordered value
//! tree with correct string escaping, pretty-printed deterministically so
//! `BENCH_reproduce.json` diffs cleanly between PRs.

use dpcons_obs::jsonv::render_str;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    U64(u64),
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn s(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => out.push_str(&v.to_string()),
            Json::F64(v) => {
                if v.is_finite() {
                    // `{}` on f64 is Rust's shortest round-trip form.
                    let s = format!("{v}");
                    out.push_str(&s);
                    if !s.contains(['.', 'e', 'E']) {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    render_str(k, out);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let j = Json::Obj(vec![
            ("name".into(), Json::s("SSSP")),
            ("cycles".into(), Json::U64(123)),
            ("speedup".into(), Json::F64(2.0)),
            ("tags".into(), Json::Arr(vec![Json::s("a"), Json::Bool(true), Json::Null])),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = j.render();
        assert!(text.contains("\"name\": \"SSSP\""));
        assert!(text.contains("\"cycles\": 123"));
        assert!(text.contains("\"speedup\": 2.0"), "{text}");
        assert!(text.contains("\"empty\": {}"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let j = Json::s("a\"b\\c\nd\u{1}");
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null\n");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null\n");
    }
}
