//! Hand-rendered JSON: the one writer behind `BENCHMARK.json`, the result
//! line each run prints last, `results.json` and `trace.jsonl` (the
//! repository has no JSON dependency, and nothing here ever parses JSON:
//! `--compare` reads the flat `results.tsv` instead).

/// Version of the `results.json` / `results.tsv` layout.
pub const SCHEMA: u64 = 1;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

impl Json {
    /// One line, no spaces after separators.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Two-space indented, trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) => {
                // JSON has no NaN/inf; a metric that is one is a harness bug.
                assert!(x.is_finite(), "non-finite number in JSON output");
                out.push_str(&format!("{x}"));
            }
            Json::Str(text) => write_str(out, text),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, inner| {
                items[i].write(out, inner);
            }),
            Json::Obj(fields) => write_seq(out, indent, '{', '}', fields.len(), |out, i, inner| {
                write_str(out, &fields[i].0);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                fields[i].1.write(out, inner);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        item(out, i, inner);
    }
    if let (Some(d), true) = (indent, len > 0) {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

fn write_str(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_and_pretty() {
        let v = obj([
            ("a", Json::Int(1)),
            ("b", Json::Arr(vec![Json::Num(0.1), Json::Bool(true)])),
            ("c", s("x\"y\n")),
            ("d", Json::Arr(vec![])),
            ("e", Json::Null),
        ]);
        assert_eq!(v.compact(), r#"{"a":1,"b":[0.1,true],"c":"x\"y\n","d":[],"e":null}"#);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    0.1,\n    true\n  ],\n  \"c\": \"x\\\"y\\n\",\n  \"d\": [],\n  \"e\": null\n}\n"
        );
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(Json::Num(1.2034567891).compact(), "1.2034567891");
        assert_eq!(Json::Num(3.0).compact(), "3");
    }
}
