//! Offline API-compatible subset of the
//! [`serde_json`](https://crates.io/crates/serde_json) crate, vendored under
//! `crates/compat/` because the build environment has no registry access.
//!
//! Writer only: renders the vendored serde shim's `Value` data model as
//! indented JSON text, which is what the experiments' reports need. No
//! program reads JSON, so there is no parser. Floating-point numbers are
//! written with Rust's shortest round-tripping representation, so any JSON
//! reader gets every finite `f64` back exactly. Infinities are written as
//! `±1e999` — valid JSON that overflows to `±inf` in a standard float
//! parser — so values like unbounded leaf-region bounds are not lost;
//! `NaN` is written as `null`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Serialize, Value};

/// Serialization error. Rendering a `Value` never fails, so none is ever
/// returned; the type keeps the real crate's signatures.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    message: String,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// Serializes `value` to a human-readable JSON string indented by two
/// spaces per level.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, 0);
    Ok(out)
}

fn write_value(value: &Value, out: &mut String, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => {
            if v.is_finite() {
                // `{:?}` is Rust's shortest round-tripping float formatting.
                out.push_str(&format!("{v:?}"));
            } else if *v == f64::INFINITY {
                // Syntactically valid JSON that overflows back to +inf in a
                // float parser, so infinite values (e.g. unbounded
                // leaf-region bounds) are not lost.
                out.push_str("1e999");
            } else if *v == f64::NEG_INFINITY {
                out.push_str("-1e999");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_break(out, depth + 1);
                write_value(item, out, depth + 1);
            }
            write_break(out, depth);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_break(out, depth + 1);
                write_string(key, out);
                out.push_str(": ");
                write_value(item, out, depth + 1);
            }
            write_break(out, depth);
            out.push('}');
        }
    }
}

fn write_break(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..2 * depth {
        out.push(' ');
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        to_string_pretty(value).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(json(&true), "true");
        assert_eq!(json(&42u32), "42");
        assert_eq!(json(&-3i64), "-3");
        assert_eq!(json(&1.5f64), "1.5");
        // The number text reads back through the standard parsers.
        assert_eq!(json(&42u32).parse::<u32>().unwrap(), 42);
        assert_eq!(json(&-3i64).parse::<i64>().unwrap(), -3);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-9, 0.0] {
            let text = json(&v);
            assert_eq!(text.parse::<f64>().unwrap(), v, "text {text}");
        }
    }

    #[test]
    fn non_finite_floats_round_trip() {
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let text = json(&v);
            assert_eq!(text.parse::<f64>().unwrap(), v, "text {text}");
        }
        assert_eq!(json(&f64::NAN), "null");
    }

    #[test]
    fn integral_floats_survive_the_untyped_number_grammar() {
        // `1.0` keeps its float syntax, so a reader can tell it from `1`.
        assert_eq!(json(&vec![1.0f64, 2.0, 0.5]), "[\n  1.0,\n  2.0,\n  0.5\n]");
    }

    #[test]
    fn strings_are_escaped() {
        let original = "line\nbreak \"quoted\" back\\slash tab\t bell\u{7} unicode \u{1F980}";
        assert_eq!(
            json(original),
            "\"line\\nbreak \\\"quoted\\\" back\\\\slash tab\\t bell\\u0007 unicode \u{1F980}\""
        );
    }

    #[test]
    fn pretty_output_is_indented() {
        let nested = vec![vec![Some(1u32), None], vec![]];
        assert_eq!(json(&nested), "[\n  [\n    1,\n    null\n  ],\n  []\n]");
        let map = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::U64(1)])),
            ("b".into(), Value::Map(Vec::new())),
        ]);
        assert_eq!(json(&map), "{\n  \"a\": [\n    1\n  ],\n  \"b\": {}\n}");
    }
}
