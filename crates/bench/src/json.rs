//! The JSON value the perf artifacts are built as, written as, and read
//! back from.
//!
//! The artifacts are this repo's own small format, so the reader is a
//! deliberately small recursive-descent parser and the writer a plain
//! pretty-printer: no serde (the build environment is offline; vendoring
//! serde for a few artifacts is not worth it).

use std::fmt::Write as _;

/// Minimal JSON value for the bench artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (held as f64 — bench artifacts stay well within
    /// f64's exact-integer range).
    Num(f64),
    /// String
    Str(String),
    /// Array
    Arr(Vec<Json>),
    /// Object (insertion-ordered)
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

/// Renders `value` as indented JSON with a trailing newline. Objects and
/// arrays of scalars that fit on one short line stay on one line.
/// Integral numbers print without a fraction; non-finite ones (which
/// JSON cannot carry) print as `null`.
pub fn write_json(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, 0, &mut out);
    out.push('\n');
    out
}

fn write_value(value: &Json, indent: usize, out: &mut String) {
    let (open, close, members): (char, char, Vec<(Option<&str>, &Json)>) = match value {
        Json::Null => return out.push_str("null"),
        Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if !n.is_finite() => return out.push_str("null"),
        // Exact integers (counters, nanosecond medians) print as integers;
        // f64 Display is the shortest string that parses back to `n`.
        Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
            return out.push_str(&format!("{n:.0}"))
        }
        Json::Num(n) => return out.push_str(&n.to_string()),
        Json::Str(s) => return write_str(s, out),
        Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        Json::Obj(fields) => (
            '{',
            '}',
            fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
    };
    let scalars = members
        .iter()
        .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
    let rendered: Vec<String> = members
        .into_iter()
        .map(|(key, v)| {
            let mut m = String::new();
            if let Some(k) = key {
                write_str(k, &mut m);
                m.push_str(": ");
            }
            write_value(v, indent + 1, &mut m);
            m
        })
        .collect();
    let inline = format!("{open} {} {close}", rendered.join(", "));
    if rendered.is_empty() {
        out.extend([open, close]);
    } else if scalars && inline.len() <= 120 {
        out.push_str(&inline);
    } else {
        let pad = "  ".repeat(indent + 1);
        out.push_str(&format!(
            "{open}\n{pad}{}\n",
            rendered.join(&format!(",\n{pad}"))
        ));
        out.push_str(&"  ".repeat(indent));
        out.push(close);
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document, returning a readable error on malformed input.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(b, pos)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                // Quote and backslash are ASCII, so a run of other bytes
                // starts and ends on UTF-8 boundaries.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                s.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
                let escape = match b.get(*pos) {
                    None => return Err("unterminated string".to_string()),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(_) => b.get(*pos + 1),
                };
                match escape {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 2..*pos + 6).ok_or("truncated \\u escape")?;
                        let code = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        s.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 2;
            }
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {text:?} at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_parse_round_trips() {
        let v = Json::obj([
            ("generated_by", "lr-bench".into()),
            ("big", Json::from(6_000_000_000u64)),
            ("near_2_53", Json::from((1u64 << 53) - 1)),
            ("fraction", (12_000.0 / 7.0).into()),
            ("tiny", 3.5e-9.into()),
            ("negative", (-42.25).into()),
            ("negative_int", (-7.0).into()),
            ("zero", 0.0.into()),
            (
                "escaped",
                "quote \" backslash \\ tab \t newline \n ctl \u{1} µs".into(),
            ),
            (
                "flags",
                Json::Arr(vec![Json::Bool(true), Json::Bool(false), Json::Null]),
            ),
            ("empty_obj", Json::Obj(vec![])),
            ("empty_arr", Json::Arr(vec![])),
            (
                "nested",
                Json::obj([
                    (
                        "per_shard",
                        Json::Arr(vec![
                            Json::obj([("shard", 0usize.into()), ("p50", 819_200u64.into())]),
                            Json::obj([("shard", 1usize.into()), ("p50", 1.5.into())]),
                        ]),
                    ),
                    ("deeper", Json::obj([("a", Json::obj([("b", 2.0.into())]))])),
                ]),
            ),
        ]);
        let text = write_json(&v);
        assert_eq!(parse_json(&text), Ok(v), "{text}");
        assert!(text.contains("\"big\": 6000000000"), "{text}");
    }

    #[test]
    fn long_scalar_containers_break_across_lines() {
        let fields: Vec<(String, Json)> = (0..20)
            .map(|i| (format!("metric/{i}"), Json::Num(i as f64)))
            .collect();
        let text = write_json(&Json::Obj(fields.clone()));
        assert_eq!(text.lines().count(), 22, "{text}");
        assert_eq!(parse_json(&text), Ok(Json::Obj(fields)));
        let short = write_json(&Json::obj([("p50", 1.0.into()), ("p99", 2.0.into())]));
        assert_eq!(short, "{ \"p50\": 1, \"p99\": 2 }\n");
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "\"open", "1 2", "{1: 2}"] {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
