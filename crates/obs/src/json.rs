//! A small, dependency-free JSON value with a parser and emitter.
//!
//! This is the workspace's runtime serialization substrate (the vendored
//! `serde_json` shim is compile-surface only — see `vendor/README.md`).
//! Objects preserve insertion order so callers control field ordering;
//! deterministic output for golden-file comparison is achieved simply by
//! inserting in a fixed order (or calling [`Json::sort_keys`]).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Numbers are `f64` (sufficient for every payload in this
/// workspace: counters stay below 2^53 and all measurements are doubles).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Parse error with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from key/value pairs, preserving order.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Drill down a dotted path (`"counters.solver.cg.iters"` will not
    /// split metric names — each path segment is one `get`).
    pub fn get_path(&self, path: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for p in path {
            cur = cur.get(p)?;
        }
        Some(cur)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Recursively sort object keys (arrays keep their order).
    pub fn sort_keys(&mut self) {
        match self {
            Json::Obj(pairs) => {
                pairs.sort_by(|a, b| a.0.cmp(&b.0));
                for (_, v) in pairs {
                    v.sort_keys();
                }
            }
            Json::Arr(items) => {
                for v in items {
                    v.sort_keys();
                }
            }
            _ => {}
        }
    }

    /// Pretty rendering with 2-space indentation and a trailing newline.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    v.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document (rejects trailing garbage).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after value"));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}
impl From<i64> for Json {
    fn from(n: i64) -> Json {
        Json::Num(n as f64)
    }
}
impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}
impl From<&BTreeMap<String, String>> for Json {
    fn from(m: &BTreeMap<String, String>) -> Json {
        Json::Obj(
            m.iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        )
    }
}

/// Compact single-line rendering (`to_string()` comes from this impl).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

/// Emit a number: integers (within f64's exact range) without a fraction,
/// everything else via Rust's shortest-round-trip float formatting.
fn format_number(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no Inf/NaN; encode as null like most encoders do.
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        format!("{}", n as i64)
    } else {
        // `{}` on f64 prints the shortest string that parses back exactly.
        format!("{n}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * level {
            out.push(' ');
        }
    }
}

fn err(offset: usize, message: &str) -> JsonError {
    JsonError {
        offset,
        message: message.to_string(),
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), JsonError> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(err(*pos, &format!("expected `{lit}`")))
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser recurses
/// once per level, so without a cap a few hundred thousand `[` in an
/// untrusted document would overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parse one value at nesting `depth` (the number of enclosing arrays and
/// objects).
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'[' | b'{')) && depth == MAX_DEPTH {
        return Err(err(*pos, "arrays and objects nested too deeply"));
    }
    match b.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => expect(b, pos, "null").map(|_| Json::Null),
        Some(b't') => expect(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b'"') {
                    return Err(err(*pos, "expected string key in object"));
                }
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected `:` after object key"));
                }
                *pos += 1;
                let value = parse_value(b, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let hi =
                            parse_hex4(b, *pos + 1).ok_or_else(|| err(*pos, "bad \\u escape"))?;
                        *pos += 4;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require a following \uXXXX low half.
                            if b.get(*pos + 1) == Some(&b'\\') && b.get(*pos + 2) == Some(&b'u') {
                                let lo = parse_hex4(b, *pos + 3)
                                    .filter(|lo| (0xDC00..0xE000).contains(lo))
                                    .ok_or_else(|| err(*pos, "bad low surrogate"))?;
                                *pos += 6;
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return Err(err(*pos, "lone high surrogate"));
                            }
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| err(*pos, "invalid codepoint"))?,
                        );
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // SAFETY: `b` is the byte view of a `&str` and `*pos` only
                // ever advances by whole scalar widths (`len_utf8` below),
                // so the suffix is valid UTF-8.
                let s = unsafe { std::str::from_utf8_unchecked(&b[*pos..]) };
                // The `Some(_)` arm guarantees at least one byte remains,
                // so the suffix holds at least one scalar.
                let Some(c) = s.chars().next() else {
                    return Err(err(*pos, "unterminated string"));
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_hex4(b: &[u8], at: usize) -> Option<u32> {
    b.get(at..at + 4)?
        .iter()
        .try_fold(0, |code, &c| Some(code * 16 + char::from(c).to_digit(16)?))
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|_| err(start, "bad number"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, "bad number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::from("4^4x8 mixed cg")),
            ("iters", Json::from(137u64)),
            ("residual", Json::from(3.25e-11)),
            ("ok", Json::from(true)),
            ("tags", Json::from(vec!["a", "b\nc"])),
            (
                "nested",
                Json::obj(vec![("empty", Json::Arr(vec![])), ("null", Json::Null)]),
            ),
        ]);
        for rendered in [doc.to_string(), doc.to_string_pretty()] {
            assert_eq!(Json::parse(&rendered).unwrap(), doc);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [
            1.0 / 3.0,
            6.02214076e23,
            -0.1,
            f64::MIN_POSITIVE,
            1e300,
            12345.678,
        ] {
            let s = Json::Num(v).to_string();
            assert_eq!(Json::parse(&s).unwrap().as_f64().unwrap(), v, "{s}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::from(42u64).to_string(), "42");
        assert_eq!(Json::from(-7i64).to_string(), "-7");
        assert_eq!(Json::from(0u64).to_string(), "0");
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ newline\n tab\t unicode £ 𝒜 control\u{1}";
        let rendered = Json::from(s).to_string();
        assert_eq!(Json::parse(&rendered).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        assert_eq!(
            Json::parse("\"\\ud835\\udc9c\"").unwrap().as_str().unwrap(),
            "\u{1d49c}"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn a_high_surrogate_needs_a_low_half() {
        for bad in [
            "\"\\ud800\\u0041\"",
            "\"\\ud800\\ud800\"",
            "\"\\udbff\\ue000\"",
            "\"\\ud800\\u+c00\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
        assert!(
            Json::parse("\"\\u+041\"").is_err(),
            "a sign is not a hex digit"
        );
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(200_000);
        assert!(Json::parse(&deep).is_err());
        let objects = "{\"a\":".repeat(200_000);
        assert!(Json::parse(&objects).is_err());
        // The cap itself: `MAX_DEPTH` levels parse, one more does not.
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    /// A document with every kind of value, escapes, multi-byte scalars and
    /// a surrogate pair.
    fn representative() -> String {
        let doc = Json::obj(vec![
            ("name", Json::from("tune \"cache\" £ 𝒜\n")),
            ("grain", Json::from(1024u64)),
            ("seconds", Json::from(-3.25e-7)),
            ("ok", Json::from(true)),
            ("none", Json::Null),
            (
                "entries",
                Json::Arr(vec![
                    Json::obj(vec![("k", Json::from("dslash")), ("v", Json::from(1.5))]),
                    Json::Arr(vec![Json::from(false), Json::Arr(vec![])]),
                ]),
            ),
        ]);
        doc.to_string().replace("𝒜", "\\ud835\\udc9c")
    }

    #[test]
    fn every_truncation_is_an_error() {
        let text = representative();
        assert!(Json::parse(&text).is_ok());
        for cut in 0..text.len() {
            if let Some(prefix) = text.get(..cut) {
                assert!(Json::parse(prefix).is_err(), "cut at {cut}: {prefix:?}");
            }
        }
    }

    #[test]
    fn no_single_bit_flip_panics() {
        let bytes = representative().into_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                if let Ok(text) = std::str::from_utf8(&flipped) {
                    // `Ok` or `Err` are both fine; a panic fails the test.
                    let _ = Json::parse(text);
                }
            }
        }
    }

    #[test]
    fn get_path_walks_objects() {
        let doc = Json::obj(vec![(
            "counters",
            Json::obj(vec![("solver.cg.iters", Json::from(99u64))]),
        )]);
        assert_eq!(
            doc.get_path(&["counters", "solver.cg.iters"])
                .unwrap()
                .as_u64(),
            Some(99)
        );
        assert!(doc.get_path(&["counters", "missing"]).is_none());
    }
}
