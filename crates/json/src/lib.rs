//! # caps-json — dependency-free JSON for result export
//!
//! A small JSON document model with a recursive-descent parser and a
//! pretty-printer, replacing `serde_json` so the workspace builds with no
//! network access. Design points that matter for the harness:
//!
//! * objects preserve insertion order (stable, diffable exports);
//! * unsigned integers round-trip exactly ([`Value::UInt`] is kept separate
//!   from floats, so `u64` counters never pass through `f64`);
//! * floats print via Rust's shortest-roundtrip formatting (`{:?}`), so a
//!   parse of the output reproduces the bits exactly.

#![warn(missing_docs)]

use std::fmt;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer literal (no `.`, `e`, or sign), e.g. counters.
    UInt(u64),
    /// Any other numeric literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

/// Error raised by [`Value::parse`] or by schema accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    /// Human-readable description of what went wrong.
    pub msg: String,
    /// Byte offset in the input where the problem was detected (parse only).
    pub at: Option<usize>,
}

impl Error {
    /// A schema-level error (wrong shape, missing key), not tied to an offset.
    pub fn schema(msg: impl Into<String>) -> Self {
        Error { msg: msg.into(), at: None }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.at {
            Some(at) => write!(f, "json error at byte {at}: {}", self.msg),
            None => write!(f, "json error: {}", self.msg),
        }
    }
}

impl std::error::Error for Error {}

impl Value {
    /// Parse a JSON document (must consume the whole input).
    pub fn parse(input: &str) -> Result<Value, Error> {
        let mut p = Parser { b: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.b.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`Value::get`] but a missing key is a schema [`Error`].
    pub fn require(&self, key: &str) -> Result<&Value, Error> {
        self.get(key).ok_or_else(|| Error::schema(format!("missing key `{key}`")))
    }

    /// The value as a `u64` counter.
    pub fn as_u64(&self) -> Result<u64, Error> {
        match *self {
            Value::UInt(n) => Ok(n),
            Value::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Ok(f as u64),
            ref v => Err(Error::schema(format!("expected unsigned integer, got {v:?}"))),
        }
    }

    /// The value as an `f64`.
    pub fn as_f64(&self) -> Result<f64, Error> {
        match *self {
            Value::UInt(n) => Ok(n as f64),
            Value::Float(f) => Ok(f),
            ref v => Err(Error::schema(format!("expected number, got {v:?}"))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, Error> {
        match self {
            Value::Str(s) => Ok(s),
            v => Err(Error::schema(format!("expected string, got {v:?}"))),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Value], Error> {
        match self {
            Value::Arr(items) => Ok(items),
            v => Err(Error::schema(format!("expected array, got {v:?}"))),
        }
    }

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Encode on a single line with no whitespace, for newline-delimited
    /// JSON output. The output never contains a raw newline (strings
    /// escape control characters), and the encoding is canonical:
    /// parse ∘ compact is the identity on the document model, and
    /// compact ∘ parse is the identity on compact output.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(n) => out.push_str(&n.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
                    // `{:?}` is Rust's shortest representation that
                    // round-trips the exact bit pattern through `parse`.
                    out.push_str(&format!("{f:?}"));
                } else {
                    // JSON has no Inf/NaN; export as null like serde_json.
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
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
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Convenience constructor for an ordered object.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error { msg: msg.to_string(), at: Some(self.pos) }
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.pos) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), Error> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.b[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(entries));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&c) = self.b.get(self.pos) {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.b[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for our exports.
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape sequence")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&c) = self.b.get(self.pos) {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.pos]).unwrap();
        if !is_float && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error { msg: format!("bad number `{text}`"), at: Some(start) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_nesting() {
        let v = obj(vec![
            ("name", Value::Str("mm \"small\"".into())),
            ("count", Value::UInt(u64::MAX)),
            ("ratio", Value::Float(0.1 + 0.2)),
            ("neg", Value::Float(-1.25e-12)),
            ("flag", Value::Bool(true)),
            ("items", Value::Arr(vec![Value::UInt(1), Value::Null])),
            ("empty", Value::Obj(vec![])),
        ]);
        let text = v.pretty();
        let back = Value::parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn u64_counters_are_exact() {
        for n in [0u64, 1, (1 << 53) + 1, u64::MAX - 1, u64::MAX] {
            let text = Value::UInt(n).pretty();
            assert_eq!(Value::parse(&text).unwrap().as_u64().unwrap(), n);
        }
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        for f in [0.1, 1.0 / 3.0, 6.02214076e23, 1e-300, -0.0] {
            let text = Value::Float(f).pretty();
            let back = Value::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let v = obj(vec![
            ("name", Value::Str("line\nbreak \"quoted\"".into())),
            ("count", Value::UInt(u64::MAX)),
            ("ratio", Value::Float(0.1 + 0.2)),
            ("items", Value::Arr(vec![Value::UInt(1), Value::Null, Value::Bool(false)])),
            ("empty_arr", Value::Arr(vec![])),
            ("empty_obj", Value::Obj(vec![])),
            ("nested", obj(vec![("k", Value::Arr(vec![Value::Float(-1.5)]))])),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'), "frame must be newline-free: {line}");
        let back = Value::parse(&line).unwrap();
        assert_eq!(v, back, "parse ∘ compact is identity");
        assert_eq!(back.compact(), line, "canonical encoding");
    }

    #[test]
    fn malformed_input_is_an_error() {
        for bad in ["{", "[1,", "\"oops", "{\"a\" 1}", "12 34", "nul"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
