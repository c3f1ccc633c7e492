//! A small self-contained JSON reader/writer.
//!
//! Hand-rolled for two reasons. First, the serving layer's error contract
//! requires **line/column/offset-bearing** parse diagnostics for corrupted
//! or truncated artifacts, which generic deserializers hide behind opaque
//! messages. Second, the offline dependency set has no functional JSON
//! runtime, and the artifact and wire formats only need the JSON core:
//! objects, arrays, strings, finite numbers, booleans and null.
//!
//! Numbers are carried as `f64`. Every integer the serving layer stores
//! (raw two's-complement weights bounded by the 31-bit word-length cap,
//! counters, sizes) is far inside the 2⁵³ exact-integer range, and floats
//! are written with Rust's shortest round-trip formatting, so a
//! write → parse cycle reproduces values bit-identically.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered list.
    Array(Vec<Value>),
    /// A key→value map (sorted by key; JSON object order is not significant
    /// and a canonical order keeps checksums deterministic).
    Object(BTreeMap<String, Value>),
}

/// Where and why parsing failed. `line` and `column` are 1-based; `offset`
/// is the 0-based byte offset into the input.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte.
    pub column: usize,
    /// 0-based byte offset of the offending byte.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at line {}, column {} (byte offset {})",
            self.message, self.line, self.column, self.offset
        )
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn object<I: IntoIterator<Item = (&'static str, Value)>>(pairs: I) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact integer, if this is a number with no
    /// fractional part inside the `i64`-exact `f64` range.
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
            Some(n as i64)
        } else {
            None
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a.as_slice()),
            _ => None,
        }
    }

    /// The map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Compact single-line serialization (the canonical form used for
    /// checksums and wire frames).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        write_value(self, None, 0, &mut out);
        out
    }

    /// Pretty serialization with two-space indentation (the on-disk
    /// artifact form; diff-friendly).
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(2), 0, &mut out);
        out.push('\n');
        out
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Number(n)
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Number(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Number(n as f64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Number(f64::from(n))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Array(items.into_iter().map(Into::into).collect())
    }
}

fn write_value(v: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(*n, out),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(indent, depth + 1, out);
                write_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, indent, depth + 1, out);
            }
            newline_indent(indent, depth, out);
            out.push('}');
        }
    }
}

fn newline_indent(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

/// Appends `n` as a JSON number: integral values inside the 2⁵³ exact
/// range as integers, others in Rust's shortest round-trip form, and
/// non-finite values as `null`.
pub(crate) fn write_number(n: f64, out: &mut String) {
    // Non-finite numbers have no JSON spelling; the serving layer never
    // produces them, but a total writer must not emit invalid documents.
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    // Writing into a `String` cannot fail.
    if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // `{:?}` is Rust's shortest representation that round-trips exactly.
        let _ = write!(out, "{n:?}");
    }
}

/// Appends `s` as a JSON string literal.
pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document, rejecting trailing non-whitespace input.
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first offending byte — including
/// for truncated documents, where the error points at end-of-input.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_whitespace();
    let value = p.parse_value(0)?;
    p.skip_whitespace();
    if p.pos < p.bytes.len() {
        return Err(p.error("unexpected trailing characters after JSON document"));
    }
    Ok(value)
}

/// Maximum nesting depth accepted by [`parse`]; guards the wire path
/// against stack-exhaustion frames.
pub const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        let mut line = 1usize;
        let mut column = 1usize;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        JsonError {
            message: message.to_string(),
            line,
            column,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => Err(self.error(&format!(
                "expected '{}', found '{}'",
                b as char, got as char
            ))),
            None => Err(self.error(&format!(
                "unexpected end of input, expected '{}' (document truncated?)",
                b as char
            ))),
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than the supported maximum"));
        }
        self.skip_whitespace();
        match self.peek() {
            None => Err(self.error("unexpected end of input (document truncated?)")),
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Value::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(self.error(&format!("unexpected character '{}'", other as char))),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("invalid literal (expected '{word}')")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Number(n)),
            _ => {
                self.pos = start;
                Err(self.error(&format!("invalid number '{text}'")))
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string (document truncated?)")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape sequence"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.error("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogates are not paired; artifacts never
                            // contain them, so reject rather than mangle.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.error("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        other => {
                            self.pos -= 1;
                            return Err(self
                                .error(&format!("invalid escape character '{}'", other as char)));
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf-8 in string"))?;
                    let c = rest.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                Some(_) => return Err(self.error("expected ',' or ']' in array")),
                None => {
                    return Err(self.error("unexpected end of input in array (document truncated?)"))
                }
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                Some(_) => return Err(self.error("expected ',' or '}' in object")),
                None => {
                    return Err(
                        self.error("unexpected end of input in object (document truncated?)")
                    )
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Number(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Number(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::String("hi".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_i64(), Some(2));
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = Value::String("line\nquote\"back\\slash\ttab\u{1}".to_string());
        let text = original.to_compact_string();
        assert_eq!(parse(&text).unwrap(), original);
    }

    #[test]
    fn compact_and_pretty_roundtrip() {
        let v = Value::object([
            ("name", Value::from("serve")),
            ("weights", Value::from(vec![-3i64, 0, 7])),
            ("scale", Value::from(0.1f64)),
            ("nested", Value::object([("ok", Value::from(true))])),
        ]);
        assert_eq!(parse(&v.to_compact_string()).unwrap(), v);
        assert_eq!(parse(&v.to_pretty_string()).unwrap(), v);
    }

    #[test]
    fn f64_shortest_form_roundtrips_exactly() {
        for &x in &[
            0.1,
            1.0 / 3.0,
            2.2250738585072014e-308,
            -1.7976931348623157e308,
        ] {
            let text = Value::Number(x).to_compact_string();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} reserialized as {text}");
        }
    }

    #[test]
    fn i64_raws_roundtrip_exactly() {
        // Raw weights are bounded by the 31-bit word-length cap.
        for &raw in &[i64::from(i32::MIN), -1, 0, 1, 1 << 30, (1 << 30) - 1] {
            let text = Value::from(raw).to_compact_string();
            assert_eq!(parse(&text).unwrap().as_i64(), Some(raw));
        }
    }

    #[test]
    fn truncated_documents_report_position() {
        let err = parse("{\"a\": [1, 2").unwrap_err();
        assert!(err.message.contains("truncated"), "{err}");
        assert_eq!(err.offset, 11);
        assert_eq!((err.line, err.column), (1, 12));

        let err = parse("{\"a\":\n  \"unterminated").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("truncated"), "{err}");
    }

    #[test]
    fn syntax_errors_report_position() {
        let err = parse("{\"a\": 1,\n \"b\": @}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unexpected character"), "{err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse("{} extra").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn non_finite_numbers_rejected_on_parse() {
        assert!(parse("1e999").is_err());
        assert!(parse("NaN").is_err());
    }

    #[test]
    fn deep_nesting_bounded() {
        let mut text = String::new();
        for _ in 0..(MAX_DEPTH + 10) {
            text.push('[');
        }
        assert!(parse(&text).is_err());
    }

    #[test]
    fn as_i64_rejects_fractions() {
        assert_eq!(parse("1.5").unwrap().as_i64(), None);
        assert_eq!(parse("1.0").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(BTreeMap::new()));
        assert_eq!(Value::Array(vec![]).to_pretty_string(), "[]\n");
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let v = Value::String("héllo — ∑ 中文".to_string());
        assert_eq!(parse(&v.to_compact_string()).unwrap(), v);
    }
}
