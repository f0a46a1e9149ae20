//! Minimal JSON writer/parser: the workspace's one dependency-free dialect.
//!
//! The writer side is a set of escaping/formatting helpers used by
//! [`crate::snapshot::MetricsSnapshot::to_json`], the wire protocols and the
//! bench harness's `BENCH_*.json` reports; the reader side is a small
//! recursive-descent parser for loading all of them back (`rjam stats
//! <file>`, `rjamd` request lines, the `check` CI tool). Numbers parse as
//! `f64` (counters stay exact through 2^53, far beyond any realistic run).
//! Nesting is bounded by [`MAX_DEPTH`], so no input line can exhaust the
//! parsing thread's stack.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, and `rjamd` parses every request line on a default-stack
/// connection thread, so an unbounded depth would let one line of `[`s
/// overflow the stack and abort the daemon. Every document the workspace
/// writes is a few levels deep.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; key order is normalised (sorted).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }
}

/// Serialises a string with JSON escaping.
pub fn write_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Serialises an `f64` as a JSON number (no NaN/Inf — clamped to 0).
pub fn write_number(n: f64) -> String {
    if !n.is_finite() {
        return "0".into();
    }
    if n.fract() == 0.0 && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// Serialises any [`Value`] compactly (no whitespace, object keys in the
/// map's sorted order). The inverse of [`parse`] up to number formatting;
/// used to embed whole documents (campaign specs, metrics snapshots) in
/// single NDJSON lines.
pub fn write_value(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(true) => "true".into(),
        Value::Bool(false) => "false".into(),
        Value::Number(n) => write_number(*n),
        Value::String(s) => write_string(s),
        Value::Array(items) => {
            let body: Vec<String> = items.iter().map(write_value).collect();
            format!("[{}]", body.join(","))
        }
        Value::Object(map) => {
            let body: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{}:{}", write_string(k), write_value(v)))
                .collect();
            format!("{{{}}}", body.join(","))
        }
    }
}

/// Parses a complete JSON document. Nesting deeper than [`MAX_DEPTH`] is
/// an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Parses one array or object one nesting level down.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9') | Some(b'.') | Some(b'e') | Some(b'E') | Some(b'+') | Some(b'-')
        ) {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        s.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number '{s}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-utf8 string".to_string())?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_escapes() {
        let s = "a\"b\\c\nd\te\u{1}";
        let ser = write_string(s);
        let Value::String(back) = parse(&ser).unwrap() else {
            panic!("not a string");
        };
        assert_eq!(back, s);
    }

    #[test]
    fn numbers_render_integers_cleanly() {
        assert_eq!(write_number(42.0), "42");
        assert_eq!(write_number(-3.0), "-3");
        assert_eq!(write_number(2.5), "2.5");
        assert_eq!(write_number(f64::NAN), "0");
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2,{"b":null}],"c":true,"d":"x"}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj["c"], Value::Bool(true));
        let arr = obj["a"].as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].as_object().unwrap()["b"], Value::Null);
    }

    #[test]
    fn write_value_round_trips() {
        let doc = r#"{"a":[1,2.5,{"b":null}],"c":true,"d":"x\ny","e":false}"#;
        let v = parse(doc).unwrap();
        assert_eq!(write_value(&v), doc);
        assert_eq!(parse(&write_value(&v)).unwrap(), v);
        assert_eq!(write_value(&Value::Array(vec![])), "[]");
        assert_eq!(write_value(&Value::Object(BTreeMap::new())), "{}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("nulle").is_err());
    }

    #[test]
    fn parses_escaped_keys_exponents_and_unicode_escapes() {
        let doc =
            parse("{\"a\\n\" : [1, -2.5e3, true, null, {\"k\":\"v\\u0041\"}], \"b\": []}").unwrap();
        let obj = doc.as_object().unwrap();
        let arr = obj["a\n"].as_array().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[4].as_object().unwrap()["k"].as_str(), Some("vA"));
        assert_eq!(obj["b"].as_array(), Some(&[][..]));
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        // 20 000 levels recurse far past a default 2 MiB thread stack; the
        // limit turns the line into an error before the stack runs out.
        let deep = "[".repeat(20_000) + &"]".repeat(20_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let deep_obj = "{\"a\":".repeat(MAX_DEPTH + 1) + "0" + &"}".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep_obj).is_err());
        let at_limit = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&at_limit).is_ok(), "{MAX_DEPTH} levels parse");
    }
}
