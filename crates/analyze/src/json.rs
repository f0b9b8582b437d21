//! A minimal JSON parser *and* serializer (pure `std`).
//!
//! The workspace builds without any crates.io dependency, so the `mosc
//! analyze` spec files are parsed by this ~200-line reader instead of a
//! serialization framework. It accepts standard JSON (RFC 8259): objects,
//! arrays, strings with escapes, numbers, `true`/`false`/`null`. Numbers are
//! held as `f64`, which is exact for every value the specs carry.
//!
//! The write side lives here too, so the whole workspace shares one
//! parse+serialize module (the serve wire protocol re-exports these):
//!
//! * [`value_to_json`] — order-preserving serialization for documents that
//!   are *built* as [`Value`] trees, where construction order is the
//!   intended wire order.
//! * [`canonical_json`] — key-sorted serialization; structurally equal
//!   documents always serialize identically, which makes it a usable
//!   cache-key preimage.
//! * [`json_string`] — string quoting with the standard escapes.
//!
//! Both serializers format numbers via Rust's shortest-round-trip `{:?}`,
//! so `parse(value_to_json(v))` reproduces `v` exactly (the round-trip
//! property test in `crates/analyze/tests` pins this).

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses `text` as a single JSON document (trailing garbage rejected).
    ///
    /// # Errors
    /// [`ParseError`] with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON document"));
        }
        Ok(v)
    }

    /// Object member lookup (`None` for non-objects or missing keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Self::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number payload, if any.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The number payload as a non-negative integer, if it is one exactly.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        let x = self.as_f64()?;
        if x >= 0.0 && x.fract() == 0.0 && x <= 2f64.powi(53) {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Some(x as usize)
        } else {
            None
        }
    }

    /// The bool payload, if any.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if any.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// The array payload, if any.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// `true` for `Value::Object`.
    #[must_use]
    pub fn is_object(&self) -> bool {
        matches!(self, Self::Object(_))
    }
}

/// A JSON syntax error with the byte offset where parsing stopped.
#[derive(Debug, Clone)]
pub struct ParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth cap — specs are shallow; this only guards the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, what: what.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
        self.depth -= 1;
        Ok(Value::Object(members))
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    break;
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
        self.depth -= 1;
        Ok(Value::Array(items))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.err(format!("invalid escape '\\{}'", other as char)))
                        }
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is a &str, so boundaries
                    // are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hex4 = |p: &mut Self| -> Result<u32, ParseError> {
            if p.pos + 4 > p.bytes.len() {
                return Err(p.err("truncated \\u escape"));
            }
            let s = std::str::from_utf8(&p.bytes[p.pos..p.pos + 4])
                .map_err(|_| p.err("invalid \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| p.err("invalid \\u escape"))?;
            p.pos += 4;
            Ok(v)
        };
        let hi = hex4(self)?;
        // Surrogate pair handling for completeness.
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = hex4(self)?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("invalid low surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            } else {
                return Err(self.err("lone high surrogate"));
            }
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode scalar"))
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| ParseError { offset: start, what: format!("invalid number '{s}'") })
    }
}

/// Serializes `v` preserving object member order — the writer for response
/// payloads and access-log lines that are *built* as [`Value`] trees, where
/// the construction order is the intended wire order. Numbers and strings
/// format exactly as in [`canonical_json`]; only the member ordering
/// differs (canonicalization would scramble e.g. `id` away from the front
/// of a response line).
#[must_use]
pub fn value_to_json(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => {
            if n.is_finite() {
                format!("{n:?}")
            } else {
                "null".to_owned()
            }
        }
        Value::String(s) => json_string(s),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(value_to_json).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Object(members) => {
            let inner: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{}:{}", json_string(k), value_to_json(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// Serializes `v` canonically: object members sorted by key at every level,
/// numbers via shortest-round-trip formatting, no whitespace. Two
/// structurally equal documents always serialize identically, which is what
/// makes this the `mosc-serve` cache-key preimage.
#[must_use]
pub fn canonical_json(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) => {
            if n.is_finite() {
                format!("{n:?}")
            } else {
                // JSON has no non-finite literals; the parser never produces
                // them, so this only defends hand-built values.
                "null".to_owned()
            }
        }
        Value::String(s) => json_string(s),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(canonical_json).collect();
            format!("[{}]", inner.join(","))
        }
        Value::Object(members) => {
            let mut sorted: Vec<&(String, Value)> = members.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            let inner: Vec<String> = sorted
                .iter()
                .map(|(k, v)| format!("{}:{}", json_string(k), canonical_json(v)))
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// JSON string quoting with the standard escapes (the workspace's one
/// escaper, which lives in the zero-dependency `mosc-obs`).
pub use mosc_obs::json_string;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_spec_shaped_document() {
        let text = r#"{
            "platform": {"rows": 2, "cols": 3, "levels": [0.6, 1.3],
                         "t_max_c": 55.0, "tau": 5e-6, "cooler": "default"},
            "schedule": {"period": 0.1,
                         "cores": [[[0.6, 0.06], [1.3, 0.04]], [[1.3, 0.1]]]},
            "solution": {"throughput": 0.88, "feasible": true, "m": 4}
        }"#;
        let v = Value::parse(text).unwrap();
        let platform = v.get("platform").unwrap();
        assert_eq!(platform.get("rows").unwrap().as_usize(), Some(2));
        assert_eq!(platform.get("tau").unwrap().as_f64(), Some(5e-6));
        assert_eq!(platform.get("cooler").unwrap().as_str(), Some("default"));
        let levels = platform.get("levels").unwrap().as_array().unwrap();
        assert_eq!(levels.len(), 2);
        let cores = v.get("schedule").unwrap().get("cores").unwrap().as_array().unwrap();
        assert_eq!(cores[0].as_array().unwrap().len(), 2);
        assert_eq!(v.get("solution").unwrap().get("feasible").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn scalar_forms() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("false").unwrap(), Value::Bool(false));
        assert_eq!(Value::parse("-12.5e2").unwrap(), Value::Number(-1250.0));
        assert_eq!(Value::parse("0").unwrap(), Value::Number(0.0));
        assert_eq!(
            Value::parse(r#""a\nb\u0041\u00e9""#).unwrap(),
            Value::String("a\nbA\u{e9}".into())
        );
        assert_eq!(Value::parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(Value::parse("{}").unwrap(), Value::Object(vec![]));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(Value::parse(r#""\ud83d\ude00""#).unwrap(), Value::String("\u{1F600}".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"unterminated",
            "[1] extra",
            "{\"a\":1,}",
            "nan",
            "+1",
            "\"\\q\"",
            "\"\\ud800\"",
            "01e",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
        let err = Value::parse("[1, }").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn usize_conversion_guards() {
        assert_eq!(Value::parse("3").unwrap().as_usize(), Some(3));
        assert_eq!(Value::parse("3.5").unwrap().as_usize(), None);
        assert_eq!(Value::parse("-1").unwrap().as_usize(), None);
        assert_eq!(Value::parse("\"3\"").unwrap().as_usize(), None);
    }

    #[test]
    fn deep_nesting_is_capped() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn canonical_json_sorts_keys_at_every_level() {
        let a = Value::parse(r#"{"b":{"y":1,"x":2},"a":[1,2]}"#).unwrap();
        let b = Value::parse(r#"{"a":[1,2],"b":{"x":2,"y":1}}"#).unwrap();
        assert_eq!(canonical_json(&a), canonical_json(&b));
        assert_eq!(canonical_json(&a), r#"{"a":[1.0,2.0],"b":{"x":2.0,"y":1.0}}"#);
    }

    #[test]
    fn value_to_json_preserves_member_order() {
        let doc = Value::Object(vec![
            ("z".to_owned(), Value::Number(1.0)),
            ("a".to_owned(), Value::String("x\"y".to_owned())),
            ("nested".to_owned(), Value::Object(vec![("b".to_owned(), Value::Bool(true))])),
        ]);
        assert_eq!(value_to_json(&doc), r#"{"z":1.0,"a":"x\"y","nested":{"b":true}}"#);
        // Round-trips through the parser with values intact.
        let back = Value::parse(&value_to_json(&doc)).unwrap();
        assert_eq!(canonical_json(&back), canonical_json(&doc));
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(value_to_json(&Value::Number(f64::NAN)), "null");
        assert_eq!(canonical_json(&Value::Number(f64::INFINITY)), "null");
    }
}
