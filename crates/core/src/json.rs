//! A minimal hand-rolled JSON writer and reader.
//!
//! The experiment binaries (`fig7_manycore`, `fig8`, `fig9_modes`) and
//! the run reports emit machine-readable artifacts; the build image has
//! no registry access for `serde`, so this module provides the small,
//! allocation-light subset they need: objects, arrays, strings with
//! escaping, and numbers. Output is deterministic (insertion order
//! preserved).
//!
//! The reader side ([`JsonValue::parse`]) is a strict recursive-descent
//! parser for the same subset, used by the `campaignd` engine to load
//! job specs and manifests back. Numbers keep their raw source text
//! ([`JsonValue::Number`]) so 64-bit seeds round-trip without `f64`
//! precision loss.

use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values,
/// which JSON cannot represent).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trippable form.
        let mut s = format!("{v}");
        if !s.contains(['.', 'e', 'E']) {
            s.push_str(".0");
        }
        s
    } else {
        "null".into()
    }
}

/// An incremental JSON object writer.
///
/// ```
/// use flexstep_core::json::JsonObject;
/// let mut o = JsonObject::new();
/// o.field_str("name", "fig8");
/// o.field_u64("cores", 16);
/// o.field_raw("nested", "{\"ok\": true}");
/// assert_eq!(o.finish(), r#"{"name": "fig8", "cores": 16, "nested": {"ok": true}}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) {
        if self.any {
            self.buf.push_str(", ");
        }
        self.any = true;
        let _ = write!(self.buf, "\"{}\": ", escape(key));
    }

    /// Adds a string field (escaped).
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(value));
        self
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a signed integer field.
    pub fn field_i64(&mut self, key: &str, value: i64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field (`null` when non-finite).
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&number(value));
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a pre-rendered JSON value verbatim (nested object/array).
    pub fn field_raw(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(value);
        self
    }

    /// Adds an array of pre-rendered JSON values.
    pub fn field_array<I>(&mut self, key: &str, values: I) -> &mut Self
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        self.key(key);
        self.buf.push('[');
        for (i, v) in values.into_iter().enumerate() {
            if i > 0 {
                self.buf.push_str(", ");
            }
            self.buf.push_str(v.as_ref());
        }
        self.buf.push(']');
        self
    }

    /// Closes the object and returns the rendered JSON.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Renders an array of JSON numbers (see [`number`] for formatting —
/// non-finite values become `null`). The campaign artifacts use this
/// for latency series and histogram buckets.
pub fn numbers(values: impl IntoIterator<Item = f64>) -> String {
    array(values.into_iter().map(number))
}

/// Renders an array of JSON unsigned integers.
pub fn numbers_u64(values: impl IntoIterator<Item = u64>) -> String {
    array(values.into_iter().map(|v| v.to_string()))
}

/// Renders an array of pre-rendered JSON values.
pub fn array<I>(values: I) -> String
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut buf = String::from("[");
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            buf.push_str(", ");
        }
        buf.push_str(v.as_ref());
    }
    buf.push(']');
    buf
}

/// A parsed JSON value.
///
/// Numbers are kept as their raw source text so integer values up to
/// the full `u64`/`i64` range survive parsing exactly (an `f64`
/// intermediate would corrupt 64-bit campaign seeds); convert on
/// access with [`JsonValue::as_u64`]/[`JsonValue::as_f64`].
///
/// ```
/// use flexstep_core::json::JsonValue;
/// let v = JsonValue::parse(r#"{"seed": 18446744073709551615, "rows": [1, 2]}"#).unwrap();
/// assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(u64::MAX));
/// assert_eq!(v.get("rows").and_then(JsonValue::as_array).map(<[_]>::len), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text (e.g. `"42"`, `"-1.5e3"`).
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, insertion-ordered (keys are not deduplicated).
    Object(Vec<(String, JsonValue)>),
}

/// A parse failure: the byte offset and a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input where parsing failed.
    pub at: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

impl JsonValue {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] locating the first malformed byte.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage after document"));
        }
        Ok(v)
    }

    /// The value of `key` when this is an object (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a `u64`, when this is an integral number in range
    /// (exact — no float intermediate).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `i64`, when this is an integral number in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates (paired or lone) are not
                            // produced by our writer; reject them
                            // rather than emit replacement chars.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("non-scalar \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // byte sequence is valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected exponent digits"));
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII digits")
            .to_string();
        Ok(JsonValue::Number(raw))
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn numbers_round_trip_and_null_out() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(2.0), "2.0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }

    #[test]
    fn object_builds_in_order() {
        let mut o = JsonObject::new();
        o.field_str("a", "x")
            .field_u64("b", 3)
            .field_bool("c", true);
        o.field_f64("d", 0.25);
        o.field_array("e", ["1", "2"]);
        assert_eq!(
            o.finish(),
            r#"{"a": "x", "b": 3, "c": true, "d": 0.25, "e": [1, 2]}"#
        );
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(JsonObject::new().finish(), "{}");
        assert_eq!(array(std::iter::empty::<&str>()), "[]");
    }

    #[test]
    fn number_arrays_render_inline() {
        assert_eq!(numbers([1.5, 2.0, f64::NAN]), "[1.5, 2.0, null]");
        assert_eq!(numbers_u64([3, 4, 5]), "[3, 4, 5]");
        assert_eq!(numbers(std::iter::empty()), "[]");
    }

    #[test]
    fn parser_round_trips_writer_output() {
        let mut o = JsonObject::new();
        o.field_str("name", "fig8 \"quick\"\n")
            .field_u64("seed", u64::MAX)
            .field_i64("delta", -3)
            .field_f64("mean_us", 1.25)
            .field_bool("ok", true)
            .field_raw("none", "null")
            .field_array("rows", ["1", "2", "3"]);
        let v = JsonValue::parse(&o.finish()).unwrap();
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("fig8 \"quick\"\n")
        );
        assert_eq!(v.get("seed").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert_eq!(v.get("delta").and_then(JsonValue::as_i64), Some(-3));
        assert_eq!(v.get("mean_us").and_then(JsonValue::as_f64), Some(1.25));
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        let rows = v.get("rows").and_then(JsonValue::as_array).unwrap();
        assert_eq!(rows.iter().filter_map(JsonValue::as_u64).sum::<u64>(), 6);
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parser_keeps_u64_precision() {
        // 2^63 + 1 is not representable in f64 — the raw-text number
        // representation must carry it through exactly.
        let v = JsonValue::parse("9223372036854775809").unwrap();
        assert_eq!(v.as_u64(), Some(9_223_372_036_854_775_809));
        assert_eq!(v.as_i64(), None, "out of i64 range");
    }

    #[test]
    fn parser_handles_nesting_and_whitespace() {
        let v = JsonValue::parse(" { \"a\" : [ { \"b\" : [ ] } , null , -1.5e3 ] , \"c\" : { } } ")
            .unwrap();
        let a = v.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].get("b").and_then(JsonValue::as_array), Some(&[][..]));
        assert_eq!(a[1], JsonValue::Null);
        assert_eq!(a[2].as_f64(), Some(-1500.0));
        assert_eq!(v.get("c").and_then(JsonValue::as_object), Some(&[][..]));
    }

    #[test]
    fn parser_unescapes_strings() {
        let v = JsonValue::parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{41}"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "{\"a\": 1,}",
            "01e",
            "1 2",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "[1 2]",
            "-",
            "1.",
            "1e",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "must reject {bad:?}");
        }
    }
}
