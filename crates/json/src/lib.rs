//! # straight-json
//!
//! A small, dependency-free JSON library used for the machine-readable
//! benchmark records (`BENCH_*.json`). The container image this
//! reproduction grows in has no network access to crates.io, so the
//! usual `serde`/`serde_json` pair is replaced by this crate: a value
//! model ([`Json`]), a deterministic serializer (object keys keep
//! insertion order, so repeated runs are byte-comparable), a strict
//! recursive-descent parser, and [`ToJson`]/[`FromJson`] conversion
//! traits standing in for `Serialize`/`Deserialize`.
//!
//! Numbers are stored as `f64`. Every counter in the simulator fits in
//! the 2^53 exactly-representable integer range (the largest cycle
//! budget is 2·10^10), and integral values are rendered without a
//! decimal point so records stay schema-stable.
//!
//! ```
//! use straight_json::{Json, ToJson};
//!
//! let v = Json::obj([("cycles", 1234u64.to_json()), ("ipc", 1.5f64.to_json())]);
//! let text = v.render();
//! assert_eq!(text, r#"{"cycles":1234,"ipc":1.5}"#);
//! assert_eq!(Json::parse(&text).unwrap(), v);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Objects preserve insertion order so serialization is
/// deterministic across runs (a requirement for the benchmark
/// trajectory's byte-comparable records).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as an ordered list of key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// An error from parsing or from shaping a [`Json`] value into a
/// typed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The input is not valid JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What the parser expected.
        msg: String,
    },
    /// The value is valid JSON but does not match the expected shape
    /// (missing field, wrong type, out-of-range number).
    Shape(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { offset, msg } => write!(f, "parse error at byte {offset}: {msg}"),
            JsonError::Shape(msg) => write!(f, "shape error: {msg}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>, I: IntoIterator<Item = (K, Json)>>(fields: I) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks up a field of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object field, as a shape error when absent.
    ///
    /// # Errors
    ///
    /// [`JsonError::Shape`] when `self` is not an object or lacks `key`.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key).ok_or_else(|| JsonError::Shape(format!("missing field `{key}`")))
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, when integral and in range.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation and a trailing newline —
    /// the format of the `BENCH_*.json` files.
    #[must_use]
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
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
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
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
                    newline_indent(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// [`JsonError::Parse`] with the byte offset of the first invalid
    /// construct.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("end of input"));
        }
        Ok(v)
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 {
        let _ = fmt::write(out, format_args!("{}", n as i64));
    } else {
        // `{:?}` on f64 prints the shortest string that round-trips.
        let _ = fmt::write(out, format_args!("{n:?}"));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::write(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &str) -> JsonError {
        JsonError::Parse { offset: self.pos, msg: format!("expected {expected}") }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("`{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(word))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            self.expect(b',')?;
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            self.expect(b',')?;
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            // The input is a &str, so any run of non-escape bytes is
            // valid UTF-8.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| {
                JsonError::Parse { offset: start, msg: "invalid UTF-8".to_string() }
            })?);
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.err("closing `\"`")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let b = *self.bytes.get(self.pos).ok_or_else(|| self.err("escape character"))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let code = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&code) {
                    // A surrogate pair: require the low half.
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err(self.err("low surrogate"));
                    }
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("low surrogate"));
                    }
                    let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(combined).ok_or_else(|| self.err("valid code point"))?
                } else {
                    char::from_u32(code).ok_or_else(|| self.err("valid code point"))?
                };
                out.push(c);
            }
            _ => return Err(self.err("a valid escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = *self.bytes.get(self.pos).ok_or_else(|| self.err("4 hex digits"))?;
            let digit = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("a hex digit")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        self.eat(b'-');
        if !self.digits() {
            return Err(self.err("digits"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.err("fraction digits"));
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.err("exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("a number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| JsonError::Parse {
            offset: start,
            msg: format!("invalid number `{text}`"),
        })
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }
}

/// Conversion into [`Json`] — this repo's stand-in for
/// `serde::Serialize`.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Conversion back out of [`Json`] — the stand-in for
/// `serde::Deserialize`.
pub trait FromJson: Sized {
    /// Reconstructs `Self`, or a [`JsonError::Shape`] naming what is
    /// missing or mistyped.
    ///
    /// # Errors
    ///
    /// [`JsonError::Shape`] when `value` does not have the expected
    /// structure.
    fn from_json(value: &Json) -> Result<Self, JsonError>;
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_bool().ok_or_else(|| JsonError::Shape("expected a bool".to_string()))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value.as_f64().ok_or_else(|| JsonError::Shape("expected a number".to_string()))
    }
}

macro_rules! int_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(value: &Json) -> Result<Self, JsonError> {
                let n = value
                    .as_f64()
                    .ok_or_else(|| JsonError::Shape("expected a number".to_string()))?;
                if n.fract() != 0.0 {
                    return Err(JsonError::Shape(format!("expected an integer, got {n}")));
                }
                if n < <$t>::MIN as f64 || n > <$t>::MAX as f64 {
                    return Err(JsonError::Shape(format!(
                        "{} out of range for {}", n, stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}

int_json!(u8, u16, u32, u64, usize, i32, i64);

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::Shape("expected a string".to_string()))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_arr()
            .ok_or_else(|| JsonError::Shape("expected an array".to_string()))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for BTreeMap<String, T> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<T: FromJson> FromJson for BTreeMap<String, T> {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        value
            .as_obj()
            .ok_or_else(|| JsonError::Shape("expected an object".to_string()))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), T::from_json(v)?)))
            .collect()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        match value.as_arr() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::Shape("expected a 2-element array".to_string())),
        }
    }
}

/// Starts an ergonomic object builder; the usual way to write a
/// record. Keys keep insertion order, like [`Json::obj`].
///
/// ```
/// use straight_json::obj;
///
/// let v = obj().field("cycles", &1234u64).field("ipc", &1.5f64).build();
/// assert_eq!(v.render(), r#"{"cycles":1234,"ipc":1.5}"#);
/// ```
#[must_use]
pub fn obj() -> JsonBuilder {
    JsonBuilder::default()
}

/// An in-order JSON object under construction (see [`obj`]).
#[derive(Debug, Default, Clone)]
pub struct JsonBuilder {
    fields: Vec<(String, Json)>,
}

impl JsonBuilder {
    /// Appends a field, converting the value through [`ToJson`].
    /// `Option` fields serialize as `null` when `None`, and a
    /// pre-built [`Json`] value passes through unchanged.
    #[must_use]
    pub fn field<T: ToJson + ?Sized>(mut self, key: impl Into<String>, value: &T) -> JsonBuilder {
        self.fields.push((key.into(), value.to_json()));
        self
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> Json {
        Json::Obj(self.fields)
    }
}

impl From<JsonBuilder> for Json {
    fn from(builder: JsonBuilder) -> Json {
        builder.build()
    }
}

impl ToJson for JsonBuilder {
    fn to_json(&self) -> Json {
        Json::Obj(self.fields.clone())
    }
}

/// A [`Json`] value is trivially convertible to itself, so pre-built
/// values can be passed to [`JsonBuilder::field`].
impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

/// Implements [`ToJson`] and [`FromJson`] for a struct by listing its
/// fields: the JSON object carries one key per listed field, in the
/// order listed, and reading one back requires every key.
///
/// ```
/// use straight_json::{json_record, FromJson, ToJson};
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: u32,
///     y: Option<u32>,
/// }
/// json_record!(Point { x, y });
///
/// let p = Point { x: 1, y: None };
/// assert_eq!(p.to_json().render(), r#"{"x":1,"y":null}"#);
/// assert_eq!(Point::from_json(&p.to_json()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! json_record {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::obj()$(.field(stringify!($field), &self.$field))*.build()
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(value: &$crate::Json) -> Result<Self, $crate::JsonError> {
                Ok(Self {
                    $($field: $crate::read_field(value, stringify!($field))?,)*
                })
            }
        }
    };
}

/// Reads a typed field out of an object in one step.
///
/// # Errors
///
/// [`JsonError::Shape`] when the field is absent or has the wrong
/// type; the error names the field.
pub fn read_field<T: FromJson>(obj: &Json, key: &str) -> Result<T, JsonError> {
    T::from_json(obj.field(key)?)
        .map_err(|e| JsonError::Shape(format!("field `{key}`: {e}")))
}

/// FNV-1a 64-bit hash, used for configuration fingerprints and stdout
/// digests in the benchmark records.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_roundtrip() {
        let v = Json::obj([
            ("null", Json::Null),
            ("b", Json::Bool(true)),
            ("int", Json::Num(42.0)),
            ("neg", Json::Num(-7.0)),
            ("frac", Json::Num(0.1)),
            ("big", Json::Num(20_000_000_000.0)),
            ("s", Json::Str("hi \"there\"\n\t\\ ✓".to_string())),
            ("arr", Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())])),
            ("nested", Json::obj([("k", Json::Arr(vec![]))])),
        ]);
        for text in [v.render(), v.render_pretty()] {
            assert_eq!(Json::parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn integral_numbers_have_no_decimal_point() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-1.0).render(), "-1");
        assert_eq!(Json::Num(20_000_000_000.0).render(), "20000000000");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn parse_escapes_and_unicode() {
        let v = Json::parse(r#""aA\né😀""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\né😀"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{,}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn typed_conversions() {
        assert_eq!(u64::from_json(&Json::Num(7.0)).unwrap(), 7);
        assert!(u64::from_json(&Json::Num(7.5)).is_err());
        assert!(u32::from_json(&Json::Num(-1.0)).is_err());
        let m: BTreeMap<String, u64> =
            FromJson::from_json(&Json::parse(r#"{"a":1,"b":2}"#).unwrap()).unwrap();
        assert_eq!(m["a"], 1);
        let pairs: Vec<(u32, f64)> =
            FromJson::from_json(&Json::parse("[[1,0.5],[2,1.0]]").unwrap()).unwrap();
        assert_eq!(pairs, vec![(1, 0.5), (2, 1.0)]);
    }

    #[test]
    fn option_roundtrip() {
        assert_eq!(Option::<u64>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(Option::<u64>::from_json(&Json::Num(3.0)).unwrap(), Some(3));
        assert_eq!(None::<u64>.to_json(), Json::Null);
    }

    #[test]
    fn builder_matches_hand_rolled_objects() {
        let hand = Json::obj([
            ("a", 1u64.to_json()),
            ("b", Json::Null),
            ("c", Json::Arr(vec![Json::Num(1.0)])),
        ]);
        let built = obj()
            .field("a", &1u64)
            .field("b", &None::<u64>)
            .field("c", &vec![1u64])
            .build();
        assert_eq!(built, hand);
        assert_eq!(built.render(), hand.render());
        // Pre-built Json values pass through `field` unchanged, and
        // insertion order is preserved.
        let nested = obj().field("outer", &obj().field("inner", &2u32).build()).build();
        assert_eq!(nested.render(), r#"{"outer":{"inner":2}}"#);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
