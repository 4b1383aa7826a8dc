//! Minimal, offline-safe JSON tree: the one document model every spec,
//! report, shard document, checkpoint journal and trace file is written
//! and read through.
//!
//! The build environment has no crates-io access, so the parser and
//! writer are hand-rolled. The model holds exactly the JSON subset the
//! workspace needs — objects, arrays, strings, booleans, `null` and
//! numbers — and keeps two number representations so 64-bit seeds survive
//! a round trip without drifting through `f64` (`u64::MAX` is not
//! representable as a double). Floats print in their shortest round-trip
//! form and every string goes through one escaper, so any document this
//! module writes parses back to the same tree. The field-table codec in
//! [`super::codec`] maps records onto this tree; the layout writer in
//! `crate::report` decides where its lines break.
//!
//! Parsing errors carry a byte offset and a human-readable message; the
//! `hqw` runner surfaces them verbatim with exit status 2.

use std::fmt::Write as _;

/// A parsed JSON value.
///
/// Equality is document equality: numbers compare by their written text,
/// so `Float(3.0)` (written `3`) equals the `UInt(3)` that text parses
/// back to.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no `.`, exponent or sign) — kept
    /// exact so `u64` seeds round-trip.
    UInt(u64),
    /// Any other numeric literal.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (specs are small; a vec keeps the
    /// serializer deterministic without a map dependency).
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (Json::UInt(a), Json::UInt(b)) => a == b,
            (Json::Float(a), Json::Float(b)) => a.to_string() == b.to_string(),
            (Json::UInt(a), Json::Float(b)) | (Json::Float(b), Json::UInt(a)) => {
                a.to_string() == b.to_string()
            }
            _ => false,
        }
    }
}

/// A JSON syntax error: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub(crate) fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Parses a complete JSON document (rejects trailing garbage).
    ///
    /// # Errors
    /// Returns a [`JsonError`] with the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64` (integer literals only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64` (integer literals widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline — the
    /// spec-file house style.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Serializes on one line (used for list manifests).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                // Arrays of scalars stay on one line; arrays of containers
                // get one element per line.
                let nested = items
                    .iter()
                    .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)));
                if !nested {
                    self.write_compact(out);
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    write_string(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    /// Appends the one-line rendering (as [`Json::to_string_compact`]).
    pub(crate) fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float(v) => {
                assert!(v.is_finite(), "Json: non-finite number {v}");
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_string(out, key);
                    out.push_str(": ");
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Appends `s` as a quoted, escaped JSON string — the one escaper every
/// document goes through.
pub(crate) fn write_string(out: &mut String, s: &str) {
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

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _): &(String, Json)| *k == key) {
                return Err(self.err(format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the plain (non-escape, non-quote) run.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => out.push(self.unicode_escape()?),
                        c => {
                            self.pos -= 1;
                            return Err(self.err(format!("unknown escape '\\{}'", c as char)));
                        }
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The char of a `\u` escape whose `\u` is already consumed. A high
    /// surrogate pairs with the `\uDC00`–`\uDFFF` escape right after it
    /// (how `json.dumps` writes a non-BMP char); a lone or reversed
    /// surrogate is rejected at the offending escape's digits.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        if !(0xD800..0xDC00).contains(&code) {
            return char::from_u32(code).ok_or_else(|| {
                self.pos -= 4;
                self.err("\\u escape is not a scalar value")
            });
        }
        if !self.bytes[self.pos..].starts_with(b"\\u") {
            return Err(self.err("high surrogate not followed by a \\u escape"));
        }
        self.pos += 2;
        let low = self.hex4()?;
        if !(0xDC00..0xE000).contains(&low) {
            self.pos -= 4;
            return Err(self.err("high surrogate not followed by a low surrogate"));
        }
        let scalar = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        Ok(char::from_u32(scalar).expect("a surrogate pair decodes to a scalar value"))
    }

    /// Exactly four hex digits (no sign, no fewer), consumed.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = digits.iter().try_fold(0, |code, &d| {
            (d as char)
                .to_digit(16)
                .map(|v| code * 16 + v)
                .ok_or_else(|| self.err("invalid \\u escape"))
        })?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let mut integral = !negative;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number run");
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(format!("malformed number '{text}'")))?;
        if !v.is_finite() {
            return Err(self.err(format!("number '{text}' overflows an f64")));
        }
        Ok(Json::Float(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let doc = r#"{"a": 1, "b": [true, null, "x", -2.5], "c": {"d": 1e3}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(arr[3].as_f64(), Some(-2.5));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(1e3));
    }

    #[test]
    fn u64_seeds_survive_exactly() {
        let seed = u64::MAX - 7;
        let doc = format!("{{\"seed\": {seed}}}");
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(seed));
        let round = Json::parse(&v.to_string_pretty()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn floats_round_trip_through_display() {
        for x in [0.1, 1.5e-7, -3.25, 123456.789, f64::MIN_POSITIVE] {
            let v = Json::Float(x);
            let text = v.to_string_compact();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(x), "{text}");
        }
    }

    #[test]
    fn numbers_are_equal_when_their_text_is() {
        // `Float(3.0)` is written `3`, which parses back as `UInt(3)`.
        assert_eq!(Json::parse("3").unwrap(), Json::Float(3.0));
        assert_eq!(Json::Float(0.5), Json::Float(0.5));
        assert_ne!(Json::Float(-0.0), Json::Float(0.0));
        assert_ne!(Json::UInt(3), Json::Float(3.5));
        assert_ne!(Json::UInt(3), Json::Str("3".into()));
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "a\"b\\c\nd\te\u{1}f";
        let v = Json::Str(s.to_string());
        let text = v.to_string_compact();
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        // `json.dumps("sa-pool \u{1F680}")` writes the rocket as a UTF-16 pair.
        let v = Json::parse(r#""sa-pool \ud83d\ude80""#).unwrap();
        assert_eq!(v.as_str(), Some("sa-pool \u{1F680}"));
        let v = Json::parse(r#""\ud800\udc00\udbff\udfff\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{10000}\u{10FFFF}A"));
    }

    #[test]
    fn bad_unicode_escapes_are_rejected_at_their_digits() {
        for (doc, offset, needle) in [
            (r#""\ud83d""#, 7, "not followed by a \\u escape"),
            (r#""\ud83dx""#, 7, "not followed by a \\u escape"),
            (r#""\ud83d\u0041""#, 9, "not followed by a low surrogate"),
            (r#""\ud83d\ud83d""#, 9, "not followed by a low surrogate"),
            (r#""\ude80""#, 3, "not a scalar value"),
            (r#""\ude80\ud83d""#, 3, "not a scalar value"),
            (r#""x\u+041""#, 4, "invalid \\u escape"),
            (r#""\u-041""#, 3, "invalid \\u escape"),
            (r#""\u04 1""#, 3, "invalid \\u escape"),
            (r#""\ud83d\ude8""#, 9, "invalid \\u escape"),
            (r#""\u12"#, 3, "truncated \\u escape"),
        ] {
            let err = Json::parse(doc).expect_err(doc);
            assert_eq!(err.offset, offset, "{doc}: {err}");
            assert!(
                err.message.contains(needle),
                "{doc}: {err} missing {needle}"
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for (doc, needle) in [
            ("", "unexpected end"),
            ("{", "expected"),
            ("[1, ]", "unexpected character"),
            ("{\"a\" 1}", "expected ':'"),
            ("{\"a\": 1} x", "trailing"),
            ("\"abc", "unterminated string"),
            ("01a", "trailing"),
            ("1.2.3", "malformed number"),
            ("{\"a\": 1, \"a\": 2}", "duplicate key"),
            ("nul", "expected 'null'"),
            ("1e400", "overflows"),
        ] {
            let err = Json::parse(doc).expect_err(doc);
            assert!(
                err.to_string().contains(needle),
                "{doc}: {err} missing {needle}"
            );
        }
    }

    #[test]
    fn pretty_output_is_reparseable_and_indented() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("ber".into())),
            (
                "grid".into(),
                Json::Arr(vec![Json::UInt(1), Json::Float(2.5)]),
            ),
            (
                "nested".into(),
                Json::Arr(vec![Json::Obj(vec![("k".into(), Json::UInt(1))])]),
            ),
        ]);
        let text = v.to_string_pretty();
        assert!(text.contains("\n  \"name\": \"ber\""));
        assert!(text.contains("\"grid\": [1, 2.5]"));
        assert!(text.ends_with("}\n"));
        assert_eq!(Json::parse(&text).unwrap(), v);
    }
}
