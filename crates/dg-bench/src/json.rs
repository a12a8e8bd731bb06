//! Hand-rolled JSON support: an escaped writer and a small
//! recursive-descent parser.
//!
//! Replaces `serde`/`serde_json` so result export stays inside the
//! hermetic, zero-external-dependency workspace (see `README.md`,
//! "Hermetic build & determinism"). The writer covers exactly what the
//! result exporter needs — objects, arrays, strings, `u64`, and `f64` —
//! and the parser exists so tests (and downstream tooling) can read the
//! exported files back without a registry dependency.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, like JavaScript).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax
    /// error, including trailing garbage after the document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The field `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => {
                fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
            }
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

// Field readers for the artifact validators: each names the field as
// `{what}.{key}` in its error.

pub(crate) fn req_u64(obj: &Json, key: &str, what: &str) -> Result<u64, String> {
    obj.get(key).and_then(Json::as_u64).ok_or(format!("{what}.{key} missing or not a u64"))
}

pub(crate) fn req_f64(obj: &Json, key: &str, what: &str) -> Result<f64, String> {
    obj.get(key).and_then(Json::as_f64).ok_or(format!("{what}.{key} missing or not a number"))
}

pub(crate) fn req_str<'a>(obj: &'a Json, key: &str, what: &str) -> Result<&'a str, String> {
    obj.get(key).and_then(Json::as_str).ok_or(format!("{what}.{key} missing or not a string"))
}

/// `null` or a u64; rejects anything else.
pub(crate) fn opt_u64_field(obj: &Json, key: &str, what: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        Some(Json::Null) => Ok(None),
        Some(v) => {
            Ok(Some(v.as_u64().ok_or(format!("{what}.{key} is neither null nor a u64"))?))
        }
        None => Err(format!("{what}.{key} missing")),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the
                            // exporter's own output; map lone
                            // surrogates to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

/// Escape `s` for embedding in a JSON string literal (quotes not
/// included).
#[must_use]
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

/// Format an `f64` as a JSON number. Rust's shortest-round-trip `{}`
/// formatting is valid JSON for finite values; non-finite values have
/// no JSON representation and become `null`.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let s = v.to_string();
        // `5` and `5.0` both print as "5"; keep it — JSON numbers carry
        // no int/float distinction.
        s
    } else {
        "null".to_string()
    }
}

/// Builder for a pretty-printed JSON object, two-space indented, fields
/// in insertion order.
#[derive(Debug)]
pub struct ObjectWriter {
    indent: usize,
    fields: Vec<(String, String)>,
}

impl ObjectWriter {
    /// An object whose braces sit at `indent` two-space levels.
    #[must_use]
    pub fn with_indent(indent: usize) -> Self {
        ObjectWriter { indent, fields: Vec::new() }
    }

    /// Add a string field.
    pub fn str_field(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields.push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Add an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Add a float field (`null` if non-finite).
    pub fn f64_field(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.push((key.to_string(), number(value)));
        self
    }

    /// Add a pre-rendered field — a nested object or array already
    /// serialized as JSON text. The caller is responsible for `raw`
    /// being valid JSON (typically another [`ObjectWriter::finish`] or
    /// [`array_document`] output).
    pub fn raw_field(&mut self, key: &str, raw: &str) -> &mut Self {
        self.fields.push((key.to_string(), raw.to_string()));
        self
    }

    /// Render the object.
    #[must_use]
    pub fn finish(&self) -> String {
        let pad = "  ".repeat(self.indent + 1);
        let close = "  ".repeat(self.indent);
        if self.fields.is_empty() {
            return "{}".to_string();
        }
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{pad}\"{}\": {v}", escape(k)))
            .collect();
        format!("{{\n{}\n{close}}}", body.join(",\n"))
    }
}

/// Render pre-rendered items as a pretty-printed JSON array at the top
/// level of a document.
#[must_use]
pub fn array_document(items: &[String]) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    let body: Vec<String> = items.iter().map(|i| format!("  {i}")).collect();
    format!("[\n{}\n]", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
        assert_eq!(escape("plain — ünïcode"), "plain — ünïcode");
    }

    #[test]
    fn writer_output_parses_back() {
        let mut o = ObjectWriter::with_indent(1);
        o.str_field("name", "split \"m14\"\n")
            .u64_field("cycles", 123_456_789_012)
            .f64_field("error", 0.015625)
            .f64_field("nan", f64::NAN);
        let doc = array_document(&[o.finish()]);
        let parsed = Json::parse(&doc).unwrap();
        let row = &parsed.as_array().unwrap()[0];
        assert_eq!(row.get("name").unwrap().as_str().unwrap(), "split \"m14\"\n");
        assert_eq!(row.get("cycles").unwrap().as_u64().unwrap(), 123_456_789_012);
        assert_eq!(row.get("error").unwrap().as_f64().unwrap(), 0.015625);
        assert_eq!(*row.get("nan").unwrap(), Json::Null);
    }

    #[test]
    fn raw_field_nests_documents() {
        let mut inner = ObjectWriter::with_indent(1);
        inner.u64_field("count", 3);
        let mut outer = ObjectWriter::with_indent(0);
        outer.raw_field("hist", &inner.finish()).raw_field("pairs", "[[0, 1], [5, 2]]");
        let parsed = Json::parse(&outer.finish()).unwrap();
        assert_eq!(parsed.get("hist").unwrap().get("count").unwrap().as_u64(), Some(3));
        let pairs = parsed.get("pairs").unwrap().as_array().unwrap();
        assert_eq!(pairs[1].as_array().unwrap()[0].as_u64(), Some(5));
    }

    #[test]
    fn parser_accepts_the_usual_shapes() {
        let v = Json::parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x"}} "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(-2500.0));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("[1] trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn float_round_trip_through_text() {
        for v in [0.0, 1.5, 1.0 / 3.0, 6.02214076e23, -1e-300] {
            let parsed = Json::parse(&number(v)).unwrap();
            assert_eq!(parsed.as_f64().unwrap(), v);
        }
    }
}
