//! Shim `serde_json`: a small JSON value model plus pretty-printing.
//!
//! Instead of serde's derive/visitor machinery, types opt in by
//! implementing [`ToJson`]; `to_string_pretty` then renders the value with
//! two-space indentation (stable output, suitable for committed baselines).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Append a field to an object value (panics on non-objects).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::field on non-object {other:?}"),
        }
        self
    }

    /// Field lookup on an object value; `None` for non-objects or missing
    /// keys (first match wins, mirroring the real crate).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (ints widen), `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// String value, `None` otherwise.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        if v <= i64::MAX as u64 {
            Json::Int(v as i64)
        } else {
            Json::Float(v as f64)
        }
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::from(v as u64)
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

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json> + Clone> From<&[T]> for Json {
    fn from(v: &[T]) -> Json {
        Json::Array(v.iter().cloned().map(Into::into).collect())
    }
}

impl<V: Into<Json>> From<BTreeMap<String, V>> for Json {
    fn from(v: BTreeMap<String, V>) -> Json {
        Json::Object(v.into_iter().map(|(k, val)| (k, val.into())).collect())
    }
}

/// Types that can render themselves as a [`Json`] value.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

/// Error type for signature compatibility with the real crate. Emission
/// cannot fail; parsing reports a message with a byte offset.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn at(pos: usize, msg: impl Into<String>) -> Error {
        Error { msg: format!("{} at byte {pos}", msg.into()) }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

pub fn to_string_pretty<T: ToJson>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_json(), 0, &mut out);
    Ok(out)
}

pub fn to_string<T: ToJson>(value: &T) -> Result<String, Error> {
    Ok(write_compact(&value.to_json()))
}

/// Parse a JSON document into a [`Json`] value (recursive descent; numbers
/// without `.`/`e` that fit an `i64` parse as [`Json::Int`], everything
/// else numeric as [`Json::Float`]).
pub fn from_str(s: &str) -> Result<Json, Error> {
    let mut p = Parser { text: s, bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::at(p.pos, "trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

const MAX_DEPTH: usize = 256;

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::at(self.pos, format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::at(self.pos, format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::at(self.pos, "JSON nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(Error::at(self.pos, format!("unexpected character '{}'", c as char))),
            None => Err(Error::at(self.pos, "unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(Error::at(self.pos, "expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, Error> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value(depth + 1)?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(Error::at(self.pos, "expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
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
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::at(self.pos, "unexpected end of input in escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::at(self.pos, "invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(
                                c.ok_or_else(|| Error::at(self.pos, "invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::at(
                                self.pos - 1,
                                format!("invalid escape '\\{}'", other as char),
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a character boundary.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        match b {
                            b'"' | b'\\' => break,
                            0..0x20 => {
                                return Err(Error::at(self.pos, "unescaped control character"))
                            }
                            _ => self.pos += 1,
                        }
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
                None => return Err(Error::at(self.pos, "unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(Error::at(self.pos, "truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| Error::at(self.pos, "invalid \\u escape"))?;
        let v =
            u32::from_str_radix(s, 16).map_err(|_| Error::at(self.pos, "invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::at(start, "invalid number"))?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| Error::at(start, format!("invalid number '{text}'")))
    }
}

fn escape(s: &str, out: &mut String) {
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

fn write_float(v: f64, out: &mut String) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            out.push_str(&format!("{:.1}", v));
        } else {
            out.push_str(&format!("{}", v));
        }
    } else {
        out.push_str("null");
    }
}

fn write_value(v: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Float(f) => write_float(*f, out),
        Json::Str(s) => escape(s, out),
        Json::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(&pad_in);
                escape(k, out);
                out.push_str(": ");
                write_value(val, indent + 1, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

fn write_compact(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Int(i) => i.to_string(),
        Json::Float(f) => {
            let mut s = String::new();
            write_float(*f, &mut s);
            s
        }
        Json::Str(s) => {
            let mut out = String::new();
            escape(s, &mut out);
            out
        }
        Json::Array(items) => {
            let inner: Vec<String> = items.iter().map(write_compact).collect();
            format!("[{}]", inner.join(","))
        }
        Json::Object(fields) => {
            let inner: Vec<String> = fields
                .iter()
                .map(|(k, v)| {
                    let mut key = String::new();
                    escape(k, &mut key);
                    format!("{key}:{}", write_compact(v))
                })
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_output_is_stable() {
        let v = Json::object()
            .field("name", "q1")
            .field("seconds", 12.5)
            .field("rows", 4i64)
            .field("tags", vec!["a", "b"]);
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(
            s,
            "{\n  \"name\": \"q1\",\n  \"seconds\": 12.5,\n  \"rows\": 4,\n  \"tags\": [\n    \"a\",\n    \"b\"\n  ]\n}"
        );
    }

    #[test]
    fn escapes_and_compact() {
        let v = Json::object().field("s", "a\"b\\c\nd");
        assert_eq!(to_string(&v).unwrap(), "{\"s\":\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn whole_floats_keep_a_decimal() {
        assert_eq!(to_string(&Json::Float(3.0)).unwrap(), "3.0");
        assert_eq!(to_string(&Json::Float(0.25)).unwrap(), "0.25");
    }

    #[test]
    fn parse_round_trips_own_output() {
        let v = Json::object()
            .field("name", "q3")
            .field("seconds", 12.5)
            .field("rows", -4i64)
            .field("big", i64::MAX)
            .field("none", Json::Null)
            .field("ok", true)
            .field("tags", vec!["a", "b\"c\n"])
            .field("nested", Json::object().field("empty_arr", Json::Array(vec![])));
        for s in [to_string_pretty(&v).unwrap(), to_string(&v).unwrap()] {
            assert_eq!(from_str(&s).unwrap(), v);
        }
    }

    #[test]
    fn parse_numbers() {
        assert_eq!(from_str("42").unwrap(), Json::Int(42));
        assert_eq!(from_str("-7").unwrap(), Json::Int(-7));
        assert_eq!(from_str("2.5e3").unwrap(), Json::Float(2500.0));
        assert_eq!(from_str("-0.125").unwrap(), Json::Float(-0.125));
        // Too big for i64 still parses, as a float.
        assert_eq!(from_str("92233720368547758080").unwrap(), Json::Float(9.223372036854776e19));
    }

    #[test]
    fn parse_string_escapes() {
        assert_eq!(from_str(r#""a\u0041\n\t\"\\\/""#).unwrap(), Json::Str("aA\n\t\"\\/".into()));
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(from_str(r#""\uD834\uDD1E""#).unwrap(), Json::Str("𝄞".into()));
    }

    #[test]
    fn multi_byte_characters_beside_escapes_round_trip() {
        for text in ["é\n€", "\"中\"", "😀\\😀", "a\té\u{1}ß", "\n", "€", ""] {
            let v = Json::object().field(text, vec![text, "x"]);
            for s in [to_string_pretty(&v).unwrap(), to_string(&v).unwrap()] {
                assert_eq!(from_str(&s).unwrap(), v, "{s}");
            }
        }
        // Escaped surrogate pairs and literal characters, side by side.
        assert_eq!(
            from_str(r#""é\uD834\uDD1E😀\u00e9\"ß""#).unwrap(),
            Json::Str("é𝄞😀é\"ß".into())
        );
    }

    #[test]
    fn parses_a_multi_megabyte_string_document() {
        let text = "ab€中😀\"\\\n".repeat(200_000);
        let v = Json::Array(vec![Json::Str(text.clone()), Json::object().field("k", text)]);
        let s = to_string(&v).unwrap();
        assert!(s.len() > 4_000_000, "{} bytes", s.len());
        assert_eq!(from_str(&s).unwrap(), v);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "[1] trailing",
            "{\"a\" 1}",
            "\"\\q\"",
            "\"\\uD834\"",
            "\"tab\tinside\"",
            "\"é\u{1}\"",
        ] {
            assert!(from_str(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn parse_skips_whitespace() {
        let v = from_str(" \t\r\n[ 1 , { \"k\" : null } ] ").unwrap();
        assert_eq!(
            v,
            Json::Array(vec![Json::Int(1), Json::Object(vec![("k".into(), Json::Null)])])
        );
    }
}
