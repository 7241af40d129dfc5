//! A dependency-free JSON value: build, render (pretty or compact),
//! and parse.
//!
//! The workspace is offline (no `serde_json`), and the subset every
//! consumer needs — objects, arrays, strings, numbers, booleans,
//! `null` — is a page of code. The same value type backs the
//! `BENCH_*.json` benchmark reports, the JSONL run-event sink, and the
//! `obs_report` reader, so writers and readers can never drift apart.

use std::fmt;

/// A JSON value. Build with the constructors, render with
/// [`Json::pretty`] (reports) or [`Json::compact`] (JSONL records),
/// read back with [`Json::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (non-finite values render as `null`).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor: `Json::obj([("key", value), …])`.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// String constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Number constructor (accepts anything convertible to `f64`).
    pub fn num(n: impl Into<f64>) -> Json {
        Json::Num(n.into())
    }

    /// Looks up a field of an object (`None` for other variants or
    /// missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number stored at an object field, if present.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number stored at an object field as a `T`, if it is finite,
    /// integral, non-negative and fits `T` — the checked form of
    /// `get_num(key)? as T` for counts, indices and sizes. `2⁶⁴` reads
    /// as `u64::MAX`, the value that renders as it.
    pub fn get_int<T: TryFrom<u64>>(&self, key: &str) -> Option<T> {
        self.get(key)?.as_int()
    }

    /// This value as a `T` under the [`get_int`](Self::get_int) rule
    /// (`None` for non-numbers).
    pub fn as_int<T: TryFrom<u64>>(&self) -> Option<T> {
        let Json::Num(n) = *self else { return None };
        // `u64::MAX as f64` rounds up to 2⁶⁴, which `as u64` saturates
        // back; anything larger does not fit. NaN is in no range.
        if !(0.0..=18_446_744_073_709_551_616.0).contains(&n) || n.fract() != 0.0 {
            return None;
        }
        T::try_from(n as u64).ok()
    }

    /// The string stored at an object field, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on a single line with no insignificant whitespace — the
    /// JSONL record form.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None);
        out
    }

    /// `depth` of `None` renders compact (single line); `Some(d)`
    /// renders pretty at indentation depth `d`.
    fn render(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if *n == n.trunc() && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
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
                    if let Some(d) = depth {
                        out.push('\n');
                        indent(out, d + 1);
                    }
                    item.render(out, depth.map(|d| d + 1));
                }
                if let Some(d) = depth {
                    out.push('\n');
                    indent(out, d);
                }
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
                    if let Some(d) = depth {
                        out.push('\n');
                        indent(out, d + 1);
                    }
                    render_string(k, out);
                    out.push_str(if depth.is_some() { ": " } else { ":" });
                    v.render(out, depth.map(|d| d + 1));
                }
                if let Some(d) = depth {
                    out.push('\n');
                    indent(out, d);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text` (which must contain nothing
    /// else but whitespace around it).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] locating the first offending byte.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let bytes = text.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// A JSON syntax error: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending position.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates (emitted by other writers for
                            // astral characters) are not produced by our
                            // renderer; map them to the replacement
                            // character rather than failing the record.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("unterminated string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
            offset: start,
            message: format!("invalid number {text:?}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures_with_escapes() {
        let j = Json::obj([
            ("name", Json::str("a \"quoted\"\nline")),
            ("count", Json::num(3u32)),
            ("ratio", Json::num(0.5)),
            ("nan", Json::Num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("rows", Json::Arr(vec![Json::num(1u32), Json::Null])),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let text = j.pretty();
        assert!(text.contains("\"a \\\"quoted\\\"\\nline\""));
        assert!(text.contains("\"count\": 3"));
        assert!(text.contains("\"ratio\": 0.5"));
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn integers_render_without_a_fraction() {
        assert_eq!(Json::num(200u32).pretty(), "200\n");
        assert_eq!(Json::num(2.25).pretty(), "2.25\n");
    }

    #[test]
    fn compact_renders_one_line() {
        let j = Json::obj([
            ("a", Json::num(1u32)),
            ("b", Json::Arr(vec![Json::Bool(false), Json::Null])),
        ]);
        assert_eq!(j.compact(), r#"{"a":1,"b":[false,null]}"#);
    }

    #[test]
    fn parse_round_trips_render() {
        let j = Json::obj([
            ("name", Json::str("tab\there \"and\" 'quotes'")),
            ("neg", Json::num(-12.5)),
            ("exp", Json::num(3e-4)),
            ("big", Json::num(1.0e18)),
            ("flags", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("nested", Json::obj([("k", Json::str("v"))])),
            ("unicode", Json::str("köln ↗")),
        ]);
        assert_eq!(Json::parse(&j.compact()).unwrap(), j);
        assert_eq!(Json::parse(&j.pretty()).unwrap(), j);
    }

    #[test]
    fn parse_rejects_garbage_with_an_offset() {
        let err = Json::parse("{\"a\": }").unwrap_err();
        assert_eq!(err.offset, 6);
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
        assert!(Json::parse("").is_err());
        assert!(
            Json::parse("{\"a\": 1").is_err(),
            "torn record must not parse"
        );
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parse_handles_escapes() {
        let j = Json::parse(r#""a\u0041\n\t\\\"""#).unwrap();
        assert_eq!(j, Json::str("aA\n\t\\\""));
    }

    #[test]
    fn field_accessors() {
        let j = Json::obj([("n", Json::num(2u32)), ("s", Json::str("x"))]);
        assert_eq!(j.get_num("n"), Some(2.0));
        assert_eq!(j.get_str("s"), Some("x"));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Null.get("n"), None);
    }

    #[test]
    fn get_int_accepts_only_in_range_whole_numbers() {
        let j = Json::parse(r#"{"z": -0.0, "b": 255, "w": 256, "e": 9007199254740992}"#).unwrap();
        assert_eq!(j.get_int::<u8>("z"), Some(0));
        assert_eq!(j.get_int::<u8>("b"), Some(255));
        assert_eq!(j.get_int::<u8>("w"), None, "does not fit");
        assert_eq!(j.get_int::<u16>("w"), Some(256));
        assert_eq!(j.get_int::<u64>("e"), Some(1 << 53));
        assert_eq!(j.get_int::<u64>("missing"), None);
        for bad in [-3.0, 2.5, 1e30, f64::NAN, f64::INFINITY] {
            assert_eq!(Json::Num(bad).as_int::<u64>(), None, "{bad}");
        }
        assert_eq!(Json::num(u64::MAX as f64).as_int(), Some(u64::MAX));
        assert_eq!(Json::num(u64::MAX as f64).as_int::<u32>(), None);
        assert_eq!(Json::str("7").as_int::<u64>(), None);
    }
}
