//! The workspace's one JSON codec: a value type, a parser, and the string
//! writer every hand-written encoder shares.
//!
//! Encoders (`Profile::to_json`, `knit::proto`, `knit::Diagnostic::json`)
//! write their own objects so they control key order and layout — their
//! bytes are pinned by goldens — and route every string through
//! [`write_str`], so all of them escape identically. Decoders parse with
//! [`Json::parse`] and read fields with the `*_field` helpers, which fail
//! with one uniform `"{ctx} missing `{key}`"` message.
//!
//! The parser is built for untrusted input (wire requests, profiles):
//!
//! * unsigned integers stay exact `u64`s — image hashes and counters do
//!   not survive an `f64` round trip;
//! * decoding is linear in the input: strings are sliced out of the
//!   already-validated `&str`, with only escaped runs copied piecewise;
//! * nesting deeper than [`MAX_DEPTH`] is an `Err`, never a stack
//!   overflow.
//!
//! The build environment vendors no serialization crates, which is why
//! this exists at all; it is just enough JSON for the workspace's schemas.

use std::collections::BTreeMap;

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest real
/// documents (a `built` response's `outcome.phases` entries, an `error`
/// response's diagnostic spans) nest 4 levels; anything past this is
/// hostile and rejected before it can exhaust a connection thread's stack.
pub const MAX_DEPTH: usize = 64;

/// A JSON object: keys sorted, a repeated key keeps its last value.
pub type Object = BTreeMap<String, Json>;

/// A parsed JSON value. Non-negative integers without a fraction or
/// exponent are kept as exact [`Json::Int`]s; every other number is a
/// [`Json::Num`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer that fits a `u64`, exactly.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Object),
}

impl Json {
    /// Parse one JSON document; surrounding whitespace is allowed, any
    /// other trailing input is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("json: trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The object's fields, if this is an object.
    pub fn as_object(&self) -> Option<&Object> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Field `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.get(key)
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a `u64`: exact for [`Json::Int`], and accepted for a
    /// non-negative integral [`Json::Num`] (e.g. `5.0`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as an `f64`, for any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn field<'a, T>(
    obj: &'a Object,
    ctx: &str,
    key: &str,
    get: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, String> {
    obj.get(key).and_then(get).ok_or_else(|| format!("{ctx} missing `{key}`"))
}

/// Required string field `key`; absent or not a string is
/// `"{ctx} missing `{key}`"`.
pub fn str_field(obj: &Object, ctx: &str, key: &str) -> Result<String, String> {
    field(obj, ctx, key, Json::as_str).map(str::to_string)
}

/// Required unsigned-integer field (see [`Json::as_u64`]).
pub fn u64_field(obj: &Object, ctx: &str, key: &str) -> Result<u64, String> {
    field(obj, ctx, key, Json::as_u64)
}

/// Required boolean field.
pub fn bool_field(obj: &Object, ctx: &str, key: &str) -> Result<bool, String> {
    field(obj, ctx, key, Json::as_bool)
}

/// Required object field.
pub fn object_field<'a>(obj: &'a Object, ctx: &str, key: &str) -> Result<&'a Object, String> {
    field(obj, ctx, key, Json::as_object)
}

/// Required array field.
pub fn array_field<'a>(obj: &'a Object, ctx: &str, key: &str) -> Result<&'a [Json], String> {
    field(obj, ctx, key, Json::as_array)
}

/// Append `s` to `out` as a JSON string literal: `"` and `\` are
/// backslash-escaped, `\n` `\r` `\t` use their short forms, other control
/// characters become `\u00XX`, and everything else (non-ASCII included)
/// is copied verbatim.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `items` to `out` as a JSON array, each element written by
/// `write`.
pub fn write_array<T>(out: &mut String, items: &[T], mut write: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("json: expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("json: bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("json: unexpected byte {}", self.pos)),
        }
    }

    /// Run one container parser one nesting level deeper, refusing to go
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("json: nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut m = Object::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            m.insert(key, self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return Err(format!("json: expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return Err(format!("json: expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    /// A string literal. Runs without escapes are copied as `&str` slices
    /// of the input (which is UTF-8 already, and `"`/`\` are ASCII, so
    /// every cut is a char boundary): one pass, no re-validation.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            let len = self.bytes[run..].iter().position(|&b| b == b'"' || b == b'\\');
            let Some(len) = len else {
                return Err("json: unterminated string".to_string());
            };
            out.push_str(&self.text[run..run + len]);
            self.pos = run + len + 1;
            if self.bytes[run + len] == b'"' {
                return Ok(out);
            }
            self.escape(&mut out)?;
        }
    }

    /// One escape sequence, just past its backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        let c = match self.bytes.get(self.pos).copied() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self.hex4(self.pos + 1)?;
                self.pos += 4;
                if (0xd800..0xdc00).contains(&code) {
                    // A high surrogate must be followed by `\u` + low.
                    if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                        return Err("json: lone surrogate".to_string());
                    }
                    let low = self.hex4(self.pos + 3)?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err("json: bad surrogate".to_string());
                    }
                    self.pos += 6;
                    char::from_u32(0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00))
                        .ok_or("json: bad surrogate")?
                } else {
                    char::from_u32(code).ok_or("json: bad \\u escape")?
                }
            }
            other => return Err(format!("json: bad escape {other:?}")),
        };
        out.push(c);
        self.pos += 1;
        Ok(())
    }

    /// The four hex digits starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        let digits = self.bytes.get(at..at + 4).ok_or("json: truncated \\u escape")?;
        digits.iter().try_fold(0, |acc, &d| {
            let v = (d as char).to_digit(16).ok_or("json: bad \\u escape")?;
            Ok(acc << 4 | v)
        })
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            while matches!(p.bytes.get(p.pos), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
        };
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        digits(self);
        let mut float = false;
        if self.bytes.get(self.pos) == Some(&b'.') {
            float = true;
            self.pos += 1;
            digits(self);
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            digits(self);
        }
        let text = &self.text[start..self.pos];
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::Int(n));
            }
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("json: bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> String {
        let mut out = String::new();
        write_str(&mut out, v);
        out
    }

    #[test]
    fn write_str_escapes_quotes_backslashes_and_controls() {
        assert_eq!(s("plain é 𝔣"), "\"plain é 𝔣\"");
        assert_eq!(
            s("a\"b\\c\nd\re\tf\u{1}g\u{1f}\u{7f}"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001f\u{7f}\""
        );
    }

    #[test]
    fn strings_round_trip_through_the_parser() {
        for v in ["", "x", "we\"ird\\name\n\u{1}é", "𝔣\u{0}\t/", "\\\\\"\""] {
            assert_eq!(Json::parse(&s(v)).unwrap(), Json::Str(v.to_string()), "{v:?}");
        }
    }

    #[test]
    fn escapes_decode() {
        let v = Json::parse(r#""\/\b\fé𝔣""#).unwrap();
        assert_eq!(v, Json::Str("/\u{8}\u{c}é𝔣".to_string()));
        for bad in [
            r#""\ud835""#,
            r#""\ud835A""#,
            r#""\ud835\u0041""#,
            r#""\udd23""#,
            r#""\u+123""#,
            r#""\u12""#,
            r#""\x""#,
            r#""open"#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn integers_stay_exact_and_other_numbers_are_floats() {
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::Int(u64::MAX));
        assert_eq!(Json::parse("145.1").unwrap().as_f64(), Some(145.1));
        assert_eq!(Json::parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(Json::parse("5.0").unwrap().as_u64(), Some(5));
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("1e").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Json::parse(&deep).unwrap_err();
        assert_eq!(err, format!("json: nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}"));
        let objs = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objs).unwrap_err().contains("nesting deeper"));
    }
}
