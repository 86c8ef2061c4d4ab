//! Offline stand-in for `serde_json`: renders the shim `serde::Value`
//! tree to JSON text and parses it back. Supports exactly the JSON
//! subset the shim serializer emits (which is standard JSON, so
//! hand-written fixtures parse too).

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// JSON error with a byte offset for parse failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    msg: String,
    offset: Option<usize>,
}

impl Error {
    fn parse(offset: usize, msg: impl Into<String>) -> Self {
        Error {
            msg: msg.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "json error at byte {o}: {}", self.msg),
            None => write!(f, "json error: {}", self.msg),
        }
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error {
            msg: e.to_string(),
            offset: None,
        }
    }
}

/// Serializes a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Parses JSON text into any shim-`Deserialize` type.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::parse(p.pos, "trailing characters"));
    }
    Ok(T::from_value(&v)?)
}

fn write_value(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error {
                    msg: "cannot serialize non-finite float".into(),
                    offset: None,
                });
            }
            // `{}` prints the shortest round-trippable form.
            out.push_str(&f.to_string());
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
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

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
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
            Err(Error::parse(self.pos, format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(Error::parse(self.pos, "expected a JSON value")),
        }
    }

    fn literal(&mut self, text: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(Error::parse(self.pos, format!("expected `{text}`")))
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error::parse(self.pos, "expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::parse(self.pos, "expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::parse(self.pos, "unterminated string")),
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
                                .ok_or_else(|| Error::parse(self.pos, "truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::parse(self.pos, "bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::parse(self.pos, "bad \\u escape"))?;
                            // Surrogate pairs are not emitted by the shim
                            // writer; decode BMP scalars only.
                            let c = char::from_u32(code)
                                .ok_or_else(|| Error::parse(self.pos, "bad \\u scalar"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(Error::parse(self.pos, "bad escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b.is_ascii() => {
                    out.push(char::from(b));
                    self.pos += 1;
                }
                Some(_) => {
                    let c = self
                        .scalar_at_pos()
                        .ok_or_else(|| Error::parse(self.pos, "invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the UTF-8 scalar that starts at `pos` from a window of at
    /// most four bytes — never from the whole remaining input, which
    /// made string parsing quadratic in the document length.
    fn scalar_at_pos(&self) -> Option<char> {
        let window = &self.bytes[self.pos..self.bytes.len().min(self.pos + 4)];
        let valid = match std::str::from_utf8(window) {
            Ok(s) => s,
            // The window may cut the *next* scalar short; the one at
            // `pos` is whole exactly when a valid prefix exists.
            Err(e) => std::str::from_utf8(&window[..e.valid_up_to()]).ok()?,
        };
        valid.chars().next()
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::parse(start, "invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::parse(start, "invalid float"))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else if let Ok(u) = text.parse::<u64>() {
            Ok(Value::UInt(u))
        } else {
            // Integer-looking but beyond u64 (e.g. Rust's Display of
            // 1e300, which never uses scientific notation): degrade to
            // float rather than reject.
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::parse(start, "invalid integer"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42i64).unwrap(), "42");
        assert_eq!(from_str::<i64>("42").unwrap(), 42);
        assert_eq!(from_str::<f64>("2.5").unwrap(), 2.5);
        assert!(from_str::<bool>(" true ").unwrap());
        let s: String = from_str("\"a\\nb\\u0041\"").unwrap();
        assert_eq!(s, "a\nbA");
    }

    #[test]
    fn nested_round_trips() {
        let v: Vec<(u32, Option<u32>)> = vec![(1, Some(2)), (3, None)];
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[[1,2],[3,null]]");
        let back: Vec<(u32, Option<u32>)> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn float_precision_round_trips() {
        for f in [0.1f64, 1.0 / 3.0, 1e300, -2.5e-10] {
            let text = to_string(&f).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, f, "{text}");
        }
    }

    fn parse_bytes(bytes: &[u8]) -> Result<Value, Error> {
        JsonParser { bytes, pos: 0 }.parse_value()
    }

    #[test]
    fn string_parsing_is_linear_in_the_document() {
        // 2 MB of strings, multi-byte scalars included. Re-validating
        // the remaining input per character (the defect this pins) is
        // ~10^12 byte visits here — hours; one pass is well under a
        // second even unoptimized, so the bound is not timing-fragile.
        let doc: Vec<String> = (0..21_000)
            .map(|i| format!("member-{i:06}-é∀𝄞-").repeat(4))
            .collect();
        let text = to_string(&doc).unwrap();
        assert!(text.len() > 2_000_000, "{} bytes", text.len());
        let start = std::time::Instant::now();
        let back: Vec<String> = from_str(&text).unwrap();
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "string parsing took {:?}",
            start.elapsed()
        );
        assert_eq!(back, doc);
    }

    #[test]
    fn scalars_decode_from_a_bounded_window() {
        // 1-, 2-, 3- and 4-byte scalars, back to back and last.
        let s: String = from_str("\"aé∀𝄞\"").unwrap();
        assert_eq!(s, "aé∀𝄞");
        // A multi-byte scalar at the very end of the input still
        // decodes (the window is shorter than four bytes): what is
        // wrong with this document is the missing quote.
        for open in ["\"é", "\"∀", "\"𝄞", "\"x𝄞"] {
            let err = parse_bytes(open.as_bytes()).unwrap_err();
            assert_eq!(err, Error::parse(open.len(), "unterminated string"));
        }
    }

    #[test]
    fn invalid_and_truncated_utf8_is_refused_where_it_starts() {
        // A stray continuation byte, an overlong lead, a surrogate.
        for bad in [
            &b"\"ab\x80cd\""[..],
            b"\"ab\xc0\xafcd\"",
            b"\"ab\xed\xa0\x80\"",
        ] {
            let err = parse_bytes(bad).unwrap_err();
            assert_eq!(err, Error::parse(3, "invalid UTF-8"), "{bad:?}");
        }
        // A scalar cut short by the closing quote, and by the end of
        // the input.
        for cut in [&b"\"ab\xe2\x88\""[..], b"\"ab\xf0\x9d\x84", b"\"ab\xc3"] {
            let err = parse_bytes(cut).unwrap_err();
            assert_eq!(err, Error::parse(3, "invalid UTF-8"), "{cut:?}");
        }
        // Bad bytes at the first plain character: the position the
        // whole-remainder validation reported, too.
        let err = parse_bytes(b"\"\xff\"").unwrap_err();
        assert_eq!(err, Error::parse(1, "invalid UTF-8"));
    }

    #[test]
    fn errors_on_garbage() {
        assert!(from_str::<i64>("4x").is_err());
        assert!(from_str::<Vec<i64>>("[1,").is_err());
        assert!(from_str::<String>("\"open").is_err());
    }
}
