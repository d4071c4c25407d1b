//! Minimal JSON emission and parsing.
//!
//! Machine-readable export without pulling a serialization dependency into
//! the workspace: a small value tree with spec-compliant string escaping
//! and float formatting, sufficient for the flat records experiments and
//! trace sinks produce, plus a strict recursive-descent parser so trace
//! consumers (bench binaries, golden tests) can read the streams back.
//!
//! The daemon decodes every socket frame with this parser, so both
//! directions run in time linear in the text: strings are copied and
//! escaped in runs between the characters that need escaping, and
//! nesting is capped at [`MAX_NESTING`] levels so hostile input ends in
//! an error instead of a stack overflow.
//!
//! [`push_number`] appends the text of one number to a byte buffer
//! through the same formatting code as `Display`, and so does a string
//! escaper inside this crate, so writers of flat records
//! (`RunEvent::write_json`, the daemon's `event` frames) produce the
//! bytes of the tree without building it.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The parser
/// recurses once per level, so without a cap a few kilobytes of `[`
/// overflow the parsing thread's stack and abort the process. Protocol
/// frames nest at most 3 levels, trace lines 1, and reports about 4.
pub const MAX_NESTING: usize = 128;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Finite number (non-finite values serialize as `null`, as
    /// `JSON.stringify` does).
    Number(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object with deterministic (sorted) key order.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Convenience constructor for an object from key/value pairs.
    ///
    /// ```
    /// use hypart_trace::json::JsonValue;
    ///
    /// let v = JsonValue::object([
    ///     ("cut", JsonValue::Number(42.0)),
    ///     ("balanced", JsonValue::Bool(true)),
    /// ]);
    /// assert_eq!(v.to_string(), r#"{"balanced":true,"cut":42}"#);
    /// ```
    pub fn object<K, I>(pairs: I) -> JsonValue
    where
        K: Into<String>,
        I: IntoIterator<Item = (K, JsonValue)>,
    {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Convenience constructor for an array.
    pub fn array<I: IntoIterator<Item = JsonValue>>(items: I) -> JsonValue {
        JsonValue::Array(items.into_iter().collect())
    }

    /// Convenience constructor for a string value.
    pub fn string(s: impl Into<String>) -> JsonValue {
        JsonValue::String(s.into())
    }

    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with the byte offset of the
    /// problem, including arrays or objects nested deeper than
    /// [`MAX_NESTING`].
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.parse_value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Field access for object values; `None` for anything else.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integral
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The numeric payload as `i64`, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Number(x) if x.fract() == 0.0 => Some(*x as i64),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<f64> for JsonValue {
    fn from(x: f64) -> Self {
        JsonValue::Number(x)
    }
}

impl From<u64> for JsonValue {
    fn from(x: u64) -> Self {
        JsonValue::Number(x as f64)
    }
}

impl From<i64> for JsonValue {
    fn from(x: i64) -> Self {
        JsonValue::Number(x as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(x: usize) -> Self {
        JsonValue::Number(x as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(x: bool) -> Self {
        JsonValue::Bool(x)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(x) => write_number(f, *x),
            JsonValue::String(s) => write_escaped(f, s),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Appends the text of `JsonValue::Number(x)` to `out`, without building
/// the value.
pub fn push_number(out: &mut Vec<u8>, x: f64) {
    // Appending to a `Vec` cannot fail.
    let _ = write_number(&mut Bytes(out), x);
}

/// Appends the text of `JsonValue::String(s)` to `out`, without building
/// the value.
pub(crate) fn push_string(out: &mut Vec<u8>, s: &str) {
    // Appending to a `Vec` cannot fail.
    let _ = write_escaped(&mut Bytes(out), s);
}

/// A byte buffer as a `fmt::Write` target, so [`push_number`] and
/// `push_string` share the formatting code of `Display`.
struct Bytes<'a>(&'a mut Vec<u8>);

impl fmt::Write for Bytes<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Writes a number: integral values below 9e15 in magnitude without a
/// fractional part, other finite values in Rust's shortest round-trip
/// decimal (never in exponent form), and non-finite values as `null`, as
/// `JSON.stringify` does.
fn write_number<W: fmt::Write>(w: &mut W, x: f64) -> fmt::Result {
    if !x.is_finite() {
        w.write_str("null")
    } else if x.fract() == 0.0 && x.abs() < 9e15 {
        write!(w, "{}", x as i64)
    } else {
        write!(w, "{x}")
    }
}

/// Writes `s` as a JSON string literal. Each run of characters that need
/// no escaping goes out in one `write_str`; every character that does is
/// ASCII, so the runs split `s` on char boundaries.
fn write_escaped<W: fmt::Write>(f: &mut W, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        f.write_str(&s[run_start..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run_start = i + 1;
    }
    f.write_str(&s[run_start..])?;
    f.write_str("\"")
}

/// Strict recursive-descent JSON parser over a UTF-8 text. `pos` only
/// ever moves past ASCII bytes or whole runs of string content that end
/// before an ASCII byte, so it always sits on a char boundary and a
/// slice of `text` between two positions needs no re-validation.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn expect_literal(&mut self, lit: &str) -> Result<(), String> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.expect_literal("null").map(|()| JsonValue::Null),
            Some(b't') => self.expect_literal("true").map(|()| JsonValue::Bool(true)),
            Some(b'f') => self
                .expect_literal("false")
                .map(|()| JsonValue::Bool(false)),
            Some(b'"') => self.parse_string().map(JsonValue::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    /// Runs a container parser one nesting level deeper, refusing to go
    /// past [`MAX_NESTING`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, String>,
    ) -> Result<JsonValue, String> {
        if self.depth == MAX_NESTING {
            return Err(format!(
                "nesting deeper than {MAX_NESTING} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
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
        // The encoder never writes a non-finite number, so an overflowing
        // one (`1e999`) is refused rather than read as infinity.
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite())
            .map(JsonValue::Number)
            .ok_or_else(|| format!("bad number `{text}` at byte {start}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next `"` or `\`
            // in one step; both delimiters are ASCII, so the run is a
            // slice of the input text.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1; // the backslash
                    out.push(self.parse_escape()?);
                }
            }
        }
    }

    /// Decodes the escape sequence after a backslash.
    fn parse_escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                self.pos += 1;
                let first = self.parse_hex4()?;
                return if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: the low half must follow.
                    self.expect_literal("\\u")?;
                    let second = self.parse_hex4()?;
                    let low = second
                        .checked_sub(0xDC00)
                        .filter(|&x| x < 0x400)
                        .ok_or_else(|| "bad low surrogate".to_string())?;
                    let combined = 0x10000 + ((first - 0xD800) << 10) + low;
                    char::from_u32(combined).ok_or_else(|| "bad surrogate pair".to_string())
                } else {
                    char::from_u32(first).ok_or_else(|| "lone surrogate".to_string())
                };
            }
            _ => return Err(format!("bad escape at byte {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        // `from_str_radix` would also take a sign, so check the digits.
        let value = self
            .text
            .get(self.pos..end)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(value)
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-character escaper the run-based `write_escaped` replaced,
    /// kept as the oracle its output must match byte for byte.
    fn oracle_escape(s: &str) -> String {
        let mut out = String::from("\"");
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

    /// `s` as a JSON literal with every other character spelled as a
    /// `\uXXXX` escape (a surrogate pair above the BMP), so parsing
    /// alternates between plain runs and escapes.
    fn unicode_escaped(s: &str) -> String {
        let mut out = String::from("\"");
        for (i, c) in s.chars().enumerate() {
            if i % 2 == 0 {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04X}"));
                }
            } else {
                let quoted = oracle_escape(&c.to_string());
                out.push_str(&quoted[1..quoted.len() - 1]);
            }
        }
        out.push('"');
        out
    }

    /// Characters from every class the escaper treats differently: the
    /// two escaped printables, C0 controls, DEL, plain ASCII, non-ASCII
    /// in the BMP, and astral characters.
    pub(crate) fn wire_char() -> impl Strategy<Value = char> {
        prop_oneof![
            Just(u32::from('"')),
            Just(u32::from('\\')),
            0u32..0x20,
            Just(0x7F),
            0x20u32..0x7F,
            0x80u32..0xD800,
            0xE000u32..0x1_0000,
            0x1_0000u32..0x11_0000,
        ]
        .prop_map(|c| char::from_u32(c).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn strings_match_the_oracle_and_round_trip(
            chars in proptest::collection::vec(wire_char(), 0..48),
        ) {
            let s: String = chars.into_iter().collect();
            let value = JsonValue::string(s.clone());
            let text = value.to_string();
            prop_assert_eq!(&text, &oracle_escape(&s));
            prop_assert_eq!(JsonValue::parse(&text), Ok(value.clone()));
            // As an object key too, which takes the same escaper.
            let keyed = JsonValue::object([(s.clone(), value.clone())]);
            let keyed_text = keyed.to_string();
            prop_assert_eq!(&keyed_text, &format!("{{{text}:{text}}}"));
            prop_assert_eq!(JsonValue::parse(&keyed_text), Ok(keyed));
            // Escapes the encoder never writes decode to the same value.
            prop_assert_eq!(JsonValue::parse(&unicode_escaped(&s)), Ok(value));
        }
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nested(MAX_NESTING)).is_ok());
        let err = JsonValue::parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Objects count the same way, mixed with arrays.
        let mixed = |depth: usize| {
            let open: String = (0..depth)
                .map(|i| if i % 2 == 0 { "{\"k\":" } else { "[" })
                .collect();
            let close: String = (0..depth)
                .rev()
                .map(|i| if i % 2 == 0 { "}" } else { "]" })
                .collect();
            format!("{open}0{close}")
        };
        assert!(JsonValue::parse(&mixed(MAX_NESTING)).is_ok());
        assert!(JsonValue::parse(&mixed(MAX_NESTING + 1)).is_err());
        // Far past the cap: an error, not a stack overflow.
        assert!(JsonValue::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn long_string_parses_in_linear_time() {
        // A 320 KB netlist-like string with an escape on every line. A
        // parser that re-validates the rest of the input per character
        // needs seconds here even in release builds.
        let line = "120 7 913 44 2048 5 66\n";
        let text: String = line.repeat((320 << 10) / line.len());
        let frame = JsonValue::string(text.clone()).to_string();
        assert!(frame.len() >= 256 << 10);
        let start = std::time::Instant::now();
        let back = JsonValue::parse(&frame).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(back.as_str(), Some(text.as_str()));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "parsing {} bytes took {elapsed:?}",
            frame.len()
        );
    }

    #[test]
    fn scalars() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::Bool(true).to_string(), "true");
        assert_eq!(JsonValue::Number(3.0).to_string(), "3");
        assert_eq!(JsonValue::Number(3.25).to_string(), "3.25");
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::string("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn escaping() {
        assert_eq!(
            JsonValue::string("a\"b\\c\nd").to_string(),
            r#""a\"b\\c\nd""#
        );
        assert_eq!(JsonValue::string("\u{1}").to_string(), "\"\\u0001\"");
        assert_eq!(JsonValue::string("tab\there").to_string(), "\"tab\\there\"");
        assert_eq!(JsonValue::string("cr\rlf\n").to_string(), "\"cr\\rlf\\n\"");
        // Non-ASCII passes through unescaped (valid JSON, UTF-8 medium).
        assert_eq!(JsonValue::string("λ—é").to_string(), "\"λ—é\"");
    }

    #[test]
    fn large_integer_formatting() {
        // Integers below the 9e15 guard print without a fractional part …
        assert_eq!(JsonValue::Number(8.999e15).to_string(), "8999000000000000");
        assert_eq!(
            JsonValue::Number(-8.999e15).to_string(),
            "-8999000000000000"
        );
        // … and at/above it fall back to float display, still integral and
        // exponent-free (Rust float Display never uses scientific
        // notation), so consumers parse the same value back.
        for huge in [9e15, 2f64.powi(53), 1e20, u64::MAX as f64] {
            let text = JsonValue::Number(huge).to_string();
            assert!(!text.contains(['e', 'E']), "{text}");
            assert_eq!(JsonValue::parse(&text).unwrap().as_f64(), Some(huge));
        }
        // u64::MAX is not exactly representable; the shortest round-trip
        // decimal of the nearest f64 is emitted.
        assert_eq!(
            JsonValue::from(u64::MAX).to_string(),
            "18446744073709552000"
        );
    }

    #[test]
    fn containers() {
        let v = JsonValue::array([JsonValue::from(1u64), JsonValue::Null]);
        assert_eq!(v.to_string(), "[1,null]");
        let o = JsonValue::object([("b", JsonValue::from(2u64)), ("a", JsonValue::from(1u64))]);
        assert_eq!(o.to_string(), r#"{"a":1,"b":2}"#); // sorted keys
    }

    #[test]
    fn parse_round_trips() {
        for text in [
            "null",
            "true",
            "false",
            "42",
            "-1.5",
            "\"hi\"",
            "[]",
            "[1,2,[3]]",
            "{}",
            r#"{"a":1,"b":[true,null],"c":{"d":"e"}}"#,
            r#""a\"b\\c\nd""#,
            "\"\\u0001\"",
        ] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.to_string(), text, "round trip of {text}");
        }
    }

    #[test]
    fn parse_handles_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"k\" : [ 1 , \"\\u00e9\\uD83D\\uDE00\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap(),
            &JsonValue::array([JsonValue::from(1u64), JsonValue::string("é😀")])
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for text in [
            "",
            "nul",
            "{",
            "[1,]",
            "{\"a\":}",
            "1 2",
            "\"unterminated",
            "\"a\\",
            "\"\\x\"",
            "\"\\u+041\"",
            "\"\\u00e\"",
            "\"\\uD83D\"",
            "1e999",
            "-1e999",
        ] {
            assert!(JsonValue::parse(text).is_err(), "{text:?} should fail");
        }
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"n":3,"s":"x","b":true,"neg":-4}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("neg").unwrap().as_i64(), Some(-4));
        assert_eq!(v.get("neg").unwrap().as_u64(), None);
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("x"), None);
    }
}
