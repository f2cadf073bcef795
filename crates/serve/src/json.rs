//! A minimal JSON reader (and string escaper) for the workspace's
//! hand-rolled JSON surfaces.
//!
//! The workspace writes JSON by hand (no serde in the dependency-free
//! build); two consumers need to read it back: `ppgraph report` re-reads
//! the metrics files the harness wrote itself, and — since the serve
//! subsystem landed — [`crate::protocol`] parses **untrusted query input**
//! arriving over a socket. This module is the shared reader: a small
//! recursive-descent parser into a [`Value`] tree plus the handful of
//! typed accessors the consumers use. It parses standard JSON (RFC 8259)
//! — objects, arrays, strings with escapes (including `\uXXXX`), numbers
//! in integer/fraction/exponent form, booleans, null — and nothing more
//! (no comments, no trailing commas). Malformed input yields a
//! [`ParseError`] with a byte offset, never a panic: a bad query line must
//! turn into a structured `bad_request` response, not kill the server.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the harness's integers fit f64 exactly: they are
    /// counts and nanosecond spans well under 2⁵³).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Key order is not preserved (BTreeMap), which is fine for
    /// a reader.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member `key` of an object (`None` for non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array elements (`None` for non-arrays).
    pub fn arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string payload (`None` for non-strings).
    pub fn str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload (`None` for non-numbers).
    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as u64, truncating (`None` for non-numbers and
    /// negatives).
    pub fn u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload (`None` for non-booleans).
    pub fn bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Minimal JSON string escaping for the workspace's hand-rolled writers:
/// quotes, backslashes, and control bytes (everything RFC 8259 §7 requires
/// to be escaped). Non-ASCII characters pass through unescaped — the
/// output is UTF-8 JSON.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A parse failure: what was expected and the byte offset it failed at.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// What the parser expected.
    pub expected: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expected {} at byte {}", self.expected, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing whitespace is allowed, trailing
/// content is an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of input"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &'static str) -> ParseError {
        ParseError {
            expected,
            offset: self.pos,
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

    fn eat(&mut self, b: u8, expected: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(expected))
        }
    }

    fn eat_lit(&mut self, lit: &'static str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(lit))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.eat_lit("true").map(|_| Value::Bool(true)),
            Some(b'f') => self.eat_lit("false").map(|_| Value::Bool(false)),
            Some(b'n') => self.eat_lit("null").map(|_| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "'{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "':'")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "'['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("closing '\"'")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("escape character"))?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("4 hex digits"))?;
                            self.pos += 4;
                            // Surrogate pairs don't occur in the harness's
                            // ASCII-escaped output; map lone surrogates to
                            // U+FFFD rather than erroring.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("a valid escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("a number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".to_string()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().arr().unwrap()[2]
                .get("b")
                .unwrap()
                .str(),
            Some("c")
        );
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("1 2").is_err(), "trailing content");
        assert!(parse("'single'").is_err());
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.to_string().contains("byte 4"));
    }

    #[test]
    fn accessors_are_type_checked() {
        let v = parse("3").unwrap();
        assert_eq!(v.num(), Some(3.0));
        assert_eq!(v.u64(), Some(3));
        assert_eq!(v.str(), None);
        assert_eq!(v.arr(), None);
        assert_eq!(parse("-2").unwrap().u64(), None);
        assert_eq!(parse("true").unwrap().bool(), Some(true));
    }

    // ------------------------------------------------------------------
    // Untrusted-input edge cases: the parser now sits behind the serve
    // protocol, so inputs nobody in the workspace would *write* must still
    // parse (or fail) cleanly.

    #[test]
    fn escaped_quotes_and_unicode_in_strings() {
        // Escaped quote adjacent to an escaped backslash — the classic
        // `\\"` ambiguity: the backslash escape must consume its pair
        // before the quote is considered.
        assert_eq!(parse(r#""a\\\"b""#).unwrap().str(), Some(r#"a\"b"#));
        assert_eq!(parse(r#""\\\\""#).unwrap().str(), Some(r"\\"));
        // \u escapes: BMP characters, and raw (unescaped) multi-byte UTF-8.
        assert_eq!(parse(r#""éЖ""#).unwrap().str(), Some("éЖ"));
        assert_eq!(
            parse("\"héllo → wörld\"").unwrap().str(),
            Some("héllo → wörld")
        );
        // A key containing escapes still indexes correctly.
        let v = parse(r#"{"a\"b": 1}"#).unwrap();
        assert_eq!(v.get("a\"b").and_then(Value::u64), Some(1));
        // Lone surrogates map to U+FFFD rather than erroring or panicking.
        assert_eq!(parse(r#""\ud800""#).unwrap().str(), Some("\u{fffd}"));
        // Truncated escapes are errors, not panics.
        assert!(parse(r#""\u12"#).is_err());
        assert!(parse(r#""\"#).is_err());
        assert!(parse(r#""\q""#).is_err());
    }

    #[test]
    fn nested_arrays_of_objects() {
        let v = parse(
            r#"[{"rows": [{"a": 1}, {"a": 2}]},
                {"rows": []},
                {"rows": [{"b": [[1], [2, 3]]}]}]"#,
        )
        .unwrap();
        let outer = v.arr().unwrap();
        assert_eq!(outer.len(), 3);
        assert_eq!(outer[0].get("rows").unwrap().arr().unwrap().len(), 2);
        assert_eq!(
            outer[0].get("rows").unwrap().arr().unwrap()[1]
                .get("a")
                .and_then(Value::u64),
            Some(2)
        );
        assert_eq!(outer[1].get("rows").unwrap().arr(), Some(&[][..]));
        let deep = outer[2].get("rows").unwrap().arr().unwrap()[0]
            .get("b")
            .unwrap();
        assert_eq!(deep.arr().unwrap()[1].arr().unwrap().len(), 2);
        // Unbalanced nesting fails with an offset, not a panic.
        assert!(parse(r#"[{"rows": [{"a": 1}]}"#).is_err());
    }

    #[test]
    fn exponent_form_numbers() {
        assert_eq!(parse("1e3").unwrap().num(), Some(1000.0));
        assert_eq!(parse("1E3").unwrap().num(), Some(1000.0));
        assert_eq!(parse("2.5e-2").unwrap().num(), Some(0.025));
        assert_eq!(parse("-3e+4").unwrap().num(), Some(-30000.0));
        assert_eq!(parse("0.0e0").unwrap().num(), Some(0.0));
        // u64 view truncates exponent-form values the same as plain ones.
        assert_eq!(parse("1e3").unwrap().u64(), Some(1000));
        // Degenerate exponents must not parse as two tokens.
        assert!(parse("1e").is_err());
        assert!(parse("1e+").is_err());
        assert!(parse("e3").is_err());
        // Huge exponents saturate to infinity in f64 — accepted by the
        // grammar; consumers see a number, not a hang or panic.
        assert_eq!(parse("1e999").unwrap().num(), Some(f64::INFINITY));
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        for s in ["plain", "a\"b\\c", "x\ny\t", "\u{1}\u{1f}", "héllo"] {
            let doc = format!("\"{}\"", escape(s));
            assert_eq!(parse(&doc).unwrap().str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn round_trips_the_trace_writer() {
        let mut t = pp_telemetry::ChromeTrace::new();
        t.name_track(0, "rounds");
        t.duration("round 0", "round", 0, 0, 1_000, vec![]);
        let v = parse(&t.to_json()).unwrap();
        let events = v.arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().str(), Some("M"));
        assert_eq!(events[1].get("dur").unwrap().num(), Some(1.0));
    }
}
