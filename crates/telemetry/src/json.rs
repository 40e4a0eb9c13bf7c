//! The workspace's one JSON reader and string escaper.
//!
//! Every writer in the workspace (metrics snapshots, Chrome traces,
//! `qdd serve` responses) escapes strings with [`write_json_string`].
//! [`parse_json`] is a minimal recursive-descent parser for the documents
//! they produce — objects, arrays, strings with standard escapes, finite
//! numbers, booleans, null — and for the request bodies `qdd serve`
//! receives. It rejects everything else with a position-annotated error.
//! [`parse_json_streaming`] reads a large document's one big array an
//! element at a time.

use std::fmt::Write as _;

/// Appends `text` to `out` as a JSON string literal with the required
/// escapes.
pub fn write_json_string(out: &mut String, text: &str) {
    out.push('"');
    for ch in text.chars() {
        match ch {
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
    out.push('"');
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (IEEE double, like the writer emits).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order (keys are not deduplicated).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects (first match); `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as u64 (truncating), if this is a non-negative
    /// number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(v) if *v >= 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document, requiring it to span the whole input.
///
/// # Errors
///
/// A human-readable message with the byte offset of the first problem.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser::new(text);
    let value = p.value()?;
    p.end()?;
    Ok(value)
}

/// Parses the JSON object `text` like [`parse_json`], except that the
/// elements of its array member `key` go to `element` one at a time, in
/// order, instead of into the result, so a reader of a large document
/// holds one element at a time. Returns the object's other members.
///
/// # Errors
///
/// What [`parse_json`] reports, a missing `key` array, and the first error
/// `element` returns.
pub fn parse_json_streaming(
    text: &str,
    key: &str,
    mut element: impl FnMut(JsonValue) -> Result<(), String>,
) -> Result<JsonValue, String> {
    let mut p = Parser::new(text);
    let (mut members, mut streamed) = (Vec::new(), false);
    p.seq(b'{', b'}', |p| {
        let name = p.key()?;
        if name == key && p.peek() == Some(b'[') {
            streamed = true;
            p.seq(b'[', b']', |p| element(p.value()?))
        } else {
            members.push((name, p.value()?));
            Ok(())
        }
    })?;
    if !streamed {
        return Err(format!("no \"{key}\" array"));
    }
    p.end()?;
    Ok(JsonValue::Object(members))
}

/// Maximum container nesting. The parser recurses per nesting level, so
/// without a cap a hostile document of consecutive `[`s overflows the
/// thread's stack — fatal for the whole process, which matters when the
/// input is an untrusted HTTP body (`qdd serve`) rather than a local
/// trace file. 128 is far beyond anything the trace writer or the serve
/// API emits.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first non-blank byte of `text`.
    fn new(text: &'a str) -> Self {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        p
    }

    /// Requires that only blanks follow the document.
    fn end(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing content at byte {}", self.pos));
        }
        Ok(())
    }

    /// Reads an `open` … `close` container of comma-separated items, each
    /// read by `item`; errors past [`MAX_DEPTH`] nested containers.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                if self.peek() != Some(b',') {
                    break;
                }
                self.pos += 1;
            }
        }
        self.depth -= 1;
        self.expect(close)
            .map_err(|_| format!("expected ',' or '{}' at byte {}", close as char, self.pos))
    }

    /// An object member's key and the `:` after it.
    fn key(&mut self) -> Result<String, String> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
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

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        let mut members = Vec::new();
        self.seq(b'{', b'}', |p| {
            let key = p.key()?;
            members.push((key, p.value()?));
            Ok(())
        })?;
        Ok(JsonValue::Object(members))
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        let mut items = Vec::new();
        self.seq(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Array(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates are not produced by the writer;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!("bad escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances
                    // past whole ASCII bytes or whole scalars, so it sits on
                    // a character boundary of `text`.
                    let ch = self.text[self.pos..].chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_string_escapes() {
        let mut s = String::new();
        write_json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_round_trip_of_scalars_and_containers() {
        let v = parse_json(
            "{\"a\":1,\"b\":-2.5e3,\"c\":\"x\\n\\u0041\",\"d\":[true,false,null],\"e\":{}}",
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(-2500.0));
        assert_eq!(v.get("c").unwrap().as_str(), Some("x\nA"));
        assert_eq!(v.get("d").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("e"), Some(&JsonValue::Object(Vec::new())));
    }

    #[test]
    fn json_nesting_is_capped_not_a_stack_overflow() {
        // At the cap: fine. The closing brackets must match.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
        // One past the cap: a typed error.
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse_json(&over).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Hundreds of KB of open brackets (the daemon-killing shape) must
        // return an error, not exhaust the thread's stack. Mixed
        // object/array nesting takes the same guard.
        assert!(parse_json(&"[".repeat(500_000)).is_err());
        assert!(parse_json(&"{\"k\":[".repeat(100_000)).is_err());
        // Depth resets between sibling containers: wide-but-shallow
        // documents are unaffected.
        assert!(parse_json(&format!("[{}]", vec!["[1]"; 1000].join(","))).is_ok());
    }

    #[test]
    fn streaming_hands_out_the_array_one_element_at_a_time() {
        let text = "{\"a\":{\"k\":[1]},\"items\":[ {\"n\":1}, [2] ,3],\"z\":null}\n";
        let mut items = Vec::new();
        let rest = parse_json_streaming(text, "items", |v| {
            items.push(v);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            items,
            parse_json("[{\"n\":1},[2],3]").unwrap().as_array().unwrap()
        );
        assert_eq!(rest, parse_json("{\"a\":{\"k\":[1]},\"z\":null}").unwrap());
        let stop = parse_json_streaming(text, "items", |_| Err("stop".to_string()));
        assert_eq!(stop.unwrap_err(), "stop");
        let missing = parse_json_streaming("{\"a\":1}", "items", |_| Ok(()));
        assert_eq!(missing.unwrap_err(), "no \"items\" array");
        assert!(parse_json_streaming("{\"items\":[1}", "items", |_| Ok(())).is_err());
        assert!(parse_json_streaming("{\"items\":[]} x", "items", |_| Ok(())).is_err());
    }

    #[test]
    fn json_rejects_trailing_garbage_and_bad_escapes() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("\"\\q\"").is_err());
        assert!(parse_json("[1,").is_err());
        assert!(parse_json("").is_err());
    }
}
