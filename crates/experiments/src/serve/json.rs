//! A tiny flat-JSON reader for serve request bodies, and [`escape`], the
//! string half of every hand-rolled JSON writer in the crate. The offline
//! serde shim has no deserializer, so requests are parsed with a small
//! tokenizer that understands exactly what the job API needs: one flat
//! object of string / number / bool / null fields. Nested values are
//! rejected.

use std::collections::BTreeMap;

/// One flat JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string field (escapes decoded).
    Str(String),
    /// A numeric field (integers only; the API has no float fields).
    Num(i64),
    /// A boolean field.
    Bool(bool),
    /// An explicit null.
    Null,
}

/// Parses `{"k": v, ...}` with string/integer/bool/null values.
///
/// # Errors
///
/// Any deviation from that shape, with a position hint.
pub fn parse_flat(input: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
        return p.finish(map);
    }
    loop {
        p.skip_ws();
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.value()?;
        map.insert(key, value);
        p.skip_ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => return p.finish(map),
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {}, got {other:?}",
                    p.pos
                ))
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next() {
            Some(b) if b == want => Ok(()),
            other => Err(format!(
                "expected '{}' at byte {}, got {other:?}",
                want as char, self.pos
            )),
        }
    }

    fn finish(&mut self, map: BTreeMap<String, Value>) -> Result<BTreeMap<String, Value>, String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(map)
        } else {
            Err(format!("trailing bytes after object at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(b) if b < 0x20 => return Err("control byte in string".to_string()),
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 sequences verbatim.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                if self.peek() == Some(b'-') {
                    self.pos += 1;
                }
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "bad number".to_string())?;
                text.parse::<i64>()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number {text:?}"))
            }
            Some(b'{' | b'[') => Err("nested values are not accepted".to_string()),
            other => Err(format!(
                "expected value at byte {}, got {other:?}",
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 8);
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

/// String field accessor.
pub fn get_str<'m>(map: &'m BTreeMap<String, Value>, key: &str) -> Option<&'m str> {
    match map.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Integer field accessor.
pub fn get_num(map: &BTreeMap<String, Value>, key: &str) -> Option<i64> {
    match map.get(key) {
        Some(Value::Num(n)) => Some(*n),
        _ => None,
    }
}

/// Boolean field accessor.
pub fn get_bool(map: &BTreeMap<String, Value>, key: &str) -> Option<bool> {
    match map.get(key) {
        Some(Value::Bool(b)) => Some(*b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_job_request_shape() {
        let m = parse_flat(
            "{\"artifact\": \"fig3\", \"scale\": \"quick\", \"json\": false, \
             \"deadline_ms\": 5000, \"note\": null}",
        )
        .expect("parses");
        assert_eq!(get_str(&m, "artifact"), Some("fig3"));
        assert_eq!(get_str(&m, "scale"), Some("quick"));
        assert_eq!(get_bool(&m, "json"), Some(false));
        assert_eq!(get_num(&m, "deadline_ms"), Some(5000));
        assert_eq!(m.get("note"), Some(&Value::Null));
        assert_eq!(get_str(&m, "missing"), None);
    }

    #[test]
    fn decodes_escapes_and_rejects_nesting() {
        let m = parse_flat("{\"k\": \"a\\n\\\"b\\\" \\u0041\"}").expect("parses");
        assert_eq!(get_str(&m, "k"), Some("a\n\"b\" A"));
        assert!(parse_flat("{\"k\": {\"nested\": 1}}").is_err());
        assert!(parse_flat("{\"k\": [1]}").is_err());
        assert!(parse_flat("{\"k\": 1} trailing").is_err());
        assert!(parse_flat("not json").is_err());
        assert!(parse_flat("{}").expect("empty object").is_empty());
    }
}
