//! The ledger's own JSON reader and string escaper.
//!
//! Responses are checked with this parser, not with
//! `av_service::json`, so the checker does not share code with the
//! system it checks (and does not break when the service's parser is
//! replaced). It is linear in the input and accepts RFC 8259 documents.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Append `s` to `out` as a JSON string literal, quotes included.
pub fn escape_into(s: &str, out: &mut String) {
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

/// Append a JSON array of string literals.
pub fn str_array_into<S: AsRef<str>>(values: &[S], out: &mut String) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(v.as_ref(), out);
    }
    out.push(']');
}

/// Parse one JSON document; `Err` carries the byte offset of the fault.
pub fn parse(input: &str) -> Result<Value, usize> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos == p.bytes.len() {
        Ok(v)
    } else {
        Err(p.pos)
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), usize> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.pos)
        }
    }

    fn word(&mut self, word: &str, v: Value) -> Result<Value, usize> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.pos)
        }
    }

    fn value(&mut self) -> Result<Value, usize> {
        match self.peek() {
            Some(b'n') => self.word("null", Value::Null),
            Some(b't') => self.word("true", Value::Bool(true)),
            Some(b'f') => self.word("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.ws();
                    items.push(self.value()?);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(self.pos),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(b':')?;
                    self.ws();
                    let v = self.value()?;
                    map.insert(key, v);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(map));
                        }
                        _ => return Err(self.pos),
                    }
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                self.src[start..self.pos]
                    .parse()
                    .map(Value::Num)
                    .map_err(|_| start)
            }
            _ => Err(self.pos),
        }
    }

    fn hex4(&mut self) -> Result<u32, usize> {
        let digits = self.src.get(self.pos..self.pos + 4).ok_or(self.pos)?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.pos)?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, usize> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one slice:
            // both are ASCII, so the cut is on a char boundary.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return Err(self.pos),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    let c = self.peek().ok_or(self.pos)?;
                    self.pos += 1;
                    match c {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xd800..0xdc00).contains(&code)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                self.pos += 2;
                                let low = self.hex4()?;
                                code = 0x10000 + ((code - 0xd800) << 10) + (low & 0x3ff);
                            }
                            out.push(char::from_u32(code).ok_or(self.pos)?);
                        }
                        _ => return Err(self.pos - 1),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_service_response() {
        let v = parse(r#"{"ok":true,"nonconforming":3,"results":[{"rules":["a","b"]}],"x":null}"#)
            .unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("nonconforming").and_then(Value::as_f64), Some(3.0));
        let rules = v.get("results").unwrap().as_arr().unwrap()[0]
            .get("rules")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(rules[1].as_str(), Some("b"));
        assert!(parse("{\"a\":1} x").is_err());
        assert!(parse("[1,").is_err());
    }

    /// Generated values reach the service as the strings they were: what
    /// this module escapes, the service's own parser reads back, and this
    /// module's parser agrees with it.
    #[test]
    fn escaped_values_round_trip_through_the_service_parser() {
        let nasty = [
            "plain",
            "",
            "quote\"back\\slash",
            "tab\tnew\nline\rret",
            "ctl\u{1}\u{1f}",
            "snow\u{2603}man \u{1F600}",
            "N/A",
            "a,b]}",
        ];
        let mut frame = String::from("{\"op\":\"classify\",\"values\":");
        str_array_into(&nasty, &mut frame);
        frame.push('}');
        let theirs = av_service::json::parse(&frame).expect("service parser accepts the frame");
        let got: Vec<&str> = theirs
            .get("values")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(got, nasty);
        let ours = parse(&frame).unwrap();
        let got: Vec<&str> = ours
            .get("values")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_str().unwrap())
            .collect();
        assert_eq!(got, nasty);
        // And the service's own dump of those values parses here.
        assert_eq!(
            parse(&theirs.dump()).unwrap().get("values"),
            ours.get("values")
        );
    }
}
