//! Minimal JSON support for the service protocol — hand-rolled because the
//! build environment is offline (no serde). Parsing and serialization of
//! null / bool / f64 / string / array / object, with `\uXXXX` escapes
//! (including surrogate pairs).
//!
//! **Linear.** [`parse`] examines each input byte a bounded number of
//! times: a string is scanned to its next `"` or `\` and taken as one
//! slice of the input, and only a backslash is decoded. A frame costs time
//! proportional to its length whatever it holds, so a request just under
//! `max_request_bytes` occupies a worker for milliseconds.
//!
//! **Borrowing.** [`Json`] carries the lifetime of the text it was parsed
//! from. A string or object key without an escape — every data value a
//! well-behaved client sends — is a [`Cow::Borrowed`] slice of the request
//! frame; only a string with an escape is decoded into an owned one. The
//! protocol handlers pass those slices straight to the engine, so a
//! validated value is never copied between the socket buffer and the
//! matcher.
//!
//! **Replies are written, not built.** The protocol writes each reply
//! member by member straight into the connection's reply buffer
//! (`ObjWriter`), in the ascending key order [`Json::Obj`]'s sorted map
//! prints, so a reply costs no tree, no map and no per-member string; a
//! string is escaped by copying its escape-free runs whole.
//!
//! **Bounded depth.** Arrays and objects may nest 64 deep
//! (`MAX_DEPTH`); a deeper document is a parse error, not a stack
//! overflow.
//!
//! Where it departs from RFC 8259: numbers are whatever `f64::from_str`
//! accepts over the characters `-+.eE0-9` (so `1.` and `01` pass and every
//! number is held as `f64`), a raw control byte (below U+0020) inside a
//! string is accepted rather than rejected, and a repeated object key
//! keeps its last value.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value, borrowing escape-free strings from the text it was
/// parsed from (`Json<'static>` when built in code).
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object. Key order is normalized (sorted) — fine for a protocol.
    Obj(BTreeMap<Cow<'a, str>, Json<'a>>),
}

impl<'a> Json<'a> {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric payload as usize, if integral and exactly representable.
    /// Accepts `[0, min(2⁵³−1, usize::MAX)]`: every integer in that range
    /// round-trips through the `f64` this parser stores losslessly. From
    /// 2⁵³ on, consecutive integers stop being representable — 2⁵³ itself
    /// is excluded because a client's 2⁵³+1 rounds *onto* it, so accepting
    /// it would silently return a neighboring value.
    pub fn as_usize(&self) -> Option<usize> {
        /// Largest integer no other integer rounds onto: 2⁵³ − 1
        /// (JavaScript's `MAX_SAFE_INTEGER` convention).
        const MAX_EXACT: f64 = 9_007_199_254_740_991.0;
        // On 32-bit targets the type, not the float format, is the bound.
        let bound = MAX_EXACT.min(usize::MAX as f64);
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= bound => Some(*n as usize),
            _ => None,
        }
    }

    /// Bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json<'a>)>) -> Json<'a> {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// Build a string value: a `&str` is borrowed, a `String` is moved in.
    pub fn str(s: impl Into<Cow<'a, str>>) -> Json<'a> {
        Json::Str(s.into())
    }

    /// Serialize to a compact single-line string.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Serialize into a caller-owned buffer (cleared first). Serve loops
    /// reuse one buffer across response lines, so steady-state responses
    /// cost no output allocation.
    pub fn dump_into(&self, out: &mut String) {
        out.clear();
        self.write(out);
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// `n` as a JSON number: shortest-roundtrip float printing, integral
/// values without a fraction part, and `null` for what JSON cannot hold
/// (Inf, NaN).
pub(crate) fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// `s` as a JSON string literal. Only `"`, `\` and the bytes below 0x20
/// are escaped — all ASCII, so every cut falls on a char boundary — and
/// the runs between them are copied whole.
pub(crate) fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{:04x}", b);
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A JSON object written member by member straight into a buffer, with no
/// tree built first. Members come in ascending key order, the order
/// [`Json::Obj`]'s sorted map prints them in, so the bytes are the ones
/// the tree would print; a protocol reply's `"ok"` member is slotted in
/// where it sorts.
pub(crate) struct ObjWriter<'o, 'k> {
    out: &'o mut String,
    /// Key of the member written last ("" before the first).
    last: &'k str,
    /// A reply's `"ok"` value, until it is written.
    ok: Option<bool>,
}

impl<'k> ObjWriter<'_, 'k> {
    /// Append one object to `out`, its members written by `members`.
    pub(crate) fn write<R>(
        out: &mut String,
        members: impl FnOnce(&mut ObjWriter<'_, 'k>) -> R,
    ) -> R {
        Self::open(out, None, members)
    }

    /// A protocol reply into `out` (cleared first): the members `members`
    /// writes, and `"ok":ok`.
    pub(crate) fn reply<R>(
        out: &mut String,
        ok: bool,
        members: impl FnOnce(&mut ObjWriter<'_, 'k>) -> R,
    ) -> R {
        out.clear();
        Self::open(out, Some(ok), members)
    }

    fn open<R>(
        out: &mut String,
        ok: Option<bool>,
        members: impl FnOnce(&mut ObjWriter<'_, 'k>) -> R,
    ) -> R {
        out.push('{');
        let mut obj = ObjWriter { out, last: "", ok };
        let r = members(&mut obj);
        if let Some(ok) = obj.ok {
            obj.flag("ok", ok);
        }
        obj.out.push('}');
        r
    }

    /// Start member `key`; the caller writes its value into the buffer
    /// returned.
    pub(crate) fn key(&mut self, key: &'k str) -> &mut String {
        if key > "ok" {
            if let Some(ok) = self.ok.take() {
                self.flag("ok", ok);
            }
        }
        debug_assert!(
            self.last < key,
            "member {key:?} after {:?}: members go in ascending key order",
            self.last
        );
        if !self.last.is_empty() {
            self.out.push(',');
        }
        self.last = key;
        write_escaped(key, self.out);
        self.out.push(':');
        self.out
    }

    /// A number member.
    pub(crate) fn num(&mut self, key: &'k str, n: f64) {
        write_num(n, self.key(key));
    }

    /// A boolean member.
    pub(crate) fn flag(&mut self, key: &'k str, b: bool) {
        self.key(key).push_str(if b { "true" } else { "false" });
    }

    /// A string member.
    pub(crate) fn str(&mut self, key: &'k str, s: &str) {
        write_escaped(s, self.key(key));
    }

    /// An array member, each of `items` written by `item`.
    pub(crate) fn arr<T>(
        &mut self,
        key: &'k str,
        items: impl IntoIterator<Item = T>,
        mut item: impl FnMut(T, &mut String),
    ) {
        let out = self.key(key);
        out.push('[');
        for (i, t) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item(t, out);
        }
        out.push(']');
    }

    /// An object member, its members written by `members`.
    pub(crate) fn obj<'m>(&mut self, key: &'k str, members: impl FnOnce(&mut ObjWriter<'_, 'm>)) {
        ObjWriter::write(self.key(key), members);
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`parse`] accepts. `value` →
/// `array` / `object` → `value` recurses on the worker's stack (2 MiB), and
/// a frame of nothing but `[` is far cheaper to send than `max_request_bytes`
/// allows: unbounded, 8 KB of it overflowed the stack and aborted the
/// process. The deepest legitimate request (`ingest`: object → array →
/// object → array) nests 4.
const MAX_DEPTH: usize = 64;

/// Parse one JSON document (trailing whitespace allowed, nothing else).
/// Linear in `input.len()`; the result borrows its escape-free strings
/// from `input`.
pub fn parse(input: &str) -> Result<Json<'_>, JsonError> {
    let mut p = Parser {
        src: input,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

#[cfg(test)]
thread_local! {
    /// Bytes `Parser::string` has looked at on this thread — what the
    /// linearity tests bound by a multiple of the input length.
    static STRING_BYTES_EXAMINED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> JsonError {
        JsonError {
            message: msg.into(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json<'a>) -> Result<Json<'a>, JsonError> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Descend into the array or object opening at `pos`, unless that
    /// would nest deeper than [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json<'a>, JsonError>,
    ) -> Result<Json<'a>, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json<'a>, JsonError> {
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

    fn object(&mut self) -> Result<Json<'a>, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    /// One string, opening quote at `pos`. Scans bytes to the next `"` or
    /// `\` — both ASCII, so every cut falls on a char boundary of `src` —
    /// and takes the run between as one slice. A string with no escape is
    /// returned borrowed; the first backslash starts an owned copy.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let src = self.src;
        let mut run = self.pos; // start of the run not yet copied to `decoded`
        let mut decoded: Option<String> = None;
        loop {
            let stop = src.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\');
            #[cfg(test)]
            STRING_BYTES_EXAMINED
                .with(|n| n.set(n.get() + stop.map_or(src.len() - self.pos, |at| at + 1)));
            let Some(stop) = stop else {
                self.pos = src.len();
                return Err(self.err("unterminated string"));
            };
            self.pos += stop;
            let text = &src[run..self.pos];
            if src.as_bytes()[self.pos] == b'"' {
                self.pos += 1;
                return Ok(match decoded {
                    None => Cow::Borrowed(text),
                    Some(mut out) => {
                        out.push_str(text);
                        Cow::Owned(out)
                    }
                });
            }
            let out = decoded.get_or_insert_with(String::new);
            out.push_str(text);
            self.pos += 1;
            out.push(self.escape()?);
            run = self.pos;
        }
    }

    /// The char an escape stands for; `pos` is just past its backslash and
    /// ends just past the escape.
    fn escape(&mut self) -> Result<char, JsonError> {
        #[cfg(test)]
        STRING_BYTES_EXAMINED.with(|n| n.set(n.get() + 1));
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                if !(0xD800..0xDC00).contains(&hi) {
                    return char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"));
                }
                // Surrogate pair: the next escape must be a low surrogate,
                // or the string is invalid.
                if self.peek() != Some(b'\\') {
                    return Err(self.err("lone high surrogate"));
                }
                self.pos += 1;
                self.expect(b'u')?;
                let lo = self.hex4()?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err(self.err("high surrogate not followed by a low surrogate"));
                }
                let combined = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                return char::from_u32(combined).ok_or_else(|| self.err("bad surrogate pair"));
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Exactly four ASCII hex digits (`u32::from_str_radix` alone would
    /// also take a sign: `\u+041`).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        #[cfg(test)]
        STRING_BYTES_EXAMINED.with(|n| n.set(n.get() + 4));
        let hex = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut v = 0;
        for &b in hex {
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            v = v * 16 + digit;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number {text:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_nested() {
        let src = r#"{"op":"validate","rule":"r1","values":["a\"b","x\\y","ünïcode",""],"n":3,"frac":0.25,"ok":true,"none":null,"nested":{"a":[1,2,3]}}"#;
        let v = parse(src).unwrap();
        let dumped = v.dump();
        assert_eq!(parse(&dumped).unwrap(), v);
        assert_eq!(v.get("op").unwrap().as_str(), Some("validate"));
        assert_eq!(v.get("n").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("frac").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("values").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""é€😀""#).unwrap();
        assert_eq!(v, Json::str("é€😀"));
        // \uXXXX escapes, including a surrogate pair for 😀 (U+1F600).
        assert_eq!(parse(r#""\u00e9\ud83d\ude00""#).unwrap(), Json::str("é😀"));
        // Invalid surrogate sequences are rejected, not silently mangled.
        assert!(parse(r#""\ud800A""#).is_err(), "bad low surrogate");
        assert!(parse(r#""\ud800x""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\udc00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn numbers() {
        assert_eq!(parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(parse("42").unwrap().as_usize(), Some(42));
        assert_eq!(Json::Num(3.0).dump(), "3");
        assert_eq!(Json::Num(0.5).dump(), "0.5");
    }

    /// `as_usize` accepts the whole exactly-representable integer range
    /// (up to 2⁵³ on 64-bit), not just `u32` — a 10-billion-column corpus
    /// counter must survive the protocol. Values parse → dump → parse
    /// losslessly at the boundaries.
    #[test]
    fn as_usize_covers_the_exact_f64_range() {
        const TWO_53: u64 = 1 << 53;
        // Above u32::MAX but well inside the exact range.
        for v in [
            u32::MAX as u64,
            u32::MAX as u64 + 1,
            10_000_000_000,
            TWO_53 - 1,
        ] {
            let text = v.to_string();
            let parsed = parse(&text).unwrap();
            assert_eq!(parsed.as_usize(), Some(v as usize), "{v}");
            // dump → parse round-trip is lossless at the boundary.
            let dumped = parsed.dump();
            assert_eq!(parse(&dumped).unwrap().as_usize(), Some(v as usize), "{v}");
        }
        // From 2⁵³ on integers are no longer uniquely representable (a
        // client's 2⁵³+1 parses to the same f64 as 2⁵³): reject instead
        // of silently returning a neighboring value.
        assert_eq!(parse("9007199254740992").unwrap().as_usize(), None);
        assert_eq!(parse("9007199254740993").unwrap().as_usize(), None);
        assert_eq!(parse("9007199254740994").unwrap().as_usize(), None);
        assert_eq!(parse("18446744073709551616").unwrap().as_usize(), None);
        // Negative and fractional numbers still refuse.
        assert_eq!(parse("-1").unwrap().as_usize(), None);
        assert_eq!(parse("3.5").unwrap().as_usize(), None);
    }

    /// The document an `ingest` sends nests 4 deep; 64 is allowed, 65 is an
    /// error at the byte that would open the 65th level — and a frame of
    /// nothing but openers is an error too, not a stack overflow.
    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested("{\"a\":", "}", MAX_DEPTH).replace(":}", ":1}")).is_ok());
        let too_deep = JsonError {
            message: "nesting deeper than 64".to_string(),
            offset: MAX_DEPTH,
        };
        assert_eq!(
            parse(&nested("[", "]", MAX_DEPTH + 1)),
            Err(too_deep.clone())
        );
        assert_eq!(parse(&"[".repeat(1 << 20)), Err(too_deep));
        let e = parse(&"{\"a\":".repeat(1 << 18)).unwrap_err();
        assert_eq!(
            (e.message.as_str(), e.offset),
            ("nesting deeper than 64", 5 * MAX_DEPTH)
        );
        // Siblings do not accumulate depth.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn unicode_escape_takes_exactly_four_hex_digits() {
        assert_eq!(parse(r#""\u0041\u00e9\u20AC""#), Ok(Json::str("Aé€")));
        let bad = |doc: &str, message: &str, offset: usize| {
            let e = parse(doc).unwrap_err();
            assert_eq!((e.message.as_str(), e.offset), (message, offset), "{doc}");
        };
        // `u32::from_str_radix` takes a sign; an escape does not.
        bad(r#""\u+041""#, "bad \\u escape", 3);
        bad(r#""\u-041""#, "bad \\u escape", 3);
        bad(r#""\u00g0""#, "bad \\u escape", 3);
        bad("\"\\u00é\"", "bad \\u escape", 3);
        bad(r#""\u00"#, "truncated \\u escape", 3);
        bad(r#""\ud800A""#, "lone high surrogate", 7);
        bad(r#""\ud800\n""#, "expected 'u'", 8);
        bad(
            r#""\ud800\u0041""#,
            "high surrogate not followed by a low surrogate",
            13,
        );
        bad(r#""\ud83d\u+e00""#, "bad \\u escape", 9);
        bad(r#""\udc00""#, "bad \\u escape", 7);
        bad(r#""\ude00\ud83d""#, "bad \\u escape", 7);
    }

    /// Escape-free strings and keys are slices of the input; a string with
    /// an escape is decoded into its own buffer.
    #[test]
    fn escape_free_strings_borrow_the_input() {
        let src = r#"{"op":"validate","k\u0065y":1,"values":["plain","ünï €","tab\there",""]}"#;
        let inside = |s: &str| src.as_bytes().as_ptr_range().contains(&s.as_ptr());
        let Json::Obj(members) = parse(src).unwrap() else {
            panic!("not an object");
        };
        for key in members.keys() {
            match key {
                Cow::Borrowed(k) => assert!(inside(k), "{k}"),
                Cow::Owned(k) => assert_eq!(k, "key"),
            }
        }
        let values = members["values"].as_arr().unwrap();
        for (value, text) in values.iter().zip(["plain", "ünï €"]) {
            let Json::Str(Cow::Borrowed(v)) = value else {
                panic!("{text:?} was copied: {value:?}");
            };
            assert!(*v == text && inside(v));
        }
        assert!(matches!(&values[2], Json::Str(Cow::Owned(v)) if v == "tab\there"));
        assert!(matches!(values[3], Json::Str(Cow::Borrowed(""))));
    }

    fn string_bytes_examined(doc: &str) -> usize {
        STRING_BYTES_EXAMINED.with(|n| n.set(0));
        assert!(parse(doc).is_ok());
        STRING_BYTES_EXAMINED.with(std::cell::Cell::get)
    }

    /// The string scanner looks at each byte a bounded number of times,
    /// whatever the string holds. (At char-at-a-time-with-revalidation the
    /// first of these examined ~2³⁹ bytes.)
    #[test]
    fn string_scanning_is_linear() {
        const MIB: usize = 1 << 20;
        let values: Vec<String> = (0..MIB / 8)
            .map(|i| format!("\"v{:04}\"", i % 10_000))
            .collect();
        for (what, doc) in [
            ("escape-free", format!("\"{}\"", "a".repeat(MIB))),
            ("escapes", format!("\"{}\"", "a\\n".repeat(MIB / 3))),
            (
                "\\u escapes",
                format!("\"{}\"", "\\ud83d\\ude00".repeat(MIB / 12)),
            ),
            ("3-byte chars", format!("\"{}\"", "€".repeat(MIB / 3))),
            (
                "array of short strings",
                format!("{{\"op\":\"validate\",\"values\":[{}]}}", values.join(",")),
            ),
        ] {
            let examined = string_bytes_examined(&doc);
            assert!(
                examined <= 2 * doc.len(),
                "{what}: {examined} bytes examined for a {}-byte document",
                doc.len()
            );
        }
    }

    /// `write_escaped` as it stood before it copied escape-free runs
    /// whole — one char at a time — kept as the reference the escaping
    /// tests compare against.
    fn reference_escaped(s: &str, out: &mut String) {
        out.push('"');
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
        out.push('"');
    }

    /// What strings to escape are built from: every char below U+0020
    /// (fragments 0..32), then quote, backslash, DEL, U+2028, astral
    /// chars and plain text.
    fn escape_fragment(i: usize) -> String {
        const OTHERS: &[&str] = &[
            "\"",
            "\\",
            "\u{7f}",
            "\u{2028}",
            "😀",
            "𝄞",
            "é€",
            "a",
            "plain text",
            "/",
        ];
        match u8::try_from(i) {
            Ok(b) if b < 0x20 => char::from(b).to_string(),
            _ => OTHERS[i - 0x20].to_string(),
        }
    }

    const ESCAPE_FRAGMENTS: usize = 0x20 + 10;

    fn escaped_both_ways(s: &str) -> (String, String) {
        let (mut got, mut want) = ("[".to_string(), "[".to_string());
        write_escaped(s, &mut got);
        reference_escaped(s, &mut want);
        (got, want)
    }

    /// Every fragment alone and every pair of them escape as the per-char
    /// writer escapes them.
    #[test]
    fn escaping_every_fragment_pair_matches_the_per_char_writer() {
        for i in 0..ESCAPE_FRAGMENTS {
            let (got, want) = escaped_both_ways(&escape_fragment(i));
            assert_eq!(got, want);
            for j in 0..ESCAPE_FRAGMENTS {
                let s = escape_fragment(i) + &escape_fragment(j);
                let (got, want) = escaped_both_ways(&s);
                assert_eq!(got, want, "{s:?}");
            }
        }
    }

    proptest! {
        /// Strings of up to 24 fragments escape as the per-char writer
        /// escapes them.
        #[test]
        fn escaping_matches_the_per_char_writer(
            picks in proptest::collection::vec(0..ESCAPE_FRAGMENTS, 0..24),
        ) {
            let s: String = picks.iter().map(|&i| escape_fragment(i)).collect();
            let (got, want) = escaped_both_ways(&s);
            prop_assert_eq!(got, want, "{:?}", s);
        }
    }

    /// The string decoder as it stood before it was made linear — one char
    /// at a time, re-validating the rest of the input for each — kept
    /// verbatim as the reference the differential test compares against.
    struct ReferenceParser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl ReferenceParser<'_> {
        fn err(&self, msg: impl Into<String>) -> JsonError {
            JsonError {
                message: msg.into(),
                offset: self.pos,
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), JsonError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(format!("expected {:?}", b as char)))
            }
        }

        fn string(&mut self) -> Result<String, JsonError> {
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
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                self.pos += 1;
                                let hi = self.hex4()?;
                                let c = if (0xD800..0xDC00).contains(&hi) {
                                    // Surrogate pair: the next escape must be a
                                    // low surrogate, or the string is invalid.
                                    if self.peek() == Some(b'\\') {
                                        self.pos += 1;
                                        self.expect(b'u')?;
                                        let lo = self.hex4()?;
                                        if !(0xDC00..0xE000).contains(&lo) {
                                            return Err(self.err(
                                                "high surrogate not followed by a low surrogate",
                                            ));
                                        }
                                        let combined =
                                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(combined)
                                            .ok_or_else(|| self.err("bad surrogate pair"))?
                                    } else {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                } else {
                                    char::from_u32(hi).ok_or_else(|| self.err("bad \\u escape"))?
                                };
                                out.push(c);
                                continue; // hex4 already advanced
                            }
                            _ => return Err(self.err("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 encoded char.
                        let rest = &self.bytes[self.pos..];
                        let s = std::str::from_utf8(rest)
                            .map_err(|_| self.err("invalid utf-8"))
                            .and_then(|s| s.chars().next().ok_or_else(|| self.err("empty")))?;
                        out.push(s);
                        self.pos += s.len_utf8();
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, JsonError> {
            let hex = self
                .bytes
                .get(self.pos..self.pos + 4)
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
            let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
            self.pos += 4;
            Ok(v)
        }
    }

    /// Pieces a string body is assembled from: plain and multibyte text,
    /// every escape, surrogate escapes in every arrangement, raw control
    /// bytes (accepted), malformed escapes, and a bare quote (which ends
    /// the string early).
    #[rustfmt::skip]
    const FRAGMENTS: &[&str] = &[
        "a", "xyz 0-9", " ", "/", "é", "€", "😀", "\u{1}", "\t", "\u{7f}", "\\\"", "\\\\",
        "\\/", "\\b", "\\f", "\\n", "\\r", "\\t", "\\u0041", "\\u00e9", "\\u20AC",
        "\\u0000", "\\uFFFF", "\\ud83d\\ude00", "\\ud800", "\\udbff", "\\udc00",
        "\\ude00\\ud83d", "\\ud800\\u0041", "\\ud800\\n", "\\ud83d\\ud83d", "\\x",
        "\\U0041", "\\u00g0", "\\u12", "\\u", "\\", "\\u+041", "\\u-041", "\\ud83d\\u+e00",
        "\\u00é", "\"",
    ];

    proptest! {
        /// At every prefix of a string assembled from [`FRAGMENTS`], the
        /// linear decoder and the reference agree: the same value and end
        /// position, or the same message at the same offset. The one
        /// divergence is the sign the reference let through in `\u+XXX`.
        #[test]
        fn string_decoding_matches_the_reference(
            picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..12),
            closed in any::<bool>(),
        ) {
            let mut doc = String::from("\"");
            doc.extend(picks.iter().map(|&i| FRAGMENTS[i]));
            if closed {
                doc.push('"');
            }
            for cut in (0..=doc.len()).filter(|&i| doc.is_char_boundary(i)) {
                let src = &doc[..cut];
                let mut new = Parser { src, pos: 0, depth: 0 };
                let got = new.string().map(|s| (s.into_owned(), new.pos));
                let mut old = ReferenceParser { bytes: src.as_bytes(), pos: 0 };
                let want = old.string().map(|s| (s, old.pos));
                if got != want {
                    let sign_refused = matches!(
                        &got,
                        Err(e) if e.message == "bad \\u escape" && src.as_bytes()[e.offset] == b'+'
                    );
                    prop_assert!(sign_refused, "{src:?}: {got:?}, reference {want:?}");
                }
            }
        }
    }
}
