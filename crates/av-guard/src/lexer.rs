//! A small hand-rolled Rust lexer — just enough to run token-level lint
//! passes without an external parser. In the same house style as the
//! byte-level pattern matchers: one pass over the bytes, no lookbehind
//! beyond a few characters, no allocation except the token vector.
//!
//! What it gets right (because the rules depend on it):
//!
//! * strings (`"…"`, `b"…"`, `c"…"`), raw strings (`r"…"`, `r#"…"#` with
//!   any number of hashes, `br#"…"#`), char and byte-char literals
//!   (`'a'`, `'\n'`, `b'x'`) are consumed as single literal tokens, so a
//!   `".lock()"` inside a string can never look like an acquisition;
//! * lifetimes (`'a`) are distinguished from char literals;
//! * line comments and (nested) block comments are captured separately —
//!   rule passes never see them, but the allow-annotation parser does;
//! * float literals are classified (`1.5`, `2e9`, `1f64`) without
//!   swallowing range expressions (`0..n`) or tuple indices (`t.0`).

/// Token classification. Only the distinctions the rule passes need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Identifier or keyword (`fn`, `lock`, `unwrap`, …).
    Ident,
    /// Single punctuation character (`.`, `(`, `[`, `#`, …).
    Punct(char),
    /// String, byte-string, C-string, or raw-string literal.
    Str,
    /// Char or byte-char literal.
    Char,
    /// Integer literal.
    Int,
    /// Float literal (has a fraction, an exponent, or an `f32`/`f64`
    /// suffix).
    Float,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub(crate) struct Tok {
    /// What kind of token this is.
    pub kind: Kind,
    /// The token text (empty for literals — rules never inspect literal
    /// contents, which is the point).
    pub text: String,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub(crate) fn is_ident(&self, text: &str) -> bool {
        self.kind == Kind::Ident && self.text == text
    }

    /// Is this a specific punctuation character?
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct(c)
    }
}

/// One comment (line or block) with the line it starts on. Block comment
/// text keeps its interior newlines; allow annotations only ever sit in
/// line comments, which is what the parser expects.
#[derive(Debug, Clone)]
pub(crate) struct Comment {
    /// 1-based line of the `//` or `/*`.
    pub line: u32,
    /// Comment text without the delimiters.
    pub text: String,
}

/// Lexer output: significant tokens and the comments stripped from
/// between them.
#[derive(Debug, Default)]
pub(crate) struct LexOut {
    /// All non-comment tokens in source order.
    pub tokens: Vec<Tok>,
    /// All comments in source order.
    pub comments: Vec<Comment>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Lex `src` into tokens + comments. Never fails: unterminated literals
/// simply consume to end of input (the workspace compiles, so this only
/// matters for fixtures, which are well-formed).
pub(crate) fn lex(src: &str) -> LexOut {
    let b = src.as_bytes();
    let mut out = LexOut::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    text: src[start..j].to_string(),
                });
                i = j;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let start_line = line;
                let start = i + 2;
                let mut j = start;
                let mut depth = 1u32;
                while j < b.len() && depth > 0 {
                    if b[j] == b'\n' {
                        line += 1;
                        j += 1;
                    } else if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let end = j.saturating_sub(2).max(start);
                out.comments.push(Comment {
                    line: start_line,
                    text: src[start..end].to_string(),
                });
                i = j;
            }
            b'"' => {
                let start_line = line;
                i = consume_string(b, i, &mut line);
                out.tokens.push(Tok {
                    kind: Kind::Str,
                    text: String::new(),
                    line: start_line,
                });
            }
            b'\'' => {
                // Lifetime vs char literal: `'a` followed by anything but
                // a closing quote is a lifetime; everything else (escape,
                // multi-byte char, quoted ident char) is a char literal.
                if i + 1 < b.len()
                    && is_ident_start(b[i + 1])
                    && (i + 2 >= b.len() || b[i + 2] != b'\'')
                {
                    let mut j = i + 1;
                    while j < b.len() && is_ident_continue(b[j]) {
                        j += 1;
                    }
                    out.tokens.push(Tok {
                        kind: Kind::Lifetime,
                        text: src[i + 1..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    i = consume_char_literal(b, i, &mut line);
                    out.tokens.push(Tok {
                        kind: Kind::Char,
                        text: String::new(),
                        line,
                    });
                }
            }
            _ if c.is_ascii_digit() => {
                let (j, kind) = consume_number(b, i);
                out.tokens.push(Tok {
                    kind,
                    text: String::new(),
                    line,
                });
                i = j;
            }
            _ if is_ident_start(c) => {
                // Check for raw/byte/C string prefixes: r" r#" b" br" c"
                // and the byte-char prefix b'…'.
                let start_line = line;
                if let Some(j) = try_prefixed_literal(b, i, &mut line) {
                    let kind = if b[i] == b'b' && i + 1 < b.len() && b[i + 1] == b'\'' {
                        Kind::Char
                    } else {
                        Kind::Str
                    };
                    out.tokens.push(Tok {
                        kind,
                        text: String::new(),
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
                let mut j = i + 1;
                while j < b.len() && is_ident_continue(b[j]) {
                    j += 1;
                }
                out.tokens.push(Tok {
                    kind: Kind::Ident,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            _ => {
                out.tokens.push(Tok {
                    kind: Kind::Punct(c as char),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

/// Consume a `"…"` string starting at the opening quote; returns the
/// index just past the closing quote. Tracks newlines.
fn consume_string(b: &[u8], start: usize, line: &mut u32) -> usize {
    let mut j = start + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\n' => {
                *line += 1;
                j += 1;
            }
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Consume a `'…'` char literal starting at the opening quote; returns
/// the index just past the closing quote.
fn consume_char_literal(b: &[u8], start: usize, line: &mut u32) -> usize {
    let mut j = start + 1;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\n' => {
                *line += 1;
                j += 1;
            }
            b'\'' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// If `b[i..]` starts a prefixed literal (`r"`, `r#"`, `b"`, `br#"`,
/// `c"`, `b'`), consume it and return the index past its end.
fn try_prefixed_literal(b: &[u8], i: usize, line: &mut u32) -> Option<usize> {
    let mut j = i;
    let mut raw = false;
    // Accept prefix letters in the orders Rust allows: r, b, c, br, cr.
    match b[j] {
        b'r' => {
            raw = true;
            j += 1;
        }
        b'b' | b'c' => {
            j += 1;
            if j < b.len() && b[j] == b'r' {
                raw = true;
                j += 1;
            }
        }
        _ => return None,
    }
    if raw {
        let mut hashes = 0usize;
        while j < b.len() && b[j] == b'#' {
            hashes += 1;
            j += 1;
        }
        if j >= b.len() || b[j] != b'"' {
            return None;
        }
        j += 1;
        // Scan for `"` followed by `hashes` hash marks.
        while j < b.len() {
            if b[j] == b'\n' {
                *line += 1;
                j += 1;
                continue;
            }
            if b[j] == b'"' {
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < b.len() && b[k] == b'#' && seen < hashes {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return Some(k);
                }
            }
            j += 1;
        }
        Some(j)
    } else if j < b.len() && b[j] == b'"' {
        Some(consume_string(b, j, line))
    } else if j < b.len() && b[j] == b'\'' && b[i] == b'b' {
        Some(consume_char_literal(b, j, line))
    } else {
        None
    }
}

/// Consume a numeric literal starting at a digit; returns (end index,
/// Int or Float). A `.` is part of the number only when followed by a
/// digit (so `0..n` and `x.0` lex as expected); `f32`/`f64` suffixes and
/// decimal exponents make it a float.
fn consume_number(b: &[u8], start: usize) -> (usize, Kind) {
    let mut j = start;
    let hex = j + 1 < b.len() && b[j] == b'0' && (b[j + 1] == b'x' || b[j + 1] == b'X');
    let mut float = false;
    let mut text = Vec::new();
    while j < b.len() {
        let c = b[j];
        if c.is_ascii_alphanumeric() || c == b'_' {
            text.push(c);
            j += 1;
        } else if c == b'.' && !hex && j + 1 < b.len() && b[j + 1].is_ascii_digit() {
            float = true;
            text.push(c);
            j += 1;
        } else {
            break;
        }
    }
    if !hex {
        let t = String::from_utf8_lossy(&text).into_owned();
        if t.ends_with("f32") || t.ends_with("f64") {
            float = true;
        }
        // Decimal exponent: a digit, then e/E, then digit or sign.
        if !float {
            let bytes = t.as_bytes();
            for (k, &c) in bytes.iter().enumerate() {
                if (c == b'e' || c == b'E')
                    && k > 0
                    && k + 1 < bytes.len()
                    && (bytes[k + 1].is_ascii_digit()
                        || bytes[k + 1] == b'+'
                        || bytes[k + 1] == b'-')
                {
                    float = true;
                    break;
                }
            }
        }
    }
    (j, if float { Kind::Float } else { Kind::Int })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            let a = "x.lock() // not a comment";
            let b = r#"embedded "quote" and .unwrap()"#;
            // real comment with .lock()
            /* block /* nested */ .expect() */
            let c = 'x';
            let d = '\'';
            let e = b"bytes .read()";
        "##;
        let out = lex(src);
        let names = idents(src);
        assert!(!names
            .iter()
            .any(|n| n == "lock" || n == "unwrap" || n == "expect"));
        assert_eq!(out.comments.len(), 2);
        assert!(out.comments[0].text.contains(".lock()"));
        assert!(names.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let out = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        let lifetimes: Vec<_> = out
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
    }

    #[test]
    fn floats_versus_ranges_and_tuple_indices() {
        let out =
            lex("let x = 1.5 + t.0; for i in 0..n {} let y = 2e9; let z = 1f64; let h = 0x1e5;");
        let kinds: Vec<Kind> = out
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, Kind::Int | Kind::Float))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                Kind::Float,
                Kind::Int,
                Kind::Int,
                Kind::Float,
                Kind::Float,
                Kind::Int
            ]
        );
    }

    #[test]
    fn line_numbers_survive_multiline_literals() {
        let src = "let a = \"one\ntwo\";\nlet b = 1;";
        let out = lex(src);
        let b_tok = out.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!(b_tok.line, 3);
    }
}
