//! Regex abstract syntax tree and parser (the dialect is in the crate docs).

use std::fmt;

/// A set of characters, either listed/ranged or one of the perl classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CharSet {
    /// Inclusive character ranges (singletons are `(c, c)`).
    pub ranges: Vec<(char, char)>,
    /// When true the set is complemented.
    pub negated: bool,
}

impl CharSet {
    /// Set containing a single char.
    pub fn single(c: char) -> CharSet {
        CharSet {
            ranges: vec![(c, c)],
            negated: false,
        }
    }

    /// Perl-style `\d`.
    pub fn digit() -> CharSet {
        CharSet {
            ranges: vec![('0', '9')],
            negated: false,
        }
    }

    /// Perl-style `\w` (ASCII word chars).
    pub fn word() -> CharSet {
        CharSet {
            ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
            negated: false,
        }
    }

    /// Perl-style `\s` (ASCII whitespace).
    pub fn space() -> CharSet {
        CharSet {
            ranges: vec![
                (' ', ' '),
                ('\t', '\t'),
                ('\n', '\n'),
                ('\r', '\r'),
                ('\x0b', '\x0c'),
            ],
            negated: false,
        }
    }

    /// The `.` wildcard (anything except newline).
    pub fn dot() -> CharSet {
        CharSet {
            ranges: vec![('\n', '\n')],
            negated: true,
        }
    }

    /// Negate the set.
    pub(crate) fn negate(mut self) -> CharSet {
        self.negated = !self.negated;
        self
    }

    /// Membership test.
    pub fn contains(&self, c: char) -> bool {
        let inside = self.ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
        inside != self.negated
    }

    /// The set's scalars above U+007F as sorted, disjoint, non-adjacent
    /// ranges: the part a byte-level automaton encodes as multi-byte UTF-8.
    pub fn non_ascii(&self) -> Vec<(u32, u32)> {
        let mut ranges: Vec<(u32, u32)> = self
            .ranges
            .iter()
            .filter(|&&(_, hi)| hi > '\u{7f}')
            .map(|&(lo, hi)| (u32::from(lo).max(0x80), u32::from(hi)))
            .collect();
        ranges.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::new();
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some(last) if lo <= last.1 + 1 => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        if !self.negated {
            return merged;
        }
        let mut gaps = Vec::new();
        let mut from = 0x80;
        for (lo, hi) in merged {
            if lo > from {
                gaps.push((from, lo - 1));
            }
            from = hi + 1;
        }
        if from <= 0x10_FFFF {
            gaps.push((from, 0x10_FFFF));
        }
        gaps
    }
}

/// Regex AST node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Ast {
    /// Empty expression (matches the empty string).
    Empty,
    /// One character from a set.
    Class(CharSet),
    /// Concatenation, in order.
    Concat(Vec<Ast>),
    /// Alternation.
    Alt(Vec<Ast>),
    /// Repetition `min..=max` (`max == None` means unbounded).
    Repeat {
        /// Repeated sub-expression.
        node: Box<Ast>,
        /// Minimum repetitions.
        min: u32,
        /// Maximum repetitions; `None` = unbounded.
        max: Option<u32>,
    },
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexError {
    /// Byte offset in the pattern.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "regex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for RegexError {}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    input: &'a str,
}

/// Parse a regex pattern into an AST.
pub fn parse(pattern: &str) -> Result<Ast, RegexError> {
    let mut p = Parser {
        chars: pattern.chars().collect(),
        pos: 0,
        input: pattern,
    };
    let ast = p.alternation()?;
    if p.pos != p.chars.len() {
        return Err(p.err("unexpected trailing input"));
    }
    Ok(ast)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> RegexError {
        // Convert char position to a byte offset for the message.
        let offset = self
            .input
            .char_indices()
            .nth(self.pos)
            .map(|(i, _)| i)
            .unwrap_or(self.input.len());
        RegexError {
            offset,
            message: msg.into(),
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn alternation(&mut self) -> Result<Ast, RegexError> {
        let mut branches = vec![self.concat()?];
        while self.eat('|') {
            branches.push(self.concat()?);
        }
        Ok(if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Ast::Alt(branches)
        })
    }

    fn concat(&mut self) -> Result<Ast, RegexError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.repeat()?);
        }
        Ok(match items.len() {
            0 => Ast::Empty,
            1 => items.pop().expect("one item"),
            _ => Ast::Concat(items),
        })
    }

    fn repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.atom()?;
        let (min, max) = match self.peek() {
            Some('*') => {
                self.bump();
                (0, None)
            }
            Some('+') => {
                self.bump();
                (1, None)
            }
            Some('?') => {
                self.bump();
                (0, Some(1))
            }
            Some('{') => {
                self.bump();
                let min = self.number()?;
                let max = if self.eat(',') {
                    if self.peek() == Some('}') {
                        None
                    } else {
                        Some(self.number()?)
                    }
                } else {
                    Some(min)
                };
                if !self.eat('}') {
                    return Err(self.err("expected '}'"));
                }
                if let Some(m) = max {
                    if m < min {
                        return Err(self.err("max repeat below min"));
                    }
                }
                (min, max)
            }
            _ => return Ok(atom),
        };
        // Reject double quantifiers like `a**`.
        if matches!(self.peek(), Some('*' | '+' | '?')) {
            return Err(self.err("nested quantifier"));
        }
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
        })
    }

    fn number(&mut self) -> Result<u32, RegexError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected number"));
        }
        let s: String = self.chars[start..self.pos].iter().collect();
        s.parse().map_err(|_| self.err("repeat count too large"))
    }

    fn atom(&mut self) -> Result<Ast, RegexError> {
        match self.peek() {
            Some('(') => {
                self.bump();
                // Non-capturing group marker is accepted and ignored.
                if self.peek() == Some('?') {
                    let save = self.pos;
                    self.bump();
                    if self.eat(':') {
                        // fine
                    } else {
                        self.pos = save;
                        return Err(self.err("unsupported group flag"));
                    }
                }
                let inner = self.alternation()?;
                if !self.eat(')') {
                    return Err(self.err("expected ')'"));
                }
                Ok(inner)
            }
            Some('[') => {
                self.bump();
                self.char_class()
            }
            Some('.') => {
                self.bump();
                Ok(Ast::Class(CharSet::dot()))
            }
            Some('\\') => {
                self.bump();
                let c = self.bump().ok_or_else(|| self.err("dangling escape"))?;
                Ok(Ast::Class(escape_set(c).ok_or_else(|| {
                    self.err(format!("unsupported escape \\{c}"))
                })?))
            }
            Some('^') | Some('$') => {
                // Full-match semantics make anchors redundant; accept and
                // treat as empty so Grok-style patterns parse.
                self.bump();
                Ok(Ast::Empty)
            }
            Some(c) if c == '*' || c == '+' || c == '?' || c == '{' => {
                Err(self.err(format!("dangling quantifier {c:?}")))
            }
            Some(c) => {
                self.bump();
                Ok(Ast::Class(CharSet::single(c)))
            }
            None => Ok(Ast::Empty),
        }
    }

    fn char_class(&mut self) -> Result<Ast, RegexError> {
        let negated = self.eat('^');
        let mut ranges: Vec<(char, char)> = Vec::new();
        let mut first = true;
        loop {
            let c = match self.peek() {
                None => return Err(self.err("unterminated character class")),
                Some(']') if !first => {
                    self.bump();
                    break;
                }
                Some(c) => c,
            };
            first = false;
            self.bump();
            let lo = if c == '\\' {
                let e = self.bump().ok_or_else(|| self.err("dangling escape"))?;
                if let Some(set) = perl_class(e) {
                    ranges.extend(set.ranges);
                    continue;
                }
                escape_char(e)
            } else {
                c
            };
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.bump(); // '-'
                let hi_raw = self.bump().ok_or_else(|| self.err("unterminated range"))?;
                let hi = if hi_raw == '\\' {
                    let e = self.bump().ok_or_else(|| self.err("dangling escape"))?;
                    escape_char(e)
                } else {
                    hi_raw
                };
                if hi < lo {
                    return Err(self.err("invalid range"));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        Ok(Ast::Class(CharSet { ranges, negated }))
    }
}

/// Character denoted by an escape inside or outside classes.
fn escape_char(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        other => other,
    }
}

/// Perl class sets usable inside `[...]`.
fn perl_class(c: char) -> Option<CharSet> {
    match c {
        'd' => Some(CharSet::digit()),
        'w' => Some(CharSet::word()),
        's' => Some(CharSet::space()),
        _ => None,
    }
}

/// Set denoted by `\c` outside classes.
fn escape_set(c: char) -> Option<CharSet> {
    match c {
        'd' => Some(CharSet::digit()),
        'D' => Some(CharSet::digit().negate()),
        'w' => Some(CharSet::word()),
        'W' => Some(CharSet::word().negate()),
        's' => Some(CharSet::space()),
        'S' => Some(CharSet::space().negate()),
        'n' | 't' | 'r' | '0' => Some(CharSet::single(escape_char(c))),
        // Escaped metacharacters and any other punctuation.
        c if !c.is_ascii_alphanumeric() => Some(CharSet::single(c)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_literal_concat() {
        let ast = parse("ab").unwrap();
        assert_eq!(
            ast,
            Ast::Concat(vec![
                Ast::Class(CharSet::single('a')),
                Ast::Class(CharSet::single('b')),
            ])
        );
    }

    #[test]
    fn parse_alternation_and_groups() {
        let ast = parse("a|(bc)").unwrap();
        match ast {
            Ast::Alt(branches) => assert_eq!(branches.len(), 2),
            other => panic!("expected Alt, got {other:?}"),
        }
    }

    #[test]
    fn parse_quantifiers() {
        for (pat, min, max) in [
            ("a*", 0, None),
            ("a+", 1, None),
            ("a?", 0, Some(1)),
            ("a{3}", 3, Some(3)),
            ("a{2,}", 2, None),
            ("a{2,5}", 2, Some(5)),
        ] {
            match parse(pat).unwrap() {
                Ast::Repeat { min: m, max: x, .. } => {
                    assert_eq!((m, x), (min, max), "{pat}");
                }
                other => panic!("{pat}: expected Repeat, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_classes() {
        let ast = parse("[a-z0-9_]").unwrap();
        match ast {
            Ast::Class(set) => {
                assert!(set.contains('m'));
                assert!(set.contains('5'));
                assert!(set.contains('_'));
                assert!(!set.contains('A'));
            }
            other => panic!("expected Class, got {other:?}"),
        }
    }

    #[test]
    fn parse_negated_class_with_perl_inside() {
        let ast = parse(r"[^\d]").unwrap();
        match ast {
            Ast::Class(set) => {
                assert!(!set.contains('3'));
                assert!(set.contains('x'));
            }
            other => panic!("expected Class, got {other:?}"),
        }
    }

    #[test]
    fn class_first_bracket_is_literal() {
        let ast = parse("[]a]").unwrap();
        match ast {
            Ast::Class(set) => {
                assert!(set.contains(']'));
                assert!(set.contains('a'));
            }
            other => panic!("expected Class, got {other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse("a{5,2}").is_err());
        assert!(parse("(a").is_err());
        assert!(parse("[a").is_err());
        assert!(parse("*a").is_err());
        assert!(parse("a**").is_err());
        assert!(parse("\\").is_err());
    }

    #[test]
    fn anchors_are_tolerated() {
        assert!(parse("^abc$").is_ok());
    }
}
