//! Pattern tokens: the vocabulary of the generalization hierarchy (paper §2.1, Fig. 4).
//!
//! A [`Token`] is one node of the string generalization hierarchy. Leaf
//! tokens are constants; intermediate tokens generalize runs of characters
//! into classes (`<digit>{2}`, `<letter>+`, `<num>`, ...). A pattern is a
//! sequence of tokens (see [`crate::Pattern`]).

use std::fmt;

/// Character class of a single character, used by the tokenizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CharClass {
    /// ASCII digit `0-9`.
    Digit,
    /// ASCII letter `a-z` / `A-Z`.
    Letter,
    /// ASCII whitespace (space, tab, CR, LF, vertical tab, form feed).
    Space,
    /// Anything else (punctuation, unicode, ...).
    Symbol,
}

impl CharClass {
    /// Classify one character.
    ///
    /// All six ASCII whitespace characters are [`CharClass::Space`] — values
    /// arriving from real feeds carry CRLF remnants and embedded newlines,
    /// and classifying `\r`/`\n` as symbols would split `"a\r\n"` into a
    /// spurious symbol run and make CRLF-bearing columns structurally
    /// different from their clean counterparts.
    #[inline]
    pub const fn of(c: char) -> CharClass {
        if c.is_ascii_digit() {
            CharClass::Digit
        } else if c.is_ascii_alphabetic() {
            CharClass::Letter
        } else if matches!(c, ' ' | '\t' | '\r' | '\n' | '\x0B' | '\x0C') {
            CharClass::Space
        } else {
            CharClass::Symbol
        }
    }
}

/// One token of a data-domain pattern.
///
/// The variants mirror the paper's generalization hierarchy (Fig. 4) plus the
/// seven per-position generalizations enumerated in §1 for the digit "9":
/// constant, `<digit>{1}`, `<digit>+`, `<num>`, `<alnum>`, `<alnum>+`, `<any>+`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Token {
    /// A literal constant string (leaf of the hierarchy).
    Lit(Box<str>),
    /// Exactly `n` digits: `<digit>{n}`.
    Digit(u16),
    /// One or more digits: `<digit>+`.
    DigitPlus,
    /// A number, including floating point: `<num>` = `\d+(\.\d+)?`.
    Num,
    /// Exactly `n` uppercase letters: `<upper>{n}`.
    Upper(u16),
    /// One or more uppercase letters: `<upper>+`.
    UpperPlus,
    /// Exactly `n` lowercase letters: `<lower>{n}`.
    Lower(u16),
    /// One or more lowercase letters: `<lower>+`.
    LowerPlus,
    /// Exactly `n` letters of any case: `<letter>{n}`.
    Letter(u16),
    /// One or more letters: `<letter>+`.
    LetterPlus,
    /// Exactly `n` alphanumeric characters: `<alnum>{n}`.
    Alnum(u16),
    /// One or more alphanumeric characters: `<alnum>+`.
    AlnumPlus,
    /// Exactly `n` symbol characters: `<sym>{n}`.
    Sym(u16),
    /// One or more symbol characters: `<sym>+`.
    SymPlus,
    /// One or more whitespace characters: `<space>+`.
    SpacePlus,
    /// One or more characters of any kind: `<any>+` (root of the hierarchy).
    AnyPlus,
}

impl Token {
    /// Literal token from anything string-like.
    pub fn lit(s: impl Into<Box<str>>) -> Token {
        Token::Lit(s.into())
    }

    /// Is this token variadic (can consume a variable number of characters)?
    #[inline]
    pub fn is_variadic(&self) -> bool {
        matches!(
            self,
            Token::DigitPlus
                | Token::Num
                | Token::UpperPlus
                | Token::LowerPlus
                | Token::LetterPlus
                | Token::AlnumPlus
                | Token::SymPlus
                | Token::SpacePlus
                | Token::AnyPlus
        )
    }

    /// Is this token the root `<any>+`?
    #[inline]
    pub(crate) fn is_any(&self) -> bool {
        matches!(self, Token::AnyPlus)
    }

    /// Does a single character belong to this token's character set?
    ///
    /// For `Lit` this is position-dependent and handled by the matcher; here
    /// we only answer for class tokens (`Lit` returns `false`).
    #[inline]
    pub fn class_contains(&self, c: char) -> bool {
        match self {
            Token::Lit(_) => false,
            Token::Digit(_) | Token::DigitPlus => c.is_ascii_digit(),
            // `Num` additionally accepts '.' between digit groups; the
            // matcher enforces the grammar, this is the character alphabet.
            Token::Num => c.is_ascii_digit() || c == '.',
            Token::Upper(_) | Token::UpperPlus => c.is_ascii_uppercase(),
            Token::Lower(_) | Token::LowerPlus => c.is_ascii_lowercase(),
            Token::Letter(_) | Token::LetterPlus => c.is_ascii_alphabetic(),
            Token::Alnum(_) | Token::AlnumPlus => c.is_ascii_alphanumeric(),
            Token::Sym(_) | Token::SymPlus => CharClass::of(c) == CharClass::Symbol,
            Token::SpacePlus => CharClass::of(c) == CharClass::Space,
            Token::AnyPlus => true,
        }
    }

    /// Fixed width of this token in characters, or `None` if variadic.
    ///
    /// `Lit` widths are measured in characters (values are ASCII-dominated
    /// machine-generated strings; non-ASCII is counted per `char`).
    #[inline]
    pub fn fixed_width(&self) -> Option<usize> {
        match self {
            Token::Lit(s) => Some(s.chars().count()),
            Token::Digit(n)
            | Token::Upper(n)
            | Token::Lower(n)
            | Token::Letter(n)
            | Token::Alnum(n)
            | Token::Sym(n) => Some(*n as usize),
            _ => None,
        }
    }

    /// A coarse specificity rank: smaller is more specific (deeper in the
    /// hierarchy). Used only for deterministic tie-breaking, not semantics.
    pub fn specificity(&self) -> u8 {
        match self {
            Token::Lit(_) => 0,
            Token::Digit(_) | Token::Upper(_) | Token::Lower(_) => 1,
            Token::DigitPlus | Token::UpperPlus | Token::LowerPlus => 2,
            Token::Letter(_) => 2,
            Token::Num | Token::LetterPlus => 3,
            Token::Alnum(_) => 4,
            Token::AlnumPlus | Token::Sym(_) | Token::SpacePlus => 5,
            Token::SymPlus => 6,
            Token::AnyPlus => 7,
        }
    }
}

/// Escape a literal for display inside a pattern string.
fn escape_lit(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    for c in s.chars() {
        match c {
            '<' => f.write_str("\\<")?,
            '>' => f.write_str("\\>")?,
            '\\' => f.write_str("\\\\")?,
            _ => fmt::Write::write_char(f, c)?,
        }
    }
    Ok(())
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Lit(s) => escape_lit(s, f),
            Token::Digit(n) => write!(f, "<digit>{{{n}}}"),
            Token::DigitPlus => f.write_str("<digit>+"),
            Token::Num => f.write_str("<num>"),
            Token::Upper(n) => write!(f, "<upper>{{{n}}}"),
            Token::UpperPlus => f.write_str("<upper>+"),
            Token::Lower(n) => write!(f, "<lower>{{{n}}}"),
            Token::LowerPlus => f.write_str("<lower>+"),
            Token::Letter(n) => write!(f, "<letter>{{{n}}}"),
            Token::LetterPlus => f.write_str("<letter>+"),
            Token::Alnum(n) => write!(f, "<alnum>{{{n}}}"),
            Token::AlnumPlus => f.write_str("<alnum>+"),
            Token::Sym(n) => write!(f, "<sym>{{{n}}}"),
            Token::SymPlus => f.write_str("<sym>+"),
            Token::SpacePlus => f.write_str("<space>+"),
            Token::AnyPlus => f.write_str("<any>+"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_class_of_covers_all_classes() {
        assert_eq!(CharClass::of('7'), CharClass::Digit);
        assert_eq!(CharClass::of('a'), CharClass::Letter);
        assert_eq!(CharClass::of('Z'), CharClass::Letter);
        assert_eq!(CharClass::of(' '), CharClass::Space);
        assert_eq!(CharClass::of('\t'), CharClass::Space);
        assert_eq!(CharClass::of('/'), CharClass::Symbol);
        assert_eq!(CharClass::of('é'), CharClass::Symbol);
    }

    #[test]
    fn all_ascii_whitespace_is_space_class() {
        for c in ['\r', '\n', '\x0B', '\x0C'] {
            assert_eq!(CharClass::of(c), CharClass::Space, "{c:?}");
            assert!(Token::SpacePlus.class_contains(c), "{c:?}");
        }
        // Unicode whitespace stays in the symbol bucket (ASCII classifier).
        assert_eq!(CharClass::of('\u{00A0}'), CharClass::Symbol);
    }

    #[test]
    fn variadic_flags() {
        assert!(Token::DigitPlus.is_variadic());
        assert!(Token::Num.is_variadic());
        assert!(Token::AnyPlus.is_variadic());
        assert!(!Token::Digit(3).is_variadic());
        assert!(!Token::lit("abc").is_variadic());
    }

    #[test]
    fn fixed_widths() {
        assert_eq!(Token::Digit(4).fixed_width(), Some(4));
        assert_eq!(Token::lit("ab<").fixed_width(), Some(3));
        assert_eq!(Token::LetterPlus.fixed_width(), None);
    }

    #[test]
    fn class_contains_respects_case() {
        assert!(Token::Upper(1).class_contains('A'));
        assert!(!Token::Upper(1).class_contains('a'));
        assert!(Token::Lower(1).class_contains('a'));
        assert!(Token::Letter(1).class_contains('a'));
        assert!(Token::Letter(1).class_contains('A'));
        assert!(!Token::Letter(1).class_contains('1'));
        assert!(Token::Alnum(1).class_contains('1'));
        assert!(Token::AnyPlus.class_contains('/'));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Token::Digit(2).to_string(), "<digit>{2}");
        assert_eq!(Token::DigitPlus.to_string(), "<digit>+");
        assert_eq!(Token::Num.to_string(), "<num>");
        assert_eq!(Token::lit("a<b").to_string(), "a\\<b");
        assert_eq!(Token::AnyPlus.to_string(), "<any>+");
    }

    #[test]
    fn specificity_is_monotone_along_digit_chain() {
        let chain = [
            Token::lit("9"),
            Token::Digit(1),
            Token::DigitPlus,
            Token::Num,
            Token::Alnum(1),
            Token::AlnumPlus,
            Token::AnyPlus,
        ];
        for w in chain.windows(2) {
            assert!(w[0].specificity() <= w[1].specificity(), "{w:?}");
        }
    }
}
