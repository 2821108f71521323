//! [`Pattern`]: a sequence of tokens describing a data domain.

use crate::token::Token;
use std::fmt;

/// A data-domain pattern: an ordered sequence of [`Token`]s.
///
/// A pattern *matches* a string when the tokens can consume the entire
/// string left to right (see [`crate::matches`]). Patterns are the unit
/// stored in the offline index and produced as validation rules.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Pattern {
    tokens: Vec<Token>,
}

impl Pattern {
    /// Build a pattern from tokens.
    ///
    /// Adjacent literal tokens are canonicalized into one (`Lit("/m")` +
    /// `Lit("/")` ≡ `Lit("/m/")`), so patterns assembled from differently
    /// sliced literals compare equal.
    pub fn new(tokens: Vec<Token>) -> Pattern {
        let mut canon: Vec<Token> = Vec::with_capacity(tokens.len());
        for t in tokens {
            match (canon.last_mut(), &t) {
                (Some(Token::Lit(prev)), Token::Lit(next)) => {
                    let mut s = String::with_capacity(prev.len() + next.len());
                    s.push_str(prev);
                    s.push_str(next);
                    *prev = s.into_boxed_str();
                }
                _ => canon.push(t),
            }
        }
        Pattern { tokens: canon }
    }

    /// The empty pattern (matches only the empty string).
    pub fn empty() -> Pattern {
        Pattern { tokens: Vec::new() }
    }

    /// Borrow the token sequence.
    pub fn tokens(&self) -> &[Token] {
        &self.tokens
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when the pattern has no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// The paper excludes the trivial `.*` pattern from every hypothesis
    /// space (`H(C) = ∩ P(v) \ ".*"`, §2.1). Our equivalent of `.*` is a
    /// pattern consisting solely of `<any>+` tokens.
    pub fn is_trivial(&self) -> bool {
        !self.tokens.is_empty() && self.tokens.iter().all(Token::is_any)
    }

    /// Concatenate two patterns (used when stitching vertical-cut segments).
    pub fn concat(&self, other: &Pattern) -> Pattern {
        let mut tokens = Vec::with_capacity(self.tokens.len() + other.tokens.len());
        tokens.extend_from_slice(&self.tokens);
        tokens.extend_from_slice(&other.tokens);
        Pattern::new(tokens)
    }

    /// Sub-pattern over the token range `[start, end)` (vertical cuts, §3).
    pub fn slice(&self, start: usize, end: usize) -> Pattern {
        Pattern {
            tokens: self.tokens[start..end].to_vec(),
        }
    }

    /// Sum of per-token specificity ranks; smaller = more specific. Used
    /// only for deterministic tie-breaking among patterns with equal FPR.
    pub fn specificity(&self) -> u32 {
        self.tokens.iter().map(|t| t.specificity() as u32).sum()
    }

    /// A stable 64-bit fingerprint of the pattern (FNV-1a over the display
    /// form structure). Stable across processes; used as a compact index key.
    pub fn fingerprint(&self) -> u64 {
        self.tokens
            .iter()
            .fold(FingerprintState::new(), |st, t| st.push(t))
            .finish()
    }

    /// Render the pattern as a regex string usable with `av_match::Regex` or any
    /// POSIX-ish engine. Anchored implicitly (the caller should use a
    /// full-match API).
    pub fn to_regex(&self) -> String {
        let mut out = String::new();
        for t in &self.tokens {
            match t {
                Token::Lit(s) => {
                    for c in s.chars() {
                        if "\\^$.|?*+()[]{}".contains(c) {
                            out.push('\\');
                        }
                        out.push(c);
                    }
                }
                Token::Digit(n) => out.push_str(&format!("[0-9]{{{n}}}")),
                Token::DigitPlus => out.push_str("[0-9]+"),
                Token::Num => out.push_str("[0-9]+(\\.[0-9]+)?"),
                Token::Upper(n) => out.push_str(&format!("[A-Z]{{{n}}}")),
                Token::UpperPlus => out.push_str("[A-Z]+"),
                Token::Lower(n) => out.push_str(&format!("[a-z]{{{n}}}")),
                Token::LowerPlus => out.push_str("[a-z]+"),
                Token::Letter(n) => out.push_str(&format!("[A-Za-z]{{{n}}}")),
                Token::LetterPlus => out.push_str("[A-Za-z]+"),
                Token::Alnum(n) => out.push_str(&format!("[A-Za-z0-9]{{{n}}}")),
                Token::AlnumPlus => out.push_str("[A-Za-z0-9]+"),
                Token::Sym(n) => out.push_str(&format!("[^A-Za-z0-9\\s]{{{n}}}")),
                Token::SymPlus => out.push_str("[^A-Za-z0-9\\s]+"),
                Token::SpacePlus => out.push_str("\\s+"),
                Token::AnyPlus => out.push_str("(.|\\n)+"),
            }
        }
        out
    }
}

/// Incremental FNV-1a fingerprint over a token sequence.
///
/// `Pattern::fingerprint` is defined as a fold of this state over the
/// pattern's canonical tokens, so the two can never drift apart. The state
/// is 16 bytes and `Copy`, which is what lets the enumeration DFS thread a
/// running hash through `push` on descend and restore the parent's saved
/// state on backtrack — no token vector is ever materialized just to be
/// hashed.
///
/// Canonicalization is handled here too: [`Pattern::new`] fuses adjacent
/// literal tokens into one, so pushing `Lit("ab")` then `Lit("12")` must
/// hash exactly like pushing `Lit("ab12")`. The state keeps an "open
/// literal" flag and defers the literal terminator byte until the next
/// non-literal token (or [`FingerprintState::finish`]).
///
/// ```
/// use av_pattern::{FingerprintState, Pattern, Token};
/// let tokens = vec![Token::lit("ab"), Token::lit("12"), Token::DigitPlus];
/// let streamed = tokens
///     .iter()
///     .fold(FingerprintState::new(), |st, t| st.push(t))
///     .finish();
/// assert_eq!(streamed, Pattern::new(tokens).fingerprint());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintState {
    h: u64,
    lit_open: bool,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn fnv(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Plain FNV-1a over a byte slice — the same primitive
/// [`Pattern::fingerprint`] is built on, exposed so dependants (e.g. the
/// index's persisted-image digest) don't re-implement the constants.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, b| fnv(h, *b))
}

impl FingerprintState {
    /// State over the empty token sequence.
    #[inline]
    pub fn new() -> FingerprintState {
        FingerprintState {
            h: FNV_OFFSET,
            lit_open: false,
        }
    }

    /// Would pushing `t` merge into the previously pushed token (i.e. both
    /// are literals, which [`Pattern::new`] canonicalizes into one)? Lets
    /// callers track the *canonical* token count incrementally.
    #[inline]
    pub(crate) fn merges(&self, t: &Token) -> bool {
        self.lit_open && matches!(t, Token::Lit(_))
    }

    /// The state after appending `t` to the sequence.
    #[inline]
    pub fn push(&self, t: &Token) -> FingerprintState {
        let mut h = self.h;
        if let Token::Lit(s) = t {
            if !self.lit_open {
                h = fnv(h, 1);
            }
            for b in s.as_bytes() {
                h = fnv(h, *b);
            }
            return FingerprintState { h, lit_open: true };
        }
        if self.lit_open {
            h = fnv(h, 0); // terminate the merged literal
        }
        let tagged = |h: u64, tag: u8, n: u16| fnv(fnv(fnv(h, tag), n as u8), (n >> 8) as u8);
        h = match t {
            Token::Lit(_) => unreachable!("handled above"),
            Token::Digit(n) => tagged(h, 2, *n),
            Token::DigitPlus => fnv(h, 3),
            Token::Num => fnv(h, 4),
            Token::Upper(n) => tagged(h, 5, *n),
            Token::UpperPlus => fnv(h, 6),
            Token::Lower(n) => tagged(h, 7, *n),
            Token::LowerPlus => fnv(h, 8),
            Token::Letter(n) => tagged(h, 9, *n),
            Token::LetterPlus => fnv(h, 10),
            Token::Alnum(n) => tagged(h, 11, *n),
            Token::AlnumPlus => fnv(h, 12),
            Token::Sym(n) => tagged(h, 13, *n),
            Token::SymPlus => fnv(h, 14),
            Token::SpacePlus => fnv(h, 15),
            Token::AnyPlus => fnv(h, 16),
        };
        FingerprintState { h, lit_open: false }
    }

    /// The fingerprint of the sequence pushed so far when its last token
    /// is not a literal, `None` while a literal is open (the next push
    /// could still extend it). A closed state is the same for every
    /// literal splitting of one canonical sequence, which is what lets an
    /// index key a pattern's prefixes by it.
    #[inline]
    pub fn closed(&self) -> Option<u64> {
        (!self.lit_open).then_some(self.h)
    }

    /// The fingerprint of the sequence pushed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        if self.lit_open {
            fnv(self.h, 0)
        } else {
            self.h
        }
    }
}

impl Default for FingerprintState {
    fn default() -> Self {
        FingerprintState::new()
    }
}

impl From<Vec<Token>> for Pattern {
    fn from(tokens: Vec<Token>) -> Pattern {
        Pattern::new(tokens)
    }
}

impl FromIterator<Token> for Pattern {
    fn from_iter<I: IntoIterator<Item = Token>>(iter: I) -> Pattern {
        Pattern::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tokens {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(tokens: Vec<Token>) -> Pattern {
        Pattern::new(tokens)
    }

    #[test]
    fn display_of_paper_pattern() {
        // "<letter>{3} <digit>{2} <digit>{4}" from §1 (validation pattern for C1).
        let pat = p(vec![
            Token::Letter(3),
            Token::lit(" "),
            Token::Digit(2),
            Token::lit(" "),
            Token::Digit(4),
        ]);
        assert_eq!(pat.to_string(), "<letter>{3} <digit>{2} <digit>{4}");
    }

    #[test]
    fn trivial_detection() {
        assert!(p(vec![Token::AnyPlus]).is_trivial());
        assert!(p(vec![Token::AnyPlus, Token::AnyPlus]).is_trivial());
        assert!(!p(vec![Token::AnyPlus, Token::lit("/")]).is_trivial());
        assert!(!Pattern::empty().is_trivial());
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = p(vec![Token::Digit(2), Token::lit("/")]);
        let b = p(vec![Token::Digit(4)]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.slice(0, 2), a);
        assert_eq!(c.slice(2, 3), b);
    }

    #[test]
    fn fingerprint_distinguishes_width() {
        assert_ne!(
            p(vec![Token::Digit(2)]).fingerprint(),
            p(vec![Token::Digit(3)]).fingerprint()
        );
        assert_ne!(
            p(vec![Token::Digit(2)]).fingerprint(),
            p(vec![Token::Letter(2)]).fingerprint()
        );
        assert_eq!(
            p(vec![Token::Num, Token::lit(":")]).fingerprint(),
            p(vec![Token::Num, Token::lit(":")]).fingerprint()
        );
    }

    #[test]
    fn adjacent_literals_canonicalize() {
        let a = p(vec![Token::lit("/m"), Token::lit("/"), Token::AlnumPlus]);
        let b = p(vec![
            Token::lit("/"),
            Token::lit("m"),
            Token::lit("/"),
            Token::AlnumPlus,
        ]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn regex_rendering() {
        let pat = p(vec![Token::Digit(2), Token::lit("."), Token::LetterPlus]);
        assert_eq!(pat.to_regex(), "[0-9]{2}\\.[A-Za-z]+");
    }

    #[test]
    fn incremental_fingerprint_merges_adjacent_literals() {
        // Raw token sequences that canonicalize to the same pattern must
        // stream to the same fingerprint — including literal splits around
        // class tokens and at the end of the sequence.
        let cases: Vec<Vec<Token>> = vec![
            vec![Token::lit("ab"), Token::lit("12")],
            vec![Token::lit("a"), Token::lit("b"), Token::lit("12")],
            vec![
                Token::lit("/"),
                Token::Digit(2),
                Token::lit("x"),
                Token::lit("y"),
            ],
            vec![Token::lit("x"), Token::AnyPlus, Token::lit("y")],
            vec![],
            vec![Token::Num],
        ];
        for tokens in cases {
            let streamed = tokens
                .iter()
                .fold(FingerprintState::new(), |st, t| st.push(t))
                .finish();
            assert_eq!(
                streamed,
                Pattern::new(tokens.clone()).fingerprint(),
                "{tokens:?}"
            );
        }
    }

    #[test]
    fn split_and_whole_literals_fingerprint_equal_but_distinct_from_others() {
        let split = [Token::lit("ab"), Token::lit("12")]
            .iter()
            .fold(FingerprintState::new(), |st, t| st.push(t))
            .finish();
        assert_eq!(split, p(vec![Token::lit("ab12")]).fingerprint());
        assert_ne!(
            split,
            p(vec![Token::lit("ab"), Token::DigitPlus]).fingerprint()
        );
        assert_ne!(
            split,
            p(vec![Token::lit("ab1"), Token::lit("3")]).fingerprint()
        );
    }
}
