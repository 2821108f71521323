//! Full-string pattern matching: does a pattern accept a value?
//!
//! This implements the "`h ∈ P(v)`" test used at validation time (Def. 1 and
//! the validator in §4). Matching is character-level with memoized
//! backtracking: only variadic tokens (`<digit>+`, `<num>`, `<any>+`, ...)
//! branch, and the memo bounds work to `O(|tokens| · |value|)` states.

use crate::pattern::Pattern;
use crate::token::Token;

/// Returns true when `pattern` matches the *entire* `value`.
///
/// ```
/// use av_pattern::{Pattern, Token, matches};
/// let p = Pattern::new(vec![Token::Letter(3), Token::lit(" "), Token::Digit(2)]);
/// assert!(matches(&p, "Mar 01"));
/// assert!(!matches(&p, "Mar 1"));
/// assert!(!matches(&p, "Mar 01 "));
/// ```
pub fn matches(pattern: &Pattern, value: &str) -> bool {
    let chars: Vec<char> = value.chars().collect();
    let tokens = pattern.tokens();
    if tokens.is_empty() {
        return chars.is_empty();
    }
    // Decode each literal once per match — backtracking revisits Lit arms
    // many times, and re-collecting the chars on every visit dominated the
    // profile of variadic-heavy patterns.
    let lits: Vec<Vec<char>> = tokens
        .iter()
        .map(|t| match t {
            Token::Lit(s) => s.chars().collect(),
            _ => Vec::new(),
        })
        .collect();
    // memo[ti * (n+1) + pos] = true if (ti, pos) is known to fail.
    let n = chars.len();
    let mut failed = vec![false; tokens.len() * (n + 1)];
    match_at(tokens, &lits, &chars, 0, 0, &mut failed)
}

/// Reference implementation of the furthest-reached position: the length
/// in bytes of the longest prefix of `value` that is also a prefix of some
/// string `pattern` accepts. Returns `None` exactly when the pattern
/// matches the whole value.
///
/// This is the oracle for `av_match::explain` — same character-level
/// exploration as [`matches()`], instrumented to record partial progress
/// inside every token (a literal that agrees on its first two characters
/// reached two characters further, even though the token failed).
///
/// ```
/// use av_pattern::{furthest_mismatch, parse};
/// let p = parse("<digit>{4}-<digit>{2}").unwrap();
/// assert_eq!(furthest_mismatch(&p, "2019-0x"), Some(6));
/// assert_eq!(furthest_mismatch(&p, "2019-07"), None);
/// ```
pub fn furthest_mismatch(pattern: &Pattern, value: &str) -> Option<usize> {
    let chars: Vec<char> = value.chars().collect();
    let tokens = pattern.tokens();
    let mut furthest = 0usize; // in characters
    let ok = if tokens.is_empty() {
        chars.is_empty()
    } else {
        let lits: Vec<Vec<char>> = tokens
            .iter()
            .map(|t| match t {
                Token::Lit(s) => s.chars().collect(),
                _ => Vec::new(),
            })
            .collect();
        let n = chars.len();
        let mut failed = vec![false; tokens.len() * (n + 1)];
        track_at(tokens, &lits, &chars, 0, 0, &mut failed, &mut furthest)
    };
    if ok {
        None
    } else {
        // Character count back to a byte offset of the original value.
        Some(
            value
                .char_indices()
                .nth(furthest)
                .map_or(value.len(), |(b, _)| b),
        )
    }
}

/// [`match_at`] threading a running maximum of the position reached —
/// including partial progress inside literal, fixed-width, and `<num>`
/// tokens, which the plain matcher discards on token failure.
fn track_at(
    tokens: &[Token],
    lits: &[Vec<char>],
    chars: &[char],
    ti: usize,
    pos: usize,
    failed: &mut [bool],
    furthest: &mut usize,
) -> bool {
    *furthest = (*furthest).max(pos);
    if ti == tokens.len() {
        return pos == chars.len();
    }
    let n = chars.len();
    let key = ti * (n + 1) + pos;
    if failed[key] {
        return false;
    }
    let ok = match &tokens[ti] {
        Token::Lit(_) => {
            let lit = &lits[ti];
            let common = lit
                .iter()
                .zip(chars[pos..].iter())
                .take_while(|(a, b)| a == b)
                .count();
            *furthest = (*furthest).max(pos + common);
            if common == lit.len() {
                track_at(tokens, lits, chars, ti + 1, pos + common, failed, furthest)
            } else {
                false
            }
        }
        t @ (Token::Digit(_)
        | Token::Upper(_)
        | Token::Lower(_)
        | Token::Letter(_)
        | Token::Alnum(_)
        | Token::Sym(_)) => {
            let w = t.fixed_width().expect("fixed token has width");
            let run = chars[pos..]
                .iter()
                .take(w)
                .take_while(|&&c| t.class_contains(c))
                .count();
            *furthest = (*furthest).max(pos + run);
            if run == w {
                track_at(tokens, lits, chars, ti + 1, pos + w, failed, furthest)
            } else {
                false
            }
        }
        Token::Num => track_num_reach(tokens, lits, chars, ti, pos, failed, furthest),
        t @ (Token::DigitPlus
        | Token::UpperPlus
        | Token::LowerPlus
        | Token::LetterPlus
        | Token::AlnumPlus
        | Token::SymPlus
        | Token::SpacePlus
        | Token::AnyPlus) => {
            let mut max_end = pos;
            while max_end < n && t.class_contains(chars[max_end]) {
                max_end += 1;
            }
            *furthest = (*furthest).max(max_end);
            let mut found = false;
            let mut end = max_end;
            while end > pos {
                if track_at(tokens, lits, chars, ti + 1, end, failed, furthest) {
                    found = true;
                    break;
                }
                end -= 1;
            }
            found
        }
    };
    if !ok {
        failed[key] = true;
    }
    ok
}

/// [`match_num`] with reach tracking: the integer scan, a trailing dot, and
/// any fraction digits are all prefixes of some number, so they extend the
/// reach even when no legal end position comes of them.
fn track_num_reach(
    tokens: &[Token],
    lits: &[Vec<char>],
    chars: &[char],
    ti: usize,
    pos: usize,
    failed: &mut [bool],
    furthest: &mut usize,
) -> bool {
    let n = chars.len();
    let mut int_end = pos;
    while int_end < n && chars[int_end].is_ascii_digit() {
        int_end += 1;
    }
    if int_end == pos {
        return false;
    }
    *furthest = (*furthest).max(int_end);
    if int_end < n && chars[int_end] == '.' {
        let mut fe = int_end + 1;
        while fe < n && chars[fe].is_ascii_digit() {
            fe += 1;
        }
        *furthest = (*furthest).max(fe);
    }
    let mut candidates: Vec<usize> = Vec::new();
    for ie in (pos + 1..=int_end).rev() {
        if ie < n && chars[ie] == '.' {
            let mut fe = ie + 1;
            while fe < n && chars[fe].is_ascii_digit() {
                fe += 1;
            }
            let mut f = fe;
            while f > ie + 1 {
                candidates.push(f);
                f -= 1;
            }
        }
        candidates.push(ie);
    }
    candidates
        .into_iter()
        .any(|end| track_at(tokens, lits, chars, ti + 1, end, failed, furthest))
}

fn match_at(
    tokens: &[Token],
    lits: &[Vec<char>],
    chars: &[char],
    ti: usize,
    pos: usize,
    failed: &mut [bool],
) -> bool {
    if ti == tokens.len() {
        return pos == chars.len();
    }
    let n = chars.len();
    let key = ti * (n + 1) + pos;
    if failed[key] {
        return false;
    }
    let ok = match &tokens[ti] {
        Token::Lit(_) => {
            let lit = &lits[ti];
            if pos + lit.len() <= n && chars[pos..pos + lit.len()] == lit[..] {
                match_at(tokens, lits, chars, ti + 1, pos + lit.len(), failed)
            } else {
                false
            }
        }
        t @ (Token::Digit(_)
        | Token::Upper(_)
        | Token::Lower(_)
        | Token::Letter(_)
        | Token::Alnum(_)
        | Token::Sym(_)) => {
            let w = t.fixed_width().expect("fixed token has width");
            if pos + w <= n && chars[pos..pos + w].iter().all(|&c| t.class_contains(c)) {
                match_at(tokens, lits, chars, ti + 1, pos + w, failed)
            } else {
                false
            }
        }
        Token::Num => match_num(tokens, lits, chars, ti, pos, failed),
        t @ (Token::DigitPlus
        | Token::UpperPlus
        | Token::LowerPlus
        | Token::LetterPlus
        | Token::AlnumPlus
        | Token::SymPlus
        | Token::SpacePlus
        | Token::AnyPlus) => {
            // Greedy with backtracking: find the maximal run in the token's
            // class, then try splits from longest to shortest.
            let mut max_end = pos;
            while max_end < n && t.class_contains(chars[max_end]) {
                max_end += 1;
            }
            let mut found = false;
            let mut end = max_end;
            while end > pos {
                if match_at(tokens, lits, chars, ti + 1, end, failed) {
                    found = true;
                    break;
                }
                end -= 1;
            }
            found
        }
    };
    if !ok {
        failed[key] = true;
    }
    ok
}

/// `<num>` = `\d+(\.\d+)?`. Try every legal end position, longest first.
fn match_num(
    tokens: &[Token],
    lits: &[Vec<char>],
    chars: &[char],
    ti: usize,
    pos: usize,
    failed: &mut [bool],
) -> bool {
    let n = chars.len();
    // integer part
    let mut int_end = pos;
    while int_end < n && chars[int_end].is_ascii_digit() {
        int_end += 1;
    }
    if int_end == pos {
        return false;
    }
    // optional fractional part (only directly after the maximal integer run
    // or any shorter one; we must consider all split points).
    // Collect candidate end positions.
    let mut candidates: Vec<usize> = Vec::new();
    for ie in (pos + 1..=int_end).rev() {
        // with fraction: chars[ie] == '.' then 1+ digits
        if ie < n && chars[ie] == '.' {
            let mut fe = ie + 1;
            while fe < n && chars[fe].is_ascii_digit() {
                fe += 1;
            }
            // all fraction lengths are legal ends
            let mut f = fe;
            while f > ie + 1 {
                candidates.push(f);
                f -= 1;
            }
        }
        candidates.push(ie);
    }
    candidates
        .into_iter()
        .any(|end| match_at(tokens, lits, chars, ti + 1, end, failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::Token;

    fn pat(tokens: Vec<Token>) -> Pattern {
        Pattern::new(tokens)
    }

    #[test]
    fn empty_pattern_matches_only_empty_string() {
        assert!(matches(&Pattern::empty(), ""));
        assert!(!matches(&Pattern::empty(), "x"));
    }

    #[test]
    fn paper_c1_validation_pattern() {
        // "<letter>{3} <digit>{2} <digit>{4}" validates both observed and
        // future values of C1 (Fig. 2a).
        let p = pat(vec![
            Token::Letter(3),
            Token::lit(" "),
            Token::Digit(2),
            Token::lit(" "),
            Token::Digit(4),
        ]);
        for v in ["Mar 01 2019", "Mar 30 2019", "Apr 01 2019", "Oct 11 2020"] {
            assert!(matches(&p, v), "{v}");
        }
        assert!(!matches(&p, "March 01 2019"));
        assert!(!matches(&p, "Mar 1 2019"));
    }

    #[test]
    fn paper_c2_validation_pattern() {
        // "<digit>+/<digit>{2}/<digit>{4} <digit>+:<digit>{2}:<digit>{2} <letter>{2}"
        let p = pat(vec![
            Token::DigitPlus,
            Token::lit("/"),
            Token::Digit(2),
            Token::lit("/"),
            Token::Digit(4),
            Token::lit(" "),
            Token::DigitPlus,
            Token::lit(":"),
            Token::Digit(2),
            Token::lit(":"),
            Token::Digit(2),
            Token::lit(" "),
            Token::Letter(2),
        ]);
        assert!(matches(&p, "9/07/2019 12:01:32 PM"));
        assert!(matches(&p, "12/01/2019 9:40:51 AM"));
        assert!(!matches(&p, "9/07/2019 12:01:32"));
    }

    #[test]
    fn num_matches_integers_and_floats() {
        let p = pat(vec![Token::Num]);
        assert!(matches(&p, "9"));
        assert!(matches(&p, "0.1"));
        assert!(matches(&p, "12345.6789"));
        assert!(!matches(&p, ".5"));
        assert!(!matches(&p, "5."));
        assert!(!matches(&p, "1.2.3"));
        assert!(!matches(&p, ""));
    }

    #[test]
    fn num_with_following_literal_backtracks() {
        // <num>:<digit>+ on "9:07" (paper §2.1 example member of P(v)).
        let p = pat(vec![Token::Num, Token::lit(":"), Token::DigitPlus]);
        assert!(matches(&p, "9:07"));
        // <num>.<digit>{2} on "3.14" requires <num> to give back the dot.
        let p2 = pat(vec![Token::Num, Token::lit("."), Token::Digit(2)]);
        assert!(matches(&p2, "3.14"));
        // and on "1.5.99" <num> must match "1.5".
        let p3 = pat(vec![Token::Num, Token::lit("."), Token::Digit(2)]);
        assert!(matches(&p3, "1.5.99"));
    }

    #[test]
    fn adjacent_variadic_tokens_split() {
        // <alnum>+<alnum>+ requires at least two alphanumeric chars.
        let p = pat(vec![Token::AlnumPlus, Token::AlnumPlus]);
        assert!(matches(&p, "a1"));
        assert!(matches(&p, "abc123"));
        assert!(!matches(&p, "a"));
    }

    #[test]
    fn any_plus_absorbs_everything_nonempty() {
        let p = pat(vec![Token::AnyPlus]);
        assert!(matches(&p, "anything at all !@#"));
        assert!(!matches(&p, ""));
    }

    #[test]
    fn case_tokens() {
        assert!(matches(&pat(vec![Token::UpperPlus]), "ABC"));
        assert!(!matches(&pat(vec![Token::UpperPlus]), "AbC"));
        assert!(matches(
            &pat(vec![Token::Upper(1), Token::LowerPlus]),
            "Mar"
        ));
    }

    #[test]
    fn sym_and_space() {
        assert!(matches(&pat(vec![Token::Sym(2)]), "--"));
        assert!(!matches(&pat(vec![Token::Sym(2)]), "-a"));
        assert!(matches(
            &pat(vec![Token::lit("a"), Token::SpacePlus, Token::lit("b")]),
            "a  \tb"
        ));
    }

    #[test]
    fn pathological_backtracking_terminates() {
        // Many adjacent <any>+ tokens against a long string must not blow up.
        let p = pat(vec![Token::AnyPlus; 12]);
        let long = "x".repeat(200);
        assert!(matches(&p, &long));
        let p2 = Pattern::new(
            std::iter::repeat_n(Token::AnyPlus, 12)
                .chain([Token::lit("!")])
                .collect::<Vec<_>>(),
        );
        assert!(!matches(&p2, &long));
    }
}
