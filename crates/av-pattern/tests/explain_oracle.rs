//! Explain ≡ reference furthest-reach equivalence.
//!
//! `CompiledPattern::explain` reports where a failed match got furthest:
//! the length of the longest prefix of the value that is also a prefix of
//! some accepted string. [`av_pattern::furthest_mismatch`] computes the
//! same quantity on the character-level reference matcher; the two must
//! agree on every (pattern, value) pair — fusion, byte-level scanning, and
//! the absent minimum-width prune may change how the answer is found,
//! never what it is. `explain` must also return `None` exactly when
//! `matches` returns true.

use av_pattern::{furthest_mismatch, CompiledPattern, Pattern, Token};
use proptest::prelude::*;

/// Strategy: one arbitrary token, covering every variant (widths include 0,
/// which the hierarchy never emits but the matcher must still handle).
fn arb_token() -> impl Strategy<Value = Token> {
    prop_oneof![
        proptest::string::string_regex("[a-zA-Z0-9:/ .é°_-]{1,3}")
            .expect("valid regex")
            .prop_map(Token::lit),
        (0u16..4).prop_map(Token::Digit),
        Just(Token::DigitPlus),
        Just(Token::Num),
        (0u16..3).prop_map(Token::Upper),
        Just(Token::UpperPlus),
        (0u16..3).prop_map(Token::Lower),
        Just(Token::LowerPlus),
        (0u16..4).prop_map(Token::Letter),
        Just(Token::LetterPlus),
        (0u16..4).prop_map(Token::Alnum),
        Just(Token::AlnumPlus),
        (0u16..3).prop_map(Token::Sym),
        Just(Token::SymPlus),
        Just(Token::SpacePlus),
        Just(Token::AnyPlus),
    ]
}

/// Strategy: an arbitrary pattern of up to 8 tokens.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    proptest::collection::vec(arb_token(), 0..8).prop_map(Pattern::new)
}

/// Strategy: machine-shaped values plus symbol/unicode noise — enough
/// overlap with `arb_token`'s alphabets that deep partial matches are
/// exercised, not just position-zero rejections.
fn arb_value() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[A-Za-z0-9:/ ._-]{0,16}").expect("valid regex"),
        proptest::string::string_regex("[0-9.]{1,10}").expect("valid regex"),
        proptest::collection::vec(any::<char>(), 0..8).prop_map(|v| v.into_iter().collect()),
    ]
}

/// A value *derived from* the pattern, stretching each variadic token —
/// these values usually match or almost match, driving explain deep into
/// the program instead of failing at byte 0.
fn value_from(pattern: &Pattern, stretch: usize) -> String {
    let mut out = String::new();
    for t in pattern.tokens() {
        let (sample, fixed) = match t {
            Token::Lit(s) => {
                out.push_str(s);
                continue;
            }
            Token::Digit(n) => ('7', Some(*n as usize)),
            Token::Upper(n) => ('K', Some(*n as usize)),
            Token::Lower(n) => ('k', Some(*n as usize)),
            Token::Letter(n) => ('m', Some(*n as usize)),
            Token::Alnum(n) => ('4', Some(*n as usize)),
            Token::Sym(n) => ('-', Some(*n as usize)),
            Token::DigitPlus | Token::Num => ('3', None),
            Token::UpperPlus => ('Q', None),
            Token::LowerPlus => ('q', None),
            Token::LetterPlus => ('z', None),
            Token::AlnumPlus => ('8', None),
            Token::SymPlus => ('/', None),
            Token::SpacePlus => (' ', None),
            Token::AnyPlus => ('°', None),
        };
        let n = fixed.unwrap_or(1 + stretch);
        for _ in 0..n {
            out.push(sample);
        }
    }
    out
}

/// The invariant under test: explain agrees with the reference on both the
/// verdict (None ⇔ matches) and the furthest-reached byte offset, on a
/// first call and on a repeat that reuses the thread's scratch as the
/// previous search left it. Traces must also be
/// internally consistent: char-aligned offsets, a valid span, an
/// instruction index within the program.
fn assert_explain_matches_reference(pattern: &Pattern, value: &str) {
    let compiled = CompiledPattern::compile(pattern);
    let oracle = furthest_mismatch(pattern, value);
    let trace = compiled.explain(value);
    assert_eq!(
        trace.as_ref().map(|t| t.failed_at),
        oracle,
        "explain vs reference furthest on {pattern} ~ {value:?}"
    );
    assert_eq!(
        compiled.explain(value).as_ref().map(|t| t.failed_at),
        oracle,
        "explain (repeat call, reused scratch) vs reference on {pattern} ~ {value:?}"
    );
    assert_eq!(
        trace.is_none(),
        compiled.matches(value),
        "explain None ⇔ matches on {pattern} ~ {value:?}"
    );
    if let Some(t) = trace {
        assert!(value.is_char_boundary(t.failed_at), "{pattern} ~ {value:?}");
        assert!(value.is_char_boundary(t.span_end), "{pattern} ~ {value:?}");
        assert!(t.failed_at <= t.span_end && t.span_end <= value.len());
        assert_eq!(t.span_end == t.failed_at, t.failed_at == value.len());
        assert!(t.inst <= t.num_insts);
        assert_eq!(t.num_insts, compiled.num_instructions());
        assert_eq!(t.expected, compiled.describe_inst(t.inst));
    }
}

proptest! {
    /// Arbitrary pattern × arbitrary value.
    #[test]
    fn explain_equals_reference_on_arbitrary_inputs(
        p in arb_pattern(),
        v in arb_value(),
    ) {
        assert_explain_matches_reference(&p, &v);
    }

    /// Pattern-derived values and their corruptions: near-misses fail deep
    /// inside the program, where fusion and backtracking could disagree
    /// with the reference about how far the match got.
    #[test]
    fn explain_equals_reference_on_derived_values(
        p in arb_pattern(),
        stretch in 0usize..3,
    ) {
        let derived = value_from(&p, stretch);
        assert_explain_matches_reference(&p, &derived);
        let mut truncated = derived.clone();
        truncated.pop();
        assert_explain_matches_reference(&p, &truncated);
        assert_explain_matches_reference(&p, &format!("{derived}~"));
        assert_explain_matches_reference(&p, "");
    }
}
