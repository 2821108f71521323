//! Compiled ≡ reference matcher equivalence.
//!
//! The character-level memoized matcher ([`av_pattern::matches`]) is the
//! oracle: it is the closest transcription of Def. 1. The byte-level
//! [`CompiledPattern`] program must return the *identical* verdict on every
//! (pattern, value) pair — fused scans, minimum-width pruning, and the
//! explicit backtracking stack are allowed to change how fast the answer
//! arrives, never what it is.

use av_pattern::{matches, CompiledPattern, Pattern, Token};
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
/// overlap with `arb_token`'s alphabets that accepting paths are exercised,
/// not just trivial rejections.
fn arb_value() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[A-Za-z0-9:/ ._-]{0,16}").expect("valid regex"),
        proptest::string::string_regex("[0-9.]{1,10}").expect("valid regex"),
        proptest::collection::vec(any::<char>(), 0..8).prop_map(|v| v.into_iter().collect()),
    ]
}

/// A value *derived from* the pattern, stretching each variadic token by
/// `stretch` characters — these values usually match, driving the compiled
/// matcher down its accepting and backtracking paths.
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

fn assert_equivalent(pattern: &Pattern, value: &str) {
    let compiled = CompiledPattern::compile(pattern);
    let oracle = matches(pattern, value);
    assert_eq!(
        compiled.matches(value),
        oracle,
        "compiled vs oracle on {pattern} ~ {value:?}"
    );
    assert_eq!(
        compiled.matches(value),
        oracle,
        "compiled (scratch reused from the call above) vs oracle on {pattern} ~ {value:?}"
    );
}

proptest! {
    /// Arbitrary pattern × arbitrary value: identical verdicts.
    #[test]
    fn compiled_equals_reference_on_arbitrary_inputs(
        p in arb_pattern(),
        v in arb_value(),
    ) {
        let compiled = CompiledPattern::compile(&p);
        prop_assert_eq!(compiled.matches(&v), matches(&p, &v), "{} ~ {:?}", p, v);
    }

    /// Pattern-derived values (mostly accepting, with variadic stretching)
    /// and their single-character corruptions: identical verdicts, on a
    /// fresh call and on one that reuses the thread's scratch as the previous
    /// search left it.
    #[test]
    fn compiled_equals_reference_on_derived_values(
        p in arb_pattern(),
        stretch in 0usize..3,
    ) {
        let derived = value_from(&p, stretch);
        assert_equivalent(&p, &derived);
        let mut corrupted = derived.clone();
        corrupted.pop();
        assert_equivalent(&p, &corrupted);
        assert_equivalent(&p, &format!("{derived}~"));
        assert_equivalent(&p, "");
    }
}

/// The recursive reference matcher descends one Rust stack frame per token,
/// so a 10 000-token pattern is a stack overflow waiting on the right
/// (debug-build, small-stack) thread. The compiled matcher keeps its
/// backtracking frames on the heap: wide patterns are just wide loops.
/// (The reference matcher is deliberately *not* called on these inputs.)
#[test]
fn ten_thousand_token_pattern_runs_on_the_heap() {
    // 5 000 × (<digit>+ "-"): 10 000 tokens, 5 000 of them branch points —
    // none fuse, so this genuinely exercises program width and stack depth.
    let mut tokens = Vec::with_capacity(10_000);
    for _ in 0..5_000 {
        tokens.push(Token::DigitPlus);
        tokens.push(Token::lit("-"));
    }
    let pattern = Pattern::new(tokens);
    let compiled = CompiledPattern::compile(&pattern);
    assert_eq!(compiled.num_instructions(), 10_000);

    let good = "1-".repeat(5_000);
    assert!(compiled.matches(&good));
    let wide = "123-".repeat(5_000);
    assert!(compiled.matches(&wide));
    // One byte short: rejected by the minimum-width prune alone.
    assert!(!compiled.matches(&good[..good.len() - 1]));
    // Right length, wrong byte in the middle.
    let mut bad = good.clone().into_bytes();
    bad[5_001] = b'x';
    let bad = String::from_utf8(bad).unwrap();
    assert!(!compiled.matches(&bad));
}

/// Same shape at a width the oracle *can* handle on a main-thread stack:
/// the two matchers agree right up to the fusion and width edge cases.
#[test]
fn wide_pattern_agrees_with_reference_at_oracle_safe_width() {
    let mut tokens = Vec::new();
    for _ in 0..200 {
        tokens.push(Token::DigitPlus);
        tokens.push(Token::lit("-"));
    }
    let pattern = Pattern::new(tokens);
    let compiled = CompiledPattern::compile(&pattern);
    for value in [
        "1-".repeat(200),
        "42-".repeat(200),
        "1-".repeat(199),
        format!("{}x-", "1-".repeat(199)),
    ] {
        assert_eq!(
            compiled.matches(&value),
            matches(&pattern, &value),
            "{value:?}"
        );
    }
}
