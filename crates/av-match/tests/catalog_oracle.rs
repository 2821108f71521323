//! Property tests pinning [`CatalogMatcher`] to its oracle: the
//! character-level reference matcher [`av_pattern::matches`], run on each
//! rule's pattern individually. On arbitrary catalogs × arbitrary values
//! (including multi-byte unicode) the one-scan match-set must equal the
//! per-pattern loop, under any DFA budget, and after any sequence of
//! incremental inserts/removes. The boolean scan
//! ([`CatalogMatcher::is_match`]) is held to the same loop: on the whole
//! catalog, and on a one-rule matcher per pattern — the automaton a
//! pattern rule validates with — including pattern-derived values, zero
//! widths, a 10 000-token pattern, and the fusion / `<num>` / UTF-8 cases
//! the compiled program is built around.

use av_match::{CatalogMatcher, MatcherConfig};
use av_pattern::{matches, parse, CompiledPattern, Pattern, Token};
use proptest::prelude::*;

/// One arbitrary token, covering every variant (widths include 0, which
/// the hierarchy never emits but the automaton must still handle).
fn arbitrary_token() -> impl Strategy<Value = Token> {
    prop_oneof![
        proptest::string::string_regex("[a-zA-Z0-9:/ .é°_-]{1,4}")
            .expect("valid regex")
            .prop_map(Token::lit),
        (0u16..4).prop_map(Token::Digit),
        Just(Token::DigitPlus),
        Just(Token::Num),
        (0u16..4).prop_map(Token::Upper),
        Just(Token::UpperPlus),
        (0u16..4).prop_map(Token::Lower),
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

/// An arbitrary pattern of up to `max` tokens.
fn arbitrary_pattern(max: usize) -> impl Strategy<Value = Pattern> {
    proptest::collection::vec(arbitrary_token(), 0..max).prop_map(Pattern::new)
}

/// ASCII machine data plus multi-byte characters (é, €, emoji) so the
/// lead/continuation spine of `<sym>`/`<any>` gets exercised.
fn probe_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9 :/.,_é€😀-]{0,16}").expect("valid regex")
}

/// Machine-shaped values, number shapes, and arbitrary characters.
fn arbitrary_value() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[A-Za-z0-9:/ ._-]{0,16}").expect("valid regex"),
        proptest::string::string_regex("[0-9.]{1,10}").expect("valid regex"),
        proptest::collection::vec(any::<char>(), 0..8).prop_map(|v| v.into_iter().collect()),
    ]
}

/// A value *derived from* the pattern, stretching each variadic token by
/// `stretch` characters — these values usually match, driving the
/// automaton down its accepting paths.
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

fn oracle_set(patterns: &[Pattern], value: &str) -> Vec<u32> {
    patterns
        .iter()
        .enumerate()
        .filter(|(_, p)| matches(p, value))
        .map(|(i, _)| i as u32)
        .collect()
}

/// A matcher holding `pattern` alone, as a pattern rule validates with.
fn one_rule(pattern: &Pattern) -> CatalogMatcher {
    let mut matcher = CatalogMatcher::new();
    matcher.insert(0, &pattern.compile());
    matcher
}

/// The one-rule automaton's verdict equals the reference's, cold and on a
/// repeat that runs the states the first scan cached.
fn assert_one_rule_equals_reference(pattern: &Pattern, value: &str) {
    let want = matches(pattern, value);
    let mut matcher = one_rule(pattern);
    assert_eq!(matcher.is_match(value), want, "{pattern} ~ {value:?}");
    assert_eq!(matcher.is_match(value), want, "warm: {pattern} ~ {value:?}");
}

proptest! {
    /// The tentpole equivalence: one scan ≡ the per-pattern loop.
    #[test]
    fn match_set_equals_per_rule_loop(
        patterns in proptest::collection::vec(arbitrary_pattern(6), 0..12),
        values in proptest::collection::vec(probe_value(), 1..8),
    ) {
        let mut matcher = CatalogMatcher::new();
        for (i, p) in patterns.iter().enumerate() {
            matcher.insert(i as u32, &p.compile());
        }
        for v in &values {
            prop_assert_eq!(
                matcher.classify(v),
                oracle_set(&patterns, v),
                "catalog of {} rules disagrees with per-rule loop on {:?}",
                patterns.len(),
                v
            );
        }
    }

    /// Budget exhaustion must never change verdicts: with a DFA budget of
    /// 1 every value takes the NFA-fallback + eviction path, and the
    /// match-sets still equal the oracle.
    #[test]
    fn starved_dfa_budget_is_still_exact(
        patterns in proptest::collection::vec(arbitrary_pattern(6), 1..8),
        values in proptest::collection::vec(probe_value(), 1..6),
    ) {
        let mut matcher = CatalogMatcher::with_config(MatcherConfig::with_budget(1));
        for (i, p) in patterns.iter().enumerate() {
            matcher.insert(i as u32, &p.compile());
        }
        for v in &values {
            prop_assert_eq!(matcher.classify(v), oracle_set(&patterns, v), "on {:?}", v);
        }
        prop_assert!(matcher.stats().dfa_states <= 1, "budget respected");
    }

    /// Incremental maintenance: interleave inserts, removes, replacements
    /// and classifies; after every step the warm (incrementally updated)
    /// matcher agrees with one freshly built from the surviving rules.
    #[test]
    fn incremental_updates_equal_fresh_build(
        patterns in proptest::collection::vec(arbitrary_pattern(6), 2..8),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..16),
        value in probe_value(),
    ) {
        let programs: Vec<CompiledPattern> = patterns.iter().map(Pattern::compile).collect();
        let mut warm = CatalogMatcher::new();
        let n = programs.len() as u8;
        let mut live: Vec<Option<usize>> = vec![None; programs.len()];
        for (sel, action) in ops {
            let slot = (sel % n) as usize;
            if action % 3 == 0 && live[slot].is_some() {
                warm.remove(slot as u32);
                live[slot] = None;
            } else {
                let pick = (action as usize) % programs.len();
                warm.insert(slot as u32, &programs[pick]);
                live[slot] = Some(pick);
            }
            // Classify mid-sequence so stale cached DFA states would be caught.
            let warm_set = warm.classify(&value);
            let mut fresh = CatalogMatcher::new();
            for (slot, pick) in live.iter().enumerate() {
                if let Some(pick) = pick {
                    fresh.insert(slot as u32, &programs[*pick]);
                }
            }
            prop_assert_eq!(
                warm_set,
                fresh.classify(&value),
                "incremental matcher diverged from fresh build on {:?}",
                &value
            );
        }
    }

    /// The boolean scan ≡ "some pattern accepts", under every DFA budget:
    /// starved (every value leaves the cache for the NFA), small (states
    /// are evicted between values) and the default. One-rule matchers
    /// stay warm across the values, as a validated rule's automaton does.
    #[test]
    fn boolean_scan_equals_any_program_under_every_budget(
        patterns in proptest::collection::vec(arbitrary_pattern(6), 1..8),
        values in proptest::collection::vec(probe_value(), 1..8),
    ) {
        for budget in [Some(1), Some(2), Some(3), Some(8), None] {
            let config = |budget: Option<usize>| match budget {
                Some(states) => CatalogMatcher::with_config(MatcherConfig::with_budget(states)),
                None => CatalogMatcher::new(),
            };
            let mut union = config(budget);
            let mut singles: Vec<CatalogMatcher> = patterns
                .iter()
                .map(|p| {
                    let mut m = config(budget);
                    m.insert(0, &p.compile());
                    m
                })
                .collect();
            for (i, p) in patterns.iter().enumerate() {
                union.insert(i as u32, &p.compile());
            }
            for v in &values {
                prop_assert_eq!(
                    union.is_match(v),
                    !oracle_set(&patterns, v).is_empty(),
                    "budget {:?}, catalog of {} rules, value {:?}",
                    budget,
                    patterns.len(),
                    v
                );
                for (p, single) in patterns.iter().zip(&mut singles) {
                    prop_assert_eq!(
                        single.is_match(v),
                        matches(p, v),
                        "budget {:?}, one-rule matcher, value {:?}",
                        budget,
                        v
                    );
                }
            }
            if let Some(states) = budget {
                prop_assert!(union.stats().dfa_states <= states, "budget respected");
            }
        }
    }

    /// Arbitrary pattern × arbitrary value: one-rule automaton ≡ reference.
    #[test]
    fn one_rule_automaton_equals_reference_on_arbitrary_inputs(
        p in arbitrary_pattern(8),
        v in arbitrary_value(),
    ) {
        assert_one_rule_equals_reference(&p, &v);
    }

    /// Pattern-derived values (mostly accepting, with variadic stretching)
    /// and their single-character corruptions.
    #[test]
    fn one_rule_automaton_equals_reference_on_derived_values(
        p in arbitrary_pattern(8),
        stretch in 0usize..3,
    ) {
        let derived = value_from(&p, stretch);
        assert_one_rule_equals_reference(&p, &derived);
        let mut corrupted = derived.clone();
        corrupted.pop();
        assert_one_rule_equals_reference(&p, &corrupted);
        assert_one_rule_equals_reference(&p, &format!("{derived}~"));
        assert_one_rule_equals_reference(&p, "");
    }
}

/// The recursive reference matcher descends one Rust stack frame per
/// token, so it is deliberately *not* called on a 10 000-token pattern;
/// the automaton is one state arena whatever the width.
#[test]
fn ten_thousand_token_pattern_is_one_automaton() {
    // 5 000 × (<digit>+ "-"): 10 000 tokens, 5 000 of them variadic —
    // none fuse, so this genuinely exercises program width.
    let mut tokens = Vec::with_capacity(10_000);
    for _ in 0..5_000 {
        tokens.push(Token::DigitPlus);
        tokens.push(Token::lit("-"));
    }
    let pattern = Pattern::new(tokens);
    assert_eq!(pattern.compile().num_instructions(), 10_000);
    let mut matcher = one_rule(&pattern);

    let good = "1-".repeat(5_000);
    assert!(matcher.is_match(&good));
    let wide = "123-".repeat(5_000);
    assert!(matcher.is_match(&wide));
    assert!(!matcher.is_match(&good[..good.len() - 1]));
    // Right length, wrong byte in the middle.
    let mut bad = good.clone().into_bytes();
    bad[5_001] = b'x';
    let bad = String::from_utf8(bad).unwrap();
    assert!(!matcher.is_match(&bad));
}

/// Same shape at a width the reference *can* handle on a main-thread
/// stack: the two agree right up to the width edge cases.
#[test]
fn wide_pattern_agrees_with_reference_at_oracle_safe_width() {
    let mut tokens = Vec::new();
    for _ in 0..200 {
        tokens.push(Token::DigitPlus);
        tokens.push(Token::lit("-"));
    }
    let pattern = Pattern::new(tokens);
    for value in [
        "1-".repeat(200),
        "42-".repeat(200),
        "1-".repeat(199),
        format!("{}x-", "1-".repeat(199)),
    ] {
        assert_one_rule_equals_reference(&pattern, &value);
    }
}

/// Each value's verdict on `pattern`, on the reference and on the
/// one-rule automaton.
fn assert_verdicts(pattern: &Pattern, values: &[(&str, bool)]) {
    let mut matcher = one_rule(pattern);
    for &(value, want) in values {
        assert_eq!(
            matches(pattern, value),
            want,
            "reference: {pattern} ~ {value:?}"
        );
        assert_eq!(
            matcher.is_match(value),
            want,
            "automaton: {pattern} ~ {value:?}"
        );
    }
}

/// The cases the fused program is built around, each with its verdict:
/// `<num>` giving characters back, multi-byte characters in `<sym>` /
/// `<any>` runs, fused same-class runs, and adjacent variadics.
#[test]
fn verdict_cases_equal_the_reference() {
    let tokens = |tokens: Vec<Token>| Pattern::new(tokens);
    assert_verdicts(&Pattern::empty(), &[("", true), ("x", false)]);
    // Fused: one 5-char scan, one "4 or more" run.
    assert_verdicts(
        &tokens(vec![Token::Digit(2), Token::Digit(3)]),
        &[("12345", true), ("1234", false)],
    );
    assert_verdicts(
        &tokens(vec![Token::Digit(2), Token::DigitPlus, Token::DigitPlus]),
        &[("123", false), ("1234", true), ("123456789", true)],
    );
    // Different classes do not fuse: <digit>{2}<alnum>+ ≠ <alnum>{3+}.
    assert_verdicts(
        &tokens(vec![Token::Digit(2), Token::AlnumPlus]),
        &[("12ab", true), ("ab12", false)],
    );
    assert_verdicts(
        &tokens(vec![Token::AlnumPlus, Token::lit("-"), Token::AlnumPlus]),
        &[("a1-b2", true), ("a-b-c", false), ("-ab", false)],
    );
    // <sym>+ must give back the "-".
    assert_verdicts(
        &tokens(vec![Token::SymPlus, Token::lit("-"), Token::AlnumPlus]),
        &[("--a", true), ("-a", false)],
    );
    assert_verdicts(
        &tokens(vec![Token::AnyPlus, Token::lit("!")]),
        &[("anything!", true), ("anything", false), ("!", false)],
    );
    // <sym> widths count characters, not bytes.
    assert_verdicts(
        &tokens(vec![Token::Sym(2)]),
        &[("é°", true), ("é", false), ("éa", false)],
    );
    assert_verdicts(
        &tokens(vec![Token::SymPlus, Token::lit("x"), Token::SymPlus]),
        &[("éx✓", true), ("…x—", true), ("…x", false)],
    );
    // ASCII classes reject multi-byte characters outright.
    assert_verdicts(&tokens(vec![Token::LetterPlus]), &[("ré", false)]);
    // <any>+ splits across multi-byte characters without slicing them.
    assert_verdicts(
        &tokens(vec![Token::AnyPlus, Token::AnyPlus]),
        &[("é✓", true), ("é", false)],
    );
    // Twelve adjacent <any>+ fuse into one scan.
    let long = "x".repeat(200);
    assert_verdicts(&tokens(vec![Token::AnyPlus; 12]), &[(&long, true)]);
    let mut bang = vec![Token::AnyPlus; 12];
    bang.push(Token::lit("!"));
    assert_verdicts(&tokens(bang), &[(&long, false)]);

    let parsed: &[(&str, &[(&str, bool)])] = &[
        (
            "<letter>{3} <digit>{2} <digit>{4}",
            &[
                ("Mar 01 2019", true),
                ("Oct 11 2020", true),
                ("March 01 2019", false),
                ("Mar 1 2019", false),
                ("Mar 01 2019 ", false),
            ],
        ),
        (
            "<digit>+/<digit>{2}/<digit>{4} <digit>+:<digit>{2}:<digit>{2} <letter>{2}",
            &[
                ("9/07/2019 12:01:32 PM", true),
                ("9/07/2019 12:01:32", false),
            ],
        ),
        (
            "<num>",
            &[
                ("9", true),
                ("0.1", true),
                ("12345.6789", true),
                (".5", false),
                ("5.", false),
                ("1.2.3", false),
                ("", false),
            ],
        ),
        // <num> must give characters back to the rest of the pattern.
        ("<num>:<digit>+", &[("9:07", true)]),
        ("<num>.<digit>{2}", &[("3.14", true), ("1.5.99", true)]),
        (
            "<num>,<num>",
            &[
                ("1.5,2.25", true),
                ("1,2", true),
                ("1,2,", false),
                ("1.,2", false),
            ],
        ),
        (
            "<digit>{4}-<digit>{2}-<digit>{2}",
            &[
                ("2019-", false),
                ("2019-07-27", true),
                ("2019-07-271", false),
            ],
        ),
    ];
    for (pattern, values) in parsed {
        assert_verdicts(&parse(pattern).unwrap(), values);
    }

    // A warm automaton keeps its verdicts across many values.
    let mut matcher = one_rule(&parse("<digit>+:<digit>{2}").unwrap());
    for i in 0..50 {
        let good = format!("{}:{:02}", i, i % 60);
        assert!(matcher.is_match(&good), "{good}");
        assert!(!matcher.is_match("drift"));
    }
}
