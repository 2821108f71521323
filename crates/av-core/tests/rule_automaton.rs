//! A pattern rule validates on its one-rule automaton; the compiled
//! program's backtracking `matches` is the reference it must equal. For
//! arbitrary rules — `<any>+`- and `<sym>`-rich ones included — and
//! columns with multi-byte values, every way of validating a column
//! reports what a per-value loop over `compiled().matches` concludes, bit
//! for bit: `checked`, `nonconforming`, the fraction's and `p_value`'s
//! bits, and `flagged`. Two threads validating one rule at once (one
//! automaton, one lock) get the same reports.

use av_core::{AnyRule, Report, Tally, ValidationRule, ValidationSession, Validator, Verdict};
use av_pattern::{Pattern, Token};
use av_stats::HomogeneityTest;
use proptest::prelude::*;

fn arb_token() -> impl Strategy<Value = Token> {
    prop_oneof![
        proptest::string::string_regex("[a-z0-9:/ .é€-]{1,3}")
            .expect("valid regex")
            .prop_map(Token::lit),
        (1u16..4).prop_map(Token::Digit),
        Just(Token::DigitPlus),
        Just(Token::Num),
        (1u16..3).prop_map(Token::Upper),
        Just(Token::LowerPlus),
        Just(Token::LetterPlus),
        (1u16..4).prop_map(Token::Alnum),
        Just(Token::AlnumPlus),
        (1u16..3).prop_map(Token::Sym),
        Just(Token::SymPlus),
        Just(Token::SpacePlus),
        Just(Token::AnyPlus),
        Just(Token::AnyPlus),
        Just(Token::AnyPlus),
    ]
}

/// Machine data, multi-byte characters (`é`, `€`, `😀`) and the `a-a-…`
/// runs `<any>+` backtracks over.
fn arb_value() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::string::string_regex("[A-Za-z0-9 :/.,_é€😀-]{0,24}").expect("valid regex"),
        proptest::string::string_regex("[a0-]{0,40}").expect("valid regex"),
        proptest::collection::vec(any::<char>(), 0..8).prop_map(|v| v.into_iter().collect()),
    ]
}

fn arb_rule() -> impl Strategy<Value = ValidationRule> {
    (
        proptest::collection::vec(arb_token(), 0..7),
        (0usize..30, 1usize..2_000),
        any::<bool>(),
    )
        .prop_map(|(tokens, (theta, train_size), fisher)| {
            let test = if fisher {
                HomogeneityTest::FisherExact
            } else {
                HomogeneityTest::ChiSquaredYates
            };
            ValidationRule::new(
                Pattern::new(tokens),
                theta as f64 / 100.0,
                train_size,
                0.001,
                50,
                test,
                0.01,
            )
        })
}

/// The reference: the backtracking program, one value at a time.
fn reference(rule: &ValidationRule, values: &[String]) -> Report {
    let mut tally = Tally::default();
    for v in values {
        tally.record(Verdict::conforming(rule.compiled().matches(v)));
    }
    rule.finish(tally)
}

fn bits(r: &Report) -> (usize, usize, u64, u64, bool) {
    (
        r.checked,
        r.nonconforming,
        r.nonconforming_frac.to_bits(),
        r.p_value.to_bits(),
        r.flagged,
    )
}

/// Every way of validating `values` against `rule`.
fn reports(rule: &ValidationRule, values: &[String]) -> Vec<(&'static str, Report)> {
    let refs = || values.iter().map(String::as_str);
    let dynamic: &dyn Validator = rule;
    let mut session = ValidationSession::new(rule);
    for v in refs() {
        session.push(v);
    }
    let mut extended = rule.session();
    extended.extend(refs());
    vec![
        ("validate", rule.validate(values)),
        ("validate_batch", rule.validate_batch(refs())),
        ("dyn validate_batch", (&dynamic).validate_batch(refs())),
        (
            "AnyRule::validate",
            AnyRule::Pattern(rule.clone()).validate(values),
        ),
        ("session push", session.finish()),
        ("session extend", extended.finish()),
    ]
}

proptest! {
    #[test]
    fn rule_reports_equal_the_backtracking_loop_bit_for_bit(
        rule in arb_rule(),
        values in proptest::collection::vec(arb_value(), 0..40),
    ) {
        let want = reference(&rule, &values);
        for (how, got) in reports(&rule, &values) {
            prop_assert_eq!(bits(&got), bits(&want), "{} on {}: {:?}", how, rule.pattern(), &values);
        }
        for v in &values {
            prop_assert_eq!(rule.conforms(v), rule.compiled().matches(v), "{} ~ {:?}", rule.pattern(), v);
        }
    }

    #[test]
    fn two_threads_validating_one_rule_get_the_reference_report(
        rule in arb_rule(),
        values in proptest::collection::vec(arb_value(), 1..40),
    ) {
        let want = bits(&reference(&rule, &values));
        let got: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        (0..4)
                            .flat_map(|_| reports(&rule, &values))
                            .map(|(how, r)| (how, bits(&r)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("validator thread panicked"))
                .collect()
        });
        for (how, got) in got {
            prop_assert_eq!(got, want, "{} on {}", how, rule.pattern());
        }
    }
}
