//! Cross-engine oracle: `av_pattern::matches` and `av_match::Regex`
//! must agree on every pattern's exported regex — two independent matching
//! implementations checking each other.

use av_match::Regex;
use av_pattern::{matches, patterns_of_value, Pattern, PatternConfig, Token};
use proptest::prelude::*;

fn machine_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9 :/.,_\t\né€😀-]{0,20}").expect("valid regex")
}

fn arbitrary_token() -> impl Strategy<Value = Token> {
    prop_oneof![
        proptest::string::string_regex("[A-Za-z0-9:/. -]{1,4}")
            .expect("valid")
            .prop_map(Token::lit),
        (1u16..4).prop_map(Token::Digit),
        Just(Token::DigitPlus),
        Just(Token::Num),
        (1u16..4).prop_map(Token::Upper),
        Just(Token::UpperPlus),
        (1u16..4).prop_map(Token::Lower),
        Just(Token::LowerPlus),
        (1u16..4).prop_map(Token::Letter),
        Just(Token::LetterPlus),
        (1u16..4).prop_map(Token::Alnum),
        Just(Token::AlnumPlus),
        (1u16..3).prop_map(Token::Sym),
        Just(Token::SymPlus),
        Just(Token::SpacePlus),
        Just(Token::AnyPlus),
    ]
}

proptest! {
    /// For generated patterns of a value, both engines accept the value and
    /// agree on a battery of probe strings.
    #[test]
    fn engines_agree_on_generated_patterns(v in machine_value(), probe in machine_value()) {
        let cfg = PatternConfig { max_patterns: 64, ..Default::default() };
        for p in patterns_of_value(&v, &cfg).into_iter().take(16) {
            let re = Regex::new(&p.to_regex()).expect("exported regex compiles");
            prop_assert!(re.is_full_match(&v), "regex /{}/ rejects source {:?}", p.to_regex(), v);
            prop_assert_eq!(
                matches(&p, &probe),
                re.is_full_match(&probe),
                "{} vs /{}/ disagree on {:?}", p, p.to_regex(), probe
            );
        }
    }

    /// Arbitrary token sequences: the engines agree on arbitrary probes.
    /// (`<num>` is the one construct with non-regular lookahead subtleties,
    /// so this hammers the backtracking paths.)
    #[test]
    fn engines_agree_on_arbitrary_patterns(
        tokens in proptest::collection::vec(arbitrary_token(), 0..6),
        probe in machine_value(),
    ) {
        let p = Pattern::new(tokens);
        let re = Regex::new(&p.to_regex()).expect("exported regex compiles");
        prop_assert_eq!(
            matches(&p, &probe),
            re.is_full_match(&probe),
            "{} vs /{}/ disagree on {:?}", p, p.to_regex(), probe
        );
    }

    /// Display → parse round-trip preserves matching semantics.
    #[test]
    fn parse_roundtrip_preserves_semantics(
        tokens in proptest::collection::vec(arbitrary_token(), 0..5),
        probe in machine_value(),
    ) {
        let p = Pattern::new(tokens);
        let reparsed = av_pattern::parse(&p.to_string()).expect("display form parses");
        prop_assert_eq!(
            matches(&p, &probe),
            matches(&reparsed, &probe),
            "{} vs reparsed {} disagree on {:?}", p, reparsed, probe
        );
    }
}
