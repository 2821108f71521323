//! Property tests pinning [`CatalogMatcher`] to its oracle: running each
//! rule's [`CompiledPattern`] individually. On arbitrary catalogs ×
//! arbitrary values (including multi-byte unicode) the one-scan match-set
//! must equal the N-programs loop, under any DFA budget, and after any
//! sequence of incremental inserts/removes. The boolean scan
//! ([`CatalogMatcher::is_match`]) is held to the same loop: on the whole
//! catalog, and on a one-rule matcher per program — the automaton a
//! pattern rule validates with.

use av_match::{CatalogMatcher, MatcherConfig};
use av_pattern::{CompiledPattern, Pattern, Token};
use proptest::prelude::*;

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

fn arbitrary_program() -> impl Strategy<Value = CompiledPattern> {
    proptest::collection::vec(arbitrary_token(), 0..6)
        .prop_map(|tokens| CompiledPattern::compile(&Pattern::new(tokens)))
}

/// ASCII machine data plus multi-byte characters (é, €, emoji) so the
/// lead/continuation spine of `<sym>`/`<any>` gets exercised.
fn probe_value() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9 :/.,_é€😀-]{0,16}").expect("valid regex")
}

fn oracle_set(programs: &[CompiledPattern], value: &str) -> Vec<u32> {
    programs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.matches(value))
        .map(|(i, _)| i as u32)
        .collect()
}

proptest! {
    /// The tentpole equivalence: one scan ≡ the N-programs loop.
    #[test]
    fn match_set_equals_per_rule_loop(
        programs in proptest::collection::vec(arbitrary_program(), 0..12),
        values in proptest::collection::vec(probe_value(), 1..8),
    ) {
        let mut matcher = CatalogMatcher::new();
        for (i, p) in programs.iter().enumerate() {
            matcher.insert(i as u32, p);
        }
        for v in &values {
            prop_assert_eq!(
                matcher.classify(v),
                oracle_set(&programs, v),
                "catalog of {} rules disagrees with per-rule loop on {:?}",
                programs.len(),
                v
            );
        }
    }

    /// Budget exhaustion must never change verdicts: with a DFA budget of
    /// 1 every value takes the NFA-fallback + eviction path, and the
    /// match-sets still equal the oracle.
    #[test]
    fn starved_dfa_budget_is_still_exact(
        programs in proptest::collection::vec(arbitrary_program(), 1..8),
        values in proptest::collection::vec(probe_value(), 1..6),
    ) {
        let mut matcher = CatalogMatcher::with_config(MatcherConfig::with_budget(1));
        for (i, p) in programs.iter().enumerate() {
            matcher.insert(i as u32, p);
        }
        for v in &values {
            prop_assert_eq!(matcher.classify(v), oracle_set(&programs, v), "on {:?}", v);
        }
        prop_assert!(matcher.stats().dfa_states <= 1, "budget respected");
    }

    /// Incremental maintenance: interleave inserts, removes, replacements
    /// and classifies; after every step the warm (incrementally updated)
    /// matcher agrees with one freshly built from the surviving rules.
    #[test]
    fn incremental_updates_equal_fresh_build(
        programs in proptest::collection::vec(arbitrary_program(), 2..8),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..16),
        value in probe_value(),
    ) {
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

    /// The boolean scan ≡ "some program accepts", under every DFA budget:
    /// starved (every value leaves the cache for the NFA), small (states
    /// are evicted between values) and the default. One-rule matchers
    /// stay warm across the values, as a validated rule's automaton does.
    #[test]
    fn boolean_scan_equals_any_program_under_every_budget(
        programs in proptest::collection::vec(arbitrary_program(), 1..8),
        values in proptest::collection::vec(probe_value(), 1..8),
    ) {
        for budget in [Some(1), Some(2), Some(3), Some(8), None] {
            let config = |budget: Option<usize>| match budget {
                Some(states) => CatalogMatcher::with_config(MatcherConfig::with_budget(states)),
                None => CatalogMatcher::new(),
            };
            let mut union = config(budget);
            let mut singles: Vec<CatalogMatcher> = programs
                .iter()
                .map(|p| {
                    let mut m = config(budget);
                    m.insert(0, p);
                    m
                })
                .collect();
            for (i, p) in programs.iter().enumerate() {
                union.insert(i as u32, p);
            }
            for v in &values {
                prop_assert_eq!(
                    union.is_match(v),
                    !oracle_set(&programs, v).is_empty(),
                    "budget {:?}, catalog of {} rules, value {:?}",
                    budget,
                    programs.len(),
                    v
                );
                for (p, single) in programs.iter().zip(&mut singles) {
                    prop_assert_eq!(
                        single.is_match(v),
                        p.matches(v),
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
}
