//! [`Regex`]: the regex front-end of the byte-level NFA.
//!
//! A pattern is parsed ([`crate::ast`]) and lowered backwards, by
//! continuation, into an automaton of its own: a character set becomes one
//! ASCII byte state plus the UTF-8 byte-range sequences of its non-ASCII
//! part, and repeats are expanded exactly.

use crate::ast::{parse, Ast, RegexError};
use crate::matcher::with_scratch;
use crate::nfa::{char_states, NState, Nfa, NfaScratch};

/// The most states a regex's automaton may have: bounded repeats expand
/// exactly, so `((a{1000}){1000}){1000}` would ask for 10⁹.
const MAX_STATES: usize = 1 << 18;

/// The accept state: the first one pushed.
const ACCEPT: u32 = 0;

/// A compiled regular expression. Matching is NFA simulation, linear in
/// `|input| × |states|` with no backtracking blow-up — important because
/// baselines run over millions of machine-generated values.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    nfa: Nfa,
    entry: u32,
}

impl Regex {
    /// Compile a pattern. See the crate docs for the supported dialect.
    pub fn new(pattern: &str) -> Result<Regex, RegexError> {
        Regex::lower(pattern, &parse(pattern)?)
    }

    fn lower(pattern: &str, ast: &Ast) -> Result<Regex, RegexError> {
        if states_needed(ast) >= MAX_STATES {
            return Err(RegexError {
                offset: 0,
                message: format!("needs more than {MAX_STATES} automaton states"),
            });
        }
        let mut nfa = Nfa::default();
        let accept = nfa.push(NState::Accept { rule: 0 });
        debug_assert_eq!(accept, ACCEPT);
        let entry = push_ast(&mut nfa, ast, accept);
        Ok(Regex {
            pattern: pattern.to_string(),
            nfa,
            entry,
        })
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Does the regex match the *entire* input?
    ///
    /// Uses a thread-local [`NfaScratch`], so repeated calls allocate
    /// nothing; hot loops that want explicit control can pass their own
    /// via [`Regex::is_full_match_with`].
    pub fn is_full_match(&self, input: &str) -> bool {
        with_scratch(|scratch| self.is_full_match_with(input, scratch))
    }

    /// [`Regex::is_full_match`] with caller-provided working memory.
    pub fn is_full_match_with(&self, input: &str, scratch: &mut NfaScratch) -> bool {
        self.nfa
            .run(&[self.entry], input.as_bytes(), scratch)
            .contains(&ACCEPT)
    }
}

/// `ast`, then `next`; returns the entry.
fn push_ast(nfa: &mut Nfa, ast: &Ast, next: u32) -> u32 {
    match ast {
        Ast::Empty => next,
        Ast::Class(set) => nfa.push_char(|b| set.contains(char::from(b)), &set.non_ascii(), next),
        Ast::Concat(items) => items
            .iter()
            .rev()
            .fold(next, |n, item| push_ast(nfa, item, n)),
        Ast::Alt(branches) => {
            let (last, rest) = branches.split_last().expect("an alternation has branches");
            let tail = push_ast(nfa, last, next);
            rest.iter().rev().fold(tail, |b, branch| {
                let a = push_ast(nfa, branch, next);
                nfa.push(NState::Split { a, b })
            })
        }
        // A body that builds no state is ε however often it repeats.
        Ast::Repeat { node, .. } if states_needed(node) == 0 => next,
        Ast::Repeat { node, min, max } => {
            // The optional rounds nest — `x{0,2}` is `(x(x)?)?` — so each
            // can exit straight to `next`.
            let optional = match max {
                None => nfa.push_star(next, |nfa, head| push_ast(nfa, node, head)),
                Some(max) => (*min..*max).fold(next, |n, _| {
                    let a = push_ast(nfa, node, n);
                    nfa.push(NState::Split { a, b: next })
                }),
            };
            (0..*min).fold(optional, |n, _| push_ast(nfa, node, n))
        }
    }
}

/// The states [`push_ast`] pushes for `ast`, saturating.
fn states_needed(ast: &Ast) -> usize {
    match ast {
        Ast::Empty => 0,
        Ast::Class(set) => char_states(&set.non_ascii()),
        Ast::Concat(items) => items
            .iter()
            .map(states_needed)
            .fold(0, usize::saturating_add),
        Ast::Alt(branches) => branches
            .iter()
            .map(states_needed)
            .fold(branches.len() - 1, usize::saturating_add),
        Ast::Repeat { node, min, max } => {
            let body = states_needed(node);
            let (rounds, splits) = match max {
                _ if body == 0 => (0, 0),
                None => (*min as usize + 1, 1),
                Some(max) => (*max as usize, (max - min) as usize),
            };
            body.saturating_mul(rounds).saturating_add(splits)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CharSet;
    use proptest::prelude::*;

    #[test]
    fn grok_style_patterns() {
        let cases = [
            (
                r"(25[0-5]|2[0-4]\d|[01]?\d?\d)(\.(25[0-5]|2[0-4]\d|[01]?\d?\d)){3}",
                "192.168.0.1",
                true,
            ),
            (
                r"(25[0-5]|2[0-4]\d|[01]?\d?\d)(\.(25[0-5]|2[0-4]\d|[01]?\d?\d)){3}",
                "999.1.1.1",
                false,
            ),
            (
                r"[0-9A-Fa-f]{8}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{4}-[0-9A-Fa-f]{12}",
                "550e8400-e29b-41d4-a716-446655440000",
                true,
            ),
            (
                r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}",
                "2021-04-13T09:00:00",
                true,
            ),
        ];
        for (pat, input, want) in cases {
            let re = Regex::new(pat).unwrap();
            assert_eq!(re.is_full_match(input), want, "{pat} vs {input}");
        }
    }

    #[test]
    fn full_match_basics() {
        let re = Regex::new("ab+c?").unwrap();
        assert!(re.is_full_match("ab"));
        assert!(re.is_full_match("abbbc"));
        assert!(!re.is_full_match("ac"));
        assert!(!re.is_full_match("abcx"));
        let re = Regex::new("(cat|dog)s?").unwrap();
        for ok in ["cat", "dogs", "cats"] {
            assert!(re.is_full_match(ok), "{ok}");
        }
        assert!(!re.is_full_match("cow"));
        let re = Regex::new(r"\d{2,4}").unwrap();
        assert!(!re.is_full_match("1"));
        assert!(re.is_full_match("12"));
        assert!(re.is_full_match("1234"));
        assert!(!re.is_full_match("12345"));
        let re = Regex::new("").unwrap();
        assert!(re.is_full_match(""));
        assert!(!re.is_full_match("a"));
    }

    #[test]
    fn star_with_empty_body_terminates() {
        let re = Regex::new("(a?)*b").unwrap();
        assert!(re.is_full_match("b"));
        assert!(re.is_full_match("aab"));
        assert!(!re.is_full_match("c"));
    }

    #[test]
    fn linear_time_on_adversarial_pattern() {
        // (a+)+$ style patterns kill backtracking engines; the NFA is fine.
        let re = Regex::new("(a+)+").unwrap();
        assert!(!re.is_full_match(&("a".repeat(64) + "!")));
        assert!(re.is_full_match(&"a".repeat(64)));
    }

    #[test]
    fn unicode_input_is_handled() {
        assert!(Regex::new(r".+").unwrap().is_full_match("héllo"));
        // é is not an ASCII word char.
        assert!(!Regex::new(r"\w+").unwrap().is_full_match("héllo"));
        let re = Regex::new("[é-ü€]+x").unwrap();
        assert!(re.is_full_match("éü€x"));
        assert!(!re.is_full_match("éa€x"));
        assert!(!re.is_full_match("ÿx"));
    }

    #[test]
    fn pattern_accessor_and_invalid_patterns() {
        assert_eq!(Regex::new("abc").unwrap().pattern(), "abc");
        assert!(Regex::new("(").is_err());
        assert!(Regex::new("a{2,1}").is_err());
    }

    /// Repeats compile exactly; a repeat whose automaton would pass the
    /// state bound is refused before anything is built.
    #[test]
    fn bounded_repeats_are_exact_and_huge_ones_are_refused() {
        let re = Regex::new("a{1001}").unwrap();
        assert!(!re.is_full_match(&"a".repeat(1000)));
        assert!(re.is_full_match(&"a".repeat(1001)));
        assert!(!re.is_full_match(&"a".repeat(1002)));
        let re = Regex::new("a{5000,}").unwrap();
        assert!(!re.is_full_match(&"a".repeat(4999)));
        assert!(re.is_full_match(&"a".repeat(5000)));
        assert!(re.is_full_match(&"a".repeat(6000)));
        // A long ε-chain is walked without deep recursion.
        let re = Regex::new("(a?){100000}b").unwrap();
        assert!(re.is_full_match("aab"));
        let err = Regex::new("((a{1000}){1000}){1000}").unwrap_err();
        assert!(err.message.contains("states"), "{err}");
        // An ε body is ε however often it repeats, and costs nothing.
        let re = Regex::new("x(^$){4000000000}((){99999}){99999,}y").unwrap();
        assert!(re.is_full_match("xy"));
        assert!(!re.is_full_match("x"));
    }

    /// [`states_needed`] is what [`push_ast`] pushes, so the bound is exact.
    #[test]
    fn states_needed_counts_the_built_automaton() {
        for pattern in [
            "",
            "a",
            "a|bc|",
            r"(25[0-5]|2[0-4]\d|[01]?\d?\d)(\.(25[0-5]|2[0-4]\d|[01]?\d?\d)){3}",
            "(a?)*b{2,}c{3,5}",
            "(){3}(|a){0,2}(^$)*",
            "[^a-z]+.[é-ü€😀]{2}",
            r"\D\W\S[\0]",
        ] {
            let ast = parse(pattern).unwrap();
            let re = Regex::lower(pattern, &ast).unwrap();
            assert_eq!(states_needed(&ast) + 1, re.nfa.len(), "{pattern}");
        }
    }

    /// A one-class regex accepts `c` iff the char-level reference
    /// [`CharSet::contains`] does, with the states it was budgeted.
    fn agrees(set: &CharSet, c: char) -> Result<(), TestCaseError> {
        let ast = Ast::Class(set.clone());
        let re = Regex::lower("", &ast).unwrap();
        prop_assert_eq!(states_needed(&ast) + 1, re.nfa.len());
        prop_assert_eq!(
            re.is_full_match(&c.to_string()),
            set.contains(c),
            "{:?} in {:?}",
            c,
            set
        );
        Ok(())
    }

    /// Anywhere up to U+10FFFF, and often near the 2- and 4-byte edges.
    fn scalar() -> impl Strategy<Value = char> {
        let near = |lo: u32, hi: u32| (lo..hi).prop_map(|c| char::from_u32(c).unwrap());
        prop_oneof![any::<char>(), near(0x60, 0x900), near(0xFF00, 0x1_0100)]
    }

    fn char_set() -> impl Strategy<Value = CharSet> {
        let range = (scalar(), scalar()).prop_map(|(a, b)| (a.min(b), a.max(b)));
        (proptest::collection::vec(range, 0..5), any::<bool>())
            .prop_map(|(ranges, negated)| CharSet { ranges, negated })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn char_set_lowering_agrees_with_contains(set in char_set(), c in scalar()) {
            agrees(&set, c)?;
        }
    }

    /// Sets with an edge at each UTF-8 length boundary, probed on both
    /// sides of every edge.
    #[test]
    fn char_set_lowering_at_encoding_boundaries() {
        let edges = [0x7F, 0x80, 0x7FF, 0x800, 0xFFFF, 0x1_0000, 0x10_FFFF];
        let ch = |c: u32| char::from_u32(c).unwrap();
        for &lo in &edges {
            for &hi in edges.iter().filter(|&&hi| hi >= lo) {
                for negated in [false, true] {
                    let set = CharSet {
                        ranges: vec![(ch(lo), ch(hi))],
                        negated,
                    };
                    for probe in edges.iter().flat_map(|&e| [e.saturating_sub(1), e, e + 1]) {
                        if let Some(c) = char::from_u32(probe) {
                            agrees(&set, c).unwrap();
                        }
                    }
                }
            }
        }
    }
}
