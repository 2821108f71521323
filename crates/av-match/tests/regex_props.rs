//! Property-based tests for the regex front-end.

use av_match::Regex;
use proptest::prelude::*;

/// Literal-only inputs: escape and verify exact matching.
fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| {
            if "\\^$.|?*+()[]{}".contains(c) {
                vec!['\\', c]
            } else {
                vec![c]
            }
        })
        .collect()
}

proptest! {
    /// An escaped literal matches exactly itself.
    #[test]
    fn escaped_literal_matches_itself(s in "[ -~]{0,12}") {
        let re = Regex::new(&escape(&s)).expect("escaped literal compiles");
        prop_assert!(re.is_full_match(&s));
        // And not itself plus a suffix.
        let longer = format!("{s}x");
        prop_assert!(!re.is_full_match(&longer));
    }

    /// Bounded repeats accept exactly the in-range counts.
    #[test]
    fn bounded_repeat_counts(m in 0u32..4, extra in 0u32..4, n in 0usize..10) {
        let lo = m;
        let hi = m + extra;
        let re = Regex::new(&format!("a{{{lo},{hi}}}")).unwrap();
        let s = "a".repeat(n);
        prop_assert_eq!(
            re.is_full_match(&s),
            (n as u32) >= lo && (n as u32) <= hi,
            "a{{{},{}}} vs {} a's", lo, hi, n
        );
    }

    /// Alternation = union of branches.
    #[test]
    fn alternation_is_union(a in "[a-z]{1,3}", b in "[a-z]{1,3}", probe in "[a-z]{0,4}") {
        let re = Regex::new(&format!("({}|{})", escape(&a), escape(&b))).unwrap();
        prop_assert_eq!(re.is_full_match(&probe), probe == a || probe == b);
    }

    /// The classic ReDoS pattern family runs in linear time (smoke: just
    /// finishes fast for sizable inputs and gives the right answer).
    #[test]
    fn no_catastrophic_backtracking(n in 1usize..200) {
        let re = Regex::new("(a|aa)+b").unwrap();
        let bad = "a".repeat(n); // no trailing b
        prop_assert!(!re.is_full_match(&bad));
        let good = format!("{}b", "a".repeat(n));
        prop_assert!(re.is_full_match(&good));
    }

    /// Perl classes partition: every char is \d or \D, \w or \W, \s or \S.
    #[test]
    fn perl_class_complements(c in any::<char>()) {
        let s = c.to_string();
        for (class, complement) in [(r"\d", r"\D"), (r"\w", r"\W"), (r"\s", r"\S")] {
            let inside = Regex::new(class).unwrap().is_full_match(&s);
            let outside = Regex::new(complement).unwrap().is_full_match(&s);
            prop_assert!(inside ^ outside, "char {c:?} vs {class}");
        }
    }
}
