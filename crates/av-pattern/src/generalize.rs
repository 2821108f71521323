//! Generation config, per-run generalization chains, and coarse patterns.
//!
//! The per-position option chains follow the paper's §1 enumeration of the
//! seven ways to generalize the digit "9": constant, `<digit>{1}`,
//! `<digit>+`, `<num>`, `<alnum>{1}`, `<alnum>+`, `<any>+` (letter runs get
//! case-specific refinements, symbol/space runs shorter chains).
//! Column-level analysis lives in [`crate::analyze`].

use crate::pattern::Pattern;
use crate::token::{CharClass, Token};
use crate::tokenize::tokenize;

/// Tuning knobs for pattern generation.
#[derive(Debug, Clone)]
pub struct PatternConfig {
    /// Minimum fraction of a column's values a coarse group or a drilled
    /// token must cover to be retained (Algorithm 1's "sufficient coverage").
    pub coverage_frac: f64,
    /// Hard cap on the number of fine-grained patterns enumerated per coarse
    /// group; when the cross-product exceeds it, options are trimmed in a
    /// class-aware order (partial-support and `<any>+` options first).
    pub max_patterns: usize,
    /// Offer `<upper>`/`<lower>` refinements for uniformly-cased letter runs.
    pub case_tokens: bool,
    /// Maximum number of values per coarse group tracked in support bitsets.
    pub sample_values: usize,
}

impl Default for PatternConfig {
    fn default() -> Self {
        PatternConfig {
            coverage_frac: 0.05,
            max_patterns: 4096,
            case_tokens: true,
            sample_values: 256,
        }
    }
}

/// The strict coarse pattern of a value: one token per run (digits →
/// `<num>`, letters → `<letter>+`, whitespace/symbols as literals),
/// mirroring the paper's step-1 lexer output, e.g.
/// `"<num>/<num>/<num> <num>:<num>:<num> <letter>+"`.
pub fn coarse_pattern(value: &str) -> Pattern {
    tokenize(value)
        .iter()
        .map(|run| match run.class {
            CharClass::Digit => Token::Num,
            CharClass::Letter => Token::LetterPlus,
            CharClass::Space | CharClass::Symbol => Token::lit(run.text),
        })
        .collect()
}

/// What a run is to the generalization hierarchy: its character class —
/// with a letter run's uniform case folded in where case tokens are on — or
/// the digit/letter fusion of a merged `<alnum>` segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunShape {
    /// ASCII digits.
    Digit,
    /// Letters, all uppercase.
    Upper,
    /// Letters, all lowercase.
    Lower,
    /// Letters of mixed case, or of any case with `case_tokens` off.
    Letter,
    /// ASCII whitespace.
    Space,
    /// Everything else.
    Symbol,
    /// Adjacent digit and letter runs taken as one segment.
    Alnum,
}

/// The class tokens generalizing a `k`-character run of `shape`, most
/// specific first. Behind the run's own text as a constant this is the §1
/// chain (`"9"`, `<digit>{1}`, `<digit>+`, `<num>`, `<alnum>{1}`,
/// `<alnum>+`, `<any>+`), extended with case-specific letter tokens.
pub(crate) fn for_each_class_token(shape: RunShape, k: u16, mut f: impl FnMut(Token)) {
    match shape {
        RunShape::Digit => {
            f(Token::Digit(k));
            f(Token::DigitPlus);
            f(Token::Num);
        }
        RunShape::Upper => {
            f(Token::Upper(k));
            f(Token::UpperPlus);
        }
        RunShape::Lower => {
            f(Token::Lower(k));
            f(Token::LowerPlus);
        }
        RunShape::Space => f(Token::SpacePlus),
        RunShape::Symbol => {
            f(Token::Sym(k));
            f(Token::SymPlus);
        }
        RunShape::Letter | RunShape::Alnum => {}
    }
    if matches!(shape, RunShape::Upper | RunShape::Lower | RunShape::Letter) {
        f(Token::Letter(k));
        f(Token::LetterPlus);
    }
    if !matches!(shape, RunShape::Space | RunShape::Symbol) {
        f(Token::Alnum(k));
        f(Token::AlnumPlus);
    }
    f(Token::AnyPlus);
}

/// Every generalization of one strict run, its literal first (tests).
#[cfg(test)]
pub(crate) fn run_options(run: &crate::tokenize::Run<'_>, cfg: &PatternConfig) -> Vec<Token> {
    let all = |f: fn(&char) -> bool| run.text.chars().all(|c| f(&c));
    let shape = match run.class {
        CharClass::Digit => RunShape::Digit,
        CharClass::Letter if cfg.case_tokens && all(char::is_ascii_uppercase) => RunShape::Upper,
        CharClass::Letter if cfg.case_tokens && all(char::is_ascii_lowercase) => RunShape::Lower,
        CharClass::Letter => RunShape::Letter,
        CharClass::Space => RunShape::Space,
        CharClass::Symbol => RunShape::Symbol,
    };
    let mut opts = vec![Token::lit(run.text)];
    for_each_class_token(shape, run.len() as u16, |t| opts.push(t));
    opts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_pattern_of_datetime() {
        let p = coarse_pattern("9/07/2019 12:01:32 PM");
        assert_eq!(
            p.to_string(),
            "<num>/<num>/<num> <num>:<num>:<num> <letter>+"
        );
    }

    #[test]
    fn run_options_for_digit_follow_paper_chain() {
        let cfg = PatternConfig::default();
        let runs = tokenize("9");
        let opts = run_options(&runs[0], &cfg);
        // Const("9"), <digit>{1}, <digit>+, <num>, <alnum>{1}, <alnum>+, <any>+
        assert_eq!(opts.len(), 7);
        assert_eq!(opts[0], Token::lit("9"));
        assert_eq!(opts[1], Token::Digit(1));
        assert_eq!(opts[2], Token::DigitPlus);
        assert_eq!(opts[3], Token::Num);
        assert_eq!(opts[4], Token::Alnum(1));
        assert_eq!(opts[5], Token::AlnumPlus);
        assert_eq!(opts[6], Token::AnyPlus);
    }

    #[test]
    fn uppercase_run_offers_case_tokens() {
        let cfg = PatternConfig::default();
        let runs = tokenize("PM");
        let opts = run_options(&runs[0], &cfg);
        assert!(opts.contains(&Token::Upper(2)));
        assert!(opts.contains(&Token::UpperPlus));
        assert!(!opts.contains(&Token::Lower(2)));
    }

    #[test]
    fn mixed_case_letters_have_no_case_tokens() {
        let cfg = PatternConfig::default();
        let runs = tokenize("OnBooking");
        let opts = run_options(&runs[0], &cfg);
        assert!(!opts.contains(&Token::UpperPlus));
        assert!(!opts.contains(&Token::LowerPlus));
        assert!(opts.contains(&Token::LetterPlus));
    }

    #[test]
    fn case_tokens_can_be_disabled() {
        let cfg = PatternConfig {
            case_tokens: false,
            ..Default::default()
        };
        let runs = tokenize("PM");
        let opts = run_options(&runs[0], &cfg);
        assert!(!opts.contains(&Token::Upper(2)));
        assert!(opts.contains(&Token::Letter(2)));
    }

    #[test]
    fn symbol_and_space_chains() {
        let cfg = PatternConfig::default();
        let runs = tokenize("--- x");
        let sym_opts = run_options(&runs[0], &cfg);
        assert_eq!(
            sym_opts,
            vec![
                Token::lit("---"),
                Token::Sym(3),
                Token::SymPlus,
                Token::AnyPlus
            ]
        );
        let space_opts = run_options(&runs[1], &cfg);
        assert_eq!(
            space_opts,
            vec![Token::lit(" "), Token::SpacePlus, Token::AnyPlus]
        );
    }
}
