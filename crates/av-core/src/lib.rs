//! # av-core — the Auto-Validate inference engine
//!
//! Implements the paper's FMDV family (§2–§4) on top of the offline
//! [`av_index::PatternIndex`] as **one pipeline** — analyze the column, cut
//! it horizontally to its conforming group, enumerate that group's
//! patterns, probe each in the index, select among those with
//! `FPR_T(h) ≤ r` and `Cov_T(h) ≥ m` — of which every variant is one point
//! of a lattice:
//!
//! | variant | θ of the horizontal cut | cuts | objective |
//! |---|---|---|---|
//! | **FMDV** (Eq. 5–7) | 0 | whole column | most specific, then lowest FPR |
//! | **FMDV-H** (§4, Eq. 12–16) | `theta` | whole column | as FMDV |
//! | **FMDV-V** (§3, Eq. 8–11) | 0 | vertical: a pattern per segment, by the Eq. 11 DP | as FMDV per segment and summed; lowest summed FPR if that busts `r` |
//! | **FMDV-VH** | `theta` | vertical | as FMDV-V — the paper's best variant |
//! | **CMDV** (§2.3 ablation) | 0 | whole column | least coverage, then lowest FPR |
//! | **Auto-Tag** (§2.3 dual) | the FNR budget | whole column | least coverage, over every indexed pattern (no `r`, `m` = 1) |
//!
//! θ is the fraction of ad-hoc non-conforming values the cut may discard;
//! at 0 it demands a homogeneous column, so FMDV *is* FMDV-H at θ = 0 and
//! FMDV-V is FMDV-VH at θ = 0 (`tests/variant_identities.rs` holds them to
//! it). Validation then runs a two-sample homogeneity test against the
//! training-time non-conforming rate. The widest segment a vertical cut
//! keeps whole is the index's own τ — nothing wider was ever indexed.
//!
//! Every inferred rule — pattern, numeric, or dictionary — implements the
//! unified [`Validator`] trait: `check(&str)` for single
//! values, `validate_batch` for borrowed batches, and a streaming
//! [`ValidationSession`] whose `finish()` is bit-identical to batch
//! validation. Configuration flows through one fluent
//! [`AutoValidateBuilder`]:
//!
//! ```no_run
//! use av_core::{AutoValidateBuilder, Validator, Variant};
//!
//! # fn demo(columns: &[&av_corpus::Column]) -> Result<(), Box<dyn std::error::Error>> {
//! // One builder configures indexing (τ) and FMDV (r, θ).
//! let builder = AutoValidateBuilder::new().fpr_target(0.1).tau(13);
//! let index = builder.build_index(columns);
//! let engine = builder.engine(&index);
//!
//! // Inference borrows its inputs — no owned Vec<String> required.
//! let rule = engine.infer(["Mar 01 2019", "Mar 02 2019"], Variant::FmdvVH)?;
//!
//! // Validate in batch… (any &str iterator)
//! assert!(!rule.validate_batch(["Apr 01 2019"]).flagged);
//!
//! // …or stream values one at a time in O(1) memory.
//! let mut session = rule.session();
//! session.push("Apr 02 2019");
//! session.push("Apr 03 2019");
//! assert!(!session.finish().flagged);
//! # Ok(()) }
//! ```

mod api;
mod autotag;
mod classify;
mod config;
mod dictionary;
mod fmdv;
mod horizontal;
mod numeric;
mod rule;
mod vertical;
mod wire;

pub use api::{
    AutoValidateBuilder, Explanation, Report, Tally, ValidationSession, Validator, Verdict,
};
pub use autotag::{infer_tag, TagRule};
pub use classify::RuleSet;
pub use config::{FmdvConfig, InferError, Variant};
pub use dictionary::DictionaryRule;
pub use numeric::NumericRule;
pub use rule::{RuleAutomaton, ValidationReport, ValidationRule};
pub use wire::{pct_decode, pct_encode, WireError};

/// Either kind of inferred rule (see [`AutoValidate::infer_auto`]).
#[derive(Debug, Clone)]
pub enum AnyRule {
    /// A data-domain pattern rule (machine-generated data).
    Pattern(ValidationRule),
    /// A numeric range rule (§7 future-work extension).
    Numeric(NumericRule),
    /// A vocabulary rule (fixed-dictionary data, §6).
    Dictionary(DictionaryRule),
}

impl AnyRule {
    /// Does a single value conform?
    pub fn conforms(&self, value: &str) -> bool {
        match self {
            AnyRule::Pattern(r) => r.conforms(value),
            AnyRule::Numeric(r) => r.conforms(value),
            AnyRule::Dictionary(r) => r.conforms(value),
        }
    }

    /// Validate a future column with the §4 distributional test, streaming
    /// any borrowed iterator.
    pub fn validate<I>(&self, values: I) -> ValidationReport
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        if let AnyRule::Pattern(r) = self {
            return r.validate(values);
        }
        let mut session = ValidationSession::new(self);
        for v in values {
            session.push(v.as_ref());
        }
        session.finish()
    }

    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            AnyRule::Pattern(r) => format!("pattern {}", r.pattern()),
            AnyRule::Numeric(r) => Validator::describe(r),
            AnyRule::Dictionary(r) => Validator::describe(r),
        }
    }

    /// The compiled token program, for pattern rules.
    pub fn compiled_program(&self) -> Option<&av_pattern::CompiledPattern> {
        match self {
            AnyRule::Pattern(r) => Some(r.compiled()),
            AnyRule::Numeric(_) | AnyRule::Dictionary(_) => None,
        }
    }
}

/// Edit distance between the compiled token programs of two rules — the
/// metric behind "nearest rule" suggestions. Non-pattern rules contribute
/// an empty program, so their distance to a pattern rule is that pattern's
/// full instruction count (a timestamp pattern is as far from a vocabulary
/// as it is from nothing), and two non-pattern rules are at distance 0.
pub fn program_distance(a: &AnyRule, b: &AnyRule) -> usize {
    match (a.compiled_program(), b.compiled_program()) {
        (Some(pa), Some(pb)) => pa.distance(pb),
        (Some(p), None) | (None, Some(p)) => p.num_instructions(),
        (None, None) => 0,
    }
}

/// Among `candidates`, find the rule that *accepts* `value`, ranked by
/// [`program_distance`] from the rule it failed (ties break on the smaller
/// name, so the suggestion is deterministic). Returns the winning
/// candidate's name and its distance.
///
/// This is the "which rule did this value actually belong to" suggestion:
/// when a column swap routes statuses into the timestamp feed, the
/// timestamp rule's non-conforming values conform to the status rule, and
/// that rule is the nearest conforming one.
pub fn nearest_conforming_rule<'a, I>(
    value: &str,
    from: &AnyRule,
    candidates: I,
) -> Option<(&'a str, usize)>
where
    I: IntoIterator<Item = (&'a str, &'a AnyRule)>,
{
    nearest_rule(
        from,
        candidates
            .into_iter()
            .filter(|(_, rule)| rule.conforms(value)),
    )
}

/// The candidate nearest `from` by [`program_distance`], ties broken on
/// the smaller name: [`nearest_conforming_rule`] once conformance is known.
pub(crate) fn nearest_rule<'a>(
    from: &AnyRule,
    candidates: impl IntoIterator<Item = (&'a str, &'a AnyRule)>,
) -> Option<(&'a str, usize)> {
    let mut best: Option<(&str, usize)> = None;
    for (name, rule) in candidates {
        let d = program_distance(from, rule);
        let better = match best {
            None => true,
            Some((bn, bd)) => d < bd || (d == bd && name < bn),
        };
        if better {
            best = Some((name, d));
        }
    }
    best
}

impl Validator for AnyRule {
    fn describe(&self) -> String {
        AnyRule::describe(self)
    }

    fn check(&self, value: &str) -> Verdict {
        match self {
            AnyRule::Pattern(r) => r.check(value),
            AnyRule::Numeric(r) => r.check(value),
            AnyRule::Dictionary(r) => r.check(value),
        }
    }

    fn tally(&self, values: &mut dyn Iterator<Item = &str>) -> Tally {
        match self {
            AnyRule::Pattern(r) => r.tally(values),
            AnyRule::Numeric(r) => r.tally(values),
            AnyRule::Dictionary(r) => r.tally(values),
        }
    }

    fn explain(&self, value: &str) -> Option<Explanation> {
        match self {
            AnyRule::Pattern(r) => r.explain(value),
            AnyRule::Numeric(r) => r.explain(value),
            AnyRule::Dictionary(r) => r.explain(value),
        }
    }

    fn finish(&self, tally: Tally) -> Report {
        match self {
            AnyRule::Pattern(r) => r.finish(tally),
            AnyRule::Numeric(r) => r.finish(tally),
            AnyRule::Dictionary(r) => r.finish(tally),
        }
    }
}

use av_index::PatternIndex;
use fmdv::{infer_pattern, Candidate, Search, SelectObjective, StreamingSelect};

/// The Auto-Validate inference engine: an offline index plus configuration.
pub struct AutoValidate<'a> {
    index: &'a PatternIndex,
    /// The FMDV configuration in effect.
    pub config: FmdvConfig,
}

impl<'a> AutoValidate<'a> {
    /// Create an engine over a built (or loaded) index.
    pub fn new(index: &'a PatternIndex, config: FmdvConfig) -> AutoValidate<'a> {
        AutoValidate { index, config }
    }

    /// The underlying index.
    pub fn index(&self) -> &PatternIndex {
        self.index
    }

    /// Infer a validation rule from training values with the given variant.
    ///
    /// Accepts any iterator of string-likes (`&Vec<String>`, `&[&str]`,
    /// `["a", "b"]`, a decoder stream, …); values are borrowed throughout
    /// inference — tokenization, hypothesis enumeration, and the training
    /// θ count all run on `&str` with no intermediate `Vec<String>`.
    pub fn infer<I>(&self, train: I, variant: Variant) -> Result<ValidationRule, InferError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let train: Vec<I::Item> = train.into_iter().collect();
        self.infer_variant(&train, variant)
    }

    fn infer_variant<S: AsRef<str>>(
        &self,
        train: &[S],
        variant: Variant,
    ) -> Result<ValidationRule, InferError> {
        let cfg = &self.config;
        let whole = |objective| Search::WholeColumn(StreamingSelect::new(objective, cfg.r, cfg.m));
        // The variant lattice (see the crate docs): the horizontal cut's θ
        // and how the conforming group is searched.
        let (theta, search) = match variant {
            Variant::Fmdv => (0.0, whole(SelectObjective::SpecificFirst)),
            Variant::FmdvH => (cfg.theta, whole(SelectObjective::SpecificFirst)),
            Variant::Cmdv => (0.0, whole(SelectObjective::LeastCoverage)),
            Variant::FmdvV => (0.0, Search::VerticalCuts),
            Variant::FmdvVH => (cfg.theta, Search::VerticalCuts),
        };
        let Candidate { pattern, fpr, cov } = infer_pattern(self.index, cfg, train, theta, search)?;
        // Building the rule compiles the pattern; the exact training-time
        // non-conforming fraction θ_C(h) (§4) is then counted by the
        // automaton validation runs, not the reference matcher.
        let mut rule =
            ValidationRule::new(pattern, 0.0, train.len(), fpr, cov, cfg.test, config::ALPHA);
        let miss = rule.count_misses(train);
        rule.train_nonconforming = miss as f64 / train.len() as f64;
        Ok(rule)
    }

    /// Infer with the paper's best variant (FMDV-VH).
    pub fn infer_default<I>(&self, train: I) -> Result<ValidationRule, InferError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        self.infer(train, Variant::FmdvVH)
    }

    /// Infer an Auto-Tag pattern (the dual problem, §2.3).
    pub fn infer_tag<I>(&self, train: I, fnr_budget: f64) -> Result<TagRule, InferError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        infer_tag(self.index, &self.config, train, fnr_budget)
    }

    /// Infer a rule with automatic fallback: try the pattern engine
    /// (FMDV-VH), and when no syntactic domain exists — fixed-vocabulary
    /// columns like statuses or country names (§6) — fall back to a
    /// [`DictionaryRule`] with the same distributional test.
    pub fn infer_auto<I>(&self, train: I) -> Result<AnyRule, InferError>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let train: Vec<I::Item> = train.into_iter().collect();
        match self.infer_variant(&train, Variant::FmdvVH) {
            Ok(rule) => Ok(AnyRule::Pattern(rule)),
            Err(InferError::EmptyColumn) => Err(InferError::EmptyColumn),
            Err(first) => {
                // No syntactic domain: numeric columns with heterogeneous
                // formats (ints mixed with floats) get a range rule (§7);
                // fixed vocabularies get a dictionary (§6).
                if let Ok(rule) = NumericRule::infer_default(&train, &self.config) {
                    return Ok(AnyRule::Numeric(rule));
                }
                DictionaryRule::infer(&train, &self.config, 0.1)
                    .map(AnyRule::Dictionary)
                    .map_err(|_| first)
            }
        }
    }
}

#[cfg(test)]
mod nearest_rule_tests {
    use super::*;
    use av_stats::HomogeneityTest;

    fn pattern_rule(pattern: &str) -> AnyRule {
        AnyRule::Pattern(ValidationRule::new(
            av_pattern::parse(pattern).unwrap(),
            0.0,
            100,
            0.001,
            50,
            HomogeneityTest::FisherExact,
            0.01,
        ))
    }

    fn dict_rule(words: &[&str]) -> AnyRule {
        let train: Vec<String> = words
            .iter()
            .flat_map(|w| std::iter::repeat_n(w.to_string(), 10))
            .collect();
        AnyRule::Dictionary(DictionaryRule::infer(&train, &FmdvConfig::default(), 0.5).unwrap())
    }

    #[test]
    fn suggestion_picks_the_conforming_rule_nearest_in_program_space() {
        let timestamp = pattern_rule("<digit>{4}-<digit>{2}-<digit>{2}");
        let dashed = pattern_rule("<digit>{4}-<digit>{2}");
        let word = pattern_rule("<letter>+");
        let catalog = [
            ("dashed", &dashed),
            ("word", &word),
            ("timestamp", &timestamp),
        ];
        // A truncated date fails the timestamp rule but conforms to the
        // shorter dashed rule — the program-nearest conforming candidate.
        let (name, d) = nearest_conforming_rule("2019-07", &timestamp, catalog).unwrap();
        assert_eq!(name, "dashed");
        assert!(d < program_distance(&timestamp, &word));
        // A word only conforms to the word rule.
        let (name, _) = nearest_conforming_rule("Delivered", &timestamp, catalog).unwrap();
        assert_eq!(name, "word");
        // Nothing conforms → no suggestion.
        assert!(nearest_conforming_rule("???", &timestamp, catalog).is_none());
    }

    #[test]
    fn column_swap_suggests_the_other_column_rule() {
        let ts = pattern_rule("<digit>{4}-<digit>{2}-<digit>{2}T<digit>{2}:<digit>{2}Z");
        let status = dict_rule(&["Delivered", "Pending", "Rejected"]);
        let catalog = [("event_time", &ts), ("status", &status)];
        // Statuses landing in the timestamp feed point back at the status
        // rule — the explanation for a column swap.
        let (name, _) = nearest_conforming_rule("Pending", &ts, catalog).unwrap();
        assert_eq!(name, "status");
        // Distance involving a programless rule is the pattern's length.
        assert_eq!(
            program_distance(&ts, &status),
            ts.compiled_program().unwrap().num_instructions()
        );
        assert_eq!(program_distance(&status, &status), 0);
    }
}
