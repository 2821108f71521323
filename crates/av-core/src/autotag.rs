//! Auto-Tag: the dual of FMDV (§2.3, shipped as the Auto-Tag feature in
//! Azure Purview).
//!
//! Where FMDV looks for a *safe* (minimum-FPR) validation pattern, the dual
//! problem looks for the *most restrictive* (smallest-coverage) pattern that
//! still describes the underlying domain, under a target false-negative
//! budget — such a pattern can then "tag" related columns of the same type
//! across the lake.

use crate::config::{FmdvConfig, InferError};
use crate::fmdv::{infer_pattern, Search, SelectObjective, StreamingSelect};
use crate::rule::{count, RuleAutomaton};
use av_index::PatternIndex;
use av_pattern::Pattern;

/// An inferred tagging pattern.
#[derive(Debug, Clone)]
pub struct TagRule {
    /// The most restrictive pattern meeting the FNR budget. Private so it
    /// can never drift from the compiled program — read via
    /// [`TagRule::pattern`].
    pattern: Pattern,
    /// Number of corpus columns the pattern covers (the "tag reach").
    pub coverage: u64,
    /// Fraction of training values *not* matched (observed FNR proxy).
    pub train_fnr: f64,
    /// The pattern's compiled program and the automaton every check runs.
    automaton: RuleAutomaton,
}

impl TagRule {
    /// Build a tag rule, compiling the pattern once for all later checks.
    pub fn new(pattern: Pattern, coverage: u64, train_fnr: f64) -> TagRule {
        TagRule {
            automaton: RuleAutomaton::new([pattern.compile()]),
            pattern,
            coverage,
            train_fnr,
        }
    }

    /// The tagging pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Does a single value match the tag pattern?
    pub(crate) fn tags_value(&self, value: &str) -> bool {
        self.automaton.conforms(value)
    }

    /// Would this tag apply to a column (majority of values match)?
    pub fn tags<S: AsRef<str>>(&self, values: &[S]) -> bool {
        if values.is_empty() {
            return false;
        }
        let misses = self
            .automaton
            .with(|matcher| count(matcher, values))
            .nonconforming;
        (values.len() - misses) * 2 > values.len()
    }
}

/// Infer a tagging pattern: minimize `Cov_T(h)` subject to the pattern
/// matching at least `(1 - fnr_budget)` of the training values and having
/// non-trivial corpus support. Accepts any iterator of string-likes; values
/// are borrowed throughout.
///
/// The inference pipeline of the validation variants, with the FNR budget
/// as the horizontal cut's tolerance and a selector that admits every
/// indexed pattern — no FPR budget, one corpus column of coverage — and
/// keeps the one with the smallest reach.
pub fn infer_tag<I>(
    index: &PatternIndex,
    cfg: &FmdvConfig,
    train: I,
    fnr_budget: f64,
) -> Result<TagRule, InferError>
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let train: Vec<I::Item> = train.into_iter().collect();
    let select = StreamingSelect::new(SelectObjective::TagReach, f64::INFINITY, 1);
    let best = infer_pattern(index, cfg, &train, fnr_budget, Search::WholeColumn(select))?;
    let rule = TagRule::new(best.pattern, best.cov, 0.0);
    let miss = train
        .iter()
        .filter(|v| !rule.tags_value(v.as_ref()))
        .count();
    Ok(TagRule {
        train_fnr: miss as f64 / train.len() as f64,
        ..rule
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_corpus::{generate_lake, Column, LakeProfile};
    use av_index::{IndexConfig, PatternIndex};

    fn test_index() -> PatternIndex {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(800), 77);
        let cols: Vec<&Column> = corpus.columns().collect();
        PatternIndex::build(&cols, &IndexConfig::default())
    }

    #[test]
    fn tag_is_more_restrictive_than_validation_rule() {
        let index = test_index();
        let cfg = FmdvConfig::scaled_for_corpus(index.num_columns);
        let train: Vec<String> = (0..50)
            .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 7) % 60, (i * 13) % 60))
            .collect();
        let tag = infer_tag(&index, &cfg, &train, 0.0).expect("tag inference");
        let rule = crate::AutoValidate::new(&index, cfg)
            .infer(&train, crate::Variant::Fmdv)
            .expect("fmdv");
        assert!(
            tag.coverage <= rule.coverage,
            "tag cov {} should be ≤ validation cov {}",
            tag.coverage,
            rule.coverage
        );
        assert_eq!(tag.train_fnr, 0.0);
        assert!(tag.tags(&train));
    }

    #[test]
    fn tag_rejects_foreign_columns() {
        let index = test_index();
        let cfg = FmdvConfig::scaled_for_corpus(index.num_columns);
        let train: Vec<String> = (0..50)
            .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 7) % 60, (i * 13) % 60))
            .collect();
        let tag = infer_tag(&index, &cfg, &train, 0.0).unwrap();
        let foreign: Vec<String> = (0..50).map(|i| format!("user-{i}")).collect();
        assert!(!tag.tags(&foreign));
        assert!(!tag.tags(&Vec::<String>::new()));
    }

    #[test]
    fn empty_column_is_rejected() {
        let index = test_index();
        let cfg = FmdvConfig::default();
        assert!(matches!(
            infer_tag(&index, &cfg, Vec::<String>::new(), 0.1),
            Err(InferError::EmptyColumn)
        ));
    }
}
