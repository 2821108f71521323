//! Dictionary rules with a distributional test — the fallback for columns
//! whose domain is a fixed vocabulary rather than a syntactic pattern.
//!
//! The paper's §6 notes that "for natural-language data drawn from a fixed
//! vocabulary (e.g., countries or airport-codes), dictionary-based
//! validation learned from examples is applicable". Unlike TFDV's brittle
//! exact-dictionary rule, this one reuses the §4 machinery: it tracks the
//! training-time out-of-vocabulary rate and raises an alarm only when the
//! rate shifts significantly under a two-sample homogeneity test.

use av_stats::HomogeneityTest;
use std::collections::BTreeSet;

use crate::api::{Explanation, Tally, ValidationSession, Validator, Verdict};
use crate::config::{FmdvConfig, InferError};
use crate::rule::{distributional_report, ValidationReport};

/// A learned vocabulary rule.
#[derive(Debug, Clone)]
pub struct DictionaryRule {
    /// The vocabulary observed at training time.
    pub dictionary: BTreeSet<String>,
    /// Training-time out-of-vocabulary rate (0.0 when trained on all data).
    pub train_oov: f64,
    /// Number of training values observed.
    pub train_size: usize,
    /// Homogeneity test applied at validation time.
    pub test: HomogeneityTest,
    /// Significance level for raising an alarm.
    pub alpha: f64,
}

impl DictionaryRule {
    /// Learn a dictionary from training values. Declines (`NoHypothesis`)
    /// unless the column is genuinely categorical: the vocabulary must be
    /// small relative to the data (`distinct/total ≤ max_distinct_ratio`),
    /// otherwise unseen-but-valid values would flood validation with false
    /// positives — the §1 TFDV failure mode.
    pub fn infer<S: AsRef<str>>(
        train: &[S],
        cfg: &FmdvConfig,
        max_distinct_ratio: f64,
    ) -> Result<DictionaryRule, InferError> {
        if train.is_empty() {
            return Err(InferError::EmptyColumn);
        }
        let dictionary: BTreeSet<String> = train.iter().map(|v| v.as_ref().to_string()).collect();
        let ratio = dictionary.len() as f64 / train.len() as f64;
        if ratio > max_distinct_ratio {
            return Err(InferError::NoHypothesis);
        }
        Ok(DictionaryRule {
            dictionary,
            train_oov: 0.0,
            train_size: train.len(),
            test: cfg.test,
            alpha: crate::config::ALPHA,
        })
    }

    /// Is a single value in-vocabulary?
    pub fn conforms(&self, value: &str) -> bool {
        self.dictionary.contains(value)
    }

    /// The vocabulary entry sharing the longest prefix with `value` (its
    /// lexicographic neighbors are the only candidates, so this is two
    /// `BTreeSet` range probes, not a scan).
    pub(crate) fn nearest_entry(&self, value: &str) -> Option<&str> {
        use std::ops::Bound;
        let below = self
            .dictionary
            .range::<str, _>((Bound::Unbounded, Bound::Included(value)))
            .next_back()
            .map(String::as_str);
        let above = self
            .dictionary
            .range::<str, _>((Bound::Excluded(value), Bound::Unbounded))
            .next()
            .map(String::as_str);
        let common = |e: &str| {
            e.as_bytes()
                .iter()
                .zip(value.as_bytes())
                .take_while(|(a, b)| a == b)
                .count()
        };
        match (below, above) {
            (Some(b), Some(a)) => Some(if common(a) > common(b) { a } else { b }),
            (e, None) | (None, e) => e,
        }
    }

    /// Validate a future column: flag when the out-of-vocabulary rate
    /// increased significantly versus training time. Streams any borrowed
    /// iterator without copying values.
    pub fn validate<I>(&self, values: I) -> ValidationReport
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut session = ValidationSession::new(self);
        for v in values {
            session.push(v.as_ref());
        }
        session.finish()
    }
}

impl Validator for DictionaryRule {
    fn describe(&self) -> String {
        format!("dictionary of {} values", self.dictionary.len())
    }

    fn check(&self, value: &str) -> Verdict {
        Verdict::conforming(self.conforms(value))
    }

    fn explain(&self, value: &str) -> Option<Explanation> {
        if self.conforms(value) {
            return None;
        }
        let Some(nearest) = self.nearest_entry(value) else {
            return Some(Explanation::new("vocabulary is empty"));
        };
        // Where the value departs from its nearest entry, rounded down to a
        // char boundary of the value.
        let mut at = nearest
            .as_bytes()
            .iter()
            .zip(value.as_bytes())
            .take_while(|(a, b)| a == b)
            .count();
        while !value.is_char_boundary(at) {
            at -= 1;
        }
        let end = value[at..].chars().next().map_or(at, |c| at + c.len_utf8());
        Some(Explanation {
            reason: format!(
                "not in the {}-value vocabulary; nearest entry is {nearest:?}",
                self.dictionary.len()
            ),
            failed_at: Some(at),
            span: Some((at, end)),
            expected: Some(format!("a vocabulary entry such as {nearest:?}")),
            matched_prefix: Some(value[..at].to_string()),
        })
    }

    fn finish(&self, tally: Tally) -> ValidationReport {
        distributional_report(
            tally,
            self.train_oov,
            self.train_size,
            self.test,
            self.alpha,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn categorical_train() -> Vec<String> {
        (0..100)
            .map(|i| ["Delivered", "Pending", "Rejected"][i % 3].to_string())
            .collect()
    }

    #[test]
    fn categorical_column_gets_a_dictionary() {
        let rule =
            DictionaryRule::infer(&categorical_train(), &FmdvConfig::default(), 0.1).unwrap();
        assert_eq!(rule.dictionary.len(), 3);
        assert!(rule.conforms("Pending"));
        assert!(!rule.conforms("pending"));
    }

    #[test]
    fn high_cardinality_column_declines() {
        let unique: Vec<String> = (0..100).map(|i| format!("id-{i}")).collect();
        assert!(matches!(
            DictionaryRule::infer(&unique, &FmdvConfig::default(), 0.1),
            Err(InferError::NoHypothesis)
        ));
    }

    #[test]
    fn occasional_new_category_is_tolerated() {
        // A handful of new values is not a significant distribution shift.
        let rule =
            DictionaryRule::infer(&categorical_train(), &FmdvConfig::default(), 0.1).unwrap();
        let mut future = categorical_train();
        future[0] = "Archived".to_string();
        let report = rule.validate(&future);
        assert!(!report.flagged, "p = {}", report.p_value);
    }

    #[test]
    fn vocabulary_swap_is_flagged() {
        let rule =
            DictionaryRule::infer(&categorical_train(), &FmdvConfig::default(), 0.1).unwrap();
        let swapped: Vec<String> = (0..100)
            .map(|i| format!("2019-03-{:02}", i % 28 + 1))
            .collect();
        let report = rule.validate(&swapped);
        assert!(report.flagged);
        assert_eq!(report.nonconforming, 100);
    }

    #[test]
    fn explain_points_at_the_nearest_entry() {
        let rule =
            DictionaryRule::infer(&categorical_train(), &FmdvConfig::default(), 0.1).unwrap();
        assert!(Validator::explain(&rule, "Pending").is_none());
        let e = Validator::explain(&rule, "Pending2").unwrap();
        assert!(e.reason.contains("\"Pending\""), "{}", e.reason);
        assert_eq!(e.failed_at, Some(7));
        assert_eq!(e.matched_prefix.as_deref(), Some("Pending"));
        let e = Validator::explain(&rule, "NULL").unwrap();
        assert_eq!(e.failed_at, Some(0));
    }

    #[test]
    fn empty_inputs() {
        assert!(matches!(
            DictionaryRule::infer(&Vec::<String>::new(), &FmdvConfig::default(), 0.1),
            Err(InferError::EmptyColumn)
        ));
        let rule =
            DictionaryRule::infer(&categorical_train(), &FmdvConfig::default(), 0.1).unwrap();
        assert!(!rule.validate(Vec::<String>::new()).flagged);
    }
}
