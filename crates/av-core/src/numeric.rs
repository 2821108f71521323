//! Numeric-column validation — the paper's §7 future-work direction
//! ("extending the same validation principle also to numeric data").
//!
//! For columns whose values parse as numbers, syntactic patterns carry
//! little signal (`<num>` matches everything); what drifts is the
//! *distribution*. This rule records robust training statistics (quantiles
//! with a tolerance margin) and applies the same two-sample philosophy as
//! §4: alarm only when the out-of-range rate at test time increased
//! significantly over its training value.

use av_stats::HomogeneityTest;

use crate::api::{Explanation, Tally, ValidationSession, Validator, Verdict};
use crate::config::{FmdvConfig, InferError};
use crate::rule::{distributional_report, ValidationReport};

/// A numeric range rule with a distributional alarm.
#[derive(Debug, Clone)]
pub struct NumericRule {
    /// Lower bound (q1 − margin·IQR at training time).
    pub lo: f64,
    /// Upper bound (q3 + margin·IQR).
    pub hi: f64,
    /// Fraction of training values outside `[lo, hi]`.
    pub train_oor: f64,
    /// Training sample size.
    pub train_size: usize,
    /// Homogeneity test used at validation time.
    pub test: HomogeneityTest,
    /// Significance level.
    pub alpha: f64,
}

fn parse_numeric(v: &str) -> Option<f64> {
    let t = v.trim();
    if t.is_empty() {
        return None;
    }
    t.parse::<f64>().ok().filter(|x| x.is_finite())
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

impl NumericRule {
    /// Learn a range rule. Declines (`NoHypothesis`) unless at least
    /// `min_numeric_frac` of the training values parse as finite numbers.
    /// `margin` widens the interquartile range (Tukey-fence style; 3.0 by
    /// default via [`NumericRule::infer_default`]).
    pub fn infer<S: AsRef<str>>(
        train: &[S],
        cfg: &FmdvConfig,
        min_numeric_frac: f64,
        margin: f64,
    ) -> Result<NumericRule, InferError> {
        if train.is_empty() {
            return Err(InferError::EmptyColumn);
        }
        let mut nums: Vec<f64> = train
            .iter()
            .filter_map(|v| parse_numeric(v.as_ref()))
            .collect();
        if (nums.len() as f64) < min_numeric_frac * train.len() as f64 || nums.len() < 4 {
            return Err(InferError::NoHypothesis);
        }
        nums.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q1 = quantile(&nums, 0.25);
        let q3 = quantile(&nums, 0.75);
        let iqr = (q3 - q1).max(f64::EPSILON * q3.abs().max(1.0));
        let lo = q1 - margin * iqr;
        let hi = q3 + margin * iqr;
        let oor = train
            .iter()
            .filter(|v| match parse_numeric(v.as_ref()) {
                Some(x) => x < lo || x > hi,
                None => true, // non-numeric counts as out of range
            })
            .count();
        Ok(NumericRule {
            lo,
            hi,
            train_oor: oor as f64 / train.len() as f64,
            train_size: train.len(),
            test: cfg.test,
            alpha: crate::config::ALPHA,
        })
    }

    /// [`NumericRule::infer`] with the standard knobs (≥ 95% numeric,
    /// Tukey margin 3.0).
    pub fn infer_default<S: AsRef<str>>(
        train: &[S],
        cfg: &FmdvConfig,
    ) -> Result<NumericRule, InferError> {
        NumericRule::infer(train, cfg, 0.95, 3.0)
    }

    /// Is a single value numeric and inside the learned range?
    pub fn conforms(&self, value: &str) -> bool {
        matches!(parse_numeric(value), Some(x) if x >= self.lo && x <= self.hi)
    }

    /// Validate a future column: alarm when the out-of-range rate rose
    /// significantly versus training time. Streams any borrowed iterator
    /// without copying values.
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

impl Validator for NumericRule {
    fn describe(&self) -> String {
        format!("numeric range [{:.4}, {:.4}]", self.lo, self.hi)
    }

    fn check(&self, value: &str) -> Verdict {
        Verdict::conforming(self.conforms(value))
    }

    fn explain(&self, value: &str) -> Option<Explanation> {
        if self.conforms(value) {
            return None;
        }
        let expected = format!("a finite number in [{:.4}, {:.4}]", self.lo, self.hi);
        let reason = match parse_numeric(value) {
            None => format!("{value:?} does not parse as a finite number"),
            Some(x) if x < self.lo => {
                format!(
                    "{x} is below the learned range [{:.4}, {:.4}]",
                    self.lo, self.hi
                )
            }
            Some(x) => {
                format!(
                    "{x} is above the learned range [{:.4}, {:.4}]",
                    self.lo, self.hi
                )
            }
        };
        Some(Explanation {
            reason,
            failed_at: None,
            span: None,
            expected: Some(expected),
            matched_prefix: None,
        })
    }

    fn finish(&self, tally: Tally) -> ValidationReport {
        distributional_report(
            tally,
            self.train_oor,
            self.train_size,
            self.test,
            self.alpha,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[f64]) -> Vec<String> {
        vals.iter().map(|v| v.to_string()).collect()
    }

    fn uniform(n: usize, lo: f64, hi: f64) -> Vec<String> {
        (0..n)
            .map(|i| (lo + (hi - lo) * i as f64 / n as f64).to_string())
            .collect()
    }

    #[test]
    fn stable_distribution_passes() {
        let rule =
            NumericRule::infer_default(&uniform(200, 0.0, 100.0), &FmdvConfig::default()).unwrap();
        let report = rule.validate(uniform(200, 2.0, 98.0));
        assert!(!report.flagged);
    }

    #[test]
    fn range_blowup_is_flagged() {
        let rule =
            NumericRule::infer_default(&uniform(200, 0.0, 100.0), &FmdvConfig::default()).unwrap();
        // Values 100× out of range — a unit change (cents vs dollars).
        let report = rule.validate(uniform(200, 5000.0, 10000.0));
        assert!(report.flagged);
        assert!(report.nonconforming > 150);
    }

    #[test]
    fn non_numeric_column_declines() {
        let words: Vec<String> = (0..50).map(|i| format!("w{i}")).collect();
        assert!(matches!(
            NumericRule::infer_default(&words, &FmdvConfig::default()),
            Err(InferError::NoHypothesis)
        ));
    }

    #[test]
    fn occasional_outlier_is_tolerated() {
        let mut train = uniform(500, 0.0, 100.0);
        train.push("100000".into()); // one training outlier → θ_train > 0
        let rule = NumericRule::infer_default(&train, &FmdvConfig::default()).unwrap();
        let mut future = uniform(500, 0.0, 100.0);
        future.push("90000".into());
        assert!(!rule.validate(&future).flagged);
    }

    #[test]
    fn nulls_count_as_out_of_range() {
        let rule =
            NumericRule::infer_default(&uniform(100, 0.0, 10.0), &FmdvConfig::default()).unwrap();
        let mut future = uniform(60, 0.0, 10.0);
        future.extend((0..40).map(|_| "NULL".to_string()));
        assert!(rule.validate(&future).flagged);
    }

    #[test]
    fn explain_names_the_violated_bound() {
        let rule =
            NumericRule::infer_default(&uniform(100, 0.0, 100.0), &FmdvConfig::default()).unwrap();
        assert!(Validator::explain(&rule, "50").is_none());
        let e = Validator::explain(&rule, "1e9").unwrap();
        assert!(e.reason.contains("above"), "{}", e.reason);
        let e = Validator::explain(&rule, "-1e9").unwrap();
        assert!(e.reason.contains("below"), "{}", e.reason);
        let e = Validator::explain(&rule, "NULL").unwrap();
        assert!(e.reason.contains("parse"), "{}", e.reason);
        assert!(e.expected.unwrap().contains("finite number"));
    }

    #[test]
    fn negative_and_float_values() {
        let rule = NumericRule::infer_default(
            &col(&[-5.5, -2.0, -1.0, 0.0, 1.5, 2.5, 4.0, 5.0]),
            &FmdvConfig::default(),
        )
        .unwrap();
        assert!(rule.conforms("-3.3"));
        assert!(rule.conforms("4.9"));
        assert!(!rule.conforms("99999"));
        assert!(!rule.conforms("abc"));
    }
}
