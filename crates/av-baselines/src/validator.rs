//! The common interface all compared methods implement (§5.2).
//!
//! Following the paper's methodology (§5.1): each method observes
//! `C_train`, optionally infers a rule, and the rule is then asked to
//! *pass or fail* future columns — `C_test` from the same column (failing
//! it is a false positive) and other columns `C_j, j ≠ i` (passing them is
//! a recall loss).
//!
//! Inferred rules are plain [`av_core::Validator`]s: single-value `check`,
//! zero-copy `validate_batch`, and streaming sessions all work on baseline
//! rules exactly as they do on FMDV rules, so the evaluation harness and
//! the validation service dispatch every method through one `dyn Validator`.

use av_core::{Report, Tally, ValidationSession, Validator, Verdict};

/// A rule inferred from training data, applied to future columns.
///
/// Internally a boxed [`Validator`] — either a wrapped per-value predicate
/// (the classic baseline shape) or any richer rule such as an FMDV
/// [`av_core::ValidationRule`] handed in via
/// [`InferredRule::from_validator`].
pub struct InferredRule {
    /// Human-readable description (pattern, dictionary size, ...).
    pub description: String,
    inner: Box<dyn Validator>,
}

impl InferredRule {
    /// Wrap a per-value predicate; the column fails when *any* value
    /// non-conforms (the strict profile-and-match semantics most baselines
    /// use).
    pub fn all_match(
        description: impl Into<String>,
        check: impl Fn(&str) -> bool + Send + Sync + 'static,
    ) -> InferredRule {
        InferredRule::tolerant(description, 0.0, check)
    }

    /// Wrap a per-value predicate with a tolerance: the column fails when
    /// the non-conforming fraction exceeds `max_nonconforming` (e.g.
    /// Deequ's fractional dictionary rule).
    pub fn tolerant(
        description: impl Into<String>,
        max_nonconforming: f64,
        check: impl Fn(&str) -> bool + Send + Sync + 'static,
    ) -> InferredRule {
        let description = description.into();
        InferredRule {
            inner: Box::new(Predicate {
                description: description.clone(),
                max_nonconforming,
                check: Box::new(check),
            }),
            description,
        }
    }

    /// Adopt any validator (e.g. an FMDV rule) as an inferred rule, with
    /// its own description.
    pub fn from_validator<V: Validator + 'static>(validator: V) -> InferredRule {
        InferredRule {
            description: validator.describe(),
            inner: Box::new(validator),
        }
    }

    /// Does the future column pass validation (no alarm)? Streams any
    /// borrowed iterator — nothing is copied per value.
    pub fn passes<I>(&self, column: I) -> bool
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut session = ValidationSession::new(&*self.inner);
        for v in column {
            session.push(v.as_ref());
        }
        !session.finish().flagged
    }

    /// Borrow the underlying validator for dynamic dispatch.
    pub fn validator(&self) -> &dyn Validator {
        &*self.inner
    }
}

impl Validator for InferredRule {
    fn describe(&self) -> String {
        self.description.clone()
    }

    fn check(&self, value: &str) -> Verdict {
        self.inner.check(value)
    }

    fn tally(&self, values: &mut dyn Iterator<Item = &str>) -> Tally {
        self.inner.tally(values)
    }

    fn finish(&self, tally: Tally) -> Report {
        self.inner.finish(tally)
    }
}

impl std::fmt::Debug for InferredRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "InferredRule({})", self.description)
    }
}

/// A per-value predicate with a column-level tolerance threshold. The
/// deterministic stand-in for the §4 statistical test: the "p-value" is 0
/// when flagged and 1 otherwise (baselines have no distributional model).
struct Predicate {
    description: String,
    max_nonconforming: f64,
    check: Box<dyn Fn(&str) -> bool + Send + Sync>,
}

impl Validator for Predicate {
    fn describe(&self) -> String {
        self.description.clone()
    }

    fn check(&self, value: &str) -> Verdict {
        Verdict::conforming((self.check)(value))
    }

    fn finish(&self, tally: Tally) -> Report {
        let frac = tally.fraction();
        // The epsilon keeps boundary columns (exactly at the tolerance) on
        // the passing side, matching `hits/len >= min_fraction` semantics.
        let flagged = tally.checked > 0 && frac > self.max_nonconforming + 1e-12;
        Report {
            checked: tally.checked,
            nonconforming: tally.nonconforming,
            nonconforming_frac: frac,
            p_value: if flagged { 0.0 } else { 1.0 },
            flagged,
        }
    }
}

/// A validation method under comparison.
pub trait ColumnValidator: Send + Sync {
    /// Display name matching the paper's figures (e.g. "PWheel", "TFDV").
    fn name(&self) -> &str;
    /// Learn a rule from (borrowed) training values; `None` when the method
    /// declines to produce a rule for this column (treated as
    /// pass-everything: perfect precision, zero recall).
    fn infer(&self, train: &[&str]) -> Option<InferredRule>;
}

/// The single source of truth for the corpus-free baseline registry:
/// canonical name → constructor, read by [`baseline_by_name`].
/// The schema-matching and programmer-study methods need extra context
/// (a corpus / a seed) and are not constructible by name.
type BaselineFactory = fn() -> Box<dyn ColumnValidator>;
static BASELINES: &[(&str, BaselineFactory)] = &[
    ("tfdv", || Box::new(crate::Tfdv)),
    ("deequ-cat", || Box::new(crate::DeequCat::default())),
    ("deequ-fra", || Box::new(crate::DeequFra::default())),
    ("pwheel", || Box::new(crate::PottersWheel)),
    ("ssis", || Box::new(crate::Ssis)),
    ("xsystem", || Box::new(crate::XSystem::default())),
    ("flashprofile", || Box::new(crate::FlashProfile::default())),
    ("grok", || Box::new(crate::Grok::default())),
];

/// Look up a corpus-free baseline by its paper name (case-insensitive, with
/// a few aliases), for serving baselines behind `dyn Validator` (e.g. over
/// the service protocol).
pub fn baseline_by_name(name: &str) -> Option<Box<dyn ColumnValidator>> {
    let lower = name.to_ascii_lowercase();
    let canonical = match lower.as_str() {
        "potters-wheel" => "pwheel",
        other => other,
    };
    BASELINES
        .iter()
        .find(|(n, _)| *n == canonical)
        .map(|(_, make)| make())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_wraps_predicate() {
        let rule = InferredRule::all_match("len<=3", |v: &str| v.len() <= 3);
        assert!(rule.passes(["ab", "abc"]));
        assert!(!rule.passes(["abcd"]));
        assert_eq!(rule.description, "len<=3");
        assert!(rule.passes(Vec::<&str>::new()), "empty columns pass");
    }

    #[test]
    fn tolerant_rule_uses_fraction_threshold() {
        let rule = InferredRule::tolerant("mostly-digits", 0.25, |v: &str| {
            v.bytes().all(|b| b.is_ascii_digit())
        });
        assert!(rule.passes(["1", "2", "3", "x"]), "25% failures tolerated");
        assert!(!rule.passes(["1", "x", "y"]));
    }

    #[test]
    fn rules_are_validators() {
        let rule = InferredRule::all_match("digits", |v: &str| {
            !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit())
        });
        assert!(rule.check("42").is_conform());
        assert!(!rule.check("4x").is_conform());
        let report = rule.validate_batch(["1", "2", "oops"]);
        assert!(report.flagged);
        assert_eq!(report.nonconforming, 1);
        // Streaming and batch agree bit-for-bit.
        let mut session = rule.session();
        session.extend(["1", "2", "oops"]);
        assert_eq!(session.finish(), report);
        // And the rule dispatches as a dyn Validator.
        let dynamic: &dyn Validator = rule.validator();
        assert!(dynamic.check("7").is_conform());
    }

    #[test]
    fn baseline_registry_resolves_paper_names() {
        let mut count = 0;
        for (name, _) in BASELINES {
            let v = baseline_by_name(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(!v.name().is_empty());
            count += 1;
        }
        assert!(count >= 8);
        assert!(baseline_by_name("TFDV").is_some(), "case-insensitive");
        assert!(baseline_by_name("Potters-Wheel").is_some(), "alias");
        assert!(baseline_by_name("sm-i-1").is_none(), "needs a corpus");
    }
}
