//! The unified zero-copy validation API.
//!
//! Every rule this workspace can infer — the four FMDV variants (which all
//! produce a [`ValidationRule`]), the numeric and dictionary fallbacks, and
//! each baseline in `av-baselines` — validates through one trait:
//!
//! * [`Validator::check`] judges a single borrowed `&str`;
//! * [`Validator::tally`] counts a column's verdicts in one call, so a
//!   rule whose check needs a lock takes it once per column;
//! * [`Validator::validate_batch`] consumes any `&str` iterator and returns
//!   a [`Report`], allocating nothing per value;
//! * [`ValidationSession`] is the streaming form: feed values one at a time
//!   in O(1) memory, then [`ValidationSession::finish`] produces a report
//!   **bit-identical** to batch validation of the same values.
//!
//! The bit-identity is by construction, not by convention: a
//! [`Validator::tally`] must count exactly the verdicts
//! [`Validator::check`] gives, and [`Validator::finish`] is required to be
//! a pure function of the final [`Tally`] plus the validator's frozen
//! training state.
//!
//! [`AutoValidateBuilder`] is the fluent entry point: it sets the index's
//! token limit τ and FMDV's r and θ, and scales the coverage floor `m` to
//! the corpus the engine runs over.

use crate::config::FmdvConfig;
use crate::AutoValidate;
use av_index::{IndexConfig, PatternIndex};

/// The column-level outcome of validation — one struct for every validator.
///
/// (An alias of [`crate::ValidationReport`]; the name `Report` is the one
/// the trait-level API uses.)
pub type Report = crate::rule::ValidationReport;

/// Outcome of checking one value against a validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The value conforms to the learned rule.
    Conform,
    /// The value does not conform.
    Nonconform,
}

impl Verdict {
    /// `true` → [`Verdict::Conform`], `false` → [`Verdict::Nonconform`].
    #[inline]
    pub fn conforming(ok: bool) -> Verdict {
        if ok {
            Verdict::Conform
        } else {
            Verdict::Nonconform
        }
    }

    /// Is this the conforming verdict?
    #[inline]
    pub fn is_conform(self) -> bool {
        matches!(self, Verdict::Conform)
    }
}

/// Streaming counters: everything a validator may use to conclude a column.
///
/// Deliberately tiny — a session carries no values, only these two counts,
/// which is what makes streaming O(1) and bit-identical to batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Values checked so far.
    pub checked: usize,
    /// Values that did not conform.
    pub nonconforming: usize,
}

impl Tally {
    /// Record one verdict.
    #[inline]
    pub fn record(&mut self, verdict: Verdict) {
        self.checked += 1;
        if !verdict.is_conform() {
            self.nonconforming += 1;
        }
    }

    /// Non-conforming fraction (0.0 on an empty tally).
    #[inline]
    pub fn fraction(&self) -> f64 {
        if self.checked == 0 {
            0.0
        } else {
            self.nonconforming as f64 / self.checked as f64
        }
    }
}

/// Why a single value failed a rule — the detail behind a
/// [`Verdict::Nonconform`].
///
/// Produced by [`Validator::explain`]. Pattern rules fill the positional
/// fields from their automaton's [`av_match::MatchTrace`]; other
/// rule kinds fill what makes sense for them (a dictionary rule points at
/// the nearest vocabulary entry, a numeric rule at the violated bound).
/// All byte offsets lie on `char` boundaries of the explained value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explanation {
    /// One-line human-readable reason for the failure.
    pub reason: String,
    /// Byte offset where the value stopped conforming: everything before
    /// it matched the rule (or its nearest reference string).
    pub failed_at: Option<usize>,
    /// Failing byte span `[start, end)` — the first offending character
    /// (empty, `start == end`, when the value ended too early).
    pub span: Option<(usize, usize)>,
    /// What the rule expected at the failure point.
    pub expected: Option<String>,
    /// The prefix of the value that did conform.
    pub matched_prefix: Option<String>,
}

impl Explanation {
    /// An explanation carrying only a reason (no positional detail).
    pub fn new(reason: impl Into<String>) -> Explanation {
        Explanation {
            reason: reason.into(),
            failed_at: None,
            span: None,
            expected: None,
            matched_prefix: None,
        }
    }
}

/// A learned validation rule, usable one value at a time or over batches.
///
/// Object-safe core: [`Validator::describe`], [`Validator::check`],
/// [`Validator::tally`], [`Validator::explain`] and [`Validator::finish`]
/// make up the vtable, so heterogeneous rules
/// dispatch behind `Box<dyn Validator>` / `Arc<dyn Validator>` (the trait
/// requires `Send + Sync`, so boxed validators cross threads freely). The
/// provided [`Validator::validate_batch`] and [`Validator::session`] build
/// on that core and never allocate per value.
pub trait Validator: Send + Sync {
    /// Human-readable description of the learned rule.
    fn describe(&self) -> String;

    /// Check a single borrowed value.
    fn check(&self, value: &str) -> Verdict;

    /// Check every value of a column and count the verdicts.
    ///
    /// The default calls [`Validator::check`] per value. A validator whose
    /// check takes a lock overrides it to take the lock once per column;
    /// an override must count exactly the verdicts `check` gives.
    fn tally(&self, values: &mut dyn Iterator<Item = &str>) -> Tally {
        let mut tally = Tally::default();
        for value in values {
            tally.record(self.check(value));
        }
        tally
    }

    /// Explain why `value` does not conform.
    ///
    /// Returns `None` when the value conforms — and also, in the default
    /// implementation, when the validator offers no diagnostic detail.
    /// Implementations must never return `Some` for a conforming value;
    /// this is the cold path, run only after a failed [`Validator::check`],
    /// so it may allocate freely.
    fn explain(&self, value: &str) -> Option<Explanation> {
        let _ = value;
        None
    }

    /// Conclude a column from its streamed [`Tally`].
    ///
    /// Must be a pure function of `tally` and the validator's frozen
    /// training-time state — this is what guarantees that a
    /// [`ValidationSession`] fed value-by-value finishes with a report
    /// bit-identical to [`Validator::validate_batch`] over the same values.
    fn finish(&self, tally: Tally) -> Report;

    /// Validate a batch of borrowed values: one [`Validator::tally`], then
    /// [`Validator::finish`], so batch and streaming cannot diverge.
    fn validate_batch<'a, I>(&self, values: I) -> Report
    where
        Self: Sized,
        I: IntoIterator<Item = &'a str>,
    {
        self.finish(self.tally(&mut values.into_iter()))
    }

    /// Start a streaming validation session borrowing this validator.
    fn session(&self) -> ValidationSession<'_, Self>
    where
        Self: Sized,
    {
        ValidationSession::new(self)
    }
}

impl<V: Validator + ?Sized> Validator for &V {
    fn describe(&self) -> String {
        (**self).describe()
    }
    fn check(&self, value: &str) -> Verdict {
        (**self).check(value)
    }
    fn tally(&self, values: &mut dyn Iterator<Item = &str>) -> Tally {
        (**self).tally(values)
    }
    fn explain(&self, value: &str) -> Option<Explanation> {
        (**self).explain(value)
    }
    fn finish(&self, tally: Tally) -> Report {
        (**self).finish(tally)
    }
}

impl<V: Validator + ?Sized> Validator for Box<V> {
    fn describe(&self) -> String {
        (**self).describe()
    }
    fn check(&self, value: &str) -> Verdict {
        (**self).check(value)
    }
    fn tally(&self, values: &mut dyn Iterator<Item = &str>) -> Tally {
        (**self).tally(values)
    }
    fn explain(&self, value: &str) -> Option<Explanation> {
        (**self).explain(value)
    }
    fn finish(&self, tally: Tally) -> Report {
        (**self).finish(tally)
    }
}

impl<V: Validator + ?Sized> Validator for std::sync::Arc<V> {
    fn describe(&self) -> String {
        (**self).describe()
    }
    fn check(&self, value: &str) -> Verdict {
        (**self).check(value)
    }
    fn tally(&self, values: &mut dyn Iterator<Item = &str>) -> Tally {
        (**self).tally(values)
    }
    fn explain(&self, value: &str) -> Option<Explanation> {
        (**self).explain(value)
    }
    fn finish(&self, tally: Tally) -> Report {
        (**self).finish(tally)
    }
}

/// A streaming validation pass: values go in one at a time, O(1) memory,
/// and [`ValidationSession::finish`] yields a [`Report`] bit-identical to
/// batch validation of the same values in the same order.
///
/// ```
/// use av_core::{ValidationSession, Validator, Verdict, Tally, Report};
///
/// struct DigitsOnly;
/// impl Validator for DigitsOnly {
///     fn describe(&self) -> String { "digits".into() }
///     fn check(&self, value: &str) -> Verdict {
///         Verdict::conforming(!value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()))
///     }
///     fn finish(&self, tally: Tally) -> Report {
///         let flagged = tally.nonconforming > 0;
///         Report {
///             checked: tally.checked,
///             nonconforming: tally.nonconforming,
///             nonconforming_frac: tally.fraction(),
///             p_value: if flagged { 0.0 } else { 1.0 },
///             flagged,
///         }
///     }
/// }
///
/// let v = DigitsOnly;
/// let mut session = v.session();
/// for value in ["12", "34", "x"] {
///     session.push(value);
/// }
/// let streamed = session.finish();
/// assert_eq!(streamed, v.validate_batch(["12", "34", "x"]));
/// assert!(streamed.flagged);
/// ```
#[derive(Debug)]
pub struct ValidationSession<'v, V = dyn Validator + 'v>
where
    V: Validator + ?Sized,
{
    validator: &'v V,
    tally: Tally,
}

impl<'v, V: Validator + ?Sized> ValidationSession<'v, V> {
    /// Begin a session over `validator` (works for unsized `dyn Validator`).
    pub fn new(validator: &'v V) -> ValidationSession<'v, V> {
        ValidationSession {
            validator,
            tally: Tally::default(),
        }
    }

    /// Feed one value; returns its verdict.
    pub fn push(&mut self, value: &str) -> Verdict {
        let verdict = self.validator.check(value);
        self.tally.record(verdict);
        verdict
    }

    /// Feed many values in one [`Validator::tally`].
    pub fn extend<'a, I: IntoIterator<Item = &'a str>>(&mut self, values: I) {
        let tally = self.validator.tally(&mut values.into_iter());
        self.tally.checked += tally.checked;
        self.tally.nonconforming += tally.nonconforming;
    }

    /// Counters so far.
    pub fn tally(&self) -> Tally {
        self.tally
    }

    /// Conclude the column.
    pub fn finish(self) -> Report {
        self.validator.finish(self.tally)
    }
}

/// Fluent configuration for the whole Auto-Validate stack: one builder
/// covering the offline index's token limit τ and the FMDV knobs r and θ.
/// The coverage floor `m` is scaled to the index's corpus size
/// ([`FmdvConfig::scaled_for_corpus`]) when the engine is made.
///
/// ```no_run
/// use av_core::{AutoValidateBuilder, Validator, Variant};
///
/// # fn demo(columns: &[&av_corpus::Column]) -> Result<(), av_core::InferError> {
/// let builder = AutoValidateBuilder::new().fpr_target(0.1).theta(0.05).tau(13);
/// let index = builder.build_index(columns);
/// let engine = builder.engine(&index);
/// let rule = engine.infer(["Mar 01 2019", "Mar 02 2019"], Variant::FmdvVH)?;
/// assert!(!rule.validate_batch(["Apr 01 2019"]).flagged);
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AutoValidateBuilder {
    fmdv: FmdvConfig,
    index: IndexConfig,
}

impl AutoValidateBuilder {
    /// A builder with the paper's defaults and corpus-scaled coverage.
    pub fn new() -> AutoValidateBuilder {
        AutoValidateBuilder::default()
    }

    /// Target FPR threshold `r` (Eq. 6).
    pub fn fpr_target(mut self, r: f64) -> Self {
        self.fmdv.r = r;
        self
    }

    /// Non-conforming tolerance θ (Eq. 16) for the horizontal variants.
    pub fn theta(mut self, theta: f64) -> Self {
        self.fmdv.theta = theta;
        self
    }

    /// Token limit τ (§2.4) of offline indexing: `IndexConfig::tau`, the
    /// per-value limit the analyzer profiles the corpus under. Inference
    /// reads it back from the index — it is also the widest segment a
    /// vertical cut may keep whole.
    pub fn tau(mut self, tau: usize) -> Self {
        self.index.tau = tau;
        self
    }

    /// Run the offline scan (§2.4) over corpus columns.
    pub fn build_index(&self, columns: &[&av_corpus::Column]) -> PatternIndex {
        PatternIndex::build(columns, &self.index)
    }

    /// An inference engine over a built (or loaded) index, with the
    /// coverage floor scaled to the index's corpus size.
    pub fn engine<'a>(&self, index: &'a PatternIndex) -> AutoValidate<'a> {
        let config = FmdvConfig {
            m: FmdvConfig::scaled_for_corpus(index.num_columns).m,
            ..self.fmdv.clone()
        };
        AutoValidate::new(index, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::ValidationRule;
    use av_pattern::parse;
    use av_stats::HomogeneityTest;

    fn rule() -> ValidationRule {
        ValidationRule::new(
            parse("<digit>{2}:<digit>{2}").unwrap(),
            0.0,
            100,
            0.001,
            40,
            HomogeneityTest::FisherExact,
            0.01,
        )
    }

    #[test]
    fn verdict_and_tally_bookkeeping() {
        let mut tally = Tally::default();
        tally.record(Verdict::Conform);
        tally.record(Verdict::Nonconform);
        tally.record(Verdict::conforming(true));
        assert_eq!(tally.checked, 3);
        assert_eq!(tally.nonconforming, 1);
        assert!((tally.fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(Tally::default().fraction(), 0.0);
    }

    #[test]
    fn session_matches_batch_exactly() {
        let r = rule();
        let values = ["09:30", "10:45", "bad", "23:59"];
        let mut session = r.session();
        for v in values {
            session.push(v);
        }
        let streamed = session.finish();
        let batch = r.validate_batch(values);
        assert_eq!(streamed, batch);
        assert_eq!(
            streamed.p_value.to_bits(),
            batch.p_value.to_bits(),
            "finish must be bitwise deterministic"
        );
    }

    #[test]
    fn dyn_dispatch_works_through_boxes_and_arcs() {
        let boxed: Box<dyn Validator> = Box::new(rule());
        assert!(boxed.check("12:34").is_conform());
        assert!(!boxed.check("x").is_conform());
        // Box<dyn Validator> is itself a Validator, so batch works on it.
        let report = boxed.validate_batch(["12:34", "09:00"]);
        assert!(!report.flagged);
        // And a bare &dyn can stream through an explicit session.
        let mut session = ValidationSession::new(&*boxed);
        session.extend(["12:34", "nope"]);
        assert_eq!(session.tally().nonconforming, 1);
        let arc: std::sync::Arc<dyn Validator> = std::sync::Arc::new(rule());
        assert_eq!(arc.describe(), rule().describe());
    }

    #[test]
    fn builder_knobs_propagate() {
        let b = AutoValidateBuilder::new()
            .fpr_target(0.05)
            .theta(0.2)
            .tau(9);
        assert_eq!(b.fmdv.r, 0.05);
        assert_eq!(b.fmdv.theta, 0.2);
        assert_eq!(b.index.tau, 9);
    }

    #[test]
    fn builder_scales_coverage_to_corpus() {
        let b = AutoValidateBuilder::new();
        let index = PatternIndex::build(&[], &IndexConfig::default());
        // Empty corpus → the scaled floor of 3, not the paper's 100.
        assert_eq!(b.engine(&index).config.m, 3);
    }
}
