//! Validation rules and the test-time distributional check (§4).

use crate::api::{Explanation, Tally, Validator, Verdict};
use av_match::{CatalogMatcher, MatcherConfig};
use av_pattern::{CompiledPattern, Pattern};
use av_stats::{HomogeneityTest, Table2x2};
use std::sync::OnceLock;

/// The §4 two-sample conclusion shared by every distributional rule kind
/// (pattern, dictionary, numeric): compare the streamed non-conforming
/// tally against the training-time rate and flag only a significant
/// *increase*. Pure in `tally` + the frozen training stats, so streaming
/// and batch validation conclude bit-identically.
pub(crate) fn distributional_report(
    tally: Tally,
    train_frac: f64,
    train_size: usize,
    test: HomogeneityTest,
    alpha: f64,
) -> ValidationReport {
    let Tally {
        checked,
        nonconforming,
    } = tally;
    let frac = tally.fraction();
    // Conforming counts as "success" in the 2×2 table.
    let train_conform = ((1.0 - train_frac) * train_size as f64).round() as u64;
    let table = Table2x2::from_counts(
        train_conform.min(train_size as u64),
        train_size as u64,
        (checked - nonconforming) as u64,
        checked as u64,
    );
    let p_value = test.p_value(&table);
    let flagged = checked > 0 && frac > train_frac && p_value < alpha;
    ValidationReport {
        checked,
        nonconforming,
        nonconforming_frac: frac,
        p_value,
        flagged,
    }
}

/// An inferred data-validation rule: a pattern plus the training-time
/// non-conforming rate and the statistical test configuration.
///
/// Construct with [`ValidationRule::new`], which lowers the pattern into a
/// [`CompiledPattern`] once. Checks ([`ValidationRule::conforms`],
/// [`Validator::check`], [`Validator::tally`] and so every validation)
/// run the rule's own [`RuleAutomaton`]: `av-match`'s lazy DFA over this
/// one program, one table load per byte of the value whatever the
/// pattern. [`Validator::explain`] runs [`av_match::explain`], one pass of
/// the program's NFA, which reports where a value failed.
#[derive(Debug, Clone)]
pub struct ValidationRule {
    /// The data-domain pattern `h` chosen by FMDV. Private so it can never
    /// drift from the compiled program — read via
    /// [`ValidationRule::pattern`]; a different pattern means a new rule.
    pattern: Pattern,
    /// Fraction of training values not matching `h` — `θ_C(h)` in §4
    /// (0.0 for the non-horizontal variants).
    pub train_nonconforming: f64,
    /// Number of training values observed.
    pub train_size: usize,
    /// `FPR_T(h)` estimated from the corpus index at inference time.
    pub expected_fpr: f64,
    /// `Cov_T(h)` from the index.
    pub coverage: u64,
    /// Homogeneity test applied at validation time.
    pub test: HomogeneityTest,
    /// Significance level for raising an alarm.
    pub alpha: f64,
    /// The pattern's compiled program and the automaton every check runs.
    automaton: RuleAutomaton,
}

/// Compiled pattern programs and the one automaton every check of them
/// runs: a [`CatalogMatcher`] holding them all, built on first check and
/// read through `&self`, so a check takes no lock and each thread scans
/// on its own DFA cache. A value conforms when some program accepts it.
/// Unbuilt until first checked, so programs that are stored but never
/// checked cost one pointer; a clone starts unbuilt.
///
/// A pattern rule holds one program; an any-of-N profiler baseline holds
/// its N branches in one matcher, so a check is one pass either way.
///
/// ```
/// use av_core::RuleAutomaton;
/// use av_pattern::parse;
///
/// let dates = RuleAutomaton::new([
///     parse("<digit>{4}-<digit>{2}-<digit>{2}").unwrap().compile(),
///     parse("<digit>{2}/<digit>{2}/<digit>{4}").unwrap().compile(),
/// ]);
/// assert!(dates.conforms("2019-03-01"));
/// assert!(dates.conforms("01/03/2019"));
/// assert!(!dates.conforms("March 1"));
/// ```
pub struct RuleAutomaton {
    programs: Box<[CompiledPattern]>,
    matcher: OnceLock<Box<CatalogMatcher>>,
}

impl RuleAutomaton {
    /// Hold `programs`; the automaton is built on the first check.
    pub fn new(programs: impl IntoIterator<Item = CompiledPattern>) -> RuleAutomaton {
        RuleAutomaton {
            programs: programs.into_iter().collect(),
            matcher: OnceLock::new(),
        }
    }

    /// Does some program accept the whole `value`?
    pub fn conforms(&self, value: &str) -> bool {
        self.matcher().is_match(value)
    }

    /// The programs, in the order given.
    pub(crate) fn programs(&self) -> &[CompiledPattern] {
        &self.programs
    }

    /// The automaton, built on the first check.
    pub(crate) fn matcher(&self) -> &CatalogMatcher {
        self.matcher.get_or_init(|| Box::new(self.build()))
    }

    /// A fresh matcher holding every program (program `i` as rule `i`).
    fn build(&self) -> CatalogMatcher {
        let mut matcher = CatalogMatcher::with_config(MatcherConfig::with_budget(RULE_DFA_STATES));
        for (id, program) in (0..).zip(self.programs.iter()) {
            matcher.insert(id, program);
        }
        matcher
    }
}

impl Clone for RuleAutomaton {
    fn clone(&self) -> RuleAutomaton {
        RuleAutomaton::new(self.programs.iter().cloned())
    }
}

impl std::fmt::Debug for RuleAutomaton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleAutomaton")
            .field("programs", &self.programs)
            .finish_non_exhaustive()
    }
}

/// DFA states an automaton may cache on one thread (a 1 KiB table row
/// each) before a value finishes on NFA simulation — still one pass — and
/// that thread's cache is flushed. The rules of a `validate_feeds` ledger
/// run hold at most 57 (seeds 7 and 601).
const RULE_DFA_STATES: usize = 256;

/// Count `values`' verdicts on `matcher`.
pub(crate) fn count<S: AsRef<str>>(
    matcher: &CatalogMatcher,
    values: impl IntoIterator<Item = S>,
) -> Tally {
    let mut tally = Tally::default();
    matcher.is_match_each(values, |hit| tally.record(Verdict::conforming(hit)));
    tally
}

/// Outcome of validating a future column `C'` against a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Values checked.
    pub checked: usize,
    /// Values not matching the rule's pattern.
    pub nonconforming: usize,
    /// `θ_C'(h)`: the non-conforming fraction at test time.
    pub nonconforming_frac: f64,
    /// p-value of the two-sample homogeneity test against training time.
    pub p_value: f64,
    /// True when the column should be flagged as a data-quality issue.
    pub flagged: bool,
}

impl ValidationRule {
    /// Build a rule, compiling the pattern once for all later checks.
    /// Fields are in struct order: θ_C(h), |C|, `FPR_T(h)`, `Cov_T(h)`,
    /// the homogeneity test, and its significance level.
    pub fn new(
        pattern: Pattern,
        train_nonconforming: f64,
        train_size: usize,
        expected_fpr: f64,
        coverage: u64,
        test: HomogeneityTest,
        alpha: f64,
    ) -> ValidationRule {
        ValidationRule {
            automaton: RuleAutomaton::new([pattern.compile()]),
            pattern,
            train_nonconforming,
            train_size,
            expected_fpr,
            coverage,
            test,
            alpha,
        }
    }

    /// Does a single value conform to the rule's pattern?
    pub fn conforms(&self, value: &str) -> bool {
        self.automaton.conforms(value)
    }

    /// How many of `values` the rule rejects, counted on a throwaway
    /// automaton: inference's pass over the training column leaves the
    /// rule's own automaton unbuilt.
    pub(crate) fn count_misses<S: AsRef<str>>(&self, values: &[S]) -> usize {
        count(&self.automaton.build(), values).nonconforming
    }

    /// The data-domain pattern `h` this rule validates with.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The compiled program the rule's automaton and its explanations are
    /// built from.
    pub fn compiled(&self) -> &CompiledPattern {
        &self.automaton.programs()[0]
    }

    /// Validate a future column `C'` (§4): compute the non-conforming
    /// fraction, run the two-sample homogeneity test against the training
    /// fraction, and flag only when the fraction *increased* significantly
    /// (a significant decrease is not a data-quality issue).
    ///
    /// Takes any iterator of borrowed (or `AsRef<str>`) values — a
    /// `&Vec<String>`, a `&[&str]`, or a stream being decoded on the fly —
    /// and never materializes them.
    pub fn validate<I>(&self, values: I) -> ValidationReport
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        self.finish(count(self.automaton.matcher(), values))
    }

    /// Export the rule as a standard regex (usable outside this crate).
    pub fn to_regex(&self) -> String {
        self.pattern.to_regex()
    }
}

impl Validator for ValidationRule {
    fn describe(&self) -> String {
        self.to_string()
    }

    fn check(&self, value: &str) -> Verdict {
        Verdict::conforming(self.conforms(value))
    }

    fn tally(&self, values: &mut dyn Iterator<Item = &str>) -> Tally {
        count(self.automaton.matcher(), values)
    }

    fn explain(&self, value: &str) -> Option<Explanation> {
        let trace = av_match::explain(self.compiled(), value)?;
        let reason = if trace.failed_at == value.len() && trace.inst < trace.num_insts {
            format!(
                "value ended at byte {} while {} was still required",
                trace.failed_at, trace.expected
            )
        } else {
            format!(
                "mismatch at byte {}: expected {}, found {:?}",
                trace.failed_at,
                trace.expected,
                trace.failing_span(value)
            )
        };
        let matched_prefix = trace.matched_prefix(value).to_string();
        Some(Explanation {
            reason,
            failed_at: Some(trace.failed_at),
            span: Some((trace.failed_at, trace.span_end)),
            expected: Some(trace.expected),
            matched_prefix: Some(matched_prefix),
        })
    }

    fn finish(&self, tally: Tally) -> ValidationReport {
        distributional_report(
            tally,
            self.train_nonconforming,
            self.train_size,
            self.test,
            self.alpha,
        )
    }
}

impl std::fmt::Display for ValidationRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (expected FPR {:.4}%, coverage {}, θ_train {:.3})",
            self.pattern,
            self.expected_fpr * 100.0,
            self.coverage,
            self.train_nonconforming
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_pattern::parse;

    fn rule(pattern: &str, theta: f64, train_size: usize) -> ValidationRule {
        ValidationRule::new(
            parse(pattern).unwrap(),
            theta,
            train_size,
            0.001,
            500,
            HomogeneityTest::FisherExact,
            0.01,
        )
    }

    #[test]
    fn clean_same_domain_column_passes() {
        let r = rule("<letter>{3} <digit>{2} <digit>{4}", 0.0, 1000);
        let future: Vec<String> = (1..=28).map(|d| format!("Apr {d:02} 2019")).collect();
        let report = r.validate(&future);
        assert_eq!(report.nonconforming, 0);
        assert!(!report.flagged);
    }

    #[test]
    fn schema_drift_column_is_flagged() {
        let r = rule("<letter>{3} <digit>{2} <digit>{4}", 0.0, 1000);
        let drifted: Vec<String> = (0..100).map(|i| format!("{i}.99")).collect();
        let report = r.validate(&drifted);
        assert_eq!(report.nonconforming, 100);
        assert!((report.nonconforming_frac - 1.0).abs() < 1e-12);
        assert!(report.flagged);
        assert!(report.p_value < 1e-10);
    }

    #[test]
    fn small_nonconforming_shift_is_not_flagged() {
        // §4's example: θ_C = 0.1%, θ_C' = 0.11% — raising alarms would be
        // a false positive.
        let r = rule("<digit>+", 0.001, 10_000);
        let mut future: Vec<String> = (0..9989).map(|i| i.to_string()).collect();
        for _ in 0..11 {
            future.push("-".to_string());
        }
        let report = r.validate(&future);
        assert!((report.nonconforming_frac - 0.0011).abs() < 1e-6);
        assert!(!report.flagged, "p = {}", report.p_value);
    }

    #[test]
    fn large_nonconforming_shift_is_flagged() {
        // §4: θ_C = 0.1% vs θ_C' = 5% — an issue we should report.
        let r = rule("<digit>+", 0.001, 10_000);
        let mut future: Vec<String> = (0..950).map(|i| i.to_string()).collect();
        for _ in 0..50 {
            future.push("N/A".to_string());
        }
        let report = r.validate(&future);
        assert!(report.flagged, "p = {}", report.p_value);
    }

    #[test]
    fn decrease_in_nonconforming_never_flags() {
        let r = rule("<digit>+", 0.10, 1000);
        let future: Vec<String> = (0..1000).map(|i| i.to_string()).collect();
        let report = r.validate(&future);
        assert_eq!(report.nonconforming, 0);
        assert!(!report.flagged, "cleaner data is not an issue");
    }

    #[test]
    fn empty_future_column_is_not_flagged() {
        let r = rule("<digit>+", 0.0, 100);
        let report = r.validate(Vec::<String>::new());
        assert!(!report.flagged);
        assert_eq!(report.checked, 0);
    }

    #[test]
    fn explain_pinpoints_the_failing_span() {
        let r = rule("<letter>{3} <digit>{2} <digit>{4}", 0.0, 1000);
        assert!(Validator::explain(&r, "Mar 01 2019").is_none());
        let e = Validator::explain(&r, "March 01 2019").unwrap();
        assert_eq!(e.failed_at, Some(3));
        assert_eq!(e.span, Some((3, 4)));
        assert_eq!(e.matched_prefix.as_deref(), Some("Mar"));
        assert!(e.reason.contains("byte 3"), "{}", e.reason);
        // Truncated value: empty span at the end.
        let e = Validator::explain(&r, "Mar 01 20").unwrap();
        assert_eq!(e.span, Some((9, 9)));
        assert!(e.reason.contains("ended"), "{}", e.reason);
    }

    /// A thread keeps a DFA cache per automaton it scans, and sweeps the
    /// caches of dropped automata when it caches a new one: rules created,
    /// validated and dropped one after another leave the thread holding at
    /// most its live automata plus one cache.
    #[test]
    fn dropped_rules_leave_at_most_one_stale_cache_per_thread() {
        let cached = av_match::cached_automata;
        std::thread::spawn(move || {
            for i in 0..10_000 {
                let r = rule("<digit>{4}-<digit>{2}-<digit>{2}", 0.0, 100);
                assert_eq!(r.validate(["2019-03-01", "drift"]).nonconforming, 1);
                assert!(cached() <= 2, "rule {i} live: {} caches", cached());
                drop(r);
                assert!(cached() <= 1, "rule {i} dropped: {} caches", cached());
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn regex_export_is_usable() {
        let r = rule("<digit>{2}/<digit>{4}", 0.0, 10);
        let re = av_match::Regex::new(&r.to_regex()).unwrap();
        assert!(re.is_full_match("03/2019"));
        assert!(!re.is_full_match("3/2019"));
    }
}
