//! The one inference pipeline (§2.3–§4): analyze the column, cut it
//! horizontally to its conforming group, enumerate the group's patterns,
//! probe each in the offline index, select. Every variant — FMDV (Eq. 5–7),
//! FMDV-H (Eq. 12–16), FMDV-V / -VH (Eq. 8–11), the CMDV ablation and the
//! Auto-Tag dual — is [`infer_pattern`] under a different θ and [`Search`].
//!
//! The enumeration only descends below a prefix some indexed pattern
//! starts with ([`within_index`]). Everything it skips would probe as a
//! miss, `(1.0, 0)`, which no selector accepts (coverage is at least 1),
//! so skipping changes no answer — only what it costs.

use crate::config::{FmdvConfig, InferError};
use crate::horizontal::conforming_group;
use crate::vertical::solve_vertical;
use av_index::PatternIndex;
use av_pattern::{analyze_column, EnumScratch, Pattern, PatternConfig, StreamedPattern};

/// A hypothesis pattern with its index-provided statistics.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub pattern: Pattern,
    pub fpr: f64,
    pub cov: u64,
}

impl Candidate {
    /// Generality of the pattern (sum of per-token hierarchy depths);
    /// smaller = more specific = more data-quality issues caught.
    pub fn specificity(&self) -> u32 {
        self.pattern.specificity()
    }
}

/// How the conforming group is searched — besides θ, all a variant is.
#[derive(Debug)]
pub(crate) enum Search {
    /// One pattern for the whole column: every enumerated hypothesis is
    /// probed and offered to the selector, whose objective and
    /// feasibility bounds are the variant's.
    WholeColumn(StreamingSelect),
    /// Vertical cuts (§3): one pattern per segment, by the Eq. 11 DP.
    VerticalCuts,
}

/// Infer the pattern of `train`: `θ` is the fraction of values the
/// horizontal cut may discard (0 demands a homogeneous column), `search`
/// how the rest is covered. The column is analyzed once, and each
/// enumerated hypothesis costs one index probe — no `H(C)` is
/// materialized.
pub(crate) fn infer_pattern<S: AsRef<str>>(
    index: &PatternIndex,
    cfg: &FmdvConfig,
    train: &[S],
    theta: f64,
    search: Search,
) -> Result<Candidate, InferError> {
    if train.is_empty() {
        return Err(InferError::EmptyColumn);
    }
    let analysis = analyze_column(train, &PatternConfig::default());
    let (group, min_support) = conforming_group(&analysis, theta)?;
    match search {
        Search::WholeColumn(mut select) => {
            let n = group.positions.len();
            let mut scratch = EnumScratch::default();
            group.for_each_pattern(
                0,
                n,
                min_support,
                &PatternConfig::default(),
                &mut scratch,
                within_index(index),
                |sp| select.offer_probed(sp, probe(index, sp)),
            );
            select.into_best().ok_or(InferError::NoFeasible)
        }
        Search::VerticalCuts => {
            let solution = solve_vertical(index, cfg, group, min_support)?;
            Ok(Candidate {
                pattern: solution.full_pattern(),
                fpr: solution.total_fpr,
                cov: solution.min_coverage(),
            })
        }
    }
}

/// Objective of a [`StreamingSelect`] pass, each a lexicographic order
/// that ends in the pattern itself, so a winner never depends on the
/// order of the offers.
///
/// [`SelectObjective::SpecificFirst`] is how Eq. 5 is read here. The FPR
/// constraint is what prunes under-generalization — Lemma 1 shows any
/// pattern narrower than the true domain accumulates impurity evidence
/// and violates `FPR ≤ r`. Over-generalization, however, is *not*
/// penalized by FPR at all: a near-trivial pattern matches everything, is
/// never impure, and so has FPR ≈ 0 by construction. Taking the literal
/// minimum over FPR therefore degenerates to the most general survivor;
/// the useful minimizer — and the only reading consistent with the
/// paper's measured recall — is the most specific pattern inside the
/// feasible region, with FPR as the safety constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SelectObjective {
    /// `(specificity, fpr, coverage desc, pattern)` — FMDV, FMDV-H and
    /// the vertical DP's first pass.
    SpecificFirst,
    /// `(fpr, specificity, pattern)` — the literal Eq. 5 objective, used
    /// by the vertical DP's conservative fallback pass when the
    /// specificity-first segmentation exceeds the Eq. 9 budget.
    LowestFpr,
    /// `(coverage, fpr, pattern)` — CMDV (§2.3 alternative): minimize
    /// coverage instead. The paper reports this is less effective in
    /// practice — kept for the ablation.
    LeastCoverage,
    /// `(coverage, pattern)` — Auto-Tag (§2.3 dual): the most restrictive
    /// pattern, whatever its FPR. Not [`SelectObjective::LeastCoverage`]
    /// minus a tie-break: where patterns share the smallest coverage the
    /// two orders pick different ones, so neither replaces the other.
    TagReach,
}

#[cfg(test)]
thread_local! {
    /// Make [`within_index`] admit every prefix on this thread: the
    /// enumeration then emits what it emitted before it asked the index.
    pub(crate) static KEEP_EVERY_PREFIX: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The enumeration's prefix hook at inference: descend below a prefix
/// only when [`PatternIndex::admits_prefix`] says an indexed pattern may
/// extend it.
pub(crate) fn within_index(index: &PatternIndex) -> impl FnMut(u64, usize) -> bool + '_ {
    move |key, len| {
        #[cfg(test)]
        if KEEP_EVERY_PREFIX.with(std::cell::Cell::get) {
            return true;
        }
        index.admits_prefix(key, len)
    }
}

/// The index's `(fpr, cov)` for one streamed emission; a pattern the
/// index has never seen reads `(1.0, 0)` and is therefore infeasible
/// whatever `r` and `m` are ([`StreamingSelect`]). The lookup routes
/// straight to the fingerprint's index shard, so a concurrent ingest
/// republishing *other* shards never contends with this hot path — the
/// snapshot's shard `Arc`s are immutable.
#[inline]
pub(crate) fn probe(index: &PatternIndex, sp: &StreamedPattern<'_>) -> (f64, u64) {
    match index.lookup_fingerprint(sp.fingerprint) {
        Some(stats) => (stats.fpr, stats.cov),
        None => (1.0, 0),
    }
}

/// Streaming candidate selection (Eq. 5–7): among offers satisfying
/// `FPR ≤ r` and `Cov ≥ max(m, 1)`, keep the minimum under the objective.
/// The floor of one covering column holds at `m = 0` too: a pattern the
/// corpus never saw is no evidence of a domain, and the enumeration's
/// pruning counts on such a pattern never being picked.
///
/// Folds enumeration emissions one at a time, keeping only the current
/// winner — equivalent to collecting every candidate and taking the vector
/// minimum (the tests' `select_min_*` references), but a [`Pattern`] is
/// materialized only when an emission actually wins (or fully ties): the
/// vertical DP offers thousands of candidates per cell and keeps one.
#[derive(Debug)]
pub(crate) struct StreamingSelect {
    objective: SelectObjective,
    r: f64,
    m: u64,
    best: Option<Candidate>,
}

impl StreamingSelect {
    pub(crate) fn new(objective: SelectObjective, r: f64, m: u64) -> StreamingSelect {
        StreamingSelect {
            objective,
            r,
            m,
            best: None,
        }
    }

    /// Offer an emission with the `(fpr, cov)` the caller [`probe`]d for
    /// it — the vertical sweep feeds one probe to a selector per
    /// objective.
    pub(crate) fn offer_probed(&mut self, sp: &StreamedPattern<'_>, (fpr, cov): (f64, u64)) {
        self.consider(fpr, cov, || sp.specificity(), || sp.to_pattern());
    }

    /// Offer a pre-built candidate (e.g. a structural-literal segment).
    pub(crate) fn offer(&mut self, c: Candidate) {
        let spec = c.specificity();
        self.consider(c.fpr, c.cov, || spec, move || c.pattern);
    }

    /// Feasibility comes first and reads only the two numbers: nearly
    /// every offer of a vertical sweep is an index miss, and neither
    /// `spec` (a sum over the token stack) nor `pattern` runs for it.
    fn consider(
        &mut self,
        fpr: f64,
        cov: u64,
        spec: impl FnOnce() -> u32,
        pattern: impl FnOnce() -> Pattern,
    ) {
        use std::cmp::Ordering;
        if !(fpr <= self.r && cov >= self.m.max(1)) {
            return;
        }
        let Some(best) = &self.best else {
            self.best = Some(Candidate {
                pattern: pattern(),
                fpr,
                cov,
            });
            return;
        };
        let by_fpr = || fpr.partial_cmp(&best.fpr).expect("FPRs are finite");
        let scalar = match self.objective {
            SelectObjective::SpecificFirst => spec()
                .cmp(&best.specificity())
                .then_with(by_fpr)
                .then_with(|| best.cov.cmp(&cov)),
            SelectObjective::LowestFpr => by_fpr().then_with(|| spec().cmp(&best.specificity())),
            SelectObjective::LeastCoverage => cov.cmp(&best.cov).then_with(by_fpr),
            SelectObjective::TagReach => cov.cmp(&best.cov),
        };
        match scalar {
            Ordering::Greater => {}
            Ordering::Less => {
                self.best = Some(Candidate {
                    pattern: pattern(),
                    fpr,
                    cov,
                });
            }
            Ordering::Equal => {
                // Full scalar tie: materialize for the deterministic
                // pattern tie-break.
                let p = pattern();
                if p < best.pattern {
                    self.best = Some(Candidate {
                        pattern: p,
                        fpr,
                        cov,
                    });
                }
            }
        }
    }

    /// The selected candidate, if any feasible one was offered.
    pub(crate) fn into_best(self) -> Option<Candidate> {
        self.best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AutoValidate, Variant};
    use av_pattern::parse;

    /// The vector pass [`StreamingSelect`] replaced, kept as its
    /// reference: the feasible minimum under
    /// [`SelectObjective::SpecificFirst`].
    fn select_min_fpr(candidates: &[Candidate], r: f64, m: u64) -> Option<Candidate> {
        candidates
            .iter()
            .filter(|c| c.fpr <= r && c.cov >= m.max(1))
            .min_by(|a, b| {
                a.specificity()
                    .cmp(&b.specificity())
                    .then_with(|| a.fpr.partial_cmp(&b.fpr).expect("FPRs are finite"))
                    .then_with(|| b.cov.cmp(&a.cov))
                    .then_with(|| a.pattern.cmp(&b.pattern))
            })
            .cloned()
    }

    /// The same for [`SelectObjective::LeastCoverage`] (CMDV).
    fn select_min_cov(candidates: &[Candidate], r: f64, m: u64) -> Option<Candidate> {
        candidates
            .iter()
            .filter(|c| c.fpr <= r && c.cov >= m.max(1))
            .min_by(|a, b| {
                a.cov
                    .cmp(&b.cov)
                    .then_with(|| a.fpr.partial_cmp(&b.fpr).expect("finite"))
                    .then_with(|| a.pattern.cmp(&b.pattern))
            })
            .cloned()
    }

    /// The selector's pick among `candidates`.
    fn select(
        objective: SelectObjective,
        candidates: &[Candidate],
        r: f64,
        m: u64,
    ) -> Option<Candidate> {
        let mut sel = StreamingSelect::new(objective, r, m);
        for c in candidates {
            sel.offer(c.clone());
        }
        sel.into_best()
    }

    fn cand(p: &str, fpr: f64, cov: u64) -> Candidate {
        Candidate {
            pattern: parse(p).unwrap(),
            fpr,
            cov,
        }
    }

    #[test]
    fn min_fpr_respects_constraints() {
        // Example 6 of the paper: h1/h2 infeasible on FPR, h5 feasible.
        let cands = vec![
            cand("<digit>{1}:<digit>{2}", 0.67, 5000), // h2-like
            cand("<digit>+:<digit>{2}", 0.0004, 5000), // h5-like
            cand("<digit>+:<digit>+", 0.002, 6000),
        ];
        let best = select(SelectObjective::SpecificFirst, &cands, 0.001, 100).unwrap();
        assert_eq!(best.pattern, parse("<digit>+:<digit>{2}").unwrap());
    }

    #[test]
    fn coverage_constraint_excludes_rare_patterns() {
        let cands = vec![cand("<digit>{7}", 0.0, 5), cand("<digit>+", 0.001, 900)];
        let best = select(SelectObjective::SpecificFirst, &cands, 0.1, 100).unwrap();
        assert_eq!(best.pattern, parse("<digit>+").unwrap());
    }

    #[test]
    fn infeasible_when_all_violate() {
        let cands = vec![cand("<digit>{7}", 0.5, 5000)];
        assert!(select(SelectObjective::SpecificFirst, &cands, 0.1, 100).is_none());
    }

    #[test]
    fn prefers_the_most_specific_feasible_pattern() {
        // Both feasible: the specific one catches more issues; FPR already
        // certifies it as safe. Min-FPR-first would degenerate here.
        let cands = vec![cand("<digit>{4}", 0.001, 200), cand("<digit>+", 0.0, 9000)];
        let best = select(SelectObjective::SpecificFirst, &cands, 0.1, 100).unwrap();
        assert_eq!(best.pattern, parse("<digit>{4}").unwrap());
    }

    #[test]
    fn specificity_does_not_override_feasibility() {
        // The specific pattern violates the FPR budget (Lemma 1's pruning);
        // the general one is the only lawful choice.
        let cands = vec![cand("<digit>{4}", 0.4, 200), cand("<digit>+", 0.001, 9000)];
        let best = select(SelectObjective::SpecificFirst, &cands, 0.1, 100).unwrap();
        assert_eq!(best.pattern, parse("<digit>+").unwrap());
    }

    #[test]
    fn cmdv_prefers_restrictive_patterns() {
        let cands = vec![cand("<digit>{4}", 0.0, 200), cand("<digit>+", 0.0, 9000)];
        let best = select(SelectObjective::LeastCoverage, &cands, 0.1, 100).unwrap();
        assert_eq!(best.pattern, parse("<digit>{4}").unwrap());
    }

    /// The streaming selector must agree with the vector pass on every
    /// candidate set, including scalar ties resolved by pattern order and
    /// infeasible offers, which it must reject without materializing.
    #[test]
    fn streaming_select_matches_vector_select() {
        let sets: Vec<Vec<Candidate>> = vec![
            vec![],
            vec![cand("<digit>{7}", 0.5, 5000)],
            vec![
                cand("<digit>{1}:<digit>{2}", 0.67, 5000),
                cand("<digit>+:<digit>{2}", 0.0004, 5000),
                cand("<digit>+:<digit>+", 0.002, 6000),
            ],
            vec![cand("<digit>{4}", 0.001, 200), cand("<digit>+", 0.0, 9000)],
            // Scalar ties: same specificity, fpr, cov — pattern breaks.
            vec![
                cand("<upper>{2}", 0.01, 300),
                cand("<lower>{2}", 0.01, 300),
                cand("<digit>{2}", 0.01, 300),
            ],
            vec![
                cand("<digit>{2}", 0.0, 300),
                cand("<digit>{2}:<digit>{2}", 0.05, 120),
                cand("<letter>+", 0.02, 40),
            ],
            // An index miss next to a hit.
            vec![cand("<digit>{3}", 1.0, 0), cand("<digit>+", 0.0, 900)],
            // Coverage ties: FPR breaks them for CMDV.
            vec![
                cand("<digit>{2}", 0.02, 300),
                cand("<alnum>{2}", 0.01, 300),
                cand("<digit>+", 0.0, 900),
            ],
        ];
        type Reference = fn(&[Candidate], f64, u64) -> Option<Candidate>;
        let references: [(SelectObjective, Reference); 2] = [
            (SelectObjective::SpecificFirst, select_min_fpr),
            (SelectObjective::LeastCoverage, select_min_cov),
        ];
        for cands in &sets {
            for (r, m) in [(0.1, 100), (0.001, 100), (1.0, 0), (0.05, 250)] {
                for (objective, reference) in references {
                    let vector = reference(cands, r, m);
                    let mut sel = StreamingSelect::new(objective, r, m);
                    for c in cands {
                        if c.fpr <= r && c.cov >= m.max(1) {
                            sel.offer(c.clone());
                        } else {
                            // Feasibility first: an infeasible offer is
                            // dropped on its two numbers alone — neither
                            // its specificity nor its pattern is ever
                            // asked for.
                            sel.consider(
                                c.fpr,
                                c.cov,
                                || panic!("specificity of an infeasible offer"),
                                || panic!("pattern of an infeasible offer"),
                            );
                        }
                    }
                    let streamed = sel.into_best();
                    assert_eq!(
                        vector.as_ref().map(|c| (&c.pattern, c.fpr, c.cov)),
                        streamed.as_ref().map(|c| (&c.pattern, c.fpr, c.cov)),
                        "{objective:?} r={r} m={m}"
                    );
                }
            }
        }
    }

    /// The two coverage-first orders are different orders: on a coverage
    /// tie CMDV takes the lower FPR, Auto-Tag the smaller pattern.
    #[test]
    fn tag_reach_breaks_coverage_ties_by_pattern_not_fpr() {
        let (a, b) = (parse("<digit>{2}").unwrap(), parse("<alnum>{2}").unwrap());
        let (smaller, larger) = (a.clone().min(b.clone()), a.max(b));
        // The larger pattern carries the lower FPR.
        let cands = vec![
            cand(&smaller.to_string(), 0.02, 300),
            cand(&larger.to_string(), 0.01, 300),
            cand("<digit>+", 0.0, 900),
        ];
        let pick = |objective| select(objective, &cands, f64::INFINITY, 1).unwrap().pattern;
        assert_eq!(pick(SelectObjective::TagReach), smaller);
        assert_eq!(pick(SelectObjective::LeastCoverage), larger);
    }

    /// `m = 0` does not make a pattern the corpus never saw feasible: at
    /// `r = 1` its miss, `(1.0, 0)`, is inside every FPR budget, and only
    /// the floor of one covering column keeps it out — of every objective,
    /// and of every variant over an index that has seen nothing.
    #[test]
    fn an_unseen_pattern_is_never_selected_even_at_m_zero() {
        let cands = vec![
            cand("<digit>{2}:<digit>{2}", 1.0, 0),
            cand("<digit>+", 0.4, 2),
        ];
        for objective in [
            SelectObjective::SpecificFirst,
            SelectObjective::LowestFpr,
            SelectObjective::LeastCoverage,
            SelectObjective::TagReach,
        ] {
            let pick = select(objective, &cands, 1.0, 0).map(|c| c.pattern);
            assert_eq!(pick, Some(parse("<digit>+").unwrap()), "{objective:?}");
            assert!(select(objective, &cands[..1], 1.0, 0).is_none());
        }
        let index = PatternIndex::build(&[], &av_index::IndexConfig::default());
        let engine = AutoValidate::new(
            &index,
            FmdvConfig {
                r: 1.0,
                m: 0,
                ..FmdvConfig::default()
            },
        );
        let train: Vec<String> = (0..30).map(|i| format!("{:02}:{:02}", i % 24, i)).collect();
        for variant in [
            Variant::Fmdv,
            Variant::FmdvH,
            Variant::FmdvV,
            Variant::FmdvVH,
            Variant::Cmdv,
        ] {
            assert_eq!(
                engine.infer(&train, variant).err(),
                Some(InferError::NoFeasible),
                "{}",
                variant.label()
            );
        }
    }

    /// Everything a rule is made of — pattern, FPR bits, coverage, θ (the
    /// training non-conforming fraction, or a tag's FNR) — or the error.
    type Outcome = Result<(String, u64, u64, u64), InferError>;

    /// Every variant and Auto-Tag at FNR budgets 0 and 0.05 on one column.
    fn every_outcome(engine: &AutoValidate<'_>, values: &[String]) -> Vec<Outcome> {
        let variants = [
            Variant::Fmdv,
            Variant::FmdvH,
            Variant::FmdvV,
            Variant::FmdvVH,
            Variant::Cmdv,
        ];
        let rules = variants.into_iter().map(|v| {
            engine.infer(values, v).map(|r| {
                (
                    r.pattern().to_string(),
                    r.expected_fpr.to_bits(),
                    r.coverage,
                    r.train_nonconforming.to_bits(),
                )
            })
        });
        let tags = [0.0, 0.05].into_iter().map(|budget| {
            engine.infer_tag(values, budget).map(|t| {
                (
                    t.pattern().to_string(),
                    0,
                    t.coverage,
                    t.train_fnr.to_bits(),
                )
            })
        });
        rules.chain(tags).collect()
    }

    /// The referee of the prefix pruning: with [`KEEP_EVERY_PREFIX`] on,
    /// the enumeration emits what it did before it asked the index, and
    /// every variant infers the same rule — or fails the same way — as
    /// with pruning, on the training tenths of 60 sampled query columns and
    /// the first 400 columns of the lake at full length. The tiny lake
    /// runs everywhere; `AV_IDENTITIES_FULL=1` (a release CI step) adds
    /// the enterprise one.
    #[test]
    fn pruned_enumeration_infers_what_the_full_one_does() {
        use av_corpus::{generate_lake, Benchmark, LakeProfile};
        let mut lakes = vec![(LakeProfile::tiny().scaled(800), 42)];
        if std::env::var("AV_IDENTITIES_FULL").is_ok_and(|v| v == "1") {
            lakes.push((LakeProfile::enterprise().scaled(2000), 42));
        }
        for (profile, seed) in &lakes {
            let corpus = generate_lake(profile, *seed);
            let cols: Vec<_> = corpus.columns().collect();
            let index = PatternIndex::build(&cols, &av_index::IndexConfig::default());
            let engine =
                AutoValidate::new(&index, FmdvConfig::scaled_for_corpus(index.num_columns));
            let benchmark = Benchmark::sample(&corpus, 60, 20, 1000, 7);
            assert_eq!(benchmark.len(), 60);
            let queries = benchmark.cases.iter().map(|c| &c.train);
            let lake = cols.iter().take(400).map(|c| &c.values);
            let (mut rules, mut outcomes) = (0, 0);
            for (i, values) in queries.chain(lake).enumerate() {
                let pruned = every_outcome(&engine, values);
                KEEP_EVERY_PREFIX.with(|keep| keep.set(true));
                let full = every_outcome(&engine, values);
                KEEP_EVERY_PREFIX.with(|keep| keep.set(false));
                assert_eq!(pruned, full, "{} lake, column #{i}", profile.name);
                outcomes += pruned.len();
                rules += pruned.iter().filter(|o| o.is_ok()).count();
            }
            assert_eq!(outcomes, 7 * 460);
            assert!(rules > outcomes / 4 && rules < outcomes, "{rules} rules");
            eprintln!(
                "pruned ≡ full: {} lake, {outcomes} outcomes identical ({rules} rules)",
                profile.name
            );
        }
    }

    /// `LowestFpr` reproduces the literal Eq. 5 ordering the vertical DP's
    /// fallback pass used: fpr first, then specificity, then pattern.
    #[test]
    fn streaming_select_lowest_fpr_ordering() {
        let cands = vec![
            cand("<digit>{4}", 0.02, 500),
            cand("<digit>+", 0.001, 900),
            cand("<alnum>+", 0.001, 900),
        ];
        let best = select(SelectObjective::LowestFpr, &cands, 0.1, 100).unwrap();
        // <digit>+ and <alnum>+ tie on fpr; <digit>+ is more specific.
        assert_eq!(best.pattern, parse("<digit>+").unwrap());
    }
}
