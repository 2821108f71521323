//! The basic FMDV optimization (§2.3, Eq. 5–7) and the CMDV ablation.

use crate::config::{FmdvConfig, InferError};
use av_index::PatternIndex;
use av_pattern::{hypothesis_space, Pattern};

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

/// Look up candidates in the offline index. Patterns the index has never
/// seen get coverage 0 (and are therefore infeasible under Eq. 7).
pub(crate) fn lookup_candidates(
    index: &PatternIndex,
    patterns: impl IntoIterator<Item = Pattern>,
) -> Vec<Candidate> {
    patterns
        .into_iter()
        .map(|pattern| match index.lookup(&pattern) {
            Some(stats) => Candidate {
                pattern,
                fpr: stats.fpr,
                cov: stats.cov,
            },
            None => Candidate {
                pattern,
                fpr: 1.0,
                cov: 0,
            },
        })
        .collect()
}

/// FMDV selection (Eq. 5–7): among candidates satisfying `FPR ≤ r` and
/// `Cov ≥ m`, pick the **most specific** pattern, breaking ties toward
/// lower FPR, then higher coverage.
///
/// Rationale: the FPR constraint is what prunes under-generalization —
/// Lemma 1 shows any pattern narrower than the true domain accumulates
/// impurity evidence and violates `FPR ≤ r`. Over-generalization, however,
/// is *not* penalized by FPR at all: a near-trivial pattern matches
/// everything, is never impure, and so has FPR ≈ 0 by construction. Taking
/// the literal minimum over FPR therefore degenerates to the most general
/// survivor; the useful minimizer — and the only reading consistent with
/// the paper's measured recall — is the most specific pattern inside the
/// feasible region, with FPR as the safety constraint.
pub(crate) fn select_min_fpr(candidates: &[Candidate], r: f64, m: u64) -> Option<Candidate> {
    candidates
        .iter()
        .filter(|c| c.fpr <= r && c.cov >= m)
        .min_by(|a, b| {
            a.specificity()
                .cmp(&b.specificity())
                .then_with(|| a.fpr.partial_cmp(&b.fpr).expect("FPRs are finite"))
                .then_with(|| b.cov.cmp(&a.cov))
                .then_with(|| a.pattern.cmp(&b.pattern))
        })
        .cloned()
}

/// Objective of a [`StreamingSelect`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SelectObjective {
    /// `(specificity, fpr, coverage desc, pattern)` — the
    /// [`select_min_fpr`] ordering.
    SpecificFirst,
    /// `(fpr, specificity, pattern)` — the literal Eq. 5 objective, used
    /// by the vertical DP's conservative fallback pass when the
    /// specificity-first segmentation exceeds the Eq. 9 budget.
    LowestFpr,
}

/// The index's `(fpr, cov)` for one streamed emission; a pattern the
/// index has never seen reads `(1.0, 0)`, as in [`lookup_candidates`].
#[inline]
pub(crate) fn probe(index: &PatternIndex, sp: &av_pattern::StreamedPattern<'_>) -> (f64, u64) {
    match index.lookup_fingerprint(sp.fingerprint) {
        Some(stats) => (stats.fpr, stats.cov),
        None => (1.0, 0),
    }
}

/// Streaming candidate selection: folds enumeration emissions one at a
/// time, keeping only the current winner. Equivalent to collecting every
/// candidate and running the corresponding `select_*` vector pass (same
/// ordering, same first-minimal tie behavior), but a [`Pattern`] is
/// materialized only when an emission actually wins (or fully ties) —
/// the vertical DP offers thousands of candidates per cell and keeps one.
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

    /// Offer one streamed enumeration emission, looked up by fingerprint.
    /// The lookup routes straight to the fingerprint's index shard
    /// ([`PatternIndex::lookup_fingerprint`]), so a concurrent ingest
    /// republishing *other* shards never contends with this hot path —
    /// the snapshot's shard `Arc`s are immutable.
    pub(crate) fn offer_streamed(
        &mut self,
        index: &PatternIndex,
        sp: &av_pattern::StreamedPattern<'_>,
    ) {
        self.offer_probed(sp, probe(index, sp));
    }

    /// Offer an emission whose `(fpr, cov)` the caller already
    /// [`probe`]d — the vertical sweep feeds one probe to a selector per
    /// objective.
    pub(crate) fn offer_probed(
        &mut self,
        sp: &av_pattern::StreamedPattern<'_>,
        (fpr, cov): (f64, u64),
    ) {
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
        if !(fpr <= self.r && cov >= self.m) {
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
        let scalar = match self.objective {
            SelectObjective::SpecificFirst => spec()
                .cmp(&best.specificity())
                .then_with(|| fpr.partial_cmp(&best.fpr).expect("FPRs are finite"))
                .then_with(|| best.cov.cmp(&cov)),
            SelectObjective::LowestFpr => fpr
                .partial_cmp(&best.fpr)
                .expect("FPRs are finite")
                .then_with(|| spec().cmp(&best.specificity())),
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
                // pattern tie-break (earlier offers win ties, matching
                // `min_by`'s first-minimal semantics).
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

/// CMDV selection (§2.3 alternative): minimize coverage instead. The paper
/// reports this is less effective in practice — kept for the ablation.
pub(crate) fn select_min_cov(candidates: &[Candidate], r: f64, m: u64) -> Option<Candidate> {
    candidates
        .iter()
        .filter(|c| c.fpr <= r && c.cov >= m)
        .min_by(|a, b| {
            a.cov
                .cmp(&b.cov)
                .then_with(|| a.fpr.partial_cmp(&b.fpr).expect("finite"))
                .then_with(|| a.pattern.cmp(&b.pattern))
        })
        .cloned()
}

/// Basic FMDV (§2.3): enumerate `H(C)`, look up pre-computed stats, pick the
/// feasible minimizer. Training values are borrowed end to end.
pub(crate) fn infer_fmdv(
    index: &PatternIndex,
    cfg: &FmdvConfig,
    train: &[&str],
    minimize_coverage: bool,
) -> Result<Candidate, InferError> {
    if train.is_empty() {
        return Err(InferError::EmptyColumn);
    }
    let hypotheses = hypothesis_space(train, &cfg.pattern);
    if hypotheses.is_empty() {
        return Err(InferError::NoHypothesis);
    }
    let candidates = lookup_candidates(index, hypotheses);
    let chosen = if minimize_coverage {
        select_min_cov(&candidates, cfg.r, cfg.m)
    } else {
        select_min_fpr(&candidates, cfg.r, cfg.m)
    };
    chosen.ok_or(InferError::NoFeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_pattern::parse;

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
        let best = select_min_fpr(&cands, 0.001, 100).unwrap();
        assert_eq!(best.pattern, parse("<digit>+:<digit>{2}").unwrap());
    }

    #[test]
    fn coverage_constraint_excludes_rare_patterns() {
        let cands = vec![cand("<digit>{7}", 0.0, 5), cand("<digit>+", 0.001, 900)];
        let best = select_min_fpr(&cands, 0.1, 100).unwrap();
        assert_eq!(best.pattern, parse("<digit>+").unwrap());
    }

    #[test]
    fn infeasible_when_all_violate() {
        let cands = vec![cand("<digit>{7}", 0.5, 5000)];
        assert!(select_min_fpr(&cands, 0.1, 100).is_none());
    }

    #[test]
    fn prefers_the_most_specific_feasible_pattern() {
        // Both feasible: the specific one catches more issues; FPR already
        // certifies it as safe. Min-FPR-first would degenerate here.
        let cands = vec![cand("<digit>{4}", 0.001, 200), cand("<digit>+", 0.0, 9000)];
        let best = select_min_fpr(&cands, 0.1, 100).unwrap();
        assert_eq!(best.pattern, parse("<digit>{4}").unwrap());
    }

    #[test]
    fn specificity_does_not_override_feasibility() {
        // The specific pattern violates the FPR budget (Lemma 1's pruning);
        // the general one is the only lawful choice.
        let cands = vec![cand("<digit>{4}", 0.4, 200), cand("<digit>+", 0.001, 9000)];
        let best = select_min_fpr(&cands, 0.1, 100).unwrap();
        assert_eq!(best.pattern, parse("<digit>+").unwrap());
    }

    #[test]
    fn cmdv_prefers_restrictive_patterns() {
        let cands = vec![cand("<digit>{4}", 0.0, 200), cand("<digit>+", 0.0, 9000)];
        let best = select_min_cov(&cands, 0.1, 100).unwrap();
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
        ];
        for cands in &sets {
            for (r, m) in [(0.1, 100), (0.001, 100), (1.0, 0), (0.05, 250)] {
                let vector = select_min_fpr(cands, r, m);
                let mut sel = StreamingSelect::new(SelectObjective::SpecificFirst, r, m);
                for c in cands {
                    if c.fpr <= r && c.cov >= m {
                        sel.offer(c.clone());
                    } else {
                        // Feasibility first: an infeasible offer is dropped
                        // on its two numbers alone — neither its
                        // specificity nor its pattern is ever asked for.
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
                    "r={r} m={m}"
                );
            }
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
        let mut sel = StreamingSelect::new(SelectObjective::LowestFpr, 0.1, 100);
        for c in &cands {
            sel.offer(c.clone());
        }
        // <digit>+ and <alnum>+ tie on fpr; <digit>+ is more specific.
        assert_eq!(sel.into_best().unwrap().pattern, parse("<digit>+").unwrap());
    }
}
