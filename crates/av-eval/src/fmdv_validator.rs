//! Adapters exposing the Auto-Validate engine (and its no-index ablation)
//! through the baseline [`ColumnValidator`] interface, so every method runs
//! under the same §5.1 harness.
//!
//! There is no bespoke wrapper logic here anymore: an FMDV rule *is* an
//! [`av_core::Validator`], so adapting it to the harness is one
//! [`InferredRule::from_validator`] call — the rule's own streaming
//! validation (including the §4 homogeneity test) is what the harness runs.

use av_baselines::{ColumnValidator, InferredRule};
use av_core::{AutoValidate, FmdvConfig, Variant};
use av_corpus::Column;
use av_index::{scan_corpus_fpr, IndexConfig, PatternIndex};
use av_pattern::{hypothesis_space, PatternConfig};
use std::sync::Arc;

/// FMDV (any variant) as a `ColumnValidator`.
pub struct FmdvValidator {
    index: Arc<PatternIndex>,
    config: FmdvConfig,
    variant: Variant,
}

impl FmdvValidator {
    /// Wrap an index + config + variant.
    pub fn new(index: Arc<PatternIndex>, config: FmdvConfig, variant: Variant) -> FmdvValidator {
        FmdvValidator {
            index,
            config,
            variant,
        }
    }
}

impl ColumnValidator for FmdvValidator {
    fn name(&self) -> &str {
        self.variant.label()
    }

    fn infer(&self, train: &[&str]) -> Option<InferredRule> {
        let engine = AutoValidate::new(&self.index, self.config.clone());
        let rule = engine.infer(train.iter().copied(), self.variant).ok()?;
        Some(InferredRule::from_validator(rule))
    }
}

/// The "FMDV (no-index)" reference point of Fig. 14: identical selection
/// logic, but `FPR_T`/`Cov_T` are computed by scanning the corpus at query
/// time instead of a pre-computed index. Orders of magnitude slower — which
/// is the point. The scan itself rides the fingerprint-streaming
/// enumeration (`av_index::scan_corpus_fpr` matches probes by streamed
/// fingerprint, materializing nothing), so the gap it demonstrates is
/// index-vs-no-index, not matcher overhead.
pub struct NoIndexFmdv {
    columns: Arc<Vec<Column>>,
    config: FmdvConfig,
    index_config: IndexConfig,
}

impl NoIndexFmdv {
    /// Wrap corpus columns directly, to be scanned under token limit `tau`.
    pub fn new(columns: Arc<Vec<Column>>, config: FmdvConfig, tau: usize) -> NoIndexFmdv {
        // The scan must mirror the offline build's enumeration exactly
        // (same caps, same τ), or borderline patterns get different stats.
        NoIndexFmdv {
            columns,
            config,
            index_config: IndexConfig::with_tau(tau),
        }
    }
}

impl ColumnValidator for NoIndexFmdv {
    fn name(&self) -> &str {
        "FMDV (no-index)"
    }

    fn infer(&self, train: &[&str]) -> Option<InferredRule> {
        let hypotheses = hypothesis_space(train, &PatternConfig::default());
        if hypotheses.is_empty() {
            return None;
        }
        let refs: Vec<&Column> = self.columns.iter().collect();
        let stats = scan_corpus_fpr(&refs, &hypotheses, &self.index_config);
        let best = hypotheses
            .iter()
            .zip(&stats)
            .filter(|(_, (fpr, cov))| *fpr <= self.config.r && *cov >= self.config.m)
            .min_by(|a, b| {
                // Same rule as av-core: most specific feasible pattern, FPR
                // and coverage as tie-breaks.
                a.0.specificity()
                    .cmp(&b.0.specificity())
                    .then_with(|| a.1 .0.partial_cmp(&b.1 .0).expect("finite"))
                    .then_with(|| b.1 .1.cmp(&a.1 .1))
                    .then_with(|| a.0.cmp(b.0))
            })
            .map(|(p, _)| p.clone())?;
        // Compile once at inference; the rule's closure runs the byte-level
        // program on every check instead of the reference matcher.
        let compiled = best.compile();
        Some(InferredRule::all_match(best.to_string(), move |v: &str| {
            compiled.matches(v)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_corpus::{generate_lake, LakeProfile};

    fn refs(v: &[String]) -> Vec<&str> {
        v.iter().map(String::as_str).collect()
    }

    #[test]
    fn fmdv_validator_round_trips() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(600), 77);
        let cols: Vec<&Column> = corpus.columns().collect();
        let index = Arc::new(PatternIndex::build(&cols, &IndexConfig::default()));
        let config = FmdvConfig::scaled_for_corpus(index.num_columns);
        let v = FmdvValidator::new(index, config, Variant::FmdvVH);
        assert_eq!(v.name(), "FMDV-VH");
        let train: Vec<String> = (0..40)
            .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 7) % 60, (i * 13) % 60))
            .collect();
        let rule = v.infer(&refs(&train)).expect("rule inferred");
        let same: Vec<String> = (0..40)
            .map(|i| format!("{:02}:{:02}:{:02}", (i * 5) % 24, (i * 11) % 60, i % 60))
            .collect();
        assert!(rule.passes(&same));
        let other: Vec<String> = (0..40).map(|i| format!("user-{i}")).collect();
        assert!(!rule.passes(&other));
    }

    #[test]
    fn no_index_agrees_with_indexed_on_clean_columns() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(300), 13);
        let columns: Arc<Vec<Column>> = Arc::new(corpus.columns().cloned().collect());
        let col_refs: Vec<&Column> = columns.iter().collect();
        let index = Arc::new(PatternIndex::build(&col_refs, &IndexConfig::default()));
        let config = FmdvConfig::scaled_for_corpus(index.num_columns);
        let tau = index.tau;
        let indexed = FmdvValidator::new(index, config.clone(), Variant::Fmdv);
        let scanning = NoIndexFmdv::new(columns.clone(), config, tau);
        let train: Vec<String> = (0..30)
            .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 7) % 60, (i * 13) % 60))
            .collect();
        let a = indexed.infer(&refs(&train)).map(|r| r.description);
        let b = scanning.infer(&refs(&train)).map(|r| r.description);
        match (a, b) {
            (Some(da), Some(db)) => {
                // The indexed rule's description embeds FPR/coverage; just
                // check both chose the same pattern prefix.
                let pa = da.split(" (").next().unwrap().to_string();
                let pb = db.split(" (").next().unwrap().to_string();
                assert_eq!(pa, pb);
            }
            (None, None) => {}
            (a, b) => panic!("disagreement: {a:?} vs {b:?}"),
        }
    }
}
