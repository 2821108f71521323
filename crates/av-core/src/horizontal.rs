//! Horizontal cuts (§4): tolerate up to a θ fraction of non-conforming
//! values (ad-hoc specials like `"-"` or `"NULL"`, Fig. 9).
//!
//! Deciding feasibility of FMDV-H is NP-hard in general (Theorem 2), but in
//! practice non-conforming values rarely share structure with the normal
//! ones, so the paper optimizes greedily: discard values whose patterns do
//! not intersect with most others, then solve FMDV on the conforming rest.
//! Our grouped analysis makes this direct — the dominant coarse group *is*
//! the conforming subset.

use crate::config::InferError;
use av_pattern::{CoarseGroup, ColumnAnalysis};

/// The horizontal cut every variant starts with: the dominant group, if it
/// covers at least `(1-θ)` of the column (Eq. 16's feasibility
/// precondition under the greedy strategy), and the support floor inside
/// it at which global support still satisfies Eq. 16,
/// `matched ≥ (1-θ)|C|`. At θ = 0 that is "the column is homogeneous" and
/// "every sampled value" — the requirements of FMDV and FMDV-V.
pub(crate) fn conforming_group(
    analysis: &ColumnAnalysis,
    theta: f64,
) -> Result<(&CoarseGroup, usize), InferError> {
    let group = analysis.dominant().ok_or(InferError::NoHypothesis)?;
    let total = analysis.total_values as f64;
    if group.count as f64 / total + 1e-12 < 1.0 - theta {
        return Err(InferError::NoHypothesis);
    }
    // support/sample × count/total ≥ 1-θ  ⇒  support ≥ (1-θ)·total·sample/count
    let group_frac = group.count as f64 / group.sample_size as f64;
    let min_support = ((1.0 - theta) * total / group_frac).ceil() as usize;
    Ok((group, min_support.clamp(1, group.sample_size)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AutoValidate, FmdvConfig, Variant};
    use av_corpus::{generate_lake, Column, LakeProfile};
    use av_index::{IndexConfig, PatternIndex};
    use av_pattern::{analyze_column, matches, PatternConfig};

    fn test_index() -> PatternIndex {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(800), 77);
        let cols: Vec<&Column> = corpus.columns().collect();
        PatternIndex::build(&cols, &IndexConfig::default())
    }

    fn engine(index: &PatternIndex, theta: f64) -> AutoValidate<'_> {
        let mut cfg = FmdvConfig::scaled_for_corpus(index.num_columns);
        cfg.theta = theta;
        AutoValidate::new(index, cfg)
    }

    /// Fig. 9-style column: a corpus-popular domain (24h times) with one
    /// ad-hoc "-" outlier.
    fn dirty_column() -> Vec<String> {
        let mut v: Vec<String> = (0..99)
            .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 7) % 60, (i * 13) % 60))
            .collect();
        v.push("-".to_string());
        v
    }

    #[test]
    fn horizontal_cut_tolerates_adhoc_values() {
        let index = test_index();
        let engine = engine(&index, 0.05);
        let train = dirty_column();
        // Basic FMDV fails on this column (no common hypothesis)…
        assert_eq!(
            engine.infer(&train, Variant::Fmdv).err(),
            Some(InferError::NoHypothesis)
        );
        // …but FMDV-H finds the digit-group pattern of Example 9.
        let rule = engine
            .infer(&train, Variant::FmdvH)
            .expect("FMDV-H should succeed");
        let conforming = train.iter().filter(|v| rule.conforms(v)).count();
        assert!(conforming >= 99, "pattern must cover the 99 normal values");
        assert!(!rule.conforms("-"), "the outlier stays non-conforming");
    }

    #[test]
    fn tolerance_zero_requires_full_coverage() {
        let index = test_index();
        assert_eq!(
            engine(&index, 0.0)
                .infer(dirty_column(), Variant::FmdvH)
                .err(),
            Some(InferError::NoHypothesis)
        );
    }

    #[test]
    fn too_many_outliers_exceed_tolerance() {
        let index = test_index();
        // 20% outliers > θ = 5%.
        let mut train: Vec<String> = (0..80).map(|i| format!("{:05}", i)).collect();
        train.extend((0..20).map(|_| "-".to_string()));
        assert_eq!(
            engine(&index, 0.05).infer(&train, Variant::FmdvH).err(),
            Some(InferError::NoHypothesis)
        );
    }

    #[test]
    fn vh_combines_both_cuts() {
        let index = test_index();
        // Wide composite column with an ad-hoc special value.
        let mut train: Vec<String> = (0..99)
            .map(|i| {
                format!(
                    "{}-{:02}-{:02}|{:02}:{:02}:{:02}",
                    2010 + (i % 20),
                    (i % 12) + 1,
                    (i % 28) + 1,
                    i % 24,
                    (i * 7) % 60,
                    (i * 13) % 60,
                )
            })
            .collect();
        train.push("NULL".to_string());
        let rule = engine(&index, 0.05)
            .infer(&train, Variant::FmdvVH)
            .expect("VH should succeed");
        let full = rule.pattern();
        let conforming = train.iter().filter(|v| matches(full, v)).count();
        assert_eq!(conforming, 99, "{full}");
    }

    #[test]
    fn support_floor_bounds() {
        // Group covering 99/100 values, sample 99, θ = 0.05:
        // support ≥ 0.95·100·99/99 = 95.
        let train = dirty_column();
        let analysis = analyze_column(&train, &PatternConfig::default());
        let (g, floor) = conforming_group(&analysis, 0.05).unwrap();
        assert_eq!((g.count, floor), (99, 95));
        // The same column at θ = 0 has no conforming group.
        assert_eq!(
            conforming_group(&analysis, 0.0).err(),
            Some(InferError::NoHypothesis)
        );
        // θ = 0 on a fully-covering group needs full support.
        let clean: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        let a2 = analyze_column(&clean, &PatternConfig::default());
        let (g2, floor) = conforming_group(&a2, 0.0).unwrap();
        assert_eq!(floor, g2.sample_size);
    }
}
