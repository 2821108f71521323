//! The variant lattice, as identities between variants.
//!
//! The paper defines its four variants as one family: FMDV-H (Eq. 12–16)
//! with tolerance θ = 0 *is* FMDV (Eq. 5–7) — "at most 0 % of the column
//! may fail to conform" is the homogeneity requirement — and FMDV-VH at
//! θ = 0 is FMDV-V (Eq. 8–10) for the same reason. This test holds every
//! implementation of the family to that: on every sampled query column
//! and the first 400 columns of a lake, the θ = 0 horizontal variant and
//! its plain twin return the same pattern, the same FPR to the bit, the
//! same coverage, the same training θ — or the same error.
//!
//! The tiny lake runs everywhere; set `AV_IDENTITIES_FULL=1` (the release
//! CI step) to add the enterprise lake, which the debug suite cannot
//! afford.

use av_core::{AutoValidate, FmdvConfig, InferError, ValidationRule, Variant};
use av_corpus::{generate_lake, Benchmark, LakeProfile};
use av_index::{IndexConfig, PatternIndex};

const QUERY_COLUMNS: usize = 60;
const LAKE_COLUMNS: usize = 400;

/// Everything a rule is made of, or why there is none.
type Outcome = Result<(String, u64, u64, u64), InferError>;

fn outcome(rule: Result<ValidationRule, InferError>) -> Outcome {
    rule.map(|r| {
        (
            r.pattern().to_string(),
            r.expected_fpr.to_bits(),
            r.coverage,
            r.train_nonconforming.to_bits(),
        )
    })
}

/// Check both identities on every column; returns how many of the
/// comparisons were between two rules (the rest compared two errors).
fn check_lake(profile: &LakeProfile, seed: u64) -> (usize, usize) {
    let corpus = generate_lake(profile, seed);
    let cols: Vec<_> = corpus.columns().collect();
    let index = PatternIndex::build(&cols, &IndexConfig::default());
    let cfg = FmdvConfig::scaled_for_corpus(index.num_columns);
    assert!(cfg.theta > 0.0, "the default tolerates outliers");
    let plain = AutoValidate::new(&index, cfg.clone());
    let zero = AutoValidate::new(&index, FmdvConfig { theta: 0.0, ..cfg });

    let benchmark = Benchmark::sample(&corpus, QUERY_COLUMNS, 20, 1000, 7);
    assert_eq!(benchmark.len(), QUERY_COLUMNS);
    let queries = benchmark.cases.iter().map(|c| ("query", &c.train));
    let lake = cols.iter().take(LAKE_COLUMNS).map(|c| ("lake", &c.values));

    let (mut compared, mut rules) = (0, 0);
    for (i, (origin, values)) in queries.chain(lake).enumerate() {
        for (base, at_zero) in [
            (Variant::Fmdv, Variant::FmdvH),
            (Variant::FmdvV, Variant::FmdvVH),
        ] {
            let a = outcome(plain.infer(values, base));
            let b = outcome(zero.infer(values, at_zero));
            assert_eq!(
                a,
                b,
                "{} lake, {origin} column #{i}: {} differs from {} at θ = 0",
                profile.name,
                base.label(),
                at_zero.label(),
            );
            compared += 1;
            rules += usize::from(a.is_ok());
        }
    }
    (compared, rules)
}

#[test]
fn theta_zero_horizontal_variants_are_the_plain_variants() {
    let mut lakes = vec![(LakeProfile::tiny().scaled(800), 42)];
    if std::env::var("AV_IDENTITIES_FULL").is_ok_and(|v| v == "1") {
        lakes.push((LakeProfile::enterprise().scaled(2000), 42));
    }
    for (profile, seed) in &lakes {
        let (compared, rules) = check_lake(profile, *seed);
        assert_eq!(compared, 2 * (QUERY_COLUMNS + LAKE_COLUMNS));
        // Both sides of the identity are exercised: columns that get a
        // rule and columns that are refused.
        assert!(rules > compared / 4, "{rules} rules of {compared}");
        assert!(rules < compared, "no column was refused");
        eprintln!(
            "variant_identities: {} lake, {compared} pairs identical ({rules} rules)",
            profile.name
        );
    }
}
