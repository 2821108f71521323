//! End-to-end integration: lake → offline index → online inference →
//! validation → evaluation, across crate boundaries.

use auto_validate::prelude::*;
use av_bench::eval::{evaluate_method, FmdvValidator};
use std::sync::{Arc, OnceLock};

fn shared() -> &'static (Corpus, Arc<PatternIndex>) {
    static ENV: OnceLock<(Corpus, Arc<PatternIndex>)> = OnceLock::new();
    ENV.get_or_init(|| {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(1200), 99);
        let cols: Vec<&Column> = corpus.columns().collect();
        let index = Arc::new(PatternIndex::build(&cols, &IndexConfig::default()));
        (corpus, index)
    })
}

#[test]
fn full_pipeline_quality_floor() {
    let (corpus, index) = shared();
    let benchmark = Benchmark::sample(corpus, 120, 20, 500, 5);
    let config = FmdvConfig::scaled_for_corpus(index.num_columns);
    let vh = FmdvValidator::new(index.clone(), config.clone(), Variant::FmdvVH);
    let r_vh = evaluate_method(&vh, &benchmark, 30);
    assert!(
        r_vh.precision >= 0.9,
        "FMDV-VH precision {} below floor",
        r_vh.precision
    );
    assert!(
        r_vh.recall >= 0.5,
        "FMDV-VH recall {} below floor",
        r_vh.recall
    );
    // The combined variant must not lose to basic FMDV (the paper's Fig. 10
    // ordering, weak form).
    let basic = FmdvValidator::new(index.clone(), config, Variant::Fmdv);
    let r_basic = evaluate_method(&basic, &benchmark, 30);
    assert!(
        r_vh.f1() + 1e-9 >= r_basic.f1(),
        "VH f1 {} < FMDV f1 {}",
        r_vh.f1(),
        r_basic.f1()
    );
}

#[test]
fn rules_are_deterministic() {
    let (_, index) = shared();
    let engine = AutoValidate::new(index, FmdvConfig::scaled_for_corpus(index.num_columns));
    let train: Vec<String> = (0..50)
        .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 7) % 60, (i * 13) % 60))
        .collect();
    let a = engine.infer_default(&train).expect("rule");
    let b = engine.infer_default(&train).expect("rule");
    assert_eq!(a.pattern(), b.pattern());
    assert_eq!(a.expected_fpr, b.expected_fpr);
}

#[test]
fn index_persistence_preserves_inference() {
    let (_, index) = shared();
    let bytes = index.to_bytes();
    let restored = PatternIndex::from_bytes(&bytes).expect("roundtrip");
    let config = FmdvConfig::scaled_for_corpus(index.num_columns);
    let train: Vec<String> = (1..=40)
        .map(|d| format!("2019-03-{:02}", (d % 28) + 1))
        .collect();
    let engine_a = AutoValidate::new(index, config.clone());
    let engine_b = AutoValidate::new(&restored, config);
    match (
        engine_a.infer_default(&train),
        engine_b.infer_default(&train),
    ) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.pattern(), b.pattern());
            assert_eq!(a.coverage, b.coverage);
        }
        (Err(a), Err(b)) => assert_eq!(a, b),
        (a, b) => panic!("divergence after persistence: {a:?} vs {b:?}"),
    }
}

#[test]
fn exported_regexes_agree_with_pattern_matching() {
    let (corpus, index) = shared();
    let engine = AutoValidate::new(index, FmdvConfig::scaled_for_corpus(index.num_columns));
    let mut checked = 0;
    for col in corpus.columns().take(300) {
        if col.values.len() < 20 {
            continue;
        }
        let train: Vec<String> = col.values.iter().take(30).cloned().collect();
        let Ok(rule) = engine.infer_default(&train) else {
            continue;
        };
        let re = av_match::Regex::new(&rule.to_regex()).expect("exported regex compiles");
        for v in col.values.iter().take(50) {
            assert_eq!(
                rule.conforms(v),
                re.is_full_match(v),
                "pattern {} vs regex /{}/ disagree on {v:?}",
                rule.pattern(),
                rule.to_regex()
            );
        }
        checked += 1;
        if checked >= 25 {
            break;
        }
    }
    assert!(checked >= 10, "checked only {checked} rules");
}

#[test]
fn auto_rule_fallback_covers_vocabulary_columns() {
    let (_, index) = shared();
    let engine = AutoValidate::new(index, FmdvConfig::scaled_for_corpus(index.num_columns));
    // A vocabulary column of mixed-width words: patterns decline, the
    // dictionary fallback takes over.
    let statuses: Vec<String> = (0..200)
        .map(|i| ["Delivered", "Pending", "Throttled", "No"][i % 4].to_string())
        .collect();
    let rule = engine.infer_auto(&statuses).expect("some rule");
    let same: Vec<String> = (0..100)
        .map(|i| ["Pending", "No", "Delivered"][i % 3].to_string())
        .collect();
    assert!(!rule.validate(&same).flagged);
    let swapped: Vec<String> = (0..100).map(|i| format!("10.0.0.{i}")).collect();
    assert!(rule.validate(&swapped).flagged);
}

#[test]
fn tagging_generalizes_across_the_lake() {
    let (corpus, index) = shared();
    let engine = AutoValidate::new(index, FmdvConfig::scaled_for_corpus(index.num_columns));
    // Find a popular machine domain with several columns and check the tag
    // from one column reaches another.
    use std::collections::HashMap;
    let mut by_domain: HashMap<&str, Vec<&Column>> = HashMap::new();
    for col in corpus.columns() {
        if col.meta.kind == av_corpus::ColumnKind::Machine
            && col.meta.dirty_rate == 0.0
            && col.len() >= 30
        {
            if let Some(d) = col.meta.domain.as_deref() {
                by_domain.entry(d).or_default().push(col);
            }
        }
    }
    let mut tested = 0;
    for (domain, cols) in by_domain {
        if cols.len() < 2 || domain == "boolean" || domain == "country-code" {
            continue;
        }
        if let Ok(tag) = engine.infer_tag(&cols[0].values, 0.02) {
            if tag.tags(&cols[1].values) {
                tested += 1;
            }
        }
        if tested >= 3 {
            break;
        }
    }
    assert!(tested >= 3, "tagging should generalize for popular domains");
}
