//! Robustness / failure-injection: adversarial inputs across the public
//! API surface must degrade gracefully — errors, never panics or hangs.

use auto_validate::prelude::*;
use std::sync::{Arc, OnceLock};

fn index() -> &'static Arc<PatternIndex> {
    static IDX: OnceLock<Arc<PatternIndex>> = OnceLock::new();
    IDX.get_or_init(|| {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(500), 1);
        let cols: Vec<&Column> = corpus.columns().collect();
        Arc::new(PatternIndex::build(&cols, &IndexConfig::default()))
    })
}

fn engine() -> AutoValidate<'static> {
    let idx = index();
    AutoValidate::new(idx, FmdvConfig::scaled_for_corpus(idx.num_columns))
}

#[test]
fn adversarial_training_columns_never_panic() {
    let e = engine();
    let adversarial: Vec<Vec<String>> = vec![
        vec![],                                                 // empty column
        vec!["".into()],                                        // single empty string
        vec!["".into(); 50],                                    // all empty
        vec!["a".into()],                                       // single char
        vec!["x".repeat(5000)],                                 // very long value
        vec!["日本語".into(), "中文".into()],                   // non-ASCII
        vec!["\u{0}\u{1}\u{2}".into()],                         // control chars
        (0..100).map(|i| format!("{i}")).collect(),             // plain ints
        vec!["a b c d e f g h i j k l m n o p".into(); 10],     // many tokens
        vec!["-".into(), "?".into(), "".into(), "NULL".into()], // all specials
        (0..50).map(|i| "abc".repeat(i % 20 + 1)).collect(),    // wildly varying widths
    ];
    for (i, train) in adversarial.iter().enumerate() {
        for variant in [
            Variant::Fmdv,
            Variant::FmdvV,
            Variant::FmdvH,
            Variant::FmdvVH,
        ] {
            let _ = e.infer(train, variant); // Ok or Err, never panic
        }
        let _ = e.infer_auto(train);
        let _ = e.infer_tag(train, 0.05);
        let _ = i;
    }
}

#[test]
fn adversarial_validation_inputs_never_panic() {
    let e = engine();
    let train: Vec<String> = (0..40).map(|i| format!("{:04}", i)).collect();
    let Ok(rule) = e.infer_default(&train) else {
        return;
    };
    for test_col in [
        vec![],
        vec!["".to_string()],
        vec!["™∞é".to_string()],
        vec!["9".repeat(10_000)],
        (0..10_000).map(|i| i.to_string()).collect::<Vec<_>>(),
    ] {
        let report = rule.validate(&test_col);
        assert!(report.nonconforming <= report.checked);
        assert!((0.0..=1.0).contains(&report.p_value));
    }
}

#[test]
fn extreme_configs_are_handled() {
    let idx = index();
    let train: Vec<String> = (0..30)
        .map(|i| format!("{:02}:{:02}", i % 24, i % 60))
        .collect();
    // r = 0 (strictest), m = huge (nothing feasible), θ = 1 (everything cut).
    for (r, m, theta) in [
        (0.0, 1, 0.1),
        (0.1, u64::MAX, 0.1),
        (0.1, 1, 1.0),
        (1.0, 0, 0.0),
    ] {
        let mut config = FmdvConfig::scaled_for_corpus(idx.num_columns);
        config.r = r;
        config.m = m;
        config.theta = theta;
        let e = AutoValidate::new(idx, config);
        for variant in [
            Variant::Fmdv,
            Variant::FmdvV,
            Variant::FmdvH,
            Variant::FmdvVH,
        ] {
            let _ = e.infer(&train, variant);
        }
    }
}

#[test]
fn corrupted_index_bytes_are_rejected_not_trusted() {
    let idx = index();
    let bytes = idx.to_bytes();
    // Flip bytes at several offsets; load must either error or produce an
    // index that still answers lookups without panicking.
    for offset in [0usize, 3, 7, 12, 20, bytes.len() / 2, bytes.len() - 1] {
        let mut corrupted = bytes.to_vec();
        corrupted[offset] ^= 0xFF;
        match PatternIndex::from_bytes(&corrupted) {
            Err(_) => {}
            Ok(loaded) => {
                let p = parse("<digit>{4}").unwrap();
                let _ = loaded.lookup(&p);
            }
        }
    }
    // Truncations at every power of two.
    let mut cut = 1usize;
    while cut < bytes.len() {
        let _ = PatternIndex::from_bytes(&bytes[..cut]);
        cut *= 2;
    }
}

#[test]
fn pattern_parser_rejects_garbage_without_panic() {
    for garbage in [
        "<",
        ">",
        "<digit>{",
        "<digit>{999999999999}",
        "<nope>+",
        "\\",
        "<any>{3}",
        "<<>>",
        "<digit>{-1}",
        "a<b>c",
    ] {
        let _ = parse(garbage); // Err is fine; panic is not
    }
}

#[test]
fn unicode_values_roundtrip_through_the_whole_stack() {
    let e = engine();
    // Mixed-script machine-ish column: "ID-<digits>" with a unicode prefix.
    let train: Vec<String> = (0..40).map(|i| format!("№-{i:04}")).collect();
    if let Ok(rule) = e.infer_auto(&train) {
        assert!(rule.conforms("№-9999") || !rule.conforms("№-9999")); // no panic
        let report = rule.validate(&train);
        assert!(
            !report.flagged,
            "training data must conform to its own rule"
        );
    }
}

#[test]
fn empty_and_single_value_columns_are_consistent() {
    use av_pattern::{analyze_column, column_pattern_profile, hypothesis_space, PatternConfig};
    let cfg = PatternConfig::default();
    // Column of empty strings: one empty-pattern group.
    let empties = vec![String::new(); 10];
    let analysis = analyze_column(&empties, &cfg);
    assert_eq!(analysis.groups.len(), 1);
    assert!(analysis.is_homogeneous());
    // Hypothesis space for empty strings: just the empty pattern.
    let h = hypothesis_space(&empties, &cfg);
    assert_eq!(h.len(), 1);
    assert!(h[0].is_empty());
    // Profiles never report matched fractions above 1.
    let profile = column_pattern_profile(&empties, &cfg, 13);
    for (_, f) in profile {
        assert!((0.0..=1.0 + 1e-9).contains(&f));
    }
}

/// A hostile value costs its length, not the rule's branching: the
/// `<any>+`-rich shape FMDV-V / FMDV-VH infer, against `a-a-…` values of 1,
/// 4 and 16 KiB. Backtracking over the five `<any>+` / `<alnum>+` runs
/// before the space takes 1.14 s on the 16 KiB value that cannot match;
/// every check here must finish within 5 ms (bound checked in release,
/// where the automaton runs at speed; a 2-core x86-64 container reads
/// 3–70 µs).
#[test]
fn hostile_values_are_checked_in_time_linear_in_their_length() {
    let rule = hostile_rule();
    for kib in [1usize, 4, 16] {
        let body = "a-".repeat(kib * 512);
        let accepted = format!("{body}a a-a");
        for (value, conforms) in [(body.as_str(), false), (accepted.as_str(), true)] {
            let start = std::time::Instant::now();
            let verdict = rule.check(value);
            let took = start.elapsed();
            assert_eq!(verdict.is_conform(), conforms, "{kib} KiB");
            if !cfg!(debug_assertions) {
                assert!(
                    took <= std::time::Duration::from_millis(5),
                    "{kib} KiB value (conforms: {conforms}) took {took:?}"
                );
            }
        }
    }
}

/// The `<any>+`-rich shape FMDV-V / FMDV-VH infer.
fn hostile_rule() -> ValidationRule {
    ValidationRule::new(
        parse("<alnum>+<any>+<alnum>+<any>+<any>+ <alnum>+<any>+<alnum>+").unwrap(),
        0.0,
        100,
        0.001,
        10,
        av_stats::HomogeneityTest::FisherExact,
        0.01,
    )
}

/// The fastest of three runs of `f`, so one preempted run on a busy
/// machine does not decide the bound.
fn fastest_of_three<T>(mut f: impl FnMut() -> T) -> (T, std::time::Duration) {
    let mut best = None;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        let out = f();
        let took = start.elapsed();
        if best.as_ref().is_none_or(|(_, t)| took < *t) {
            best = Some((out, took));
        }
    }
    best.expect("three runs")
}

/// Explaining a hostile value costs its length too: `explain` on the 1, 4
/// and 16 KiB `a-a-…` values that cannot match, and a `validate` of a
/// flagged column whose first bad value is the 16 KiB one, which captures
/// that value's explanation as the rule's failure exemplar. Backtracking
/// over the `<any>+` runs took 6.3 ms to explain the 1 KiB value and
/// 102 ms for 4 KiB; each call here must finish within 5 ms (bound checked
/// in release).
#[test]
fn hostile_values_are_explained_in_time_linear_in_their_length() {
    use auto_validate::av_service::CatalogEntry;
    let within_bound = |what: &str, took: std::time::Duration| {
        if !cfg!(debug_assertions) {
            assert!(
                took <= std::time::Duration::from_millis(5),
                "{what} took {took:?}"
            );
        }
    };
    let rule = hostile_rule();
    for kib in [1usize, 4, 16] {
        let body = "a-".repeat(kib * 512);
        let (explanation, took) = fastest_of_three(|| rule.explain(&body));
        let explanation = explanation.expect("the value does not conform");
        assert_eq!(explanation.failed_at, Some(body.len()), "{kib} KiB");
        within_bound(&format!("explaining the {kib} KiB value"), took);
    }

    let storage = Arc::new(av_durable::MemStorage::new());
    let mut catalog = RuleCatalog::new();
    catalog.insert(CatalogEntry {
        name: "hostile".to_string(),
        rule: AnyRule::Pattern(rule),
        variant: "FMDV-VH".to_string(),
        created_unix: 0,
    });
    catalog
        .save_with(storage.as_ref(), "/hostile/rules.avcat")
        .unwrap();
    let service = ValidationService::open(ServiceConfig {
        data_dir: Some("/hostile".into()),
        storage,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut column = vec!["a-".repeat(16 * 512)];
    column.extend((0..29).map(|i| format!("drift-{i}")));
    let (report, took) = fastest_of_three(|| service.validate("hostile", &column).unwrap());
    assert!(report.flagged, "{report:?}");
    within_bound("validating the flagged column", took);
}
