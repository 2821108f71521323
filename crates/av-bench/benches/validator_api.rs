//! Micro-benchmarks for the unified `Validator` API: single-value `check()`
//! latency and batch `validate_batch` throughput, FMDV-VH vs the grok
//! baseline, both dispatched statically and through `dyn Validator` (the
//! service's dispatch mode). A rule checks on its one-rule automaton; the
//! `<any>+` rows time it on the `<any>+`-rich shape FMDV-V / FMDV-VH
//! infer, where a backtracking matcher is at its worst.
//!
//! Measured numbers are recorded as the perf trajectory in
//! `crates/av-bench/PERF.md`.

use av_baselines::{baseline_by_name, InferredRule};
use av_core::{AutoValidate, FmdvConfig, ValidationRule, Validator, Variant};
use av_corpus::{generate_lake, Column, LakeProfile};
use av_index::{IndexConfig, PatternIndex};
use av_match::CatalogMatcher;
use av_pattern::{matches, parse, CompiledPattern, Pattern};
use av_stats::HomogeneityTest;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn train_column() -> Vec<String> {
    (0..100)
        .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 7) % 60, (i * 13) % 60))
        .collect()
}

/// A 1000-value future batch: mostly conforming, ~5% drift.
fn future_batch() -> Vec<String> {
    (0..1000)
        .map(|i| {
            if i % 20 == 19 {
                format!("drift-{i}")
            } else {
                format!("{:02}:{:02}:{:02}", i % 24, (i * 11) % 60, (i * 3) % 60)
            }
        })
        .collect()
}

/// An `<any>+`-rich FMDV-VH rule shape, built directly.
fn any_plus_rule() -> ValidationRule {
    ValidationRule::new(
        parse("<alnum>+<any>+<alnum>+<any>+<any>+ <alnum>+<any>+<alnum>+").expect("pattern"),
        0.0,
        100,
        0.001,
        50,
        HomogeneityTest::FisherExact,
        0.01,
    )
}

/// A 1000-value batch for [`any_plus_rule`]: request lines, ~5% of them
/// drifted to a form with no space, which every split must try and fail.
fn any_plus_batch() -> Vec<String> {
    (0..1000)
        .map(|i| {
            if i % 20 == 19 {
                format!("drift-{i}-node-{}/api-v{}", i % 7, i % 3)
            } else {
                format!("host{}.prod/api-v{} GET-{}", i % 50, i % 3, 200 + i % 5)
            }
        })
        .collect()
}

fn rules() -> (ValidationRule, InferredRule) {
    let corpus = generate_lake(&LakeProfile::tiny().scaled(1200), 7);
    let cols: Vec<&Column> = corpus.columns().collect();
    let index = PatternIndex::build(&cols, &IndexConfig::default());
    let engine = AutoValidate::new(&index, FmdvConfig::scaled_for_corpus(index.num_columns));
    let train = train_column();
    let fmdv = engine
        .infer(&train, Variant::FmdvVH)
        .expect("FMDV-VH rule for the time column");
    let refs: Vec<&str> = train.iter().map(String::as_str).collect();
    let grok = baseline_by_name("grok")
        .expect("grok baseline")
        .infer(&refs)
        .expect("grok adopts the TIME type");
    (fmdv, grok)
}

fn bench_check_latency(c: &mut Criterion) {
    let (fmdv, grok) = rules();
    let mut group = c.benchmark_group("check");
    group.bench_function("FMDV-VH conforming", |b| {
        b.iter(|| black_box(fmdv.check(black_box("09:07:32"))))
    });
    group.bench_function("FMDV-VH drifted", |b| {
        b.iter(|| black_box(fmdv.check(black_box("drift-42"))))
    });
    group.bench_function("grok conforming", |b| {
        b.iter(|| black_box(grok.check(black_box("09:07:32"))))
    });
    group.bench_function("grok drifted", |b| {
        b.iter(|| black_box(grok.check(black_box("drift-42"))))
    });
    // Dyn dispatch, as the validation service performs it.
    let dyn_fmdv: &dyn Validator = &fmdv;
    group.bench_function("FMDV-VH via dyn Validator", |b| {
        b.iter(|| black_box(dyn_fmdv.check(black_box("09:07:32"))))
    });
    let any_plus = any_plus_rule();
    for (label, value) in [
        ("conforming", "host7.prod/api-v2 GET-200"),
        ("drifted", "drift-19-node-5/api-v1"),
    ] {
        group.bench_function(format!("FMDV-VH <any>+ automaton {label}"), |b| {
            b.iter(|| black_box(any_plus.check(black_box(value))))
        });
    }
    group.finish();
}

fn bench_batch_throughput(c: &mut Criterion) {
    let (fmdv, grok) = rules();
    let batch = future_batch();
    let mut group = c.benchmark_group("validate_batch 1000 values");
    group.bench_function("FMDV-VH", |b| {
        b.iter(|| black_box(fmdv.validate_batch(batch.iter().map(String::as_str))))
    });
    group.bench_function("grok", |b| {
        b.iter(|| black_box(grok.validate_batch(batch.iter().map(String::as_str))))
    });
    let dyn_fmdv: &dyn Validator = &fmdv;
    group.bench_function("FMDV-VH via dyn Validator", |b| {
        b.iter(|| black_box((&dyn_fmdv).validate_batch(batch.iter().map(String::as_str))))
    });
    let any_plus = any_plus_rule();
    let any_plus_batch = any_plus_batch();
    group.bench_function("FMDV-VH <any>+ automaton", |b| {
        b.iter(|| black_box(any_plus.validate_batch(any_plus_batch.iter().map(String::as_str))))
    });
    group.finish();
}

/// A one-rule automaton vs the reference matcher on the same patterns: the
/// fixed-width FMDV-VH shape and a variadic date-time shape, on a
/// conforming and a drifted value.
fn bench_matcher_automaton_vs_reference(c: &mut Criterion) {
    let fixed = parse("<digit>{2}:<digit>{2}:<digit>{2}").expect("fixed pattern");
    let variadic =
        parse("<digit>+/<digit>{2}/<digit>{4} <digit>+:<digit>{2}:<digit>{2} <letter>{2}")
            .expect("variadic pattern");
    let one_rule = |pattern: &Pattern| {
        let mut matcher = CatalogMatcher::new();
        matcher.insert(0, &pattern.compile());
        matcher
    };
    let (fixed_a, variadic_a) = (one_rule(&fixed), one_rule(&variadic));
    let mut group = c.benchmark_group("matcher");
    group.bench_function("reference fixed conforming", |b| {
        b.iter(|| black_box(matches(black_box(&fixed), black_box("09:07:32"))))
    });
    group.bench_function("automaton fixed conforming", |b| {
        b.iter(|| black_box(fixed_a.is_match(black_box("09:07:32"))))
    });
    group.bench_function("reference fixed drifted", |b| {
        b.iter(|| black_box(matches(black_box(&fixed), black_box("drift-42"))))
    });
    group.bench_function("automaton fixed drifted", |b| {
        b.iter(|| black_box(fixed_a.is_match(black_box("drift-42"))))
    });
    group.bench_function("reference variadic conforming", |b| {
        b.iter(|| {
            black_box(matches(
                black_box(&variadic),
                black_box("9/07/2019 12:01:32 PM"),
            ))
        })
    });
    group.bench_function("automaton variadic conforming", |b| {
        b.iter(|| black_box(variadic_a.is_match(black_box("9/07/2019 12:01:32 PM"))))
    });
    group.finish();
}

/// One-time compile cost — the price paid at inference/load time for the
/// program every automaton is built from.
fn bench_compile_cost(c: &mut Criterion) {
    let fixed = parse("<digit>{2}:<digit>{2}:<digit>{2}").expect("fixed pattern");
    let variadic =
        parse("<digit>+/<digit>{2}/<digit>{4} <digit>+:<digit>{2}:<digit>{2} <letter>{2}")
            .expect("variadic pattern");
    let mut group = c.benchmark_group("compile");
    group.bench_function("fixed 5-token pattern", |b| {
        b.iter(|| black_box(CompiledPattern::compile(black_box(&fixed))))
    });
    group.bench_function("variadic 13-token pattern", |b| {
        b.iter(|| black_box(CompiledPattern::compile(black_box(&variadic))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_check_latency, bench_batch_throughput,
        bench_matcher_automaton_vs_reference, bench_compile_cost
}
criterion_main!(benches);
