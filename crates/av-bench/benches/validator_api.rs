//! Micro-benchmarks for the unified `Validator` API: single-value `check()`
//! latency and batch `validate_batch` throughput, FMDV-VH vs the grok
//! baseline, both dispatched statically and through `dyn Validator` (the
//! service's dispatch mode).
//!
//! Measured numbers are recorded as the perf trajectory in
//! `crates/av-bench/PERF.md`.

use av_baselines::{baseline_by_name, InferredRule};
use av_core::{AutoValidate, FmdvConfig, ValidationRule, Validator, Variant};
use av_corpus::{generate_lake, Column, LakeProfile};
use av_index::{IndexConfig, PatternIndex};
use av_pattern::{matches, parse, CompiledPattern};
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
    group.finish();
}

/// Compiled vs interpreted matching on the same patterns: the fixed-width
/// FMDV-VH shape (deterministic program) and a variadic date-time shape
/// (backtracking program), each on a conforming and a drifted value.
fn bench_matcher_compiled_vs_reference(c: &mut Criterion) {
    let fixed = parse("<digit>{2}:<digit>{2}:<digit>{2}").expect("fixed pattern");
    let variadic =
        parse("<digit>+/<digit>{2}/<digit>{4} <digit>+:<digit>{2}:<digit>{2} <letter>{2}")
            .expect("variadic pattern");
    let fixed_c = CompiledPattern::compile(&fixed);
    let variadic_c = CompiledPattern::compile(&variadic);
    let mut group = c.benchmark_group("matcher");
    group.bench_function("reference fixed conforming", |b| {
        b.iter(|| black_box(matches(black_box(&fixed), black_box("09:07:32"))))
    });
    group.bench_function("compiled fixed conforming", |b| {
        b.iter(|| black_box(fixed_c.matches(black_box("09:07:32"))))
    });
    group.bench_function("reference fixed drifted", |b| {
        b.iter(|| black_box(matches(black_box(&fixed), black_box("drift-42"))))
    });
    group.bench_function("compiled fixed drifted", |b| {
        b.iter(|| black_box(fixed_c.matches(black_box("drift-42"))))
    });
    group.bench_function("reference variadic conforming", |b| {
        b.iter(|| {
            black_box(matches(
                black_box(&variadic),
                black_box("9/07/2019 12:01:32 PM"),
            ))
        })
    });
    group.bench_function("compiled variadic conforming", |b| {
        b.iter(|| black_box(variadic_c.matches(black_box("9/07/2019 12:01:32 PM"))))
    });
    group.finish();
}

/// One-time compile cost — the price paid at inference/load time to make
/// every later check allocation-free.
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
        bench_matcher_compiled_vs_reference, bench_compile_cost
}
criterion_main!(benches);
