//! Observability cost benchmarks: what the non-conformance `explain` cold
//! path costs relative to plain `check()`, and what per-rule telemetry
//! recording adds to the conforming validation hot path.
//!
//! The design contract being verified: `explain` runs only *after* a
//! failed check (so it may allocate), and telemetry on the conforming path
//! is a handful of relaxed atomic increments per **column** validation —
//! well under 5% of a realistic batch. Measured numbers are recorded as
//! Point 5 in `crates/av-bench/PERF.md`.

use av_core::{AutoValidate, FmdvConfig, ValidationRule, Validator, Variant};
use av_corpus::{generate_lake, Column, LakeProfile};
use av_index::{IndexConfig, PatternIndex};
use av_pattern::parse;
use av_service::{ServiceConfig, ValidationService};
use av_stats::HomogeneityTest;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn train_column() -> Vec<String> {
    (0..100)
        .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 7) % 60, (i * 13) % 60))
        .collect()
}

/// A fully conforming 1000-value batch — the steady-state feed.
fn conforming_batch() -> Vec<String> {
    (0..1000)
        .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 11) % 60, (i * 3) % 60))
        .collect()
}

/// A 1000-value batch with ~5% drifted values — the incident shape.
fn drifting_batch() -> Vec<String> {
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

fn fmdv_rule() -> ValidationRule {
    let corpus = generate_lake(&LakeProfile::tiny().scaled(1200), 7);
    let cols: Vec<&Column> = corpus.columns().collect();
    let index = PatternIndex::build(&cols, &IndexConfig::default());
    let engine = AutoValidate::new(&index, FmdvConfig::scaled_for_corpus(index.num_columns));
    engine
        .infer(train_column(), Variant::FmdvVH)
        .expect("FMDV-VH rule for the time column")
}

/// `explain` vs `check` on single values, and a 5%-drift batch scanned
/// check-only vs check + explain-on-failure.
fn bench_explain_cold_path(c: &mut Criterion) {
    let fmdv = fmdv_rule();
    let batch = drifting_batch();
    let mut group = c.benchmark_group("explain");
    group.bench_function("check drifted value", |b| {
        b.iter(|| black_box(fmdv.check(black_box("drift-42"))))
    });
    group.bench_function("explain drifted value", |b| {
        b.iter(|| black_box(fmdv.explain(black_box("drift-42"))))
    });
    // The `<any>+`-rich shape FMDV-V / FMDV-VH infer, on a 4 KiB `a-a-…`
    // value it cannot match: explaining costs the value's length.
    let any_plus = ValidationRule::new(
        parse("<alnum>+<any>+<alnum>+<any>+<any>+ <alnum>+<any>+<alnum>+").expect("pattern"),
        0.0,
        100,
        0.001,
        50,
        HomogeneityTest::FisherExact,
        0.01,
    );
    let hostile = "a-".repeat(2 * 1024);
    group.bench_function("explain <any>+ rule, 4 KiB hostile value", |b| {
        b.iter(|| black_box(any_plus.explain(black_box(&hostile))))
    });
    group.bench_function("batch 1000 (5% drift), check only", |b| {
        b.iter(|| {
            let mut bad = 0usize;
            for v in &batch {
                if !fmdv.check(black_box(v)).is_conform() {
                    bad += 1;
                }
            }
            black_box(bad)
        })
    });
    group.bench_function("batch 1000 (5% drift), check + explain failures", |b| {
        b.iter(|| {
            let mut bad = 0usize;
            for v in &batch {
                if !fmdv.check(black_box(v)).is_conform() {
                    bad += 1;
                    black_box(fmdv.explain(v));
                }
            }
            black_box(bad)
        })
    });
    group.finish();
}

/// The telemetry tax on the conforming path: the full service `validate`
/// op (catalog lookup + batch check + telemetry) against the bare
/// validator on the same batch.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let service = ValidationService::new(ServiceConfig::default());
    let lake = generate_lake(&LakeProfile::tiny(), 7);
    let columns: Vec<Column> = lake.columns().cloned().collect();
    service.ingest(&columns).expect("ingest");
    service
        .infer_rule("time", &train_column(), None)
        .expect("catalog rule");
    let fmdv = fmdv_rule();
    let batch = conforming_batch();

    let mut group = c.benchmark_group("telemetry");
    group.bench_function("validator batch 1000 conforming (no telemetry)", |b| {
        b.iter(|| black_box(fmdv.validate_batch(batch.iter().map(String::as_str))))
    });
    group.bench_function("service validate 1000 conforming (telemetry on)", |b| {
        b.iter(|| black_box(service.validate(black_box("time"), &batch).unwrap()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_explain_cold_path, bench_telemetry_overhead
}
criterion_main!(benches);
