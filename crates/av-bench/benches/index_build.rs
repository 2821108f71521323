//! The `index_build` group: offline index construction throughput
//! (columns/s over the generated lake — the paper's 7M-column cluster job
//! at laptop scale) and end-to-end `AutoValidate::infer` latency against
//! that index. These are the two sides the fingerprint-streaming
//! enumeration speeds up: the §2.4 offline build and the per-request
//! `P(D)` → FMDV candidate pipeline.

use av_core::{AutoValidate, FmdvConfig, Variant};
use av_corpus::{generate_lake, Column, LakeProfile};
use av_index::{IndexConfig, IndexDelta, PatternIndex};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_index_build(c: &mut Criterion) {
    let corpus = generate_lake(&LakeProfile::tiny().scaled(500), 11);
    let cols: Vec<&Column> = corpus.columns().collect();
    let mut group = c.benchmark_group("index_build");
    group.sample_size(10);
    group.throughput(Throughput::Elements(cols.len() as u64));
    for tau in [8usize, 13] {
        let config = IndexConfig {
            tau,
            ..Default::default()
        };
        group.bench_function(format!("tau{tau}_500cols"), |b| {
            b.iter(|| black_box(PatternIndex::build(black_box(&cols), &config).len()))
        });
    }
    // The service ingest path: profile a fresh batch into a delta (the
    // expensive half of `ValidationService::ingest`, run with no lock).
    let batch = generate_lake(&LakeProfile::tiny().scaled(100), 23);
    let batch_cols: Vec<&Column> = batch.columns().collect();
    let config = IndexConfig::default();
    group.throughput(Throughput::Elements(batch_cols.len() as u64));
    group.bench_function("ingest_delta_100cols", |b| {
        b.iter(|| black_box(IndexDelta::profile(black_box(&batch_cols), &config).len()))
    });
    group.finish();
}

fn bench_infer(c: &mut Criterion) {
    let corpus = generate_lake(&LakeProfile::tiny().scaled(800), 77);
    let cols: Vec<&Column> = corpus.columns().collect();
    let index = PatternIndex::build(&cols, &IndexConfig::default());
    let mut cfg = FmdvConfig::scaled_for_corpus(index.num_columns);
    cfg.theta = 0.05;
    let engine = AutoValidate::new(&index, cfg);

    let times: Vec<String> = (0..200)
        .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 7) % 60, (i * 13) % 60))
        .collect();
    let composite: Vec<String> = (0..200)
        .map(|i| {
            format!(
                "{}-{:02}-{:02}|{:02}:{:02}:{:02}|{}",
                2010 + (i % 20),
                (i % 12) + 1,
                (i % 28) + 1,
                i % 24,
                (i * 7) % 60,
                (i * 13) % 60,
                1_400_000_000u64 + i as u64 * 1000,
            )
        })
        .collect();

    let mut group = c.benchmark_group("infer");
    group.sample_size(10);
    group.bench_function("basic_times_200", |b| {
        b.iter(|| black_box(engine.infer(black_box(&times), Variant::Fmdv).is_ok()))
    });
    group.bench_function("vh_times_200", |b| {
        b.iter(|| black_box(engine.infer(black_box(&times), Variant::FmdvVH).is_ok()))
    });
    group.bench_function("vh_composite_200", |b| {
        b.iter(|| black_box(engine.infer(black_box(&composite), Variant::FmdvVH).is_ok()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_index_build, bench_infer
}
criterion_main!(benches);
