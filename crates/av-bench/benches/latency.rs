//! Criterion micro-benchmarks for online inference latency (Fig. 14's
//! measurement at micro scale): per-variant rule inference on a prebuilt
//! index, the index probe itself (hit and miss), plus pattern matching and
//! hypothesis enumeration.

use av_core::{AutoValidate, FmdvConfig, Variant};
use av_corpus::{generate_lake, Benchmark, Column, LakeProfile};
use av_index::{IndexConfig, PatternIndex};
use av_pattern::{fnv1a, hypothesis_space, matches, parse, PatternConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn setup() -> (PatternIndex, Vec<String>, Vec<String>) {
    let corpus = generate_lake(&LakeProfile::tiny().scaled(1500), 7);
    let cols: Vec<&Column> = corpus.columns().collect();
    let index = PatternIndex::build(&cols, &IndexConfig::default());
    let times: Vec<String> = (0..100)
        .map(|i| format!("{:02}:{:02}:{:02}", i % 24, (i * 7) % 60, (i * 13) % 60))
        .collect();
    let composite: Vec<String> = (0..100)
        .map(|i| {
            format!(
                "{}-{:02}-{:02}|{:02}:{:02}:{:02}",
                2010 + (i % 20),
                (i % 12) + 1,
                (i % 28) + 1,
                i % 24,
                (i * 7) % 60,
                (i * 13) % 60
            )
        })
        .collect();
    (index, times, composite)
}

fn bench_inference(c: &mut Criterion) {
    let (index, times, composite) = setup();
    let config = FmdvConfig::scaled_for_corpus(index.num_columns);
    let engine = AutoValidate::new(&index, config);
    let mut group = c.benchmark_group("infer");
    for variant in [Variant::Fmdv, Variant::FmdvH] {
        group.bench_function(variant.label(), |b| {
            b.iter(|| black_box(engine.infer(black_box(&times), variant)))
        });
    }
    for variant in [Variant::FmdvV, Variant::FmdvVH] {
        group.bench_function(format!("{} composite", variant.label()), |b| {
            b.iter(|| black_box(engine.infer(black_box(&composite), variant)))
        });
    }
    // A 12-position clock column, 20 training values: the inference the
    // service ledger's `onboard_lake` 90th percentile is made of.
    let timestamps: Vec<String> = (0..20)
        .map(|i| {
            format!(
                "2026-{:02}-{:02}T{:02}:{:02}:{:02}Z",
                (i % 12) + 1,
                (i * 5 % 28) + 1,
                (i * 11) % 24,
                (i * 7) % 60,
                (i * 13) % 60
            )
        })
        .collect();
    group.bench_function("FMDV-VH timestamp-12", |b| {
        b.iter(|| black_box(engine.infer(black_box(&timestamps), Variant::FmdvVH)))
    });
    // What the service ledger's read workloads set up: a 2000-column
    // enterprise lake, then FMDV-VH on the training tenths of 200 sampled
    // columns — the lake-wide cost, one iteration for all 200.
    let lake = generate_lake(&LakeProfile::enterprise().scaled(2000), 42);
    let lake_cols: Vec<&Column> = lake.columns().collect();
    let lake_index = PatternIndex::build(&lake_cols, &IndexConfig::default());
    let lake_engine = AutoValidate::new(
        &lake_index,
        FmdvConfig::scaled_for_corpus(lake_index.num_columns),
    );
    let cases = Benchmark::sample(&lake, 200, 20, 1000, 7);
    group.bench_function("FMDV-VH enterprise-200", |b| {
        b.iter(|| {
            for case in &cases.cases {
                black_box(lake_engine.infer(black_box(&case.train), Variant::FmdvVH)).ok();
            }
        })
    });
    group.finish();
}

/// The probe under every vertical-cut inference: 10 000 fingerprint
/// lookups per iteration, all present or all absent (a DP sweep's probes
/// are ~98 % misses). Hits are visited in an order unrelated to shard or
/// bucket order.
fn bench_index_lookup(c: &mut Criterion) {
    const PROBES: usize = 10_000;
    let (index, _, _) = setup();
    let mut hits: Vec<u64> = index.entries().map(|(fp, _)| fp).collect();
    hits.sort_unstable_by_key(|fp| fp.rotate_left(32));
    hits.truncate(PROBES);
    let misses: Vec<u64> = (0u64..)
        .map(|i| fnv1a(&i.to_le_bytes()))
        .filter(|fp| index.lookup_fingerprint(*fp).is_none())
        .take(PROBES)
        .collect();
    assert_eq!(hits.len(), PROBES, "index smaller than the probe set");
    for (name, probes) in [("index lookup hit", &hits), ("index lookup miss", &misses)] {
        c.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    black_box(probes)
                        .iter()
                        .filter(|fp| index.lookup_fingerprint(**fp).is_some())
                        .count(),
                )
            })
        });
    }
}

fn bench_primitives(c: &mut Criterion) {
    let (_, times, composite) = setup();
    let pattern = parse("<digit>{2}:<digit>{2}:<digit>{2}").unwrap();
    c.bench_function("match 100 values", |b| {
        b.iter(|| {
            black_box(
                times
                    .iter()
                    .filter(|v| matches(black_box(&pattern), v))
                    .count(),
            )
        })
    });
    let cfg = PatternConfig::default();
    c.bench_function("hypothesis_space narrow", |b| {
        b.iter(|| black_box(hypothesis_space(black_box(&times), &cfg).len()))
    });
    c.bench_function("hypothesis_space composite", |b| {
        b.iter(|| black_box(hypothesis_space(black_box(&composite), &cfg).len()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_inference, bench_index_lookup, bench_primitives
}
criterion_main!(benches);
