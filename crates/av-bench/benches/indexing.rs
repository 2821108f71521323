//! Criterion benchmarks for per-column pattern profiling: the streaming
//! fingerprint path the indexer runs versus the materializing wrapper, and
//! below it the analyzer both start in, by column shape.
//! (Corpus-level build throughput lives in the `index_build` bench.)
//!
//! The `analyze_column` group reads in ns per value (`Throughput::Elements`
//! over the rung's values). Its shapes are the ones the write path meets:
//! the 12-row enum feed of the ledger's `durable_feed`, the 191-row
//! enterprise columns of `onboard_lake`, and two that stress one look-up
//! each — 256 distinct hex ids (one position, a distinct literal per
//! value) and a non-ASCII column (widths counted in characters, symbol
//! runs of multi-byte text). `PERF.md` Point 13 records them.

use av_corpus::{generate_lake, LakeProfile};
use av_pattern::{
    analyze_column, column_pattern_profile, stream_column_profile, EnumScratch, PatternConfig,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_profile_column(c: &mut Criterion) {
    let corpus = generate_lake(&LakeProfile::tiny().scaled(300), 13);
    let col = corpus
        .columns()
        .find(|c| c.len() >= 40)
        .expect("a sizable column");
    let cfg = PatternConfig::default();
    c.bench_function("column_pattern_profile", |b| {
        b.iter(|| black_box(column_pattern_profile(black_box(&col.values), &cfg, 13).len()))
    });
    let mut scratch = EnumScratch::default();
    c.bench_function("stream_column_profile", |b| {
        b.iter(|| {
            let mut n = 0usize;
            let mut sum = 0u64;
            stream_column_profile(
                black_box(&col.values),
                &cfg,
                13,
                &mut scratch,
                |_, _| true,
                |sp, frac| {
                    n += 1;
                    sum = sum.wrapping_add(sp.fingerprint ^ frac.to_bits());
                },
            );
            black_box((n, sum))
        })
    });
}

/// Rows per `onboard_lake` column: the ledger fills a table's columns to a
/// byte budget, 191 values each on average.
const ONBOARD_ROWS: usize = 191;

fn bench_analyze_column(c: &mut Criterion) {
    let cfg = PatternConfig::default();
    let feed: Vec<Vec<String>> = [
        &["active", "pending", "closed", "failed", "queued"][..],
        &["desktop", "mobile", "tablet", "console", "watch"],
        &["red", "green", "blue", "black", "white", "silver", "gold"],
        &["free", "basic", "plus", "premium", "enterprise"],
    ]
    .iter()
    .map(|vocabulary| {
        (0..12)
            .map(|i| vocabulary[i * 7 % vocabulary.len()].to_string())
            .collect()
    })
    .collect();
    let enterprise: Vec<Vec<String>> = generate_lake(&LakeProfile::enterprise().scaled(64), 13)
        .columns()
        .map(|col| {
            let rows = col.values.iter().cycle().take(ONBOARD_ROWS);
            rows.cloned().collect()
        })
        .collect();
    let four_ids: Vec<String> = (0..256u64).map(|i| hex_id(i % 4)).collect();
    let distinct_ids: Vec<String> = (0..256u64).map(hex_id).collect();
    let non_ascii: Vec<String> = (0..ONBOARD_ROWS)
        .map(|i| format!("{}号 · São Paulo №{i:03} — ü{}", i % 17, i % 5))
        .collect();
    let mut group = c.benchmark_group("analyze_column");
    for (label, columns) in [
        ("enum_feed_12_rows", feed),
        ("enterprise_191_rows", enterprise),
        ("hex_ids_4_distinct_of_256", vec![four_ids]),
        ("hex_ids_256_distinct", vec![distinct_ids]),
        ("non_ascii_191_rows", vec![non_ascii]),
    ] {
        let values: usize = columns.iter().map(Vec::len).sum();
        group.throughput(Throughput::Elements(values as u64));
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut positions = 0usize;
                for column in &columns {
                    let analysis = analyze_column(black_box(column), &cfg);
                    positions += analysis
                        .groups
                        .iter()
                        .map(|g| g.positions.len())
                        .sum::<usize>();
                }
                positions
            })
        });
    }
    group.finish();
}

/// A 16-hex-digit id, distinct per `i`, digits and letters interleaved.
fn hex_id(i: u64) -> String {
    format!("{:016x}", i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_profile_column, bench_analyze_column
}
criterion_main!(benches);
