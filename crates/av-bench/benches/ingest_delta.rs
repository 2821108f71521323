//! The `ingest_delta` group: what an ingest costs after profiling, as the
//! service pays it — `ShardedIndex::merge_delta` on a live index.
//!
//! The merge routes the delta to its shards with no lock held and applies
//! it under the epoch's write lock: in place when no snapshot is alive,
//! after cloning the touched shards a snapshot still shares otherwise.
//! `alone` rows measure the first case and must stay flat as the lake
//! grows (O(delta)); `held` rows take a snapshot before every merge, the
//! worst a reader can do to a writer, and grow with the touched shards'
//! share of the index. A row's time is also the longest a `snapshot()`
//! call can wait behind that merge; `merge_bulk` is that bound for a
//! whole-lake load.
//!
//! Two batch shapes bracket the behavior:
//!
//! * `narrow` — four enum-style feed columns (status/level/env/region, a
//!   few dozen distinct patterns total): touches a small fraction of the
//!   shards;
//! * `diverse` — four columns sampled from the synthetic lake (hundreds
//!   of patterns each): touches nearly every shard.
//!
//! Every merge row clones its delta inside the timed loop (the merge
//! consumes it); the `clone_delta` rows are that share, to subtract.
//! `profile_*` measure the lock-free profiling half for context — a
//! 48-value batch runs on the calling thread alone, a 1200-value one asks
//! for helpers — and `spawn_join` is the price of one helper, which is
//! what `HELPER_MIN_VALUES` in `av-index` is set against (PERF.md
//! Point 13). Point 12 records the merge table on 2000- and 10k-column
//! lakes (`AV_INGEST_BENCH_COLS=10000`).

use av_corpus::{generate_lake, Column, ColumnMeta, LakeProfile};
use av_index::{IndexConfig, IndexDelta, PatternIndex, ShardedIndex};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// The second lake size (columns), next to the fixed 2000; CI smoke keeps
/// it modest, PERF runs override.
fn large_lake_cols() -> usize {
    std::env::var("AV_INGEST_BENCH_COLS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000)
}

fn enum_column(name: &str, vocab: &[&str], rows: usize) -> Column {
    Column {
        name: name.to_string(),
        values: (0..rows)
            .map(|i| vocab[i % vocab.len()].to_string())
            .collect(),
        meta: ColumnMeta::machine("ingest-bench", None),
    }
}

/// A recurring telemetry feed: categorical columns whose handful of
/// shapes land in a handful of shards.
fn narrow_batch(rows: usize) -> Vec<Column> {
    vec![
        enum_column("status", &["OK", "RETRY", "FAIL"], rows),
        enum_column("level", &["INFO", "WARN", "ERROR", "DEBUG"], rows),
        enum_column("env", &["prod", "staging"], rows),
        enum_column("region", &["useast", "uswest", "eucentral"], rows),
    ]
}

fn bench_ingest_delta(c: &mut Criterion) {
    let config = IndexConfig::default();
    let narrow = narrow_batch(75);
    let diverse = generate_lake(&LakeProfile::tiny().scaled(4), 23);
    let batches: Vec<(&str, IndexDelta)> = vec![
        (
            "narrow",
            IndexDelta::profile(&narrow.iter().collect::<Vec<_>>(), &config),
        ),
        (
            "diverse",
            IndexDelta::profile(&diverse.columns().collect::<Vec<_>>(), &config),
        ),
    ];

    let mut group = c.benchmark_group("ingest_delta");
    group.sample_size(10);
    for (label, delta) in &batches {
        group.bench_function(format!("clone_delta_{label}"), |b| {
            b.iter(|| black_box(delta.clone()).len())
        });
    }
    for lake_cols in [2000, large_lake_cols()] {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(lake_cols), 11);
        let cols: Vec<&Column> = corpus.columns().collect();
        let index = ShardedIndex::new(PatternIndex::build(&cols, &config));
        for (label, delta) in &batches {
            let touched = delta.touched_shards(config.shard_bits);
            let row =
                |held: &str| format!("merge_{label}/cols{lake_cols}_touch{touched:02}_{held}");
            group.bench_function(row("alone"), |b| {
                b.iter(|| index.merge_delta(black_box(delta.clone())).unwrap())
            });
            group.bench_function(row("held"), |b| {
                b.iter(|| {
                    let reader = index.snapshot();
                    let merged = index.merge_delta(black_box(delta.clone())).unwrap();
                    (merged, reader.num_columns)
                })
            });
        }
    }

    // A whole-lake load into an empty index: the longest apply there is.
    let corpus = generate_lake(&LakeProfile::tiny().scaled(2000), 11);
    let bulk = IndexDelta::profile(&corpus.columns().collect::<Vec<_>>(), &config);
    group.bench_function("clone_delta_bulk", |b| {
        b.iter(|| black_box(bulk.clone()).len())
    });
    // (Timed with the throwaway index's construction and teardown.)
    let row = format!("merge_bulk/cols2000_{}patterns_into_empty", bulk.len());
    group.bench_function(row, |b| {
        b.iter(|| {
            let index = ShardedIndex::new(PatternIndex::build(&[], &config));
            index.merge_delta(black_box(bulk.clone())).unwrap()
        })
    });

    // The lock-free half of ingest, on either side of the helper threshold.
    for (label, batch) in [
        ("profile_48_values", narrow_batch(12)),
        ("profile_1200_values", narrow_batch(300)),
    ] {
        let refs: Vec<&Column> = batch.iter().collect();
        group.bench_function(label, |b| {
            b.iter(|| black_box(IndexDelta::profile(black_box(&refs), &config).len()))
        });
    }
    group.bench_function("spawn_join_one_scoped_thread", |b| {
        b.iter(|| std::thread::scope(|scope| scope.spawn(|| black_box(1)).join()))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_ingest_delta
}
criterion_main!(benches);
