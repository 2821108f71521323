//! Readers against one in-place writer: while a writer applies 200
//! single-column deltas to a [`ShardedIndex`], four readers snapshot in a
//! loop. Every `(num_columns, content_digest)` a reader sees must be one
//! of the 201 states a sequential merge passes through — a merge that
//! wrote to memory a snapshot still shares would show up as a digest that
//! belongs to no prefix — and a reader never sees the index go backwards.
//!
//! The writer waits for a fresh read between merges, so the 200 merges
//! interleave with at least 200 reads however the scheduler places the
//! five threads: some merges find a snapshot alive (and copy what it
//! shares), some find none (and write in place). CI runs this in release,
//! where the race window is the real one.
//!
//! The states themselves are refereed too: the sequential pass merges each
//! delta after a `to_bytes` / `from_bytes` round trip, and after every
//! merge (every 20th in a debug build) each shard's prefix keys equal
//! those of a from-scratch build over the same columns; the final state
//! keeps them through persist → load and through a reshard.

use av_corpus::{generate_lake, Column, ColumnMeta, LakeProfile};
use av_index::{IndexConfig, IndexDelta, PatternIndex, ShardedIndex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

const DELTAS: usize = 200;
const READERS: usize = 4;

fn word_column(tag: usize) -> Column {
    Column {
        name: format!("word-{tag}"),
        values: (0..30).map(|row| format!("W{tag}-{}", row % 3)).collect(),
        meta: ColumnMeta::machine("readers-test", None),
    }
}

/// Every shard's prefix keys, in shard order.
fn prefix_keys(index: &PatternIndex) -> Vec<Vec<u64>> {
    index.shards().iter().map(|s| s.prefix_keys()).collect()
}

#[test]
fn readers_see_only_prefix_states_in_order() {
    let config = IndexConfig::default();
    let base = generate_lake(&LakeProfile::tiny().scaled(30), 17);
    let base_columns: Vec<&Column> = base.columns().collect();
    let wide = generate_lake(&LakeProfile::tiny().scaled(DELTAS / 10), 18);
    let mut wide_columns = wide.columns();
    // Every tenth delta is a lake column (lands in most shards), the rest
    // are narrow (a handful of shards each).
    let columns: Vec<Column> = (0..DELTAS)
        .map(|i| match i % 10 {
            9 => wide_columns.next().expect("one per ten").clone(),
            _ => word_column(i),
        })
        .collect();
    let deltas: Vec<IndexDelta> = columns
        .iter()
        .map(|c| IndexDelta::profile(&[c], &config))
        .collect();

    let stride = if cfg!(debug_assertions) { 20 } else { 1 };
    let mut sequential = PatternIndex::build(&base_columns, &config);
    let mut prefix_digests = vec![sequential.content_digest()];
    let mut merged = base_columns.clone();
    for (i, (delta, column)) in deltas.iter().zip(&columns).enumerate() {
        let replayed = IndexDelta::from_bytes(&delta.to_bytes()).expect("a delta round-trips");
        sequential.merge_delta(replayed).unwrap();
        prefix_digests.push(sequential.content_digest());
        merged.push(column);
        if (i + 1) % stride == 0 {
            let rebuilt = PatternIndex::build(&merged, &config);
            assert_eq!(
                prefix_keys(&sequential),
                prefix_keys(&rebuilt),
                "prefix keys after {} merges differ from a rebuild",
                i + 1
            );
        }
    }
    let keys = prefix_keys(&sequential);
    assert!(keys.iter().any(|shard| !shard.is_empty()), "no prefix kept");
    let loaded = PatternIndex::from_bytes(&sequential.to_bytes()).expect("the image loads");
    assert_eq!(prefix_keys(&loaded), keys, "persist → load");
    let resharded = sequential.clone().reshard(3);
    let rebuilt_at_3 = PatternIndex::build(
        &merged,
        &IndexConfig {
            shard_bits: 3,
            ..config.clone()
        },
    );
    assert_eq!(
        prefix_keys(&resharded),
        prefix_keys(&rebuilt_at_3),
        "reshard"
    );
    assert_eq!(prefix_keys(&resharded.reshard(config.shard_bits)), keys);

    let sharded = ShardedIndex::new(PatternIndex::build(&base_columns, &config));
    let start = Barrier::new(READERS + 1);
    let reads = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (sharded, start, reads, done) = (&sharded, &start, &reads, &done);
            let (prefix_digests, base_len) = (&prefix_digests, base_columns.len());
            scope.spawn(move || {
                start.wait();
                let mut last = 0;
                loop {
                    // Read the flag first: the final state is then checked
                    // at least once by every reader.
                    let finished = done.load(Ordering::SeqCst);
                    let snapshot = sharded.snapshot();
                    let applied = snapshot.num_columns as usize - base_len;
                    assert_eq!(
                        snapshot.content_digest(),
                        prefix_digests[applied],
                        "reader {reader}: not the state after {applied} merges"
                    );
                    assert!(applied >= last, "reader {reader}: {last} then {applied}");
                    last = applied;
                    drop(snapshot);
                    reads.fetch_add(1, Ordering::SeqCst);
                    if finished {
                        assert_eq!(applied, DELTAS);
                        break;
                    }
                }
            });
        }
        start.wait();
        for delta in deltas {
            let seen = reads.load(Ordering::SeqCst);
            sharded.merge_delta(delta).unwrap();
            while reads.load(Ordering::SeqCst) == seen {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::SeqCst);
    });
    assert_eq!(
        sharded.snapshot().content_digest(),
        prefix_digests[DELTAS],
        "final state differs from the sequential merge"
    );
}
