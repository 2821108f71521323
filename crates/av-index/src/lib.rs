//! # av-index — the Auto-Validate offline index (§2.4)
//!
//! A naive FMDV implementation would scan the whole corpus `T` to compute
//! `FPR_T(h)` and `Cov_T(h)` for every hypothesis — hours per query. The
//! offline stage instead scans `T` once, enumerates `P(D)` for every column
//! `D` (token-limit τ keeps this tractable; vertical cuts recompose wide
//! columns at query time, §3), and aggregates per-pattern impurity and
//! coverage into a [`PatternIndex`]: fingerprint → `(FPR_T, Cov_T)`.
//!
//! The build is a shard-and-merge map/reduce over OS threads (the paper
//! uses a production Map-Reduce cluster — same dataflow). Indexes persist
//! to a compact binary format (AVIX v5, a per-shard directory — the only
//! version read) and are orders of magnitude smaller than the corpus they
//! summarize. A delta is one unrouted [`IndexShard`], so a checkpoint shard
//! file, an AVIX v5 shard section and the body of an AVDL v2 delta record
//! are one section layout, with one writer and one reader.
//!
//! Beside the statistics the index keeps the keys of its patterns' short
//! prefixes, so an inference can skip every part of its enumeration that
//! no indexed pattern extends ([`PatternIndex::admits_prefix`]).
//!
//! ## Sharded copy-on-write maintenance
//!
//! The index is partitioned into a power-of-two number of fingerprint
//! [shards](IndexShard), each behind an `Arc`. For long-running
//! deployments that makes **incremental maintenance O(delta), not
//! O(index)**: profile new columns into an [`IndexDelta`], and
//! [`PatternIndex::merge_delta`] splits it into per-shard sub-deltas and
//! writes to *only the shards the delta touches* — in place, unless a
//! clone of the index still shares the shard, in which case the clone
//! keeps the old one and the merge works on a copy. The result is
//! bit-for-bit identical to a from-scratch rebuild on the union corpus.
//!
//! Concurrent serving goes through [`ShardedIndex`]: readers take
//! internally consistent `Arc<PatternIndex>` epoch snapshots that no later
//! merge writes to; an ingest routes its delta with no lock held and
//! applies it under the epoch's write lock, for as long as the delta is
//! large (see [`shard`]).

mod build;
mod delta;
mod persist;
pub mod shard;
mod stats;

pub use build::{scan_corpus_fpr, IndexConfig, PatternIndex};
pub use delta::{profile_columns, DeltaError, IndexDelta};
pub use persist::PersistError;
pub use shard::{IndexShard, ShardMerge, ShardedIndex};
pub use stats::PatternStats;
