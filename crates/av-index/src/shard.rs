//! Fingerprint-sharded index storage and the concurrent wrapper.
//!
//! The index is partitioned into a power-of-two number of [`IndexShard`]s
//! by the **top bits** of the pattern fingerprint. That leaves the low
//! bits uniform inside a shard, but not the top ones, and a shard's map
//! draws its 7-bit control tags from the top of the *hash* — so the maps
//! hash fingerprints through `FingerprintHasher`, which keeps
//! both the bucket index and the tag uniform with up to 12 top key bits
//! constant; routing itself always reads the raw fingerprint. Shards
//! are held behind `Arc`s, which is what makes ingest O(delta) instead of
//! O(index): merging an [`crate::IndexDelta`] writes into the shards the
//! delta's fingerprints land in and nowhere else, and it copies one of
//! them first only while some snapshot still shares it.
//!
//! Two layers use this:
//!
//! * [`crate::PatternIndex`] is the *value* type: a vector of shard `Arc`s
//!   plus corpus metadata. Cloning it is cheap (pointer copies), and
//!   [`crate::PatternIndex::merge_delta`] is copy-on-write per touched
//!   shard: `Arc::make_mut` clones a shard a clone of the index still
//!   points to and mutates in place one that nobody else holds.
//! * [`ShardedIndex`] is the *concurrent* wrapper a long-running service
//!   owns: one epoch slot behind a `RwLock`. A snapshot clones the slot's
//!   `Arc` under the read lock; a merge applies the same copy-on-write
//!   merge to the slot under the write lock, so readers always see a
//!   consistent index — never a torn one — and a snapshot, once taken, is
//!   never written to.

use crate::build::{FastMap, FastSet, PatternIndex};
use crate::delta::{DeltaError, IndexDelta, ShardPart};
use crate::stats::StatsAcc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Default number of shard bits (2⁶ = 64 shards): fine enough that a
/// small delta republishes a small fraction of the index, coarse enough
/// that per-shard map overhead stays negligible.
pub(crate) const DEFAULT_SHARD_BITS: u32 = 6;

/// Upper bound on shard bits (2¹² = 4096 shards) — beyond this the
/// per-shard fixed costs dominate any republish savings.
pub(crate) const MAX_SHARD_BITS: u32 = 12;

/// Which shard a fingerprint belongs to: the top `shard_bits` bits.
/// Using the *top* bits makes ascending (shard, fingerprint) order
/// identical to ascending global fingerprint order (the persist layout
/// relies on it). It also makes those bits constant within a shard, which
/// is why the shard maps do not hash fingerprints with the identity
/// function (see [`crate::FingerprintHasher`]).
#[inline]
pub(crate) fn shard_of(fingerprint: u64, shard_bits: u32) -> usize {
    if shard_bits == 0 {
        0
    } else {
        (fingerprint >> (64 - shard_bits)) as usize
    }
}

/// One shard of the index: the fingerprint → accumulator map (and display
/// strings, in `keep_patterns` builds) for every pattern whose fingerprint
/// routes here, the prefix keys ([`PatternIndex::admits_prefix`]) that
/// route here, plus a version counter bumped on each merge that touched
/// this shard. A shard some snapshot points to is never written to (the
/// merge copies it first); versions let tests and monitoring assert that
/// an ingest touched only the shards its delta has entries for.
#[derive(Debug, Default)]
pub struct IndexShard {
    pub(crate) map: FastMap<StatsAcc>,
    pub(crate) patterns: FastMap<String>,
    pub(crate) prefixes: FastSet,
    pub(crate) version: u64,
}

#[cfg(test)]
thread_local! {
    /// Index entries [`IndexShard::clone`] has copied on this thread — the
    /// work an ingest must not do for shards no snapshot shares.
    pub(crate) static ENTRIES_CLONED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Clone for IndexShard {
    fn clone(&self) -> IndexShard {
        #[cfg(test)]
        ENTRIES_CLONED.with(|n| n.set(n.get() + self.map.len()));
        IndexShard {
            map: self.map.clone(),
            patterns: self.patterns.clone(),
            prefixes: self.prefixes.clone(),
            version: self.version,
        }
    }
}

impl IndexShard {
    /// Number of distinct patterns stored in this shard.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no pattern routes to this shard yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// How many delta merges have touched this shard since it was built
    /// or loaded.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The prefix keys stored in this shard, ascending — the order they
    /// persist in.
    pub fn prefix_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.prefixes.iter().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Fold another shard's accumulators, display strings and prefix keys
    /// into this one: the reduce of a delta's workers, and of a reshard.
    /// The fixed-point accumulator merge is exactly associative and
    /// commutative, so any merge order produces identical bytes.
    pub(crate) fn absorb(&mut self, other: IndexShard) {
        self.fold(other.map, other.patterns, other.prefixes);
    }

    /// Fold one per-shard sub-delta in, as [`IndexShard::absorb`] does,
    /// and bump the version.
    pub(crate) fn apply(&mut self, part: ShardPart) {
        self.fold(part.acc, part.names, part.prefixes);
        self.version += 1;
    }

    /// The one merge loop behind [`IndexShard::absorb`] and
    /// [`IndexShard::apply`].
    fn fold(
        &mut self,
        acc: impl IntoIterator<Item = (u64, StatsAcc)>,
        names: impl IntoIterator<Item = (u64, String)>,
        prefixes: impl IntoIterator<Item = u64>,
    ) {
        for (fp, acc) in acc {
            self.map.entry(fp).or_default().merge(&acc);
        }
        for (fp, name) in names {
            self.patterns.entry(fp).or_insert(name);
        }
        self.prefixes.extend(prefixes);
    }
}

/// What one [`ShardedIndex::merge_delta`] changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMerge {
    /// Shards the delta has entries for. No other shard was written to,
    /// and every other shard keeps its `Arc` across the merge.
    pub touched_shards: usize,
    /// Touched shards that were cloned before the write because a snapshot
    /// still shared them; the rest were merged in place. Zero means the
    /// merge cost what its delta cost.
    pub copied_shards: usize,
    /// Distinct patterns the delta contributed (pre-merge).
    pub delta_patterns: usize,
    /// Corpus columns in the index after the merge.
    pub num_columns: u64,
    /// Distinct patterns in the index after the merge.
    pub total_patterns: usize,
}

/// The concurrent sharded index a long-running service owns.
///
/// * **Readers** call [`ShardedIndex::snapshot`]: one `RwLock` read to
///   clone the current epoch's `Arc<PatternIndex>`. What they hold is
///   immutable for as long as they hold it and internally consistent (a
///   merge is applied under the write lock, so a snapshot can never mix
///   shards from a half-applied ingest). Taking it may wait for a
///   delta's apply — 0.04–0.1 µs per delta pattern on the dev container:
///   0.2 ms for a ten-column ingest (~2 k patterns), under 10 ms for a
///   2000-column bulk load (~180 k; `ingest_delta` bench, `merge_bulk`).
/// * **Writers** call [`ShardedIndex::merge_delta`]: the delta is routed
///   into per-shard sub-deltas with no lock held, then applied under the
///   write lock by [`PatternIndex`]'s own copy-on-write merge. With no
///   snapshot alive that is an in-place update of the touched shards'
///   maps; a shard (or the epoch's pointer vector) that a snapshot still
///   shares is cloned first and the snapshot keeps the old one. Merges
///   are serialized by the lock — what they hold it for is the delta's
///   size, never the index's.
#[derive(Debug)]
pub struct ShardedIndex {
    epoch: RwLock<Arc<PatternIndex>>,
    /// Fixed for the lifetime of the wrapper, so a delta can be routed
    /// before the epoch lock is taken.
    shard_bits: u32,
    /// Bumped once per published epoch (install or delta merge), so
    /// monitoring can tell "the index changed" apart from "the same index,
    /// observed twice" without comparing snapshots.
    generation: AtomicU64,
}

impl ShardedIndex {
    /// Wrap an index for concurrent serving. The shard count is fixed for
    /// the lifetime of the wrapper; [`ShardedIndex::install`] reshapes
    /// replacement images to it.
    pub fn new(index: PatternIndex) -> ShardedIndex {
        ShardedIndex {
            shard_bits: index.shard_bits(),
            epoch: RwLock::new(Arc::new(index)),
            generation: AtomicU64::new(0),
        }
    }

    /// The current epoch: an internally consistent index that no later
    /// merge writes to.
    pub fn snapshot(&self) -> Arc<PatternIndex> {
        Arc::clone(&self.epoch.read().expect("index epoch lock poisoned"))
    }

    /// How many epochs have been published over this wrapper's lifetime
    /// (each [`ShardedIndex::install`] and each successful
    /// [`ShardedIndex::merge_delta`] counts one). Starts at 0 for the
    /// index the wrapper was constructed with.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Replace the live index wholesale (e.g. after loading a persisted
    /// image). The replacement is resharded to this wrapper's shard count
    /// when it arrives with a different one (an image persisted under
    /// another `shard_bits` setting).
    pub fn install(&self, index: PatternIndex) {
        let next = Arc::new(index.reshard(self.shard_bits));
        // The outgoing epoch is freed after the guard, not under it.
        let _outgoing = std::mem::replace(
            &mut *self.epoch.write().expect("index epoch lock poisoned"),
            next,
        );
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Would [`ShardedIndex::merge_delta`] accept `delta`? It refuses one
    /// profiled with a different token-limit τ than the index's.
    pub fn check_delta(&self, delta: &IndexDelta) -> Result<(), DeltaError> {
        let index_tau = self.epoch.read().expect("index epoch lock poisoned").tau;
        if delta.tau() == index_tau {
            return Ok(());
        }
        Err(DeltaError::TauMismatch {
            index_tau,
            delta_tau: delta.tau(),
        })
    }

    /// Merge a profiled delta into the live index, writing only to the
    /// shards it touches. Statistics are bit-for-bit identical to a
    /// from-scratch rebuild over the union corpus, and to
    /// [`PatternIndex::merge_delta`] on a value clone.
    ///
    /// Fails when the delta was profiled with a different token-limit τ.
    pub fn merge_delta(&self, delta: IndexDelta) -> Result<ShardMerge, DeltaError> {
        let delta_patterns = delta.len();
        let delta_tau = delta.tau();
        let parts = delta.into_shard_parts(self.shard_bits);
        let touched_shards = parts.parts.iter().flatten().count();

        let mut epoch = self.epoch.write().expect("index epoch lock poisoned");
        if delta_tau != epoch.tau {
            return Err(DeltaError::TauMismatch {
                index_tau: epoch.tau,
                delta_tau,
            });
        }
        // Copies the 2^shard_bits shard pointers, and only while a
        // snapshot holds the current epoch.
        let index = Arc::make_mut(&mut epoch);
        let copied_shards = index.apply_parts(parts);
        self.generation.fetch_add(1, Ordering::Release);
        Ok(ShardMerge {
            touched_shards,
            copied_shards,
            delta_patterns,
            num_columns: index.num_columns,
            total_patterns: index.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::IndexConfig;
    use av_corpus::{generate_lake, Column, LakeProfile};
    use std::collections::HashMap;

    fn columns_of(lake: &av_corpus::Corpus) -> Vec<&Column> {
        lake.columns().collect()
    }

    fn assert_bitwise_equal(a: &PatternIndex, b: &PatternIndex) {
        assert_eq!(a.to_bytes(), b.to_bytes());
    }

    /// A column whose values are a single repeated word, so its delta
    /// contributes only a handful of fingerprints (the generalization
    /// hierarchy of one token) — the "small delta" of the
    /// republish-granularity guarantee.
    fn narrow_column(tag: u32) -> Column {
        Column {
            name: format!("narrow-{tag}"),
            values: (0..40)
                .map(|_| format!("WORD{}", (b'A' + (tag % 26) as u8) as char))
                .collect(),
            meta: av_corpus::ColumnMeta::machine("shard-test", None),
        }
    }

    #[test]
    fn small_delta_republishes_only_touched_shards() {
        let lake = generate_lake(&LakeProfile::tiny(), 42);
        let config = IndexConfig::default();
        let mut index = PatternIndex::build(&columns_of(&lake), &config);
        let before_versions = index.shard_versions();
        let before_ptrs: Vec<*const IndexShard> = index.shards().iter().map(Arc::as_ptr).collect();
        // Share every shard, as the service's snapshot holders do.
        let snapshot = index.clone();

        let col = narrow_column(7);
        let delta = IndexDelta::profile(&[&col], &config);
        let touched = delta.touched_shards(index.shard_bits());
        assert!(touched >= 1, "delta must land somewhere");
        assert!(
            touched < index.shard_count() / 2,
            "a narrow column must not touch most of {} shards (touched {touched})",
            index.shard_count()
        );

        index.merge_delta(delta).unwrap();
        let after_versions = index.shard_versions();
        let mut bumped = 0;
        for (i, (b, a)) in before_versions.iter().zip(&after_versions).enumerate() {
            if a == b {
                // Untouched shard: same version AND the same allocation —
                // merge cloned nothing here.
                assert!(
                    std::ptr::eq(Arc::as_ptr(&index.shards()[i]), before_ptrs[i]),
                    "untouched shard {i} was recloned"
                );
            } else {
                assert_eq!(*a, b + 1);
                bumped += 1;
            }
        }
        assert_eq!(bumped, touched, "version bumps == touched shards");
        // The old snapshot still serves the pre-merge state.
        assert_eq!(snapshot.num_columns + 1, index.num_columns);
    }

    #[test]
    fn sharded_merge_is_bit_identical_to_monolithic_rebuild() {
        let lake_a = generate_lake(&LakeProfile::tiny().scaled(60), 5);
        let lake_b = generate_lake(&LakeProfile::tiny().scaled(40), 6);
        let cols_a = columns_of(&lake_a);
        let cols_b = columns_of(&lake_b);
        let union: Vec<&Column> = cols_a.iter().chain(cols_b.iter()).copied().collect();
        for shard_bits in [0u32, 3, 6, 9] {
            let config = IndexConfig {
                shard_bits,
                ..Default::default()
            };
            let full = PatternIndex::build(&union, &config);
            let sharded = ShardedIndex::new(PatternIndex::build(&cols_a, &config));
            let report = sharded
                .merge_delta(IndexDelta::profile(&cols_b, &config))
                .unwrap();
            assert_eq!(report.num_columns, union.len() as u64);
            assert_eq!(report.total_patterns, full.len());
            assert_bitwise_equal(&full, &sharded.snapshot());
        }
    }

    #[test]
    fn concurrent_disjoint_merges_commit_without_loss() {
        let config = IndexConfig::default();
        let base = generate_lake(&LakeProfile::tiny().scaled(50), 9);
        let sharded = ShardedIndex::new(PatternIndex::build(&columns_of(&base), &config));

        // Eight single-column deltas merged from eight threads at once.
        let cols: Vec<Column> = (0..8).map(narrow_column).collect();
        let deltas: Vec<IndexDelta> = cols
            .iter()
            .map(|c| IndexDelta::profile(&[c], &config))
            .collect();

        // Sequential reference over a value clone.
        let mut reference = (*sharded.snapshot()).clone();
        for d in &deltas {
            reference.merge_delta(d.clone()).unwrap();
        }

        std::thread::scope(|scope| {
            for d in deltas {
                let sharded = &sharded;
                scope.spawn(move || sharded.merge_delta(d).unwrap());
            }
        });
        let merged = sharded.snapshot();
        assert_eq!(merged.num_columns, reference.num_columns);
        // Shard versions can differ (commit order), so compare contents.
        let want: HashMap<u64, crate::PatternStats> = reference.entries().collect();
        assert_eq!(merged.len(), want.len());
        for (k, s) in merged.entries() {
            let r = want.get(&k).expect("pattern survives concurrent merge");
            assert_eq!(s.fpr.to_bits(), r.fpr.to_bits());
            assert_eq!(s.cov, r.cov);
        }
    }

    #[test]
    fn snapshots_are_never_torn() {
        // A reader racing one merge must observe either the exact old or
        // the exact new image, byte for byte.
        let config = IndexConfig::default();
        let lake = generate_lake(&LakeProfile::tiny().scaled(30), 3);
        let sharded = ShardedIndex::new(PatternIndex::build(&columns_of(&lake), &config));
        let before = sharded.snapshot().to_bytes();

        let extra = generate_lake(&LakeProfile::tiny().scaled(20), 4);
        let mut after_index = (*sharded.snapshot()).clone();
        let delta = IndexDelta::profile(&columns_of(&extra), &config);
        after_index.merge_delta(delta.clone()).unwrap();
        let after = after_index.to_bytes();

        std::thread::scope(|scope| {
            let merger = scope.spawn(|| sharded.merge_delta(delta).unwrap());
            for _ in 0..4 {
                let snap = sharded.snapshot();
                let bytes = snap.to_bytes();
                assert!(
                    bytes == before || bytes == after,
                    "snapshot is neither the pre- nor the post-merge epoch"
                );
            }
            merger.join().unwrap();
        });
        assert_eq!(sharded.snapshot().to_bytes(), after);
    }

    #[test]
    fn install_reshards_foreign_images() {
        let lake = generate_lake(&LakeProfile::tiny().scaled(40), 8);
        let cols = columns_of(&lake);
        let one_shard = PatternIndex::build(
            &cols,
            &IndexConfig {
                shard_bits: 0,
                ..Default::default()
            },
        );
        let sharded = ShardedIndex::new(PatternIndex::build(&[], &IndexConfig::default()));
        let shard_count = sharded.snapshot().shard_count();
        sharded.install(one_shard.clone());
        let live = sharded.snapshot();
        assert_eq!(live.shard_count(), shard_count);
        assert_eq!(live.len(), one_shard.len());
        let want: HashMap<u64, crate::PatternStats> = one_shard.entries().collect();
        for (k, s) in live.entries() {
            assert_eq!(want[&k].fpr.to_bits(), s.fpr.to_bits());
        }
    }

    #[test]
    fn generation_counts_every_published_epoch() {
        let config = IndexConfig::default();
        let lake = generate_lake(&LakeProfile::tiny().scaled(20), 12);
        let sharded = ShardedIndex::new(PatternIndex::build(&columns_of(&lake), &config));
        assert_eq!(sharded.generation(), 0);
        sharded
            .merge_delta(IndexDelta::profile(&[&narrow_column(1)], &config))
            .unwrap();
        assert_eq!(sharded.generation(), 1);
        sharded.install((*sharded.snapshot()).clone());
        assert_eq!(sharded.generation(), 2);
        // A failed merge publishes nothing and bumps nothing.
        let bad = IndexDelta::profile(&[&narrow_column(2)], &IndexConfig::with_tau(3));
        assert!(sharded.merge_delta(bad).is_err());
        assert_eq!(sharded.generation(), 2);
    }

    /// The wrapper against a trivially simple model — the set of columns
    /// the live index should hold — under seeded random interleavings of
    /// merge / take snapshot / drop snapshot / install. In-place merging
    /// must be invisible: the live image always equals a from-scratch
    /// build over the union, and a snapshot never changes once taken.
    #[test]
    fn random_interleavings_match_a_rebuild_and_never_touch_a_snapshot() {
        let config = IndexConfig::default();
        let pool: Vec<Column> = generate_lake(&LakeProfile::tiny().scaled(12), 31)
            .columns()
            .cloned()
            .chain((0..6).map(narrow_column))
            .collect();
        for seed in 1..=4u64 {
            // xorshift64: the schedule is a function of the seed alone.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut draw = |n: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % n as u64) as usize
            };
            let sharded = ShardedIndex::new(PatternIndex::build(&[], &config));
            let mut live: Vec<&Column> = Vec::new();
            let mut held: Vec<(Arc<PatternIndex>, bytes::Bytes)> = Vec::new();
            for step in 0..40 {
                match draw(6) {
                    0..=2 => {
                        let batch: Vec<&Column> =
                            (0..1 + draw(3)).map(|_| &pool[draw(pool.len())]).collect();
                        let merge = sharded
                            .merge_delta(IndexDelta::profile(&batch, &config))
                            .unwrap();
                        live.extend(batch);
                        assert_eq!(merge.num_columns, live.len() as u64);
                        assert!(merge.copied_shards <= merge.touched_shards);
                        if held.is_empty() {
                            assert_eq!(merge.copied_shards, 0, "seed {seed} step {step}");
                        }
                    }
                    3 => {
                        let snapshot = sharded.snapshot();
                        let bytes = snapshot.to_bytes();
                        held.push((snapshot, bytes));
                    }
                    4 => {
                        if !held.is_empty() {
                            held.swap_remove(draw(held.len()));
                        }
                    }
                    _ => {
                        // An image of other columns, at another shard count
                        // every other time (install reshards it).
                        live = (0..draw(4)).map(|_| &pool[draw(pool.len())]).collect();
                        let image_config = IndexConfig {
                            shard_bits: if draw(2) == 0 { 3 } else { config.shard_bits },
                            ..config.clone()
                        };
                        sharded.install(PatternIndex::build(&live, &image_config));
                    }
                }
                assert_eq!(
                    sharded.snapshot().to_bytes(),
                    PatternIndex::build(&live, &config).to_bytes(),
                    "seed {seed} step {step}: live index differs from a rebuild"
                );
                for (snapshot, bytes) in &held {
                    assert_eq!(
                        &snapshot.to_bytes(),
                        bytes,
                        "seed {seed} step {step}: a held snapshot changed"
                    );
                }
            }
        }
    }

    fn entries_cloned_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
        ENTRIES_CLONED.with(|n| n.set(0));
        let out = f();
        (out, ENTRIES_CLONED.with(std::cell::Cell::get))
    }

    /// Work, not time: with no snapshot alive a merge clones no index
    /// entry, whatever the sizes of delta and index; with one held it
    /// clones exactly the entries of the shards it touches, once — the
    /// second merge into the same shards finds them its own — and none
    /// again after the holder lets go. (`clone`-then-merge copied every
    /// entry of every touched shard on every ingest.)
    #[test]
    fn a_merge_clones_only_entries_a_live_snapshot_shares() {
        let config = IndexConfig::default();
        let narrow = narrow_column(3);
        let diverse = generate_lake(&LakeProfile::tiny().scaled(4), 23);
        for lake_columns in [200, 2000] {
            let lake = generate_lake(&LakeProfile::tiny().scaled(lake_columns), 11);
            let sharded = ShardedIndex::new(PatternIndex::build(&columns_of(&lake), &config));
            for batch in [vec![&narrow], columns_of(&diverse)] {
                let delta = IndexDelta::profile(&batch, &config);
                let touched: std::collections::BTreeSet<usize> = delta
                    .shard
                    .map
                    .keys()
                    .chain(&delta.shard.prefixes)
                    .map(|fp| shard_of(*fp, config.shard_bits))
                    .collect();
                // A delta is a shard, so its copies are made before the
                // counted merges, not inside them.
                let mut copies: Vec<IndexDelta> = (0..4).map(|_| delta.clone()).collect();
                let mut merge = || {
                    let delta = copies.pop().expect("one copy per merge");
                    sharded.merge_delta(delta).unwrap()
                };

                let (alone, cloned) = entries_cloned_by(&mut merge);
                assert_eq!(
                    (alone.copied_shards, cloned),
                    (0, 0),
                    "{lake_columns} columns"
                );
                assert_eq!(alone.touched_shards, touched.len());

                let held = sharded.snapshot();
                let shared: usize = touched.iter().map(|&i| held.shards()[i].len()).sum();
                let (first, cloned) = entries_cloned_by(&mut merge);
                assert_eq!((first.copied_shards, cloned), (touched.len(), shared));
                let (second, cloned) = entries_cloned_by(&mut merge);
                assert_eq!((second.copied_shards, cloned), (0, 0));

                drop(held);
                let (after, cloned) = entries_cloned_by(&mut merge);
                assert_eq!((after.copied_shards, cloned), (0, 0));
            }
        }
    }

    #[test]
    fn tau_mismatch_is_rejected_by_the_wrapper() {
        let lake = generate_lake(&LakeProfile::tiny().scaled(20), 2);
        let cols = columns_of(&lake);
        let sharded = ShardedIndex::new(PatternIndex::build(&cols, &IndexConfig::with_tau(13)));
        let delta = IndexDelta::profile(&cols, &IndexConfig::with_tau(8));
        assert!(matches!(
            sharded.merge_delta(delta),
            Err(DeltaError::TauMismatch { .. })
        ));
    }
}
