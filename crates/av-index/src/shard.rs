//! Fingerprint-sharded index storage and the concurrent RCU wrapper.
//!
//! The index is partitioned into a power-of-two number of [`IndexShard`]s
//! by the **top bits** of the pattern fingerprint. That leaves the low
//! bits uniform inside a shard, but not the top ones, and a shard's map
//! draws its 7-bit control tags from the top of the *hash* — so the maps
//! hash fingerprints through [`crate::FingerprintHasher`], which keeps
//! both the bucket index and the tag uniform with up to 12 top key bits
//! constant; routing itself always reads the raw fingerprint. Shards
//! are held behind `Arc`s, which is what turns ingest from O(index) into
//! O(delta): merging an [`crate::IndexDelta`] clones and republishes only
//! the shards the delta's fingerprints land in, while every untouched
//! shard is shared by pointer with the previous index version.
//!
//! Two layers use this:
//!
//! * [`crate::PatternIndex`] is the *value* type: a vector of shard `Arc`s
//!   plus corpus metadata. Cloning it is cheap (pointer copies), and
//!   [`crate::PatternIndex::merge_delta`] performs the copy-on-write merge
//!   via `Arc::make_mut` on touched shards only.
//! * [`ShardedIndex`] is the *concurrent* wrapper a long-running service
//!   owns: per-shard merge locks let independent ingests that touch
//!   disjoint shards run their expensive clone-and-merge work in
//!   parallel, and a single epoch slot publishes each result atomically,
//!   so readers always see a consistent index — never a torn one.

use crate::build::{FastMap, PatternIndex};
use crate::delta::{DeltaError, IndexDelta, ShardPart};
use crate::stats::StatsAcc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

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
/// routes here, plus a version counter bumped on each merge that touched
/// this shard. Shards are immutable once published behind an `Arc`;
/// versions let tests and monitoring assert that an ingest republished
/// only the shards its delta touched.
#[derive(Debug, Clone, Default)]
pub struct IndexShard {
    pub(crate) map: FastMap<StatsAcc>,
    pub(crate) patterns: FastMap<String>,
    pub(crate) version: u64,
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

    /// Fold one per-shard sub-delta in and bump the version. The
    /// fixed-point accumulator merge is exactly associative and
    /// commutative, so any merge order produces identical bytes.
    pub(crate) fn apply(&mut self, part: ShardPart) {
        for (fp, acc) in part.acc {
            self.map.entry(fp).or_default().merge(&acc);
        }
        for (fp, name) in part.names {
            self.patterns.entry(fp).or_insert(name);
        }
        self.version += 1;
    }

    /// Copy-on-write merge: clone this shard's data and apply the part.
    pub(crate) fn merged(&self, part: ShardPart) -> IndexShard {
        let mut next = self.clone();
        next.apply(part);
        next
    }
}

/// What one [`ShardedIndex::merge_delta`] changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMerge {
    /// Shards the delta touched (cloned + republished); every other shard
    /// of the new epoch shares its `Arc` with the previous epoch.
    pub touched_shards: usize,
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
///   clone the current epoch's `Arc<PatternIndex>` — wait-free for the
///   holder, immutable forever, and internally consistent (an epoch is
///   published atomically, so a snapshot can never mix shards from two
///   half-applied ingests).
/// * **Writers** call [`ShardedIndex::merge_delta`]: the delta splits
///   into per-shard sub-deltas, the touched shards' merge locks are taken
///   (in ascending order — deadlock-free), the expensive clone-and-merge
///   of each touched shard runs while holding only those locks, and the
///   new epoch — untouched shard `Arc`s shared from the latest epoch,
///   touched ones replaced — is published under one brief write lock of
///   pointer copies. Two ingests whose deltas touch disjoint shards
///   therefore run their merge work fully in parallel.
#[derive(Debug)]
pub struct ShardedIndex {
    epoch: RwLock<Arc<PatternIndex>>,
    merge_locks: Box<[Mutex<()>]>,
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
        let merge_locks = (0..index.shard_count()).map(|_| Mutex::new(())).collect();
        ShardedIndex {
            epoch: RwLock::new(Arc::new(index)),
            merge_locks,
            generation: AtomicU64::new(0),
        }
    }

    /// The current epoch: an immutable, internally consistent index.
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
    /// another `shard_bits` setting). Taking every merge lock
    /// first keeps a concurrent [`ShardedIndex::merge_delta`] from
    /// grafting shards of the outgoing index onto the new epoch.
    pub fn install(&self, index: PatternIndex) {
        let want_bits = self.merge_locks.len().trailing_zeros();
        let index = if index.shard_count() == self.merge_locks.len() {
            index
        } else {
            index.reshard(want_bits)
        };
        let _guards: Vec<_> = self
            .merge_locks
            .iter()
            .map(|m| m.lock().expect("shard merge lock poisoned"))
            .collect();
        *self.epoch.write().expect("index epoch lock poisoned") = Arc::new(index);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Merge a profiled delta into the live index, republishing only the
    /// shards it touches. Statistics are bit-for-bit identical to a
    /// from-scratch rebuild over the union corpus, and to
    /// [`PatternIndex::merge_delta`] on a value clone.
    ///
    /// Fails when the delta was profiled with a different token-limit τ.
    pub fn merge_delta(&self, delta: IndexDelta) -> Result<ShardMerge, DeltaError> {
        let delta_patterns = delta.len();
        let delta_tau = delta.tau();
        let current = self.snapshot();
        // Fast-fail before any merge work. Not authoritative: an install()
        // may swap in a different-τ index before we take our locks, so the
        // check is repeated against the post-lock epoch below.
        if delta_tau != current.tau {
            return Err(DeltaError::TauMismatch {
                index_tau: current.tau,
                delta_tau,
            });
        }
        let parts = delta.into_shard_parts(current.shard_bits());
        let touched: Vec<usize> = parts
            .parts
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|_| i))
            .collect();

        // Serialize against other merges of the same shards (ascending
        // order — no deadlock with any other merge or with install).
        let _guards: Vec<_> = touched
            .iter()
            .map(|&i| {
                self.merge_locks[i]
                    .lock()
                    .expect("shard merge lock poisoned")
            })
            .collect();

        // Re-read the epoch *after* locking: our shards cannot change
        // while we hold their locks, so cloning from this base is safe
        // even though merges of other shards may still land concurrently.
        let base = self.snapshot();
        if delta_tau != base.tau {
            // An install() slipped in before our locks and replaced the
            // index with a different-τ population.
            return Err(DeltaError::TauMismatch {
                index_tau: base.tau,
                delta_tau,
            });
        }
        let mut rebuilt: Vec<(usize, Arc<IndexShard>)> = Vec::with_capacity(touched.len());
        let mut parts = parts;
        for &i in &touched {
            let part = parts.parts[i].take().expect("touched shard has a part");
            rebuilt.push((i, Arc::new(base.shards[i].merged(part))));
        }

        // Publish: graft the rebuilt shards onto the *latest* epoch under
        // the write lock — O(shard count) pointer copies, nothing more.
        let mut epoch = self.epoch.write().expect("index epoch lock poisoned");
        if delta_tau != epoch.tau {
            // Authoritative re-check: with an empty touched set no merge
            // lock is held, so an install() can land right up to this
            // write lock; folding (even just num_columns) into a
            // different-τ population must fail, not corrupt.
            return Err(DeltaError::TauMismatch {
                index_tau: epoch.tau,
                delta_tau,
            });
        }
        let mut shards: Vec<Arc<IndexShard>> = epoch.shards.to_vec();
        for (i, shard) in rebuilt {
            shards[i] = shard;
        }
        let next = PatternIndex::from_parts(
            shards,
            epoch.shard_bits(),
            epoch.num_columns + parts.num_columns,
            epoch.tau,
        );
        let report = ShardMerge {
            touched_shards: touched.len(),
            delta_patterns,
            num_columns: next.num_columns,
            total_patterns: next.len(),
        };
        *epoch = Arc::new(next);
        self.generation.fetch_add(1, Ordering::Release);
        Ok(report)
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
