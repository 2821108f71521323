//! Offline index construction (§2.4): one scan over the corpus, enumerating
//! `P(D)` per column and aggregating impurity/coverage per pattern.
//!
//! The paper runs this as a Map-Reduce job on a production cluster; here it
//! is a shard-and-merge build over OS threads — same dataflow (map: pattern
//! enumeration per column, reduce: per-pattern aggregation), laptop scale.
//! The reduce side lands in fingerprint-routed [`IndexShard`]s (see
//! [`crate::shard`]), which is what later makes incremental ingest
//! O(touched shards) instead of O(index).

use crate::delta::{DeltaError, ShardParts};
use crate::shard::{shard_of, IndexShard, DEFAULT_SHARD_BITS, MAX_SHARD_BITS};
use crate::stats::{PatternStats, StatsAcc};
use av_corpus::Column;
use av_pattern::{stream_column_profile, EnumScratch, Pattern, PatternConfig};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Hasher for maps keyed by 64-bit FNV pattern fingerprints: one
/// Fibonacci multiply (2⁶⁴/φ, odd), nothing else.
///
/// The keys are already hashes, but they cannot be used *as* the hash.
/// std's `HashMap` takes the bucket index from the low bits of the hash
/// and a 7-bit control tag — what a probe compares before it reads a
/// bucket — from the **top** 7 bits, and [`crate::shard`] routes by the
/// fingerprint's top `shard_bits` bits: inside one of the default 64
/// shards every key shares 6 of its 7 tag bits (all 7 from 128 shards
/// up), so half of the occupied slots a probe passes "match" and each
/// false match costs a bucket read. The multiply fixes both ends at once:
/// the low `k` bits of the product are a bijection of the key's low `k`
/// bits (the constant is odd), so bucket placement stays as uniform as the
/// fingerprint's low bits, and the top bits of the product depend on every
/// key bit below them, so the tag is uniform even with the top 12 key
/// bits constant. Shard routing reads the fingerprint, not this hash, and
/// nothing observable depends on map iteration order (persistence sorts).
#[derive(Default)]
pub(crate) struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint hasher only accepts u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

pub(crate) type FastMap<V> = HashMap<u64, V, BuildHasherDefault<FingerprintHasher>>;
pub(crate) type FastSet = HashSet<u64, BuildHasherDefault<FingerprintHasher>>;

/// Canonical length up to which the index keeps the prefixes of its
/// patterns. Inference asks about every prefix at most this long and
/// descends unasked below it. The knee: over the tiny-1500 lake a
/// timestamp-12 sweep emits 143 161 patterns with no prefix kept, 29 900
/// at 4 tokens, 16 392 at 6, 15 944 at 8 and 12 872 with every prefix —
/// against 9 011, 21 290, 44 520 and 145 080 keys held (`PERF.md` Point
/// 16).
const PREFIX_TOKENS: usize = 6;

/// Columns a worker claims per queue pop. One gives the best balance
/// under skewed column sizes, and no caller ever asked for another value.
const QUEUE_BATCH: usize = 1;

/// The shared dynamic work queue of the map side: workers claim
/// [`QUEUE_BATCH`]-sized column ranges off one atomic cursor, so a handful
/// of giant columns cannot strand the other workers the way static
/// chunking does.
pub(crate) struct WorkQueue {
    cursor: AtomicUsize,
    len: usize,
}

impl WorkQueue {
    /// Claim the next range of column indices, or `None` when drained.
    pub(crate) fn next_range(&self) -> Option<std::ops::Range<usize>> {
        let start = self.cursor.fetch_add(QUEUE_BATCH, Ordering::Relaxed);
        if start >= self.len {
            None
        } else {
            Some(start..self.len.min(start + QUEUE_BATCH))
        }
    }
}

/// Values a batch must hold before profiling it asks for helper threads.
/// Spawning and joining one scoped thread costs 13–58 µs on the dev
/// container — and a helper starts on a cold allocator arena and an empty
/// scratch — against ~0.45 µs of profiling per value across a lake: 0.03 µs
/// in enum-like columns, where a helper loses at every size measured, over
/// 1 µs in pattern-rich ones, where the enumeration is the cost and the
/// analyzer's scan a fifth of it. With helpers forced on, lake batches from
/// 1 100 values up got faster in every run and batches under 650 slower in
/// most; the rows between went either way (`PERF.md` Point 13).
const HELPER_MIN_VALUES: usize = 1024;

/// Run `worker` over one [`WorkQueue`] of `columns`: on the calling thread,
/// plus `min(num_threads, columns) − 1` scoped helpers when the batch holds
/// at least [`HELPER_MIN_VALUES`] values. Returns the caller's result and
/// the helpers' for an order-independent reduce. Both the offline
/// build/delta profiling and the no-index corpus scan run on this
/// scaffolding, so their scheduling semantics can never diverge.
pub(crate) fn run_work_queue<T, F>(
    columns: &[&Column],
    config: &IndexConfig,
    worker: F,
) -> (T, Vec<T>)
where
    T: Send,
    F: Fn(&WorkQueue) -> T + Sync,
{
    let values: usize = columns.iter().map(|c| c.values.len()).sum();
    let workers = if values < HELPER_MIN_VALUES {
        1
    } else {
        config.num_threads.min(columns.len())
    };
    let queue = WorkQueue {
        cursor: AtomicUsize::new(0),
        len: columns.len(),
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| scope.spawn(|| worker(&queue)))
            .collect();
        let own = worker(&queue);
        let helped = helpers
            .into_iter()
            .map(|h| h.join().expect("index worker panicked"))
            .collect();
        (own, helped)
    })
}

/// Configuration of the offline build.
///
/// Threading model: columns are distributed to `num_threads` workers —
/// the calling thread and `num_threads − 1` helpers, or the calling
/// thread alone for a batch too small to pay for a spawn —
/// through a shared atomic cursor (a dynamic work queue), each worker
/// claiming one column at a time. Every worker folds into its
/// own thread-local accumulator map and carries one reusable column
/// scratch (the analyzer's run table and support arena, the enumeration
/// bitset pool, the per-column fingerprint map), so steady-state profiling
/// allocates per column only the options the analysis returns. Because the
/// fixed-point impurity accumulators merge with exact associativity and
/// commutativity, the built index is bit-for-bit identical for every
/// thread count and scheduling order.
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Pattern-generation knobs. For indexing, `max_patterns` bounds the
    /// patterns enumerated per column (the paper's coverage-threshold and
    /// τ-limit mechanisms keep `P(D)` tractable).
    pub pattern: PatternConfig,
    /// Token-limit τ: values with more tokens are skipped (§2.4) — safe
    /// because vertical cuts recompose wide columns at query time (§3).
    pub tau: usize,
    /// Worker threads for the work-queue build.
    pub num_threads: usize,
    /// log₂ of the shard count the index is partitioned into (clamped to
    /// 12). More shards mean a finer copy-on-write granularity for
    /// [`PatternIndex::merge_delta`] — a small delta merged while a
    /// snapshot is alive copies a smaller fraction of the index — at a
    /// small per-shard fixed cost. The shard a pattern lands in depends
    /// only on its fingerprint, so the indexed *statistics* are identical
    /// for every value of this knob.
    pub shard_bits: u32,
    /// Keep pattern display strings (needed only for head-pattern analyses
    /// like Fig. 3 / Fig. 13b labels; costs memory on big corpora).
    pub keep_patterns: bool,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            pattern: PatternConfig {
                max_patterns: 512,
                ..Default::default()
            },
            tau: 13,
            num_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            shard_bits: DEFAULT_SHARD_BITS,
            keep_patterns: false,
        }
    }
}

impl IndexConfig {
    /// Config with a specific τ.
    pub fn with_tau(tau: usize) -> IndexConfig {
        IndexConfig {
            tau,
            ..Default::default()
        }
    }
}

/// The offline index: pattern fingerprint → pre-computed `(FPR_T, Cov_T)`.
///
/// Orders of magnitude smaller than the corpus (the paper: 1 TB corpus →
/// < 1 GB index); lookups are O(1), which is what turns hours-long corpus
/// scans into sub-100ms online inference (Fig. 14).
///
/// Internally the index is partitioned into 2^`shard_bits` fingerprint
/// shards, each behind an [`Arc`] (see [`crate::shard`]). Cloning an index
/// is therefore cheap — shard pointers, not shard data — and
/// [`PatternIndex::merge_delta`] is **copy-on-write at shard granularity**:
/// a touched shard is copied only if a clone of the index still shares it
/// (otherwise it is updated in place), and every untouched shard stays
/// shared with the pre-merge clones. Statistics are kept as raw
/// fixed-point accumulators, so an incremental [`crate::IndexDelta`] merge
/// is bit-for-bit identical to a from-scratch rebuild on the union corpus.
#[derive(Debug, Clone)]
pub struct PatternIndex {
    pub(crate) shards: Box<[Arc<IndexShard>]>,
    pub(crate) shard_bits: u32,
    /// Number of corpus columns scanned.
    pub num_columns: u64,
    /// The τ used at build time.
    pub tau: usize,
}

impl Default for PatternIndex {
    fn default() -> Self {
        PatternIndex::empty(0, DEFAULT_SHARD_BITS)
    }
}

impl PatternIndex {
    /// Build the index over `columns` with `config`.
    ///
    /// Implemented as `empty ∘ merge_delta(profile)`, so a full build and
    /// an incremental sequence of delta merges run the exact same
    /// aggregation code.
    pub fn build(columns: &[&Column], config: &IndexConfig) -> PatternIndex {
        let mut index = PatternIndex::empty(config.tau, config.shard_bits);
        index
            .merge_delta(crate::IndexDelta::profile(columns, config))
            .expect("freshly built delta shares the index tau");
        index
    }

    /// An index of no columns over `2^shard_bits` empty shards.
    pub(crate) fn empty(tau: usize, shard_bits: u32) -> PatternIndex {
        let shard_bits = shard_bits.min(MAX_SHARD_BITS);
        PatternIndex {
            shards: (0..1usize << shard_bits).map(|_| Arc::default()).collect(),
            shard_bits,
            num_columns: 0,
            tau,
        }
    }

    /// Fold one covering column's impurity for a fingerprint (tests'
    /// materializing reference build).
    #[cfg(test)]
    pub(crate) fn fold_impurity(&mut self, fingerprint: u64, impurity: f64, token_len: u8) {
        let i = shard_of(fingerprint, self.shard_bits);
        Arc::make_mut(&mut self.shards[i])
            .map
            .entry(fingerprint)
            .or_default()
            .add_impurity(impurity, token_len);
    }

    /// Attach a display string to a fingerprint (tests' materializing
    /// reference build).
    #[cfg(test)]
    pub(crate) fn insert_pattern_string(&mut self, fingerprint: u64, s: String) {
        let i = shard_of(fingerprint, self.shard_bits);
        Arc::make_mut(&mut self.shards[i])
            .patterns
            .entry(fingerprint)
            .or_insert(s);
    }

    /// Record the key of an indexed pattern's prefix (tests' materializing
    /// reference build); it lives in the shard its top bits route to.
    #[cfg(test)]
    pub(crate) fn insert_prefix(&mut self, key: u64) {
        let i = shard_of(key, self.shard_bits);
        Arc::make_mut(&mut self.shards[i]).prefixes.insert(key);
    }

    /// Merge an incremental delta (profiled over *new* corpus columns)
    /// into this index. Because both sides keep exact integer
    /// accumulators, the result is bit-for-bit identical to rebuilding
    /// from scratch over the union corpus — no stop-the-world rescan.
    ///
    /// The delta splits into per-shard sub-deltas, and each touched shard
    /// is updated through `Arc::make_mut`: in place when this index is the
    /// shard's only holder, on a fresh copy when a clone of the index (a
    /// snapshot) still points to it — the clone keeps serving the old one.
    /// Merging a small delta into a large index therefore costs O(delta),
    /// plus the data of those touched shards a snapshot shares, never
    /// O(index). Untouched shards keep their `Arc` identity either way.
    ///
    /// Fails when the delta was profiled with a different token-limit τ
    /// (its patterns would be incomparable with the index's population).
    pub fn merge_delta(&mut self, delta: crate::IndexDelta) -> Result<(), DeltaError> {
        if delta.tau() != self.tau {
            return Err(DeltaError::TauMismatch {
                index_tau: self.tau,
                delta_tau: delta.tau(),
            });
        }
        self.apply_parts(delta.into_shard_parts(self.shard_bits));
        Ok(())
    }

    /// Fold a delta already routed to this index's shard count (and
    /// already checked for τ) into it. Returns how many of the touched
    /// shards were shared, and so cloned before the write.
    pub(crate) fn apply_parts(&mut self, parts: ShardParts) -> usize {
        let mut copied = 0;
        for (shard, part) in self.shards.iter_mut().zip(parts.parts) {
            if let Some(part) = part {
                copied += usize::from(Arc::get_mut(shard).is_none());
                Arc::make_mut(shard).apply(part);
            }
        }
        self.num_columns += parts.num_columns;
        copied
    }

    /// Redistribute the index over a different shard count. Statistics are
    /// unchanged (shard routing is pure fingerprint arithmetic). The index
    /// is merged, as one delta, into an empty index of the new shape, so
    /// every shard it fills starts at version 1 and every other at 0. Used
    /// when a persisted image written under another shard count is loaded
    /// into a differently-sharded deployment.
    pub fn reshard(self, shard_bits: u32) -> PatternIndex {
        let shard_bits = shard_bits.min(MAX_SHARD_BITS);
        if shard_bits == self.shard_bits {
            return self;
        }
        let mut whole = crate::IndexDelta {
            num_columns: self.num_columns,
            tau: self.tau,
            ..Default::default()
        };
        for shard in self.shards.into_vec() {
            whole.shard.absorb(Arc::unwrap_or_clone(shard));
        }
        let mut next = PatternIndex::empty(self.tau, shard_bits);
        next.apply_parts(whole.into_shard_parts(shard_bits));
        next
    }

    /// Number of shards the index is partitioned into (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// log₂ of [`PatternIndex::shard_count`].
    pub fn shard_bits(&self) -> u32 {
        self.shard_bits
    }

    /// The shards themselves (inspection/tests; shard data is opaque).
    pub fn shards(&self) -> &[Arc<IndexShard>] {
        &self.shards
    }

    /// Per-shard merge counters: entry `i` is how many delta merges have
    /// touched shard `i` since this index was built or loaded. An ingest
    /// that claims O(touched-shards) work must leave every other entry —
    /// and the underlying shard allocation — unchanged.
    #[cfg(test)]
    pub(crate) fn shard_versions(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.version).collect()
    }

    /// Which shard a fingerprint routes to.
    #[cfg(test)]
    pub(crate) fn shard_of_fingerprint(&self, fingerprint: u64) -> usize {
        shard_of(fingerprint, self.shard_bits)
    }

    /// Look up pre-computed stats for a pattern.
    pub fn lookup(&self, pattern: &Pattern) -> Option<PatternStats> {
        self.lookup_fingerprint(pattern.fingerprint())
    }

    /// Look up pre-computed stats by pattern fingerprint: route to the
    /// fingerprint's shard, then one `FingerprintHasher` probe inside it.
    /// Inference callers that stream enumeration
    /// (`CoarseGroup::for_each_pattern`) already hold the fingerprint, so
    /// this skips re-hashing the token sequence.
    pub fn lookup_fingerprint(&self, fingerprint: u64) -> Option<PatternStats> {
        self.shards[shard_of(fingerprint, self.shard_bits)]
            .map
            .get(&fingerprint)
            .map(|a| a.finish())
    }

    /// Could an indexed pattern start with the canonical prefix of `len`
    /// tokens whose [`av_pattern::FingerprintState::closed`] key is `key`?
    /// Prefixes longer than the index keeps are admitted unasked; shorter
    /// ones cost one probe of the shard the key routes to. A `false` is
    /// exact — no indexed pattern extends the prefix, so every pattern
    /// below it would probe as a miss — and a `true` may be a key
    /// collision, which only costs the enumeration it fails to skip.
    pub fn admits_prefix(&self, key: u64, len: usize) -> bool {
        len > PREFIX_TOKENS
            || self.shards[shard_of(key, self.shard_bits)]
                .prefixes
                .contains(&key)
    }

    /// `FPR_T(p)`, or `None` when the pattern never occurred in the corpus.
    pub fn fpr(&self, pattern: &Pattern) -> Option<f64> {
        self.lookup(pattern).map(|s| s.fpr)
    }

    /// `Cov_T(p)` (0 when absent).
    pub fn cov(&self, pattern: &Pattern) -> u64 {
        self.lookup(pattern).map(|s| s.cov).unwrap_or(0)
    }

    /// Number of distinct patterns indexed.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.len()).sum()
    }

    /// True when nothing was indexed.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.map.is_empty())
    }

    /// Iterate over `(fingerprint, stats)` pairs, shard by shard.
    pub fn entries(&self) -> impl Iterator<Item = (u64, PatternStats)> + '_ {
        self.shards
            .iter()
            .flat_map(|s| s.map.iter().map(|(k, v)| (*k, v.finish())))
    }

    /// Display string for a fingerprint (only in `keep_patterns` builds).
    pub fn pattern_string(&self, fingerprint: u64) -> Option<&str> {
        self.shards[shard_of(fingerprint, self.shard_bits)]
            .patterns
            .get(&fingerprint)
            .map(|s| s.as_str())
    }

    /// Histogram of patterns by token length (Fig. 13a).
    pub fn token_length_histogram(&self) -> Vec<(usize, u64)> {
        let mut hist: HashMap<usize, u64> = HashMap::new();
        for shard in self.shards.iter() {
            for stats in shard.map.values() {
                *hist.entry(stats.token_len as usize).or_insert(0) += 1;
            }
        }
        let mut out: Vec<(usize, u64)> = hist.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Histogram of patterns by coverage (Fig. 13b): how many patterns are
    /// followed by exactly `cov` columns, for `cov` in `[1, max_cov]`;
    /// the final bucket aggregates everything above.
    pub fn coverage_histogram(&self, max_cov: u64) -> Vec<(u64, u64)> {
        let mut hist: HashMap<u64, u64> = HashMap::new();
        for shard in self.shards.iter() {
            for stats in shard.map.values() {
                let bucket = stats.cols.min(max_cov);
                *hist.entry(bucket).or_insert(0) += 1;
            }
        }
        let mut out: Vec<(u64, u64)> = hist.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// The "head" domain patterns (Fig. 3-style analysis): high coverage,
    /// low FPR, sorted by coverage descending. Requires `keep_patterns`.
    pub fn head_patterns(&self, min_cov: u64, max_fpr: f64) -> Vec<(String, PatternStats)> {
        let mut out: Vec<(String, PatternStats)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .map
                    .iter()
                    .map(|(k, a)| (k, a.finish()))
                    .filter(|(_, s)| s.cov >= min_cov && s.fpr <= max_fpr)
                    .filter_map(|(k, s)| shard.patterns.get(k).map(|p| (p.clone(), s)))
            })
            .collect();
        out.sort_by(|a, b| b.1.cov.cmp(&a.1.cov).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

/// Per-column matched-fraction accumulator: the same pattern can be
/// emitted by several coarse groups of one column, and a column counts at
/// most once toward a pattern's coverage, so contributions are merged by
/// fingerprint before they fold into the [`StatsAcc`] shard map.
#[derive(Debug, Clone, Copy)]
struct FracAcc {
    frac: f64,
    token_len: u8,
}

/// Reusable per-worker scratch for column indexing: the analyzer's tables
/// and the enumeration DFS pool (both inside [`EnumScratch`]) plus the
/// per-column fingerprint → fraction map. All keep their capacity across
/// columns.
#[derive(Debug, Default)]
pub(crate) struct ColumnScratch {
    enumeration: EnumScratch,
    frac: FastMap<FracAcc>,
}

/// Index one column into a worker's `shard`: stream `P(D)` as
/// `(fingerprint, support, len)` triples — no `Pattern` is materialized —
/// merge per-column fractions by fingerprint, and fold into the
/// accumulators. Display strings are rendered only under `keep_patterns`,
/// and only for first-seen fingerprints. The enumeration's prefix hook
/// records every key of at most [`PREFIX_TOKENS`] canonical tokens on the
/// way down.
pub(crate) fn index_one_column(
    col: &Column,
    config: &IndexConfig,
    shard: &mut IndexShard,
    scratch: &mut ColumnScratch,
) {
    let ColumnScratch { enumeration, frac } = scratch;
    let IndexShard {
        map,
        patterns,
        prefixes,
        ..
    } = shard;
    frac.clear();
    stream_column_profile(
        &col.values,
        &config.pattern,
        config.tau,
        enumeration,
        |key, len| {
            if len <= PREFIX_TOKENS {
                prefixes.insert(key);
            }
            true
        },
        |sp, contribution| {
            frac.entry(sp.fingerprint)
                .or_insert(FracAcc {
                    frac: 0.0,
                    token_len: sp.token_len.min(255) as u8,
                })
                .frac += contribution;
            if config.keep_patterns {
                patterns
                    .entry(sp.fingerprint)
                    .or_insert_with(|| sp.display());
            }
        },
    );
    for (fp, e) in frac.iter() {
        map.entry(*fp)
            .or_default()
            .add_impurity(1.0 - e.frac, e.token_len);
    }
}

/// Scan-based FPR/coverage computation **without** an index — the paper's
/// "FMDV (no-index)" reference point in Fig. 14. Returns `(fpr, cov)` for
/// each requested pattern by profiling every corpus column on the fly,
/// streaming fingerprints against the probe set (no enumerated pattern is
/// ever materialized).
///
/// The scan fans out over `config.num_threads` workers with the same
/// dynamic work queue the index build uses; each worker folds per-probe
/// accumulator shards that merge exactly at the end, so the result is
/// bit-identical to a sequential scan for every thread count.
pub fn scan_corpus_fpr(
    columns: &[&Column],
    patterns: &[Pattern],
    config: &IndexConfig,
) -> Vec<(f64, u64)> {
    let want: HashMap<u64, usize> = patterns
        .iter()
        .enumerate()
        .map(|(i, p)| (p.fingerprint(), i))
        .collect();
    let (mut merged, helped) = run_work_queue(columns, config, |queue| {
        let mut accs: Vec<StatsAcc> = vec![StatsAcc::default(); patterns.len()];
        let mut scratch = EnumScratch::default();
        let mut col_frac: Vec<f64> = vec![0.0; patterns.len()];
        let mut seen: Vec<bool> = vec![false; patterns.len()];
        let mut hit: Vec<usize> = Vec::with_capacity(patterns.len());
        while let Some(range) = queue.next_range() {
            for col in &columns[range] {
                stream_column_profile(
                    &col.values,
                    &config.pattern,
                    config.tau,
                    &mut scratch,
                    |_, _| true,
                    |sp, contribution| {
                        if let Some(&i) = want.get(&sp.fingerprint) {
                            if !seen[i] {
                                seen[i] = true;
                                hit.push(i);
                            }
                            col_frac[i] += contribution;
                        }
                    },
                );
                for &i in &hit {
                    accs[i].add_impurity(1.0 - col_frac[i], patterns[i].len().min(255) as u8);
                    col_frac[i] = 0.0;
                    seen[i] = false;
                }
                hit.clear();
            }
        }
        accs
    });
    for accs in helped {
        for (m, a) in merged.iter_mut().zip(&accs) {
            m.merge(a);
        }
    }
    merged.iter().map(|a| (a.finish().fpr, a.cols)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_corpus::{generate_lake, LakeProfile};
    use av_pattern::parse;

    fn tiny_index() -> (av_corpus::Corpus, PatternIndex) {
        let corpus = generate_lake(&LakeProfile::tiny(), 42);
        let cols: Vec<&Column> = corpus.columns().collect();
        let index = PatternIndex::build(&cols, &IndexConfig::default());
        // Corpus must outlive nothing (index owns its data); return both.
        drop(cols);
        (corpus, index)
    }

    #[test]
    fn build_indexes_popular_domains() {
        let (_corpus, index) = tiny_index();
        assert!(index.len() > 1000, "only {} patterns", index.len());
        // The GUID domain pattern must be present with low FPR.
        let guid = parse("<alnum>{8}-<alnum>{4}-<alnum>{4}-<alnum>{4}-<alnum>{12}").unwrap();
        let stats = index.lookup(&guid);
        if let Some(s) = stats {
            assert!(s.fpr < 0.2, "guid fpr {}", s.fpr);
            assert!(s.cov >= 1);
        }
        // The trivial pattern is never indexed.
        let trivial = av_pattern::Pattern::new(vec![av_pattern::Token::AnyPlus]);
        assert!(index.lookup(&trivial).is_none());
    }

    #[test]
    fn popular_pattern_has_high_coverage() {
        let (corpus, index) = tiny_index();
        // Count machine columns of the ipv4 domain in the corpus.
        let ip_cols = corpus
            .columns()
            .filter(|c| c.meta.domain.as_deref() == Some("ipv4"))
            .count() as u64;
        if ip_cols >= 2 {
            let p = parse("<digit>+.<digit>+.<digit>+.<digit>+").unwrap();
            let cov = index.cov(&p);
            assert!(
                cov >= ip_cols,
                "ipv4 pattern covers {cov} columns, expected at least {ip_cols}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_bytes() {
        let corpus = generate_lake(&LakeProfile::tiny(), 9);
        let cols: Vec<&Column> = corpus.columns().collect();
        let reference = PatternIndex::build(
            &cols,
            &IndexConfig {
                num_threads: 1,
                ..Default::default()
            },
        )
        .to_bytes();
        for threads in [3usize, 4, 64] {
            let built = PatternIndex::build(
                &cols,
                &IndexConfig {
                    num_threads: threads,
                    ..Default::default()
                },
            );
            assert_eq!(built.to_bytes(), reference, "threads={threads}");
        }
    }

    /// Shard routing is pure fingerprint arithmetic, so the shard count
    /// must never change the indexed statistics — only the partitioning.
    #[test]
    fn shard_count_does_not_change_statistics() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(80), 12);
        let cols: Vec<&Column> = corpus.columns().collect();
        let reference = PatternIndex::build(
            &cols,
            &IndexConfig {
                shard_bits: 0,
                ..Default::default()
            },
        );
        let want: std::collections::HashMap<u64, PatternStats> = reference.entries().collect();
        for shard_bits in [1u32, 4, 6, 10] {
            let built = PatternIndex::build(
                &cols,
                &IndexConfig {
                    shard_bits,
                    ..Default::default()
                },
            );
            assert_eq!(built.shard_count(), 1 << shard_bits);
            assert_eq!(built.len(), reference.len(), "bits={shard_bits}");
            for (k, s) in built.entries() {
                let r = want.get(&k).expect("same pattern set");
                assert_eq!(s.fpr.to_bits(), r.fpr.to_bits(), "bits={shard_bits}");
                assert_eq!(s.cov, r.cov);
                // Entry really lives in the shard its fingerprint routes to.
                assert!(built.shards()[built.shard_of_fingerprint(k)]
                    .map
                    .contains_key(&k));
            }
            // Resharding back to one shard reproduces the reference bytes.
            assert_eq!(built.reshard(0).to_bytes(), reference.to_bytes());
        }
    }

    /// The prefix keys of one indexed pattern, derived from its tokens:
    /// the closed fingerprint after every non-literal token short of the
    /// last, up to [`PREFIX_TOKENS`] tokens — the internal nodes the DFS
    /// that emitted the pattern passed through.
    fn prefix_keys_of(pattern: &Pattern) -> Vec<u64> {
        let tokens = pattern.tokens();
        let mut state = av_pattern::FingerprintState::new();
        let mut keys = Vec::new();
        for token in tokens.iter().take(tokens.len() - 1).take(PREFIX_TOKENS) {
            state = state.push(token);
            keys.extend(state.closed());
        }
        keys
    }

    /// The fold-direct streaming build must persist to bytes identical to
    /// the materializing reference: profile each column into
    /// `(Pattern, matched_frac)` pairs, merge per column by pattern, fold
    /// with `add_impurity` — the pre-streaming dataflow — and key the
    /// prefixes of every pattern from its tokens.
    #[test]
    fn fold_direct_build_matches_materializing_reference() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(150), 7);
        let cols: Vec<&Column> = corpus.columns().collect();
        for keep_patterns in [false, true] {
            let config = IndexConfig {
                keep_patterns,
                ..Default::default()
            };
            let built = PatternIndex::build(&cols, &config);
            let mut reference = PatternIndex::empty(config.tau, config.shard_bits);
            for col in &cols {
                for (pattern, frac) in
                    av_pattern::column_pattern_profile(&col.values, &config.pattern, config.tau)
                {
                    let fp = pattern.fingerprint();
                    reference.fold_impurity(fp, 1.0 - frac, pattern.len().min(255) as u8);
                    for key in prefix_keys_of(&pattern) {
                        reference.insert_prefix(key);
                    }
                    if keep_patterns {
                        reference.insert_pattern_string(fp, pattern.to_string());
                    }
                }
            }
            reference.num_columns = cols.len() as u64;
            assert_eq!(
                built.to_bytes(),
                reference.to_bytes(),
                "keep_patterns={keep_patterns}"
            );
        }
    }

    #[test]
    fn scan_agrees_with_index() {
        let corpus = generate_lake(&LakeProfile::tiny(), 4);
        let cols: Vec<&Column> = corpus.columns().collect();
        let config = IndexConfig::default();
        let index = PatternIndex::build(&cols, &config);
        let probes: Vec<Pattern> = vec![
            parse("<digit>+.<digit>+.<digit>+.<digit>+").unwrap(),
            parse("<letter>{3} <digit>{2} <digit>{4}").unwrap(),
            parse("ZZZ-does-not-exist").unwrap(),
        ];
        let scanned = scan_corpus_fpr(&cols, &probes, &config);
        for (p, (fpr, cov)) in probes.iter().zip(&scanned) {
            let idx = index.lookup(p);
            match idx {
                Some(s) => {
                    assert!((s.fpr - fpr).abs() < 1e-9, "{p}");
                    assert_eq!(s.cov, *cov, "{p}");
                }
                None => assert_eq!(*cov, 0, "{p}"),
            }
        }
    }

    /// The fanned-out scan must be bit-identical for every worker count.
    #[test]
    fn scan_is_thread_count_invariant() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(60), 14);
        let cols: Vec<&Column> = corpus.columns().collect();
        let probes: Vec<Pattern> = vec![
            parse("<digit>+.<digit>+.<digit>+.<digit>+").unwrap(),
            parse("<alnum>{8}-<alnum>{4}-<alnum>{4}-<alnum>{4}-<alnum>{12}").unwrap(),
            parse("<digit>{2}:<digit>{2}:<digit>{2}").unwrap(),
        ];
        let reference = scan_corpus_fpr(
            &cols,
            &probes,
            &IndexConfig {
                num_threads: 1,
                ..Default::default()
            },
        );
        for threads in [2usize, 4, 16] {
            let scanned = scan_corpus_fpr(
                &cols,
                &probes,
                &IndexConfig {
                    num_threads: threads,
                    ..Default::default()
                },
            );
            for ((f1, c1), (f2, c2)) in reference.iter().zip(&scanned) {
                assert_eq!(f1.to_bits(), f2.to_bits(), "threads={threads}");
                assert_eq!(c1, c2, "threads={threads}");
            }
        }
    }

    /// The defect this hasher replaced: with identity hashing, top-bit
    /// shard routing left one shard's keys with 2 distinct control tags at
    /// 6 shard bits and 1 at 12, so every probe "matched" half or all of
    /// the occupied slots it passed. Both ends of the hash std's map reads
    /// — the top 7 bits (tag) and the low bits (bucket) — must stay spread
    /// over fingerprints that share a shard.
    #[test]
    fn hasher_spreads_tags_and_buckets_within_one_shard() {
        use std::hash::BuildHasher;
        const SAMPLE: usize = 16_384;
        let hasher = BuildHasherDefault::<FingerprintHasher>::default();
        let fingerprint = |i: u32| av_pattern::fnv1a(&i.to_le_bytes());
        for shard_bits in [0u32, 6, 12] {
            let shard = shard_of(fingerprint(0), shard_bits);
            let mut tags = [false; 128];
            let mut buckets = [false; 4096];
            (0u32..)
                .map(fingerprint)
                .filter(|fp| shard_of(*fp, shard_bits) == shard)
                .take(SAMPLE)
                .for_each(|fp| {
                    let h = hasher.hash_one(fp);
                    tags[(h >> 57) as usize] = true;
                    buckets[(h & 0xfff) as usize] = true;
                });
            let tags = tags.iter().filter(|t| **t).count();
            let buckets = buckets.iter().filter(|b| **b).count();
            assert!(tags >= 120, "shard_bits={shard_bits}: {tags} of 128 tags");
            assert!(
                buckets >= 3_500,
                "shard_bits={shard_bits}: {buckets} of 4096 low-12-bit values"
            );
        }
    }

    #[test]
    fn histograms_are_consistent() {
        let (_corpus, index) = tiny_index();
        let by_len = index.token_length_histogram();
        let total: u64 = by_len.iter().map(|(_, c)| c).sum();
        assert_eq!(total, index.len() as u64);
        let by_cov = index.coverage_histogram(50);
        let total2: u64 = by_cov.iter().map(|(_, c)| c).sum();
        assert_eq!(total2, index.len() as u64);
        assert!(by_cov.iter().all(|(cov, _)| *cov <= 50));
    }

    #[test]
    fn keep_patterns_enables_head_analysis() {
        let corpus = generate_lake(&LakeProfile::tiny(), 21);
        let cols: Vec<&Column> = corpus.columns().collect();
        let config = IndexConfig {
            keep_patterns: true,
            ..Default::default()
        };
        let index = PatternIndex::build(&cols, &config);
        let heads = index.head_patterns(3, 0.05);
        assert!(!heads.is_empty());
        // Head patterns are sorted by coverage descending.
        for w in heads.windows(2) {
            assert!(w[0].1.cov >= w[1].1.cov);
        }
    }
}
