//! Incremental index maintenance: profile *new* corpus columns into an
//! [`IndexDelta`] and fold it into a live [`PatternIndex`] with
//! [`PatternIndex::merge_delta`] — the "answering under updates" dataflow:
//! query-time lookups stay O(1) against the live index while the corpus
//! grows, and nothing is ever rescanned.
//!
//! Exactness: both the index and the delta keep fixed-point integer
//! impurity accumulators (see [`crate::PatternStats`]'s module docs), so
//! `build(A) ⊕ delta(B)` equals `build(A ∪ B)` bit-for-bit on every
//! statistic, for any sharding and any merge order.
//!
//! A delta also carries the keys of its patterns' short prefixes (see
//! [`PatternIndex::admits_prefix`]); they are a set, so merging them is a
//! union, as order-independent as the accumulators.
//!
//! At merge time a delta [splits](IndexDelta::into_shard_parts) into
//! per-shard sub-deltas routed by fingerprint (a prefix key by its own top
//! bits), which is what lets [`PatternIndex::merge_delta`] (and the
//! concurrent [`crate::ShardedIndex`]) write to **only the shards the
//! delta touches**, copying one first only while a snapshot still shares
//! it — update cost tracks the delta, not the database.

use crate::build::{index_one_column, IndexConfig};
use crate::persist::{put_shard_sections, read_shard_sections, sections_len, PersistError};
use crate::shard::{shard_of, IndexShard};
use crate::stats::StatsAcc;
use av_corpus::Column;
use bytes::{Buf, BufMut};

#[cfg(doc)]
use crate::build::PatternIndex;

const DELTA_MAGIC: &[u8; 4] = b"AVDL";
const DELTA_VERSION: u32 = 2;

/// A profiled batch of new corpus columns, ready to merge into a live
/// [`PatternIndex`].
#[derive(Debug, Default, Clone)]
pub struct IndexDelta {
    /// The batch's accumulators, display strings and prefix keys: one
    /// shard that no routing has split yet.
    pub(crate) shard: IndexShard,
    pub(crate) num_columns: u64,
    pub(crate) tau: usize,
}

/// Why a delta could not be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta was profiled under a different token-limit τ than the
    /// index was built with; their pattern populations are incomparable.
    TauMismatch {
        /// τ of the receiving index.
        index_tau: usize,
        /// τ the delta was profiled with.
        delta_tau: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::TauMismatch {
                index_tau,
                delta_tau,
            } => write!(
                f,
                "delta profiled with tau {delta_tau} cannot merge into index built with tau {index_tau}"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl IndexDelta {
    /// Profile `columns` into a delta with the same map/reduce dataflow the
    /// full build uses: workers pull columns off a shared atomic cursor (a
    /// dynamic work queue, so a handful of giant columns cannot strand the
    /// other workers the way static chunking does), fold into thread-local
    /// shards with a per-worker reusable scratch, and merge at the end.
    /// The calling thread is one of the workers — the only one for a batch
    /// too small to pay for a thread spawn — and the reduce absorbs the
    /// helpers' shards into the caller's. The fixed-point accumulator merge
    /// is order-independent, so the result is bit-identical for every
    /// thread count and schedule.
    pub fn profile(columns: &[&Column], config: &IndexConfig) -> IndexDelta {
        let (mut shard, helped) = crate::build::run_work_queue(columns, config, |queue| {
            let mut shard = IndexShard::default();
            let mut scratch = crate::build::ColumnScratch::default();
            while let Some(range) = queue.next_range() {
                for col in &columns[range] {
                    index_one_column(col, config, &mut shard, &mut scratch);
                }
            }
            shard
        });
        for helper in helped {
            shard.absorb(helper);
        }
        IndexDelta {
            shard,
            num_columns: columns.len() as u64,
            tau: config.tau,
        }
    }

    /// Number of columns profiled into this delta.
    pub fn num_columns(&self) -> u64 {
        self.num_columns
    }

    /// Number of distinct patterns in this delta.
    pub fn len(&self) -> usize {
        self.shard.len()
    }

    /// True when no patterns were profiled.
    pub fn is_empty(&self) -> bool {
        self.shard.is_empty()
    }

    /// The token-limit τ this delta was profiled with.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// How many of `2^shard_bits` fingerprint shards this delta would
    /// touch if merged into an index sharded that way — the shards an
    /// ingest writes to (and the most it can have to copy).
    pub fn touched_shards(&self, shard_bits: u32) -> usize {
        // Clamp once and route with the same value — clamping only the
        // count while routing with the raw bits would index out of range.
        let shard_bits = shard_bits.min(crate::shard::MAX_SHARD_BITS);
        let count = 1usize << shard_bits;
        let mut touched = vec![false; count];
        for fp in self.shard.map.keys().chain(&self.shard.prefixes) {
            touched[shard_of(*fp, shard_bits)] = true;
        }
        touched.iter().filter(|t| **t).count()
    }

    /// Serialize for the write-ahead log (`AVDL` v2, little-endian):
    ///
    /// ```text
    /// magic "AVDL" | version u32 | tau u64 | num_columns u64
    /// n_entries u64, n_entries × (fingerprint u64, imp_fp u64, cov u64, token_len u8)
    /// n_strings u64, n_strings × (fingerprint u64, len u32, utf-8 bytes)
    /// n_prefixes u64, n_prefixes × key u64
    /// ```
    ///
    /// The body after the header is the delta's one shard in the section
    /// layout a checkpoint shard file and every AVIX v5 shard section use,
    /// written and read by the same two functions. Every section is sorted
    /// by its key, so the bytes are canonical, and
    /// [`IndexDelta::from_bytes`] restores a delta whose merge effect is
    /// bit-identical to the original's; v2 is the only version read.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend([self]);
        buf
    }

    /// Decode a delta serialized by [`IndexDelta::to_bytes`].
    pub fn from_bytes(mut buf: &[u8]) -> Result<IndexDelta, PersistError> {
        let err = |m: &str| PersistError::Format(m.to_string());
        if buf.remaining() < 4 || &buf[..4] != DELTA_MAGIC {
            return Err(err("bad delta magic"));
        }
        buf.advance(4);
        if buf.remaining() < 20 {
            return Err(err("truncated delta header"));
        }
        let version = buf.get_u32_le();
        if version != DELTA_VERSION {
            return Err(PersistError::Format(format!(
                "unsupported delta version {version}"
            )));
        }
        let tau = buf.get_u64_le() as usize;
        let num_columns = buf.get_u64_le();
        let shard = read_shard_sections(&mut buf, 0, 0)?;
        if buf.remaining() > 0 {
            return Err(err("trailing bytes after the delta's prefix section"));
        }
        Ok(IndexDelta {
            shard,
            num_columns,
            tau,
        })
    }

    /// Split into per-shard sub-deltas: entry `i` of `parts` holds the
    /// accumulators, display names and prefix keys that route to shard
    /// `i`, or `None` when the delta does not touch that shard.
    pub(crate) fn into_shard_parts(self, shard_bits: u32) -> ShardParts {
        let shard_bits = shard_bits.min(crate::shard::MAX_SHARD_BITS);
        let count = 1usize << shard_bits;
        let mut parts: Vec<Option<ShardPart>> = (0..count).map(|_| None).collect();
        let IndexShard {
            map,
            patterns,
            prefixes,
            ..
        } = self.shard;
        for (fp, acc) in map {
            parts[shard_of(fp, shard_bits)]
                .get_or_insert_with(ShardPart::default)
                .acc
                .push((fp, acc));
        }
        for (fp, name) in patterns {
            parts[shard_of(fp, shard_bits)]
                .get_or_insert_with(ShardPart::default)
                .names
                .push((fp, name));
        }
        for key in prefixes {
            parts[shard_of(key, shard_bits)]
                .get_or_insert_with(ShardPart::default)
                .prefixes
                .push(key);
        }
        ShardParts {
            parts,
            num_columns: self.num_columns,
        }
    }
}

/// Appends each delta's whole AVDL record (what [`IndexDelta::to_bytes`]
/// returns) to the buffer, reserving its exact size first — so a caller
/// that frames the record behind a header of its own (the write-ahead
/// log's record type byte) builds both in one buffer, with no second copy
/// of the record. Every durable ingest encodes its delta before it takes
/// the WAL lock, so a reallocation or a trailing copy would show up as
/// acknowledge latency.
impl<'a> Extend<&'a IndexDelta> for Vec<u8> {
    fn extend<I: IntoIterator<Item = &'a IndexDelta>>(&mut self, deltas: I) {
        for delta in deltas {
            self.reserve_exact(24 + sections_len(&delta.shard));
            self.put_slice(DELTA_MAGIC);
            self.put_u32_le(DELTA_VERSION);
            self.put_u64_le(delta.tau as u64);
            self.put_u64_le(delta.num_columns);
            put_shard_sections(&delta.shard, self);
        }
    }
}

/// The slice of a delta that routes to one shard.
#[derive(Debug, Default)]
pub(crate) struct ShardPart {
    pub(crate) acc: Vec<(u64, StatsAcc)>,
    pub(crate) names: Vec<(u64, String)>,
    pub(crate) prefixes: Vec<u64>,
}

/// A delta split by shard, ready for a touched-shards-only merge.
#[derive(Debug)]
pub(crate) struct ShardParts {
    /// One slot per shard; `None` = the delta does not touch it.
    pub(crate) parts: Vec<Option<ShardPart>>,
    /// Columns profiled into the delta (global, not per shard).
    pub(crate) num_columns: u64,
}

/// Convenience: an owned-column wrapper for [`IndexDelta::profile`].
pub fn profile_columns(columns: &[Column], config: &IndexConfig) -> IndexDelta {
    let refs: Vec<&Column> = columns.iter().collect();
    IndexDelta::profile(&refs, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{IndexConfig, PatternIndex};
    use av_corpus::{generate_lake, LakeProfile};
    use proptest::prelude::{any, prop_assert_eq};
    use std::collections::HashMap;

    fn assert_bitwise_equal(a: &PatternIndex, b: &PatternIndex) {
        assert_eq!(a.num_columns, b.num_columns);
        assert_eq!(a.tau, b.tau);
        assert_eq!(a.len(), b.len());
        let bm: HashMap<u64, crate::PatternStats> = b.entries().collect();
        for (k, sa) in a.entries() {
            let sb = bm.get(&k).expect("pattern present in both");
            assert_eq!(sa.fpr.to_bits(), sb.fpr.to_bits(), "fpr bits for {k}");
            assert_eq!(sa.cov, sb.cov);
            assert_eq!(sa.token_len, sb.token_len);
        }
    }

    #[test]
    fn delta_merge_matches_full_rebuild_bitwise() {
        let lake_a = generate_lake(&LakeProfile::tiny(), 5);
        let lake_b = generate_lake(&LakeProfile::tiny().scaled(70), 77);
        let cols_a: Vec<&Column> = lake_a.columns().collect();
        let cols_b: Vec<&Column> = lake_b.columns().collect();
        let union: Vec<&Column> = cols_a.iter().chain(cols_b.iter()).copied().collect();
        let config = IndexConfig::default();

        let full = PatternIndex::build(&union, &config);
        let mut incremental = PatternIndex::build(&cols_a, &config);
        incremental
            .merge_delta(IndexDelta::profile(&cols_b, &config))
            .unwrap();
        assert_bitwise_equal(&full, &incremental);
    }

    #[test]
    fn merge_order_is_irrelevant() {
        let lake_a = generate_lake(&LakeProfile::tiny().scaled(50), 1);
        let lake_b = generate_lake(&LakeProfile::tiny().scaled(60), 2);
        let cols_a: Vec<&Column> = lake_a.columns().collect();
        let cols_b: Vec<&Column> = lake_b.columns().collect();
        let config = IndexConfig::default();

        let da = IndexDelta::profile(&cols_a, &config);
        let db = IndexDelta::profile(&cols_b, &config);
        let mut ab = PatternIndex::build(&[], &config);
        ab.merge_delta(da.clone()).unwrap();
        ab.merge_delta(db.clone()).unwrap();
        let mut ba = PatternIndex::build(&[], &config);
        ba.merge_delta(db).unwrap();
        ba.merge_delta(da).unwrap();
        assert_bitwise_equal(&ab, &ba);
    }

    #[test]
    fn tau_mismatch_is_rejected() {
        let lake = generate_lake(&LakeProfile::tiny().scaled(30), 3);
        let cols: Vec<&Column> = lake.columns().collect();
        let mut index = PatternIndex::build(&cols, &IndexConfig::with_tau(13));
        let delta = IndexDelta::profile(&cols, &IndexConfig::with_tau(8));
        assert!(matches!(
            index.merge_delta(delta),
            Err(DeltaError::TauMismatch { .. })
        ));
    }

    #[test]
    fn delta_bytes_roundtrip_merges_identically() {
        let lake_a = generate_lake(&LakeProfile::tiny().scaled(50), 21);
        let lake_b = generate_lake(&LakeProfile::tiny().scaled(40), 22);
        let cols_a: Vec<&Column> = lake_a.columns().collect();
        let cols_b: Vec<&Column> = lake_b.columns().collect();
        let config = IndexConfig {
            keep_patterns: true,
            ..Default::default()
        };
        let delta = IndexDelta::profile(&cols_b, &config);
        let bytes = delta.to_bytes();
        let restored = IndexDelta::from_bytes(&bytes).unwrap();
        assert_eq!(restored.tau(), delta.tau());
        assert_eq!(restored.num_columns(), delta.num_columns());
        assert_eq!(restored.len(), delta.len());
        assert!(!delta.shard.prefixes.is_empty());
        assert_eq!(restored.shard.prefixes, delta.shard.prefixes);
        // Serialization is canonical: re-encoding is byte-stable.
        assert_eq!(restored.to_bytes(), bytes);
        // Merging the decoded delta is bit-identical to the original.
        let mut direct = PatternIndex::build(&cols_a, &config);
        direct.merge_delta(delta).unwrap();
        let mut replayed = PatternIndex::build(&cols_a, &config);
        replayed.merge_delta(restored).unwrap();
        assert_eq!(direct.to_bytes(), replayed.to_bytes());
    }

    #[test]
    fn corrupt_delta_bytes_are_rejected() {
        assert!(IndexDelta::from_bytes(b"nope").is_err());
        let lake = generate_lake(&LakeProfile::tiny().scaled(30), 4);
        let cols: Vec<&Column> = lake.columns().collect();
        let bytes = IndexDelta::profile(&cols, &IndexConfig::default()).to_bytes();
        assert!(IndexDelta::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        let mut extra = bytes.clone();
        extra.push(7);
        assert!(IndexDelta::from_bytes(&extra).is_err());
    }

    #[test]
    fn empty_delta_is_a_noop() {
        let lake = generate_lake(&LakeProfile::tiny().scaled(40), 9);
        let cols: Vec<&Column> = lake.columns().collect();
        let config = IndexConfig::default();
        let mut index = PatternIndex::build(&cols, &config);
        let before: Vec<(u64, crate::PatternStats)> = index.entries().collect();
        index
            .merge_delta(IndexDelta::profile(&[], &config))
            .unwrap();
        assert_eq!(index.num_columns, cols.len() as u64);
        let after: HashMap<u64, crate::PatternStats> = index.entries().collect();
        for (k, s) in before {
            assert_eq!(after[&k], s);
        }
    }

    /// The section writer the AVDL encoder carried before a delta became
    /// a shard, kept as the referee of the one writer: each section is
    /// collected from its own map, sorted and written in a loop of its own.
    fn reference_sections(shard: &IndexShard, buf: &mut Vec<u8>) {
        let mut entries: Vec<(u64, StatsAcc)> = shard.map.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        buf.put_u64_le(entries.len() as u64);
        for (k, s) in &entries {
            buf.put_u64_le(*k);
            buf.put_u64_le(s.imp_fp);
            buf.put_u64_le(s.cols);
            buf.put_u8(s.token_len);
        }
        let mut names: Vec<(u64, &str)> = shard
            .patterns
            .iter()
            .map(|(k, s)| (*k, s.as_str()))
            .collect();
        names.sort_unstable_by_key(|(k, _)| *k);
        buf.put_u64_le(names.len() as u64);
        for (k, s) in names {
            buf.put_u64_le(k);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        let mut prefixes: Vec<u64> = shard.prefixes.iter().copied().collect();
        prefixes.sort_unstable();
        buf.put_u64_le(prefixes.len() as u64);
        for key in prefixes {
            buf.put_u64_le(key);
        }
    }

    /// The AVDL v2 record the reference writer produces.
    fn reference_delta_bytes(delta: &IndexDelta) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_slice(DELTA_MAGIC);
        buf.put_u32_le(DELTA_VERSION);
        buf.put_u64_le(delta.tau as u64);
        buf.put_u64_le(delta.num_columns);
        reference_sections(&delta.shard, &mut buf);
        buf
    }

    /// The AVIX v5 image the reference writer produces.
    fn reference_image_bytes(index: &PatternIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_slice(b"AVIX");
        buf.put_u32_le(5);
        buf.put_u64_le(index.num_columns);
        buf.put_u64_le(index.tau as u64);
        buf.put_u32_le(index.shard_bits());
        for shard in index.shards() {
            reference_sections(shard, &mut buf);
        }
        buf
    }

    /// One delta through the codec: its record is the reference's bytes,
    /// and the decoded record holds the same shard and merges into the
    /// same index as the delta itself.
    fn assert_delta_codec(delta: &IndexDelta, base: &PatternIndex) {
        let bytes = delta.to_bytes();
        assert_eq!(bytes, reference_delta_bytes(delta));
        let restored = IndexDelta::from_bytes(&bytes).unwrap();
        assert_eq!(restored.shard.map, delta.shard.map);
        assert_eq!(restored.shard.patterns, delta.shard.patterns);
        assert_eq!(restored.shard.prefixes, delta.shard.prefixes);
        let (mut direct, mut replayed) = (base.clone(), base.clone());
        direct.merge_delta(delta.clone()).unwrap();
        replayed.merge_delta(restored).unwrap();
        assert_eq!(direct.content_digest(), replayed.content_digest());
    }

    #[test]
    fn codec_referee_tiny_lakes() {
        for keep_patterns in [false, true] {
            let config = IndexConfig {
                keep_patterns,
                ..Default::default()
            };
            for seed in [31u64, 32, 33] {
                let lake = generate_lake(&LakeProfile::tiny().scaled(30), seed);
                let cols: Vec<&Column> = lake.columns().collect();
                let base = PatternIndex::build(&cols[..10], &config);
                for batch in cols[10..].chunks(7) {
                    assert_delta_codec(&IndexDelta::profile(batch, &config), &base);
                }
                let whole = PatternIndex::build(&cols, &config);
                assert_eq!(whole.to_bytes().to_vec(), reference_image_bytes(&whole));
            }
        }
    }

    proptest::proptest! {
        /// Random shards (any fingerprints, any accumulators, display
        /// strings for some entries, any prefix keys) through all three
        /// uses of the section layout: the AVDL record, the AVIX image
        /// at any shard count, and each shard's own section bytes.
        #[test]
        fn codec_referee_random_shards(
            entries in proptest::collection::vec(
                (any::<u64>(), 0u64..1 << 40, (1u64..500, 1u8..=20)),
                0..80,
            ),
            names in proptest::collection::vec(
                (
                    any::<usize>(),
                    proptest::string::string_regex("[a-z<>{}+0-9 .-]{0,12}").unwrap(),
                ),
                0..30,
            ),
            prefixes in proptest::collection::vec(any::<u64>(), 0..80),
        ) {
            let mut delta = IndexDelta {
                num_columns: entries.len() as u64,
                tau: 13,
                ..Default::default()
            };
            for (fp, imp_fp, (cols, token_len)) in &entries {
                let acc = StatsAcc::from_raw(*imp_fp, *cols, *token_len);
                delta.shard.map.insert(*fp, acc);
            }
            if !entries.is_empty() {
                for (i, name) in names {
                    delta.shard.patterns.insert(entries[i % entries.len()].0, name);
                }
            }
            delta.shard.prefixes.extend(prefixes);
            let shard_bits = (delta.shard.prefixes.len() % 7) as u32;
            let base = PatternIndex::empty(13, shard_bits);
            assert_delta_codec(&delta, &base);

            let mut index = base;
            index.merge_delta(delta).unwrap();
            let image = index.to_bytes();
            prop_assert_eq!(image.to_vec(), reference_image_bytes(&index));
            let reloaded = PatternIndex::from_bytes(&image).unwrap();
            prop_assert_eq!(reloaded.to_bytes(), image.clone());
            for (i, shard) in index.shards().iter().enumerate() {
                let sections = shard.section_bytes();
                let decoded = IndexShard::from_section_bytes(&sections, i, shard_bits).unwrap();
                prop_assert_eq!(decoded.section_bytes(), sections);
            }
            let other_bits = (shard_bits + 3) % 7;
            let round_trip = index.reshard(other_bits).reshard(shard_bits);
            prop_assert_eq!(round_trip.to_bytes(), image);
        }
    }

    /// A display string is read only into the shard that holds its
    /// entry: a record whose string has no entry is refused, where the
    /// delta's own reader once decoded it.
    #[test]
    fn a_delta_string_without_an_entry_is_refused() {
        let mut record = Vec::new();
        record.put_slice(b"AVDL");
        record.put_u32_le(2);
        record.put_u64_le(13); // tau
        record.put_u64_le(1); // num_columns
        record.put_u64_le(0); // no entries
        record.put_u64_le(1); // one display string ...
        record.put_u64_le(0x0123_4567_89ab_cdef); // ... for a fingerprint with no entry
        record.put_u32_le(7);
        record.put_slice(b"<digit>");
        record.put_u64_le(0); // no prefix keys
        match IndexDelta::from_bytes(&record) {
            Err(PersistError::Format(m)) => {
                assert_eq!(m, "pattern string without a matching entry")
            }
            other => panic!("a string with no entry must be refused, got {other:?}"),
        }
    }
}
