//! Index persistence: a compact binary format so the offline stage's output
//! can be shipped to the online service (§2.4: "the result from the offline
//! step is an index for lookup").
//!
//! Version 5 layout (little-endian) — a **shard directory**:
//!
//! ```text
//! magic "AVIX" | version u32 | num_columns u64 | tau u64 | shard_bits u32
//! then, for each of the 2^shard_bits shards in order:
//!   n_entries u64, n_entries × (fingerprint u64, imp_fp u64, cov u64, token_len u8)
//!   n_strings u64, n_strings × (fingerprint u64, len u32, utf-8 bytes)
//!   n_prefixes u64, n_prefixes × key u64
//! ```
//!
//! Entries, strings and prefix keys are each sorted within their shard;
//! because shard routing uses the *top* bits, the concatenation of the
//! shard sections is still globally sorted.
//!
//! The three sections are the one section layout of the crate: a
//! checkpoint shard file ([`IndexShard::section_bytes`]), each shard's
//! slice of an AVIX v5 image, and the body of an AVDL v2 delta record
//! ([`crate::IndexDelta::to_bytes`], one unrouted shard) are the same
//! bytes, written by one function and read back by one, which checks that
//! every key routes to the shard it is read into. The prefix keys
//! ([`PatternIndex::admits_prefix`]) cannot be derived at load — the image
//! holds fingerprints, not tokens — so they are stored; v5 is v4 with that
//! third section per shard, and every accumulator byte where v4 put it.
//! Version 5 is the only version read: no deployment ever wrote an earlier
//! one, and every other version number is refused.
//!
//! The format stores the **raw fixed-point impurity accumulator**
//! (`imp_fp`, scaled by 2³²) instead of the finished `fpr` float, so a
//! reloaded index remains exactly mergeable with later
//! [`crate::IndexDelta`]s — the persist → reload → merge path is
//! bit-for-bit identical to never having restarted. Shard versions are
//! runtime merge counters, not statistics, and are deliberately not
//! persisted: a freshly loaded index starts every shard at version 0.

use crate::build::PatternIndex;
use crate::shard::{shard_of, IndexShard, MAX_SHARD_BITS};
use crate::stats::StatsAcc;
use av_durable::{write_atomic, OsStorage, Storage};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"AVIX";
// v5: sharded directory layout with prefix keys (see module docs); the
// only version read.
const VERSION: u32 = 5;

/// Errors from loading a persisted index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not an index or is corrupt.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "index io error: {e}"),
            PersistError::Format(m) => write!(f, "index format error: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Bytes [`put_shard_sections`] writes for `shard`, so a writer can size
/// its buffer once.
pub(crate) fn sections_len(shard: &IndexShard) -> usize {
    // av-guard: allow(G4, reason = "a sum of string lengths: order-independent, no byte follows it")
    let strings: usize = shard.patterns.values().map(|s| 12 + s.len()).sum();
    24 + shard.len() * 25 + strings + shard.prefixes.len() * 8
}

/// Append one shard's entry, string and prefix sections to `buf`, each
/// sorted by its key. The one writer of the section layout: a shard file,
/// an AVIX v5 shard section and an AVDL v2 body are these bytes.
pub(crate) fn put_shard_sections(shard: &IndexShard, buf: &mut impl BufMut) {
    let mut entries: Vec<(u64, StatsAcc)> = shard.map.iter().map(|(k, v)| (*k, *v)).collect();
    entries.sort_unstable_by_key(|(k, _)| *k);
    buf.put_u64_le(entries.len() as u64);
    for (k, s) in &entries {
        buf.put_u64_le(*k);
        buf.put_u64_le(s.imp_fp);
        buf.put_u64_le(s.cols);
        buf.put_u8(s.token_len);
    }
    let mut strings: Vec<(u64, &str)> = shard
        .patterns
        .iter()
        .map(|(k, s)| (*k, s.as_str()))
        .collect();
    strings.sort_unstable_by_key(|(k, _)| *k);
    buf.put_u64_le(strings.len() as u64);
    for (k, s) in strings {
        buf.put_u64_le(k);
        buf.put_u32_le(s.len() as u32);
        buf.put_slice(s.as_bytes());
    }
    let prefixes = shard.prefix_keys();
    buf.put_u64_le(prefixes.len() as u64);
    for key in prefixes {
        buf.put_u64_le(key);
    }
}

/// Read one shard's three sections off the front of `buf`, the one reader
/// of the layout [`put_shard_sections`] writes. Every fingerprint and
/// prefix key must route to shard `shard_idx` under `shard_bits` (a
/// section read into the wrong shard would misroute lookups), and every
/// display string must belong to an entry. Counts are checked against the
/// bytes left before anything is reserved, so a corrupt count cannot
/// trigger a huge allocation.
pub(crate) fn read_shard_sections(
    buf: &mut &[u8],
    shard_idx: usize,
    shard_bits: u32,
) -> Result<IndexShard, PersistError> {
    let err = |m: &str| PersistError::Format(m.to_string());
    let misrouted = |what: &str, k: u64| {
        PersistError::Format(format!(
            "{what} {k:#018x} does not route to shard {shard_idx}"
        ))
    };
    let mut shard = IndexShard::default();
    if buf.remaining() < 8 {
        return Err(err("missing entry section"));
    }
    let n = buf.get_u64_le() as usize;
    if buf.remaining() / 25 < n {
        return Err(err("truncated entries"));
    }
    shard.map.reserve(n);
    for _ in 0..n {
        let k = buf.get_u64_le();
        if shard_of(k, shard_bits) != shard_idx {
            return Err(misrouted("fingerprint", k));
        }
        let imp_fp = buf.get_u64_le();
        let cols = buf.get_u64_le();
        let token_len = buf.get_u8();
        shard
            .map
            .insert(k, StatsAcc::from_raw(imp_fp, cols, token_len));
    }
    if buf.remaining() < 8 {
        return Err(err("missing string section"));
    }
    let ns = buf.get_u64_le() as usize;
    shard.patterns.reserve(ns.min(buf.remaining() / 12));
    for _ in 0..ns {
        if buf.remaining() < 12 {
            return Err(err("truncated strings"));
        }
        let k = buf.get_u64_le();
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return Err(err("truncated string payload"));
        }
        if !shard.map.contains_key(&k) {
            return Err(err("pattern string without a matching entry"));
        }
        let s = String::from_utf8(buf[..len].to_vec())
            .map_err(|_| err("invalid utf-8 in pattern string"))?;
        buf.advance(len);
        shard.patterns.insert(k, s);
    }
    if buf.remaining() < 8 {
        return Err(err("missing prefix section"));
    }
    let np = buf.get_u64_le() as usize;
    if buf.remaining() / 8 < np {
        return Err(err("truncated prefix keys"));
    }
    shard.prefixes.reserve(np);
    for _ in 0..np {
        let key = buf.get_u64_le();
        if shard_of(key, shard_bits) != shard_idx {
            return Err(misrouted("prefix key", key));
        }
        shard.prefixes.insert(key);
    }
    Ok(shard)
}

/// Refuse a shard count past [`MAX_SHARD_BITS`] before anything is sized
/// by it.
fn check_shard_bits(shard_bits: u32) -> Result<(), PersistError> {
    if shard_bits > MAX_SHARD_BITS {
        return Err(PersistError::Format(format!(
            "implausible shard_bits {shard_bits}"
        )));
    }
    Ok(())
}

impl IndexShard {
    /// Serialize this shard's entry, string and prefix sections —
    /// byte-identical to the slice of an AVIX v5 image that holds this
    /// shard. Checkpoint shard files are this plus framing owned by the
    /// durability layer.
    pub fn section_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(sections_len(self));
        put_shard_sections(self, &mut buf);
        buf.freeze()
    }

    /// Decode the sections produced by [`IndexShard::section_bytes`],
    /// verifying that every fingerprint and prefix key actually routes to
    /// shard `shard_idx` under `shard_bits` — a shard file that was renamed
    /// or swapped fails here instead of silently misrouting lookups.
    pub fn from_section_bytes(
        mut buf: &[u8],
        shard_idx: usize,
        shard_bits: u32,
    ) -> Result<IndexShard, PersistError> {
        let shard = read_shard_sections(&mut buf, shard_idx, shard_bits)?;
        if buf.remaining() > 0 {
            return Err(PersistError::Format(
                "trailing bytes after prefix section".to_string(),
            ));
        }
        Ok(shard)
    }
}

impl PatternIndex {
    /// Serialize to bytes (AVIX v5).
    pub fn to_bytes(&self) -> Bytes {
        let sections: usize = self.shards.iter().map(|s| sections_len(s)).sum();
        let mut buf = BytesMut::with_capacity(28 + sections);
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(self.num_columns);
        buf.put_u64_le(self.tau as u64);
        buf.put_u32_le(self.shard_bits());
        for shard in self.shards.iter() {
            put_shard_sections(shard, &mut buf);
        }
        buf.freeze()
    }

    /// Assemble an index from individually decoded shards (the checkpoint
    /// recovery path, and [`PatternIndex::from_bytes`]). `shards.len()`
    /// must be `2^shard_bits`; routing correctness within each shard is
    /// the section reader's job.
    pub fn from_shards(
        shards: Vec<IndexShard>,
        shard_bits: u32,
        num_columns: u64,
        tau: usize,
    ) -> Result<PatternIndex, PersistError> {
        check_shard_bits(shard_bits)?;
        if shards.len() != 1usize << shard_bits {
            return Err(PersistError::Format(format!(
                "{} shards do not fit shard_bits {shard_bits}",
                shards.len()
            )));
        }
        Ok(PatternIndex {
            shards: shards.into_iter().map(Arc::new).collect(),
            shard_bits,
            num_columns,
            tau,
        })
    }

    /// Deserialize from bytes (AVIX v5; any other version is refused).
    pub fn from_bytes(mut buf: &[u8]) -> Result<PatternIndex, PersistError> {
        let err = |m: &str| PersistError::Format(m.to_string());
        if buf.remaining() < 4 || &buf[..4] != MAGIC {
            return Err(err("bad magic"));
        }
        buf.advance(4);
        if buf.remaining() < 24 {
            return Err(err("truncated header"));
        }
        let version = buf.get_u32_le();
        if version != VERSION {
            return Err(PersistError::Format(format!(
                "unsupported version {version}"
            )));
        }
        let num_columns = buf.get_u64_le();
        let tau = buf.get_u64_le() as usize;
        let shard_bits = buf.get_u32_le();
        check_shard_bits(shard_bits)?;
        let shards = (0..1usize << shard_bits)
            .map(|i| read_shard_sections(&mut buf, i, shard_bits))
            .collect::<Result<Vec<_>, _>>()?;
        if buf.remaining() > 0 {
            return Err(err("trailing bytes after last shard"));
        }
        PatternIndex::from_shards(shards, shard_bits, num_columns, tau)
    }

    /// A stable FNV-1a digest of the persisted byte image. Because
    /// [`PatternIndex::to_bytes`] sorts entries by fingerprint per shard,
    /// shard routing is pure fingerprint arithmetic, and the build is
    /// bit-deterministic across thread counts, the digest of an index
    /// built from a seeded corpus is a constant — CI pins it to catch
    /// silent format or determinism drift.
    pub fn content_digest(&self) -> u64 {
        av_pattern::fnv1a(&self.to_bytes())
    }

    /// Write the index file at `path` atomically (see [`write_atomic`]):
    /// the bytes go to a sibling `.tmp` file which is fsynced and renamed
    /// over `path`, then the parent directory is fsynced so the rename
    /// survives a crash. A crash at any point leaves either the old image
    /// or the new one at `path`, never a truncated hybrid.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        write_atomic(&OsStorage, path.as_ref(), &self.to_bytes())?;
        Ok(())
    }

    /// Read the index file at `path`.
    pub fn load(path: impl AsRef<Path>) -> Result<PatternIndex, PersistError> {
        PatternIndex::from_bytes(&OsStorage.read(path.as_ref())?)
    }
}

#[cfg(test)]
mod tests {

    use super::PersistError;
    use crate::build::{IndexConfig, PatternIndex};
    use av_corpus::{generate_lake, Column, LakeProfile};
    use bytes::Buf;

    /// The v4 image inside a v5 one: the same header under version 4, and
    /// every shard's entry and string sections without its prefix section.
    fn without_prefix_sections(v5: &[u8]) -> Vec<u8> {
        let shard_bits = u32::from_le_bytes(v5[24..28].try_into().unwrap());
        let mut v4 = Vec::with_capacity(v5.len());
        v4.extend_from_slice(b"AVIX");
        v4.extend_from_slice(&4u32.to_le_bytes());
        v4.extend_from_slice(&v5[8..28]);
        let mut buf = &v5[28..];
        for _ in 0..1usize << shard_bits {
            let shard = buf;
            let entries = buf.get_u64_le() as usize;
            buf.advance(entries * 25);
            for _ in 0..buf.get_u64_le() {
                buf.advance(8);
                let len = buf.get_u32_le() as usize;
                buf.advance(len);
            }
            v4.extend_from_slice(&shard[..shard.len() - buf.len()]);
            let keys = buf.get_u64_le() as usize;
            buf.advance(keys * 8);
        }
        assert!(buf.is_empty(), "every shard walked");
        v4
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let corpus = generate_lake(&LakeProfile::tiny(), 8);
        let cols: Vec<&Column> = corpus.columns().collect();
        let config = IndexConfig {
            keep_patterns: true,
            ..Default::default()
        };
        let index = PatternIndex::build(&cols, &config);
        let bytes = index.to_bytes();
        let restored = PatternIndex::from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), index.len());
        assert_eq!(restored.num_columns, index.num_columns);
        assert_eq!(restored.tau, index.tau);
        assert_eq!(restored.shard_count(), index.shard_count());
        let rmap: std::collections::HashMap<u64, crate::stats::PatternStats> =
            restored.entries().collect();
        for (k, s) in index.entries() {
            let r = rmap.get(&k).expect("entry survives");
            assert_eq!(r.cov, s.cov);
            assert!((r.fpr - s.fpr).abs() < 1e-15);
            assert_eq!(restored.pattern_string(k), index.pattern_string(k));
        }
        // The roundtrip is byte-stable: serialize → load → serialize.
        assert_eq!(restored.to_bytes(), bytes);
    }

    /// v5 is the only version read: a v4 image (the same shards without
    /// their prefix sections) is refused by its version number, while a
    /// single-shard v5 image loads and reshards to exactly what a native
    /// build at the default layout produces.
    #[test]
    fn v4_images_are_refused_and_one_shard_v5_reshards_to_native() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(60), 3);
        let cols: Vec<&Column> = corpus.columns().collect();
        let config = IndexConfig {
            shard_bits: 0,
            keep_patterns: true,
            ..Default::default()
        };
        let index = PatternIndex::build(&cols, &config);
        let v5 = index.to_bytes();
        assert!(index.shards()[0].prefix_keys().len() > 100);

        match PatternIndex::from_bytes(&without_prefix_sections(&v5)) {
            Err(PersistError::Format(m)) => assert_eq!(m, "unsupported version 4"),
            other => panic!("v4 image must be refused, got {other:?}"),
        }

        let loaded = PatternIndex::from_bytes(&v5).expect("v5 image loads");
        assert_eq!(loaded.shard_count(), 1);
        let native = PatternIndex::build(
            &cols,
            &IndexConfig {
                keep_patterns: true,
                ..Default::default()
            },
        );
        assert_eq!(
            loaded.reshard(native.shard_bits()).to_bytes(),
            native.to_bytes()
        );
    }

    /// The digest of the seeded tiny lake is a constant: lake generation,
    /// enumeration, the fold-direct build, shard routing, and the persist
    /// layout are all deterministic. A mismatch here means the AVIX byte
    /// image silently drifted — bump the format version (and this value)
    /// deliberately instead. `examples/index_build.rs` asserts the same
    /// constant in CI. With the prefix sections taken out and the version
    /// set back to 4, the image is byte for byte the v4 one it replaced:
    /// adding the prefixes moved no accumulator byte.
    #[test]
    fn tiny_lake_digest_is_pinned() {
        let corpus = generate_lake(&LakeProfile::tiny(), 42);
        let cols: Vec<&Column> = corpus.columns().collect();
        let index = PatternIndex::build(&cols, &IndexConfig::default());
        assert_eq!(index.len(), 45379);
        assert_eq!(index.content_digest(), PINNED_TINY_LAKE_DIGEST);
        let v4 = without_prefix_sections(&index.to_bytes());
        assert_eq!(av_pattern::fnv1a(&v4), PINNED_V4_TINY_LAKE_DIGEST);
    }

    /// Shared with `examples/index_build.rs`; see
    /// [`tiny_lake_digest_is_pinned`].
    const PINNED_TINY_LAKE_DIGEST: u64 = 0xf9ab4454e0245fc7;

    /// The AVIX v4 pin of the same build.
    const PINNED_V4_TINY_LAKE_DIGEST: u64 = 0xb3259407d0bafd49;

    #[test]
    fn corrupt_input_is_rejected() {
        assert!(PatternIndex::from_bytes(b"not an index").is_err());
        assert!(PatternIndex::from_bytes(b"AVIX").is_err());
        let corpus = generate_lake(&LakeProfile::tiny().scaled(50), 8);
        let cols: Vec<&Column> = corpus.columns().collect();
        let index = PatternIndex::build(&cols, &IndexConfig::default());
        let bytes = index.to_bytes();
        // Truncate mid-entries.
        assert!(PatternIndex::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        // Trailing garbage after the last shard is rejected too.
        let mut extra = bytes.to_vec();
        extra.push(0);
        assert!(PatternIndex::from_bytes(&extra).is_err());
        // v2 and earlier are refused outright.
        let mut old = bytes.to_vec();
        old[4..8].copy_from_slice(&2u32.to_le_bytes());
        assert!(PatternIndex::from_bytes(&old).is_err());
    }

    #[test]
    fn save_and_load_via_file() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(60), 2);
        let cols: Vec<&Column> = corpus.columns().collect();
        let index = PatternIndex::build(&cols, &IndexConfig::default());
        let dir = std::env::temp_dir().join("av_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.avix");
        index.save(&path).unwrap();
        let loaded = PatternIndex::load(&path).unwrap();
        assert_eq!(loaded.len(), index.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_sections_reassemble_the_exact_index() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(80), 17);
        let cols: Vec<&Column> = corpus.columns().collect();
        let config = IndexConfig {
            shard_bits: 3,
            keep_patterns: true,
            ..Default::default()
        };
        let index = PatternIndex::build(&cols, &config);
        // Serialize each shard independently, decode, reassemble: the
        // persisted image of the result is byte-identical.
        let shards: Vec<crate::IndexShard> = index
            .shards()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                crate::IndexShard::from_section_bytes(&s.section_bytes(), i, index.shard_bits())
                    .unwrap()
            })
            .collect();
        let rebuilt =
            PatternIndex::from_shards(shards, index.shard_bits(), index.num_columns, index.tau)
                .unwrap();
        assert_eq!(rebuilt.to_bytes(), index.to_bytes());
        // A shard decoded under the wrong index refuses to misroute.
        let donor = &index.shards()[1];
        if !donor.is_empty() {
            assert!(crate::IndexShard::from_section_bytes(
                &donor.section_bytes(),
                0,
                index.shard_bits()
            )
            .is_err());
        }
    }

    /// Each shard's section is read into that shard, and every key must
    /// route there: an image with one entry moved from the end of a
    /// shard's section to the front of the next one's (still globally
    /// sorted) is refused, where the image reader once rerouted it.
    #[test]
    fn an_entry_moved_into_the_next_shard_is_refused() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(40), 5);
        let cols: Vec<&Column> = corpus.columns().collect();
        let config = IndexConfig {
            shard_bits: 3,
            ..Default::default()
        };
        let image = PatternIndex::build(&cols, &config).to_bytes().to_vec();
        // The offsets of shard 0's and shard 1's entry counts.
        let mut counts = Vec::new();
        let mut buf = &image[28..];
        for _ in 0..2 {
            counts.push(image.len() - buf.len());
            let entries = buf.get_u64_le() as usize;
            buf.advance(entries * 25);
            for _ in 0..buf.get_u64_le() {
                buf.advance(8);
                let len = buf.get_u32_le() as usize;
                buf.advance(len);
            }
            let keys = buf.get_u64_le() as usize;
            buf.advance(keys * 8);
        }
        let count_at = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
        assert!(count_at(counts[0]) > 0);
        let moved_at = counts[0] + 8 + (count_at(counts[0]) as usize - 1) * 25;
        let entry = image[moved_at..moved_at + 25].to_vec();
        let mut forged = image[..moved_at].to_vec();
        forged.extend_from_slice(&image[moved_at + 25..counts[1] + 8]);
        forged.extend_from_slice(&entry);
        forged.extend_from_slice(&image[counts[1] + 8..]);
        forged[counts[0]..counts[0] + 8].copy_from_slice(&(count_at(counts[0]) - 1).to_le_bytes());
        let next = counts[1] - 25;
        forged[next..next + 8].copy_from_slice(&(count_at(counts[1]) + 1).to_le_bytes());
        match PatternIndex::from_bytes(&forged) {
            Err(PersistError::Format(m)) => assert!(
                m.starts_with("fingerprint ") && m.ends_with(" does not route to shard 1"),
                "{m}"
            ),
            other => panic!("a misrouted entry must be refused, got {other:?}"),
        }
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_residue() {
        let corpus = generate_lake(&LakeProfile::tiny().scaled(40), 6);
        let cols: Vec<&Column> = corpus.columns().collect();
        let index = PatternIndex::build(&cols, &IndexConfig::default());
        let dir = std::env::temp_dir().join("av_index_atomic_save");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.avix");
        index.save(&path).unwrap();
        index.save(&path).unwrap(); // overwrite goes through the same dance
        assert!(!dir.join("atomic.avix.tmp").exists());
        let loaded = PatternIndex::load(&path).unwrap();
        assert_eq!(loaded.to_bytes(), index.to_bytes());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_size_is_compact() {
        // The paper: terabyte corpus → sub-gigabyte index. Proportionally:
        // our index must be much smaller than the raw values it summarizes.
        // Use realistic column sizes — compactness comes from patterns being
        // shared across values and columns.
        let mut profile = LakeProfile::tiny().scaled(400);
        profile.rows = (100, 300);
        let corpus = generate_lake(&profile, 31);
        let cols: Vec<&Column> = corpus.columns().collect();
        let raw: usize = cols
            .iter()
            .flat_map(|c| c.values.iter())
            .map(|v| v.len())
            .sum();
        let index = PatternIndex::build(&cols, &IndexConfig::default());
        let bytes = index.to_bytes();
        assert!(
            bytes.len() < raw,
            "index {} bytes vs raw {} bytes",
            bytes.len(),
            raw
        );
    }
}
