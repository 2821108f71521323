//! Generation-numbered checkpoint manifests.
//!
//! A manifest is the durable root of a checkpoint: it names the catalog
//! file and one shard file per index shard, each with its CRC-32 and
//! size, plus the WAL watermark (`last_lsn`) the checkpoint covers.
//! Manifests are written with the atomic temp + fsync + rename +
//! dir-fsync dance ([`crate::storage::write_atomic`]) and carry a CRC-32
//! footer over their own bytes, so recovery can scan generations
//! newest-first and trust the first manifest that verifies.

use std::fmt;
use std::path::Path;

use bytes::{Buf, BufMut, BytesMut};

use crate::crc32::crc32;
use crate::storage::{write_atomic, Storage};
use crate::DurableError;

const MAGIC: &[u8; 4] = b"AVMN";
const VERSION: u32 = 1;
/// Guard on decoded counts/lengths so a corrupt manifest cannot force a
/// huge allocation before the footer check catches it.
const MAX_NAME_LEN: usize = 4096;
const MAX_SHARDS: usize = 1 << 20;

/// One shard file referenced by a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFileEntry {
    /// Shard index within the pattern index.
    pub shard: u32,
    /// File name (relative to the checkpoint directory).
    pub file: String,
    /// CRC-32 of the file's full contents.
    pub crc: u32,
    /// File size in bytes.
    pub bytes: u64,
}

/// A checkpoint manifest. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic checkpoint generation (1-based).
    pub generation: u64,
    /// Highest LSN covered: recovery replays only WAL records above it.
    pub last_lsn: u64,
    /// Number of columns ingested into the checkpointed index.
    pub num_columns: u64,
    /// The index's FPR threshold denominator (tau).
    pub tau: u64,
    /// log2 of the shard count.
    pub shard_bits: u32,
    /// Catalog file name (relative to the checkpoint directory); empty if
    /// the checkpoint carries no catalog.
    pub catalog_file: String,
    /// CRC-32 of the catalog file's contents.
    pub catalog_crc: u32,
    /// Catalog file size in bytes.
    pub catalog_bytes: u64,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardFileEntry>,
}

/// Validation failure while decoding a manifest.
#[derive(Debug)]
pub struct ManifestError {
    /// Byte offset where validation failed.
    pub offset: u64,
    /// What failed to validate.
    pub detail: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "manifest invalid at byte {}: {}",
            self.offset, self.detail
        )
    }
}

impl std::error::Error for ManifestError {}

fn put_name(buf: &mut BytesMut, name: &str) {
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name.as_bytes());
}

fn get_name(buf: &mut &[u8], offset: &mut u64) -> Result<String, ManifestError> {
    let len = get_u32(buf, offset, "name length")? as usize;
    if len > MAX_NAME_LEN {
        return Err(ManifestError {
            offset: *offset,
            detail: format!("name length {len} exceeds limit"),
        });
    }
    if buf.len() < len {
        return Err(ManifestError {
            offset: *offset,
            detail: "truncated name".into(),
        });
    }
    let name = String::from_utf8(buf[..len].to_vec()).map_err(|_| ManifestError {
        offset: *offset,
        detail: "name is not UTF-8".into(),
    })?;
    buf.advance(len);
    *offset += len as u64;
    Ok(name)
}

fn get_u32(buf: &mut &[u8], offset: &mut u64, what: &str) -> Result<u32, ManifestError> {
    if buf.len() < 4 {
        return Err(ManifestError {
            offset: *offset,
            detail: format!("truncated {what}"),
        });
    }
    *offset += 4;
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8], offset: &mut u64, what: &str) -> Result<u64, ManifestError> {
    if buf.len() < 8 {
        return Err(ManifestError {
            offset: *offset,
            detail: format!("truncated {what}"),
        });
    }
    *offset += 8;
    Ok(buf.get_u64_le())
}

impl Manifest {
    /// File name for generation `generation`.
    pub fn file_name(generation: u64) -> String {
        format!("manifest-{generation:016x}.avman")
    }

    /// Parse a generation number back out of a manifest file name.
    pub fn parse_file_name(name: &str) -> Option<u64> {
        let hex = name.strip_prefix("manifest-")?.strip_suffix(".avman")?;
        if hex.len() != 16 {
            return None;
        }
        u64::from_str_radix(hex, 16).ok()
    }

    /// Serialize, ending with a CRC-32 footer over all preceding bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(128 + 64 * self.shards.len());
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION);
        buf.put_u64_le(self.generation);
        buf.put_u64_le(self.last_lsn);
        buf.put_u64_le(self.num_columns);
        buf.put_u64_le(self.tau);
        buf.put_u32_le(self.shard_bits);
        put_name(&mut buf, &self.catalog_file);
        buf.put_u32_le(self.catalog_crc);
        buf.put_u64_le(self.catalog_bytes);
        buf.put_u32_le(self.shards.len() as u32);
        for entry in &self.shards {
            buf.put_u32_le(entry.shard);
            put_name(&mut buf, &entry.file);
            buf.put_u32_le(entry.crc);
            buf.put_u64_le(entry.bytes);
        }
        let footer = crc32(&buf);
        buf.put_u32_le(footer);
        buf.to_vec()
    }

    /// Decode and validate (magic, version, CRC-32 footer).
    pub fn from_bytes(data: &[u8]) -> Result<Manifest, ManifestError> {
        if data.len() < 8 {
            return Err(ManifestError {
                offset: 0,
                detail: "shorter than magic + version".into(),
            });
        }
        if &data[..4] != MAGIC {
            return Err(ManifestError {
                offset: 0,
                detail: "bad magic".into(),
            });
        }
        let body_len = data.len() - 4;
        let stored = (&data[body_len..]).get_u32_le();
        let computed = crc32(&data[..body_len]);
        if stored != computed {
            return Err(ManifestError {
                offset: body_len as u64,
                detail: format!("crc32 mismatch: stored {stored:08x}, computed {computed:08x}"),
            });
        }
        let mut buf = &data[4..body_len];
        let mut offset = 4u64;
        let version = get_u32(&mut buf, &mut offset, "version")?;
        if version != VERSION {
            return Err(ManifestError {
                offset: 4,
                detail: format!("unsupported version {version}"),
            });
        }
        let generation = get_u64(&mut buf, &mut offset, "generation")?;
        let last_lsn = get_u64(&mut buf, &mut offset, "last_lsn")?;
        let num_columns = get_u64(&mut buf, &mut offset, "num_columns")?;
        let tau = get_u64(&mut buf, &mut offset, "tau")?;
        let shard_bits = get_u32(&mut buf, &mut offset, "shard_bits")?;
        let catalog_file = get_name(&mut buf, &mut offset)?;
        let catalog_crc = get_u32(&mut buf, &mut offset, "catalog crc")?;
        let catalog_bytes = get_u64(&mut buf, &mut offset, "catalog size")?;
        let n_shards = get_u32(&mut buf, &mut offset, "shard count")? as usize;
        if n_shards > MAX_SHARDS {
            return Err(ManifestError {
                offset,
                detail: format!("shard count {n_shards} exceeds limit"),
            });
        }
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let shard = get_u32(&mut buf, &mut offset, "shard index")?;
            let file = get_name(&mut buf, &mut offset)?;
            let crc = get_u32(&mut buf, &mut offset, "shard crc")?;
            let bytes = get_u64(&mut buf, &mut offset, "shard size")?;
            shards.push(ShardFileEntry {
                shard,
                file,
                crc,
                bytes,
            });
        }
        if !buf.is_empty() {
            return Err(ManifestError {
                offset,
                detail: format!("{} trailing bytes", buf.len()),
            });
        }
        Ok(Manifest {
            generation,
            last_lsn,
            num_columns,
            tau,
            shard_bits,
            catalog_file,
            catalog_crc,
            catalog_bytes,
            shards,
        })
    }

    /// Write this manifest into `dir` atomically (temp + fsync + rename +
    /// dir fsync).
    pub fn write(&self, storage: &dyn Storage, dir: &Path) -> Result<(), DurableError> {
        let path = dir.join(Manifest::file_name(self.generation));
        write_atomic(storage, &path, &self.to_bytes())?;
        Ok(())
    }

    /// All manifest generations present in `dir`, newest first.
    pub(crate) fn list_generations(
        storage: &dyn Storage,
        dir: &Path,
    ) -> Result<Vec<u64>, DurableError> {
        let mut gens: Vec<u64> = storage
            .list(dir)?
            .iter()
            .filter_map(|n| Manifest::parse_file_name(n))
            .collect();
        gens.sort_unstable_by(|a, b| b.cmp(a));
        Ok(gens)
    }

    /// Load the newest manifest in `dir` that validates, together with
    /// the generations that were skipped as corrupt. `Ok(None)` means no
    /// manifest exists at all; manifests of which none validates are a
    /// [`DurableError::Corrupt`] naming the newest, so recovery never
    /// mistakes a damaged directory for an empty one.
    pub fn load_newest(
        storage: &dyn Storage,
        dir: &Path,
    ) -> Result<Option<(Manifest, Vec<u64>)>, DurableError> {
        let mut skipped = Vec::new();
        let mut refusal = None;
        for generation in Manifest::list_generations(storage, dir)? {
            let file = Manifest::file_name(generation);
            let (offset, detail) = match storage.read(&dir.join(&file)) {
                Ok(data) => match Manifest::from_bytes(&data) {
                    Ok(m) => return Ok(Some((m, skipped))),
                    Err(e) => (Some(e.offset), e.detail),
                },
                Err(e) => (None, format!("unreadable: {e}")),
            };
            refusal.get_or_insert(DurableError::Corrupt {
                file,
                offset,
                detail: format!("{detail}, and no older manifest verifies"),
            });
            skipped.push(generation);
        }
        refusal.map_or(Ok(None), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::MemStorage;
    use std::path::PathBuf;

    fn sample(generation: u64) -> Manifest {
        Manifest {
            generation,
            last_lsn: 42,
            num_columns: 1000,
            tau: 13,
            shard_bits: 3,
            catalog_file: format!("catalog-g{generation:x}.avcat"),
            catalog_crc: 0xDEAD_BEEF,
            catalog_bytes: 512,
            shards: (0..8)
                .map(|i| ShardFileEntry {
                    shard: i,
                    file: format!("shard-{i:04x}-g{generation:x}.avs"),
                    crc: 0x1000 + i,
                    bytes: 64 * (i as u64 + 1),
                })
                .collect(),
        }
    }

    #[test]
    fn roundtrip() {
        let m = sample(7);
        let bytes = m.to_bytes();
        let back = Manifest::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample(3).to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Manifest::from_bytes(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample(3).to_bytes();
        for len in 0..bytes.len() {
            assert!(Manifest::from_bytes(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn load_newest_skips_corrupt_generations() {
        let storage = MemStorage::new();
        let dir = PathBuf::from("/ckpt");
        sample(1).write(&storage, &dir).unwrap();
        sample(2).write(&storage, &dir).unwrap();
        sample(3).write(&storage, &dir).unwrap();
        // Corrupt generation 3's file.
        storage.corrupt(&dir.join(Manifest::file_name(3)), 20);
        let (m, skipped) = Manifest::load_newest(&storage, &dir).unwrap().unwrap();
        assert_eq!(m.generation, 2);
        assert_eq!(skipped, vec![3]);
        // With none left that verifies, the newest is named as corrupt.
        storage.corrupt(&dir.join(Manifest::file_name(2)), 20);
        storage.corrupt(&dir.join(Manifest::file_name(1)), 20);
        match Manifest::load_newest(&storage, &dir) {
            Err(DurableError::Corrupt { file, .. }) => assert_eq!(file, Manifest::file_name(3)),
            other => panic!("expected a Corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn load_newest_empty_dir() {
        let storage = MemStorage::new();
        assert!(Manifest::load_newest(&storage, &PathBuf::from("/nope"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn file_name_roundtrip() {
        assert_eq!(
            Manifest::parse_file_name(&Manifest::file_name(0xABC)),
            Some(0xABC)
        );
        assert_eq!(Manifest::parse_file_name("manifest-xyz.avman"), None);
        assert_eq!(
            Manifest::parse_file_name("wal-0000000000000001.avwal"),
            None
        );
    }
}
