//! Crash-safe durability for the validation service: WAL record encoding,
//! incremental checkpoints, and recovery.
//!
//! ## What is logged
//!
//! Every acknowledged mutating operation appends one CRC-framed record to
//! the write-ahead log *before* the service applies it:
//!
//! | type byte | op            | payload                                   |
//! |-----------|---------------|-------------------------------------------|
//! | `1`       | `ingest`      | the profiled [`IndexDelta`] (AVDL bytes)  |
//! | `2`       | `infer`       | the catalog entry's on-disk line (UTF-8)  |
//! | `3`       | `delete_rule` | the rule name (UTF-8)                     |
//!
//! Logging the *delta* (not the raw columns) makes replay cheap and exact:
//! merging a replayed delta is bit-identical to re-merging the original,
//! because `av-index`'s fixed-point accumulators are associative. Logging
//! the catalog *line* makes a replayed rule byte-identical to a
//! checkpointed one.
//!
//! ## Checkpoints
//!
//! A checkpoint drains in-flight ingests, pins a WAL watermark `W` under
//! the log lock, rotates the log, and snapshots the index epoch and
//! catalog text — so the snapshot holds exactly the operations with LSN
//! ≤ `W`. It then writes **only the shards whose `Arc` changed since the
//! previous checkpoint** (untouched shards are pointer-shared across
//! merges, so the previous generation's files are re-referenced; ingests
//! merge in place, but never into a shard the previous checkpoint's epoch
//! still points to — that one is shared, so the first merge to touch it
//! works on a copy under a new pointer), writes the catalog, and commits
//! by atomically publishing a generation-numbered [`Manifest`]. Only after
//! the manifest is durable are covered WAL segments removed and
//! unreferenced files of older generations collected.
//!
//! `persist` checkpoints on request. The service also checkpoints on its
//! own, by one rule with no knob: once the WAL payload bytes logged since
//! the last checkpoint's watermark reach that checkpoint's **image size**
//! (its shard files plus its catalog, as the manifest lists them; 0
//! before the first checkpoint). A checkpoint writes at most its image,
//! and only after as many bytes were logged, so checkpoints add at most
//! one byte per logged byte in steady state (write amplification ≤ 2),
//! and a recovery replays at most about one image's worth of log. Small
//! deltas over a large index checkpoint rarely, large ones often. The
//! trigger's counters restart at the watermark, so one crossing takes one
//! checkpoint however many writers crossed it together.
//!
//! ## Recovery
//!
//! `recover` loads the newest manifest that verifies, checks every shard
//! file against its manifest CRC — **quarantining** (not refusing to start
//! on) corrupt files — then replays WAL records above the manifest's
//! watermark, truncating the torn tail. The result equals the state after
//! some prefix of the acknowledged operation history, and that prefix
//! covers every operation acknowledged before the crash. Replay cost is
//! O(log since the last checkpoint) — bounded by the trigger above, never
//! a corpus rebuild. Replayed records count toward the next trigger, as
//! if they had just been logged.

use crate::catalog::{self, CatalogEntry, RuleCatalog};
use crate::lockorder;
use av_durable::{
    crc32, DurableError, Manifest, ShardFileEntry, Storage, Wal, WalConfig, WalReplay,
};
use av_index::{IndexDelta, IndexShard, PatternIndex};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Subdirectory of the data directory holding WAL segments.
pub(crate) const WAL_DIR: &str = "wal";
/// Subdirectory corrupt checkpoint files are moved into.
pub(crate) const QUARANTINE_DIR: &str = "quarantine";

const REC_DELTA: u8 = 1;
const REC_INFER: u8 = 2;
const REC_DELETE: u8 = 3;

/// Durability knobs for [`ServiceConfig`](crate::ServiceConfig).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Log every mutating op to a WAL and checkpoint incrementally.
    /// Requires a data directory; off by default.
    pub enabled: bool,
    /// WAL segment rotation threshold, in bytes.
    pub wal_segment_bytes: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            enabled: false,
            wal_segment_bytes: 8 << 20,
        }
    }
}

/// A point-in-time view of the durability subsystem, surfaced by the
/// `persist`, `stats`, and `metrics` protocol ops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilitySnapshot {
    /// Generation of the last durable checkpoint (0 before the first).
    pub checkpoint_generation: u64,
    /// Live WAL segment files.
    pub wal_segments: usize,
    /// Total bytes across live WAL segments.
    pub wal_bytes: u64,
    /// Records logged since the last completed checkpoint.
    pub records_since_checkpoint: u64,
    /// WAL payload bytes logged since the last checkpoint's watermark —
    /// one side of the auto-checkpoint trigger.
    pub wal_bytes_since_checkpoint: u64,
    /// The last checkpoint's image size (shard files plus catalog; 0
    /// before the first) — the other side: a checkpoint fires once
    /// `wal_bytes_since_checkpoint` reaches it.
    pub checkpoint_image_bytes: u64,
    /// Wall time of the last completed checkpoint, in milliseconds (0
    /// before the first of this process).
    pub last_checkpoint_ms: f64,
    /// WAL records replayed during recovery at open.
    pub replayed_records: u64,
    /// Bytes discarded as torn or unprovable WAL tail during recovery.
    pub truncated_tail_bytes: u64,
    /// Checkpoint files (shards or catalog) quarantined during recovery.
    pub quarantined_files: u64,
    /// Replayed records skipped as inapplicable (e.g. a delta logged
    /// under a different τ than the recovered index).
    pub skipped_records: u64,
    /// Checkpoints completed over the service lifetime.
    pub checkpoints_completed: u64,
    /// Checkpoint attempts that failed (state stays consistent; the WAL
    /// keeps covering the un-checkpointed records).
    pub checkpoint_failures: u64,
}

/// One decoded WAL record.
pub(crate) enum WalRecord {
    /// An ingested index delta.
    Delta(IndexDelta),
    /// A cataloged rule, as its catalog line.
    Infer(CatalogEntry),
    /// A catalog rule deletion.
    Delete(String),
}

pub(crate) fn encode_delta(delta: &IndexDelta) -> Vec<u8> {
    let body = delta.to_bytes();
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(REC_DELTA);
    out.extend_from_slice(&body);
    out
}

pub(crate) fn encode_infer(entry_line: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + entry_line.len());
    out.push(REC_INFER);
    out.extend_from_slice(entry_line.as_bytes());
    out
}

pub(crate) fn encode_delete(name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + name.len());
    out.push(REC_DELETE);
    out.extend_from_slice(name.as_bytes());
    out
}

/// Decode a WAL payload. Payloads are CRC-verified by the WAL layer, so a
/// decode failure means version skew, not bit rot; the caller skips and
/// counts it.
pub(crate) fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    let (&tag, body) = payload
        .split_first()
        .ok_or_else(|| "empty WAL record".to_string())?;
    match tag {
        REC_DELTA => IndexDelta::from_bytes(body)
            .map(WalRecord::Delta)
            .map_err(|e| format!("bad delta record: {e}")),
        REC_INFER => {
            let line = std::str::from_utf8(body).map_err(|_| "infer record not UTF-8")?;
            catalog::parse_entry(line)
                .map(WalRecord::Infer)
                .map_err(|e| format!("bad infer record: {e}"))
        }
        REC_DELETE => String::from_utf8(body.to_vec())
            .map(WalRecord::Delete)
            .map_err(|_| "delete record not UTF-8".to_string()),
        other => Err(format!("unknown WAL record type {other}")),
    }
}

/// What the previous checkpoint durably holds, used to write only changed
/// shards at the next one.
pub(crate) struct CheckpointBase {
    /// Last durable generation (0 before any checkpoint).
    pub generation: u64,
    /// The index epoch the base files encode. `None` forces a full shard
    /// rewrite (fresh service, or a recovery that resharded the image).
    /// Holding it is what makes the pointer comparison in
    /// [`write_checkpoint`] sound: a shard this epoch points to is shared,
    /// and a shared shard is copied, never written to, by a merge.
    pub index: Option<Arc<PatternIndex>>,
    /// Per-shard file entries of the base manifest; `None` for a shard
    /// with no reusable file (e.g. quarantined during recovery).
    pub files: Vec<Option<ShardFileEntry>>,
    /// File names the previous generation references (manifest included):
    /// the garbage collector keeps these plus the new generation's files,
    /// so a recovery that falls back one generation still finds its files.
    pub retained: BTreeSet<String>,
}

/// Shared durability state owned by the service in durable mode.
pub(crate) struct DurableState {
    pub storage: Arc<dyn Storage>,
    pub dir: PathBuf,
    /// The WAL. This mutex is the op-ordering lock and is always the
    /// **outermost** lock of any mutating path: append under it, then
    /// apply (catalog ops apply while still holding it; ingests register
    /// in `in_flight` and merge after releasing it).
    pub wal: Mutex<Wal>,
    /// LSNs appended but not yet merged into the index. Checkpoints drain
    /// this (under the WAL lock, so no new LSNs can appear) before
    /// snapshotting, guaranteeing the snapshot covers the watermark.
    pub in_flight: Mutex<BTreeSet<u64>>,
    pub in_flight_cv: Condvar,
    /// Serializes checkpoints and holds what the last one wrote.
    pub ckpt: Mutex<CheckpointBase>,
    /// The log since the last checkpoint's watermark (records, payload
    /// bytes), that checkpoint's image size — the auto-checkpoint trigger
    /// weighs the bytes against it — and its wall time.
    pub records_since_checkpoint: AtomicU64,
    pub wal_bytes_since_checkpoint: AtomicU64,
    pub checkpoint_image_bytes: AtomicU64,
    pub last_checkpoint_us: AtomicU64,
    pub replayed_records: AtomicU64,
    pub truncated_tail_bytes: AtomicU64,
    pub quarantined_files: AtomicU64,
    pub skipped_records: AtomicU64,
    pub checkpoints_completed: AtomicU64,
    pub checkpoint_failures: AtomicU64,
    pub last_generation: AtomicU64,
}

impl std::fmt::Debug for DurableState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableState")
            .field("dir", &self.dir)
            .field("generation", &self.last_generation.load(Ordering::Relaxed))
            .finish()
    }
}

impl DurableState {
    /// Has the log since the last checkpoint grown to that checkpoint's
    /// image size?
    pub fn checkpoint_due(&self) -> bool {
        let logged = self.wal_bytes_since_checkpoint.load(Ordering::Relaxed);
        logged > 0 && logged >= self.checkpoint_image_bytes.load(Ordering::Relaxed)
    }

    /// Point-in-time counters plus WAL shape (briefly takes the WAL lock).
    pub fn snapshot(&self) -> DurabilitySnapshot {
        let (wal_segments, wal_bytes) = {
            let (_wal_rank, wal) = (
                lockorder::rank_guard(lockorder::WAL),
                self.wal.lock().expect("wal lock poisoned"),
            );
            (wal.segment_count(), wal.total_bytes())
        };
        DurabilitySnapshot {
            checkpoint_generation: self.last_generation.load(Ordering::Relaxed),
            wal_segments,
            wal_bytes,
            records_since_checkpoint: self.records_since_checkpoint.load(Ordering::Relaxed),
            wal_bytes_since_checkpoint: self.wal_bytes_since_checkpoint.load(Ordering::Relaxed),
            checkpoint_image_bytes: self.checkpoint_image_bytes.load(Ordering::Relaxed),
            last_checkpoint_ms: self.last_checkpoint_us.load(Ordering::Relaxed) as f64 / 1000.0,
            replayed_records: self.replayed_records.load(Ordering::Relaxed),
            truncated_tail_bytes: self.truncated_tail_bytes.load(Ordering::Relaxed),
            quarantined_files: self.quarantined_files.load(Ordering::Relaxed),
            skipped_records: self.skipped_records.load(Ordering::Relaxed),
            checkpoints_completed: self.checkpoints_completed.load(Ordering::Relaxed),
            checkpoint_failures: self.checkpoint_failures.load(Ordering::Relaxed),
        }
    }
}

fn shard_file_name(shard: usize, generation: u64) -> String {
    format!("shard-{shard:04x}-g{generation:016x}.avsh")
}

fn catalog_file_name(generation: u64) -> String {
    format!("catalog-g{generation:016x}.avcat")
}

/// The checkpoint image a manifest describes: its shard files plus its
/// catalog, in bytes.
fn image_bytes(manifest: &Manifest) -> u64 {
    manifest.shards.iter().map(|entry| entry.bytes).sum::<u64>() + manifest.catalog_bytes
}

/// Is `name` a file this module generates (and may therefore collect)?
fn is_generated_file(name: &str) -> bool {
    name.ends_with(".tmp")
        || (name.starts_with("shard-") && name.ends_with(".avsh"))
        || (name.starts_with("catalog-g") && name.ends_with(".avcat"))
        || Manifest::parse_file_name(name).is_some()
}

/// Write `bytes` to a *fresh* generation-unique file name: plain create +
/// write + fsync (no rename dance needed — nothing existing is replaced,
/// and the file only becomes reachable once the manifest referencing it
/// commits).
fn write_fresh(storage: &dyn Storage, path: &Path, bytes: &[u8]) -> Result<(), DurableError> {
    let mut file = storage.create(path)?;
    file.write_all(bytes)?;
    file.sync()?;
    Ok(())
}

/// Move a corrupt checkpoint file into the quarantine subdirectory
/// (best-effort: quarantine failure must never block recovery).
fn quarantine(storage: &dyn Storage, dir: &Path, name: &str) {
    let qdir = dir.join(QUARANTINE_DIR);
    if storage.create_dir_all(&qdir).is_err() {
        return;
    }
    let _ = storage.rename(&dir.join(name), &qdir.join(name));
    let _ = storage.sync_dir(dir);
    let _ = storage.sync_dir(&qdir);
}

/// Everything [`recover`] reconstructs. The engine installs `image`,
/// applies `records` in order, then builds the live [`DurableState`].
pub(crate) struct Recovery {
    /// The checkpoint (or legacy `index.avix`) index image, if any.
    pub image: Option<PatternIndex>,
    /// True when `image` came from a checkpoint manifest whose shard
    /// layout is intact — its files may seed the next checkpoint's base.
    pub image_from_checkpoint: bool,
    /// The recovered catalog, *before* WAL replay.
    pub catalog: RuleCatalog,
    /// Decoded WAL records above the manifest watermark, in LSN order.
    pub records: Vec<WalRecord>,
    /// The WAL, opened for appending after the replayed records.
    pub wal: Wal,
    /// Base-manifest bookkeeping for the next checkpoint.
    pub base_generation: u64,
    pub base_files: Vec<Option<ShardFileEntry>>,
    pub retained: BTreeSet<String>,
    /// The base manifest's image size (0 without one).
    pub image_bytes: u64,
    /// Payload bytes of the replayed records: the log the next
    /// auto-checkpoint trigger starts from.
    pub replayed_bytes: u64,
    /// Counters for the durability snapshot.
    pub replayed_records: u64,
    pub truncated_tail_bytes: u64,
    pub quarantined_files: u64,
    pub skipped_records: u64,
}

/// Recover durable state from `dir`: newest valid manifest → per-file CRC
/// verification with quarantine → WAL replay with torn-tail truncation.
/// Falls back to legacy `index.avix` + `rules.avcat` images (plus full
/// WAL replay) when no manifest exists.
pub(crate) fn recover(
    storage: &Arc<dyn Storage>,
    dir: &Path,
    cfg: &DurabilityConfig,
) -> Result<Recovery, DurableError> {
    storage.create_dir_all(dir)?;
    let wal_dir = dir.join(WAL_DIR);
    storage.create_dir_all(&wal_dir)?;

    let mut quarantined = 0u64;
    let mut image = None;
    let mut image_from_checkpoint = false;
    let mut catalog = RuleCatalog::new();
    let mut base_generation = 0;
    let mut base_files = Vec::new();
    let mut retained = BTreeSet::new();
    let mut last_lsn = 0;
    let mut base_image_bytes = 0;

    if let Some((manifest, _skipped)) = Manifest::load_newest(storage.as_ref(), dir)? {
        let shard_count = 1usize << manifest.shard_bits;
        let mut shards = vec![IndexShard::default(); shard_count];
        base_files = vec![None; shard_count];
        for entry in &manifest.shards {
            let idx = entry.shard as usize;
            if idx >= shard_count {
                continue; // manifest CRC passed, so this cannot happen; be safe anyway
            }
            let verified = storage
                .read(&dir.join(&entry.file))
                .ok()
                .filter(|data| data.len() as u64 == entry.bytes && crc32(data) == entry.crc)
                .and_then(|data| {
                    IndexShard::from_section_bytes(&data, idx, manifest.shard_bits).ok()
                });
            match verified {
                Some(shard) => {
                    shards[idx] = shard;
                    base_files[idx] = Some(entry.clone());
                }
                None => {
                    // Quarantine instead of refusing to start: the shard
                    // restarts empty and WAL replay repopulates what it
                    // covers. The manifest entry is dropped from the base
                    // so the next checkpoint rewrites this shard.
                    quarantine(storage.as_ref(), dir, &entry.file);
                    quarantined += 1;
                }
            }
        }
        image = Some(
            PatternIndex::from_shards(
                shards,
                manifest.shard_bits,
                manifest.num_columns,
                manifest.tau as usize,
            )
            .map_err(|e| DurableError::Corrupt {
                file: Manifest::file_name(manifest.generation),
                offset: 0,
                detail: format!("manifest shard layout rejected: {e}"),
            })?,
        );
        image_from_checkpoint = true;
        if !manifest.catalog_file.is_empty() {
            let verified = storage
                .read(&dir.join(&manifest.catalog_file))
                .ok()
                .filter(|data| {
                    data.len() as u64 == manifest.catalog_bytes
                        && crc32(data) == manifest.catalog_crc
                })
                .and_then(|data| String::from_utf8(data).ok())
                .and_then(|text| RuleCatalog::from_text(&text).ok());
            match verified {
                Some(cat) => catalog = cat,
                None => {
                    quarantine(storage.as_ref(), dir, &manifest.catalog_file);
                    quarantined += 1;
                }
            }
        }
        base_generation = manifest.generation;
        base_image_bytes = image_bytes(&manifest);
        last_lsn = manifest.last_lsn;
        retained.insert(Manifest::file_name(manifest.generation));
        if !manifest.catalog_file.is_empty() {
            retained.insert(manifest.catalog_file.clone());
        }
        for entry in &manifest.shards {
            retained.insert(entry.file.clone());
        }
    } else {
        // Pre-durability layout: a frozen `index.avix` + `rules.avcat`
        // pair. Load it as the base image; the WAL (if any) replays in
        // full on top.
        let index_path = dir.join(crate::engine::INDEX_FILE);
        if storage.exists(&index_path) {
            let data = storage.read(&index_path)?;
            image = Some(
                PatternIndex::from_bytes(&data).map_err(|e| DurableError::Corrupt {
                    file: crate::engine::INDEX_FILE.to_string(),
                    offset: 0,
                    detail: e.to_string(),
                })?,
            );
        }
        let catalog_path = dir.join(crate::engine::CATALOG_FILE);
        if storage.exists(&catalog_path) {
            let data = storage.read(&catalog_path)?;
            let text = String::from_utf8(data).map_err(|_| DurableError::Corrupt {
                file: crate::engine::CATALOG_FILE.to_string(),
                offset: 0,
                detail: "catalog is not UTF-8".to_string(),
            })?;
            catalog = RuleCatalog::from_text(&text).map_err(|e| DurableError::Corrupt {
                file: crate::engine::CATALOG_FILE.to_string(),
                offset: 0,
                detail: e.to_string(),
            })?;
        }
    }

    let replay: WalReplay = Wal::replay(storage.as_ref(), &wal_dir, last_lsn)?;
    let mut skipped = 0u64;
    let mut records = Vec::with_capacity(replay.records.len());
    let mut max_lsn = last_lsn;
    let mut replayed_bytes = 0;
    for (lsn, payload) in &replay.records {
        max_lsn = *lsn;
        replayed_bytes += payload.len() as u64;
        match decode_record(payload) {
            Ok(record) => records.push(record),
            Err(_) => skipped += 1,
        }
    }
    let wal = Wal::create(
        Arc::clone(storage),
        wal_dir,
        WalConfig {
            segment_bytes: cfg.wal_segment_bytes,
        },
        max_lsn + 1,
    )?;

    Ok(Recovery {
        image,
        image_from_checkpoint,
        catalog,
        records,
        wal,
        base_generation,
        base_files,
        retained,
        image_bytes: base_image_bytes,
        replayed_bytes,
        replayed_records: replay.records.len() as u64,
        truncated_tail_bytes: replay.truncated_tail_bytes,
        quarantined_files: quarantined,
        skipped_records: skipped,
    })
}

/// Write one incremental checkpoint: `index` and `catalog_text` must be a
/// consistent cut at WAL watermark `watermark` (the engine snapshots them
/// under the WAL lock with in-flight ingests drained). `base` (locked by
/// the caller) tells which shard files can be re-referenced unchanged.
///
/// Returns the new generation and its image size (shard files plus
/// catalog, reused files included). On success the base is advanced,
/// covered WAL segments are removed, and unreferenced files of
/// generations older than the previous one are collected — both
/// best-effort, because the manifest commit has already made the
/// checkpoint durable.
pub(crate) fn write_checkpoint(
    state: &DurableState,
    base: &mut CheckpointBase,
    index: &Arc<PatternIndex>,
    catalog_text: &str,
    watermark: u64,
) -> Result<(u64, u64), DurableError> {
    let storage = state.storage.as_ref();
    let dir = &state.dir;
    let generation = base.generation + 1;

    let reusable = base
        .index
        .as_ref()
        .filter(|b| {
            b.shard_count() == index.shard_count() && base.files.len() == index.shard_count()
        })
        .map(|b| b.shards());
    let mut shard_entries = Vec::with_capacity(index.shard_count());
    for (i, shard) in index.shards().iter().enumerate() {
        let reused = reusable
            .filter(|bs| Arc::ptr_eq(&bs[i], shard))
            .and_then(|_| base.files[i].clone());
        let entry = match reused {
            Some(entry) => entry,
            None => {
                let bytes = shard.section_bytes();
                let file = shard_file_name(i, generation);
                write_fresh(storage, &dir.join(&file), &bytes)?;
                ShardFileEntry {
                    shard: i as u32,
                    file,
                    crc: crc32(&bytes),
                    bytes: bytes.len() as u64,
                }
            }
        };
        shard_entries.push(entry);
    }

    let catalog_file = catalog_file_name(generation);
    write_fresh(storage, &dir.join(&catalog_file), catalog_text.as_bytes())?;
    // One directory sync makes every fresh file findable before the
    // manifest that references them can commit.
    storage.sync_dir(dir)?;

    let manifest = Manifest {
        generation,
        last_lsn: watermark,
        num_columns: index.num_columns,
        tau: index.tau as u64,
        shard_bits: index.shard_bits(),
        catalog_file: catalog_file.clone(),
        catalog_crc: crc32(catalog_text.as_bytes()),
        catalog_bytes: catalog_text.len() as u64,
        shards: shard_entries.clone(),
    };
    manifest.write(storage, dir)?; // the commit point
    let image = image_bytes(&manifest);

    let mut new_retained = BTreeSet::new();
    new_retained.insert(Manifest::file_name(generation));
    new_retained.insert(catalog_file);
    for entry in &shard_entries {
        new_retained.insert(entry.file.clone());
    }

    // Everything below is post-commit cleanup: failures leave garbage,
    // never inconsistency, so they must not fail the checkpoint.
    {
        let (_wal_rank, mut wal) = (
            lockorder::rank_guard(lockorder::WAL),
            state.wal.lock().expect("wal lock poisoned"),
        );
        let _ = wal.remove_through(watermark);
    }
    // Keep the new generation plus the previous one (recovery may fall
    // back a generation if the newest manifest is damaged); collect
    // everything older.
    if let Ok(names) = storage.list(dir) {
        let mut removed = false;
        for name in names {
            if is_generated_file(&name)
                && !new_retained.contains(&name)
                && !base.retained.contains(&name)
            {
                let _ = storage.remove(&dir.join(&name));
                removed = true;
            }
        }
        if removed {
            let _ = storage.sync_dir(dir);
        }
    }

    base.generation = generation;
    base.index = Some(Arc::clone(index));
    base.files = shard_entries.into_iter().map(Some).collect();
    base.retained = new_retained;
    Ok((generation, image))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_encoding_roundtrips() {
        use av_core::{AnyRule, DictionaryRule, FmdvConfig};
        let train: Vec<String> = (0..60).map(|i| ["a", "b", "c"][i % 3].into()).collect();
        let entry = CatalogEntry {
            name: "r".to_string(),
            rule: AnyRule::Dictionary(
                DictionaryRule::infer(&train, &FmdvConfig::default(), 0.2).unwrap(),
            ),
            variant: "auto".to_string(),
            created_unix: 7,
        };
        let line = catalog::entry_line(&entry);
        match decode_record(&encode_infer(&line)) {
            Ok(WalRecord::Infer(e)) => {
                assert_eq!(e.name, "r");
                assert_eq!(e.created_unix, 7);
                assert!(e.rule.conforms("b"));
            }
            other => panic!("expected infer record, got {:?}", other.err()),
        }
        match decode_record(&encode_delete("gone")) {
            Ok(WalRecord::Delete(n)) => assert_eq!(n, "gone"),
            other => panic!("expected delete record, got {:?}", other.err()),
        }
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[99, 1, 2]).is_err());
    }

    #[test]
    fn generated_file_name_filter() {
        assert!(is_generated_file(&shard_file_name(3, 9)));
        assert!(is_generated_file(&catalog_file_name(9)));
        assert!(is_generated_file(&Manifest::file_name(9)));
        assert!(is_generated_file("anything.tmp"));
        assert!(!is_generated_file("index.avix"));
        assert!(!is_generated_file("rules.avcat"));
        assert!(!is_generated_file("wal-0000000000000001.avwal"));
    }
}
