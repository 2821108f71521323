//! Crash-safe durability for the validation service: WAL record encoding,
//! incremental checkpoints, and recovery. A service opened on a data
//! directory always runs this path; one with no directory logs nothing.
//!
//! ## What is logged
//!
//! Every acknowledged mutating operation appends one CRC-framed record to
//! the write-ahead log *before* the service applies it. An op the service
//! refuses — a delete of an unknown rule, an ingest whose delta was
//! profiled under another τ than the index's — logs nothing:
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
//! Every mutating op is one `commit`: its record is appended, counted
//! and applied under the log lock, so the log's order is the order the ops
//! took effect in. A checkpoint pins a WAL watermark `W` under that lock,
//! rotates the log, and snapshots the index epoch and catalog text — so
//! the snapshot holds exactly the operations with LSN ≤ `W`. It then
//! writes **only the shards whose `Arc` changed since the previous
//! checkpoint** (untouched shards are pointer-shared across merges, so
//! the previous generation's files are re-referenced; ingests merge in
//! place, but never into a shard the previous checkpoint's epoch still
//! points to — that one is shared, so the first merge to touch it works
//! on a copy under a new pointer), writes the catalog, and commits by
//! atomically publishing a generation-numbered [`Manifest`]. Only after
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
use av_durable::{crc32, DurableError, Manifest, ShardFileEntry, Storage, Wal, WalConfig};
use av_index::{IndexDelta, IndexShard, PatternIndex, ShardedIndex};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Subdirectory of the data directory holding WAL segments.
pub(crate) const WAL_DIR: &str = "wal";
/// Subdirectory corrupt checkpoint files are moved into.
pub(crate) const QUARANTINE_DIR: &str = "quarantine";

const REC_DELTA: u8 = 1;
const REC_INFER: u8 = 2;
const REC_DELETE: u8 = 3;

/// A point-in-time view of the durability subsystem, surfaced by the
/// `persist`, `stats`, and `metrics` protocol ops.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DurabilitySnapshot {
    /// Generation of the last durable checkpoint (0 before the first).
    pub checkpoint_generation: u64,
    /// Live WAL segment files.
    pub wal_segments: usize,
    /// Total bytes across live WAL segments.
    pub wal_bytes: u64,
    /// Records logged since the last checkpoint's watermark.
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
    /// Newer checkpoint manifests recovery passed over, unreadable or
    /// corrupt, before the one it loaded.
    pub skipped_manifests: u64,
    /// Replayed records skipped as inapplicable (e.g. a delta logged
    /// under a different τ than the recovered index).
    pub skipped_records: u64,
    /// Checkpoints completed over the service lifetime.
    pub checkpoints_completed: u64,
    /// Checkpoint attempts that failed (state stays consistent; the WAL
    /// keeps covering the un-checkpointed records).
    pub checkpoint_failures: u64,
}

/// A mutating op's WAL record: what [`commit`] logs before it applies
/// the op.
pub(crate) trait Record {
    /// The WAL payload: the record's type byte, then its body.
    fn encode(&self) -> Vec<u8>;
}

/// An ingest logs its profiled delta: the type byte, then the delta's
/// AVDL record appended behind it in the same buffer.
impl Record for IndexDelta {
    fn encode(&self) -> Vec<u8> {
        let mut payload = vec![REC_DELTA];
        payload.extend([self]);
        payload
    }
}

/// An inference logs the rule's catalog line.
impl Record for CatalogEntry {
    fn encode(&self) -> Vec<u8> {
        [&[REC_INFER][..], catalog::entry_line(self).as_bytes()].concat()
    }
}

/// A catalog rule's deletion, by name.
pub(crate) struct Deletion<'a>(pub &'a str);

impl Record for Deletion<'_> {
    fn encode(&self) -> Vec<u8> {
        [&[REC_DELETE][..], self.0.as_bytes()].concat()
    }
}

/// One decoded WAL record.
enum WalRecord {
    /// An ingested index delta.
    Delta(IndexDelta),
    /// A cataloged rule, as its catalog line.
    Infer(CatalogEntry),
    /// A catalog rule deletion.
    Delete(String),
}

/// Decode a WAL payload. Payloads are CRC-verified by the WAL layer, so a
/// decode failure means version skew, not bit rot; the caller skips and
/// counts it.
fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
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
struct CheckpointBase {
    /// Last durable generation (0 before any checkpoint).
    generation: u64,
    /// The WAL watermark that generation covers. The next checkpoint
    /// removes WAL segments only up to it, so a recovery that falls back
    /// to this generation still replays forward to the newest state.
    last_lsn: u64,
    /// The index epoch the base files encode. `None` forces a full shard
    /// rewrite (fresh service, or a recovery that resharded the image).
    /// Holding it is what makes the pointer comparison in
    /// [`DurableLog::write_checkpoint`] sound: a shard this epoch points
    /// to is shared, and a shared shard is copied, never written to, by a
    /// merge.
    index: Option<Arc<PatternIndex>>,
    /// Per-shard file entries of the base manifest; `None` for a shard
    /// with no reusable file (e.g. quarantined during recovery).
    files: Vec<Option<ShardFileEntry>>,
    /// File names the previous generation references (manifest included):
    /// the garbage collector keeps these plus the new generation's files,
    /// so a recovery that falls back one generation still finds its files.
    retained: BTreeSet<String>,
}

/// What a checkpoint writes: an index epoch and the catalog text that
/// goes with it, taken together under the log lock.
pub(crate) type Cut = (Arc<PatternIndex>, String);

/// The write-ahead log of a durable service and the checkpoints that cut
/// it. Ops go through [`commit`]; `persist` is [`DurableLog::checkpoint`];
/// [`DurableLog::recover`] builds one from a data directory.
pub(crate) struct DurableLog {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    /// The log lock: the outermost lock of every mutating op, which
    /// appends, counts and applies its record under it.
    wal: Mutex<LogTail>,
    /// Serializes checkpoints and holds what the last one wrote.
    ckpt: Mutex<CheckpointBase>,
}

/// The log and its counters, which change only under the log lock.
struct LogTail {
    log: Wal,
    /// What [`DurableLog::snapshot`] reports, bar the WAL's shape.
    stats: DurabilitySnapshot,
}

impl LogTail {
    /// Has the log since the last checkpoint's watermark grown to that
    /// checkpoint's image size?
    fn checkpoint_due(&self) -> bool {
        let logged = self.stats.wal_bytes_since_checkpoint;
        logged > 0 && logged >= self.stats.checkpoint_image_bytes
    }
}

/// Run one mutating op. With a log (the service has a data directory)
/// `record` is appended and counted under the log lock and `apply` runs
/// there too; then, if the log since the last checkpoint has grown to that
/// checkpoint's image, a checkpoint of `cut` is written. Without a log,
/// `apply` runs alone.
///
/// A failed append applies nothing. A failed automatic checkpoint is
/// counted, not returned: the op's record is already in the log.
pub(crate) fn commit<R: Record, T>(
    log: Option<&DurableLog>,
    record: R,
    apply: impl FnOnce(R) -> T,
    cut: impl FnOnce() -> Cut,
) -> Result<T, DurableError> {
    let Some(log) = log else {
        return Ok(apply(record));
    };
    let payload = record.encode();
    let (applied, due) = {
        let (_wal_rank, mut wal) = (
            lockorder::rank_guard(lockorder::WAL),
            log.wal.lock().expect("wal lock poisoned"),
        );
        wal.log.append(&payload)?;
        wal.stats.records_since_checkpoint += 1;
        wal.stats.wal_bytes_since_checkpoint += payload.len() as u64;
        (apply(record), wal.checkpoint_due())
    };
    if due {
        let _ = log.checkpoint_when(true, cut);
    }
    Ok(applied)
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

/// Every file `manifest` references, itself included.
fn referenced_files(manifest: &Manifest) -> BTreeSet<String> {
    let mut files: BTreeSet<String> = manifest.shards.iter().map(|e| e.file.clone()).collect();
    files.insert(Manifest::file_name(manifest.generation));
    if !manifest.catalog_file.is_empty() {
        files.insert(manifest.catalog_file.clone());
    }
    files
}

/// A recovery input that does not decode, at the byte offset its decoder
/// reports, if it reports one.
fn corrupt(file: &str, offset: Option<u64>, detail: impl ToString) -> DurableError {
    DurableError::Corrupt {
        file: file.to_string(),
        offset,
        detail: detail.to_string(),
    }
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

impl DurableLog {
    /// Recover durable state from `dir` into `index`, a fresh service's:
    /// newest valid manifest → per-file CRC verification with quarantine →
    /// WAL replay with torn-tail truncation. Returns the log, appending after the replayed
    /// records and rotating at `segment_bytes`, and the recovered catalog.
    pub(crate) fn recover(
        storage: &Arc<dyn Storage>,
        dir: &Path,
        segment_bytes: u64,
        index: &ShardedIndex,
    ) -> Result<(DurableLog, RuleCatalog), DurableError> {
        // Nothing is created before what exists has been read: a refused
        // directory is left as it was found.
        let wal_dir = dir.join(WAL_DIR);
        let mut image = None;
        let mut catalog = RuleCatalog::new();
        let mut stats = DurabilitySnapshot::default();
        let mut base = CheckpointBase {
            generation: 0,
            last_lsn: 0,
            index: None,
            files: Vec::new(),
            retained: BTreeSet::new(),
        };

        if let Some((manifest, skipped)) = Manifest::load_newest(storage.as_ref(), dir)? {
            stats.skipped_manifests = skipped.len() as u64;
            let shard_count = 1usize << manifest.shard_bits;
            let mut shards = vec![IndexShard::default(); shard_count];
            base.files = vec![None; shard_count];
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
                        base.files[idx] = Some(entry.clone());
                    }
                    None => {
                        // Quarantine instead of refusing to start: the shard
                        // restarts empty and WAL replay repopulates what it
                        // covers. The manifest entry is dropped from the base
                        // so the next checkpoint rewrites this shard.
                        quarantine(storage.as_ref(), dir, &entry.file);
                        stats.quarantined_files += 1;
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
                .map_err(|e| {
                    let detail = format!("manifest shard layout rejected: {e}");
                    corrupt(&Manifest::file_name(manifest.generation), None, detail)
                })?,
            );
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
                        stats.quarantined_files += 1;
                    }
                }
            }
            base.generation = manifest.generation;
            base.last_lsn = manifest.last_lsn;
            base.retained = referenced_files(&manifest);
            stats.checkpoint_generation = manifest.generation;
            stats.checkpoint_image_bytes = image_bytes(&manifest);
        }

        if let Some(image) = image {
            index.install(image);
        }
        // The just-installed epoch is the next checkpoint's reuse base — but
        // only if it still encodes the manifest's shard files (install
        // reshards images whose shard count differs from the config's, which
        // invalidates the per-shard file mapping; without a manifest there
        // are no files).
        base.index = Some(index.snapshot()).filter(|snap| snap.shard_count() == base.files.len());

        // Replay: apply each record as the live op did. A record that no
        // longer applies (a delta logged under another τ than the recovered
        // index) is skipped and counted. Replayed records count toward the
        // next trigger, as if they had just been logged.
        let replay = Wal::replay(storage.as_ref(), &wal_dir, base.last_lsn)?;
        stats.replayed_records = replay.records.len() as u64;
        stats.records_since_checkpoint = stats.replayed_records;
        stats.truncated_tail_bytes = replay.truncated_tail_bytes;
        let next_lsn = replay.records.last().map_or(base.last_lsn, |(lsn, _)| *lsn) + 1;
        for (_, payload) in replay.records {
            stats.wal_bytes_since_checkpoint += payload.len() as u64;
            let applied = match decode_record(&payload) {
                Ok(WalRecord::Delta(delta)) => index.merge_delta(delta).is_ok(),
                Ok(WalRecord::Infer(entry)) => {
                    catalog.insert(entry);
                    true
                }
                Ok(WalRecord::Delete(name)) => {
                    catalog.remove(&name);
                    true
                }
                Err(_) => false,
            };
            stats.skipped_records += u64::from(!applied);
        }
        storage.create_dir_all(dir)?;
        storage.create_dir_all(&wal_dir)?;
        let wal = Wal::create(
            Arc::clone(storage),
            wal_dir,
            WalConfig { segment_bytes },
            next_lsn,
        )?;

        let log = DurableLog {
            storage: Arc::clone(storage),
            dir: dir.to_path_buf(),
            wal: Mutex::new(LogTail { log: wal, stats }),
            ckpt: Mutex::new(base),
        };
        Ok((log, catalog))
    }

    /// Write a checkpoint now (the `persist` op); see
    /// [`DurableLog::checkpoint_when`].
    pub(crate) fn checkpoint(&self, cut: impl FnOnce() -> Cut) -> Result<(), DurableError> {
        self.checkpoint_when(false, cut)
    }

    /// Write one incremental checkpoint of `cut` — with `only_if_due` (the
    /// automatic trigger), only if the log still outweighs the last image
    /// once the checkpoint lock is held, so ops that crossed the trigger
    /// together and queued behind one checkpoint take no other.
    ///
    /// Under the log lock it pins the watermark, rotates the log, restarts
    /// the trigger's counters and takes the cut, which therefore holds
    /// exactly the ops at or below the watermark; an op logged while the
    /// files are written counts toward the next checkpoint. A failed
    /// checkpoint gives the counters back, so the next op retries it, and
    /// every failure is counted.
    fn checkpoint_when(
        &self,
        only_if_due: bool,
        cut: impl FnOnce() -> Cut,
    ) -> Result<(), DurableError> {
        let (_ckpt_rank, mut base) = (
            lockorder::rank_guard(lockorder::CKPT),
            self.ckpt.lock().expect("checkpoint lock poisoned"),
        );
        let started = std::time::Instant::now();
        let (watermark, covered, (index, catalog_text)) = {
            let (_wal_rank, mut wal) = (
                lockorder::rank_guard(lockorder::WAL),
                self.wal.lock().expect("wal lock poisoned"),
            );
            if only_if_due && !wal.checkpoint_due() {
                return Ok(());
            }
            let watermark = wal.log.next_lsn().saturating_sub(1);
            // Rotate so the segment holding pre-watermark records is
            // closed and can be removed once the manifest commits.
            if let Err(e) = wal.log.rotate() {
                wal.stats.checkpoint_failures += 1;
                return Err(e);
            }
            let stats = &mut wal.stats;
            let covered = (
                std::mem::take(&mut stats.records_since_checkpoint),
                std::mem::take(&mut stats.wal_bytes_since_checkpoint),
            );
            (watermark, covered, cut())
        };
        let written = self.write_checkpoint(&mut base, &index, &catalog_text, watermark);
        let (_wal_rank, mut wal) = (
            lockorder::rank_guard(lockorder::WAL),
            self.wal.lock().expect("wal lock poisoned"),
        );
        let stats = &mut wal.stats;
        match written {
            Ok((generation, image_bytes)) => {
                stats.checkpoint_generation = generation;
                stats.checkpoint_image_bytes = image_bytes;
                stats.last_checkpoint_ms = started.elapsed().as_micros() as f64 / 1000.0;
                stats.checkpoints_completed += 1;
                Ok(())
            }
            Err(e) => {
                // The WAL still holds what this checkpoint meant to cover:
                // count it again, so the next op retries.
                stats.records_since_checkpoint += covered.0;
                stats.wal_bytes_since_checkpoint += covered.1;
                stats.checkpoint_failures += 1;
                Err(e)
            }
        }
    }

    /// Point-in-time counters plus WAL shape (briefly takes the log lock).
    pub(crate) fn snapshot(&self) -> DurabilitySnapshot {
        let (_wal_rank, wal) = (
            lockorder::rank_guard(lockorder::WAL),
            self.wal.lock().expect("wal lock poisoned"),
        );
        DurabilitySnapshot {
            wal_segments: wal.log.segment_count(),
            wal_bytes: wal.log.total_bytes(),
            ..wal.stats
        }
    }

    /// Write the checkpoint files of `index` and `catalog_text`, a cut at
    /// WAL watermark `watermark`. `base` (locked by the caller) tells
    /// which shard files can be re-referenced unchanged.
    ///
    /// Returns the new generation and its image size (shard files plus
    /// catalog, reused files included). On success the base is advanced,
    /// WAL segments the previous generation covers are removed, and
    /// unreferenced files of generations older than the previous one are
    /// collected — both best-effort, because the manifest commit has
    /// already made the checkpoint durable.
    fn write_checkpoint(
        &self,
        base: &mut CheckpointBase,
        index: &Arc<PatternIndex>,
        catalog_text: &str,
        watermark: u64,
    ) -> Result<(u64, u64), DurableError> {
        let storage = self.storage.as_ref();
        let dir = &self.dir;
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
            catalog_file,
            catalog_crc: crc32(catalog_text.as_bytes()),
            catalog_bytes: catalog_text.len() as u64,
            shards: shard_entries,
        };
        manifest.write(storage, dir)?; // the commit point
        let new_retained = referenced_files(&manifest);

        // Everything below is post-commit cleanup: failures leave garbage,
        // never inconsistency, so they must not fail the checkpoint.
        {
            let (_wal_rank, mut wal) = (
                lockorder::rank_guard(lockorder::WAL),
                self.wal.lock().expect("wal lock poisoned"),
            );
            let _ = wal.log.remove_through(base.last_lsn);
        }
        // Keep the new generation plus the previous one, and the WAL since
        // the previous one's watermark (recovery may fall back a generation
        // if the newest manifest is damaged, and replays forward from
        // there); collect everything older.
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
        base.last_lsn = watermark;
        base.index = Some(Arc::clone(index));
        base.retained = new_retained;
        let image = image_bytes(&manifest);
        base.files = manifest.shards.into_iter().map(Some).collect();
        Ok((generation, image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_durable::{FaultPlan, MemStorage};
    use av_index::IndexConfig;
    use std::sync::mpsc;

    /// A log recovered from `mem`'s data directory into a fresh, empty
    /// index.
    fn open(mem: &MemStorage) -> (DurableLog, ShardedIndex) {
        let index = ShardedIndex::new(PatternIndex::build(&[], &IndexConfig::default()));
        let storage: Arc<dyn Storage> = Arc::new(mem.clone());
        let segment_bytes = crate::engine::DEFAULT_WAL_SEGMENT_BYTES;
        let (log, _) =
            DurableLog::recover(&storage, Path::new("/data"), segment_bytes, &index).unwrap();
        (log, index)
    }

    fn cut_of(index: &ShardedIndex) -> impl FnOnce() -> Cut + '_ {
        || (index.snapshot(), RuleCatalog::new().to_text())
    }

    /// Checkpoints completed, and records and payload bytes logged since
    /// the last one.
    fn counts(log: &DurableLog) -> (u64, u64, u64) {
        let s = log.snapshot();
        (
            s.checkpoints_completed,
            s.records_since_checkpoint,
            s.wal_bytes_since_checkpoint,
        )
    }

    /// Commit the deletion of `name` (a `name.len() + 1`-byte record),
    /// applying nothing; returns the counts after it.
    fn log_delete(log: &DurableLog, index: &ShardedIndex, name: &str) -> (u64, u64, u64) {
        commit(Some(log), Deletion(name), |_| (), cut_of(index)).unwrap();
        counts(log)
    }

    #[test]
    fn a_checkpoint_fires_once_the_log_reaches_the_image() {
        let (log, index) = open(&MemStorage::new());
        // The empty directory's image is 0 bytes: the first record
        // checkpoints.
        assert_eq!(log_delete(&log, &index, "first"), (1, 0, 0));
        let image = log.snapshot().checkpoint_image_bytes;
        assert!(image > 100, "{image}");
        let name = "n".repeat(99);
        for k in 1..image.div_ceil(100) {
            assert_eq!(log_delete(&log, &index, &name), (1, k, 100 * k), "{image}");
        }
        assert_eq!(log_delete(&log, &index, &name), (2, 0, 0));
    }

    #[test]
    fn writers_crossing_one_threshold_take_one_checkpoint() {
        let (log, index) = open(&MemStorage::new());
        log_delete(&log, &index, "first");
        // Each record outweighs the image alone.
        let name = "n".repeat(log.snapshot().checkpoint_image_bytes as usize);
        let (applied, seen) = mpsc::channel();
        let held = log.ckpt.lock().unwrap();
        std::thread::scope(|scope| {
            let (log, index, name) = (&log, &index, &name);
            for _ in 0..2 {
                let applied = applied.clone();
                scope.spawn(move || {
                    let apply = move |_| applied.send(()).unwrap();
                    commit(Some(log), Deletion(name), apply, cut_of(index)).unwrap()
                });
            }
            // Both records are logged, and each writer saw the trigger
            // crossed under the log lock, before any checkpoint can start.
            seen.recv().unwrap();
            seen.recv().unwrap();
            drop(held);
        });
        assert_eq!(counts(&log), (2, 0, 0));
    }

    #[test]
    fn a_failed_checkpoint_gives_its_bytes_back_and_the_next_commit_retries_it() {
        // Fault-free, the first commit runs storage ops `start..end`.
        let mem = MemStorage::new();
        let (log, index) = open(&mem);
        let start = mem.ops_executed();
        log_delete(&log, &index, "first");
        let end = mem.ops_executed();
        let mut retried = 0;
        for op in start..end {
            let (log, index) = open(&MemStorage::with_plan(FaultPlan::fail_at(op)));
            let after = log_delete(&log, &index, "first");
            if log.snapshot().checkpoint_failures == 0 {
                continue; // the fault hit an append retry or post-commit cleanup
            }
            assert_eq!(
                after,
                (0, 1, 6),
                "op {op}: the failed checkpoint kept its bytes"
            );
            if log.wal.lock().unwrap().log.poisoned().is_some() {
                continue; // a failed rotation: ops wait for `persist`
            }
            assert_eq!(log_delete(&log, &index, "second"), (1, 0, 0), "op {op}");
            retried += 1;
        }
        assert!(
            retried > 0,
            "no fault in ops {start}..{end} failed a checkpoint"
        );
    }

    /// An op still applying when a checkpoint asks for the log lock is
    /// covered by that checkpoint, and counted toward it, not the next.
    #[test]
    fn the_counters_are_what_a_reopen_replays() {
        let mem = MemStorage::new();
        let (log, index) = open(&mem);
        log_delete(&log, &index, "first");
        // The counters are never read while ops are in the lock, so a
        // count taken after it would show only in some rounds.
        for round in 0..16 {
            let (entered_tx, entered) = mpsc::channel();
            let (release, release_rx) = mpsc::channel();
            std::thread::scope(|scope| {
                let (log, index) = (&log, &index);
                scope.spawn(move || {
                    let apply = move |_| {
                        entered_tx.send(()).unwrap();
                        release_rx.recv().unwrap()
                    };
                    commit(Some(log), Deletion("slow"), apply, cut_of(index)).unwrap()
                });
                entered.recv().unwrap();
                // The op applies under the log lock: a checkpoint takes the
                // checkpoint lock, then waits for the log lock.
                let checkpoint = scope.spawn(move || log.checkpoint(cut_of(index)).unwrap());
                while log.ckpt.try_lock().is_ok() {
                    std::thread::yield_now();
                }
                release.send(()).unwrap();
                checkpoint.join().unwrap();
            });
            assert_eq!(counts(&log), (2 + round, 0, 0));
        }
        let (_, records, bytes) = log_delete(&log, &index, "after");
        let reopened = open(&mem).0.snapshot();
        assert_eq!((records, bytes), (1, 6));
        assert_eq!(reopened.replayed_records, records);
        assert_eq!(reopened.wal_bytes_since_checkpoint, bytes);
    }

    #[test]
    fn record_encoding_roundtrips() {
        use av_core::{AnyRule, DictionaryRule, FmdvConfig};
        let train: Vec<String> = (0..60).map(|i| ["a", "b", "c"][i % 3].into()).collect();
        let entry = CatalogEntry {
            name: "r".to_string(),
            rule: AnyRule::Dictionary(
                DictionaryRule::infer(&train, &FmdvConfig::default(), 0.2).unwrap(),
            )
            .into(),
            variant: "auto".to_string(),
            created_unix: 7,
        };
        match decode_record(&entry.encode()) {
            Ok(WalRecord::Infer(e)) => {
                assert_eq!(e.name, "r");
                assert_eq!(e.created_unix, 7);
                assert!(e.rule.conforms("b"));
            }
            other => panic!("expected infer record, got {:?}", other.err()),
        }
        match decode_record(&Deletion("gone").encode()) {
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
