//! Append-only, CRC-framed write-ahead log with segment rotation.
//!
//! ## Format
//!
//! The log is a directory of segment files named `wal-<first_lsn as
//! 16-hex>.avwal`. Each segment starts with a 16-byte header (`AVWL`
//! magic, format version, the first LSN the segment was opened at) and is
//! followed by frames:
//!
//! ```text
//! len: u32 LE | crc: u32 LE | lsn: u64 LE | payload (len bytes)
//! ```
//!
//! `crc` is the CRC-32 of the LSN (little-endian) concatenated with the
//! payload, so a frame that lies about its LSN or tears mid-payload is
//! rejected. Every append is fsynced before it returns; callers must not
//! acknowledge an operation until `append` has returned its LSN.
//!
//! ## Failure semantics
//!
//! A failed append is retried in place before the failure is surfaced:
//! the attempt may have left a torn frame in the active segment, so every
//! retry first **rotates** to a fresh segment (whose `first_lsn`
//! supersedes the torn bytes — see Replay) and backs off briefly, up to
//! three attempts in total. A transient storage hiccup (one
//! failed write or fsync) is therefore absorbed without the caller ever
//! seeing an error, and without weakening the ack invariant: the record's
//! LSN is only returned once a CRC-clean frame bearing it is fsynced.
//!
//! Only when every attempt fails does the append leave the log
//! *poisoned*: the record may or may not be durable, so accepting later
//! appends could let an acknowledged record land after a torn one and be
//! silently truncated by replay. Poisoning rejects all appends until
//! [`Wal::rotate`] (called by a checkpoint) opens a fresh segment. Failed
//! appends do **not** consume their LSN — the segment opened by rotation
//! starts exactly after the last *successful* record, which is what lets
//! replay prove that any frame bearing a superseded LSN in an older
//! segment was never acknowledged.
//!
//! ## Replay
//!
//! [`Wal::replay`] scans segments in LSN order and returns the longest
//! provably-acknowledged prefix: frames must be CRC-clean and strictly
//! consecutive; a torn or corrupt frame ends the segment's contribution;
//! and when a newer segment opens at `first_lsn`, any previously-taken
//! record with an LSN ≥ `first_lsn` is dropped as a phantom (it can only
//! be the residue of a failed, unacknowledged append — see above).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::{Buf, BufMut, BytesMut};

use crate::crc32::Crc32;
use crate::storage::{Storage, StorageFile};
use crate::DurableError;

const MAGIC: &[u8; 4] = b"AVWL";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 16;
const FRAME_OVERHEAD: usize = 16;
/// Total tries a single [`Wal::append`] makes before poisoning the log.
/// Each retry rotates to a fresh segment first (superseding any torn
/// frame the failed try left behind) and backs off briefly.
pub(crate) const APPEND_ATTEMPTS: u32 = 3;
/// Base backoff between append retries, doubled per attempt (2 ms, 4 ms):
/// long enough to ride out a momentary storage hiccup, bounded so a dead
/// disk fails the op in well under a second.
const APPEND_RETRY_BACKOFF_MS: u64 = 2;
/// Upper bound on a single record payload; guards allocation when a
/// corrupt length field is read back.
pub(crate) const MAX_RECORD_BYTES: usize = 64 << 20;

/// Tuning knobs for the write-ahead log.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Rotate to a new segment once the active one reaches this size.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 8 << 20,
        }
    }
}

fn segment_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:016x}.avwal")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".avwal")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// The write-ahead log. Not internally synchronized: the owner is
/// expected to wrap it in a mutex that doubles as the op-ordering lock.
pub struct Wal {
    storage: Arc<dyn Storage>,
    dir: PathBuf,
    cfg: WalConfig,
    active: Option<Box<dyn StorageFile>>,
    active_path: PathBuf,
    active_first_lsn: u64,
    active_bytes: u64,
    /// Closed segments: (path, first_lsn, bytes). Includes segments left
    /// over from before recovery until a checkpoint truncates them.
    closed: Vec<(PathBuf, u64, u64)>,
    next_lsn: u64,
    poisoned: Option<String>,
    /// Transient append failures absorbed by retry-through-rotation.
    append_retries: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("next_lsn", &self.next_lsn)
            .field(
                "segments",
                &(self.closed.len() + usize::from(self.active.is_some())),
            )
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Wal {
    /// Open the log directory for appending, starting at `next_lsn`
    /// (one past the highest LSN recovery replayed). Pre-existing
    /// segments are retained — they are still needed if the process
    /// crashes again before the next checkpoint — and a fresh active
    /// segment is created at `next_lsn`.
    pub fn create(
        storage: Arc<dyn Storage>,
        dir: PathBuf,
        cfg: WalConfig,
        next_lsn: u64,
    ) -> Result<Wal, DurableError> {
        storage.create_dir_all(&dir)?;
        let mut closed = Vec::new();
        for name in storage.list(&dir)? {
            if let Some(first_lsn) = parse_segment_name(&name) {
                let path = dir.join(&name);
                let bytes = storage.size(&path).unwrap_or(0);
                closed.push((path, first_lsn, bytes));
            }
        }
        closed.sort_by_key(|&(_, first_lsn, _)| first_lsn);
        let mut wal = Wal {
            storage,
            dir,
            cfg,
            active: None,
            active_path: PathBuf::new(),
            active_first_lsn: 0,
            active_bytes: 0,
            closed,
            next_lsn,
            poisoned: None,
            append_retries: 0,
        };
        wal.open_segment()?;
        Ok(wal)
    }

    /// The LSN the next successful append will return.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Why appends are currently rejected, if an earlier append failed.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Number of live segment files (closed + active).
    pub fn segment_count(&self) -> usize {
        self.closed.len() + usize::from(self.active.is_some())
    }

    /// Total bytes across live segment files.
    pub fn total_bytes(&self) -> u64 {
        self.closed.iter().map(|&(_, _, b)| b).sum::<u64>() + self.active_bytes
    }

    fn open_segment(&mut self) -> Result<(), DurableError> {
        let path = self.dir.join(segment_name(self.next_lsn));
        // A same-named leftover (empty or holding only unacknowledged torn
        // frames) is superseded: overwrite it and drop its closed entry.
        self.closed.retain(|(p, _, _)| *p != path);
        let mut file = self.storage.create(&path)?;
        let mut header = BytesMut::with_capacity(HEADER_LEN as usize);
        header.put_slice(MAGIC);
        header.put_u32_le(VERSION);
        header.put_u64_le(self.next_lsn);
        file.write_all(&header)?;
        file.sync()?;
        self.storage.sync_dir(&self.dir)?;
        self.active = Some(file);
        self.active_path = path;
        self.active_first_lsn = self.next_lsn;
        self.active_bytes = HEADER_LEN;
        Ok(())
    }

    /// Close the active segment and open a fresh one at the current
    /// `next_lsn`, clearing any poison. Called by checkpoints so that all
    /// records at or below the checkpoint watermark live in closed
    /// segments, removable via [`Wal::remove_through`].
    pub fn rotate(&mut self) -> Result<(), DurableError> {
        if self.active.is_some()
            && self.active_bytes == HEADER_LEN
            && self.active_first_lsn == self.next_lsn
            && self.poisoned.is_none()
        {
            return Ok(()); // already a fresh, empty segment
        }
        if self.active.take().is_some() {
            self.closed.push((
                self.active_path.clone(),
                self.active_first_lsn,
                self.active_bytes,
            ));
        }
        match self.open_segment() {
            Ok(()) => {
                self.poisoned = None;
                Ok(())
            }
            Err(e) => {
                self.poisoned = Some(format!("segment rotation failed: {e}"));
                Err(e)
            }
        }
    }

    /// Total append attempts that failed transiently and were absorbed by
    /// a retry (the caller never saw the error).
    #[cfg(test)]
    pub(crate) fn append_retries(&self) -> u64 {
        self.append_retries
    }

    /// Append one record, fsync it, and return its LSN. A failed attempt
    /// is retried through rotation with bounded backoff (up to
    /// three tries); only when every try fails is the log
    /// poisoned (see module docs). The LSN is never consumed by a failure.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, DurableError> {
        if let Some(why) = &self.poisoned {
            return Err(DurableError::Poisoned(why.clone()));
        }
        if payload.len() > MAX_RECORD_BYTES {
            return Err(DurableError::Io(std::io::Error::other(
                "WAL record exceeds MAX_RECORD_BYTES",
            )));
        }
        let mut attempt = 0u32;
        loop {
            match self.append_once(payload) {
                Ok(lsn) => return Ok(lsn),
                Err(e) => {
                    attempt += 1;
                    if attempt >= APPEND_ATTEMPTS {
                        return Err(e);
                    }
                    // The failed try may have left a torn frame in the
                    // active segment; rotating supersedes it, so the retry
                    // writes the same LSN into a provably-clean segment.
                    // A rotation failure means storage is truly down:
                    // surface the append error with the log poisoned.
                    std::thread::sleep(std::time::Duration::from_millis(
                        APPEND_RETRY_BACKOFF_MS << (attempt - 1),
                    ));
                    if self.rotate().is_err() {
                        return Err(e);
                    }
                    self.append_retries += 1;
                }
            }
        }
    }

    fn append_once(&mut self, payload: &[u8]) -> Result<u64, DurableError> {
        if self.active_bytes >= self.cfg.segment_bytes {
            self.rotate()?;
        }
        let lsn = self.next_lsn;
        let mut crc = Crc32::new();
        crc.update(&lsn.to_le_bytes());
        crc.update(payload);
        let mut frame = BytesMut::with_capacity(FRAME_OVERHEAD + payload.len());
        frame.put_u32_le(payload.len() as u32);
        frame.put_u32_le(crc.finish());
        frame.put_u64_le(lsn);
        frame.put_slice(payload);
        let res = (|| -> Result<(), DurableError> {
            let file = self
                .active
                .as_mut()
                .ok_or_else(|| DurableError::Io(std::io::Error::other("no active segment")))?;
            file.write_all(&frame)?;
            file.sync()?;
            Ok(())
        })();
        match res {
            Ok(()) => {
                self.active_bytes += frame.len() as u64;
                self.next_lsn = lsn + 1;
                Ok(lsn)
            }
            Err(e) => {
                self.poisoned = Some(format!("append of lsn {lsn} failed: {e}"));
                Err(e)
            }
        }
    }

    /// Remove closed segments whose records are all covered by a durable
    /// checkpoint at `watermark` (i.e. segments opened at or below it).
    /// Returns how many were removed.
    pub fn remove_through(&mut self, watermark: u64) -> Result<usize, DurableError> {
        let mut removed = 0;
        let mut kept = Vec::new();
        let mut synced = false;
        for (path, first_lsn, bytes) in self.closed.drain(..) {
            if first_lsn <= watermark {
                self.storage.remove(&path)?;
                removed += 1;
                synced = true;
            } else {
                kept.push((path, first_lsn, bytes));
            }
        }
        self.closed = kept;
        if synced {
            self.storage.sync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// Scan the log directory and return every provably-acknowledged
    /// record with LSN greater than `from_lsn`, in order. See the module
    /// docs for the truncation and supersession rules.
    pub fn replay(
        storage: &dyn Storage,
        dir: &Path,
        from_lsn: u64,
    ) -> Result<WalReplay, DurableError> {
        let mut segments: Vec<(u64, String)> = storage
            .list(dir)?
            .into_iter()
            .filter_map(|name| parse_segment_name(&name).map(|lsn| (lsn, name)))
            .collect();
        segments.sort();
        let mut out = WalReplay {
            records: Vec::new(),
            truncated_tail_bytes: 0,
            segments_scanned: 0,
            bytes_scanned: 0,
        };
        let mut stopped = false;
        for (seg_idx, (named_lsn, name)) in segments.iter().enumerate() {
            let path = dir.join(name);
            if stopped {
                // A fatal gap upstream: later records cannot be proven part
                // of a consistent prefix. Count them as truncated.
                out.truncated_tail_bytes += storage.size(&path).unwrap_or(0);
                continue;
            }
            let data = storage.read(&path)?;
            out.segments_scanned += 1;
            out.bytes_scanned += data.len() as u64;
            if data.len() < HEADER_LEN as usize
                || &data[..4] != MAGIC
                || (&data[4..8]).get_u32_le() != VERSION
                || (&data[8..16]).get_u64_le() != *named_lsn
            {
                // Torn or corrupt header. Legitimate only for the newest
                // segment (created but not fully written before a crash).
                out.truncated_tail_bytes += data.len() as u64;
                if seg_idx + 1 < segments.len() {
                    stopped = true;
                }
                continue;
            }
            // This segment supersedes any higher-LSN frames taken from
            // older segments: they were never acknowledged.
            while out
                .records
                .last()
                .is_some_and(|&(lsn, _)| lsn >= *named_lsn)
            {
                out.records.pop();
            }
            let expected_cont = match out.records.last() {
                Some(&(last, _)) => last + 1,
                None => from_lsn + 1,
            };
            if *named_lsn > expected_cont {
                // This segment starts beyond the contiguous prefix: a
                // segment in between was lost or corrupted, so nothing
                // from here on is provably consistent.
                stopped = true;
                out.truncated_tail_bytes += (data.len() as u64).saturating_sub(HEADER_LEN);
                continue;
            }
            let mut expected = expected_cont;
            let mut pos = HEADER_LEN as usize;
            while pos + FRAME_OVERHEAD <= data.len() {
                let mut head = &data[pos..pos + FRAME_OVERHEAD];
                let len = head.get_u32_le() as usize;
                let stored_crc = head.get_u32_le();
                let lsn = head.get_u64_le();
                if len > MAX_RECORD_BYTES || pos + FRAME_OVERHEAD + len > data.len() {
                    break; // torn tail
                }
                let payload = &data[pos + FRAME_OVERHEAD..pos + FRAME_OVERHEAD + len];
                let mut crc = Crc32::new();
                crc.update(&lsn.to_le_bytes());
                crc.update(payload);
                if crc.finish() != stored_crc {
                    break; // torn or corrupt frame
                }
                if lsn >= expected {
                    if lsn > expected {
                        // A hole inside a segment can only mean corruption;
                        // nothing after it is provably consistent.
                        stopped = true;
                        break;
                    }
                    out.records.push((lsn, payload.to_vec()));
                    expected = lsn + 1;
                }
                pos += FRAME_OVERHEAD + len;
            }
            out.truncated_tail_bytes += (data.len() - pos.min(data.len())) as u64;
        }
        Ok(out)
    }
}

/// Result of [`Wal::replay`].
#[derive(Debug)]
pub struct WalReplay {
    /// Recovered `(lsn, payload)` records in LSN order, strictly
    /// consecutive, all greater than the `from_lsn` passed to replay.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Bytes discarded as torn tails, corrupt frames, or unprovable
    /// suffixes.
    pub truncated_tail_bytes: u64,
    /// Segment files read.
    pub segments_scanned: usize,
    /// Total bytes read across scanned segments.
    pub bytes_scanned: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, MemStorage};

    fn wal_dir() -> PathBuf {
        PathBuf::from("/svc/wal")
    }

    fn new_wal(storage: Arc<dyn Storage>, segment_bytes: u64, next_lsn: u64) -> Wal {
        Wal::create(storage, wal_dir(), WalConfig { segment_bytes }, next_lsn).unwrap()
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let mut wal = new_wal(Arc::clone(&storage), 1 << 20, 1);
        for i in 0..20u8 {
            let lsn = wal.append(&[i; 33]).unwrap();
            assert_eq!(lsn, 1 + i as u64);
        }
        let replay = Wal::replay(storage.as_ref(), &wal_dir(), 0).unwrap();
        assert_eq!(replay.records.len(), 20);
        assert_eq!(replay.truncated_tail_bytes, 0);
        for (i, (lsn, payload)) in replay.records.iter().enumerate() {
            assert_eq!(*lsn, 1 + i as u64);
            assert_eq!(payload, &vec![i as u8; 33]);
        }
        // from_lsn filters.
        let replay = Wal::replay(storage.as_ref(), &wal_dir(), 15).unwrap();
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records[0].0, 16);
    }

    #[test]
    fn rotation_spans_segments() {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let mut wal = new_wal(Arc::clone(&storage), 128, 1);
        for i in 0..50u8 {
            wal.append(&[i; 40]).unwrap();
        }
        assert!(wal.segment_count() > 1, "expected rotation");
        let replay = Wal::replay(storage.as_ref(), &wal_dir(), 0).unwrap();
        assert_eq!(replay.records.len(), 50);
        assert!(replay.segments_scanned > 1);
    }

    #[test]
    fn crash_yields_acked_prefix_at_every_point() {
        // Reference run to count storage ops.
        let reference = Arc::new(MemStorage::new());
        {
            let mut wal = new_wal(Arc::clone(&reference) as Arc<dyn Storage>, 256, 1);
            for i in 0..24u8 {
                wal.append(&[i; 21]).unwrap();
            }
        }
        let total_ops = reference.ops_executed();
        for crash_at in 0..total_ops {
            let mem = Arc::new(MemStorage::with_plan(FaultPlan::crash_at(crash_at)));
            let storage: Arc<dyn Storage> = Arc::clone(&mem) as Arc<dyn Storage>;
            let mut acked = 0u64;
            let run = (|| -> Result<(), DurableError> {
                let mut wal = Wal::create(
                    Arc::clone(&storage),
                    wal_dir(),
                    WalConfig { segment_bytes: 256 },
                    1,
                )?;
                for i in 0..24u8 {
                    wal.append(&[i; 21])?;
                    acked += 1;
                }
                Ok(())
            })();
            assert!(run.is_err(), "crash point {crash_at} did not fire");
            let after = mem.crashed_view();
            let replay = Wal::replay(&after, &wal_dir(), 0).unwrap();
            // Strictly consecutive from 1, covering at least the acked ops.
            assert!(
                replay.records.len() as u64 >= acked,
                "crash {crash_at}: acked {acked} but replayed {}",
                replay.records.len()
            );
            assert!(replay.records.len() as u64 <= acked + 1);
            for (i, (lsn, payload)) in replay.records.iter().enumerate() {
                assert_eq!(*lsn, 1 + i as u64);
                assert_eq!(payload, &vec![i as u8; 21]);
            }
        }
    }

    #[test]
    fn transient_append_failure_retries_and_preserves_acked_ops() {
        // Work out which op indices are the second append's write and
        // fsync by probing: create a WAL (ops for dir + segment + header)
        // plus one append, then fault the next op.
        let probe = Arc::new(MemStorage::new());
        {
            let mut wal = new_wal(Arc::clone(&probe) as Arc<dyn Storage>, 1 << 20, 1);
            wal.append(b"first").unwrap();
        }
        let ops_before_second = probe.ops_executed();
        // offset 0 = the append's write fails, 1 = its fsync fails.
        for offset in 0..2u64 {
            let mem = Arc::new(MemStorage::with_plan(FaultPlan::fail_at(
                ops_before_second + offset,
            )));
            let storage: Arc<dyn Storage> = Arc::clone(&mem) as Arc<dyn Storage>;
            let mut wal = new_wal(Arc::clone(&storage), 1 << 20, 1);
            assert_eq!(wal.append(b"first").unwrap(), 1);
            // The transient failure is absorbed: the caller sees a normal
            // ack with the same LSN a fault-free run would have returned.
            assert_eq!(wal.append(b"second").unwrap(), 2, "offset {offset}");
            assert!(wal.poisoned().is_none());
            assert_eq!(wal.append_retries(), 1);
            // The retry went through rotation, superseding whatever the
            // failed try left in the old active segment.
            assert!(wal.segment_count() > 1, "offset {offset}: no rotation");
            assert_eq!(wal.append(b"third").unwrap(), 3);
            // Every acked record is durable — both in the live image and
            // across a crash right now (the retried frame was fsynced in
            // the fresh segment before the append returned).
            for view in [
                Wal::replay(storage.as_ref(), &wal_dir(), 0).unwrap(),
                Wal::replay(&mem.crashed_view(), &wal_dir(), 0).unwrap(),
            ] {
                let payloads: Vec<&[u8]> = view.records.iter().map(|(_, p)| p.as_slice()).collect();
                assert_eq!(
                    payloads,
                    vec![&b"first"[..], &b"second"[..], &b"third"[..]],
                    "offset {offset}"
                );
                for (i, (lsn, _)) in view.records.iter().enumerate() {
                    assert_eq!(*lsn, 1 + i as u64);
                }
            }
        }
    }

    #[test]
    fn poisoned_after_exhausted_append_retries() {
        // A storage that dies for good: every retry (and its rotation)
        // fails, so the append surfaces the error and poisons the log.
        let probe = Arc::new(MemStorage::new());
        {
            let mut wal = new_wal(Arc::clone(&probe) as Arc<dyn Storage>, 1 << 20, 1);
            wal.append(b"first").unwrap();
        }
        let ops_before_second = probe.ops_executed();
        let mem = Arc::new(MemStorage::with_plan(FaultPlan::crash_at(
            ops_before_second,
        )));
        let storage: Arc<dyn Storage> = Arc::clone(&mem) as Arc<dyn Storage>;
        let mut wal = new_wal(Arc::clone(&storage), 1 << 20, 1);
        wal.append(b"first").unwrap();
        assert!(wal.append(b"second").is_err());
        assert!(wal.poisoned().is_some());
        // Subsequent appends rejected without touching storage.
        match wal.append(b"third") {
            Err(DurableError::Poisoned(_)) => {}
            other => panic!("expected poisoned, got {other:?}"),
        }
        // What survives the crash is exactly the acked prefix.
        let replay = Wal::replay(&mem.crashed_view(), &wal_dir(), 0).unwrap();
        let payloads: Vec<&[u8]> = replay.records.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![&b"first"[..]]);
    }

    #[test]
    fn remove_through_deletes_only_covered_segments() {
        let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
        let mut wal = new_wal(Arc::clone(&storage), 1 << 20, 1);
        for i in 0..5u8 {
            wal.append(&[i; 8]).unwrap();
        }
        // Checkpoint at watermark 5: rotate, then drop covered segments.
        wal.rotate().unwrap();
        for i in 5..9u8 {
            wal.append(&[i; 8]).unwrap();
        }
        let removed = wal.remove_through(5).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(wal.segment_count(), 1);
        let replay = Wal::replay(storage.as_ref(), &wal_dir(), 5).unwrap();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.records[0].0, 6);
    }

    #[test]
    fn mid_log_corruption_truncates_the_suffix() {
        let mem = Arc::new(MemStorage::new());
        let storage: Arc<dyn Storage> = Arc::clone(&mem) as Arc<dyn Storage>;
        let mut wal = new_wal(Arc::clone(&storage), 1 << 20, 1);
        for i in 0..10u8 {
            wal.append(&[i; 64]).unwrap();
        }
        // Flip a bit inside record 4's payload (frames start after the
        // 16-byte header; each frame is 16 + 64 bytes).
        let seg = wal_dir().join(segment_name(1));
        mem.corrupt(&seg, 16 + 3 * 80 + 16 + 10);
        let replay = Wal::replay(storage.as_ref(), &wal_dir(), 0).unwrap();
        assert_eq!(replay.records.len(), 3, "prefix before the corrupt frame");
        assert!(replay.truncated_tail_bytes > 0);
    }

    #[test]
    fn recovery_restart_supersedes_torn_tail() {
        // First run crashes leaving a torn tail; a second run (started at
        // the replayed next_lsn) appends new records; replay must take the
        // second run's records, never the torn phantom.
        let reference = Arc::new(MemStorage::new());
        {
            let mut wal = new_wal(Arc::clone(&reference) as Arc<dyn Storage>, 1 << 20, 1);
            for i in 0..6u8 {
                wal.append(&[i; 32]).unwrap();
            }
        }
        // Crash during the last append's write (partial frame on disk).
        let total = reference.ops_executed();
        let mem = Arc::new(MemStorage::with_plan(FaultPlan::crash_at(total - 2)));
        let storage: Arc<dyn Storage> = Arc::clone(&mem) as Arc<dyn Storage>;
        {
            let mut wal = new_wal(Arc::clone(&storage), 1 << 20, 1);
            for i in 0..6u8 {
                let _ = wal.append(&[i; 32]);
            }
        }
        let after = Arc::new(mem.crashed_view());
        let storage2: Arc<dyn Storage> = Arc::clone(&after) as Arc<dyn Storage>;
        let replay = Wal::replay(storage2.as_ref(), &wal_dir(), 0).unwrap();
        let next = replay.records.last().map(|&(l, _)| l + 1).unwrap_or(1);
        let mut wal = new_wal(Arc::clone(&storage2), 1 << 20, next);
        let lsn = wal.append(b"after-recovery").unwrap();
        assert_eq!(lsn, next);
        let replay = Wal::replay(storage2.as_ref(), &wal_dir(), 0).unwrap();
        assert_eq!(replay.records.last().unwrap().1, b"after-recovery");
        // Strictly consecutive from 1.
        for (i, (l, _)) in replay.records.iter().enumerate() {
            assert_eq!(*l, 1 + i as u64);
        }
    }
}
