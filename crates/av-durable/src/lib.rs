//! Crash-safe durability primitives for the Auto-Validate service.
//!
//! This crate is payload-agnostic: it knows nothing about pattern indices
//! or rule catalogs. It provides the four building blocks the service
//! composes into its durability subsystem:
//!
//! - [`storage`] — a [`Storage`] trait abstracting every
//!   file-system operation durability code is allowed to perform
//!   (create/append/sync/rename/remove/sync-dir), with
//!   [`OsStorage`] as the production implementation.
//! - [`fault`] — [`MemStorage`], an in-memory `Storage`
//!   with a precise crash model (volatile vs. durable bytes, unsynced
//!   directory entries, torn tails) driven by a deterministic
//!   [`FaultPlan`]. Test harnesses crash it at every
//!   injection point and recover from [`crashed_view`](fault::MemStorage::crashed_view).
//! - [`wal`] — an append-only, CRC-framed [`Wal`] with segment
//!   rotation, fsync-per-record, poisoning on append failure, and replay
//!   with torn-tail truncation.
//! - [`manifest`] — generation-numbered checkpoint [`Manifest`]s
//!   written with an atomic temp + fsync + rename + dir-fsync swap; recovery
//!   scans newest-first and takes the first manifest whose CRC32 footer
//!   verifies.
//!
//! The correctness contract the pieces are designed around: after a crash
//! at *any* storage operation, recovery (newest valid manifest → verify
//! checksums → replay WAL, truncating the torn tail) yields state equal to
//! the state after some prefix of the logged operation history, and that
//! prefix covers every operation that was acknowledged before the crash.

#![forbid(unsafe_code)]

mod crc32;
pub mod fault;
pub mod manifest;
pub mod storage;
pub mod wal;

pub use crc32::crc32;
pub use fault::{FaultPlan, MemStorage};
pub use manifest::{Manifest, ManifestError, ShardFileEntry};
pub use storage::{write_atomic, OsStorage, Storage, StorageFile};
pub use wal::{Wal, WalConfig, WalReplay};

use std::fmt;

/// Error type shared by the WAL and manifest layers.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying storage operation failed.
    Io(std::io::Error),
    /// On-storage bytes failed validation (bad magic, bad CRC, short file).
    /// Names the offending file and, when the decoder reports one, the byte
    /// offset where validation failed.
    Corrupt {
        /// File the corruption was detected in.
        file: String,
        /// Byte offset within the file where validation failed, when the
        /// decoder reports one.
        offset: Option<u64>,
        /// Human-readable description of what failed to validate.
        detail: String,
    },
    /// The WAL rejected an append because an earlier append failed and the
    /// log has not yet been rotated by a successful checkpoint.
    Poisoned(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurableError::Corrupt {
                file,
                offset,
                detail,
            } => match offset {
                Some(offset) => write!(
                    f,
                    "corrupt durability file {file} at byte {offset}: {detail}"
                ),
                None => write!(f, "corrupt durability file {file}: {detail}"),
            },
            DurableError::Poisoned(msg) => {
                write!(f, "write-ahead log poisoned by earlier failure: {msg}")
            }
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}
