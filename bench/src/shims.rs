//! Counting shims around the service's public transport and storage
//! traits. They are installed only in a traced run: end-to-end runs serve
//! through `std_listener` and `OsStorage` untouched.

use av_durable::{OsStorage, Storage, StorageFile};
use av_service::{NetListener, NetSocket};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Socket-side counts, shared by every accepted connection. Statistics
/// only, so `Relaxed` throughout.
#[derive(Debug, Default)]
pub struct SocketCounts {
    /// `read` calls that returned bytes (a `WouldBlock` is not work).
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
}

pub struct CountingListener {
    inner: Box<dyn NetListener>,
    counts: Arc<SocketCounts>,
}

impl CountingListener {
    pub fn new(inner: Box<dyn NetListener>, counts: Arc<SocketCounts>) -> CountingListener {
        CountingListener { inner, counts }
    }
}

impl NetListener for CountingListener {
    fn accept(&mut self) -> io::Result<Option<Box<dyn NetSocket>>> {
        Ok(self.inner.accept()?.map(|inner| {
            Box::new(CountingSocket {
                inner,
                counts: Arc::clone(&self.counts),
            }) as Box<dyn NetSocket>
        }))
    }

    fn raw_fd(&self) -> i32 {
        self.inner.raw_fd()
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

struct CountingSocket {
    inner: Box<dyn NetSocket>,
    counts: Arc<SocketCounts>,
}

impl NetSocket for CountingSocket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            self.counts.reads.fetch_add(1, Ordering::Relaxed);
            self.counts
                .bytes_read
                .fetch_add(n as u64, Ordering::Relaxed);
        }
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.counts
            .bytes_written
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn raw_fd(&self) -> i32 {
        self.inner.raw_fd()
    }

    fn shutdown_write(&mut self) {
        self.inner.shutdown_write()
    }
}

/// Per-file byte accounting: how much was written, and how much of it a
/// completed `sync` covers.
#[derive(Debug, Default, Clone, Copy)]
struct FileLengths {
    written: u64,
    synced: u64,
}

#[derive(Debug, Default)]
struct StorageLedger {
    files: HashMap<PathBuf, FileLengths>,
    fsync_nanos: Vec<u32>,
    bytes_written: u64,
}

/// `OsStorage` with every write and `fsync` counted, and each file's
/// synced length tracked so a crash can be made honest (see
/// [`CountingStorage::discard_unsynced`]).
#[derive(Debug, Default)]
pub struct CountingStorage {
    ledger: Arc<Mutex<StorageLedger>>,
}

/// Totals read off a [`CountingStorage`].
pub struct StorageCounts {
    pub fsyncs: u64,
    pub fsync_micros: Vec<f64>,
    pub bytes_written: u64,
}

impl CountingStorage {
    fn lock(&self) -> std::sync::MutexGuard<'_, StorageLedger> {
        self.ledger.lock().expect("storage ledger lock poisoned")
    }

    pub fn counts(&self) -> StorageCounts {
        let ledger = self.lock();
        StorageCounts {
            fsyncs: ledger.fsync_nanos.len() as u64,
            fsync_micros: crate::stats::sorted(
                &ledger
                    .fsync_nanos
                    .iter()
                    .map(|&n| n as f64 / 1000.0)
                    .collect::<Vec<_>>(),
            ),
            bytes_written: ledger.bytes_written,
        }
    }

    /// Forget the counts so far (set-up writes are not the window's).
    pub fn reset_counts(&self) {
        let mut ledger = self.lock();
        ledger.fsync_nanos.clear();
        ledger.bytes_written = 0;
    }

    /// Cut every file this storage wrote down to the length its last
    /// completed `sync` covered. Stopping a process leaves the operating
    /// system's cache intact; this is what stands in for losing it.
    /// Returns the bytes discarded.
    pub fn discard_unsynced(&self) -> io::Result<u64> {
        let ledger = self.lock();
        let mut discarded = 0;
        for (path, lengths) in &ledger.files {
            if lengths.written > lengths.synced && path.is_file() {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(lengths.synced)?;
                discarded += lengths.written - lengths.synced;
            }
        }
        Ok(discarded)
    }
}

struct CountingFile {
    inner: Box<dyn StorageFile>,
    path: PathBuf,
    ledger: Arc<Mutex<StorageLedger>>,
}

impl StorageFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.inner.write_all(buf)?;
        let mut ledger = self.ledger.lock().expect("storage ledger lock poisoned");
        ledger.bytes_written += buf.len() as u64;
        ledger.files.entry(self.path.clone()).or_default().written += buf.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        self.inner.sync()?;
        let nanos = start.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        let mut ledger = self.ledger.lock().expect("storage ledger lock poisoned");
        ledger.fsync_nanos.push(nanos);
        let lengths = ledger.files.entry(self.path.clone()).or_default();
        lengths.synced = lengths.written;
        Ok(())
    }
}

impl Storage for CountingStorage {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let inner = OsStorage.create(path)?;
        self.lock()
            .files
            .insert(path.to_path_buf(), FileLengths::default());
        Ok(Box::new(CountingFile {
            inner,
            path: path.to_path_buf(),
            ledger: Arc::clone(&self.ledger),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        OsStorage.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        OsStorage.rename(from, to)?;
        let mut ledger = self.lock();
        if let Some(lengths) = ledger.files.remove(from) {
            ledger.files.insert(to.to_path_buf(), lengths);
        }
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        OsStorage.remove(path)?;
        self.lock().files.remove(path);
        Ok(())
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        OsStorage.create_dir_all(path)
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        OsStorage.sync_dir(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        OsStorage.list(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        OsStorage.exists(path)
    }

    fn size(&self, path: &Path) -> io::Result<u64> {
        OsStorage.size(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynced_tail_is_discarded_and_counts_add_up() {
        let dir = std::env::temp_dir().join(format!("av-ledger-shim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let storage = CountingStorage::default();
        let path = dir.join("log.tmp");
        let mut file = storage.create(&path).unwrap();
        file.write_all(b"durable").unwrap();
        file.sync().unwrap();
        file.write_all(b" and not").unwrap();
        drop(file);
        let renamed = dir.join("log");
        storage.rename(&path, &renamed).unwrap();
        let counts = storage.counts();
        assert_eq!((counts.fsyncs, counts.bytes_written), (1, 15));
        assert_eq!(storage.discard_unsynced().unwrap(), 8);
        assert_eq!(std::fs::read(&renamed).unwrap(), b"durable");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
