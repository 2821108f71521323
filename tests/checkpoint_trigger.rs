//! When the durable service checkpoints on its own: once the WAL logged
//! since the last checkpoint has grown to that checkpoint's image, and
//! once per crossing, however many writers crossed it together.

use av_corpus::{generate_lake, Column, LakeProfile};
use av_durable::{MemStorage, Storage, StorageFile};
use av_service::{owned_column, ServiceConfig, ValidationService};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn durable_service(storage: Arc<dyn Storage>) -> ValidationService {
    let mut config = ServiceConfig::durable(PathBuf::from("/data"));
    config.storage = storage;
    ValidationService::open(config).unwrap()
}

/// A durable service on fresh in-memory storage, holding a small lake
/// checkpointed once.
fn seeded_service() -> ValidationService {
    let service = durable_service(Arc::new(MemStorage::new()));
    let lake: Vec<Column> = generate_lake(&LakeProfile::tiny().scaled(4), 85)
        .columns()
        .cloned()
        .collect();
    service.ingest(&lake).unwrap();
    service.persist().unwrap();
    service
}

/// One narrow enum-feed ingest, the same every time: the index keeps its
/// patterns and only their supports grow.
fn feed() -> Vec<Column> {
    let vocab = ["active", "pending", "closed", "failed", "queued"];
    vec![owned_column(
        "status",
        (0..12)
            .map(|i| vocab[i % vocab.len()].to_string())
            .collect(),
    )]
}

/// Automatic checkpoints taken while `threads` writers ingest `per_thread`
/// feeds each.
fn auto_checkpoints(threads: usize, per_thread: usize) -> u64 {
    let service = seeded_service();
    let before = service.durability().unwrap().checkpoints_completed;
    let columns = feed();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..per_thread {
                    service.ingest(&columns).unwrap();
                }
            });
        }
    });
    let d = service.durability().unwrap();
    assert_eq!(d.checkpoint_failures, 0, "{d:?}");
    d.checkpoints_completed - before
}

/// An op that completes while a checkpoint runs, or that crossed the
/// trigger alongside the op that started it, must not queue another
/// checkpoint of its own: the same records written by two threads and by
/// one take the same number of automatic checkpoints.
#[test]
fn concurrent_writers_take_one_checkpoint_per_crossing() {
    let one = auto_checkpoints(1, 1024);
    let two = auto_checkpoints(2, 512);
    assert!(
        one >= 4,
        "the feed must cross the trigger repeatedly: {one}"
    );
    assert!(
        two.abs_diff(one) <= 1,
        "two writers took {two} automatic checkpoints, one writer {one}"
    );
}

/// In-memory storage that tallies the bytes written under `wal/` and
/// everywhere else (shard files, catalogs, manifests).
#[derive(Debug, Clone, Default)]
struct Tally {
    inner: MemStorage,
    wal: Arc<AtomicU64>,
    checkpoint: Arc<AtomicU64>,
}

struct TallyFile {
    inner: Box<dyn StorageFile>,
    written: Arc<AtomicU64>,
}

impl StorageFile for TallyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.written.fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.inner.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }
}

impl Storage for Tally {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let written = if path.components().any(|c| c.as_os_str() == "wal") {
            &self.wal
        } else {
            &self.checkpoint
        };
        Ok(Box::new(TallyFile {
            inner: self.inner.create(path)?,
            written: Arc::clone(written),
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_dir(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn size(&self, path: &Path) -> io::Result<u64> {
        self.inner.size(path)
    }
}

/// A checkpoint writes at most its image, and fires only once as many
/// bytes were logged since the previous one: over many small ingests the
/// checkpoints write no more than the WAL did, plus one image (the first
/// checkpoint, which the empty directory's zero-byte image lets fire at
/// once).
#[test]
fn checkpoints_write_at_most_the_log_plus_one_image() {
    let tally = Tally::default();
    let service = durable_service(Arc::new(tally.clone()));
    for i in 0..2000u32 {
        let values = (0..6).map(|v| format!("r{i}-{v:03}")).collect();
        service
            .ingest(&[owned_column(&format!("col-{i}"), values)])
            .unwrap();
    }
    let d = service.durability().unwrap();
    assert_eq!(d.checkpoint_failures, 0, "{d:?}");
    assert!(d.checkpoints_completed >= 4, "{d:?}");
    assert!(
        d.wal_bytes_since_checkpoint < d.checkpoint_image_bytes,
        "every crossing was checkpointed: {d:?}"
    );
    let wal = tally.wal.load(Ordering::Relaxed);
    let checkpoint = tally.checkpoint.load(Ordering::Relaxed);
    assert!(
        checkpoint <= wal + d.checkpoint_image_bytes,
        "checkpoints wrote {checkpoint} B against {wal} B of WAL and a \
         {} B image: {d:?}",
        d.checkpoint_image_bytes
    );
}
