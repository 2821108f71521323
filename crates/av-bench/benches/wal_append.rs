//! The `wal_append` group: durable-mode write-path overhead.
//!
//! Durable mode adds two costs to every mutating op: encoding the op
//! into a WAL record and appending the CRC-framed record to the active
//! segment (plus an fsync on real disks). The benches isolate both
//! halves and then measure the end-to-end toll on the service's ingest
//! path:
//!
//! * `append_256b` / `append_16k` — raw framed appends on in-memory
//!   storage: framing + CRC + segment accounting, no fsync.
//! * `ingest_plain_*` vs `ingest_durable_*` — the same batch through a
//!   plain service and a durable one on in-memory storage; the gap is
//!   the durable toll on ingest: WAL encode+append plus the amortized
//!   automatic checkpoints (one per image's worth of logged bytes). The
//!   toll is a per-op cost proportional to the delta's size, so it is
//!   benched at two batch sizes: profiling work grows faster than delta
//!   size, shrinking the relative overhead for real batches. Pure append
//!   cost is the `append_*` rows.
//! * `checkpoint_*` — ingest-plus-incremental-checkpoint for a narrow
//!   batch (touches a few shards) vs a diverse one (touches most), plus
//!   the all-shards-reused floor: checkpoint cost must track touched
//!   shards, not index size.
//! * `append_fsync_os` — a real-disk append including the fsync, the
//!   physical floor for per-op durable latency. Off by default (CI smoke
//!   keeps I/O out); opt in with `AV_WAL_BENCH_FSYNC=1`.

use av_corpus::{generate_lake, Column, ColumnMeta, LakeProfile};
use av_durable::{MemStorage, OsStorage, Storage, Wal, WalConfig};
use av_service::{ServiceConfig, ValidationService};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

fn mem_wal(segment_bytes: u64) -> Wal {
    let storage: Arc<dyn Storage> = Arc::new(MemStorage::new());
    storage.create_dir_all(&PathBuf::from("/wal")).unwrap();
    Wal::create(
        storage,
        PathBuf::from("/wal"),
        WalConfig { segment_bytes },
        1,
    )
    .unwrap()
}

fn batch(scale: usize) -> Vec<Column> {
    generate_lake(&LakeProfile::tiny().scaled(scale), 29)
        .columns()
        .cloned()
        .collect()
}

fn enum_column(name: &str, vocab: &[&str], rows: usize) -> Column {
    Column {
        name: name.to_string(),
        values: (0..rows)
            .map(|i| vocab[i % vocab.len()].to_string())
            .collect(),
        meta: ColumnMeta::machine("wal-bench", None),
    }
}

fn durable_mem_service() -> ValidationService {
    let mut config = ServiceConfig::durable(PathBuf::from("/data"));
    config.storage = Arc::new(MemStorage::new());
    ValidationService::open(config).unwrap()
}

fn bench_wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_append");
    group.sample_size(10);

    for (label, len) in [("append_256b", 256usize), ("append_16k", 16 << 10)] {
        let payload = vec![0xabu8; len];
        let mut wal = mem_wal(64 << 20);
        group.bench_function(label, |b| {
            b.iter(|| black_box(wal.append(black_box(&payload)).unwrap()))
        });
    }

    // End-to-end: the same ingest batch with and without the WAL in the
    // write path (in-memory storage, so the gap is encode+append work plus
    // the automatic checkpoints it amortizes).
    for (label, scale) in [("tiny8", 8usize), ("lake48", 48)] {
        let columns = batch(scale);
        let plain = ValidationService::new(ServiceConfig::default());
        group.bench_function(format!("ingest_plain_{label}"), |b| {
            b.iter(|| black_box(plain.ingest(black_box(&columns)).unwrap().total_patterns))
        });
        let durable = durable_mem_service();
        group.bench_function(format!("ingest_durable_{label}"), |b| {
            b.iter(|| black_box(durable.ingest(black_box(&columns)).unwrap().total_patterns))
        });
    }

    // Incremental checkpoint cost tracks *touched* shards: a narrow
    // batch dirties a handful, a diverse one dirties most, and with
    // nothing new every shard file is reused.
    let narrow = vec![
        enum_column("status", &["OK", "RETRY", "FAIL"], 90),
        enum_column("level", &["INFO", "WARN", "ERROR", "DEBUG"], 80),
    ];
    let diverse = batch(4);
    let base = batch(64);
    for (label, step) in [("narrow", &narrow), ("diverse", &diverse)] {
        let service = durable_mem_service();
        service.ingest(&base).unwrap();
        service.persist().unwrap();
        group.bench_function(format!("checkpoint_after_{label}"), |b| {
            b.iter(|| {
                service.ingest(black_box(step)).unwrap();
                service.persist().unwrap();
                black_box(service.durability().unwrap().checkpoint_generation)
            })
        });
    }
    let service = durable_mem_service();
    service.ingest(&base).unwrap();
    service.persist().unwrap();
    group.bench_function("checkpoint_reuse_all", |b| {
        b.iter(|| {
            service.persist().unwrap();
            black_box(service.durability().unwrap().checkpoint_generation)
        })
    });

    // Real-disk fsync floor, opt-in (slow and I/O bound).
    if std::env::var("AV_WAL_BENCH_FSYNC").is_ok_and(|v| v == "1") {
        let dir = std::env::temp_dir().join(format!("av_wal_bench_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let storage: Arc<dyn Storage> = Arc::new(OsStorage);
        storage.create_dir_all(&dir).unwrap();
        let mut wal = Wal::create(
            storage,
            dir.clone(),
            WalConfig {
                segment_bytes: 64 << 20,
            },
            1,
        )
        .unwrap();
        let payload = vec![0xcdu8; 256];
        group.bench_function("append_fsync_os", |b| {
            b.iter(|| black_box(wal.append(black_box(&payload)).unwrap()))
        });
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_wal_append
}
criterion_main!(benches);
