//! Fault-injection crash-recovery harness.
//!
//! The durable service's contract: after a crash at **any** storage
//! operation — mid-WAL-append, mid-checkpoint, mid-rename, mid-fsync —
//! reopening the data directory recovers a state that is bit-identical
//! to the state after some *consistent prefix* of the operation history,
//! and that prefix covers every operation the service acknowledged.
//!
//! The harness runs a fixed op script against `MemStorage` once without
//! faults to count the storage operations it performs, then replays the
//! script once per storage op with a crash injected exactly there. Each
//! crashed run is recovered from its durable view (what an fsync-honest
//! disk would hold) and compared byte-for-byte against sequential
//! reference states built by a plain in-memory service.

use av_corpus::{generate_lake, Column, LakeProfile};
use av_durable::{DurableError, FaultPlan, MemStorage, Storage};
use av_service::{owned_column, RuleCatalog, ServiceConfig, ServiceError, ValidationService};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Pinned rule clock so catalog text is identical across runs.
const CLOCK: u64 = 1_700_000_000;

/// A small synthetic lake slice: enough corpus support for FMDV to find
/// feasible rules, small enough to re-profile dozens of times.
fn lake(seed: u64, scale: usize) -> Vec<Column> {
    generate_lake(&LakeProfile::tiny().scaled(scale), seed)
        .columns()
        .cloned()
        .collect()
}

fn dates(month: u32) -> Vec<String> {
    (1..=28)
        .map(|d| format!("2023-{month:02}-{d:02}"))
        .collect()
}

enum Op {
    Ingest(Vec<Column>),
    Infer(&'static str, Vec<String>),
    Delete(&'static str),
    Persist,
}

/// Deterministic op script: ingests, rule inference, a delete, and
/// explicit checkpoints. The lake arrives in slices that grow, so each
/// slice's delta outweighs the checkpoint image before it and three
/// auto-checkpoints fire ahead of the explicit ones.
fn script() -> Vec<Op> {
    let lake = lake(85, 25);
    vec![
        Op::Ingest(lake[..3].to_vec()),
        Op::Ingest(lake[3..9].to_vec()),
        Op::Ingest(lake[9..].to_vec()),
        Op::Infer("feeds/date", dates(1)),
        Op::Ingest(vec![owned_column(
            "gamma",
            (0..10).map(|i| format!("user_{i}@example.com")).collect(),
        )]),
        Op::Persist,
        Op::Infer("feeds/march", dates(3)),
        Op::Ingest(vec![owned_column(
            "delta",
            (0..10).map(|i| format!("10.0.0.{i}")).collect(),
        )]),
        Op::Delete("feeds/date"),
        Op::Ingest(vec![owned_column(
            "epsilon",
            (0..8).map(|i| format!("case-{i:03}")).collect(),
        )]),
        Op::Persist,
    ]
}

fn apply(service: &ValidationService, op: &Op) -> Result<(), ServiceError> {
    match op {
        Op::Ingest(columns) => service.ingest(columns).map(|_| ()),
        Op::Infer(name, train) => service.infer_rule(name, train, None).map(|_| ()),
        Op::Delete(name) => service.delete_rule(name),
        Op::Persist => service.persist(),
    }
}

/// Durable config over the given in-memory storage: small WAL segments so
/// rotation and truncation happen inside the short script.
fn durable_config(mem: &MemStorage) -> ServiceConfig {
    let mut config = ServiceConfig::durable(PathBuf::from("/data"));
    config.storage = Arc::new(mem.clone());
    config.rule_clock_unix = Some(CLOCK);
    config.wal_segment_bytes = 4096;
    config
}

/// The logical durable state: serialized index bytes + catalog text.
fn state_of(service: &ValidationService) -> (Vec<u8>, String) {
    let index = service.snapshot().to_bytes().to_vec();
    let mut catalog = RuleCatalog::new();
    for entry in service.catalog_entries() {
        catalog.insert(entry);
    }
    (index, catalog.to_text())
}

/// Sequential reference states: `states[k]` is the state after the first
/// `k` script ops, built by a plain in-memory (non-durable) service.
/// `Persist` is a logical no-op, so neighbouring states may be equal.
fn reference_states() -> Vec<(Vec<u8>, String)> {
    let config = ServiceConfig {
        rule_clock_unix: Some(CLOCK),
        ..ServiceConfig::default()
    };
    let service = ValidationService::new(config);
    let mut states = vec![state_of(&service)];
    for op in script() {
        if !matches!(op, Op::Persist) {
            apply(&service, &op).unwrap();
        }
        states.push(state_of(&service));
    }
    states
}

#[test]
fn crash_at_every_storage_op_recovers_an_acknowledged_prefix() {
    let references = reference_states();

    // Fault-free run: counts storage ops and checks durable-mode state
    // matches the non-durable reference exactly.
    let mem = MemStorage::new();
    let service = ValidationService::open(durable_config(&mem)).unwrap();
    for op in script() {
        apply(&service, &op).unwrap();
    }
    assert_eq!(state_of(&service), *references.last().unwrap());
    let snapshot = service.durability().expect("durable mode is on");
    let persists = script()
        .iter()
        .filter(|op| matches!(op, Op::Persist))
        .count() as u64;
    assert!(
        snapshot.checkpoints_completed >= persists + 3,
        "script must cross at least 3 auto-checkpoints: {snapshot:?}"
    );
    drop(service);
    let total_ops = mem.ops_executed();
    assert!(
        total_ops > 30,
        "script must exercise many storage ops, got {total_ops}"
    );

    // Clean restart replays to the exact final state.
    let reopened = ValidationService::open(durable_config(&mem)).unwrap();
    assert_eq!(state_of(&reopened), *references.last().unwrap());
    drop(reopened);

    // Crash at EVERY storage op of the fault-free trace (0-indexed).
    for crash_op in 0..total_ops {
        let mem = MemStorage::with_plan(FaultPlan::crash_at(crash_op));
        let mut acked = 0usize;
        if let Ok(service) = ValidationService::open(durable_config(&mem)) {
            for op in script() {
                if apply(&service, &op).is_ok() {
                    acked += 1;
                } else {
                    // Once the storage crashed every further durable op
                    // must refuse: an "acknowledged" op after a failed
                    // one would tear the prefix contract.
                    break;
                }
            }
        }
        assert!(mem.crashed(), "plan at op {crash_op} never fired");

        // Recover from the durable view (what a crash leaves on disk).
        let recovered_service = ValidationService::open(durable_config(&mem.crashed_view()))
            .unwrap_or_else(|e| panic!("crash at op {crash_op}: recovery refused to start: {e}"));
        let recovered = state_of(&recovered_service);
        let best = references.iter().rposition(|s| *s == recovered);
        let best = best.unwrap_or_else(|| {
            panic!("crash at op {crash_op}: recovered state matches no sequential prefix")
        });
        assert!(
            best >= acked,
            "crash at op {crash_op}: {acked} ops acknowledged but recovery holds only {best}"
        );
        let d = recovered_service.durability().expect("durable mode is on");
        assert_eq!(
            d.quarantined_files, 0,
            "crash at op {crash_op}: a pure crash must never corrupt a referenced file"
        );
        assert_eq!(
            d.skipped_records, 0,
            "crash at op {crash_op}: every replayed record must decode"
        );
    }
}

#[test]
fn corrupt_shard_is_quarantined_not_fatal() {
    let mem = MemStorage::new();
    let service = ValidationService::open(durable_config(&mem)).unwrap();
    service.ingest(&lake(85, 25)).unwrap();
    service.infer_rule("q/ids", &dates(2), None).unwrap();
    service.persist().unwrap();
    assert!(service.durability().unwrap().checkpoint_generation >= 1);
    drop(service);

    let files = mem.list(Path::new("/data")).unwrap();
    let shard = files
        .iter()
        .find(|f| f.starts_with("shard-") && f.ends_with(".avsh"))
        .expect("checkpoint must have written shard files")
        .clone();
    mem.corrupt(&Path::new("/data").join(&shard), 12);

    // Recovery starts anyway: the corrupt shard is quarantined (its
    // patterns are lost until re-ingested), everything else survives.
    let reopened = ValidationService::open(durable_config(&mem)).unwrap();
    let d = reopened.durability().unwrap();
    assert!(d.quarantined_files >= 1, "corruption must be quarantined");
    assert!(reopened.rule("q/ids").is_ok(), "catalog must survive");
    let quarantined = mem.list(&Path::new("/data").join("quarantine")).unwrap();
    assert!(
        quarantined.iter().any(|f| f == &shard),
        "corrupt file must be moved to quarantine/, got {quarantined:?}"
    );
}

/// Every path under `dir`, relative and sorted: directories too, so an
/// empty directory created under it shows.
fn listing(dir: &Path) -> Vec<PathBuf> {
    let mut paths = Vec::new();
    let mut todo = vec![dir.to_path_buf()];
    while let Some(at) = todo.pop() {
        for entry in std::fs::read_dir(&at).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                todo.push(path.clone());
            }
            paths.push(path.strip_prefix(dir).unwrap().to_path_buf());
        }
    }
    paths.sort();
    paths
}

/// A directory whose one manifest is damaged is refused, and the refusal
/// leaves the directory as it was: no `wal/` or anything else is created
/// before recovery has read what exists.
#[test]
fn refused_open_leaves_the_directory_as_it_found_it() {
    let dir = std::env::temp_dir().join(format!("av_crash_refused_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = av_durable::Manifest {
        generation: 1,
        last_lsn: 0,
        num_columns: 0,
        tau: 0,
        shard_bits: 0,
        catalog_file: String::new(),
        catalog_crc: 0,
        catalog_bytes: 0,
        shards: Vec::new(),
    };
    let mut bytes = manifest.to_bytes();
    bytes[20] ^= 0x40;
    let name = av_durable::Manifest::file_name(1);
    std::fs::write(dir.join(&name), bytes).unwrap();
    let before = listing(&dir);
    assert_eq!(before, [PathBuf::from(&name)]);

    let err = match ValidationService::open(ServiceConfig::durable(&dir)) {
        Ok(_) => panic!("a damaged manifest must not open"),
        Err(e) => e,
    };
    assert_eq!(listing(&dir), before);
    assert_eq!(
        err.to_string(),
        "durability failure: corrupt durability file manifest-0000000000000001.avman at byte 64: \
         crc32 mismatch: stored 361131bf, computed bcb10eb1, and no older manifest verifies"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery replays the log since the last checkpoint — which the
/// auto-checkpoint trigger keeps within one checkpoint image — not the
/// history.
#[test]
fn recovery_replays_only_records_since_checkpoint() {
    let mem = MemStorage::new();
    let config = durable_config(&mem);
    let service = ValidationService::open(config.clone()).unwrap();
    for i in 0..12u32 {
        let values: Vec<String> = (0..6).map(|v| format!("r{i}-{v:03}")).collect();
        service
            .ingest(&[owned_column(&format!("col-{i}"), values)])
            .unwrap();
    }
    let live = service.durability().unwrap();
    assert!(live.checkpoints_completed >= 2, "{live:?}");
    assert!(live.records_since_checkpoint > 0, "{live:?}");
    drop(service);

    let reopened = ValidationService::open(config).unwrap();
    let d = reopened.durability().unwrap();
    assert_eq!(d.checkpoint_generation, live.checkpoint_generation, "{d:?}");
    assert_eq!(
        d.replayed_records, live.records_since_checkpoint,
        "recovery must replay exactly the records since the checkpoint: {d:?}"
    );
    // Replayed records count as logged, against the recovered image.
    assert_eq!(
        d.wal_bytes_since_checkpoint,
        live.wal_bytes_since_checkpoint
    );
    assert_eq!(d.checkpoint_image_bytes, live.checkpoint_image_bytes);
    assert!(
        d.wal_bytes_since_checkpoint <= d.checkpoint_image_bytes,
        "replayed payload bytes must stay within the recovered image: {d:?}"
    );
}

/// A damaged newest manifest is passed over for the one before it, and
/// `durability` says so: the reopened service counts the skipped
/// generation instead of reading every loss counter 0. Nothing is lost:
/// the WAL since the older generation's watermark is still there, so
/// recovery replays forward to every acknowledged rule.
#[test]
fn a_skipped_manifest_is_counted() {
    let mem = MemStorage::new();
    let config = durable_config(&mem);
    let service = ValidationService::open(config.clone()).unwrap();
    service.ingest(&lake(85, 25)).unwrap();
    service.infer_rule("a", &dates(1), None).unwrap();
    service.persist().unwrap();
    service.infer_rule("b", &dates(2), None).unwrap();
    service.persist().unwrap();
    service.infer_rule("c", &dates(3), None).unwrap();
    let newest = service.durability().unwrap().checkpoint_generation;
    drop(service);

    let dir = Path::new("/data");
    let manifest = dir.join(av_durable::Manifest::file_name(newest));
    mem.corrupt(&manifest, 20);
    let reopened = ValidationService::open(config).unwrap();
    let d = reopened.durability().unwrap();
    assert_eq!(d.checkpoint_generation, newest - 1, "{d:?}");
    assert_eq!(d.skipped_manifests, 1, "{d:?}");
    let names: Vec<String> = reopened
        .catalog_entries()
        .into_iter()
        .map(|entry| entry.name)
        .collect();
    assert_eq!(names, ["a", "b", "c"], "{d:?}");
}

/// Every path under `dir` with its bytes (`None` for a directory).
fn contents(dir: &Path) -> Vec<(PathBuf, Option<Vec<u8>>)> {
    listing(dir)
        .into_iter()
        .map(|path| {
            let bytes = std::fs::read(dir.join(&path)).ok();
            (path, bytes)
        })
        .collect()
}

/// When manifests exist but none verifies, `open` refuses with a
/// `Corrupt` error naming the newest one, instead of starting empty as if
/// the directory had never been checkpointed; the refusal leaves every
/// path and byte as it was.
#[test]
fn a_directory_where_no_manifest_verifies_is_refused() {
    let dir = std::env::temp_dir().join(format!("av_crash_no_manifest_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut config = ServiceConfig::durable(&dir);
    config.rule_clock_unix = Some(CLOCK);
    let service = ValidationService::open(config.clone()).unwrap();
    service.ingest(&lake(85, 25)).unwrap();
    service.infer_rule("a", &dates(1), None).unwrap();
    service.persist().unwrap();
    service.infer_rule("b", &dates(2), None).unwrap();
    service.persist().unwrap();
    let newest = service.durability().unwrap().checkpoint_generation;
    drop(service);

    let mut manifests = 0;
    for path in listing(&dir) {
        let is_manifest = path.extension().is_some_and(|ext| ext == "avman");
        if is_manifest {
            let mut bytes = std::fs::read(dir.join(&path)).unwrap();
            bytes[20] ^= 0x40;
            std::fs::write(dir.join(&path), bytes).unwrap();
            manifests += 1;
        }
    }
    assert_eq!(manifests, 2, "{:?}", listing(&dir));
    let before = contents(&dir);

    let err = match ValidationService::open(config) {
        Ok(service) => panic!(
            "no manifest verifies, yet open started with {} rules and {:?}",
            service.catalog_entries().len(),
            service.durability()
        ),
        Err(e) => e,
    };
    match err {
        ServiceError::Durable(DurableError::Corrupt { file, .. }) => {
            assert_eq!(file, av_durable::Manifest::file_name(newest))
        }
        other => panic!("expected a Corrupt error, got {other:?}"),
    }
    assert!(
        contents(&dir) == before,
        "the refusal changed the directory"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Shard indices whose checkpoint file was written at `generation`
/// (`shard-<index>-g<generation>.avsh`).
fn shards_written_at(mem: &MemStorage, generation: u64) -> Vec<usize> {
    let suffix = format!("-g{generation:016x}.avsh");
    let mut shards: Vec<usize> = mem
        .list(Path::new("/data"))
        .unwrap()
        .iter()
        .filter_map(|name| name.strip_prefix("shard-")?.strip_suffix(suffix.as_str()))
        .map(|index| usize::from_str_radix(index, 16).unwrap())
        .collect();
    shards.sort_unstable();
    shards
}

/// Where each live shard is allocated. The snapshot is gone when this
/// returns, so reading the addresses shares nothing.
fn shard_addresses(service: &ValidationService) -> Vec<*const av_index::IndexShard> {
    service
        .snapshot()
        .shards()
        .iter()
        .map(Arc::as_ptr)
        .collect()
}

/// Ingests merge in place, and the incremental checkpoint decides what to
/// rewrite by shard pointer — sound only because a shard the checkpoint
/// base still points to is shared, so the first ingest after a checkpoint
/// copies it, and only the copy is written in place from then on.
#[test]
fn in_place_ingests_between_checkpoints_are_all_checkpointed() {
    let mem = MemStorage::new();
    let mut config = durable_config(&mem);
    let narrow = |name: &str| vec![owned_column(name, vec!["WORD".to_string(); 30])];
    let ops = [
        Op::Ingest(lake(85, 25)),
        Op::Infer("feeds/date", dates(1)),
        Op::Persist,
        Op::Ingest(narrow("first")),
        Op::Ingest(narrow("again")),
        Op::Persist,
        Op::Persist,
    ];

    let service = ValidationService::open(config.clone()).unwrap();
    let shard_count = service.snapshot().shard_count();
    let mut addresses = vec![shard_addresses(&service)];
    let mut copied = vec![0];
    // (op index, shards written) per checkpoint, automatic or not.
    let mut checkpointed = Vec::new();
    for (k, op) in ops.iter().enumerate() {
        apply(&service, op).unwrap();
        addresses.push(shard_addresses(&service));
        copied.push(service.stats().index_shards_copied);
        let generation = service.durability().unwrap().checkpoint_generation;
        if generation > checkpointed.len() as u64 {
            // Read now: a later checkpoint collects files it superseded.
            checkpointed.push((k, shards_written_at(&mem, generation)));
        }
    }
    let moved = |from: usize, to: usize| -> Vec<usize> {
        (0..shard_count)
            .filter(|&i| addresses[from][i] != addresses[to][i])
            .collect()
    };

    // The lake's ingest checkpointed on its own — its log outweighed the
    // empty directory's zero-byte image — and wrote every shard; the
    // persist after the infer had only the catalog to write. The narrow
    // ingests log far less than the image, so only the persists after
    // them checkpoint.
    let at: Vec<usize> = checkpointed.iter().map(|(k, _)| *k).collect();
    assert_eq!(at, [0, 2, 5, 6]);
    assert_eq!(checkpointed[0].1.len(), shard_count);
    assert_eq!(checkpointed[1].1, Vec::<usize>::new());
    // The first narrow ingest found its shards shared with the
    // checkpoint's base and copied them; the second landed in the same
    // shards and moved nothing.
    let touched = moved(3, 4);
    assert!(!touched.is_empty() && touched.len() < shard_count / 2);
    assert_eq!(copied[4] - copied[3], touched.len() as u64);
    assert_eq!(
        moved(4, 5),
        Vec::<usize>::new(),
        "second ingest was not in place"
    );
    assert_eq!(copied[5], copied[4]);
    // The next persist rewrote exactly those shards, the last one none.
    assert_eq!(checkpointed[2].1, touched);
    assert_eq!(checkpointed[3].1, Vec::<usize>::new());
    drop(service);

    // Unclean stop: reopen from what an fsync-honest disk holds.
    config.storage = Arc::new(mem.crashed_view());
    let recovered = ValidationService::open(config).unwrap();
    assert_eq!(recovered.durability().unwrap().replayed_records, 0);
    let oracle = ValidationService::new(ServiceConfig {
        rule_clock_unix: Some(CLOCK),
        ..ServiceConfig::default()
    });
    for op in ops.iter().filter(|op| !matches!(op, Op::Persist)) {
        apply(&oracle, op).unwrap();
    }
    assert_eq!(
        recovered.snapshot().content_digest(),
        oracle.snapshot().content_digest()
    );
    assert_eq!(state_of(&recovered), state_of(&oracle));
}

/// FNV-1a over `bytes`, folded into `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The fault-free script leaves the same files with the same bytes behind
/// (WAL segments, manifests, shard files, catalogs): a change to how the
/// service logs or checkpoints that is meant to keep the on-disk format
/// must keep this digest.
#[test]
fn fault_free_script_writes_pinned_durable_bytes() {
    let mem = MemStorage::new();
    let service = ValidationService::open(durable_config(&mem)).unwrap();
    for op in script() {
        apply(&service, &op).unwrap();
    }
    drop(service);
    let paths = mem.paths();
    let digest = paths.iter().fold(0xcbf2_9ce4_8422_2325, |h, path| {
        let h = fnv1a(h, path.to_string_lossy().as_bytes());
        fnv1a(h, &mem.read(path).unwrap())
    });
    assert_eq!(paths.len(), 135);
    assert_eq!(mem.ops_executed(), 1_263);
    assert_eq!(
        digest, 0xb42e_18bd_0fd4_869e,
        "durable bytes moved: {digest:#x}"
    );
}

/// An ingest the index refuses — its delta profiled under another τ —
/// logs nothing, as a delete of an unknown rule logs nothing: the live
/// trigger counters stay what a reopen replays.
#[test]
fn refused_ingest_logs_nothing() {
    let mem = MemStorage::new();
    let mut config = durable_config(&mem);
    config.index.tau = 13;
    let service = ValidationService::open(config.clone()).unwrap();
    service.ingest(&lake(85, 25)).unwrap();
    service.persist().unwrap();
    drop(service);

    config.index.tau = 8;
    let service = ValidationService::open(config.clone()).unwrap();
    let before = service.durability().unwrap();
    let refused = service.ingest(&lake(86, 4));
    assert!(
        matches!(refused, Err(ServiceError::Delta(_))),
        "{refused:?}"
    );
    let live = service.durability().unwrap();
    assert_eq!(
        live.wal_bytes, before.wal_bytes,
        "a refused ingest was logged"
    );
    drop(service);

    let reopened = ValidationService::open(config).unwrap();
    let d = reopened.durability().unwrap();
    assert_eq!(
        live.wal_bytes_since_checkpoint, d.wal_bytes_since_checkpoint,
        "live trigger counter {live:?} disagrees with the reopen {d:?}"
    );
    assert_eq!(d.skipped_records, 0, "{d:?}");
}
