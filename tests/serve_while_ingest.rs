//! Serve-while-ingest stress: one thread applies a sequence of ingest
//! batches while validators, epoch checkers, and live TCP sessions hammer
//! the same service.
//!
//! The acceptance properties:
//!
//! * **Epoch consistency** — every index snapshot taken mid-storm equals,
//!   byte for byte, one of the sequential prefix states (the index after
//!   0, 1, …, K ingests). A torn epoch — some shards from before an
//!   ingest, some from after — would serialize to bytes matching no
//!   prefix.
//! * **Validation stability** — every validation report produced during
//!   the storm equals the sequential reference (rules are immutable
//!   catalog entries, so the swapping index must never change outcomes).
//! * **Durability** — the index the data directory reopens to after the
//!   storm equals, byte for byte, a from-scratch sequential build over all
//!   ingested columns.

use auto_validate::prelude::*;
use av_corpus::generate_lake;
use av_durable::{FaultPlan, MemStorage};
use av_index::{IndexDelta, PatternIndex};
use av_service::{response_ok, serve_tcp, ServiceConfig, ValidationService};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn lake_columns(seed: u64, scale: usize) -> Vec<Column> {
    generate_lake(&LakeProfile::tiny().scaled(scale), seed)
        .columns()
        .cloned()
        .collect()
}

/// A numeric feed: the automatic chain infers a range from it even over
/// a lake too small to hold a pattern for it.
fn amounts(shift: u32) -> Vec<String> {
    (0..40).map(|i| format!("{}.5", 10 + i + shift)).collect()
}

fn dates(month: u32) -> Vec<String> {
    (1..=28)
        .map(|d| format!("2023-{month:02}-{d:02}"))
        .collect()
}

#[test]
fn concurrent_ingest_validate_and_tcp_see_consistent_epochs() {
    let dir = std::env::temp_dir().join(format!("av_serve_while_ingest_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServiceConfig::durable(&dir);
    let initial = lake_columns(61, 60);
    let batches: Vec<Vec<Column>> = (0..4).map(|i| lake_columns(70 + i, 25)).collect();

    // Sequential prefix images: the only states a snapshot may ever show.
    // Keyed by num_columns (batch sizes make prefixes distinguishable).
    let mut expected: HashMap<u64, Vec<u8>> = HashMap::new();
    {
        let mut prefix: Vec<&Column> = initial.iter().collect();
        let first = PatternIndex::build(&prefix, &config.index);
        expected.insert(first.num_columns, first.to_bytes().to_vec());
        for batch in &batches {
            prefix.extend(batch.iter());
            let built = PatternIndex::build(&prefix, &config.index);
            expected.insert(built.num_columns, built.to_bytes().to_vec());
        }
        assert_eq!(
            expected.len(),
            batches.len() + 1,
            "prefixes distinguishable"
        );
    }

    let service = Arc::new(ValidationService::open(config.clone()).unwrap());
    service.ingest(&initial).unwrap();
    service.infer_rule("dates", &dates(1), None).unwrap();
    let reference_ok = service.validate("dates", &dates(2)).unwrap();
    let drifted: Vec<String> = (0..30).map(|i| format!("user-{i}")).collect();
    let reference_bad = service.validate("dates", &drifted).unwrap();

    let (addr_tx, addr_rx) = std::sync::mpsc::channel();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            serve_tcp(service, ("127.0.0.1", 0), move |a| {
                addr_tx.send(a).unwrap();
            })
        })
    };
    let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();
    let storm_over = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // One ingester applies the batches in order: observable states are
        // exactly the sequential prefixes.
        let ingester = {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for batch in &batches {
                    service.ingest(batch).unwrap();
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };

        // Epoch checkers: every snapshot must be bit-identical to one of
        // the precomputed prefix images — pre- or post-ingest, never torn.
        let checkers: Vec<_> = (0..3)
            .map(|_| {
                let service = Arc::clone(&service);
                let expected = &expected;
                let storm_over = Arc::clone(&storm_over);
                scope.spawn(move || {
                    let mut observed = 0usize;
                    while !storm_over.load(Ordering::Relaxed) {
                        let snap = service.snapshot();
                        let want = expected.get(&snap.num_columns).unwrap_or_else(|| {
                            panic!("unexpected epoch: {} columns", snap.num_columns)
                        });
                        assert_eq!(
                            &snap.to_bytes()[..],
                            &want[..],
                            "snapshot at {} columns is torn",
                            snap.num_columns
                        );
                        observed += 1;
                    }
                    observed
                })
            })
            .collect();

        // Validators: reports must match the pre-storm references.
        let validators: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                let reference_ok = &reference_ok;
                let reference_bad = &reference_bad;
                let storm_over = Arc::clone(&storm_over);
                scope.spawn(move || {
                    let good = dates(2);
                    let bad: Vec<String> = (0..30).map(|i| format!("user-{i}")).collect();
                    while !storm_over.load(Ordering::Relaxed) {
                        assert_eq!(&service.validate("dates", &good).unwrap(), reference_ok);
                        assert_eq!(&service.validate("dates", &bad).unwrap(), reference_bad);
                    }
                })
            })
            .collect();

        // TCP sessions keep flowing during the storm.
        let tcp_clients: Vec<_> = (0..2)
            .map(|_| {
                let storm_over = Arc::clone(&storm_over);
                scope.spawn(move || {
                    let mut sessions = 0usize;
                    while !storm_over.load(Ordering::Relaxed) {
                        let mut stream = TcpStream::connect(addr).unwrap();
                        stream
                            .write_all(
                                b"{\"op\":\"validate\",\"rule\":\"dates\",\"values\":[\"2023-02-14\"]}\n",
                            )
                            .unwrap();
                        let mut line = String::new();
                        BufReader::new(stream.try_clone().unwrap())
                            .read_line(&mut line)
                            .unwrap();
                        assert!(response_ok(&line), "{line}");
                        stream.write_all(b"{\"op\":\"stats\"}\n").unwrap();
                        let mut line2 = String::new();
                        BufReader::new(stream).read_line(&mut line2).unwrap();
                        assert!(response_ok(&line2), "{line2}");
                        sessions += 1;
                    }
                    sessions
                })
            })
            .collect();

        ingester.join().expect("ingester panicked");
        // Let the readers observe the final epoch for a moment.
        std::thread::sleep(Duration::from_millis(50));
        storm_over.store(true, Ordering::Relaxed);
        let observed: usize = checkers
            .into_iter()
            .map(|c| c.join().expect("epoch checker panicked"))
            .sum();
        assert!(observed > 0, "checkers must have sampled epochs");
        for v in validators {
            v.join().expect("validator panicked");
        }
        let sessions: usize = tcp_clients
            .into_iter()
            .map(|c| c.join().expect("tcp client panicked"))
            .sum();
        assert!(sessions > 0, "tcp clients must have completed sessions");
    });

    // Shut the server down over the wire.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    assert!(response_ok(&line));
    server.join().unwrap().unwrap();
    assert_eq!(service.stats().connection_errors, 0);

    // Durability: the index the directory reopens to after the storm
    // equals a from-scratch sequential build over everything ingested.
    let final_columns = service.snapshot().num_columns;
    let full_bytes = expected
        .get(&final_columns)
        .expect("final state is the full prefix");
    service.persist().unwrap();
    drop(service);
    let reopened = ValidationService::open(config).unwrap();
    assert_eq!(&reopened.snapshot().to_bytes()[..], &full_bytes[..]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Durable config over fault-injecting in-memory storage: small WAL
/// segments so the batches rotate the log, and a pinned rule clock so the
/// probe run and the crash run log the same bytes.
fn durable_config(mem: &MemStorage) -> ServiceConfig {
    let mut config = ServiceConfig::durable(PathBuf::from("/data"));
    config.storage = Arc::new(mem.clone());
    config.wal_segment_bytes = 4096;
    config.rule_clock_unix = Some(1_700_000_000);
    config
}

/// Kill-mid-ingest: the durable service is crashed (via fault injection)
/// halfway through the storage-op trace of its batch sequence while
/// validators hammer it from other threads. Reopening the durable view
/// must recover an index that byte-equals the sequential build over the
/// acknowledged ingest prefix (the crashing batch may legitimately round
/// up to "durable but unacknowledged"), replaying only the log since the
/// last checkpoint.
#[test]
fn killed_mid_ingest_recovers_acknowledged_prefix() {
    // The batches together outweigh the initial lake's checkpoint image,
    // so an auto-checkpoint falls inside the batch sequence.
    let initial = lake_columns(61, 16);
    let batches: Vec<Vec<Column>> = (0..6).map(|i| lake_columns(70 + i, 8)).collect();

    // Sequential prefix images under the durable config's index settings.
    let config_probe = durable_config(&MemStorage::new());
    let mut prefixes: Vec<Vec<u8>> = Vec::new();
    {
        let mut prefix: Vec<&Column> = initial.iter().collect();
        prefixes.push(
            PatternIndex::build(&prefix, &config_probe.index)
                .to_bytes()
                .to_vec(),
        );
        for batch in &batches {
            prefix.extend(batch.iter());
            prefixes.push(
                PatternIndex::build(&prefix, &config_probe.index)
                    .to_bytes()
                    .to_vec(),
            );
        }
    }

    // Fault-free run measures the storage-op trace. The initial ingest
    // checkpoints on its own (nothing was checkpointed yet, so its log
    // outweighs the empty image), the validators' rule is logged next, and
    // the batches follow it.
    let probe = MemStorage::new();
    let batches_from = {
        let service = ValidationService::open(durable_config(&probe)).unwrap();
        service.ingest(&initial).unwrap();
        service
            .infer_rule("storm/amount", &amounts(0), None)
            .unwrap();
        let batches_from = probe.ops_executed();
        for batch in &batches {
            service.ingest(batch).unwrap();
        }
        batches_from
    };
    let total_ops = probe.ops_executed();
    assert!(
        total_ops - batches_from > 10,
        "trace too short: {batches_from}..{total_ops}"
    );

    // Crash halfway through the batch sequence's trace.
    let mem = MemStorage::with_plan(FaultPlan::crash_at(
        batches_from + (total_ops - batches_from) / 2,
    ));
    let service = Arc::new(ValidationService::open(durable_config(&mem)).unwrap());
    service.ingest(&initial).unwrap();
    // The validators' rule is logged before the trace point the crash is
    // placed by, so the crash still falls inside the batch sequence.
    let rule = service
        .infer_rule("storm/amount", &amounts(0), None)
        .unwrap();
    let reference = service.validate("storm/amount", &amounts(1)).unwrap();

    let storm_over = Arc::new(AtomicBool::new(false));
    let acked = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let service = Arc::clone(&service);
                let storm_over = Arc::clone(&storm_over);
                let reference = &reference;
                scope.spawn(move || {
                    while !storm_over.load(Ordering::Relaxed) {
                        // Reads never touch storage: they must keep
                        // succeeding right through the crash.
                        let report = service.validate("storm/amount", &amounts(1)).unwrap();
                        assert_eq!(&report, reference);
                    }
                })
            })
            .collect();

        let mut acked = 0usize;
        for batch in &batches {
            match service.ingest(batch) {
                Ok(_) => acked += 1,
                Err(_) => break, // crashed mid-ingest: not acknowledged
            }
        }
        storm_over.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader panicked");
        }
        acked
    });
    assert!(mem.crashed(), "the injected crash must have fired");
    assert!(acked < batches.len(), "crash must interrupt the batch run");

    // Recover from the durable view: the index must byte-equal the
    // sequential build over initial + some prefix covering every
    // acknowledged batch.
    let recovered = ValidationService::open(durable_config(&mem.crashed_view())).unwrap();
    let bytes = recovered.snapshot().to_bytes().to_vec();
    let k = prefixes
        .iter()
        .rposition(|p| *p == bytes)
        .expect("recovered index matches no sequential prefix build");
    assert!(
        k >= acked,
        "{acked} batches acknowledged but recovery holds only {k}"
    );
    // The rule acknowledged before the storm is recovered as it was.
    let recovered_rule = recovered.rule("storm/amount").unwrap();
    assert_eq!(recovered_rule.rule.to_wire(), rule.rule.to_wire());
    assert_eq!(recovered_rule.created_unix, rule.created_unix);
    assert_eq!(
        recovered.validate("storm/amount", &amounts(1)).unwrap(),
        reference
    );

    // Recovery replays only the log since the last checkpoint, which the
    // auto-checkpoint trigger holds below one checkpoint image — plus the
    // record that crossed it, if the crash cut that checkpoint short, and
    // the torn batch that may round up to durable.
    let d = recovered.durability().expect("durable mode is on");
    let largest_record = batches
        .iter()
        .map(|batch| {
            let refs: Vec<&Column> = batch.iter().collect();
            1 + IndexDelta::profile(&refs, &config_probe.index)
                .to_bytes()
                .len() as u64
        })
        .max()
        .unwrap();
    assert!(
        d.replayed_records <= batches.len() as u64
            && d.wal_bytes_since_checkpoint < d.checkpoint_image_bytes + 2 * largest_record,
        "recovery must replay only the post-checkpoint tail: {d:?}"
    );
    assert_eq!(d.quarantined_files, 0, "{d:?}");
}
