//! Concurrency acceptance tests: N threads hammering one shared engine
//! must produce exactly the reports a sequential run produces, and
//! validation must keep working (on consistent snapshots) while ingestion
//! swaps the live index underneath it.

use auto_validate::prelude::*;
use av_corpus::generate_lake;
use av_service::{BatchItem, ServiceConfig, ServiceError, ValidationService};
use std::sync::Arc;

fn lake_columns(seed: u64, scale: usize) -> Vec<Column> {
    generate_lake(&LakeProfile::tiny().scaled(scale), seed)
        .columns()
        .cloned()
        .collect()
}

fn service_with_rules() -> ValidationService {
    let service = ValidationService::new(ServiceConfig::default());
    service.ingest(&lake_columns(13, 100)).unwrap();
    let dates: Vec<String> = (1..=28).map(|d| format!("2022-05-{d:02}")).collect();
    service.infer_rule("dates", &dates, None).unwrap();
    let times: Vec<String> = (0..60)
        .map(|i| format!("{:02}:{:02}:{:02}", i % 24, i, i))
        .collect();
    service.infer_rule("times", &times, None).unwrap();
    let statuses: Vec<String> = (0..90)
        .map(|i| ["OK", "RETRY", "FAIL"][i % 3].to_string())
        .collect();
    service.infer_rule("statuses", &statuses, None).unwrap();
    service
}

/// Deterministic owned workload; borrowed `BatchItem`s are built per use
/// (the service API is zero-copy and only sees `&str`).
fn workload(n: usize) -> Vec<(&'static str, Vec<String>)> {
    (0..n)
        .map(|i| {
            let rule = ["dates", "times", "statuses", "missing"][i % 4];
            let values: Vec<String> = match i % 3 {
                0 => (1..=25).map(|d| format!("2022-06-{d:02}")).collect(),
                1 => (0..25)
                    .map(|j| format!("{:02}:{:02}:{:02}", j % 24, j, j))
                    .collect(),
                _ => (0..25).map(|j| format!("drift-{i}-{j}")).collect(),
            };
            (rule, values)
        })
        .collect()
}

fn borrow<'a>(owned: &'a [(&'static str, Vec<String>)]) -> Vec<BatchItem<'a>> {
    owned
        .iter()
        .map(|(rule, values)| BatchItem {
            rule,
            values: values.iter().map(String::as_str).collect(),
        })
        .collect()
}

fn run_sequential(
    service: &ValidationService,
    items: &[BatchItem<'_>],
) -> Vec<Result<ValidationReport, String>> {
    items
        .iter()
        .map(|it| {
            service
                .validate(it.rule, &it.values)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// N OS threads each validating their own slice of the workload against
/// one shared service must reproduce the sequential reports exactly.
#[test]
fn threads_sharing_one_engine_match_sequential() {
    let service = Arc::new(service_with_rules());
    let owned = workload(64);
    let items = borrow(&owned);
    let expected = run_sequential(&service, &items);

    for threads in [2usize, 4, 8] {
        let chunk = items.len().div_ceil(threads);
        let results: Vec<Result<ValidationReport, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|slice| {
                    let service = Arc::clone(&service);
                    scope.spawn(move || {
                        slice
                            .iter()
                            .map(|it| {
                                service
                                    .validate(it.rule, &it.values)
                                    .map_err(|e| e.to_string())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        assert_eq!(results.len(), expected.len());
        for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
            assert_eq!(got, want, "thread-count {threads}, item {i}");
        }
    }
}

/// The built-in worker-pool batch API is also exactly sequential-equivalent
/// — for a batch small enough that the calling thread validates it alone
/// (1 200 values) and for one it calls helper threads for (20 000).
#[test]
fn worker_pool_batch_matches_sequential() {
    let service = service_with_rules();
    for n in [48, 800] {
        let owned = workload(n);
        let items = borrow(&owned);
        let expected = run_sequential(&service, &items);
        let batched: Vec<Result<ValidationReport, String>> = service
            .validate_batch(&items)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect();
        assert_eq!(batched, expected);
    }
}

/// Validators keep producing consistent reports while another thread
/// ingests new corpus batches: rules are immutable catalog entries, so a
/// concurrent index swap never changes a validation outcome.
#[test]
fn validation_is_stable_under_concurrent_ingest() {
    let service = Arc::new(service_with_rules());
    let owned = workload(24);
    let expected = run_sequential(&service, &borrow(&owned));

    let ingester = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            for seed in 0..4 {
                service.ingest(&lake_columns(100 + seed, 40)).unwrap();
            }
        })
    };
    let validators: Vec<_> = (0..4)
        .map(|_| {
            let service = Arc::clone(&service);
            // The workload is deterministic: each thread regenerates and
            // borrows its own copy (items are non-'static by design).
            std::thread::spawn(move || {
                let owned = workload(24);
                run_sequential(&service, &borrow(&owned))
            })
        })
        .collect();
    for v in validators {
        assert_eq!(v.join().expect("validator panicked"), expected);
    }
    ingester.join().expect("ingester panicked");
    assert!(service.snapshot().num_columns > 100);
}

/// Unknown rules error identically from every access path.
#[test]
fn unknown_rule_is_an_error_not_a_panic() {
    let service = service_with_rules();
    assert!(matches!(
        service.validate("missing", &["x"]),
        Err(ServiceError::UnknownRule(_))
    ));
    let batch = service.validate_batch(&[BatchItem {
        rule: "missing",
        values: vec!["x"],
    }]);
    assert!(matches!(&batch[0], Err(ServiceError::UnknownRule(_))));
}
