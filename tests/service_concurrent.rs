//! Concurrency acceptance tests: N threads hammering one shared engine
//! must produce exactly the reports a sequential run produces, validation
//! must keep working (on consistent snapshots) while ingestion swaps the
//! live index underneath it, and the catalog automaton must name exactly
//! the catalog's rules after any race of writers on one rule name.

use auto_validate::prelude::*;
use av_corpus::generate_lake;
use av_service::{ServiceConfig, ServiceError, ValidationService};
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

/// Deterministic owned workload; borrowed items are built per use (the
/// service API is zero-copy and only sees `&str`).
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

/// One column to validate: a rule name and the column's values.
type Item<'a> = (&'a str, Vec<&'a str>);

fn borrow<'a>(owned: &'a [(&'static str, Vec<String>)]) -> Vec<Item<'a>> {
    owned
        .iter()
        .map(|(rule, values)| (*rule, values.iter().map(String::as_str).collect()))
        .collect()
}

fn run_sequential(
    service: &ValidationService,
    items: &[Item<'_>],
) -> Vec<Result<ValidationReport, String>> {
    items
        .iter()
        .map(|(rule, values)| service.validate(rule, values).map_err(|e| e.to_string()))
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
                            .map(|(rule, values)| {
                                service.validate(rule, values).map_err(|e| e.to_string())
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
    assert!(matches!(
        service.explain("missing", "x"),
        Err(ServiceError::UnknownRule(_))
    ));
}

/// Rounds of each catalog ≡ automaton race. A round spawns one to three
/// threads and infers a small rule once per racing thread.
const RACE_ROUNDS: usize = 2_000;

fn statuses() -> Vec<String> {
    (0..90)
        .map(|i| ["OK", "RETRY", "FAIL"][i % 3].to_string())
        .collect()
}

/// What `classify` names for `value`, as a sorted list.
fn classified(service: &ValidationService, value: &str) -> Vec<String> {
    let mut names = service.classify_value(value).matches;
    names.sort();
    names
}

/// The catalog rules whose `validate` accepts `value`, as a sorted list.
fn accepting(service: &ValidationService, value: &str) -> Vec<String> {
    let mut names: Vec<String> = service
        .catalog_entries()
        .into_iter()
        .map(|entry| entry.name)
        .filter(|name| service.validate(name, &[value]).unwrap().nonconforming == 0)
        .collect();
    names.sort();
    names
}

/// An `infer_rule` racing a `delete_rule` of the same name: whichever
/// lands last, the automaton agrees with the catalog about whether the
/// rule exists. Each round the deleter spins until its delete finds the
/// rule the inference is writing.
#[test]
fn racing_infer_and_delete_leave_the_automaton_equal_to_the_catalog() {
    let service = service_with_rules();
    let statuses = statuses();
    for round in 0..RACE_ROUNDS {
        std::thread::scope(|scope| {
            scope.spawn(|| while service.delete_rule("x").is_err() {});
            service.infer_rule("x", &statuses, None).unwrap();
        });
        assert_eq!(
            service.rule("x").is_ok(),
            classified(&service, "RETRY").contains(&"x".to_string()),
            "round {round}: catalog and automaton disagree about \"x\""
        );
    }
}

/// `infer_rule`s racing under one name with different training sets: for
/// every probe value the automaton names exactly the catalog rules whose
/// `validate` accepts it — the version of `x` it holds is the one the
/// catalog holds. The two columns differ only in their separator, so the
/// inferences cost the same and their writes overlap; four writers on two
/// cores get preempted between them.
#[test]
fn racing_inferences_of_one_name_leave_the_automaton_equal_to_the_catalog() {
    let service = service_with_rules();
    let dashed: Vec<String> = (1..=28).map(|d| format!("2022-05-{d:02}")).collect();
    let slashed: Vec<String> = (1..=28).map(|d| format!("2022/05/{d:02}")).collect();
    let probes = ["2022-06-01", "2022/06/01", "RETRY", "drift"];
    let start = std::sync::Barrier::new(4);
    for round in 0..RACE_ROUNDS {
        std::thread::scope(|scope| {
            for train in [&slashed, &dashed, &slashed] {
                let start = &start;
                let service = &service;
                scope.spawn(move || {
                    start.wait();
                    service.infer_rule("x", train, None).unwrap();
                });
            }
            start.wait();
            service.infer_rule("x", &dashed, None).unwrap();
        });
        for probe in probes {
            assert_eq!(
                classified(&service, probe),
                accepting(&service, probe),
                "round {round}, probe {probe:?}"
            );
        }
    }
}
