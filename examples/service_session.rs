//! A full `av-service` session, end to end: ingest a corpus, infer and
//! persist a named rule, "restart" the service on its durable data
//! directory, reload the catalog from disk, and validate a healthy and a drifted feed — plus a demonstration
//! that incremental delta-merge equals a from-scratch rebuild exactly.
//!
//! Run with: `cargo run --example service_session`

use auto_validate::prelude::*;
use av_service::{ServiceConfig, ValidationService};

fn main() {
    let data_dir = std::env::temp_dir().join(format!("av_service_session_{}", std::process::id()));
    std::fs::remove_dir_all(&data_dir).ok();

    // ── Day 0: bring up a fresh service and ingest the initial corpus. ──
    let corpus = generate_lake(&LakeProfile::tiny(), 42);
    let day0: Vec<Column> = corpus.columns().cloned().collect();
    let service = ValidationService::open(ServiceConfig::durable(&data_dir)).unwrap();
    let report = service.ingest(&day0).unwrap();
    println!(
        "ingested {} columns -> {} distinct patterns",
        report.total_columns, report.total_patterns
    );

    // ── Infer a named rule for a recurring feed and persist everything. ──
    let march: Vec<String> = (1..=31).map(|d| format!("2019-03-{d:02}")).collect();
    let entry = service
        .infer_rule("feeds/sales.date", &march, None)
        .unwrap();
    println!("cataloged rule {:?}: {}", entry.name, entry.rule.describe());
    service.persist().unwrap();
    drop(service); // simulate a restart

    // ── Restart: rules and index come back from disk, nothing re-runs. ──
    let service = ValidationService::open(ServiceConfig::durable(&data_dir)).unwrap();
    println!(
        "reloaded: {} corpus columns, {} cataloged rules",
        service.snapshot().num_columns,
        service.catalog_entries().len()
    );

    // ── Recurring validation: next month passes, a drifted feed flags. ──
    let april: Vec<String> = (1..=30).map(|d| format!("2019-04-{d:02}")).collect();
    let drifted: Vec<String> = (0..30).map(|i| format!("user-{i}")).collect();
    let ok = service.validate("feeds/sales.date", &april).unwrap();
    let bad = service.validate("feeds/sales.date", &drifted).unwrap();
    println!(
        "april: flagged={} (p={:.3});  drifted: flagged={} ({}/{} nonconforming)",
        ok.flagged, ok.p_value, bad.flagged, bad.nonconforming, bad.checked
    );
    assert!(!ok.flagged && bad.flagged);

    // ── Incremental maintenance: a new day of corpus columns merges into
    //    the live index with statistics identical to a full rebuild. ──
    let day1: Vec<Column> = generate_lake(&LakeProfile::tiny().scaled(60), 7)
        .columns()
        .cloned()
        .collect();
    service.ingest(&day1).unwrap();

    let union: Vec<&Column> = day0.iter().chain(day1.iter()).collect();
    let rebuilt = PatternIndex::build(&union, &service.config().index);
    let live = service.snapshot();
    assert_eq!(live.num_columns, rebuilt.num_columns);
    assert_eq!(live.len(), rebuilt.len());
    let rebuilt_map: std::collections::HashMap<u64, av_index::PatternStats> =
        rebuilt.entries().collect();
    for (k, s) in live.entries() {
        let r = rebuilt_map[&k];
        assert_eq!(s.fpr.to_bits(), r.fpr.to_bits());
        assert_eq!(s.cov, r.cov);
    }
    println!(
        "incremental merge == full rebuild: {} patterns, bit-for-bit",
        live.len()
    );

    std::fs::remove_dir_all(&data_dir).ok();
}
