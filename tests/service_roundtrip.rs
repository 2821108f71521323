//! End-to-end acceptance tests for the validation service: the persist →
//! restart → reload → validate lifecycle, incremental delta-merge
//! equivalence with full rebuilds, and a complete `av-serve` protocol
//! session driven through the real serve loop.

use auto_validate::prelude::*;
use av_corpus::generate_lake;
use av_service::{serve_lines, ServiceConfig, ValidationService};
use std::collections::HashMap;
use std::io::Cursor;

fn lake_columns(seed: u64, scale: usize) -> Vec<Column> {
    generate_lake(&LakeProfile::tiny().scaled(scale), seed)
        .columns()
        .cloned()
        .collect()
}

fn month(m: u32) -> Vec<String> {
    (1..=28).map(|d| format!("2021-{m:02}-{d:02}")).collect()
}

fn assert_index_bitwise_equal(a: &PatternIndex, b: &PatternIndex) {
    assert_eq!(a.num_columns, b.num_columns);
    assert_eq!(a.tau, b.tau);
    assert_eq!(a.len(), b.len());
    let bm: HashMap<u64, av_index::PatternStats> = b.entries().collect();
    for (k, s) in a.entries() {
        let t = bm.get(&k).expect("pattern present in both indexes");
        assert_eq!(s.fpr.to_bits(), t.fpr.to_bits(), "fpr differs for {k}");
        assert_eq!(s.cov, t.cov, "coverage differs for {k}");
        assert_eq!(s.token_len, t.token_len);
    }
}

/// The headline acceptance path: ingest → infer + persist a named rule →
/// restart → reload catalog → validate a drifted batch and flag it.
#[test]
fn service_lifecycle_survives_restart() {
    let dir = std::env::temp_dir().join(format!("av_lifecycle_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServiceConfig::durable(&dir);

    {
        let service = ValidationService::open(config.clone()).unwrap();
        service.ingest(&lake_columns(42, 100)).unwrap();
        service.infer_rule("feeds/date", &month(1), None).unwrap();
        service.persist().unwrap();
    } // service drops: restart boundary

    let service = ValidationService::open(config).unwrap();
    assert_eq!(service.catalog_entries().len(), 1, "catalog reloaded");
    assert!(service.snapshot().num_columns > 0, "index reloaded");

    let healthy = service.validate("feeds/date", &month(2)).unwrap();
    assert!(!healthy.flagged, "same-domain feed must pass");
    let drifted: Vec<String> = (0..40).map(|i| format!("uuid-{i}-x")).collect();
    let flagged = service.validate("feeds/date", &drifted).unwrap();
    assert!(flagged.flagged, "drifted feed must be flagged");
    std::fs::remove_dir_all(&dir).ok();
}

/// Persist → reload → merge: a reloaded index keeps merging deltas with
/// statistics bit-for-bit identical to a from-scratch build on the union.
#[test]
fn persist_reload_merge_roundtrip_is_exact() {
    let dir = std::env::temp_dir().join(format!("av_reload_merge_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.avix");

    let day0 = lake_columns(3, 90);
    let day1 = lake_columns(4, 70);
    let refs0: Vec<&Column> = day0.iter().collect();
    let refs1: Vec<&Column> = day1.iter().collect();
    let union: Vec<&Column> = refs0.iter().chain(refs1.iter()).copied().collect();
    let config = IndexConfig::default();

    // Build day0, persist, reload, then merge day1 into the *reloaded* copy.
    let original = PatternIndex::build(&refs0, &config);
    original.save(&path).unwrap();
    let mut reloaded = PatternIndex::load(&path).unwrap();
    assert_index_bitwise_equal(&original, &reloaded);
    reloaded
        .merge_delta(av_index::IndexDelta::profile(&refs1, &config))
        .unwrap();

    let rebuilt = PatternIndex::build(&union, &config);
    assert_index_bitwise_equal(&rebuilt, &reloaded);
    std::fs::remove_file(&path).ok();
}

/// Deltas can arrive in many small batches, in any order, on any thread
/// count — the result never deviates from the bulk build.
#[test]
fn many_small_deltas_equal_one_bulk_build() {
    let all = lake_columns(11, 120);
    let config = IndexConfig::default();
    let refs: Vec<&Column> = all.iter().collect();
    let bulk = PatternIndex::build(&refs, &config);

    let mut incremental = PatternIndex::build(&[], &config);
    for chunk in all.chunks(7) {
        let chunk_refs: Vec<&Column> = chunk.iter().collect();
        incremental
            .merge_delta(av_index::IndexDelta::profile(&chunk_refs, &config))
            .unwrap();
    }
    assert_index_bitwise_equal(&bulk, &incremental);
}

/// Drive the real serve loop through a full JSONL session including a
/// simulated restart, exercising the whole binary code path short of
/// process spawning.
#[test]
fn av_serve_protocol_session_end_to_end() {
    let dir = std::env::temp_dir().join(format!("av_protocol_session_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServiceConfig::durable(&dir);

    // Quote through the service's own JSON writer — `{:?}` is not JSON
    // (it escapes non-ASCII as `\u{..}`).
    let q = |s: &str| av_service::json::Json::str(s).dump();
    let ingest_cols: Vec<String> = lake_columns(9, 80)
        .iter()
        .map(|c| {
            let values: Vec<String> = c.values.iter().map(|v| q(v)).collect();
            format!(
                r#"{{"name":{},"values":[{}]}}"#,
                q(&c.name),
                values.join(",")
            )
        })
        .collect();
    let train: Vec<String> = month(3).iter().map(|v| q(v)).collect();

    // Session 1: ingest the corpus, infer + persist a named rule.
    let session1 = format!(
        "{}\n{}\n{}\n",
        format_args!(r#"{{"op":"ingest","columns":[{}]}}"#, ingest_cols.join(",")),
        format_args!(
            r#"{{"op":"infer","rule":"feeds/date","values":[{}],"variant":"vh"}}"#,
            train.join(",")
        ),
        r#"{"op":"persist"}"#,
    );
    let service1 = ValidationService::open(config.clone()).unwrap();
    let mut out1 = Vec::new();
    serve_lines(&service1, Cursor::new(session1), &mut out1).unwrap();
    let text1 = String::from_utf8(out1).unwrap();
    for line in text1.lines() {
        assert!(av_service::response_ok(line), "session 1 failed: {line}");
    }
    drop(service1); // restart boundary

    // Session 2: a fresh process reloads state and validates feeds.
    let good: Vec<String> = month(4).iter().map(|v| format!("{v:?}")).collect();
    let bad: Vec<String> = (0..30).map(|i| format!("\"user-{i}\"")).collect();
    let session2 = format!(
        "{}\n{}\n{}\n{}\n{}\n",
        r#"{"op":"catalog"}"#,
        format_args!(
            r#"{{"op":"validate","rule":"feeds/date","values":[{}]}}"#,
            good.join(",")
        ),
        format_args!(
            r#"{{"op":"validate","rule":"feeds/date","values":[{}]}}"#,
            bad.join(",")
        ),
        r#"{"op":"classify","values":["2019-04-07","user-3"]}"#,
        r#"{"op":"shutdown"}"#,
    );
    let service2 = ValidationService::open(config).unwrap();
    let mut out2 = Vec::new();
    serve_lines(&service2, Cursor::new(session2), &mut out2).unwrap();
    let lines: Vec<String> = String::from_utf8(out2)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 5);
    assert!(
        lines.iter().all(|l| av_service::response_ok(l)),
        "{lines:?}"
    );
    assert!(
        lines[0].contains("\"feeds/date\""),
        "catalog must list the reloaded rule: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"flagged\":false"),
        "healthy feed passes: {}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"flagged\":true"),
        "drifted feed is flagged: {}",
        lines[2]
    );
    assert!(
        lines[3].contains("\"best\":\"feeds/date\""),
        "the reloaded catalog classifies a date in one scan: {}",
        lines[3]
    );
    assert!(service2.is_shutdown());
    std::fs::remove_dir_all(&dir).ok();
}
