//! Record routing by catalog classification (run by CI).
//!
//! The catalog-automaton deployment shape: a stream of raw values arrives
//! without column labels (a tailed log, a schemaless feed), and each
//! record is routed to the catalog rule it conforms to — one `classify`
//! scan per value against the *whole* catalog, instead of trying rules
//! one by one. Everything in the chain is deterministic — the corpus is
//! seeded, inference is exact, and classification ranks matches
//! most-specific-first with name tie-breaks — so the full routing table
//! digests to a pinned constant; a mismatch means classification
//! semantics drifted silently.
//!
//! ```text
//! cargo run --release --example record_routing
//! ```

use av_corpus::{generate_lake, LakeProfile};
use av_service::{ServiceConfig, ValidationService};

/// FNV-1a over every routing decision, in stream order.
const EXPECTED_DIGEST: u64 = 0xb0ce0bfae6ed13f4;
const STREAM_LEN: usize = 400;

fn fnv1a64(digest: u64, bytes: &[u8]) -> u64 {
    let mut d = digest;
    for &b in bytes {
        d ^= b as u64;
        d = d.wrapping_mul(0x100000001b3);
    }
    d
}

/// A deterministic unlabeled record stream: dates, statuses, amounts,
/// and some values no rule claims.
fn record_stream() -> Vec<String> {
    (0..STREAM_LEN)
        .map(|i| match i % 5 {
            0 => format!("2019-{:02}-{:02}", 1 + i % 12, 1 + i % 28),
            1 => ["Delivered", "Pending", "Rejected"][i % 3].to_string(),
            2 => format!("{}.{:02}", 10 + i % 90, i % 100),
            3 => format!("2019-{:02}-{:02}", 1 + (i / 5) % 12, 1 + (i / 3) % 28),
            _ => format!("???-{i}"),
        })
        .collect()
}

fn main() {
    let service = ValidationService::new(ServiceConfig::default());
    let lake = generate_lake(&LakeProfile::tiny(), 42);
    let columns: Vec<av_corpus::Column> = lake.columns().cloned().collect();
    service.ingest(&columns).unwrap();

    let dates: Vec<String> = (1..=28).map(|d| format!("2019-03-{d:02}")).collect();
    service.infer_rule("feeds/date", &dates, None).unwrap();
    let statuses: Vec<String> = (0..60)
        .map(|i| ["Delivered", "Pending", "Rejected"][i % 3].to_string())
        .collect();
    service.infer_rule("feeds/status", &statuses, None).unwrap();
    let amounts: Vec<String> = (0..60).map(|i| format!("{}.{:02}", 10 + i, i)).collect();
    service.infer_rule("feeds/amount", &amounts, None).unwrap();

    let stream = record_stream();
    let start = std::time::Instant::now();
    let (generation, outcomes) = service.classify_batch(&stream);
    let elapsed = start.elapsed();

    let mut digest = 0xcbf29ce484222325u64;
    let mut routed: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for (value, outcome) in stream.iter().zip(&outcomes) {
        let route = outcome.best.as_deref().unwrap_or("unrouted");
        *routed.entry(route).or_default() += 1;
        digest = fnv1a64(digest, value.as_bytes());
        digest = fnv1a64(digest, b"->");
        digest = fnv1a64(digest, route.as_bytes());
    }
    for (route, count) in &routed {
        println!("{route:>14}: {count} records");
    }
    println!(
        "routed {} records in {elapsed:.1?} ({} catalog rules, generation {}), digest 0x{digest:016x}",
        stream.len(),
        service.catalog_entries().len(),
        generation,
    );

    assert!(
        routed.contains_key("feeds/date")
            && routed.contains_key("feeds/status")
            && routed.contains_key("unrouted"),
        "stream must exercise hits and misses: {routed:?}"
    );
    assert_eq!(
        digest, EXPECTED_DIGEST,
        "routing decisions drifted from the pinned stream; if classification \
         semantics changed on purpose, re-pin the digest"
    );
    println!("ok: routing table matches the pinned digest");
}
