//! The `json_codec` group: `av_service::json::parse` and `Json::dump_into`
//! over the frame sizes the service ledger's workloads send, and one frame
//! at the default request cap.
//!
//! * `classify_45b` — a single-value `classify` (`classify_burst`).
//! * `validate_3k` — a `validate` of 270 short values (`validate_feeds`).
//! * `ingest_17k` — an `ingest` of six 250-value columns (`onboard_lake`).
//! * `one_string_1m` — a `validate` whose one value fills a 1 MiB frame.
//!
//! The figure to read is ns per byte (the group sets `Throughput::Bytes`),
//! and the thing to read it for is flatness: a codec that is linear in its
//! input costs the same per byte at 45 B and at 1 MiB. When `parse`
//! re-validated the rest of the frame at every string character this rung
//! would have read 22 → 65 → 216 → ~15 000 ns/B down the list; it did not
//! exist then, and the quadratic term went unseen behind 45-byte frames.

use av_service::json::parse;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn string_array(values: impl Iterator<Item = String>) -> String {
    let quoted: Vec<String> = values.map(|v| format!("\"{v}\"")).collect();
    format!("[{}]", quoted.join(","))
}

fn times(n: usize, salt: usize) -> impl Iterator<Item = String> {
    (0..n).map(move |i| {
        let s = i * 37 + salt;
        format!("{:02}:{:02}:{:02}", s / 3600 % 24, s / 60 % 60, s % 60)
    })
}

fn frames() -> Vec<(&'static str, String)> {
    let columns: Vec<String> = (0..6)
        .map(|c| {
            format!(
                "{{\"name\":\"table-7/col-{c}\",\"values\":{}}}",
                string_array(times(250, c))
            )
        })
        .collect();
    let head = "{\"op\":\"validate\",\"rule\":\"feeds/blob\",\"values\":[\"";
    vec![
        (
            "classify_45b",
            "{\"op\":\"classify\",\"value\":\"2019-03-14 07:45:10\"}".to_string(),
        ),
        (
            "validate_3k",
            format!(
                "{{\"op\":\"validate\",\"rule\":\"feeds/clock\",\"values\":{}}}",
                string_array(times(270, 0))
            ),
        ),
        (
            "ingest_17k",
            format!("{{\"op\":\"ingest\",\"columns\":[{}]}}", columns.join(",")),
        ),
        (
            "one_string_1m",
            format!("{head}{}\"]}}", "a".repeat((1 << 20) - head.len() - 3)),
        ),
    ]
}

fn bench_json_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("json_codec");
    let mut dumped = String::new();
    for (label, frame) in frames() {
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.sample_size(if frame.len() > 1 << 16 { 10 } else { 30 });
        group.bench_function(format!("parse/{label}"), |b| {
            b.iter(|| black_box(parse(black_box(&frame)).unwrap()))
        });
        let tree = parse(&frame).unwrap();
        group.bench_function(format!("dump_into/{label}"), |b| {
            b.iter(|| {
                black_box(&tree).dump_into(&mut dumped);
                black_box(dumped.len())
            })
        });
        assert_eq!(dumped.len(), frame.len(), "{label}: dump is not the frame");
    }
    group.finish();
}

criterion_group!(benches, bench_json_codec);
criterion_main!(benches);
