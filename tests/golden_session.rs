//! Golden wire transcript: one fixed JSONL session through `handle_line`,
//! compared byte-for-byte with `tests/golden/session.transcript`.
//!
//! This is the referee for request-path and matcher refactors: any change
//! to a response byte — field order, float formatting, an explanation's
//! span, an error message — fails here and must be blessed on purpose
//! (`AV_BLESS=1 cargo test --test golden_session`). The rule clock and the
//! telemetry window are pinned; `metrics` has its timing members masked,
//! and `watch` is pinned up to its acknowledgement (streaming frames is the
//! serve loops' job). An op is one row, one handler, one golden frame: the
//! session ends on a `stats` whose `ops` must name every slot of
//! [`av_service::telemetry::OPS`], so a new op without a frame here fails.

use av_corpus::{generate_lake, LakeProfile};
use av_service::json::Json;
use av_service::telemetry::OPS;
use av_service::{handle_line, ServiceConfig, TelemetryConfig, ValidationService};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/session.transcript"
);

/// Requests longer than this are abbreviated in the transcript to a prefix
/// plus length and FNV-1a hash, which still pins every byte of the script.
const REQUEST_ECHO_LIMIT: usize = 200;

fn string_array<S: AsRef<str>>(values: &[S]) -> String {
    Json::Arr(values.iter().map(|v| Json::str(v.as_ref())).collect()).dump()
}

/// The fixed script. Every line is a function of constants and the
/// fixed-seed lake only.
fn script() -> Vec<String> {
    let mut lines = Vec::new();

    // Ingest a fixed-seed tiny lake, 50 columns per frame.
    let lake = generate_lake(&LakeProfile::tiny(), 19);
    let columns: Vec<&av_corpus::Column> = lake.columns().collect();
    for chunk in columns.chunks(50) {
        let cols: Vec<String> = chunk
            .iter()
            .map(|c| {
                format!(
                    r#"{{"name":{},"values":{}}}"#,
                    Json::str(c.name.as_str()).dump(),
                    string_array(&c.values)
                )
            })
            .collect();
        lines.push(format!(
            r#"{{"op":"ingest","columns":[{}]}}"#,
            cols.join(",")
        ));
    }

    // Three rule kinds through the automatic fallback chain, and a forced
    // variant whose program has four variadic scans.
    let dates = |month: u32| -> Vec<String> {
        (1..=28)
            .map(|d| format!("2019-{month:02}-{d:02}"))
            .collect()
    };
    let statuses: Vec<&str> = (0..60)
        .map(|i| ["Delivered", "Pending", "Rejected"][i % 3])
        .collect();
    let amounts: Vec<String> = (0..40)
        .map(|i| {
            if i % 2 == 0 {
                format!("{}", 10 + i * 3)
            } else {
                format!("{}.{}", 5 + i, i % 10)
            }
        })
        .collect();
    let ips: Vec<String> = (0..40)
        .map(|i| format!("10.{}.{}.{}", i * 6, (i * 37) % 256, 1 + i % 9))
        .collect();
    lines.push(format!(
        r#"{{"op":"infer","rule":"dates","values":{}}}"#,
        string_array(&dates(3))
    ));
    lines.push(format!(
        r#"{{"op":"infer","rule":"status","values":{}}}"#,
        string_array(&statuses)
    ));
    lines.push(format!(
        r#"{{"op":"infer","rule":"amount","values":{}}}"#,
        string_array(&amounts)
    ));
    lines.push(format!(
        r#"{{"op":"infer","rule":"ips","variant":"vh","values":{}}}"#,
        string_array(&ips)
    ));

    // The recurring check: healthy, drifted, partially dirty, empty.
    lines.push(format!(
        r#"{{"op":"validate","rule":"dates","values":{}}}"#,
        string_array(&dates(4))
    ));
    lines.push(
        r#"{"op":"validate","rule":"dates","values":["user-1","user-2","user-3","2019-04-01"]}"#
            .to_string(),
    );
    lines.push(format!(
        r#"{{"op":"validate","rule":"ips","values":{}}}"#,
        string_array(&ips[..20])
    ));
    lines.push(
        r#"{"op":"validate","rule":"status","values":["Pending","Lost","Delivered"]}"#.into(),
    );
    lines.push(r#"{"op":"validate","rule":"amount","values":["12","99.5","-4","n/a"]}"#.into());
    lines.push(r#"{"op":"validate","rule":"dates","values":[]}"#.into());

    lines.push(
        r#"{"op":"classify","values":["2019-03-14","Pending","172.16.254.1","42","!!!","2019-03-1é"]}"#
            .into(),
    );
    lines.push(r#"{"op":"classify","value":"Rejected"}"#.into());
    lines.push(r#"{"op":"classify","value":"a\"b\\c\/\u00e9\ud83d\ude00\n\té"}"#.into());

    // explain: conforming, non-conforming (each rule kind), multi-byte
    // values, the empty value.
    for (rule, value) in [
        ("dates", "2019-03-14"),
        ("dates", "Pending"),
        ("dates", "2019-03-1"),
        ("dates", "2019-03-14 "),
        ("dates", "2019-03-1é"),
        ("dates", "２０１９-03-14"),
        ("dates", ""),
        ("ips", "172.16.254.1"),
        ("ips", "172.16.254"),
        ("ips", "172.16..1"),
        ("ips", "172.16.254.1/24"),
        ("ips", "172.16.254.é"),
        ("status", "Pending"),
        ("status", "Pendin"),
        ("status", "наложенный"),
        ("amount", "17.5"),
        ("amount", "1e99"),
        ("amount", "seventeen"),
    ] {
        lines.push(format!(
            r#"{{"op":"explain","rule":{},"value":{}}}"#,
            Json::str(rule).dump(),
            Json::str(value).dump()
        ));
    }

    lines.push(r#"{"op":"rule","name":"dates"}"#.into());
    lines.push(r#"{"op":"rule","name":"ips"}"#.into());
    lines.push(r#"{"op":"rule","name":"status"}"#.into());
    lines.push(r#"{"op":"rule","name":"amount"}"#.into());
    lines.push(r#"{"op":"catalog"}"#.into());
    lines.push(r#"{"op":"delete_rule","name":"status"}"#.into());
    lines.push(r#"{"op":"delete_rule","name":"status"}"#.into());
    lines.push(r#"{"op":"validate","rule":"status","values":["Pending"]}"#.into());
    lines.push(r#"{"op":"classify","value":"Pending"}"#.into());
    lines.push(r#"{"op":"catalog"}"#.into());
    lines.push(r#"{"op":"ping"}"#.into());
    lines.push(r#"{"op":"persist"}"#.into());

    // Malformed frames.
    for bad in [
        "not json",
        "",
        "{}",
        "[1,2",
        r#"{"op":"validate","rule":"dates","values":["unterminated]}"#,
        r#"{"op":"validate","rule":"dates","values":["bad \q escape"]}"#,
        r#"{"op":"validate","rule":"dates","values":["\ud800 lone"]}"#,
        r#"{"op":"validate","rule":"dates","values":["é\u12"]}"#,
        r#"{"op":"validate","rule":"dates","values":["日本\udc00"]}"#,
        r#"{"op":"ping"} trailing"#,
        r#"{"op":7}"#,
        r#"{"op":"nope"}"#,
        r#"{"op":"validate"}"#,
        r#"{"op":"validate","rule":"dates"}"#,
        r#"{"op":"validate","rule":"dates","values":[1,2]}"#,
        r#"{"op":"infer","rule":"r","values":["a"],"variant":"banana"}"#,
        r#"{"op":"infer","rule":"r","values":[]}"#,
        r#"{"op":"ingest"}"#,
        r#"{"op":"ingest","columns":[{"values":[3]}]}"#,
        r#"{"op":"explain","rule":"dates"}"#,
        r#"{"op":"explain","rule":"missing","value":"x"}"#,
        r#"{"op":"classify"}"#,
        r#"{"op":"rule"}"#,
    ] {
        lines.push(bad.to_string());
    }
    lines.push(r#"{"op":"shutdown"}"#.into());

    // The observability ops (a handled `shutdown` only sets a flag the serve
    // loops read, so the session goes on): the `watch` acknowledgement and
    // its three parameter errors, `stats` twice — a reply is built before
    // its own frame is counted, so the last one names every op —, `metrics`.
    lines.push(r#"{"op":"watch","interval_ms":50,"frames":3,"rules":["dates"]}"#.into());
    lines.push(r#"{"op":"watch"}"#.into());
    lines.push(r#"{"op":"watch","interval_ms":1}"#.into());
    lines.push(r#"{"op":"watch","frames":0}"#.into());
    lines.push(r#"{"op":"watch","rules":[1]}"#.into());
    lines.push(r#"{"op":"stats"}"#.into());
    lines.push(r#"{"op":"metrics"}"#.into());
    lines.push(r#"{"op":"stats"}"#.into());
    lines
}

/// Replace every timing-bearing member of a `metrics` reply (`latency_*`,
/// `mean_micros`) with `"*"`: the field set and the order of `ops` stay
/// pinned, the microseconds do not.
fn mask_timings(v: &mut Json) {
    match v {
        Json::Obj(members) => {
            for (key, member) in members.iter_mut() {
                if key.starts_with("latency_") || key == "mean_micros" {
                    *member = Json::str("*");
                } else {
                    mask_timings(member);
                }
            }
        }
        Json::Arr(items) => items.iter_mut().for_each(mask_timings),
        _ => {}
    }
}

fn transcript() -> String {
    // An hour-wide telemetry bucket: no window count can age out mid-run.
    let service = ValidationService::new(ServiceConfig {
        rule_clock_unix: Some(1_600_000_000),
        telemetry: TelemetryConfig {
            bucket_millis: 3_600_000,
        },
        ..ServiceConfig::default()
    });
    let mut out = String::new();
    let mut last = String::new();
    for line in script() {
        if line.len() <= REQUEST_ECHO_LIMIT {
            writeln!(out, "> {line}").unwrap();
        } else {
            let prefix: String = line.chars().take(96).collect();
            writeln!(
                out,
                "> {prefix}… [{} bytes, fnv1a {:016x}]",
                line.len(),
                av_pattern::fnv1a(line.as_bytes())
            )
            .unwrap();
        }
        last = handle_line(&service, &line).response;
        if line == r#"{"op":"metrics"}"# {
            let mut reply = av_service::json::parse(&last).unwrap();
            mask_timings(&mut reply);
            last = reply.dump();
        }
        writeln!(out, "< {last}").unwrap();
    }
    // The closing `stats` names every op the dispatcher can count a frame
    // under, so each has at least one golden frame above.
    let stats = av_service::json::parse(&last).unwrap();
    let Some(Json::Obj(ops)) = stats.get("ops") else {
        panic!("the session must end on a stats reply, got {last}");
    };
    let counted: Vec<&str> = ops.keys().map(|name| name.as_ref()).collect();
    assert_eq!(counted, OPS, "an op has no frame in the golden session");
    out
}

#[test]
fn wire_transcript_is_byte_identical_to_the_golden_file() {
    let actual = transcript();
    if std::env::var_os("AV_BLESS").is_some() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .expect("golden transcript missing; run with AV_BLESS=1 to create it");
    if actual != expected {
        let diverged = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "wire transcript diverged from {GOLDEN} at line {}:\n  actual:   {}\n  expected: {}\n\
             (AV_BLESS=1 regenerates the file if the change is intended)",
            diverged + 1,
            actual
                .lines()
                .nth(diverged)
                .unwrap_or("<end of transcript>"),
            expected
                .lines()
                .nth(diverged)
                .unwrap_or("<end of transcript>"),
        );
    }
}
