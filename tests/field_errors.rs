//! Every op × every required request field, missing and wrong-typed,
//! against the exact error message — the referee for how handlers read
//! their fields.
//!
//! A request is checked field by field in a fixed order, so a frame whose
//! fields before `k` are well-formed and whose field `k` is absent (or is
//! the wrong JSON type) is refused with `k`'s message whatever comes after
//! it. The flat ops are one table; the nested shapes (`ingest` columns,
//! `validate_batch` items, `classify`'s either-or, `watch`'s optional
//! numbers) are listed frame by frame.

use av_service::json::{parse, Json};
use av_service::{handle_line, ServiceConfig, ValidationService};

/// What a required field must hold.
#[derive(Clone, Copy)]
enum Kind {
    /// A JSON string.
    Text,
    /// A JSON array of strings.
    Strings,
    /// A JSON array (its items are covered by [`NESTED`]).
    Array,
}

use Kind::{Array, Strings, Text};

/// Each flat op's required fields, in the order the handler checks them.
const REQUIRED: &[(&str, &[(&str, Kind)])] = &[
    ("compare", &[("a", Text), ("b", Text), ("values", Strings)]),
    ("delete_rule", &[("name", Text)]),
    ("explain", &[("rule", Text), ("value", Text)]),
    ("infer", &[("rule", Text), ("values", Strings)]),
    (
        "infer_baseline",
        &[("rule", Text), ("method", Text), ("values", Strings)],
    ),
    ("ingest", &[("columns", Array)]),
    ("rule", &[("name", Text)]),
    ("validate", &[("rule", Text), ("values", Strings)]),
    ("validate_batch", &[("items", Array)]),
];

/// Frames whose bad field sits inside an array item, is one of two
/// alternatives, or is optional — with the message each is refused with.
const NESTED: &[(&str, &str)] = &[
    (
        r#"{"op":"ingest","columns":[{"name":"c","values":["a"]},{"name":"d"}]}"#,
        r#"column 1: missing array field "values""#,
    ),
    (
        r#"{"op":"ingest","columns":[{"values":7}]}"#,
        r#"column 0: missing array field "values""#,
    ),
    (
        r#"{"op":"ingest","columns":[{"values":["a",3]}]}"#,
        r#"column 0: "values" must contain only strings"#,
    ),
    (
        r#"{"op":"ingest","columns":[7]}"#,
        r#"column 0: missing array field "values""#,
    ),
    (
        r#"{"op":"validate_batch","items":[{"rule":"r","values":["a"]},{"values":[]}]}"#,
        r#"item 1: missing string field "rule""#,
    ),
    (
        r#"{"op":"validate_batch","items":[{"rule":7,"values":[]}]}"#,
        r#"item 0: missing string field "rule""#,
    ),
    (
        r#"{"op":"validate_batch","items":[{"rule":"r"}]}"#,
        r#"item 0: missing array field "values""#,
    ),
    (
        r#"{"op":"validate_batch","items":[{"rule":"r","values":"a"}]}"#,
        r#"item 0: missing array field "values""#,
    ),
    (
        r#"{"op":"validate_batch","items":[{"rule":"r","values":[1]}]}"#,
        r#"item 0: "values" must contain only strings"#,
    ),
    (
        r#"{"op":"validate_batch","items":[3]}"#,
        r#"item 0: missing string field "rule""#,
    ),
    (
        r#"{"op":"classify"}"#,
        r#"missing array field "values" (or string field "value")"#,
    ),
    (
        r#"{"op":"classify","value":7}"#,
        r#"missing array field "values" (or string field "value")"#,
    ),
    (
        r#"{"op":"classify","values":7}"#,
        r#"missing array field "values""#,
    ),
    (
        r#"{"op":"classify","values":7,"value":"x"}"#,
        r#"missing array field "values""#,
    ),
    (
        r#"{"op":"classify","values":["a",1]}"#,
        r#""values" must contain only strings"#,
    ),
    (
        r#"{"op":"infer","rule":"r","variant":"banana"}"#,
        r#"missing array field "values""#,
    ),
    (
        r#"{"op":"infer","rule":"r","values":["a"],"variant":"banana"}"#,
        r#"unknown variant "banana""#,
    ),
    (
        r#"{"op":"watch","interval_ms":"50"}"#,
        r#""interval_ms" must be an integer >= 10"#,
    ),
    (
        r#"{"op":"watch","interval_ms":9,"frames":0}"#,
        r#""interval_ms" must be an integer >= 10"#,
    ),
    (
        r#"{"op":"watch","frames":1.5,"rules":[1]}"#,
        r#""frames" must be an integer >= 1"#,
    ),
    (
        r#"{"op":"watch","rules":"dates"}"#,
        r#"missing array field "rules""#,
    ),
    (r#"{"op":7}"#, r#"missing "op" field"#),
    (r#"[{"op":"ping"}]"#, r#"missing "op" field"#),
    (r#"{"op":"pong"}"#, r#"unknown op "pong""#),
];

fn well_formed(kind: Kind) -> &'static str {
    match kind {
        Text => r#""x""#,
        Strings => r#"["x"]"#,
        Array => "[]",
    }
}

/// The message an absent or wrong-typed `field` of `kind` is refused with,
/// and the wrong-typed spellings that must all earn it.
fn refusals(field: &str, kind: Kind) -> Vec<(Option<&'static str>, String)> {
    let missing = match kind {
        Text => format!("missing string field {field:?}"),
        Strings | Array => format!("missing array field {field:?}"),
    };
    let mut out = vec![(None, missing.clone())];
    let wrong: &[&'static str] = match kind {
        Text => &["7", "null", r#"["x"]"#, r#"{"x":1}"#],
        Strings | Array => &["7", "null", r#""x""#, r#"{"x":1}"#],
    };
    out.extend(wrong.iter().map(|w| (Some(*w), missing.clone())));
    if let Strings = kind {
        let mixed = format!("{field:?} must contain only strings");
        out.push((Some("[1]"), mixed.clone()));
        out.push((Some(r#"["x",null]"#), mixed));
    }
    out
}

fn refused_with(service: &ValidationService, frame: &str, message: &str) {
    let reply = handle_line(service, frame).response;
    let expected = Json::obj([("ok", Json::Bool(false)), ("error", Json::str(message))]).dump();
    assert_eq!(reply, expected, "frame: {frame}");
    assert!(parse(&reply).is_ok());
}

#[test]
fn every_required_field_is_refused_with_its_exact_message() {
    let service = ValidationService::new(ServiceConfig::default());
    let mut frames = 0;
    for (op, fields) in REQUIRED {
        for (k, (field, kind)) in fields.iter().enumerate() {
            let before: String = fields[..k]
                .iter()
                .map(|(name, kind)| format!(",{name:?}:{}", well_formed(*kind)))
                .collect();
            for (spelling, message) in refusals(field, *kind) {
                let bad = spelling.map_or(String::new(), |s| format!(",{field:?}:{s}"));
                refused_with(
                    &service,
                    &format!(r#"{{"op":{op:?}{before}{bad}}}"#),
                    &message,
                );
                frames += 1;
            }
        }
    }
    for (frame, message) in NESTED {
        refused_with(&service, frame, message);
        frames += 1;
    }
    // Every refusal was counted as an error of the op it named (or of
    // `invalid` / `unknown`), and none reached the engine.
    let errors: u64 = service
        .telemetry()
        .op_snapshots()
        .iter()
        .map(|o| {
            assert_eq!(o.requests, o.errors, "{}", o.op);
            o.errors
        })
        .sum();
    assert_eq!(errors, frames);
    assert_eq!(service.stats(), av_service::ServiceStats::default());
}
