//! The JSONL request/response protocol spoken by `av-serve`.
//!
//! One request per line, one response per line. Every request is an object
//! with an `"op"` field; every response carries `"ok"` (and `"error"` on
//! failure), so clients never have to guess. Example session:
//!
//! ```text
//! → {"op":"ingest","columns":[{"name":"c1","values":["10.0.0.1","10.0.0.2"]}]}
//! ← {"ok":true,"columns_added":1,"total_columns":1,...}
//! → {"op":"infer","rule":"ips","values":["10.0.0.1","192.168.0.9"]}
//! ← {"ok":true,"rule":"ips","describe":"pattern <digit>+.<digit>+...",...}
//! → {"op":"validate","rule":"ips","values":["not-an-ip"]}
//! ← {"ok":true,"flagged":true,"nonconforming":1,...}
//! ```
//!
//! ## Observability ops
//!
//! **`explain`** asks *why* a single value fails a rule: the failing byte
//! span (char-boundary aligned), what the rule expected there, the prefix
//! that did match, and the nearest other catalog rule the value conforms
//! to (ranked by token-program edit distance — a column-swap detector):
//!
//! ```text
//! → {"op":"explain","rule":"dates","value":"Pending"}
//! ← {"ok":true,"rule":"dates","conforms":false,"failed_at":0,"span":[0,1],
//!    "expected":"exactly 4 digit character(s)","matched_prefix":"",
//!    "reason":"mismatch at byte 0: ...","suggestion":{"rule":"status","distance":7}}
//! ```
//!
//! **`classify`** runs values against the **whole** rule catalog at once —
//! one scan of each value through the catalog automaton (`av-match`'s
//! lazily-determinized NFA union) instead of one pass per rule — and
//! returns every conforming rule ranked most-specific-first, plus the top
//! pick. Send `"values"` for a batch, or `"value"` for a single probe:
//!
//! ```text
//! → {"op":"classify","values":["2019-03-14","Pending","!!!"]}
//! ← {"ok":true,"catalog_generation":3,"results":[
//!    {"value":"2019-03-14","rules":["dates"],"best":"dates"},
//!    {"value":"Pending","rules":["status"],"best":"status"},
//!    {"value":"!!!","rules":[]}]}
//! ```
//!
//! **`metrics`** dumps the full telemetry registry: per-rule lifetime and
//! sliding-window conformance counters with alert flags and recent failure
//! exemplars, plus per-op request/error counters and latency histograms:
//!
//! ```text
//! → {"op":"metrics"}
//! ← {"ok":true,"index_generation":2,"window_millis":30000,
//!    "rules":[{"rule":"dates","validations":3,"flagged":1,"alert":false,
//!              "window":{"validations":3,"flagged":1,"flag_rate":0.333,...},
//!              "exemplars":[{"value":"user-0","reason":"mismatch at byte 0: ...",...}]}],
//!    "ops":[{"op":"validate","requests":3,"errors":0,"mean_micros":412.3,...}],
//!    "overload":{"connections_rejected":0,"requests_shed":0,"stalls_shed":0}}
//! ```
//!
//! ## Overload responses
//!
//! The TCP serve loop applies admission control and backpressure (see
//! [`crate::serve_listener`]). Work it refuses is answered with an error
//! frame carrying `"overloaded":true`, so clients can tell "backed off,
//! retry later" apart from "your request was malformed":
//!
//! ```text
//! ← {"ok":false,"error":"service at max_connections (10000); connection rejected","overloaded":true}
//! ← {"ok":false,"error":"pipeline full (128 frames queued); request shed","overloaded":true}
//! ```
//!
//! Every shed is counted: `stats` reports `connections_rejected` (accepts
//! refused at the admission gate), `requests_shed` (pipelined frames
//! answered `overloaded`), and `stalls_shed` (connections dropped after
//! making zero write progress for the stall deadline); `metrics` carries
//! the same three counters under `"overload"`. `stats` also says how well
//! the loop coalesces pipelined traffic: `frames_executed`,
//! `runs_dispatched` (worker hand-offs; frames ÷ runs is the mean run
//! length) and `socket_writes` (frames ÷ writes is replies per `write`).
//! And whether ingest still costs what its delta costs: next to
//! `ingest_batches`, `index_shards_copied` counts the index shards an
//! ingest had to clone before writing to them because a snapshot (an
//! in-flight `infer`, a checkpoint, the last checkpoint's base) still
//! shared them — an `ingest` reply's `touched_shards` is how many it wrote
//! to, so copied ÷ touched near 1 over a long run means every ingest is
//! paying for a copy of what it touches.
//!
//! **`watch`** turns the connection into a telemetry stream: after the
//! acknowledgement, the server emits one JSONL frame of per-rule window
//! stats every `interval_ms` until `frames` frames were sent (forever when
//! omitted), the client disconnects, or the service shuts down. Frames are
//! built from owned snapshots — no service lock is held while a frame is
//! written to a slow client:
//!
//! ```text
//! → {"op":"watch","interval_ms":500,"frames":2,"rules":["dates"]}
//! ← {"ok":true,"watching":true,"interval_ms":500,"frames":2}
//! ← {"frame":0,"elapsed_ms":500,"rules":[{"rule":"dates","window_validations":3,
//!     "window_flagged":1,"flag_rate":0.3333,"alert":false,...}]}
//! ← {"frame":1,"elapsed_ms":1000,"rules":[...]}
//! ```
//!
//! ## Durability state
//!
//! When the service runs in durable mode (`av-serve --durable`, or
//! [`crate::ServiceConfig::durable`]), `persist`, `stats` and `metrics`
//! responses carry a `"durability"` object. For `persist` it describes
//! the incremental checkpoint that was just written; for the read ops it
//! is the live WAL/checkpoint state:
//!
//! ```text
//! → {"op":"persist"}
//! ← {"ok":true,"persisted":true,"data_dir":"state/","durability":{
//!    "checkpoint_generation":3,"wal_segments":1,"wal_bytes":0,
//!    "records_since_checkpoint":0,"replayed_records":2,
//!    "truncated_tail_bytes":0,"quarantined_files":0,"skipped_records":0,
//!    "checkpoints_completed":1,"checkpoint_failures":0}}
//! ```
//!
//! `replayed_records` / `truncated_tail_bytes` / `quarantined_files`
//! describe what the last recovery had to do (how many WAL records were
//! replayed past the checkpoint, whether a torn final frame was dropped,
//! whether any corrupt shard file was set aside into `quarantine/`);
//! `records_since_checkpoint` is the WAL tail the *next* recovery would
//! replay; `checkpoint_failures` counts auto-checkpoints that failed
//! after their trigger op was already safely logged.

use crate::engine::{BatchItem, ValidationService};
use crate::json::{parse, Json};
use av_core::{AnyRule, Explanation, ValidationReport, Variant};
use std::time::Duration;

/// Outcome of handling one request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Handled {
    /// The JSON response line (no trailing newline).
    pub response: String,
    /// True when the request asked the service to shut down.
    pub shutdown: bool,
}

/// What a serve loop must do after writing the response line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LineOutcome {
    /// True when the request asked the service to shut down.
    pub shutdown: bool,
    /// `Some` when the request was an accepted `watch` op: the loop should
    /// stream telemetry frames with these parameters after the ack.
    pub watch: Option<WatchParams>,
}

/// Parameters of an accepted `watch` op.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchParams {
    /// Delay between frames.
    pub interval: Duration,
    /// Stop after this many frames (`None`: stream until disconnect or
    /// shutdown).
    pub frames: Option<u64>,
    /// Restrict frames to these rules (`None`: all rules with telemetry).
    pub rules: Option<Vec<String>>,
}

/// A response before serialization: the JSON tree plus what the serve loop
/// should do next. Serve loops render it through [`handle_line_into`] so
/// one output buffer is reused across every response of a connection.
struct Reply {
    json: Json<'static>,
    ok: bool,
    shutdown: bool,
    watch: Option<WatchParams>,
}

fn ok(fields: Vec<(&'static str, Json<'static>)>) -> Reply {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    Reply {
        json: Json::obj(all),
        ok: true,
        shutdown: false,
        watch: None,
    }
}

fn fail(message: impl Into<String>) -> Reply {
    Reply {
        json: Json::obj([
            ("ok", Json::Bool(false)),
            ("error", Json::str(message.into())),
        ]),
        ok: false,
        shutdown: false,
        watch: None,
    }
}

/// Render a bare protocol-error line into a caller-owned buffer. Serve
/// loops use this for transport-level failures (oversized or undecodable
/// request frames) that never reach [`handle_line_into`], so those
/// responses share the exact `{"ok":false,"error":…}` shape of every
/// other failure.
pub(crate) fn render_error_into(message: &str, out: &mut String) {
    fail(message).json.dump_into(out);
}

/// Render an overload-shed error line: the ordinary failure shape plus an
/// `"overloaded":true` marker so clients can tell "retry later" apart
/// from "your request was wrong". The serve loop sends it when admission
/// control rejects a connection, when a pipeline overflows its cap, or
/// when the run queue is full:
///
/// ```text
/// {"ok":false,"error":"service at max_connections (2); connection rejected","overloaded":true}
/// ```
pub(crate) fn render_overloaded_into(message: &str, out: &mut String) {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("error", Json::str(message.to_string())),
        ("overloaded", Json::Bool(true)),
    ])
    .dump_into(out);
}

fn report_json(r: &ValidationReport) -> Vec<(&'static str, Json<'static>)> {
    vec![
        ("checked", Json::Num(r.checked as f64)),
        ("nonconforming", Json::Num(r.nonconforming as f64)),
        ("nonconforming_frac", Json::Num(r.nonconforming_frac)),
        ("p_value", Json::Num(r.p_value)),
        ("flagged", Json::Bool(r.flagged)),
    ]
}

/// Borrow a `&str` array straight out of the parsed request. An
/// escape-free value there is itself a slice of the request frame
/// ([`Json`] borrows from the text it was parsed from), so validation
/// paths hand the engine the connection's own buffer and never copy a
/// value.
fn str_array<'a>(v: &'a Json, field: &str) -> Result<Vec<&'a str>, String> {
    v.get(field)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field {field:?}"))?
        .iter()
        .map(|item| {
            item.as_str()
                .ok_or_else(|| format!("{field:?} must contain only strings"))
        })
        .collect()
}

/// Move a member out of a request object.
fn take_field<'a>(v: Json<'a>, field: &str) -> Option<Json<'a>> {
    match v {
        Json::Obj(mut members) => members.remove(field),
        _ => None,
    }
}

/// Owned variant for ingestion, where columns must outlive the request.
/// Consumes the parsed array, so each value is copied out of the frame
/// once (one that had an escape was decoded into its own `String` already
/// and is moved).
fn string_array(v: Json, field: &str) -> Result<Vec<String>, String> {
    let Some(Json::Arr(items)) = take_field(v, field) else {
        return Err(format!("missing array field {field:?}"));
    };
    items
        .into_iter()
        .map(|item| match item {
            Json::Str(s) => Ok(s.into_owned()),
            _ => Err(format!("{field:?} must contain only strings")),
        })
        .collect()
}

fn parse_variant(v: &Json) -> Result<Option<Variant>, String> {
    match v.get("variant").and_then(Json::as_str) {
        None => Ok(None),
        Some("auto") => Ok(None),
        Some("fmdv") => Ok(Some(Variant::Fmdv)),
        Some("v") | Some("fmdv-v") => Ok(Some(Variant::FmdvV)),
        Some("h") | Some("fmdv-h") => Ok(Some(Variant::FmdvH)),
        Some("vh") | Some("fmdv-vh") => Ok(Some(Variant::FmdvVH)),
        Some("cmdv") => Ok(Some(Variant::Cmdv)),
        Some(other) => Err(format!("unknown variant {other:?}")),
    }
}

fn rule_kind(rule: &AnyRule) -> &'static str {
    match rule {
        AnyRule::Pattern(_) => "pattern",
        AnyRule::Numeric(_) => "numeric",
        AnyRule::Dictionary(_) => "dictionary",
    }
}

/// Handle one JSONL request line against the service, returning an owned
/// response — the one-shot convenience API for embedded clients and tests.
/// It is a thin wrapper over [`handle_line_into`], which serve loops call
/// directly with a per-connection buffer; any framing change lands in one
/// place. (A `watch` op handled here produces only the acknowledgement —
/// streaming frames is the serve loops' job.)
pub fn handle_line(service: &ValidationService, line: &str) -> Handled {
    let mut response = String::new();
    let outcome = handle_line_into(service, line, &mut response);
    Handled {
        response,
        shutdown: outcome.shutdown,
    }
}

/// Handle one JSONL request line, serializing the response into a
/// caller-owned buffer (cleared first). Serve loops call this with one
/// long-lived buffer per connection, so the response serializer allocates
/// nothing per line at steady state. Every dispatch is folded into the
/// per-op telemetry (request count, error count, handling latency).
pub fn handle_line_into(service: &ValidationService, line: &str, out: &mut String) -> LineOutcome {
    let start = std::time::Instant::now();
    let (op, reply) = dispatch(service, line);
    service.telemetry().record_op(op, start.elapsed(), reply.ok);
    reply.json.dump_into(out);
    LineOutcome {
        shutdown: reply.shutdown,
        watch: reply.watch,
    }
}

fn dispatch(service: &ValidationService, line: &str) -> (&'static str, Reply) {
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => return ("invalid", fail(format!("bad request json: {e}"))),
    };
    let op = match req.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => return ("invalid", fail("missing \"op\" field")),
    };
    match op {
        "ping" => ("ping", ok(vec![("pong", Json::Bool(true))])),
        "ingest" => ("ingest", handle_ingest(service, req)),
        "infer" => ("infer", handle_infer(service, &req)),
        "infer_baseline" => ("infer_baseline", handle_infer_baseline(service, &req)),
        "validate" => ("validate", handle_validate(service, &req)),
        "validate_batch" => ("validate_batch", handle_validate_batch(service, &req)),
        "compare" => ("compare", handle_compare(service, &req)),
        "catalog" => ("catalog", handle_catalog(service)),
        "rule" => ("rule", handle_rule(service, &req)),
        "delete_rule" => ("delete_rule", handle_delete(service, &req)),
        "classify" => ("classify", handle_classify(service, &req)),
        "explain" => ("explain", handle_explain(service, &req)),
        "metrics" => ("metrics", handle_metrics(service)),
        "watch" => ("watch", handle_watch(&req)),
        "persist" => (
            "persist",
            match service.persist() {
                Ok(()) => {
                    let mut fields = vec![("persisted", Json::Bool(true))];
                    if let Some(d) = service.durability() {
                        fields.push(("durability", durability_json(&d)));
                    }
                    ok(fields)
                }
                Err(e) => fail(e.to_string()),
            },
        ),
        "stats" => ("stats", handle_stats(service)),
        "shutdown" => {
            service.request_shutdown();
            let mut h = ok(vec![("bye", Json::Bool(true))]);
            h.shutdown = true;
            ("shutdown", h)
        }
        other => ("unknown", fail(format!("unknown op {other:?}"))),
    }
}

fn handle_ingest(service: &ValidationService, req: Json) -> Reply {
    let Some(Json::Arr(cols)) = take_field(req, "columns") else {
        return fail("missing array field \"columns\"");
    };
    let mut columns = Vec::with_capacity(cols.len());
    for (i, c) in cols.into_iter().enumerate() {
        let name = c
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("ingest-{i}"));
        match string_array(c, "values") {
            Ok(values) => columns.push(crate::engine::owned_column(&name, values)),
            Err(e) => return fail(format!("column {i}: {e}")),
        }
    }
    match service.ingest(&columns) {
        Ok(r) => ok(vec![
            ("columns_added", Json::Num(r.columns_added as f64)),
            ("delta_patterns", Json::Num(r.delta_patterns as f64)),
            ("touched_shards", Json::Num(r.touched_shards as f64)),
            ("total_columns", Json::Num(r.total_columns as f64)),
            ("total_patterns", Json::Num(r.total_patterns as f64)),
        ]),
        Err(e) => fail(e.to_string()),
    }
}

fn handle_infer(service: &ValidationService, req: &Json) -> Reply {
    let name = match req.get("rule").and_then(Json::as_str) {
        Some(n) => n,
        None => return fail("missing string field \"rule\""),
    };
    let values = match str_array(req, "values") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    let variant = match parse_variant(req) {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    match service.infer_rule(name, &values, variant) {
        Ok(entry) => ok(vec![
            ("rule", Json::str(entry.name)),
            ("kind", Json::str(rule_kind(&entry.rule))),
            ("variant", Json::str(entry.variant)),
            ("describe", Json::str(entry.rule.describe())),
            ("wire", Json::str(entry.rule.to_wire())),
        ]),
        Err(e) => fail(e.to_string()),
    }
}

fn handle_validate(service: &ValidationService, req: &Json) -> Reply {
    let name = match req.get("rule").and_then(Json::as_str) {
        Some(n) => n,
        None => return fail("missing string field \"rule\""),
    };
    let values = match str_array(req, "values") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    match service.validate(name, &values) {
        Ok(report) => ok(report_json(&report)),
        Err(e) => fail(e.to_string()),
    }
}

fn handle_infer_baseline(service: &ValidationService, req: &Json) -> Reply {
    let name = match req.get("rule").and_then(Json::as_str) {
        Some(n) => n,
        None => return fail("missing string field \"rule\""),
    };
    let method = match req.get("method").and_then(Json::as_str) {
        Some(m) => m,
        None => return fail("missing string field \"method\""),
    };
    let values = match str_array(req, "values") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    match service.infer_baseline(name, method, &values) {
        Ok(describe) => ok(vec![
            ("rule", Json::str(name.to_string())),
            ("method", Json::str(method.to_string())),
            ("describe", Json::str(describe)),
        ]),
        Err(e) => fail(e.to_string()),
    }
}

fn handle_compare(service: &ValidationService, req: &Json) -> Reply {
    let left = match req.get("a").and_then(Json::as_str) {
        Some(n) => n,
        None => return fail("missing string field \"a\""),
    };
    let right = match req.get("b").and_then(Json::as_str) {
        Some(n) => n,
        None => return fail("missing string field \"b\""),
    };
    let values = match str_array(req, "values") {
        Ok(v) => v,
        Err(e) => return fail(e),
    };
    match service.compare(left, right, &values) {
        Ok((ra, rb)) => ok(vec![
            ("a", Json::obj(report_json(&ra))),
            ("b", Json::obj(report_json(&rb))),
            ("agree", Json::Bool(ra.flagged == rb.flagged)),
        ]),
        Err(e) => fail(e.to_string()),
    }
}

fn handle_validate_batch(service: &ValidationService, req: &Json) -> Reply {
    let raw = match req.get("items").and_then(Json::as_arr) {
        Some(items) => items,
        None => return fail("missing array field \"items\""),
    };
    let mut items = Vec::with_capacity(raw.len());
    for (i, item) in raw.iter().enumerate() {
        let rule = match item.get("rule").and_then(Json::as_str) {
            Some(r) => r,
            None => return fail(format!("item {i}: missing string field \"rule\"")),
        };
        match str_array(item, "values") {
            Ok(values) => items.push(BatchItem { rule, values }),
            Err(e) => return fail(format!("item {i}: {e}")),
        }
    }
    let results: Vec<Json> = service
        .validate_batch(&items)
        .into_iter()
        .map(|r| match r {
            Ok(report) => {
                let mut fields = vec![("ok", Json::Bool(true))];
                fields.extend(report_json(&report));
                Json::obj(fields)
            }
            Err(e) => Json::obj([
                ("ok", Json::Bool(false)),
                ("error", Json::str(e.to_string())),
            ]),
        })
        .collect();
    ok(vec![("results", Json::Arr(results))])
}

fn handle_catalog(service: &ValidationService) -> Reply {
    let rules: Vec<Json> = service
        .catalog_entries()
        .into_iter()
        .map(|e| {
            Json::obj([
                ("rule", Json::str(e.name)),
                ("kind", Json::str(rule_kind(&e.rule))),
                ("variant", Json::str(e.variant)),
                ("created_unix", Json::Num(e.created_unix as f64)),
                ("describe", Json::str(e.rule.describe())),
            ])
        })
        .collect();
    let baselines: Vec<Json> = service
        .baseline_rules()
        .into_iter()
        .map(|(name, describe)| {
            Json::obj([("rule", Json::str(name)), ("describe", Json::str(describe))])
        })
        .collect();
    ok(vec![
        ("count", Json::Num(rules.len() as f64)),
        ("rules", Json::Arr(rules)),
        ("baselines", Json::Arr(baselines)),
    ])
}

fn handle_rule(service: &ValidationService, req: &Json) -> Reply {
    let name = match req.get("name").and_then(Json::as_str) {
        Some(n) => n,
        None => return fail("missing string field \"name\""),
    };
    match service.rule(name) {
        Ok(e) => ok(vec![
            ("rule", Json::str(e.name)),
            ("kind", Json::str(rule_kind(&e.rule))),
            ("variant", Json::str(e.variant)),
            ("created_unix", Json::Num(e.created_unix as f64)),
            ("describe", Json::str(e.rule.describe())),
            ("wire", Json::str(e.rule.to_wire())),
        ]),
        Err(e) => fail(e.to_string()),
    }
}

fn handle_delete(service: &ValidationService, req: &Json) -> Reply {
    let name = match req.get("name").and_then(Json::as_str) {
        Some(n) => n,
        None => return fail("missing string field \"name\""),
    };
    match service.delete_rule(name) {
        Ok(()) => ok(vec![("deleted", Json::str(name.to_string()))]),
        Err(e) => fail(e.to_string()),
    }
}

fn handle_classify(service: &ValidationService, req: &Json) -> Reply {
    // A batch of "values", or a single "value" for interactive probing.
    let values: Vec<&str> = if req.get("values").is_some() {
        match str_array(req, "values") {
            Ok(v) => v,
            Err(e) => return fail(e),
        }
    } else {
        match req.get("value").and_then(Json::as_str) {
            Some(v) => vec![v],
            None => return fail("missing array field \"values\" (or string field \"value\")"),
        }
    };
    let results: Vec<Json> = service
        .classify_batch(&values)
        .into_iter()
        .zip(&values)
        .map(|(outcome, value)| {
            let mut fields = vec![
                ("value", Json::str(value.to_string())),
                (
                    "rules",
                    Json::Arr(outcome.matches.into_iter().map(Json::str).collect()),
                ),
            ];
            if let Some(best) = outcome.best {
                fields.push(("best", Json::str(best)));
            }
            Json::obj(fields)
        })
        .collect();
    ok(vec![
        (
            "catalog_generation",
            Json::Num(service.classifier_generation() as f64),
        ),
        ("results", Json::Arr(results)),
    ])
}

fn explanation_fields(e: Explanation, fields: &mut Vec<(&'static str, Json<'static>)>) {
    fields.push(("reason", Json::str(e.reason)));
    if let Some(at) = e.failed_at {
        fields.push(("failed_at", Json::Num(at as f64)));
    }
    if let Some((start, end)) = e.span {
        fields.push((
            "span",
            Json::Arr(vec![Json::Num(start as f64), Json::Num(end as f64)]),
        ));
    }
    if let Some(expected) = e.expected {
        fields.push(("expected", Json::str(expected)));
    }
    if let Some(prefix) = e.matched_prefix {
        fields.push(("matched_prefix", Json::str(prefix)));
    }
}

fn handle_explain(service: &ValidationService, req: &Json) -> Reply {
    let name = match req.get("rule").and_then(Json::as_str) {
        Some(n) => n,
        None => return fail("missing string field \"rule\""),
    };
    let value = match req.get("value").and_then(Json::as_str) {
        Some(v) => v,
        None => return fail("missing string field \"value\""),
    };
    match service.explain(name, value) {
        Ok(outcome) => {
            let mut fields = vec![
                ("rule", Json::str(name.to_string())),
                ("value", Json::str(value.to_string())),
                ("conforms", Json::Bool(outcome.conforms)),
                ("describe", Json::str(outcome.describe)),
            ];
            if let Some(e) = outcome.explanation {
                explanation_fields(e, &mut fields);
            }
            if let Some((rule, distance)) = outcome.suggestion {
                fields.push((
                    "suggestion",
                    Json::obj([
                        ("rule", Json::str(rule)),
                        ("distance", Json::Num(distance as f64)),
                    ]),
                ));
            }
            ok(fields)
        }
        Err(e) => fail(e.to_string()),
    }
}

fn window_json(w: &crate::telemetry::WindowSnapshot) -> Json<'static> {
    Json::obj([
        ("validations", Json::Num(w.validations as f64)),
        ("flagged", Json::Num(w.flagged as f64)),
        ("checked", Json::Num(w.checked as f64)),
        ("nonconforming", Json::Num(w.nonconforming as f64)),
        ("flag_rate", Json::Num(w.flag_rate())),
    ])
}

fn handle_metrics(service: &ValidationService) -> Reply {
    // Snapshot everything first; serialization (and the serve loop's
    // socket write) then runs with no service lock held.
    let telemetry = service.telemetry();
    let rules: Vec<Json> = telemetry
        .rule_snapshots()
        .into_iter()
        .map(|r| {
            let exemplars: Vec<Json> = r
                .exemplars
                .into_iter()
                .map(|x| {
                    let mut fields = vec![
                        ("value", Json::str(x.value)),
                        ("reason", Json::str(x.reason)),
                    ];
                    if let Some(at) = x.failed_at {
                        fields.push(("failed_at", Json::Num(at as f64)));
                    }
                    if let Some((start, end)) = x.span {
                        fields.push((
                            "span",
                            Json::Arr(vec![Json::Num(start as f64), Json::Num(end as f64)]),
                        ));
                    }
                    if let Some(expected) = x.expected {
                        fields.push(("expected", Json::str(expected)));
                    }
                    Json::obj(fields)
                })
                .collect();
            Json::obj([
                ("rule", Json::str(r.rule)),
                ("validations", Json::Num(r.validations as f64)),
                ("flagged", Json::Num(r.flagged as f64)),
                ("checked", Json::Num(r.checked as f64)),
                ("nonconforming", Json::Num(r.nonconforming as f64)),
                ("window", window_json(&r.window)),
                ("alert", Json::Bool(r.alert)),
                ("exemplars", Json::Arr(exemplars)),
            ])
        })
        .collect();
    let ops: Vec<Json> = telemetry
        .op_snapshots()
        .into_iter()
        .map(|o| {
            Json::obj([
                ("op", Json::str(o.op)),
                ("requests", Json::Num(o.requests as f64)),
                ("errors", Json::Num(o.errors as f64)),
                ("latency_count", Json::Num(o.latency.count as f64)),
                (
                    "latency_total_micros",
                    Json::Num(o.latency.total_micros as f64),
                ),
                ("mean_micros", Json::Num(o.latency.mean_micros())),
                (
                    "latency_buckets",
                    Json::Arr(
                        o.latency
                            .buckets
                            .iter()
                            .map(|b| Json::Num(*b as f64))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let overload = {
        let s = service.stats();
        Json::obj([
            (
                "connections_rejected",
                Json::Num(s.connections_rejected as f64),
            ),
            ("requests_shed", Json::Num(s.requests_shed as f64)),
            ("stalls_shed", Json::Num(s.stalls_shed as f64)),
        ])
    };
    let mut fields = vec![
        ("rules", Json::Arr(rules)),
        ("ops", Json::Arr(ops)),
        (
            "index_generation",
            Json::Num(service.index_generation() as f64),
        ),
        ("window_millis", Json::Num(telemetry.window_millis() as f64)),
        ("overload", overload),
    ];
    if let Some(d) = service.durability() {
        fields.push(("durability", durability_json(&d)));
    }
    ok(fields)
}

/// Serialize a [`crate::DurabilitySnapshot`] for `persist` / `stats` /
/// `metrics` responses.
fn durability_json(d: &crate::DurabilitySnapshot) -> Json<'static> {
    Json::obj([
        (
            "checkpoint_generation",
            Json::Num(d.checkpoint_generation as f64),
        ),
        ("wal_segments", Json::Num(d.wal_segments as f64)),
        ("wal_bytes", Json::Num(d.wal_bytes as f64)),
        (
            "records_since_checkpoint",
            Json::Num(d.records_since_checkpoint as f64),
        ),
        ("replayed_records", Json::Num(d.replayed_records as f64)),
        (
            "truncated_tail_bytes",
            Json::Num(d.truncated_tail_bytes as f64),
        ),
        ("quarantined_files", Json::Num(d.quarantined_files as f64)),
        ("skipped_records", Json::Num(d.skipped_records as f64)),
        (
            "checkpoints_completed",
            Json::Num(d.checkpoints_completed as f64),
        ),
        (
            "checkpoint_failures",
            Json::Num(d.checkpoint_failures as f64),
        ),
    ])
}

fn handle_watch(req: &Json) -> Reply {
    let interval_ms = match req.get("interval_ms") {
        None => 1_000,
        Some(v) => match v.as_usize() {
            Some(ms) if ms >= 10 => ms as u64,
            _ => return fail("\"interval_ms\" must be an integer >= 10"),
        },
    };
    let frames = match req.get("frames") {
        None => None,
        Some(v) => match v.as_usize() {
            Some(n) if n >= 1 => Some(n as u64),
            _ => return fail("\"frames\" must be an integer >= 1"),
        },
    };
    let rules = match req.get("rules") {
        None => None,
        Some(_) => match str_array(req, "rules") {
            Ok(names) => Some(names.into_iter().map(str::to_string).collect()),
            Err(e) => return fail(e),
        },
    };
    let mut fields = vec![
        ("watching", Json::Bool(true)),
        ("interval_ms", Json::Num(interval_ms as f64)),
    ];
    if let Some(n) = frames {
        fields.push(("frames", Json::Num(n as f64)));
    }
    let mut reply = ok(fields);
    reply.watch = Some(WatchParams {
        interval: Duration::from_millis(interval_ms),
        frames,
        rules,
    });
    reply
}

/// Render one `watch` telemetry frame into `out` (cleared first). The
/// telemetry is snapshotted into owned values before serialization, so the
/// caller writes the buffer to its transport with no service lock held —
/// a stalled watch client can never block validation or inference.
pub(crate) fn render_watch_frame(
    service: &ValidationService,
    params: &WatchParams,
    frame: u64,
    elapsed: Duration,
    out: &mut String,
) {
    let snapshots = service.telemetry().rule_snapshots();
    let rules: Vec<Json> = snapshots
        .into_iter()
        .filter(|r| match &params.rules {
            Some(wanted) => wanted.iter().any(|w| w == &r.rule),
            None => true,
        })
        .map(|r| {
            Json::obj([
                ("rule", Json::str(r.rule)),
                ("validations", Json::Num(r.validations as f64)),
                ("flagged", Json::Num(r.flagged as f64)),
                ("window_validations", Json::Num(r.window.validations as f64)),
                ("window_flagged", Json::Num(r.window.flagged as f64)),
                ("window_checked", Json::Num(r.window.checked as f64)),
                (
                    "window_nonconforming",
                    Json::Num(r.window.nonconforming as f64),
                ),
                ("flag_rate", Json::Num(r.window.flag_rate())),
                ("alert", Json::Bool(r.alert)),
            ])
        })
        .collect();
    Json::obj([
        ("frame", Json::Num(frame as f64)),
        ("elapsed_ms", Json::Num(elapsed.as_millis() as f64)),
        (
            "index_generation",
            Json::Num(service.index_generation() as f64),
        ),
        ("rules", Json::Arr(rules)),
    ])
    .dump_into(out);
}

fn handle_stats(service: &ValidationService) -> Reply {
    let s = service.stats();
    let index = service.snapshot();
    let ops = Json::Obj(
        service
            .telemetry()
            .op_snapshots()
            .into_iter()
            .map(|o| {
                (
                    o.op.into(),
                    Json::obj([
                        ("requests", Json::Num(o.requests as f64)),
                        ("errors", Json::Num(o.errors as f64)),
                    ]),
                )
            })
            .collect(),
    );
    let mut fields = vec![
        ("columns_ingested", Json::Num(s.columns_ingested as f64)),
        ("ingest_batches", Json::Num(s.ingest_batches as f64)),
        (
            "index_shards_copied",
            Json::Num(s.index_shards_copied as f64),
        ),
        ("rules_inferred", Json::Num(s.rules_inferred as f64)),
        ("validations", Json::Num(s.validations as f64)),
        ("flagged", Json::Num(s.flagged as f64)),
        ("classifications", Json::Num(s.classifications as f64)),
        ("connection_errors", Json::Num(s.connection_errors as f64)),
        (
            "connections_rejected",
            Json::Num(s.connections_rejected as f64),
        ),
        ("requests_shed", Json::Num(s.requests_shed as f64)),
        ("stalls_shed", Json::Num(s.stalls_shed as f64)),
        ("frames_executed", Json::Num(s.frames_executed as f64)),
        ("runs_dispatched", Json::Num(s.runs_dispatched as f64)),
        ("socket_writes", Json::Num(s.socket_writes as f64)),
        ("index_patterns", Json::Num(index.len() as f64)),
        ("index_columns", Json::Num(index.num_columns as f64)),
        ("index_shards", Json::Num(index.shard_count() as f64)),
        (
            "index_generation",
            Json::Num(service.index_generation() as f64),
        ),
        ("ops", ops),
        (
            "catalog_rules",
            Json::Num(service.catalog_entries().len() as f64),
        ),
        (
            "catalog_generation",
            Json::Num(service.classifier_generation() as f64),
        ),
    ];
    if let Some(d) = service.durability() {
        fields.push(("durability", durability_json(&d)));
    }
    ok(fields)
}

/// Did a response line report success? (Convenience for clients/tests.)
pub fn response_ok(line: &str) -> bool {
    parse(line)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServiceConfig;

    fn service_with_corpus() -> ValidationService {
        let service = ValidationService::new(ServiceConfig::default());
        let lake = av_corpus::generate_lake(&av_corpus::LakeProfile::tiny(), 19);
        let columns: Vec<av_corpus::Column> = lake.columns().cloned().collect();
        service.ingest(&columns).unwrap();
        service
    }

    fn dates(month: u32) -> String {
        let values: Vec<String> = (1..=28)
            .map(|d| format!("\"2019-{month:02}-{d:02}\""))
            .collect();
        format!("[{}]", values.join(","))
    }

    #[test]
    fn full_protocol_session() {
        let service = service_with_corpus();
        let h = handle_line(&service, r#"{"op":"ping"}"#);
        assert!(response_ok(&h.response));

        let h = handle_line(
            &service,
            &format!(r#"{{"op":"infer","rule":"dates","values":{}}}"#, dates(3)),
        );
        assert!(response_ok(&h.response), "{}", h.response);

        let h = handle_line(
            &service,
            &format!(
                r#"{{"op":"validate","rule":"dates","values":{}}}"#,
                dates(4)
            ),
        );
        assert!(response_ok(&h.response));
        let v = parse(&h.response).unwrap();
        assert_eq!(v.get("flagged").unwrap().as_bool(), Some(false));

        let h = handle_line(
            &service,
            r#"{"op":"validate","rule":"dates","values":["x","y","z"]}"#,
        );
        let v = parse(&h.response).unwrap();
        assert_eq!(v.get("flagged").unwrap().as_bool(), Some(true));

        let h = handle_line(&service, r#"{"op":"catalog"}"#);
        let v = parse(&h.response).unwrap();
        assert_eq!(v.get("count").unwrap().as_usize(), Some(1));

        let h = handle_line(&service, r#"{"op":"stats"}"#);
        let v = parse(&h.response).unwrap();
        assert_eq!(v.get("validations").unwrap().as_usize(), Some(2));
        assert_eq!(v.get("flagged").unwrap().as_usize(), Some(1));

        let h = handle_line(&service, r#"{"op":"shutdown"}"#);
        assert!(h.shutdown);
        assert!(service.is_shutdown());
    }

    #[test]
    fn batch_op_mixes_ok_and_errors() {
        let service = service_with_corpus();
        handle_line(
            &service,
            &format!(r#"{{"op":"infer","rule":"d","values":{}}}"#, dates(2)),
        );
        let h = handle_line(
            &service,
            &format!(
                r#"{{"op":"validate_batch","items":[{{"rule":"d","values":{}}},{{"rule":"missing","values":[]}}]}}"#,
                dates(5)
            ),
        );
        assert!(response_ok(&h.response));
        let v = parse(&h.response).unwrap();
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(results[1].get("ok").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn baseline_and_compare_ops() {
        let service = service_with_corpus();
        let h = handle_line(
            &service,
            &format!(r#"{{"op":"infer","rule":"d","values":{}}}"#, dates(3)),
        );
        assert!(response_ok(&h.response), "{}", h.response);

        let h = handle_line(
            &service,
            &format!(
                r#"{{"op":"infer_baseline","rule":"g","method":"grok","values":{}}}"#,
                dates(3)
            ),
        );
        assert!(response_ok(&h.response), "{}", h.response);
        let v = parse(&h.response).unwrap();
        assert!(v
            .get("describe")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("grok:"));

        // Both rules (FMDV catalog + grok baseline) validate and agree.
        let h = handle_line(
            &service,
            &format!(
                r#"{{"op":"compare","a":"d","b":"g","values":{}}}"#,
                dates(4)
            ),
        );
        assert!(response_ok(&h.response), "{}", h.response);
        let v = parse(&h.response).unwrap();
        assert_eq!(v.get("agree").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("a").unwrap().get("flagged").unwrap().as_bool(),
            Some(false)
        );

        // The catalog op lists session baselines separately.
        let h = handle_line(&service, r#"{"op":"catalog"}"#);
        let v = parse(&h.response).unwrap();
        assert_eq!(v.get("count").unwrap().as_usize(), Some(1));
        assert_eq!(v.get("baselines").unwrap().as_arr().unwrap().len(), 1);

        // Unknown methods fail cleanly.
        let h = handle_line(
            &service,
            r#"{"op":"infer_baseline","rule":"x","method":"banana","values":["1"]}"#,
        );
        assert!(!response_ok(&h.response));
    }

    #[test]
    fn malformed_requests_fail_cleanly() {
        let service = ValidationService::new(ServiceConfig::default());
        for bad in [
            "not json",
            "{}",
            r#"{"op":"nope"}"#,
            r#"{"op":"validate"}"#,
            r#"{"op":"validate","rule":"r"}"#,
            r#"{"op":"validate","rule":"r","values":[1,2]}"#,
            r#"{"op":"infer","rule":"r","values":["a"],"variant":"banana"}"#,
            r#"{"op":"ingest"}"#,
        ] {
            let h = handle_line(&service, bad);
            assert!(!response_ok(&h.response), "{bad} should fail");
            assert!(!h.shutdown);
        }
    }

    #[test]
    fn explain_op_reports_span_and_suggestion() {
        let service = service_with_corpus();
        let h = handle_line(
            &service,
            &format!(r#"{{"op":"infer","rule":"dates","values":{}}}"#, dates(3)),
        );
        assert!(response_ok(&h.response), "{}", h.response);
        let statuses: Vec<String> = (0..60)
            .map(|i| format!("{:?}", ["Delivered", "Pending", "Rejected"][i % 3]))
            .collect();
        let h = handle_line(
            &service,
            &format!(
                r#"{{"op":"infer","rule":"status","values":[{}]}}"#,
                statuses.join(",")
            ),
        );
        assert!(response_ok(&h.response), "{}", h.response);

        // Conforming: no failure fields.
        let h = handle_line(
            &service,
            r#"{"op":"explain","rule":"dates","value":"2019-03-14"}"#,
        );
        let v = parse(&h.response).unwrap();
        assert_eq!(v.get("conforms").unwrap().as_bool(), Some(true));
        assert!(v.get("reason").is_none() && v.get("suggestion").is_none());

        // A status value in the dates feed: positional detail plus the
        // column-swap suggestion.
        let h = handle_line(
            &service,
            r#"{"op":"explain","rule":"dates","value":"Pending"}"#,
        );
        assert!(response_ok(&h.response), "{}", h.response);
        let v = parse(&h.response).unwrap();
        assert_eq!(v.get("conforms").unwrap().as_bool(), Some(false));
        assert!(v.get("reason").is_some());
        assert!(v.get("failed_at").is_some());
        assert!(v.get("span").unwrap().as_arr().unwrap().len() == 2);
        assert_eq!(
            v.get("suggestion").unwrap().get("rule").unwrap().as_str(),
            Some("status")
        );

        // Missing fields and unknown rules fail cleanly.
        for bad in [
            r#"{"op":"explain","rule":"dates"}"#,
            r#"{"op":"explain","value":"x"}"#,
            r#"{"op":"explain","rule":"missing","value":"x"}"#,
        ] {
            assert!(!response_ok(&handle_line(&service, bad).response));
        }
    }

    #[test]
    fn classify_op_names_every_conforming_rule() {
        let service = service_with_corpus();
        let h = handle_line(
            &service,
            &format!(r#"{{"op":"infer","rule":"dates","values":{}}}"#, dates(3)),
        );
        assert!(response_ok(&h.response), "{}", h.response);
        let statuses: Vec<String> = (0..60)
            .map(|i| format!("{:?}", ["Delivered", "Pending", "Rejected"][i % 3]))
            .collect();
        let h = handle_line(
            &service,
            &format!(
                r#"{{"op":"infer","rule":"status","values":[{}]}}"#,
                statuses.join(",")
            ),
        );
        assert!(response_ok(&h.response), "{}", h.response);

        // A batch: per-value match lists in input order, best first.
        let h = handle_line(
            &service,
            r#"{"op":"classify","values":["2019-03-14","Pending","!!!"]}"#,
        );
        assert!(response_ok(&h.response), "{}", h.response);
        let v = parse(&h.response).unwrap();
        assert!(v.get("catalog_generation").unwrap().as_usize().unwrap() >= 2);
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].get("best").unwrap().as_str(), Some("dates"));
        assert_eq!(results[1].get("best").unwrap().as_str(), Some("status"));
        assert!(results[2].get("best").is_none());
        assert!(results[2]
            .get("rules")
            .unwrap()
            .as_arr()
            .unwrap()
            .is_empty());

        // Single-value form.
        let h = handle_line(&service, r#"{"op":"classify","value":"Rejected"}"#);
        assert!(response_ok(&h.response), "{}", h.response);
        let v = parse(&h.response).unwrap();
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results[0].get("value").unwrap().as_str(), Some("Rejected"));
        assert_eq!(results[0].get("best").unwrap().as_str(), Some("status"));

        // The op feeds the shared telemetry like every other dispatch,
        // and the stats op carries the classification counter.
        let h = handle_line(&service, r#"{"op":"stats"}"#);
        let v = parse(&h.response).unwrap();
        assert_eq!(v.get("classifications").unwrap().as_usize(), Some(4));
        let ops = v.get("ops").unwrap();
        assert_eq!(
            ops.get("classify")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_usize(),
            Some(2)
        );

        // Missing fields fail cleanly.
        assert!(!response_ok(
            &handle_line(&service, r#"{"op":"classify"}"#).response
        ));
        assert!(!response_ok(
            &handle_line(&service, r#"{"op":"classify","values":[1]}"#).response
        ));
    }

    #[test]
    fn metrics_and_stats_expose_telemetry() {
        let service = service_with_corpus();
        handle_line(
            &service,
            &format!(r#"{{"op":"infer","rule":"d","values":{}}}"#, dates(2)),
        );
        let h = handle_line(
            &service,
            &format!(r#"{{"op":"validate","rule":"d","values":{}}}"#, dates(3)),
        );
        assert!(response_ok(&h.response));
        let h = handle_line(
            &service,
            r#"{"op":"validate","rule":"d","values":["x","y","z"]}"#,
        );
        assert!(response_ok(&h.response));
        // One failing op for the error counter.
        handle_line(&service, r#"{"op":"validate","rule":"nope","values":[]}"#);

        let h = handle_line(&service, r#"{"op":"metrics"}"#);
        assert!(response_ok(&h.response), "{}", h.response);
        let v = parse(&h.response).unwrap();
        let rules = v.get("rules").unwrap().as_arr().unwrap();
        assert_eq!(rules.len(), 1);
        let rule = &rules[0];
        assert_eq!(rule.get("rule").unwrap().as_str(), Some("d"));
        assert_eq!(rule.get("validations").unwrap().as_usize(), Some(2));
        assert_eq!(rule.get("flagged").unwrap().as_usize(), Some(1));
        let window = rule.get("window").unwrap();
        assert_eq!(window.get("validations").unwrap().as_usize(), Some(2));
        assert_eq!(window.get("flag_rate").unwrap().as_f64(), Some(0.5));
        assert_eq!(rule.get("alert").unwrap().as_bool(), Some(true));
        let exemplars = rule.get("exemplars").unwrap().as_arr().unwrap();
        assert_eq!(exemplars.len(), 1);
        assert_eq!(exemplars[0].get("value").unwrap().as_str(), Some("x"));
        assert!(exemplars[0].get("reason").is_some());

        // Per-op counters: 3 validate dispatches, 1 of them an error.
        let ops = v.get("ops").unwrap().as_arr().unwrap();
        let validate = ops
            .iter()
            .find(|o| o.get("op").unwrap().as_str() == Some("validate"))
            .expect("validate op counted");
        assert_eq!(validate.get("requests").unwrap().as_usize(), Some(3));
        assert_eq!(validate.get("errors").unwrap().as_usize(), Some(1));
        assert_eq!(validate.get("latency_count").unwrap().as_usize(), Some(3));
        assert!(v.get("index_generation").unwrap().as_usize().unwrap() >= 1);

        // The stats op carries the per-op counters and index generation too.
        let h = handle_line(&service, r#"{"op":"stats"}"#);
        let v = parse(&h.response).unwrap();
        assert!(v.get("index_generation").unwrap().as_usize().unwrap() >= 1);
        let ops = v.get("ops").unwrap();
        assert_eq!(
            ops.get("validate")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_usize(),
            Some(3)
        );
        assert_eq!(
            ops.get("metrics")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_usize(),
            Some(1)
        );
    }

    /// The telemetry op table and the dispatcher name the same closed set:
    /// a frame naming each table entry is counted under that very name —
    /// except `invalid` and `unknown`, which are not ops and so both count
    /// as `unknown`, while `invalid` is what an unparseable frame counts as.
    #[test]
    fn every_telemetry_slot_is_a_dispatched_op() {
        use crate::telemetry::OPS;
        let service = ValidationService::new(ServiceConfig::default());
        for op in OPS {
            handle_line(&service, &format!(r#"{{"op":"{op}"}}"#));
        }
        handle_line(&service, "not json");
        let recorded: Vec<(String, u64)> = service
            .telemetry()
            .op_snapshots()
            .into_iter()
            .map(|o| (o.op, o.requests))
            .collect();
        let expected: Vec<(String, u64)> = OPS
            .iter()
            .map(|op| (op.to_string(), if *op == "unknown" { 2 } else { 1 }))
            .collect();
        assert_eq!(recorded, expected);
    }

    #[test]
    fn watch_op_acknowledges_and_hands_params_to_the_serve_loop() {
        let service = ValidationService::new(ServiceConfig::default());
        let mut out = String::new();
        let outcome = handle_line_into(
            &service,
            r#"{"op":"watch","interval_ms":50,"frames":3,"rules":["d"]}"#,
            &mut out,
        );
        assert!(response_ok(&out), "{out}");
        let v = parse(&out).unwrap();
        assert_eq!(v.get("watching").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("interval_ms").unwrap().as_usize(), Some(50));
        let watch = outcome.watch.expect("watch params");
        assert_eq!(watch.interval, Duration::from_millis(50));
        assert_eq!(watch.frames, Some(3));
        assert_eq!(watch.rules.as_deref(), Some(&["d".to_string()][..]));
        assert!(!outcome.shutdown);

        // Defaults: 1 s interval, unbounded frames, all rules.
        let outcome = handle_line_into(&service, r#"{"op":"watch"}"#, &mut out);
        let watch = outcome.watch.expect("watch params");
        assert_eq!(watch.interval, Duration::from_millis(1000));
        assert_eq!(watch.frames, None);
        assert_eq!(watch.rules, None);

        // Invalid parameters are rejected and do not start a stream.
        for bad in [
            r#"{"op":"watch","interval_ms":1}"#,
            r#"{"op":"watch","frames":0}"#,
            r#"{"op":"watch","rules":[1]}"#,
        ] {
            let outcome = handle_line_into(&service, bad, &mut out);
            assert!(!response_ok(&out), "{bad} should fail");
            assert!(outcome.watch.is_none());
        }
    }

    #[test]
    fn ingest_via_protocol_grows_the_index() {
        let service = ValidationService::new(ServiceConfig::default());
        let h = handle_line(
            &service,
            r#"{"op":"ingest","columns":[{"name":"ips","values":["10.0.0.1","10.0.0.2","172.16.9.1"]},{"values":["a-1","b-2"]}]}"#,
        );
        assert!(response_ok(&h.response), "{}", h.response);
        let v = parse(&h.response).unwrap();
        assert_eq!(v.get("columns_added").unwrap().as_usize(), Some(2));
        assert_eq!(v.get("total_columns").unwrap().as_usize(), Some(2));
        assert!(v.get("total_patterns").unwrap().as_usize().unwrap() > 0);
    }
}
