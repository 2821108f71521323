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
//! ## The op set
//!
//! An op is one row, one handler, one golden frame: a row of the sorted op
//! table names it (the dispatcher searches that table and the per-op
//! telemetry is sized and named from it), its handler reads the request's
//! fields, calls the engine and returns the reply's members, and
//! `tests/golden_session.rs` pins its reply bytes. A missing or wrong-typed
//! field is refused with that field's message (`missing string field
//! "rule"`, `column 3: missing array field "values"`), fields being checked
//! in the order listed (`tests/field_errors.rs`):
//!
//! | op | request fields | reply |
//! |----|----------------|-------|
//! | `catalog` | — | every cataloged rule |
//! | `classify` | `values`, or a single `value` | per value, every conforming rule, most specific first |
//! | `delete_rule` | `name` | the name deleted |
//! | `explain` | `rule`, `value` | where and why the value fails, and the nearest rule it fits |
//! | `infer` | `rule`, `values`, optional `variant` | the cataloged entry and its wire form |
//! | `ingest` | `columns`, each `values` and an optional `name` | what the merge changed |
//! | `metrics` | — | the telemetry registry |
//! | `persist` | — | the checkpoint written |
//! | `ping` | — | `pong` |
//! | `rule` | `name` | one catalog entry |
//! | `shutdown` | — | `bye`; every serve loop winds down |
//! | `stats` | — | counters, index and catalog sizes, requests and errors per op |
//! | `validate` | `rule`, `values` | the column's report |
//! | `watch` | optional `interval_ms`, `frames`, `rules` | the acknowledgement; frames follow |
//!
//! A frame that is not JSON or names no op is counted as `invalid`, one
//! naming an op with no row as `unknown`.
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
//! `runs_dispatched` (pipelined runs an event loop executed, however many
//! turns each took; frames ÷ runs is the mean run length) and `socket_writes` (frames ÷ writes is replies per `write`).
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
//!    "records_since_checkpoint":0,"wal_bytes_since_checkpoint":0,
//!    "checkpoint_image_bytes":2216448,"last_checkpoint_ms":13.482,
//!    "replayed_records":2,"truncated_tail_bytes":0,"quarantined_files":0,
//!    "skipped_records":0,"checkpoints_completed":1,"checkpoint_failures":0}}
//! ```
//!
//! `replayed_records` / `truncated_tail_bytes` / `quarantined_files`
//! describe what the last recovery had to do (how many WAL records were
//! replayed past the checkpoint, whether a torn final frame was dropped,
//! whether any corrupt shard file was set aside into `quarantine/`);
//! `records_since_checkpoint` / `wal_bytes_since_checkpoint` are the WAL
//! tail the *next* recovery would replay. The service checkpoints on its
//! own once `wal_bytes_since_checkpoint` reaches `checkpoint_image_bytes`
//! (the last checkpoint's shard files plus catalog), which bounds that
//! tail by one image; `last_checkpoint_ms` is what the last checkpoint
//! took, and `checkpoint_failures` counts auto-checkpoints that failed
//! after their trigger op was already safely logged.

use crate::catalog::CatalogEntry;
use crate::engine::{owned_column, ValidationService};
use crate::json::{parse, Json};
use crate::telemetry::{FailureExemplar, WindowSnapshot, INVALID, UNKNOWN};
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

/// The members of a successful reply, `"ok":true` aside.
type Members = Vec<(&'static str, Json<'static>)>;

/// What a handler returns: the reply's members and what the serve loop
/// must do once they are written, or the message of the
/// `{"ok":false,"error":…}` reply. Field accessors return the same error
/// type and a [`crate::ServiceError`] converts to its `Display` text, so a
/// handler's failure paths are all `?`, turned into an error reply in one
/// place ([`handle_line_into`]).
type Outcome = Result<(Members, LineOutcome), String>;

/// One op: read the request's fields, call the engine, return the reply's
/// members.
type Handler = fn(&ValidationService, Json<'_>) -> Outcome;

/// The op set, sorted by name — [`dispatch`] binary-searches it, the
/// per-op telemetry is sized and named from it ([`crate::telemetry::OPS`]),
/// and nothing else lists the ops. A new op is a row here, its handler
/// below, and a frame in `tests/golden_session.rs`.
pub(crate) const OP_TABLE: [(&str, Handler); 14] = [
    ("catalog", catalog),
    ("classify", classify),
    ("delete_rule", delete_rule),
    ("explain", explain),
    ("infer", infer),
    ("ingest", ingest),
    ("metrics", metrics),
    ("persist", persist),
    ("ping", ping),
    ("rule", rule),
    ("shutdown", shutdown),
    ("stats", stats),
    ("validate", validate),
    ("watch", watch),
];

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
    let (op, outcome) = dispatch(service, line);
    service
        .telemetry()
        .record_op(op, start.elapsed(), outcome.is_ok());
    match outcome {
        Ok((mut members, next)) => {
            members.push(("ok", Json::Bool(true)));
            Json::obj(members).dump_into(out);
            next
        }
        Err(message) => {
            error_json(message, false).dump_into(out);
            LineOutcome::default()
        }
    }
}

/// Parse the frame, find its op's row and run it. Returns the name the
/// frame is counted under: the row's, or one of the two non-rows.
fn dispatch(service: &ValidationService, line: &str) -> (&'static str, Outcome) {
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => return (INVALID, Err(format!("bad request json: {e}"))),
    };
    let Some(op) = req.get("op").and_then(Json::as_str) else {
        return (INVALID, Err("missing \"op\" field".into()));
    };
    match OP_TABLE.binary_search_by(|row| row.0.cmp(op)) {
        Ok(row) => (OP_TABLE[row].0, OP_TABLE[row].1(service, req)),
        Err(_) => (UNKNOWN, Err(format!("unknown op {op:?}"))),
    }
}

fn ok(members: Members) -> Outcome {
    Ok((members, LineOutcome::default()))
}

/// The failure shape of a reply: `overloaded` adds the marker by which
/// clients tell "retry later" apart from "your request was wrong".
fn error_json(message: String, overloaded: bool) -> Json<'static> {
    let mut members = vec![("ok", Json::Bool(false)), ("error", Json::str(message))];
    if overloaded {
        members.push(("overloaded", Json::Bool(true)));
    }
    Json::obj(members)
}

/// Render a bare protocol-error line into a caller-owned buffer. Serve
/// loops use this for transport-level failures (oversized or undecodable
/// request frames) that never reach [`handle_line_into`], so those
/// responses share the exact `{"ok":false,"error":…}` shape of every
/// other failure.
pub(crate) fn render_error_into(message: &str, out: &mut String) {
    error_json(message.to_string(), false).dump_into(out);
}

/// Render an overload-shed error line. The serve loop sends it when
/// admission control rejects a connection, or when a pipeline overflows
/// its cap:
///
/// ```text
/// {"ok":false,"error":"service at max_connections (2); connection rejected","overloaded":true}
/// ```
pub(crate) fn render_overloaded_into(message: &str, out: &mut String) {
    error_json(message.to_string(), true).dump_into(out);
}

/// A required string member of a request.
fn text<'a>(v: &'a Json, field: &str) -> Result<&'a str, String> {
    v.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field {field:?}"))
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

/// Move a required array member out of a request object.
fn take_array<'a>(v: Json<'a>, field: &str) -> Result<Vec<Json<'a>>, String> {
    if let Json::Obj(mut members) = v {
        if let Some(Json::Arr(items)) = members.remove(field) {
            return Ok(items);
        }
    }
    Err(format!("missing array field {field:?}"))
}

/// Owned variant for ingestion, where columns must outlive the request.
/// Consumes the parsed array, so each value is copied out of the frame
/// once (one that had an escape was decoded into its own `String` already
/// and is moved).
fn string_array(v: Json, field: &str) -> Result<Vec<String>, String> {
    take_array(v, field)?
        .into_iter()
        .map(|item| match item {
            Json::Str(s) => Ok(s.into_owned()),
            _ => Err(format!("{field:?} must contain only strings")),
        })
        .collect()
}

/// An optional integer member no smaller than `min`.
fn at_least(v: &Json, field: &str, min: usize) -> Result<Option<u64>, String> {
    match v.get(field).map(Json::as_usize) {
        None => Ok(None),
        Some(Some(n)) if n >= min => Ok(Some(n as u64)),
        Some(_) => Err(format!("{field:?} must be an integer >= {min}")),
    }
}

fn parse_variant(v: &Json) -> Result<Option<Variant>, String> {
    match v.get("variant").and_then(Json::as_str) {
        None | Some("auto") => Ok(None),
        Some(name) => name.parse().map(Some),
    }
}

fn report_members(r: &ValidationReport) -> Members {
    vec![
        ("checked", Json::Num(r.checked as f64)),
        ("nonconforming", Json::Num(r.nonconforming as f64)),
        ("nonconforming_frac", Json::Num(r.nonconforming_frac)),
        ("p_value", Json::Num(r.p_value)),
        ("flagged", Json::Bool(r.flagged)),
    ]
}

/// What `infer`, `rule` and `catalog` all say of a catalog entry; `rule`
/// and `catalog` add when it was created, `infer` and `rule` its wire form.
fn entry_members(e: &CatalogEntry) -> Members {
    let kind = match e.rule {
        AnyRule::Pattern(_) => "pattern",
        AnyRule::Numeric(_) => "numeric",
        AnyRule::Dictionary(_) => "dictionary",
    };
    vec![
        ("rule", Json::str(e.name.clone())),
        ("kind", Json::str(kind)),
        ("variant", Json::str(e.variant.clone())),
        ("describe", Json::str(e.rule.describe())),
    ]
}

fn created_unix(e: &CatalogEntry) -> (&'static str, Json<'static>) {
    ("created_unix", Json::Num(e.created_unix as f64))
}

fn wire(e: &CatalogEntry) -> (&'static str, Json<'static>) {
    ("wire", Json::str(e.rule.to_wire()))
}

/// Where and why a value failed a rule: what an `explain` reply and a
/// `metrics` exemplar both say.
fn failure_members(e: Explanation, members: &mut Members) {
    members.push(("reason", Json::str(e.reason)));
    if let Some(at) = e.failed_at {
        members.push(("failed_at", Json::Num(at as f64)));
    }
    if let Some((start, end)) = e.span {
        members.push((
            "span",
            Json::Arr(vec![Json::Num(start as f64), Json::Num(end as f64)]),
        ));
    }
    if let Some(expected) = e.expected {
        members.push(("expected", Json::str(expected)));
    }
    if let Some(prefix) = e.matched_prefix {
        members.push(("matched_prefix", Json::str(prefix)));
    }
}

/// Finish a `persist` / `stats` / `metrics` reply: in durable mode it
/// carries the [`crate::DurabilitySnapshot`] as its `durability` member.
fn with_durability(service: &ValidationService, mut members: Members) -> Outcome {
    if let Some(d) = service.durability() {
        let durability = Json::obj([
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
            (
                "wal_bytes_since_checkpoint",
                Json::Num(d.wal_bytes_since_checkpoint as f64),
            ),
            (
                "checkpoint_image_bytes",
                Json::Num(d.checkpoint_image_bytes as f64),
            ),
            ("last_checkpoint_ms", Json::Num(d.last_checkpoint_ms)),
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
        ]);
        members.push(("durability", durability));
    }
    ok(members)
}

fn ping(_: &ValidationService, _: Json) -> Outcome {
    ok(vec![("pong", Json::Bool(true))])
}

fn ingest(service: &ValidationService, req: Json) -> Outcome {
    let cols = take_array(req, "columns")?;
    let mut columns = Vec::with_capacity(cols.len());
    for (i, c) in cols.into_iter().enumerate() {
        let name = match c.get("name").and_then(Json::as_str) {
            Some(name) => name.to_string(),
            None => format!("ingest-{i}"),
        };
        let values = string_array(c, "values").map_err(|e| format!("column {i}: {e}"))?;
        columns.push(owned_column(&name, values));
    }
    let r = service.ingest(&columns)?;
    ok(vec![
        ("columns_added", Json::Num(r.columns_added as f64)),
        ("delta_patterns", Json::Num(r.delta_patterns as f64)),
        ("touched_shards", Json::Num(r.touched_shards as f64)),
        ("total_columns", Json::Num(r.total_columns as f64)),
        ("total_patterns", Json::Num(r.total_patterns as f64)),
    ])
}

fn infer(service: &ValidationService, req: Json) -> Outcome {
    let (name, values) = (text(&req, "rule")?, str_array(&req, "values")?);
    let entry = service.infer_rule(name, &values, parse_variant(&req)?)?;
    let mut members = entry_members(&entry);
    members.push(wire(&entry));
    ok(members)
}

fn validate(service: &ValidationService, req: Json) -> Outcome {
    let (name, values) = (text(&req, "rule")?, str_array(&req, "values")?);
    ok(report_members(&service.validate(name, &values)?))
}

fn catalog(service: &ValidationService, _: Json) -> Outcome {
    let rules: Vec<Json> = service
        .catalog_entries()
        .iter()
        .map(|e| {
            let mut members = entry_members(e);
            members.push(created_unix(e));
            Json::obj(members)
        })
        .collect();
    ok(vec![
        ("count", Json::Num(rules.len() as f64)),
        ("rules", Json::Arr(rules)),
    ])
}

fn rule(service: &ValidationService, req: Json) -> Outcome {
    let entry = service.rule(text(&req, "name")?)?;
    let mut members = entry_members(&entry);
    members.extend([created_unix(&entry), wire(&entry)]);
    ok(members)
}

fn delete_rule(service: &ValidationService, req: Json) -> Outcome {
    let name = text(&req, "name")?;
    service.delete_rule(name)?;
    ok(vec![("deleted", Json::str(name.to_string()))])
}

fn classify(service: &ValidationService, req: Json) -> Outcome {
    // A batch of "values", or a single "value" for interactive probing.
    let values = match req.get("values") {
        Some(_) => str_array(&req, "values")?,
        None => match req.get("value").and_then(Json::as_str) {
            Some(value) => vec![value],
            None => return Err("missing array field \"values\" (or string field \"value\")".into()),
        },
    };
    let results: Vec<Json> = service
        .classify_batch(&values)
        .into_iter()
        .zip(&values)
        .map(|(outcome, value)| {
            let mut members = vec![
                ("value", Json::str(value.to_string())),
                (
                    "rules",
                    Json::Arr(outcome.matches.into_iter().map(Json::str).collect()),
                ),
            ];
            if let Some(best) = outcome.best {
                members.push(("best", Json::str(best)));
            }
            Json::obj(members)
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

fn explain(service: &ValidationService, req: Json) -> Outcome {
    let (name, value) = (text(&req, "rule")?, text(&req, "value")?);
    let outcome = service.explain(name, value)?;
    let mut members = vec![
        ("rule", Json::str(name.to_string())),
        ("value", Json::str(value.to_string())),
        ("conforms", Json::Bool(outcome.conforms)),
        ("describe", Json::str(outcome.describe)),
    ];
    if let Some(e) = outcome.explanation {
        failure_members(e, &mut members);
    }
    if let Some((rule, distance)) = outcome.suggestion {
        members.push((
            "suggestion",
            Json::obj([
                ("rule", Json::str(rule)),
                ("distance", Json::Num(distance as f64)),
            ]),
        ));
    }
    ok(members)
}

fn window_json(w: &WindowSnapshot) -> Json<'static> {
    Json::obj([
        ("validations", Json::Num(w.validations as f64)),
        ("flagged", Json::Num(w.flagged as f64)),
        ("checked", Json::Num(w.checked as f64)),
        ("nonconforming", Json::Num(w.nonconforming as f64)),
        ("flag_rate", Json::Num(w.flag_rate())),
    ])
}

fn exemplar_json(x: FailureExemplar) -> Json<'static> {
    let mut members = vec![("value", Json::str(x.value))];
    let failure = Explanation {
        reason: x.reason,
        failed_at: x.failed_at,
        span: x.span,
        expected: x.expected,
        matched_prefix: None,
    };
    failure_members(failure, &mut members);
    Json::obj(members)
}

fn metrics(service: &ValidationService, _: Json) -> Outcome {
    // Snapshot everything first; serialization (and the serve loop's
    // socket write) then runs with no service lock held.
    let telemetry = service.telemetry();
    let rules: Vec<Json> = telemetry
        .rule_snapshots()
        .into_iter()
        .map(|r| {
            let exemplars: Vec<Json> = r.exemplars.into_iter().map(exemplar_json).collect();
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
    let members = vec![
        ("rules", Json::Arr(rules)),
        ("ops", Json::Arr(ops)),
        (
            "index_generation",
            Json::Num(service.index_generation() as f64),
        ),
        ("window_millis", Json::Num(telemetry.window_millis() as f64)),
        ("overload", overload),
    ];
    with_durability(service, members)
}

fn watch(_: &ValidationService, req: Json) -> Outcome {
    let interval_ms = at_least(&req, "interval_ms", 10)?.unwrap_or(1_000);
    let frames = at_least(&req, "frames", 1)?;
    let rules = match req.get("rules") {
        None => None,
        Some(_) => {
            let names = str_array(&req, "rules")?;
            Some(names.into_iter().map(str::to_string).collect())
        }
    };
    let mut members = vec![
        ("watching", Json::Bool(true)),
        ("interval_ms", Json::Num(interval_ms as f64)),
    ];
    if let Some(n) = frames {
        members.push(("frames", Json::Num(n as f64)));
    }
    let watch = WatchParams {
        interval: Duration::from_millis(interval_ms),
        frames,
        rules,
    };
    let next = LineOutcome {
        watch: Some(watch),
        ..LineOutcome::default()
    };
    Ok((members, next))
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

fn persist(service: &ValidationService, _: Json) -> Outcome {
    service.persist()?;
    with_durability(service, vec![("persisted", Json::Bool(true))])
}

fn stats(service: &ValidationService, _: Json) -> Outcome {
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
    let members = vec![
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
        ("catalog_rules", Json::Num(service.catalog_len() as f64)),
        (
            "catalog_generation",
            Json::Num(service.classifier_generation() as f64),
        ),
    ];
    with_durability(service, members)
}

fn shutdown(service: &ValidationService, _: Json) -> Outcome {
    service.request_shutdown();
    let next = LineOutcome {
        shutdown: true,
        ..LineOutcome::default()
    };
    Ok((vec![("bye", Json::Bool(true))], next))
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
