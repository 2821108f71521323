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
//! fields, calls the engine and writes the reply's members straight into
//! the reply buffer in ascending key order (no reply tree or map), and
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
//! | `metrics` | — | per-rule and per-op telemetry |
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
//! **`metrics`** dumps the telemetry: for each cataloged rule validated
//! since it was inferred, lifetime and sliding-window conformance counters
//! with alert flags and recent failure exemplars, plus per-op
//! request/error counters and latency histograms:
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
//! When the service runs on a data directory (`av-serve --data DIR`, or
//! [`crate::ServiceConfig::durable`] + [`crate::ValidationService::open`]),
//! `persist`, `stats` and `metrics` responses carry a `"durability"`
//! object. For `persist` it describes the incremental checkpoint that was
//! just written; for the read ops it is the live WAL/checkpoint state:
//!
//! ```text
//! → {"op":"persist"}
//! ← {"ok":true,"persisted":true,"durability":{
//!    "checkpoint_generation":3,"wal_segments":1,"wal_bytes":0,
//!    "records_since_checkpoint":0,"wal_bytes_since_checkpoint":0,
//!    "checkpoint_image_bytes":2216448,"last_checkpoint_ms":13.482,
//!    "replayed_records":2,"truncated_tail_bytes":0,"quarantined_files":0,
//!    "skipped_manifests":0,"skipped_records":0,"checkpoints_completed":1,
//!    "checkpoint_failures":0}}
//! ```
//!
//! `replayed_records` / `truncated_tail_bytes` / `quarantined_files`
//! describe what the last recovery had to do (how many WAL records were
//! replayed past the checkpoint, whether a torn final frame was dropped,
//! whether any corrupt shard file was set aside into `quarantine/`, and
//! `skipped_manifests`: how many newer checkpoint manifests were damaged,
//! so that recovery loaded an older generation);
//! `records_since_checkpoint` / `wal_bytes_since_checkpoint` are the WAL
//! tail the *next* recovery would replay. The service checkpoints on its
//! own once `wal_bytes_since_checkpoint` reaches `checkpoint_image_bytes`
//! (the last checkpoint's shard files plus catalog), which bounds that
//! tail by one image; `last_checkpoint_ms` is what the last checkpoint
//! took, and `checkpoint_failures` counts auto-checkpoints that failed
//! after their trigger op was already safely logged.

use crate::catalog::CatalogEntry;
use crate::engine::{owned_column, ValidationService};
use crate::json::{parse, write_escaped, write_num, Json, ObjWriter};
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

/// What a handler returns once it has written the reply's members: what
/// the serve loop must do next, or the message of the
/// `{"ok":false,"error":…}` reply that replaces them. Field accessors
/// return the same error type and a [`crate::ServiceError`] converts to its
/// `Display` text, so a handler's failure paths are all `?`, turned into an
/// error reply in one place ([`handle_line_into`]).
type Outcome = Result<LineOutcome, String>;

/// One op: read the request's fields, call the engine, write the reply's
/// members.
type Handler = fn(&ValidationService, Json<'_>, &mut ObjWriter<'_, '_>) -> Outcome;

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

/// Handle one JSONL request line, writing the response into a
/// caller-owned buffer (cleared first). Serve loops call this with one
/// long-lived buffer per connection. The handler writes the reply's
/// members straight into it — no reply tree or map is built — so a
/// warmed `classify` or `ping` allocates only for the parsed request.
/// Every dispatch, reply written, is folded into the per-op telemetry
/// (request count, error count, handling latency).
pub fn handle_line_into(service: &ValidationService, line: &str, out: &mut String) -> LineOutcome {
    let start = std::time::Instant::now();
    let (op, outcome) = dispatch(service, line, out);
    service
        .telemetry()
        .record_op(op, start.elapsed(), outcome.is_ok());
    outcome.unwrap_or_else(|message| {
        render_error(&message, false, out);
        LineOutcome::default()
    })
}

/// Parse the frame, find its op's row and run it into `out`. Returns the
/// name the frame is counted under: the row's, or one of the two non-rows.
fn dispatch(service: &ValidationService, line: &str, out: &mut String) -> (&'static str, Outcome) {
    let req = match parse(line) {
        Ok(v) => v,
        Err(e) => return (INVALID, Err(format!("bad request json: {e}"))),
    };
    let Some(op) = req.get("op").and_then(Json::as_str) else {
        return (INVALID, Err("missing \"op\" field".into()));
    };
    match OP_TABLE.binary_search_by(|row| row.0.cmp(op)) {
        Ok(row) => {
            let (name, handler) = OP_TABLE[row];
            (
                name,
                ObjWriter::reply(out, true, |reply| handler(service, req, reply)),
            )
        }
        Err(_) => (UNKNOWN, Err(format!("unknown op {op:?}"))),
    }
}

fn ok() -> Outcome {
    Ok(LineOutcome::default())
}

/// The failure shape of a reply into `out` (cleared first): `overloaded`
/// adds the marker by which clients tell "retry later" apart from "your
/// request was wrong".
fn render_error(message: &str, overloaded: bool, out: &mut String) {
    ObjWriter::reply(out, false, |reply| {
        reply.str("error", message);
        if overloaded {
            reply.flag("overloaded", true);
        }
    });
}

/// Render a bare protocol-error line into a caller-owned buffer. Serve
/// loops use this for transport-level failures (oversized or undecodable
/// request frames) that never reach [`handle_line_into`], so those
/// responses share the exact `{"ok":false,"error":…}` shape of every
/// other failure.
pub(crate) fn render_error_into(message: &str, out: &mut String) {
    render_error(message, false, out);
}

/// Render an overload-shed error line. The serve loop sends it when
/// admission control rejects a connection, or when a pipeline overflows
/// its cap:
///
/// ```text
/// {"ok":false,"error":"service at max_connections (2); connection rejected","overloaded":true}
/// ```
pub(crate) fn render_overloaded_into(message: &str, out: &mut String) {
    render_error(message, true, out);
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

fn report_members(r: &ValidationReport, reply: &mut ObjWriter) {
    reply.num("checked", r.checked as f64);
    reply.flag("flagged", r.flagged);
    reply.num("nonconforming", r.nonconforming as f64);
    reply.num("nonconforming_frac", r.nonconforming_frac);
    reply.num("p_value", r.p_value);
}

/// What `infer`, `rule` and `catalog` all say of a catalog entry; `rule`
/// and `catalog` add when it was created, `infer` and `rule` its wire form.
fn entry_members(e: &CatalogEntry, created: bool, wire: bool, obj: &mut ObjWriter) {
    let kind = match *e.rule {
        AnyRule::Pattern(_) => "pattern",
        AnyRule::Numeric(_) => "numeric",
        AnyRule::Dictionary(_) => "dictionary",
    };
    if created {
        obj.num("created_unix", e.created_unix as f64);
    }
    obj.str("describe", &e.rule.describe());
    obj.str("kind", kind);
    obj.str("rule", &e.name);
    obj.str("variant", &e.variant);
    if wire {
        obj.str("wire", &e.rule.to_wire());
    }
}

/// Where and why a value failed a rule: what an `explain` reply and a
/// `metrics` exemplar both say. An `explain` reply's `rule` sorts among
/// these members, so it is written here too.
fn failure_members(e: Option<&Explanation>, rule: Option<&str>, obj: &mut ObjWriter) {
    if let Some(e) = e {
        if let Some(expected) = &e.expected {
            obj.str("expected", expected);
        }
        if let Some(at) = e.failed_at {
            obj.num("failed_at", at as f64);
        }
        if let Some(prefix) = &e.matched_prefix {
            obj.str("matched_prefix", prefix);
        }
        obj.str("reason", &e.reason);
    }
    if let Some(rule) = rule {
        obj.str("rule", rule);
    }
    if let Some((start, end)) = e.and_then(|e| e.span) {
        obj.arr("span", [start as f64, end as f64], write_num);
    }
}

/// A `persist` / `stats` / `metrics` reply's `durability` member: on a
/// data directory, the [`crate::DurabilitySnapshot`].
fn durability_member(service: &ValidationService, reply: &mut ObjWriter) {
    let Some(d) = service.durability() else {
        return;
    };
    reply.obj("durability", |o| {
        o.num("checkpoint_failures", d.checkpoint_failures as f64);
        o.num("checkpoint_generation", d.checkpoint_generation as f64);
        o.num("checkpoint_image_bytes", d.checkpoint_image_bytes as f64);
        o.num("checkpoints_completed", d.checkpoints_completed as f64);
        o.num("last_checkpoint_ms", d.last_checkpoint_ms);
        o.num("quarantined_files", d.quarantined_files as f64);
        o.num(
            "records_since_checkpoint",
            d.records_since_checkpoint as f64,
        );
        o.num("replayed_records", d.replayed_records as f64);
        o.num("skipped_manifests", d.skipped_manifests as f64);
        o.num("skipped_records", d.skipped_records as f64);
        o.num("truncated_tail_bytes", d.truncated_tail_bytes as f64);
        o.num("wal_bytes", d.wal_bytes as f64);
        o.num(
            "wal_bytes_since_checkpoint",
            d.wal_bytes_since_checkpoint as f64,
        );
        o.num("wal_segments", d.wal_segments as f64);
    });
}

fn ping(_: &ValidationService, _: Json, reply: &mut ObjWriter) -> Outcome {
    reply.flag("pong", true);
    ok()
}

fn ingest(service: &ValidationService, req: Json, reply: &mut ObjWriter) -> Outcome {
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
    reply.num("columns_added", r.columns_added as f64);
    reply.num("delta_patterns", r.delta_patterns as f64);
    reply.num("total_columns", r.total_columns as f64);
    reply.num("total_patterns", r.total_patterns as f64);
    reply.num("touched_shards", r.touched_shards as f64);
    ok()
}

fn infer(service: &ValidationService, req: Json, reply: &mut ObjWriter) -> Outcome {
    let (name, values) = (text(&req, "rule")?, str_array(&req, "values")?);
    let entry = service.infer_rule(name, &values, parse_variant(&req)?)?;
    entry_members(&entry, false, true, reply);
    ok()
}

fn validate(service: &ValidationService, req: Json, reply: &mut ObjWriter) -> Outcome {
    let (name, values) = (text(&req, "rule")?, str_array(&req, "values")?);
    report_members(&service.validate(name, &values)?, reply);
    ok()
}

fn catalog(service: &ValidationService, _: Json, reply: &mut ObjWriter) -> Outcome {
    let entries = service.catalog_entries();
    reply.num("count", entries.len() as f64);
    reply.arr("rules", &entries, |e, out| {
        ObjWriter::write(out, |o| entry_members(e, true, false, o));
    });
    ok()
}

fn rule(service: &ValidationService, req: Json, reply: &mut ObjWriter) -> Outcome {
    let entry = service.rule(text(&req, "name")?)?;
    entry_members(&entry, true, true, reply);
    ok()
}

fn delete_rule(service: &ValidationService, req: Json, reply: &mut ObjWriter) -> Outcome {
    let name = text(&req, "name")?;
    service.delete_rule(name)?;
    reply.str("deleted", name);
    ok()
}

/// Each value's conforming rules go from the automaton into the reply
/// under one hold of its lock, their names borrowed, never copied.
fn classify(service: &ValidationService, req: Json, reply: &mut ObjWriter) -> Outcome {
    // A batch of "values", or a single "value" for interactive probing.
    let (batch, single);
    let values: &[&str] = match req.get("values") {
        Some(_) => {
            batch = str_array(&req, "values")?;
            &batch
        }
        None => match req.get("value").and_then(Json::as_str) {
            Some(value) => {
                single = value;
                std::slice::from_ref(&single)
            }
            None => return Err("missing array field \"values\" (or string field \"value\")".into()),
        },
    };
    service.classify_with(|classifier| {
        reply.num("catalog_generation", classifier.generation() as f64);
        reply.arr("results", values, |value, out| {
            let rules = classifier.ranked(value);
            ObjWriter::write(out, |result| {
                if let Some(best) = rules.clone().next() {
                    result.str("best", best);
                }
                result.arr("rules", rules, write_escaped);
                result.str("value", value);
            });
        });
    });
    ok()
}

fn explain(service: &ValidationService, req: Json, reply: &mut ObjWriter) -> Outcome {
    let (name, value) = (text(&req, "rule")?, text(&req, "value")?);
    let outcome = service.explain(name, value)?;
    reply.flag("conforms", outcome.conforms);
    reply.str("describe", &outcome.describe);
    failure_members(outcome.explanation.as_ref(), Some(name), reply);
    if let Some((rule, distance)) = &outcome.suggestion {
        reply.obj("suggestion", |o| {
            o.num("distance", *distance as f64);
            o.str("rule", rule);
        });
    }
    reply.str("value", value);
    ok()
}

fn window_members(w: &WindowSnapshot, o: &mut ObjWriter) {
    o.num("checked", w.checked as f64);
    o.num("flag_rate", w.flag_rate());
    o.num("flagged", w.flagged as f64);
    o.num("nonconforming", w.nonconforming as f64);
    o.num("validations", w.validations as f64);
}

fn exemplar_members(x: &FailureExemplar, o: &mut ObjWriter) {
    let failure = Explanation {
        reason: x.reason.clone(),
        failed_at: x.failed_at,
        span: x.span,
        expected: x.expected.clone(),
        matched_prefix: None,
    };
    failure_members(Some(&failure), None, o);
    o.str("value", &x.value);
}

fn metrics(service: &ValidationService, _: Json, reply: &mut ObjWriter) -> Outcome {
    // Snapshot everything first; serialization (and the serve loop's
    // socket write) then runs with no service lock held.
    let telemetry = service.telemetry();
    let (rules, ops, overload) = (
        service.rule_snapshots(),
        telemetry.op_snapshots(),
        service.stats(),
    );
    durability_member(service, reply);
    reply.num("index_generation", service.index_generation() as f64);
    reply.arr("ops", &ops, |o, out| {
        ObjWriter::write(out, |op| {
            op.num("errors", o.errors as f64);
            op.arr(
                "latency_buckets",
                o.latency.buckets.iter().map(|&b| b as f64),
                write_num,
            );
            op.num("latency_count", o.latency.count as f64);
            op.num("latency_total_micros", o.latency.total_micros as f64);
            op.num("mean_micros", o.latency.mean_micros());
            op.str("op", &o.op);
            op.num("requests", o.requests as f64);
        });
    });
    reply.obj("overload", |o| {
        o.num("connections_rejected", overload.connections_rejected as f64);
        o.num("requests_shed", overload.requests_shed as f64);
        o.num("stalls_shed", overload.stalls_shed as f64);
    });
    reply.arr("rules", &rules, |r, out| {
        ObjWriter::write(out, |rule| {
            rule.flag("alert", r.alert);
            rule.num("checked", r.checked as f64);
            rule.arr("exemplars", &r.exemplars, |x, out| {
                ObjWriter::write(out, |o| exemplar_members(x, o));
            });
            rule.num("flagged", r.flagged as f64);
            rule.num("nonconforming", r.nonconforming as f64);
            rule.str("rule", &r.rule);
            rule.num("validations", r.validations as f64);
            rule.obj("window", |o| window_members(&r.window, o));
        });
    });
    reply.num("window_millis", telemetry.window_millis() as f64);
    ok()
}

fn watch(_: &ValidationService, req: Json, reply: &mut ObjWriter) -> Outcome {
    let interval_ms = at_least(&req, "interval_ms", 10)?.unwrap_or(1_000);
    let frames = at_least(&req, "frames", 1)?;
    let rules = match req.get("rules") {
        None => None,
        Some(_) => {
            let names = str_array(&req, "rules")?;
            Some(names.into_iter().map(str::to_string).collect())
        }
    };
    if let Some(n) = frames {
        reply.num("frames", n as f64);
    }
    reply.num("interval_ms", interval_ms as f64);
    reply.flag("watching", true);
    let watch = WatchParams {
        interval: Duration::from_millis(interval_ms),
        frames,
        rules,
    };
    Ok(LineOutcome {
        watch: Some(watch),
        ..LineOutcome::default()
    })
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
    let snapshots = service.rule_snapshots();
    let rules = snapshots.iter().filter(|r| match &params.rules {
        Some(wanted) => wanted.iter().any(|w| w == &r.rule),
        None => true,
    });
    out.clear();
    ObjWriter::write(out, |o| {
        o.num("elapsed_ms", elapsed.as_millis() as f64);
        o.num("frame", frame as f64);
        o.num("index_generation", service.index_generation() as f64);
        o.arr("rules", rules, |r, out| {
            ObjWriter::write(out, |rule| {
                rule.flag("alert", r.alert);
                rule.num("flag_rate", r.window.flag_rate());
                rule.num("flagged", r.flagged as f64);
                rule.str("rule", &r.rule);
                rule.num("validations", r.validations as f64);
                rule.num("window_checked", r.window.checked as f64);
                rule.num("window_flagged", r.window.flagged as f64);
                rule.num("window_nonconforming", r.window.nonconforming as f64);
                rule.num("window_validations", r.window.validations as f64);
            });
        });
    });
}

fn persist(service: &ValidationService, _: Json, reply: &mut ObjWriter) -> Outcome {
    service.persist()?;
    durability_member(service, reply);
    reply.flag("persisted", true);
    ok()
}

fn stats(service: &ValidationService, _: Json, reply: &mut ObjWriter) -> Outcome {
    let s = service.stats();
    let index = service.snapshot();
    let ops = service.telemetry().op_snapshots();
    reply.num("catalog_generation", service.classifier_generation() as f64);
    reply.num("catalog_rules", service.catalog_len() as f64);
    reply.num("classifications", s.classifications as f64);
    reply.num("columns_ingested", s.columns_ingested as f64);
    reply.num("connection_errors", s.connection_errors as f64);
    reply.num("connections_rejected", s.connections_rejected as f64);
    durability_member(service, reply);
    reply.num("flagged", s.flagged as f64);
    reply.num("frames_executed", s.frames_executed as f64);
    reply.num("index_columns", index.num_columns as f64);
    reply.num("index_generation", service.index_generation() as f64);
    reply.num("index_patterns", index.len() as f64);
    reply.num("index_shards", index.shard_count() as f64);
    reply.num("index_shards_copied", s.index_shards_copied as f64);
    reply.num("ingest_batches", s.ingest_batches as f64);
    reply.obj("ops", |by_op| {
        for o in &ops {
            by_op.obj(&o.op, |counts| {
                counts.num("errors", o.errors as f64);
                counts.num("requests", o.requests as f64);
            });
        }
    });
    reply.num("requests_shed", s.requests_shed as f64);
    reply.num("rules_inferred", s.rules_inferred as f64);
    reply.num("runs_dispatched", s.runs_dispatched as f64);
    reply.num("socket_writes", s.socket_writes as f64);
    reply.num("stalls_shed", s.stalls_shed as f64);
    reply.num("validations", s.validations as f64);
    ok()
}

fn shutdown(service: &ValidationService, _: Json, reply: &mut ObjWriter) -> Outcome {
    service.request_shutdown();
    reply.flag("bye", true);
    Ok(LineOutcome {
        shutdown: true,
        ..LineOutcome::default()
    })
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
