//! The oracle: what the service must answer, worked out by direct engine
//! calls, and the canonical form both sides are reduced to.
//!
//! An *answer* is a 64-bit digest of the fields of a reply that are a
//! function of the request and of the state the issuing connection can
//! know: `validate` → `ok`, `flagged`, `nonconforming`; `classify` → the
//! rule list; `ingest` → `columns_added`, `delta_patterns`,
//! `touched_shards` (not the running totals, which depend on what other
//! connections have ingested meanwhile — those are compared once, at the
//! end); `infer` → `ok` and the rule's wire string; `delete_rule` → `ok`.
//! Error texts are not compared: an expected `ok:false` (no rule
//! inferable, unknown rule) is correct when the oracle fails too. A shed
//! (`overloaded`) reply never equals an oracle answer.

use crate::inputs::FrameKind;
use crate::json::{self, Value};
use crate::stats::Fnv;
use av_core::Variant;
use av_corpus::Column;
use av_service::{owned_column, ValidationService};

/// The answer of a reply that was shed, malformed, or missing.
pub const NO_ANSWER: u64 = 0;

fn base(kind: FrameKind, ok: bool) -> Fnv {
    Fnv::new().num(kind as u64).num(ok as u64)
}

pub fn validate_answer<S: AsRef<str>>(
    service: &ValidationService,
    rule: &str,
    values: &[S],
) -> u64 {
    match service.validate(rule, values) {
        Ok(r) => {
            base(FrameKind::Validate, true)
                .num(r.flagged as u64)
                .num(r.nonconforming as u64)
                .0
        }
        Err(_) => base(FrameKind::Validate, false).0,
    }
}

fn rules_answer<'a>(rules: impl Iterator<Item = &'a str>) -> u64 {
    rules
        .fold(base(FrameKind::Classify, true), |h, r| h.field(r))
        .0
}

pub fn classify_answer(service: &ValidationService, value: &str) -> u64 {
    rules_answer(
        service
            .classify_value(value)
            .matches
            .iter()
            .map(String::as_str),
    )
}

fn ingest_answer(service: &ValidationService, columns: &[Column]) -> u64 {
    match service.ingest(columns) {
        Ok(r) => {
            base(FrameKind::Ingest, true)
                .num(r.columns_added)
                .num(r.delta_patterns as u64)
                .num(r.touched_shards as u64)
                .0
        }
        Err(_) => base(FrameKind::Ingest, false).0,
    }
}

fn infer_answer(service: &ValidationService, rule: &str, train: &[String], basic: bool) -> u64 {
    match service.infer_rule(rule, train, basic.then_some(Variant::Fmdv)) {
        Ok(entry) => base(FrameKind::Infer, true).field(&entry.rule.to_wire()).0,
        Err(_) => base(FrameKind::Infer, false).0,
    }
}

fn delete_answer(service: &ValidationService, rule: &str) -> u64 {
    base(FrameKind::Delete, service.delete_rule(rule).is_ok()).0
}

fn num(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_f64).map(|n| n as u64)
}

/// The answer carried by one reply line.
pub fn response_answer(kind: FrameKind, line: &str) -> u64 {
    let Ok(v) = json::parse(line) else {
        return NO_ANSWER;
    };
    let Some(ok) = v.get("ok").and_then(Value::as_bool) else {
        return NO_ANSWER;
    };
    if v.get("overloaded").is_some() {
        return NO_ANSWER;
    }
    let h = base(kind, ok);
    if !ok {
        return h.0;
    }
    let answer = match kind {
        FrameKind::Validate => v
            .get("flagged")
            .and_then(Value::as_bool)
            .zip(num(&v, "nonconforming"))
            .map(|(flagged, n)| h.num(flagged as u64).num(n).0),
        FrameKind::Classify => v
            .get("results")
            .and_then(Value::as_arr)
            .and_then(|r| r.first())
            .and_then(|r| r.get("rules"))
            .and_then(Value::as_arr)
            .map(|rules| rules_answer(rules.iter().filter_map(Value::as_str))),
        FrameKind::Ingest => num(&v, "columns_added")
            .zip(num(&v, "delta_patterns"))
            .zip(num(&v, "touched_shards"))
            .map(|((a, b), c)| h.num(a).num(b).num(c).0),
        FrameKind::Infer => v.get("wire").and_then(Value::as_str).map(|w| h.field(w).0),
        FrameKind::Delete | FrameKind::Ping => Some(h.0),
    };
    answer.unwrap_or(NO_ANSWER)
}

/// A request frame taken apart by the ledger's own parser, ready for the
/// engine call that serves it. Holding the values here keeps request
/// decoding out of what the engine rung times.
pub enum Request {
    Validate {
        rule: String,
        values: Vec<String>,
    },
    Classify {
        value: String,
    },
    Ingest {
        columns: Vec<Column>,
    },
    /// `basic`: the frame asks for plain FMDV (`"variant":"fmdv"`).
    Infer {
        rule: String,
        train: Vec<String>,
        basic: bool,
    },
    Delete {
        rule: String,
    },
    Ping,
}

fn strings(v: Option<&Value>) -> Vec<String> {
    v.and_then(Value::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default()
}

impl Request {
    /// Decode a frame this benchmark generated (panics on anything else:
    /// that is a bug in the generator, not a measurement).
    pub fn decode(frame: &str) -> Request {
        let v = json::parse(frame.trim_end()).expect("generated frames are valid JSON");
        let text = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("generated frame lacks {key:?}"))
                .to_string()
        };
        match text("op").as_str() {
            "validate" => Request::Validate {
                rule: text("rule"),
                values: strings(v.get("values")),
            },
            "classify" => Request::Classify {
                value: text("value"),
            },
            "ingest" => Request::Ingest {
                columns: v
                    .get("columns")
                    .and_then(Value::as_arr)
                    .expect("ingest frames carry columns")
                    .iter()
                    .map(|c| {
                        let name = c.get("name").and_then(Value::as_str).unwrap_or("c");
                        owned_column(name, strings(c.get("values")))
                    })
                    .collect(),
            },
            "infer" => Request::Infer {
                rule: text("rule"),
                train: strings(v.get("values")),
                basic: v.get("variant").and_then(Value::as_str) == Some("fmdv"),
            },
            "delete_rule" => Request::Delete { rule: text("name") },
            "ping" => Request::Ping,
            other => panic!("generated frame has unknown op {other:?}"),
        }
    }

    /// Serve the request by the engine call the protocol layer would
    /// make, and reduce the result to its answer.
    pub fn call(&self, service: &ValidationService) -> u64 {
        match self {
            Request::Validate { rule, values } => validate_answer(service, rule, values),
            Request::Classify { value } => classify_answer(service, value),
            Request::Ingest { columns } => ingest_answer(service, columns),
            Request::Infer { rule, train, basic } => infer_answer(service, rule, train, *basic),
            Request::Delete { rule } => delete_answer(service, rule),
            Request::Ping => base(FrameKind::Ping, true).0,
        }
    }
}

/// What two services must agree on after the same operations, in any
/// interleaving across connections: index totals, an order-free digest
/// of every pattern's statistics, and the catalog as wire strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDigest {
    pub columns: u64,
    pub patterns: usize,
    pub index: u64,
    pub catalog: Vec<(String, String)>,
}

impl StateDigest {
    pub fn of(service: &ValidationService) -> StateDigest {
        let snapshot = service.snapshot();
        let index = snapshot.entries().fold(0u64, |acc, (fp, s)| {
            acc.wrapping_add(Fnv::new().num(fp).num(s.cov).num(s.fpr.to_bits()).0)
        });
        let mut catalog: Vec<(String, String)> = service
            .catalog_entries()
            .into_iter()
            .map(|e| (e.name, e.rule.to_wire()))
            .collect();
        catalog.sort();
        StateDigest {
            columns: snapshot.num_columns,
            patterns: snapshot.len(),
            index,
            catalog,
        }
    }

    /// How many acknowledged effects `self` (the recovered state) lacks
    /// or has in excess of `want`: missing columns, and catalog entries
    /// that differ either way.
    pub fn lost_against(&self, want: &StateDigest) -> u64 {
        let missing_columns = want.columns.abs_diff(self.columns);
        let ours: std::collections::BTreeSet<_> = self.catalog.iter().collect();
        let theirs: std::collections::BTreeSet<_> = want.catalog.iter().collect();
        let catalog_diff = ours.symmetric_difference(&theirs).count() as u64;
        let index_diff = (missing_columns == 0
            && (self.index != want.index || self.patterns != want.patterns))
            as u64;
        missing_columns + catalog_diff + index_diff
    }
}
