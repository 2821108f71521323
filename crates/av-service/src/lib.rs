//! # av-service — the long-running Auto-Validate service
//!
//! The paper deploys Auto-Validate as a production service: patterns are
//! mined offline from the data lake, and recurring pipeline feeds are
//! validated against cataloged rules on every run. This crate is that
//! deployment shape for the rest of the workspace:
//!
//! * **Shared live index** — readers take `Arc<PatternIndex>` **epoch**
//!   snapshots from an [`av_index::ShardedIndex`]; a snapshot is never
//!   written to once taken and never torn — taken during an ingest, it is
//!   exactly the pre- or post-ingest index — and taking one waits for
//!   nothing but a delta being applied. Validation reads the catalog, not
//!   the index, and waits for no ingest.
//! * **Incremental ingestion, O(delta)** — new corpus columns are
//!   profiled on the calling worker into an [`av_index::IndexDelta`] that
//!   splits into per-shard sub-deltas; the merge writes only to the
//!   fingerprint shards the delta touches, in place unless a live
//!   snapshot still shares one, so ingest cost tracks the delta, not the
//!   lake. Statistics stay bit-for-bit identical to a full rebuild
//!   (`av-index`'s fixed-point accumulators make the merge exact).
//! * **Persistent rule catalog** — rules are inferred once (FMDV and its
//!   fallbacks), named, logged and checkpointed with the index, and
//!   reloaded on restart, so a service restart never re-infers or loses a
//!   rule.
//! * **One rule namespace** — every served rule is a catalog rule,
//!   validated through a `dyn av_core::Validator` streaming session over
//!   borrowed `&str` values. The catalog automaton that `classify` scans
//!   is patched in the same step that writes the catalog, so it always
//!   names exactly the catalog's rules.
//! * **Crash-safe data directory** — a service opened on one
//!   ([`ServiceConfig::durable`] + [`ValidationService::open`]) CRC-frames,
//!   write-ahead logs and fsyncs every mutating op before it is
//!   acknowledged; `persist` writes an **incremental
//!   checkpoint** (only index shards touched since the last one are
//!   rewritten) and [`ValidationService::open`] recovers checkpoint +
//!   WAL tail in O(records since checkpoint) — a kill at any instant
//!   loses no acknowledged op. Corrupt shard files are quarantined,
//!   not fatal. See [`durable`] and the fault-injection matrix in
//!   `tests/crash_recovery.rs`.
//! * **JSONL protocol** — `av-serve` (in the root crate's `src/bin`)
//!   drives all of this over stdin/stdout or TCP; see [`protocol`].
//!
//! ## Quick start
//!
//! ```
//! use av_service::{ServiceConfig, ValidationService};
//! use av_corpus::{generate_lake, LakeProfile};
//!
//! let service = ValidationService::new(ServiceConfig::default());
//! // Ingest an initial corpus (here synthetic; in production, your lake).
//! let lake = generate_lake(&LakeProfile::tiny(), 42);
//! let columns: Vec<av_corpus::Column> = lake.columns().cloned().collect();
//! service.ingest(&columns).unwrap();
//!
//! // Infer and catalog a named rule, then validate a future feed.
//! let march: Vec<String> = (1..=28).map(|d| format!("2019-03-{d:02}")).collect();
//! service.infer_rule("feeds/date", &march, None).unwrap();
//! let april: Vec<String> = (1..=28).map(|d| format!("2019-04-{d:02}")).collect();
//! assert!(!service.validate("feeds/date", &april).unwrap().flagged);
//! let drifted: Vec<String> = (0..28).map(|i| format!("user-{i}")).collect();
//! assert!(service.validate("feeds/date", &drifted).unwrap().flagged);
//! ```

#[cfg(test)]
mod alloc_count;
pub mod catalog;
pub mod durable;
pub mod engine;
pub mod json;
pub(crate) mod lockorder;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use catalog::{CatalogEntry, RuleCatalog};
pub use durable::DurabilitySnapshot;
pub use engine::{
    owned_column, ClassifyOutcome, ExplainOutcome, IngestReport, ServiceConfig, ServiceError,
    ServiceStats, ValidationService,
};
pub use protocol::{handle_line, response_ok, Handled, LineOutcome, WatchParams};
pub use server::{
    serve_lines, serve_listener, serve_stdin, serve_tcp, std_listener, FaultKind, FaultListener,
    NetFaultPlan, NetListener, NetSocket,
};
pub use telemetry::{LatencySnapshot, OpSnapshot, ServiceTelemetry, TelemetryConfig};

/// The service is shared across threads by construction; keep it that way.
#[allow(dead_code)]
fn assert_service_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ValidationService>();
    assert_send_sync::<CatalogEntry>();
    assert_send_sync::<RuleCatalog>();
}
