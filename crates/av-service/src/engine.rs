//! The long-running validation engine: a shared pattern index behind
//! copy-on-write snapshots, a persistent rule catalog with its catalog
//! automaton, and incremental corpus ingestion.
//!
//! Concurrency model:
//!
//! * **Readers never see a torn index, and wait only for a delta's apply.**
//!   Every inference takes an `Arc<PatternIndex>` **epoch** snapshot from
//!   the [`ShardedIndex`] (one `RwLock` read to clone the `Arc`). An
//!   ingest applies its delta under that lock's write side, so a snapshot
//!   taken during an ingest sees either the whole pre-ingest index or the
//!   whole post-ingest index, and what it holds is never written to
//!   afterwards. The read may wait for the apply in progress (and any
//!   queued ahead of it): ~0.2 ms for a ten-column ingest, under 10 ms
//!   for a 2000-column bulk load (`PERF.md` Point 12). Only `infer_rule`,
//!   `stats`, `persist` and checkpoints take snapshots, on whichever
//!   thread runs the request; validation reads the catalog, not the
//!   index.
//! * **Ingestion costs what its delta costs.** New columns are profiled
//!   into an [`IndexDelta`] with no lock held (the expensive part), on the
//!   calling thread, with helper threads only for batches large enough to
//!   pay for them; the delta then splits into per-shard sub-deltas and is
//!   merged into the touched shards in place — O(delta), not O(index).
//! * **Copy only what a live snapshot still shares.** A touched shard
//!   that an in-flight `infer`, a running checkpoint or the last
//!   checkpoint's base still points to is cloned before the write, and the
//!   holder keeps the old one; `stats` counts those clones as
//!   `index_shards_copied`. Ingests are serialized by the epoch lock for
//!   the length of their apply — on a data directory by the log lock too,
//!   for their append and apply (`durable.rs` § Checkpoints).
//!
//! A service either lives in memory ([`ValidationService::new`]) or on a
//! data directory ([`ValidationService::open`]), and a data directory is
//! always durable: every mutating op is write-ahead logged before it is
//! acknowledged, and `persist` writes an incremental checkpoint.

use crate::catalog::{CatalogEntry, RuleCatalog, Slot};
use crate::durable::{self, Cut, Deletion, DurabilitySnapshot, DurableLog, Record};
use crate::lockorder;
use crate::telemetry::{FailureExemplar, RuleTelemetrySnapshot, ServiceTelemetry, TelemetryConfig};
use av_core::{
    AnyRule, AutoValidate, Explanation, FmdvConfig, InferError, RuleSet, ValidationReport,
    Validator, Variant,
};
use av_corpus::Column;
use av_durable::{DurableError, OsStorage, Storage};
use av_index::{DeltaError, IndexConfig, IndexDelta, PatternIndex, ShardedIndex};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Default cap on one JSONL request line read from a TCP client (1 MiB).
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 1 << 20;

/// Default admission cap on concurrently open TCP connections.
pub(crate) const DEFAULT_MAX_CONNECTIONS: usize = 10_000;

/// Default idle timeout for a TCP connection, in milliseconds (1 min).
pub(crate) const DEFAULT_IDLE_TIMEOUT_MS: u64 = 60_000;

/// Default WAL segment rotation threshold, in bytes (8 MiB).
pub(crate) const DEFAULT_WAL_SEGMENT_BYTES: u64 = 8 << 20;

/// Default write-stall deadline, in milliseconds: how long a connection
/// may make zero progress draining buffered response bytes before it is
/// shed (10 s, the old aggregate write budget).
pub(crate) const DEFAULT_STALL_DEADLINE_MS: u64 = 10_000;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Index build/profile knobs (τ, per-column pattern caps, threads,
    /// shard count).
    pub index: IndexConfig,
    /// Event loops the TCP serve loop runs, one thread each
    /// (0 → available parallelism, never under two).
    pub workers: usize,
    /// State directory, opened with [`ValidationService::open`]; `None`
    /// keeps the service in memory. It holds the checkpoint manifest, the
    /// shard and catalog files it references, and `wal/`.
    pub data_dir: Option<PathBuf>,
    /// Largest JSONL request line a TCP connection may send, in bytes
    /// (default [`DEFAULT_MAX_REQUEST_BYTES`]). A client that streams more
    /// without a newline gets a protocol error and is disconnected instead
    /// of growing the server's line buffer without bound.
    pub max_request_bytes: usize,
    /// Admission cap on concurrently open TCP connections (default 10 000,
    /// 0 → unlimited). A connection accepted over the cap receives one
    /// JSONL `overloaded` error frame and is closed immediately; see
    /// `ServiceStats::connections_rejected`.
    pub max_connections: usize,
    /// Close a TCP connection with no request activity for this many
    /// milliseconds (default 60 000, 0 → never). Slow-loris peers that
    /// trickle a frame without finishing it are bounded by the same clock;
    /// streaming `watch` connections are exempt while their stream is live.
    pub idle_timeout_ms: u64,
    /// Shed a TCP connection whose buffered response bytes make zero
    /// drain progress for this many milliseconds (default 10 000,
    /// 0 → never): a per-stall deadline, not a per-response write budget.
    pub stall_deadline_ms: u64,
    /// Drift-telemetry knobs: the sliding window's bucket width.
    pub telemetry: TelemetryConfig,
    /// WAL segment rotation threshold, in bytes (default 8 MiB). Read only
    /// with a data directory.
    pub wal_segment_bytes: u64,
    /// The storage layer all durability I/O goes through. Production code
    /// keeps the default [`OsStorage`]; fault-injection tests swap in
    /// [`av_durable::MemStorage`] to crash the service at every I/O point.
    pub storage: Arc<dyn Storage>,
    /// Pin the `created` timestamp of inferred rules (seconds since the
    /// Unix epoch) instead of reading the wall clock — recovery harnesses
    /// use this so a replayed rule is byte-identical to the original.
    pub rule_clock_unix: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            index: IndexConfig::default(),
            workers: 0,
            data_dir: None,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            max_connections: DEFAULT_MAX_CONNECTIONS,
            idle_timeout_ms: DEFAULT_IDLE_TIMEOUT_MS,
            stall_deadline_ms: DEFAULT_STALL_DEADLINE_MS,
            telemetry: TelemetryConfig::default(),
            wal_segment_bytes: DEFAULT_WAL_SEGMENT_BYTES,
            storage: Arc::new(OsStorage),
            rule_clock_unix: None,
        }
    }
}

impl ServiceConfig {
    /// Config persisting under `dir`, for [`ValidationService::open`]:
    /// every mutating op is write-ahead logged before it is acknowledged,
    /// and checkpoints are incremental.
    pub fn durable(dir: impl Into<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            data_dir: Some(dir.into()),
            ..Default::default()
        }
    }
}

/// Errors surfaced by service operations.
#[derive(Debug)]
pub enum ServiceError {
    /// No rule with that name in the catalog.
    UnknownRule(String),
    /// Rule inference failed.
    Infer(InferError),
    /// An ingested delta could not merge (τ mismatch).
    Delta(DeltaError),
    /// Persistence requested but the service has no data directory.
    NoDataDir,
    /// Durability I/O failed (WAL append, checkpoint, or recovery). A
    /// poisoned WAL rejects mutating ops until a checkpoint rotates it.
    Durable(DurableError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownRule(n) => write!(f, "unknown rule {n:?}"),
            ServiceError::Infer(e) => write!(f, "inference failed: {e}"),
            ServiceError::Delta(e) => write!(f, "delta merge failed: {e}"),
            ServiceError::NoDataDir => write!(f, "service has no data directory configured"),
            ServiceError::Durable(e) => write!(f, "durability failure: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The wire's error text is the error's `Display`, so a protocol handler's
/// `?` turns a failed engine call into its `{"ok":false,"error":…}` reply.
impl From<ServiceError> for String {
    fn from(e: ServiceError) -> String {
        e.to_string()
    }
}

impl From<InferError> for ServiceError {
    fn from(e: InferError) -> Self {
        ServiceError::Infer(e)
    }
}

impl From<DeltaError> for ServiceError {
    fn from(e: DeltaError) -> Self {
        ServiceError::Delta(e)
    }
}

impl From<DurableError> for ServiceError {
    fn from(e: DurableError) -> Self {
        ServiceError::Durable(e)
    }
}

/// What one ingest call changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReport {
    /// Columns profiled in this batch.
    pub columns_added: u64,
    /// Distinct patterns contributed by the batch (pre-merge).
    pub delta_patterns: usize,
    /// Index shards the delta has entries for — only these were written
    /// to; every other shard is shared with the previous epoch.
    pub touched_shards: usize,
    /// Live corpus size after the merge.
    pub total_columns: u64,
    /// Live distinct-pattern count after the merge.
    pub total_patterns: usize,
}

/// Why a value failed (or passed) a named rule, plus a repair hint — the
/// payload behind the protocol's `explain` op.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainOutcome {
    /// Did the value conform? (`true` means every other field is empty.)
    pub conforms: bool,
    /// The rule's self-description.
    pub describe: String,
    /// Positional failure detail from the rule's [`Validator::explain`]
    /// (None for conforming values, or rules with no detail to give).
    pub explanation: Option<Explanation>,
    /// The nearest *other* catalog rule the value does conform to, ranked
    /// by token-program edit distance from the failing rule — the "did the
    /// feed swap columns?" hint. `(rule name, distance)`.
    pub suggestion: Option<(String, usize)>,
}

/// One value classified against the whole rule catalog in a single scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifyOutcome {
    /// Every catalog rule the value conforms to, ranked most-specific-first
    /// (dictionaries, then patterns by estimated FPR, then numeric ranges;
    /// ties break on name).
    pub matches: Vec<String>,
    /// The top-ranked match, when any rule accepted the value.
    pub best: Option<String>,
}

/// The catalog automaton, read for [`ValidationService::classify_with`]
/// under the catalog's read guard, with this thread's ranking buffer.
pub(crate) struct Classifier<'a> {
    set: &'a RuleSet,
    hits: Vec<u32>,
    /// Values classified, for the `classifications` counter.
    classified: u64,
}

thread_local! {
    /// The ranking buffer a thread's classifications reuse, so a warm
    /// `classify` allocates none.
    static HITS: std::cell::Cell<Vec<u32>> = const { std::cell::Cell::new(Vec::new()) };
}

impl Classifier<'_> {
    /// Update generation of the automaton.
    pub(crate) fn generation(&self) -> u64 {
        self.set.generation()
    }

    /// The rules `value` conforms to, most specific first
    /// ([`RuleSet::ranked`]).
    pub(crate) fn ranked(&mut self, value: &str) -> impl ExactSizeIterator<Item = &str> + Clone {
        self.classified += 1;
        self.set.ranked(value, &mut self.hits)
    }
}

/// Monotonic operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Corpus columns ingested over the service lifetime.
    pub columns_ingested: u64,
    /// Ingest batches merged.
    pub ingest_batches: u64,
    /// Index shards ingests had to clone before writing to them, because a
    /// snapshot (an in-flight `infer`, a checkpoint, the last checkpoint's
    /// base) still shared them. Ingest is O(delta) while this grows much
    /// slower than `ingest_batches` × the index's shard count.
    pub index_shards_copied: u64,
    /// Rules inferred.
    pub rules_inferred: u64,
    /// Columns validated.
    pub validations: u64,
    /// Validations that raised a flag.
    pub flagged: u64,
    /// Values classified against the whole catalog.
    pub classifications: u64,
    /// TCP connections that ended in an error: an oversized or
    /// undecodable frame, a reset, a peer shed at the stall deadline or
    /// abandoned undrained at shutdown, or a failed accept or poller
    /// registration. Counted by the serve loop instead of vanishing.
    pub connection_errors: u64,
    /// Connections turned away at the door by admission control
    /// (`ServiceConfig::max_connections`): each got one `overloaded`
    /// error frame and was closed without being registered.
    pub connections_rejected: u64,
    /// Parsed request frames answered with an `overloaded` error because
    /// their connection already held `PIPELINE_CAP` (128) unanswered
    /// frames when they arrived.
    pub requests_shed: u64,
    /// Connections shed for making zero write-drain progress past
    /// `ServiceConfig::stall_deadline_ms` (peer stopped reading).
    pub stalls_shed: u64,
    /// Request frames executed by the TCP serve loop.
    pub frames_executed: u64,
    /// Runs of pipelined frames the TCP serve loop executed, however
    /// many turns each took, so `frames_executed / runs_dispatched` is the
    /// mean run length.
    pub runs_dispatched: u64,
    /// Socket `write` calls that moved response bytes
    /// (`frames_executed / socket_writes`: how well replies coalesce).
    pub socket_writes: u64,
}

/// The shared, long-running validation service. All methods take `&self`;
/// wrap in an [`Arc`] and hand clones to as many threads as you like.
pub struct ValidationService {
    config: ServiceConfig,
    index: ShardedIndex,
    /// Every per-rule state: entries, the catalog automaton and each
    /// validated rule's telemetry. The automaton is reached only through
    /// this lock's guard.
    catalog: RwLock<RuleCatalog>,
    /// The write-ahead log and its checkpoints; `None` for a service with
    /// no data directory. Every mutating op is one [`durable::commit`]
    /// through it.
    durable: Option<DurableLog>,
    telemetry: ServiceTelemetry,
    shutdown: AtomicBool,
    /// Condvar paired with the `shutdown` flag so sleepers
    /// ([`ValidationService::wait_shutdown_timeout`]) wake the instant a
    /// shutdown lands instead of polling it at some cadence.
    shutdown_signal: (Mutex<()>, Condvar),
    /// Wake callbacks registered by live serve loops (each typically a
    /// poller `notify`). Fired once, then drained, on `request_shutdown`.
    shutdown_wakers: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
    counters: Counters,
}

/// The live side of [`ServiceStats`], field for field.
#[derive(Default)]
struct Counters {
    columns_ingested: AtomicU64,
    ingest_batches: AtomicU64,
    index_shards_copied: AtomicU64,
    rules_inferred: AtomicU64,
    validations: AtomicU64,
    flagged: AtomicU64,
    classifications: AtomicU64,
    connection_errors: AtomicU64,
    connections_rejected: AtomicU64,
    requests_shed: AtomicU64,
    stalls_shed: AtomicU64,
    frames_executed: AtomicU64,
    runs_dispatched: AtomicU64,
    socket_writes: AtomicU64,
}

impl ValidationService {
    /// A fresh in-memory service with an empty index and catalog. A config
    /// with a data directory is refused: it is opened with
    /// [`ValidationService::open`], which recovers the directory and logs
    /// every op there.
    pub fn new(config: ServiceConfig) -> ValidationService {
        assert!(
            config.data_dir.is_none(),
            "a data directory is opened with ValidationService::open, not new"
        );
        ValidationService::empty(config)
    }

    /// A service with an empty index and catalog and no log yet.
    fn empty(config: ServiceConfig) -> ValidationService {
        let empty = PatternIndex::build(&[], &config.index);
        ValidationService {
            index: ShardedIndex::new(empty),
            catalog: RwLock::new(RuleCatalog::new()),
            durable: None,
            telemetry: ServiceTelemetry::new(config.telemetry.clone()),
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(()), Condvar::new()),
            shutdown_wakers: Mutex::new(Vec::new()),
            counters: Counters::default(),
            config,
        }
    }

    /// Open a service on the configured data directory (with none, an
    /// in-memory service like [`ValidationService::new`]'s). An empty or
    /// missing directory is a cold start — not an error.
    ///
    /// Opening is crash **recovery**: the newest checkpoint manifest that
    /// verifies is loaded (corrupt shard files are quarantined, not fatal;
    /// an index image written under a different shard count is resharded
    /// to the configured one), then the write-ahead log is replayed above
    /// the checkpoint's watermark — the log since the last checkpoint, which
    /// the auto-checkpoint trigger keeps to about one checkpoint image,
    /// never a corpus rebuild — so the recovered state equals a consistent
    /// prefix of the acknowledged operation history.
    pub fn open(config: ServiceConfig) -> Result<ValidationService, ServiceError> {
        let mut service = ValidationService::empty(config);
        let Some(dir) = service.config.data_dir.clone() else {
            return Ok(service);
        };
        let config = &service.config;
        let (log, catalog) = DurableLog::recover(
            &config.storage,
            &dir,
            config.wal_segment_bytes,
            &service.index,
        )?;
        service.durable = Some(log);
        *service.counters.columns_ingested.get_mut() = service.index.snapshot().num_columns;
        *service.catalog.get_mut().expect("catalog lock poisoned") = catalog;
        Ok(service)
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// A snapshot of the live index: the current epoch of shard `Arc`s.
    /// Snapshots are internally consistent and never written to — an
    /// ingest applies its delta under the epoch's write lock and copies
    /// whatever a snapshot still shares first, so a holder sees either the
    /// old or the new index, never a torn one. Taking one may wait for the
    /// apply in progress (see the module docs for the bound).
    pub fn snapshot(&self) -> Arc<PatternIndex> {
        self.index.snapshot()
    }

    /// Profile `columns` and merge them into the live index (§2.4's
    /// offline scan, applied incrementally). Returns what changed.
    ///
    /// Profiling streams `(fingerprint, support, len)` triples straight
    /// into per-worker accumulators — the calling thread pulls columns one
    /// at a time off a dynamic work queue, joined by up to
    /// `config.index.num_threads − 1` helpers when the batch is large
    /// enough to pay for them, so one giant column cannot strand the
    /// others — and no pattern is materialized unless `keep_patterns` asks
    /// for display strings.
    ///
    /// The merge writes to **only the shards the delta touches**, in place
    /// unless a snapshot still shares one (O(delta), not O(index));
    /// concurrent ingests take turns for the length of that apply. The
    /// resulting index is bit-identical for every schedule.
    pub fn ingest(&self, columns: &[Column]) -> Result<IngestReport, ServiceError> {
        let refs: Vec<&Column> = columns.iter().collect();
        // Expensive profiling happens with no lock held.
        let delta = IndexDelta::profile(&refs, &self.config.index);
        // A delta the index would refuse is refused before it is logged.
        self.index.check_delta(&delta)?;
        let merge = self.commit(delta, |delta| self.index.merge_delta(delta))??;
        let report = IngestReport {
            columns_added: columns.len() as u64,
            delta_patterns: merge.delta_patterns,
            touched_shards: merge.touched_shards,
            total_columns: merge.num_columns,
            total_patterns: merge.total_patterns,
        };
        self.counters
            .columns_ingested
            .fetch_add(columns.len() as u64, Ordering::Relaxed);
        self.counters.ingest_batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .index_shards_copied
            .fetch_add(merge.copied_shards as u64, Ordering::Relaxed);
        Ok(report)
    }

    /// Infer a rule from training values and store it in the catalog under
    /// `name`. `variant: None` uses the automatic fallback chain
    /// (pattern → numeric → dictionary); `Some(v)` forces one FMDV
    /// variant. Returns the stored entry.
    pub fn infer_rule<S: AsRef<str>>(
        &self,
        name: &str,
        train: &[S],
        variant: Option<Variant>,
    ) -> Result<CatalogEntry, ServiceError> {
        let snapshot = self.snapshot();
        let config = FmdvConfig::scaled_for_corpus(snapshot.num_columns);
        let engine = AutoValidate::new(&snapshot, config);
        let (rule, label) = match variant {
            None => (engine.infer_auto(train)?, "auto".to_string()),
            Some(v) => (
                AnyRule::Pattern(engine.infer(train, v)?),
                v.label().to_string(),
            ),
        };
        let entry = CatalogEntry {
            name: name.to_string(),
            rule: Arc::new(rule),
            variant: label,
            created_unix: self.config.rule_clock_unix.unwrap_or_else(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0)
            }),
        };
        let entry = self.commit(entry, |entry| {
            let (_catalog_rank, mut catalog) = (
                lockorder::rank_guard(lockorder::CATALOG),
                self.catalog.write().expect("catalog lock poisoned"),
            );
            catalog.insert(entry.clone());
            entry
        })?;
        self.counters.rules_inferred.fetch_add(1, Ordering::Relaxed);
        Ok(entry)
    }

    /// Fetch a catalog entry by name.
    pub fn rule(&self, name: &str) -> Result<CatalogEntry, ServiceError> {
        self.catalog
            .read()
            .expect("catalog lock poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownRule(name.to_string()))
    }

    /// Remove a rule from the catalog and its automaton. The rule's
    /// telemetry goes with its entry, so a later rule under the same name
    /// starts from a clean slate.
    pub fn delete_rule(&self, name: &str) -> Result<(), ServiceError> {
        // An unknown name logs nothing. Two deletes of one rule may both
        // log: the second applies as a no-op, live and on replay alike.
        let cataloged = self
            .catalog
            .read()
            .expect("catalog lock poisoned")
            .get(name)
            .is_some();
        if !cataloged {
            return Err(ServiceError::UnknownRule(name.to_string()));
        }
        self.commit(Deletion(name), |Deletion(name)| {
            let (_catalog_rank, mut catalog) = (
                lockorder::rank_guard(lockorder::CATALOG),
                self.catalog.write().expect("catalog lock poisoned"),
            );
            catalog.remove(name);
        })?;
        Ok(())
    }

    /// Number of cataloged rules, counted under the catalog read lock
    /// without copying an entry.
    pub fn catalog_len(&self) -> usize {
        self.catalog.read().expect("catalog lock poisoned").len()
    }

    /// Names and descriptions of all cataloged rules.
    pub fn catalog_entries(&self) -> Vec<CatalogEntry> {
        self.catalog
            .read()
            .expect("catalog lock poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Run `f` against the named catalog rule's slot, under the shared
    /// read lock: the rule is not copied, and its telemetry cannot outlive
    /// the entry while `f` records into it.
    fn with_rule<R>(
        &self,
        name: &str,
        f: impl FnOnce(&RuleCatalog, &Slot) -> R,
    ) -> Result<R, ServiceError> {
        let (_catalog_rank, catalog) = (
            lockorder::rank_guard(lockorder::CATALOG),
            self.catalog.read().expect("catalog lock poisoned"),
        );
        match catalog.slot(name) {
            Some(slot) => Ok(f(&catalog, slot)),
            None => Err(ServiceError::UnknownRule(name.to_string())),
        }
    }

    /// Validate one column against a named rule (§4's recurring check).
    /// Dispatches through `dyn Validator` as one `tally` of the column, so
    /// no value is copied. The rule's telemetry records the validation.
    pub fn validate<S: AsRef<str>>(
        &self,
        rule: &str,
        values: &[S],
    ) -> Result<ValidationReport, ServiceError> {
        let report = self.with_rule(rule, |_, slot| {
            let validator: &dyn Validator = slot.entry.rule.as_ref();
            let report = Validator::validate_batch(&validator, values.iter().map(AsRef::as_ref));
            let telemetry = slot.telemetry.get_or_init(Default::default);
            telemetry.record(
                self.telemetry.epoch(),
                report.checked as u64,
                report.nonconforming as u64,
                report.flagged,
            );
            // Cold path: only a flagged column pays for the exemplar
            // re-scan and the explanation's allocations.
            if report.flagged {
                let mut values = values.iter().map(AsRef::as_ref);
                if let Some(v) = values.find(|v| !validator.check(v).is_conform()) {
                    telemetry.push_exemplar(FailureExemplar::capture(validator, v));
                }
            }
            report
        })?;
        self.counters.validations.fetch_add(1, Ordering::Relaxed);
        if report.flagged {
            self.counters.flagged.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
    }

    /// Explain one value against a named rule: conformance, positional
    /// failure detail, and the nearest *other* catalog rule the value
    /// conforms to (ranked by token-program edit distance, so a column
    /// swap points at the swapped-in column's rule).
    ///
    /// The suggestion shortlist comes from the catalog automaton: one
    /// `classify` scan yields exactly the conforming rules, so only those
    /// are distance-ranked — O(matches), not O(catalog) — with the same
    /// winner the full loop would pick.
    pub fn explain(&self, rule: &str, value: &str) -> Result<ExplainOutcome, ServiceError> {
        self.with_rule(rule, |catalog, slot| {
            let failed = slot.entry.rule.as_ref();
            let conforms = failed.check(value).is_conform();
            let (explanation, suggestion) = if conforms {
                (None, None)
            } else {
                (
                    failed.explain(value),
                    catalog.classifier.nearest_conforming(value, failed, rule),
                )
            };
            ExplainOutcome {
                conforms,
                describe: failed.describe(),
                explanation,
                suggestion,
            }
        })
    }

    /// Classify one value against the **whole** rule catalog in a single
    /// scan of the value, returning every conforming rule ranked
    /// most-specific-first.
    pub fn classify_value(&self, value: &str) -> ClassifyOutcome {
        let (_, mut batch) = self.classify_batch(&[value]);
        batch.pop().expect("one outcome per value")
    }

    /// Classify a batch of values under one hold of the catalog's read
    /// guard. Results come back in input order, after the automaton's
    /// generation read under the same hold: the generation the results
    /// are of.
    pub fn classify_batch<S: AsRef<str>>(&self, values: &[S]) -> (u64, Vec<ClassifyOutcome>) {
        self.classify_with(|classifier| {
            let outcomes = values
                .iter()
                .map(|v| {
                    let matches: Vec<String> =
                        classifier.ranked(v.as_ref()).map(str::to_string).collect();
                    let best = matches.first().cloned();
                    ClassifyOutcome { matches, best }
                })
                .collect();
            (classifier.generation(), outcomes)
        })
    }

    /// Run `f` on the catalog automaton under one hold of the catalog's
    /// read guard, the one lock a classification takes. What `f` reads
    /// through the [`Classifier`] — the generation, and each value's ranked
    /// rule names, borrowed from the automaton — is of one catalog state.
    pub(crate) fn classify_with<R>(&self, f: impl FnOnce(&mut Classifier<'_>) -> R) -> R {
        let (_catalog_rank, catalog) = (
            lockorder::rank_guard(lockorder::CATALOG),
            self.catalog.read().expect("catalog lock poisoned"),
        );
        let mut classifier = Classifier {
            set: &catalog.classifier,
            hits: HITS.take(),
            classified: 0,
        };
        let out = f(&mut classifier);
        HITS.set(classifier.hits);
        self.counters
            .classifications
            .fetch_add(classifier.classified, Ordering::Relaxed);
        out
    }

    /// Update generation of the catalog automaton (bumped per rule
    /// insert/remove) — the cheap "did the rule set change?" signal,
    /// mirroring the index generation `stats` reports.
    pub fn classifier_generation(&self) -> u64 {
        self.classify_with(|classifier| classifier.generation())
    }

    /// Write an incremental checkpoint of the live index and catalog to the
    /// data directory (only shards touched since the previous checkpoint
    /// are rewritten) and truncate the WAL behind it.
    pub fn persist(&self) -> Result<(), ServiceError> {
        let log = self.durable.as_ref().ok_or(ServiceError::NoDataDir)?;
        Ok(log.checkpoint(|| self.cut())?)
    }

    /// Run one mutating op through the log (see [`durable::commit`]): on a
    /// data directory `record` is logged and `apply`'d under the log lock.
    fn commit<R: Record, T>(
        &self,
        record: R,
        apply: impl FnOnce(R) -> T,
    ) -> Result<T, ServiceError> {
        let log = self.durable.as_ref();
        Ok(durable::commit(log, record, apply, || self.cut())?)
    }

    /// The state a checkpoint writes: the index epoch and the catalog text.
    fn cut(&self) -> Cut {
        let index = self.snapshot();
        let catalog = self.catalog.read().expect("catalog lock poisoned");
        (index, catalog.to_text())
    }

    /// Durability counters (checkpoint generation, WAL footprint, recovery
    /// tallies), or `None` for a service with no data directory.
    pub fn durability(&self) -> Option<DurabilitySnapshot> {
        self.durable.as_ref().map(DurableLog::snapshot)
    }

    /// Current operation counters.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            columns_ingested: c.columns_ingested.load(Ordering::Relaxed),
            ingest_batches: c.ingest_batches.load(Ordering::Relaxed),
            index_shards_copied: c.index_shards_copied.load(Ordering::Relaxed),
            rules_inferred: c.rules_inferred.load(Ordering::Relaxed),
            validations: c.validations.load(Ordering::Relaxed),
            flagged: c.flagged.load(Ordering::Relaxed),
            classifications: c.classifications.load(Ordering::Relaxed),
            connection_errors: c.connection_errors.load(Ordering::Relaxed),
            connections_rejected: c.connections_rejected.load(Ordering::Relaxed),
            requests_shed: c.requests_shed.load(Ordering::Relaxed),
            stalls_shed: c.stalls_shed.load(Ordering::Relaxed),
            frames_executed: c.frames_executed.load(Ordering::Relaxed),
            runs_dispatched: c.runs_dispatched.load(Ordering::Relaxed),
            socket_writes: c.socket_writes.load(Ordering::Relaxed),
        }
    }

    /// The telemetry registry: the window clock and per-op request
    /// counters.
    pub fn telemetry(&self) -> &ServiceTelemetry {
        &self.telemetry
    }

    /// Owned snapshots of every rule validated since it was inferred, in
    /// name order. The catalog's read guard is held only while the slots
    /// are collected; the snapshots are taken after it drops.
    pub(crate) fn rule_snapshots(&self) -> Vec<RuleTelemetrySnapshot> {
        let slots: Vec<(String, Arc<_>)> = {
            let (_catalog_rank, catalog) = (
                lockorder::rank_guard(lockorder::CATALOG),
                self.catalog.read().expect("catalog lock poisoned"),
            );
            let validated = catalog.telemetry();
            validated
                .map(|(name, t)| (name.to_string(), Arc::clone(t)))
                .collect()
        };
        let now = self.telemetry.epoch();
        slots
            .iter()
            .map(|(name, t)| t.snapshot(name, now))
            .collect()
    }

    /// How many index epochs have been published (installs + delta
    /// merges) — a cheap "did the index change?" signal for monitoring.
    pub(crate) fn index_generation(&self) -> u64 {
        self.index.generation()
    }

    /// Record a TCP connection that ended in an error (called by the
    /// serve loop when it closes one, or fails to accept or register one).
    pub(crate) fn record_connection_error(&self) {
        self.counters
            .connection_errors
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection turned away by admission control.
    pub(crate) fn record_connection_rejected(&self) {
        self.counters
            .connections_rejected
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` request frames answered with `overloaded` past the
    /// pipelining cap.
    pub(crate) fn record_requests_shed(&self, n: u64) {
        self.counters.requests_shed.fetch_add(n, Ordering::Relaxed);
    }

    /// Record a connection shed at the write-stall deadline.
    pub(crate) fn record_stall_shed(&self) {
        self.counters.stalls_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one finished run of `frames` executed frames.
    pub(crate) fn record_run(&self, frames: u64) {
        self.counters
            .runs_dispatched
            .fetch_add(1, Ordering::Relaxed);
        self.counters
            .frames_executed
            .fetch_add(frames, Ordering::Relaxed);
    }

    /// Record `n` socket `write`s that moved response bytes.
    pub(crate) fn record_socket_writes(&self, n: u64) {
        self.counters.socket_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Ask every serve loop to wind down: sets the flag, wakes every
    /// [`ValidationService::wait_shutdown_timeout`] sleeper, and fires
    /// (then drains) every registered serve-loop waker — so event loops
    /// blocked in `poll` and watch streams sleeping between frames all
    /// observe the request immediately rather than at a poll cadence.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let (lock, cvar) = &self.shutdown_signal;
        drop(lock.lock().unwrap());
        cvar.notify_all();
        let wakers = std::mem::take(&mut *self.shutdown_wakers.lock().unwrap());
        for wake in wakers {
            wake();
        }
    }

    /// Register a callback fired once when shutdown is requested (serve
    /// loops pass their poller's `notify`). If shutdown already happened,
    /// the callback runs immediately on this thread.
    pub(crate) fn register_shutdown_waker(&self, wake: Box<dyn Fn() + Send + Sync>) {
        self.shutdown_wakers.lock().unwrap().push(wake);
        if self.is_shutdown() {
            // Raced with request_shutdown's drain: fire what we added.
            let wakers = std::mem::take(&mut *self.shutdown_wakers.lock().unwrap());
            for wake in wakers {
                wake();
            }
        }
    }

    /// Block up to `timeout` or until shutdown is requested, whichever
    /// comes first; returns [`ValidationService::is_shutdown`]. The wake
    /// is immediate (condvar), not polled — this is what keeps watch
    /// streams and pipe serve loops inside the sub-50 ms shutdown budget.
    pub fn wait_shutdown_timeout(&self, timeout: std::time::Duration) -> bool {
        if self.is_shutdown() {
            return true;
        }
        let (lock, cvar) = &self.shutdown_signal;
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = lock.lock().unwrap();
        while !self.is_shutdown() {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let (next, timed_out) = cvar.wait_timeout(guard, deadline - now).unwrap();
            guard = next;
            if timed_out.timed_out() {
                break;
            }
        }
        drop(guard);
        self.is_shutdown()
    }

    /// Has shutdown been requested?
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// Helper for tests and examples: make an owned [`Column`] out of a name
/// and values.
pub fn owned_column(name: &str, values: Vec<String>) -> Column {
    Column {
        name: name.to_string(),
        values,
        meta: av_corpus::ColumnMeta::machine("service-ingest", None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_corpus::{generate_lake, LakeProfile};

    fn lake_columns(seed: u64) -> Vec<Column> {
        let lake = generate_lake(&LakeProfile::tiny(), seed);
        lake.columns().cloned().collect()
    }

    fn date_values(month: u32) -> Vec<String> {
        (1..=28)
            .map(|d| format!("2019-{month:02}-{d:02}"))
            .collect()
    }

    #[test]
    fn ingest_then_infer_then_validate() {
        let service = ValidationService::new(ServiceConfig::default());
        let report = service.ingest(&lake_columns(11)).unwrap();
        assert!(report.total_patterns > 100);
        assert_eq!(report.columns_added, report.total_columns);

        let entry = service.infer_rule("dates", &date_values(3), None).unwrap();
        assert!(entry.rule.conforms("2019-04-01"));
        let ok = service.validate("dates", &date_values(4)).unwrap();
        assert!(!ok.flagged);
        let drifted: Vec<String> = (0..50).map(|i| format!("user-{i}")).collect();
        let bad = service.validate("dates", &drifted).unwrap();
        assert!(bad.flagged);

        let stats = service.stats();
        assert_eq!(stats.validations, 2);
        assert_eq!(stats.flagged, 1);
        assert_eq!(stats.rules_inferred, 1);
    }

    /// The widest segment a vertical cut keeps whole is the τ this service
    /// indexes under, not a constant of its own: a lake of 15-position
    /// values indexed under τ = 16 holds whole-value patterns only, so a
    /// rule exists only if the sweep tries the full width.
    #[test]
    fn inference_sweeps_up_to_the_configured_tau() {
        let wide = |k: usize| -> Vec<String> {
            (0..30)
                .map(|i| {
                    let groups: Vec<String> = (0..8)
                        .map(|g| format!("{:02}", (7 * i + 13 * g + k) % 100))
                        .collect();
                    groups.join("-")
                })
                .collect()
        };
        let service = ValidationService::new(ServiceConfig {
            index: IndexConfig::with_tau(16),
            ..Default::default()
        });
        let columns: Vec<Column> = (0..4)
            .map(|k| owned_column(&format!("wide-{k}"), wide(k)))
            .collect();
        service.ingest(&columns).unwrap();
        let entry = service
            .infer_rule("wide", &wide(9), Some(Variant::FmdvVH))
            .expect("the 15-position pattern is indexed");
        assert!(entry.rule.conforms("01-02-03-04-05-06-07-08"));
        assert!(!entry.rule.conforms("01-02-03-04-05-06-07"));
    }

    #[test]
    fn incremental_ingest_equals_bulk_ingest() {
        let all = lake_columns(23);
        let (a, b) = all.split_at(all.len() / 2);

        let bulk = ValidationService::new(ServiceConfig::default());
        bulk.ingest(&all).unwrap();
        let incremental = ValidationService::new(ServiceConfig::default());
        incremental.ingest(a).unwrap();
        incremental.ingest(b).unwrap();

        let bi = bulk.snapshot();
        let ii = incremental.snapshot();
        assert_eq!(bi.num_columns, ii.num_columns);
        assert_eq!(bi.len(), ii.len());
        let imap: std::collections::HashMap<u64, av_index::PatternStats> = ii.entries().collect();
        for (k, s) in bi.entries() {
            let t = imap.get(&k).expect("same pattern set");
            assert_eq!(s.fpr.to_bits(), t.fpr.to_bits());
            assert_eq!(s.cov, t.cov);
        }
    }

    /// Ingest is O(touched-shards): a narrow second batch must republish
    /// only the shards its delta lands in, sharing every other shard's
    /// allocation with the snapshot taken before the ingest.
    #[test]
    fn small_ingest_republishes_only_touched_shards() {
        let service = ValidationService::new(ServiceConfig::default());
        service.ingest(&lake_columns(11)).unwrap();
        let before = service.snapshot();

        let narrow = vec![owned_column(
            "narrow",
            (0..30).map(|_| "WORD".to_string()).collect(),
        )];
        let report = service.ingest(&narrow).unwrap();
        assert!(report.touched_shards >= 1);
        assert!(
            report.touched_shards < before.shard_count() / 2,
            "a one-shape column touched {} of {} shards",
            report.touched_shards,
            before.shard_count()
        );

        let after = service.snapshot();
        let mut shared = 0;
        for (a, b) in before.shards().iter().zip(after.shards().iter()) {
            if std::sync::Arc::ptr_eq(a, b) {
                shared += 1;
            }
        }
        assert_eq!(
            shared,
            before.shard_count() - report.touched_shards,
            "untouched shards must be pointer-shared across the ingest"
        );
    }

    #[test]
    fn snapshots_survive_later_ingests() {
        let service = ValidationService::new(ServiceConfig::default());
        service.ingest(&lake_columns(3)).unwrap();
        let old = service.snapshot();
        let old_columns = old.num_columns;
        service.ingest(&lake_columns(4)).unwrap();
        assert_eq!(old.num_columns, old_columns, "old snapshot is immutable");
        assert!(service.snapshot().num_columns > old_columns);
    }

    /// `new` holds no log, so on a data directory it would acknowledge ops
    /// it never logs: the directory is refused, and `open` named.
    #[test]
    #[should_panic(expected = "ValidationService::open")]
    fn new_refuses_a_data_directory() {
        ValidationService::new(ServiceConfig::durable("unused-data-dir"));
    }

    #[test]
    fn unknown_rule_errors() {
        let service = ValidationService::new(ServiceConfig::default());
        assert!(matches!(
            service.validate("nope", &[] as &[&str]),
            Err(ServiceError::UnknownRule(_))
        ));
        assert!(matches!(
            service.delete_rule("nope"),
            Err(ServiceError::UnknownRule(_))
        ));
    }

    #[test]
    fn explain_names_the_span_and_suggests_the_swapped_column_rule() {
        let service = ValidationService::new(ServiceConfig::default());
        service.ingest(&lake_columns(11)).unwrap();
        service.infer_rule("dates", &date_values(3), None).unwrap();
        let statuses: Vec<String> = (0..60)
            .map(|i| ["Delivered", "Pending", "Rejected"][i % 3].to_string())
            .collect();
        service.infer_rule("status", &statuses, None).unwrap();

        // Conforming value: no detail, no suggestion.
        let ok = service.explain("dates", "2019-03-14").unwrap();
        assert!(ok.conforms);
        assert!(ok.explanation.is_none() && ok.suggestion.is_none());

        // A status value in the dates feed: the failing span starts at
        // byte 0 and the suggestion points at the status rule.
        let swapped = service.explain("dates", "Pending").unwrap();
        assert!(!swapped.conforms);
        assert!(swapped.explanation.is_some());
        assert_eq!(swapped.suggestion.as_ref().unwrap().0, "status");

        // A value conforming to nothing gets detail but no suggestion.
        let orphan = service.explain("dates", "2019-03-!!").unwrap();
        let e = orphan.explanation.unwrap();
        assert_eq!(e.failed_at, Some(8));
        assert!(orphan.suggestion.is_none());

        assert!(matches!(
            service.explain("missing", "x"),
            Err(ServiceError::UnknownRule(_))
        ));
    }

    #[test]
    fn classify_scans_the_whole_catalog_and_tracks_updates() {
        let service = ValidationService::new(ServiceConfig::default());
        service.ingest(&lake_columns(11)).unwrap();
        assert_eq!(service.classifier_generation(), 0);
        service.infer_rule("dates", &date_values(3), None).unwrap();
        let statuses: Vec<String> = (0..60)
            .map(|i| ["Delivered", "Pending", "Rejected"][i % 3].to_string())
            .collect();
        service.infer_rule("status", &statuses, None).unwrap();
        assert!(service.classifier_generation() >= 2);

        // One scan names every conforming rule.
        let date = service.classify_value("2019-07-14");
        assert_eq!(date.matches, vec!["dates".to_string()]);
        assert_eq!(date.best.as_deref(), Some("dates"));
        let status = service.classify_value("Pending");
        assert_eq!(status.matches, vec!["status".to_string()]);
        let nothing = service.classify_value("!!!");
        assert!(nothing.matches.is_empty() && nothing.best.is_none());

        // The batch path equals per-value calls, in input order.
        let (gen, batch) = service.classify_batch(&["2019-07-14", "Pending", "!!!"]);
        assert_eq!(gen, service.classifier_generation());
        assert_eq!(batch, vec![date.clone(), status, nothing]);

        // Deletes keep the automaton in sync.
        let gen = service.classifier_generation();
        service.delete_rule("dates").unwrap();
        assert!(service.classifier_generation() > gen);
        assert!(service.classify_value("2019-07-14").matches.is_empty());

        assert_eq!(service.stats().classifications, 7);
    }

    #[test]
    fn reopened_service_classifies_from_the_persisted_catalog() {
        let dir =
            std::env::temp_dir().join(format!("av_service_classify_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = ServiceConfig::durable(&dir);

        let service = ValidationService::open(config.clone()).unwrap();
        service.ingest(&lake_columns(5)).unwrap();
        service.infer_rule("dates", &date_values(6), None).unwrap();
        service.persist().unwrap();
        drop(service);

        let reopened = ValidationService::open(config).unwrap();
        assert_eq!(
            reopened.classify_value("2019-06-12").matches,
            vec!["dates".to_string()]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn rule_snapshot(service: &ValidationService, name: &str) -> Option<RuleTelemetrySnapshot> {
        service
            .rule_snapshots()
            .into_iter()
            .find(|s| s.rule == name)
    }

    #[test]
    fn telemetry_tracks_validations_and_captures_exemplars() {
        let service = ValidationService::new(ServiceConfig::default());
        service.ingest(&lake_columns(11)).unwrap();
        service.infer_rule("dates", &date_values(3), None).unwrap();
        service.validate("dates", &date_values(4)).unwrap();
        service.validate("dates", &date_values(5)).unwrap();
        let drifted: Vec<String> = (0..50).map(|i| format!("user-{i}")).collect();
        assert!(service.validate("dates", &drifted).unwrap().flagged);

        let snap = rule_snapshot(&service, "dates").unwrap();
        assert_eq!(snap.validations, 3);
        assert_eq!(snap.flagged, 1);
        assert_eq!(snap.checked, 28 + 28 + 50);
        assert_eq!(snap.nonconforming, 50);
        assert_eq!(snap.window.validations, 3);
        assert_eq!(snap.window.flagged, 1);
        // The flagged validation captured its first non-conforming value,
        // with the explanation engine's positional detail.
        assert_eq!(snap.exemplars.len(), 1);
        assert_eq!(snap.exemplars[0].value, "user-0");
        assert!(snap.exemplars[0].failed_at.is_some());

        // Conforming validations never touch the exemplar ring.
        service.validate("dates", &date_values(6)).unwrap();
        let snap = rule_snapshot(&service, "dates").unwrap();
        assert_eq!(snap.exemplars.len(), 1);

        // Deleting the rule drops its telemetry.
        service.delete_rule("dates").unwrap();
        assert!(rule_snapshot(&service, "dates").is_none());
    }

    /// The `metrics` op's entry for `name`, if it lists one.
    fn metrics_rule(service: &ValidationService, name: &str) -> Option<(u64, u64, Vec<String>)> {
        let reply = crate::protocol::handle_line(service, r#"{"op":"metrics"}"#).response;
        let reply = crate::json::parse(&reply).expect("metrics reply is JSON");
        let rules = reply.get("rules").and_then(|r| r.as_arr()).expect("rules");
        let rule = rules
            .iter()
            .find(|r| r.get("rule").and_then(|n| n.as_str()) == Some(name))?;
        let count = |key| rule.get(key).and_then(|c| c.as_f64()).expect(key) as u64;
        let exemplars = rule
            .get("exemplars")
            .and_then(|x| x.as_arr())
            .expect("exemplars");
        let reasons = exemplars
            .iter()
            .map(|x| {
                x.get("reason")
                    .and_then(|r| r.as_str())
                    .expect("reason")
                    .to_string()
            })
            .collect();
        Some((count("validations"), count("flagged"), reasons))
    }

    /// A re-inferred name is a new rule: its predecessor's window and
    /// exemplars go with the old entry, and its telemetry starts at its
    /// own first validation.
    #[test]
    fn reinferring_a_name_drops_the_old_rules_telemetry() {
        let service = ValidationService::new(ServiceConfig::default());
        service.ingest(&lake_columns(11)).unwrap();
        let years: Vec<String> = (0..40).map(|i| (1980 + i).to_string()).collect();
        service.infer_rule("feed", &years, None).unwrap();
        let users: Vec<String> = (0..40).map(|i| format!("user-{i}")).collect();
        assert!(service.validate("feed", &users).unwrap().flagged);
        let (validations, flagged, reasons) = metrics_rule(&service, "feed").unwrap();
        assert_eq!((validations, flagged, reasons.len()), (1, 1, 1));

        service.infer_rule("feed", &users, None).unwrap();
        assert!(service.rule("feed").unwrap().rule.conforms("user-7"));
        assert_eq!(metrics_rule(&service, "feed"), None, "old telemetry kept");

        assert!(!service.validate("feed", &users).unwrap().flagged);
        assert_eq!(metrics_rule(&service, "feed"), Some((1, 0, Vec::new())));
    }

    #[test]
    fn index_generation_advances_with_each_ingest() {
        let service = ValidationService::new(ServiceConfig::default());
        assert_eq!(service.index_generation(), 0);
        service.ingest(&lake_columns(3)).unwrap();
        assert_eq!(service.index_generation(), 1);
        service.ingest(&lake_columns(4)).unwrap();
        assert_eq!(service.index_generation(), 2);
    }

    #[test]
    fn persist_and_reopen_restores_rules_and_index() {
        let dir =
            std::env::temp_dir().join(format!("av_service_engine_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let config = ServiceConfig::durable(&dir);

        let service = ValidationService::open(config.clone()).unwrap();
        service.ingest(&lake_columns(5)).unwrap();
        service.infer_rule("dates", &date_values(6), None).unwrap();
        let before = service.snapshot();
        service.persist().unwrap();
        drop(service);

        let reopened = ValidationService::open(config).unwrap();
        let after = reopened.snapshot();
        assert_eq!(after.num_columns, before.num_columns);
        assert_eq!(after.len(), before.len());
        assert!(reopened.rule("dates").is_ok());
        let report = reopened.validate("dates", &date_values(7)).unwrap();
        assert!(!report.flagged);
        std::fs::remove_dir_all(&dir).ok();
    }
}
