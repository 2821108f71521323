//! Per-rule drift telemetry and per-op service metrics.
//!
//! Everything on the recording side is **lock-free on the hot path**: a
//! validation records into a handful of relaxed atomics (lifetime counters
//! plus one bucket of a sliding window), and a protocol op records into a
//! fixed-log-bucket latency histogram. The only mutex in the module guards
//! the bounded ring of *failure exemplars*, which is touched exclusively
//! when a validation was flagged — never on the conforming path.
//!
//! The sliding window is a ring of epoch-stamped buckets (`SlidingWindow`):
//! wall-clock time is divided into fixed-width epochs
//! (`TelemetryConfig::bucket_millis` each), epoch `e` always lands in
//! bucket `e % WINDOW_BUCKETS`, and a bucket is lazily re-leased — its
//! stale counts zeroed — by the first recorder of a new epoch. Reads sum
//! the buckets whose stamps still fall inside the window. There is no
//! background thread and no rotation lock; the price is a bounded smear at
//! epoch boundaries (a recorder racing the re-lease may attribute one
//! validation to the neighboring epoch). Within one epoch the counters are
//! exact under any concurrency, which is what the flag-rate alerting
//! consumes.
//!
//! A rule's `RuleTelemetry` lives in its catalog slot, not in this
//! module's registry: the first validation of a rule since it was
//! inferred creates it, and re-inferring or deleting the name drops it
//! with the entry, so telemetry is only ever of a cataloged rule.
//! [`ServiceTelemetry`] keeps what is not per rule: the window clock, its
//! config and the per-op table.
//!
//! Snapshots (`RuleTelemetrySnapshot`, [`OpSnapshot`]) are plain owned
//! values: the `watch`/`metrics`/`stats` ops snapshot first and serialize
//! after, so no service lock is ever held while a response is written to a
//! possibly-stalled client.

use crate::protocol::OP_TABLE;
use av_core::{Explanation, Validator};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of buckets in every per-rule sliding window. The covered span is
/// `WINDOW_BUCKETS × TelemetryConfig::bucket_millis`.
pub(crate) const WINDOW_BUCKETS: usize = 30;

/// Number of log₂ microsecond buckets in a latency histogram: bucket `i`
/// counts latencies in `[2^(i−1), 2^i)` µs (bucket 0 is `< 1` µs), so the
/// last bucket starts at ~4.2 s — far beyond any sane protocol op.
pub(crate) const LATENCY_BUCKETS: usize = 24;

/// Most recent failure exemplars retained per rule.
pub(crate) const EXEMPLAR_CAPACITY: usize = 8;

/// What a frame that is not JSON, or names no op, is counted as.
pub(crate) const INVALID: &str = "invalid";
/// What a frame naming an op with no row in the op table is counted as.
pub(crate) const UNKNOWN: &str = "unknown";

/// Every name a frame can be counted under, sorted: the rows of the
/// dispatcher's op table and its two non-rows, `invalid` and `unknown`,
/// merged at compile time — so the table is the only list of the ops.
/// [`ServiceTelemetry::record_op`] binary-searches these names and
/// [`ServiceTelemetry::op_snapshots`] reports in this order.
pub const OPS: [&str; OP_TABLE.len() + 2] = {
    let non_rows = [INVALID, UNKNOWN];
    let mut names = [""; OP_TABLE.len() + 2];
    let (mut row, mut non_row) = (0, 0);
    while row + non_row < names.len() {
        if row == OP_TABLE.len()
            || non_row < non_rows.len() && sorts_before(non_rows[non_row], OP_TABLE[row].0)
        {
            names[row + non_row] = non_rows[non_row];
            non_row += 1;
        } else {
            names[row + non_row] = OP_TABLE[row].0;
            row += 1;
        }
    }
    names
};

/// `a < b`, for [`OPS`]' compile-time merge (`str`'s `Ord` is not `const`).
const fn sorts_before(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() && a[i] == b[i] {
        i += 1;
    }
    i < b.len() && (i == a.len() || a[i] < b[i])
}

/// Windowed flag-rate at or above which a rule's snapshot reports
/// `alert`: half the recent validations flagged.
const ALERT_FLAG_RATE: f64 = 0.5;

/// Telemetry knobs, embedded in `ServiceConfig`.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Width of one sliding-window epoch in milliseconds. The window spans
    /// 30 epochs (30 s at the 1 s default).
    pub bucket_millis: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            bucket_millis: 1_000,
        }
    }
}

/// One epoch-stamped bucket of a sliding window.
#[derive(Debug, Default)]
struct Bucket {
    /// The epoch whose counts this bucket currently holds.
    epoch: AtomicU64,
    validations: AtomicU64,
    flagged: AtomicU64,
    checked: AtomicU64,
    nonconforming: AtomicU64,
}

/// A lock-free sliding window of conformance counters (see the module docs
/// for the leasing protocol and its boundary-smear caveat).
#[derive(Debug)]
pub(crate) struct SlidingWindow {
    buckets: [Bucket; WINDOW_BUCKETS],
}

/// Aggregated counts over the live span of a [`SlidingWindow`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WindowSnapshot {
    /// Validations recorded inside the window.
    pub validations: u64,
    /// Of those, validations that raised a flag.
    pub flagged: u64,
    /// Values checked inside the window.
    pub checked: u64,
    /// Of those, values that did not conform.
    pub nonconforming: u64,
}

impl WindowSnapshot {
    /// Fraction of windowed validations that were flagged (0 when idle).
    pub fn flag_rate(&self) -> f64 {
        if self.validations == 0 {
            0.0
        } else {
            self.flagged as f64 / self.validations as f64
        }
    }
}

impl Default for SlidingWindow {
    fn default() -> Self {
        SlidingWindow {
            buckets: std::array::from_fn(|_| Bucket::default()),
        }
    }
}

impl SlidingWindow {
    /// Record one validation into the bucket for `epoch`, re-leasing the
    /// bucket (zeroing counts that aged out of the window) when it still
    /// holds an older epoch's data.
    fn record(&self, epoch: u64, checked: u64, nonconforming: u64, flagged: bool) {
        let bucket = &self.buckets[(epoch % WINDOW_BUCKETS as u64) as usize];
        let held = bucket.epoch.load(Ordering::Acquire);
        if epoch > held
            && bucket
                .epoch
                .compare_exchange(held, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            // The winner of the lease clears the expired counts. A recorder
            // racing this clear can lose its add to it — that count belonged
            // to a bucket boundary either way (the documented smear).
            bucket.validations.store(0, Ordering::Relaxed);
            bucket.flagged.store(0, Ordering::Relaxed);
            bucket.checked.store(0, Ordering::Relaxed);
            bucket.nonconforming.store(0, Ordering::Relaxed);
        }
        bucket.validations.fetch_add(1, Ordering::Relaxed);
        if flagged {
            bucket.flagged.fetch_add(1, Ordering::Relaxed);
        }
        bucket.checked.fetch_add(checked, Ordering::Relaxed);
        bucket
            .nonconforming
            .fetch_add(nonconforming, Ordering::Relaxed);
    }

    /// Sum every bucket whose epoch stamp is still inside the window
    /// ending at `now_epoch`.
    fn snapshot(&self, now_epoch: u64) -> WindowSnapshot {
        let oldest_live = now_epoch.saturating_sub(WINDOW_BUCKETS as u64 - 1);
        let mut out = WindowSnapshot::default();
        for bucket in &self.buckets {
            let epoch = bucket.epoch.load(Ordering::Acquire);
            if epoch < oldest_live || epoch > now_epoch {
                continue;
            }
            out.validations += bucket.validations.load(Ordering::Relaxed);
            out.flagged += bucket.flagged.load(Ordering::Relaxed);
            out.checked += bucket.checked.load(Ordering::Relaxed);
            out.nonconforming += bucket.nonconforming.load(Ordering::Relaxed);
        }
        out
    }
}

/// One captured non-conformance: the offending value plus whatever detail
/// the rule's [`Validator::explain`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FailureExemplar {
    /// The first non-conforming value of the flagged column.
    pub value: String,
    /// Human-readable failure reason.
    pub reason: String,
    /// Byte offset where matching failed, when the rule is positional.
    pub failed_at: Option<usize>,
    /// Failing byte span `[start, end)`, char-boundary aligned.
    pub span: Option<(usize, usize)>,
    /// What the rule required at the failure point.
    pub expected: Option<String>,
}

impl FailureExemplar {
    /// Capture an exemplar for `value` against `validator` — the cold
    /// path's allocation budget is unconstrained here.
    pub(crate) fn capture(validator: &dyn Validator, value: &str) -> FailureExemplar {
        match validator.explain(value) {
            Some(Explanation {
                reason,
                failed_at,
                span,
                expected,
                ..
            }) => FailureExemplar {
                value: value.to_string(),
                reason,
                failed_at,
                span,
                expected,
            },
            None => FailureExemplar {
                value: value.to_string(),
                reason: "does not conform (no further detail)".to_string(),
                failed_at: None,
                span: None,
                expected: None,
            },
        }
    }
}

/// Drift telemetry for one rule: lifetime counters, a sliding conformance
/// window, and a bounded ring of recent failure exemplars.
#[derive(Debug, Default)]
pub(crate) struct RuleTelemetry {
    validations: AtomicU64,
    flagged: AtomicU64,
    checked: AtomicU64,
    nonconforming: AtomicU64,
    window: SlidingWindow,
    exemplars: Mutex<VecDeque<FailureExemplar>>,
}

/// Owned snapshot of one rule's telemetry (safe to serialize with no
/// service lock held).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RuleTelemetrySnapshot {
    /// Rule name.
    pub rule: String,
    /// Lifetime validations of this rule.
    pub validations: u64,
    /// Lifetime flagged validations.
    pub flagged: u64,
    /// Lifetime values checked.
    pub checked: u64,
    /// Lifetime non-conforming values.
    pub nonconforming: u64,
    /// Counts over the sliding window.
    pub window: WindowSnapshot,
    /// True when the windowed flag-rate reached 0.5.
    pub alert: bool,
    /// Most recent failure exemplars, oldest first.
    pub exemplars: Vec<FailureExemplar>,
}

impl RuleTelemetry {
    /// Record one finished validation (epoch from the service's registry).
    pub(crate) fn record(&self, epoch: u64, checked: u64, nonconforming: u64, flagged: bool) {
        self.validations.fetch_add(1, Ordering::Relaxed);
        if flagged {
            self.flagged.fetch_add(1, Ordering::Relaxed);
        }
        self.checked.fetch_add(checked, Ordering::Relaxed);
        self.nonconforming
            .fetch_add(nonconforming, Ordering::Relaxed);
        self.window.record(epoch, checked, nonconforming, flagged);
    }

    /// Append a failure exemplar, evicting the oldest past
    /// [`EXEMPLAR_CAPACITY`]. Called only for flagged validations.
    pub(crate) fn push_exemplar(&self, exemplar: FailureExemplar) {
        let mut ring = self.exemplars.lock().expect("exemplar ring poisoned");
        if ring.len() == EXEMPLAR_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(exemplar);
    }

    /// An owned snapshot, its window read at `now_epoch`.
    pub(crate) fn snapshot(&self, rule: &str, now_epoch: u64) -> RuleTelemetrySnapshot {
        let window = self.window.snapshot(now_epoch);
        RuleTelemetrySnapshot {
            rule: rule.to_string(),
            validations: self.validations.load(Ordering::Relaxed),
            flagged: self.flagged.load(Ordering::Relaxed),
            checked: self.checked.load(Ordering::Relaxed),
            nonconforming: self.nonconforming.load(Ordering::Relaxed),
            alert: window.validations > 0 && window.flag_rate() >= ALERT_FLAG_RATE,
            window,
            exemplars: self
                .exemplars
                .lock()
                .expect("exemplar ring poisoned")
                .iter()
                .cloned()
                .collect(),
        }
    }
}

/// A fixed-log-bucket latency histogram: lock-free recording into
/// [`LATENCY_BUCKETS`] power-of-two microsecond buckets.
#[derive(Debug)]
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
        }
    }
}

/// Owned snapshot of an op's latency histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed latencies, in microseconds.
    pub total_micros: u64,
    /// Per-bucket counts; bucket `i` covers `[2^(i−1), 2^i)` µs.
    pub buckets: Vec<u64>,
}

impl LatencySnapshot {
    /// Mean latency in microseconds (0 when no observations).
    pub(crate) fn mean_micros(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.count as f64
        }
    }
}

impl LatencyHistogram {
    /// Which bucket a latency falls into.
    fn bucket_of(micros: u64) -> usize {
        ((64 - micros.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
    }

    /// Record one observation.
    pub fn record(&self, elapsed: Duration) {
        let micros = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_micros: self.total_micros.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Request/error counters plus a latency histogram for one protocol op.
#[derive(Debug, Default)]
pub(crate) struct OpTelemetry {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: LatencyHistogram,
}

/// Owned snapshot of one op's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSnapshot {
    /// Protocol op name (`"validate"`, `"ingest"`, …; `"invalid"` for
    /// requests that never resolved to an op).
    pub op: String,
    /// Requests dispatched.
    pub requests: u64,
    /// Requests that returned `"ok": false`.
    pub errors: u64,
    /// Latency distribution of the op's dispatch (parse, handle and the
    /// reply written into its buffer; not socket I/O).
    pub latency: LatencySnapshot,
}

/// The service-wide telemetry registry: the window clock every rule's
/// telemetry records against, plus per-op request counters in a fixed
/// table — the op set is closed, so recording an op takes no lock at all.
#[derive(Debug)]
pub struct ServiceTelemetry {
    start: Instant,
    config: TelemetryConfig,
    /// One slot per entry of [`OPS`], same order.
    ops: [OpTelemetry; OPS.len()],
}

impl ServiceTelemetry {
    /// A fresh registry; the window clock starts now.
    pub fn new(config: TelemetryConfig) -> ServiceTelemetry {
        ServiceTelemetry {
            start: Instant::now(),
            config: TelemetryConfig {
                bucket_millis: config.bucket_millis.max(1),
            },
            ops: std::array::from_fn(|_| OpTelemetry::default()),
        }
    }

    /// The registry's telemetry knobs.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The current window epoch (elapsed time / bucket width).
    pub fn epoch(&self) -> u64 {
        self.start.elapsed().as_millis() as u64 / self.config.bucket_millis
    }

    /// The span one sliding window covers, in milliseconds.
    pub(crate) fn window_millis(&self) -> u64 {
        self.config.bucket_millis * WINDOW_BUCKETS as u64
    }

    /// Record one protocol op dispatch. A name outside [`OPS`] counts as
    /// `unknown`.
    pub fn record_op(&self, op: &str, elapsed: Duration, ok: bool) {
        let slot = OPS
            .binary_search(&op)
            .or_else(|_| OPS.binary_search(&UNKNOWN));
        let slot = &self.ops[slot.expect("`unknown` is a slot")];
        slot.requests.fetch_add(1, Ordering::Relaxed);
        if !ok {
            slot.errors.fetch_add(1, Ordering::Relaxed);
        }
        slot.latency.record(elapsed);
    }

    /// Owned snapshots of every op dispatched at least once, sorted by op
    /// name.
    pub fn op_snapshots(&self) -> Vec<OpSnapshot> {
        OPS.iter()
            .zip(&self.ops)
            .filter(|(_, t)| t.requests.load(Ordering::Relaxed) > 0)
            .map(|(name, t)| OpSnapshot {
                op: name.to_string(),
                requests: t.requests.load(Ordering::Relaxed),
                errors: t.errors.load(Ordering::Relaxed),
                latency: t.latency.snapshot(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registry whose epoch never advances during a test run, so window
    /// counters admit exact assertions.
    fn frozen_registry() -> ServiceTelemetry {
        ServiceTelemetry::new(TelemetryConfig {
            bucket_millis: 3_600_000,
        })
    }

    /// The ISSUE's exactness requirement: with no bucket rotation, window
    /// sums equal the lifetime counters under arbitrary concurrency.
    #[test]
    fn window_counters_are_exact_under_concurrent_validators() {
        let registry = frozen_registry();
        let slot = RuleTelemetry::default();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        std::thread::scope(|scope| {
            for worker in 0..THREADS {
                let (registry, slot) = (&registry, &slot);
                scope.spawn(move || {
                    let epoch = registry.epoch();
                    for i in 0..PER_THREAD {
                        // Every third validation flags; check 10 values of
                        // which (i % 4) fail.
                        slot.record(epoch, 10, i % 4, (worker + i) % 3 == 0);
                    }
                });
            }
        });
        let snap = slot.snapshot("feed", registry.epoch());
        let total = THREADS * PER_THREAD;
        assert_eq!(snap.validations, total);
        assert_eq!(snap.checked, total * 10);
        let expected_noncon: u64 = (0..THREADS)
            .flat_map(|_| (0..PER_THREAD).map(|i| i % 4))
            .sum();
        let expected_flagged: u64 = (0..THREADS)
            .flat_map(|w| (0..PER_THREAD).map(move |i| u64::from((w + i) % 3 == 0)))
            .sum();
        assert_eq!(snap.nonconforming, expected_noncon);
        assert_eq!(snap.flagged, expected_flagged);
        // Sum over window buckets == the lifetime counters, exactly.
        assert_eq!(snap.window.validations, snap.validations);
        assert_eq!(snap.window.flagged, snap.flagged);
        assert_eq!(snap.window.checked, snap.checked);
        assert_eq!(snap.window.nonconforming, snap.nonconforming);
    }

    #[test]
    fn window_expires_old_epochs() {
        let window = SlidingWindow::default();
        window.record(0, 5, 1, true);
        assert_eq!(window.snapshot(0).validations, 1);
        // Still visible at the last epoch of its window…
        assert_eq!(window.snapshot(WINDOW_BUCKETS as u64 - 1).validations, 1);
        // …gone one epoch later, even though the bucket was never re-leased.
        assert_eq!(window.snapshot(WINDOW_BUCKETS as u64).validations, 0);
        // A new epoch wrapping onto the same bucket replaces the counts.
        window.record(WINDOW_BUCKETS as u64, 7, 0, false);
        let snap = window.snapshot(WINDOW_BUCKETS as u64);
        assert_eq!(snap.validations, 1);
        assert_eq!(snap.checked, 7);
        assert_eq!(snap.flagged, 0);
    }

    #[test]
    fn alert_fires_at_the_configured_flag_rate() {
        let registry = frozen_registry();
        let slot = RuleTelemetry::default();
        let epoch = registry.epoch();
        slot.record(epoch, 10, 0, false);
        assert!(!slot.snapshot("feed", epoch).alert);
        slot.record(epoch, 10, 10, true);
        let snap = slot.snapshot("feed", registry.epoch());
        assert_eq!(snap.window.flag_rate(), 0.5);
        assert!(snap.alert, "0.5 rate meets the 0.5 threshold");
    }

    #[test]
    fn exemplar_ring_is_bounded_and_ordered() {
        let slot = RuleTelemetry::default();
        for i in 0..EXEMPLAR_CAPACITY + 3 {
            slot.push_exemplar(FailureExemplar {
                value: format!("v{i}"),
                reason: "r".into(),
                failed_at: None,
                span: None,
                expected: None,
            });
        }
        let snap = slot.snapshot("x", 0);
        assert_eq!(snap.exemplars.len(), EXEMPLAR_CAPACITY);
        assert_eq!(snap.exemplars[0].value, "v3");
        assert_eq!(
            snap.exemplars.last().unwrap().value,
            format!("v{}", EXEMPLAR_CAPACITY + 2)
        );
    }

    #[test]
    fn latency_histogram_buckets_by_log2_micros() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(1024), 11);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(1000));
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.total_micros, 1003);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[10], 1);
        assert!((snap.mean_micros() - 501.5).abs() < 1e-9);
    }

    #[test]
    fn op_counters_track_requests_and_errors() {
        let registry = frozen_registry();
        registry.record_op("validate", Duration::from_micros(10), true);
        registry.record_op("validate", Duration::from_micros(20), false);
        registry.record_op("ping", Duration::from_micros(1), true);
        let ops = registry.op_snapshots();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].op, "ping");
        assert_eq!(ops[1].op, "validate");
        assert_eq!(ops[1].requests, 2);
        assert_eq!(ops[1].errors, 1);
        assert_eq!(ops[1].latency.count, 2);
    }

    #[test]
    fn op_table_is_sorted_and_names_outside_it_count_as_unknown() {
        assert!(
            OPS.windows(2).all(|w| w[0] < w[1]),
            "binary search needs it"
        );
        let registry = frozen_registry();
        registry.record_op("no-such-op", Duration::from_micros(1), false);
        let ops = registry.op_snapshots();
        assert_eq!(ops.len(), 1);
        assert_eq!((ops[0].op.as_str(), ops[0].errors), ("unknown", 1));
    }
}
