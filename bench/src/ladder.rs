//! The traced run: where an op's time goes, from the outside in.
//!
//! A sample of the workload's own ops is replayed through the public
//! functions of each layer, one pass per rung — the wire (through the
//! counting transport), `handle_line_into`, `json::parse`, the engine
//! call, `json` dump of the reply, and the core/match/index/durable calls
//! below the engine — single-threaded, from this crate. Mutating ops are
//! replayed on one fresh service per rung, so each rung sees the state
//! the rung above saw, op for op. Every timed call is a span; a layer's
//! self time is its span minus its children's.
//!
//! Rungs are separate passes, so a child span does not lie inside its
//! parent in time: `parent` records the ladder, not the clock.

use crate::inputs::{ConnPlan, Frame, FrameKind, Scale, Workload, PING_LINE};
use crate::net::{round_trips, Conn, Server};
use crate::oracle::{response_answer, Request, NO_ANSWER};
use crate::report::{Metrics, Outcome};
use crate::run::{client_metrics, drive, stage, verify_writes, Stage, Verdict};
use crate::setup::{self, Env, Setup};
use crate::shims::{CountingStorage, SocketCounts, StorageCounts};
use crate::stats::{median, percentile_sorted, sorted};
use av_core::{AutoValidate, FmdvConfig, Validator, Variant};
use av_durable::{crc32, OsStorage, Wal, WalConfig};
use av_index::{IndexConfig, IndexDelta, PatternIndex, ShardedIndex};
use av_match::CatalogMatcher;
use av_service::protocol::handle_line_into;
use av_service::ValidationService;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Depth-1 `ping` round trips, and direct `ping` dispatches, per run.
const PINGS: usize = 1000;

/// Ops in the replayed sample. Mutating ops must be a prefix of one
/// connection's list (state has to match rung for rung), and an
/// `onboard_lake` op costs tens of milliseconds on every rung.
fn sample_size(workload: Workload, scale: Scale) -> usize {
    let full = match workload {
        Workload::OnboardLake => 48,
        Workload::DurableFeed => 256,
        _ => 400,
    };
    if scale.smoke {
        (full / 4).max(8)
    } else {
        full
    }
}

struct Span {
    parent: u32,
    op: u32,
    name: &'static str,
    start: u64,
    end: u64,
}

/// Spans, kept in memory and written out once the run is over.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn record(
        &mut self,
        name: &'static str,
        op: usize,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.spans.push(Span {
            parent,
            op: op as u32,
            name,
            start: (start - self.origin).as_nanos() as u64,
            end: (end - self.origin).as_nanos() as u64,
        });
        self.spans.len() as u32
    }

    /// Time `f` as a span; returns its result and the span's id.
    fn time<T>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let id = self.record(name, op, parent, start, Instant::now());
        (out, id)
    }

    /// Per op, the summed microseconds of the spans whose name starts
    /// with `prefix`; with `own`, minus what their child spans cover.
    fn per_op(&self, prefix: &str, own: bool) -> Vec<f64> {
        let mut children = vec![0u64; self.spans.len() + 1];
        if own {
            for s in &self.spans {
                children[s.parent as usize] += s.end - s.start;
            }
        }
        let mut by_op: BTreeMap<u32, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name.starts_with(prefix) {
                let nanos = (s.end - s.start).saturating_sub(children[i + 1]);
                *by_op.entry(s.op).or_default() += nanos as f64 / 1000.0;
            }
        }
        sorted(&by_op.into_values().collect::<Vec<_>>())
    }

    fn total_nanos(&self, prefix: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| (s.end - s.start) as f64)
            .sum()
    }

    fn write(&self, path: &Path, workload: Workload, seed: u64) -> io::Result<()> {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{seed},\"unit\":\"ns\",\
             \"columns\":[\"id\",\"parent\",\"op_id\",\"name\",\"start\",\"end\"],\"spans\":[\n",
            workload.name()
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "[{},{},{},\"{}\",{},{}]{}",
                i + 1,
                s.parent,
                s.op,
                s.name,
                s.start,
                s.end,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// One sampled op: its frames as sent, decoded for the engine rung.
struct Sampled {
    frames: Vec<SampledFrame>,
}

struct SampledFrame {
    kind: FrameKind,
    line: String,
    request: Request,
}

fn sample(workload: Workload, plan: &ConnPlan, n: usize) -> Vec<Sampled> {
    let len = plan.ops.len();
    let n = n.min(len);
    (0..n)
        .map(|i| {
            // Reads: spread over the list. Writes: the list's prefix, as
            // connection 0 sends it.
            let k = if workload.mutates() { i } else { i * len / n };
            let render = |f: &Frame| {
                let line = f.rendered(k as u64);
                SampledFrame {
                    kind: f.kind,
                    request: Request::decode(&line),
                    line,
                }
            };
            Sampled {
                frames: plan.op(k as u64).frames.iter().map(render).collect(),
            }
        })
        .collect()
}

fn engine_span(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Validate => "engine.validate",
        FrameKind::Classify => "engine.classify",
        FrameKind::Ingest => "engine.ingest",
        FrameKind::Infer => "engine.infer",
        FrameKind::Delete => "engine.delete",
        FrameKind::Ping => "engine.ping",
    }
}

/// Span ids of the rung above, per op and frame, for `parent` links.
type Ids = Vec<Vec<u32>>;

/// Rung 0: depth-1 round trips over the wire, and the `ping` pass that
/// prices transport + reactor + queue hops with no engine work in them.
fn wire_rung(
    tracer: &mut Tracer,
    server: &Server,
    ops: &[Sampled],
    m: &mut Metrics,
) -> io::Result<(Ids, u64)> {
    let pings = vec![format!("{PING_LINE}\n"); PINGS];
    let ping_trips = round_trips(server.addr, &pings, |_, _| {})?;
    let ping_micros: Vec<f64> = ping_trips
        .iter()
        .map(|(s, e)| (*e - *s).as_nanos() as f64 / 1000.0)
        .collect();
    m.set("server.ping_rtt_p50_us", median(&ping_micros));

    let frames: Vec<String> = ops
        .iter()
        .flat_map(|op| op.frames.iter().map(|f| f.line.clone()))
        .collect();
    let kinds: Vec<FrameKind> = ops
        .iter()
        .flat_map(|op| op.frames.iter().map(|f| f.kind))
        .collect();
    let mut unanswered = 0u64;
    let trips = round_trips(server.addr, &frames, |i, line| {
        unanswered += (response_answer(kinds[i], line) == NO_ANSWER) as u64;
    })?;
    let mut trips = trips.into_iter();
    let ids = ops
        .iter()
        .enumerate()
        .map(|(op, sampled)| {
            sampled
                .frames
                .iter()
                .map(|_| {
                    let (start, end) = trips.next().expect("one trip per frame");
                    tracer.record("wire", op, 0, start, end)
                })
                .collect()
        })
        .collect();
    Ok((ids, unanswered))
}

/// Rungs 1 and 2 against `service`: `handle_line_into` on the pre-read
/// frame, then its parts — `json::parse` of the request, the engine
/// call, and the dump of the reply tree — each in a pass of its own.
/// `fresh` yields the service a pass starts from (the same one for read
/// workloads, a new set-up per pass for mutating ones). Returns the
/// engine spans' ids and the median of a bare `ping` dispatch.
fn protocol_rungs(
    tracer: &mut Tracer,
    ops: &[Sampled],
    wire: &Ids,
    mut fresh: impl FnMut() -> Rung,
    m: &mut Metrics,
) -> (Ids, f64) {
    // handle_line_into, replies kept for the dump pass.
    let rung = fresh();
    let mut replies: Vec<Vec<String>> = Vec::new();
    let mut out = String::new();
    let handled: Ids = ops
        .iter()
        .enumerate()
        .map(|(op, sampled)| {
            let mut lines = Vec::new();
            let ids = sampled
                .frames
                .iter()
                .enumerate()
                .map(|(f, frame)| {
                    let ((), id) = tracer.time("protocol.handle_line", op, wire[op][f], || {
                        handle_line_into(&rung.service, frame.line.trim_end(), &mut out);
                    });
                    lines.push(out.clone());
                    id
                })
                .collect();
            replies.push(lines);
            ids
        })
        .collect();
    // The same dispatch with no payload and no engine work.
    let ping_micros: Vec<f64> = (0..PINGS)
        .map(|_| {
            let start = Instant::now();
            handle_line_into(&rung.service, PING_LINE, &mut out);
            start.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect();
    let record = Instant::now();
    for _ in 0..PINGS {
        rung.service
            .telemetry()
            .record_op("ping", Duration::from_micros(3), true);
    }
    m.set(
        "telemetry.record_op_ns",
        record.elapsed().as_nanos() as f64 / PINGS as f64,
    );
    rung.discard();

    // json::parse of each request, json dump of each reply.
    let mut request_bytes = 0usize;
    let mut reply_bytes = 0usize;
    let mut dumped = String::new();
    for (op, sampled) in ops.iter().enumerate() {
        for (f, frame) in sampled.frames.iter().enumerate() {
            let line = &frame.line;
            let parent = handled[op][f];
            request_bytes += line.len();
            let _ = tracer.time("json.parse", op, parent, || {
                av_service::json::parse(line.trim_end())
            });
            let reply = &replies[op][f];
            reply_bytes += reply.len();
            if let Ok(tree) = av_service::json::parse(reply) {
                let _ = tracer.time("json.dump", op, parent, || tree.dump_into(&mut dumped));
            }
        }
    }

    // The engine call the handler makes, on values decoded beforehand.
    let rung = fresh();
    let called: Ids = ops
        .iter()
        .enumerate()
        .map(|(op, sampled)| {
            sampled
                .frames
                .iter()
                .enumerate()
                .map(|(f, frame)| {
                    tracer
                        .time(engine_span(frame.kind), op, handled[op][f], || {
                            frame.request.call(&rung.service)
                        })
                        .1
                })
                .collect()
        })
        .collect();
    rung.discard();

    let handle = tracer.per_op("protocol.handle_line", false);
    m.set_quantile("protocol.handle_line_p50_us", &handle, 0.5);
    m.set_quantile("protocol.handle_line_p90_us", &handle, 0.9);
    let own = tracer.per_op("protocol.handle_line", true);
    m.set_quantile("protocol.self_p50_us", &own, 0.5);
    m.set_quantile(
        "json.parse_p50_us",
        &tracer.per_op("json.parse", false),
        0.5,
    );
    m.set(
        "json.parse_ns_per_byte",
        tracer.total_nanos("json.parse") / request_bytes.max(1) as f64,
    );
    m.set(
        "json.dump_ns_per_byte",
        tracer.total_nanos("json.dump") / reply_bytes.max(1) as f64,
    );
    let engine = tracer.per_op("engine.", false);
    m.set_quantile("engine.call_p50_us", &engine, 0.5);
    m.set_quantile("engine.call_p90_us", &engine, 0.9);
    let ingest = tracer.per_op("engine.ingest", false);
    m.set_quantile("engine.ingest_p50_us", &ingest, 0.5);
    let infer = tracer.per_op("engine.infer", false);
    m.set_quantile("engine.infer_p50_us", &infer, 0.5);
    m.set_quantile("engine.infer_p90_us", &infer, 0.9);
    (called, median(&ping_micros))
}

/// A service a rung replays on, and what to clean up after it.
struct Rung {
    service: Arc<ValidationService>,
    scratch: Option<std::path::PathBuf>,
}

impl Rung {
    fn of(setup: Setup) -> Rung {
        Rung {
            service: setup.service,
            scratch: setup.base.and_then(|b| b.dir),
        }
    }

    fn discard(self) {
        drop(self.service);
        if let Some(dir) = self.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Rung 3, `validate`: the bare rule's `validate_batch`, and the compiled
/// pattern's `matches` on the same values.
fn validate_core(
    tracer: &mut Tracer,
    service: &ValidationService,
    ops: &[Sampled],
    engine: &Ids,
    m: &mut Metrics,
) {
    let mut values_checked = 0usize;
    let mut values_matched = 0usize;
    for (op, sampled) in ops.iter().enumerate() {
        let Request::Validate { rule, values } = &sampled.frames[0].request else {
            continue;
        };
        let Ok(entry) = service.rule(rule) else {
            continue;
        };
        values_checked += values.len();
        let _ = tracer.time("core.validate_batch", op, engine[op][0], || {
            entry.rule.validate_batch(values.iter().map(String::as_str))
        });
        if let Some(program) = entry.rule.compiled_program() {
            values_matched += values.len();
            let _ = tracer.time("pattern.matches", op, 0, || {
                values.iter().filter(|v| program.matches(v)).count()
            });
        }
    }
    m.set(
        "core.check_ns_per_value",
        tracer.total_nanos("core.validate_batch") / values_checked.max(1) as f64,
    );
    m.set(
        "pattern.match_ns",
        tracer.total_nanos("pattern.matches") / values_matched.max(1) as f64,
    );
}

/// Rung 3, `classify`: a `CatalogMatcher` over the catalog's compiled
/// programs, scanned warm. One scan is ~0.2 µs — of the order of reading
/// the clock twice — so the pass is timed whole and divided.
fn classify_core(
    tracer: &mut Tracer,
    service: &ValidationService,
    ops: &[Sampled],
    m: &mut Metrics,
) {
    let mut matcher = CatalogMatcher::new();
    let mut inserted = 0u32;
    let inserting = Instant::now();
    for entry in service.catalog_entries() {
        if let Some(program) = entry.rule.compiled_program() {
            matcher.insert(inserted, program);
            inserted += 1;
        }
    }
    m.set(
        "match.insert_us",
        inserting.elapsed().as_nanos() as f64 / 1000.0 / inserted.max(1) as f64,
    );
    let values: Vec<&str> = ops
        .iter()
        .filter_map(|s| match &s.frames[0].request {
            Request::Classify { value } => Some(value.as_str()),
            _ => None,
        })
        .collect();
    let mut hits = Vec::new();
    for v in &values {
        matcher.classify_into(v, &mut hits);
    }
    const PASSES: usize = 20;
    let ((), _) = tracer.time("match.classify", 0, 0, || {
        for _ in 0..PASSES {
            for v in &values {
                matcher.classify_into(v, &mut hits);
                std::hint::black_box(&hits);
            }
        }
    });
    m.set(
        "match.classify_ns",
        tracer.total_nanos("match.classify") / (PASSES * values.len()).max(1) as f64,
    );
    let stats = matcher.stats();
    m.set("match.dfa_states", stats.dfa_states as f64);
    m.set("match.dfa_evictions", stats.dfa_evictions as f64);
    m.set("match.nfa_fallbacks", stats.nfa_fallbacks as f64);
}

/// Rung 3, mutating ops: what `ingest` and `infer_rule` are made of —
/// `IndexDelta::profile`, (durable: `to_bytes`, `crc32`, `Wal::append`),
/// `ShardedIndex::merge_delta`; `snapshot` and `AutoValidate::infer_auto`
/// — on an index of this crate's own that starts where the service's did.
fn write_core(
    tracer: &mut Tracer,
    base: Option<&setup::Base>,
    ops: &[Sampled],
    engine: &Ids,
    env: &Env,
    m: &mut Metrics,
) -> io::Result<()> {
    let config = IndexConfig::default();
    let start: Vec<&av_corpus::Column> = base.map_or(Vec::new(), |b| b.columns.iter().collect());
    let index = ShardedIndex::new(PatternIndex::build(&start, &config));
    let wal_dir = env.scratch.join(format!("wal-rung-{}", std::process::id()));
    let mut wal = match base.and_then(|b| b.dir.as_ref()) {
        Some(_) => Some(
            Wal::create(
                Arc::new(OsStorage),
                wal_dir.clone(),
                WalConfig::default(),
                1,
            )
            .map_err(|e| io::Error::other(e.to_string()))?,
        ),
        None => None,
    };
    let mut columns_profiled = 0usize;
    let mut touched = Vec::new();
    let mut encoded_bytes = 0usize;
    let mut logged = 0usize;
    for (op, sampled) in ops.iter().enumerate() {
        for (f, frame) in sampled.frames.iter().enumerate() {
            let parent = engine[op][f];
            match &frame.request {
                Request::Ingest { columns } => {
                    let refs: Vec<&av_corpus::Column> = columns.iter().collect();
                    columns_profiled += refs.len();
                    let (delta, _) = tracer.time("index.profile", op, parent, || {
                        IndexDelta::profile(&refs, &config)
                    });
                    if let Some(wal) = wal.as_mut() {
                        let (bytes, _) =
                            tracer.time("durable.encode", op, parent, || delta.to_bytes());
                        encoded_bytes += bytes.len();
                        logged += 1;
                        let _ = tracer.time("durable.crc", op, 0, || crc32(&bytes));
                        let (appended, _) =
                            tracer.time("durable.wal_append", op, parent, || wal.append(&bytes));
                        appended.map_err(|e| io::Error::other(e.to_string()))?;
                    }
                    let (merged, _) =
                        tracer.time("index.merge", op, parent, || index.merge_delta(delta));
                    let merged = merged.map_err(|e| io::Error::other(e.to_string()))?;
                    touched.push(merged.touched_shards as f64);
                }
                Request::Infer { train, basic, .. } => {
                    let snapshot = index.snapshot();
                    let fmdv = FmdvConfig::scaled_for_corpus(snapshot.num_columns);
                    let _ = tracer.time("core.infer", op, parent, || {
                        let engine = AutoValidate::new(&snapshot, fmdv);
                        if *basic {
                            engine.infer(train, Variant::Fmdv).is_ok()
                        } else {
                            engine.infer_auto(train).is_ok()
                        }
                    });
                }
                _ => {}
            }
        }
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);
    const SNAPSHOTS: usize = 1000;
    let ((), _) = tracer.time("index.snapshot", 0, 0, || {
        for _ in 0..SNAPSHOTS {
            std::hint::black_box(index.snapshot());
        }
    });
    m.set(
        "index.snapshot_ns",
        tracer.total_nanos("index.snapshot") / SNAPSHOTS as f64,
    );
    m.set(
        "index.profile_us_per_col",
        tracer.total_nanos("index.profile") / 1000.0 / columns_profiled.max(1) as f64,
    );
    let merge = tracer.per_op("index.merge", false);
    m.set_quantile("index.merge_p50_us", &merge, 0.5);
    m.set(
        "index.touched_shards_mean",
        touched.iter().sum::<f64>() / touched.len().max(1) as f64,
    );
    m.set("index.patterns_total", index.snapshot().len() as f64);
    let infer = tracer.per_op("core.infer", false);
    m.set_quantile("core.infer_p50_us", &infer, 0.5);
    if base.is_some() {
        m.set(
            "durable.encode_us_per_op",
            tracer.total_nanos("durable.encode") / 1000.0 / logged.max(1) as f64,
        );
        m.set(
            "durable.crc_ns_per_byte",
            tracer.total_nanos("durable.crc") / encoded_bytes.max(1) as f64,
        );
        let append = tracer.per_op("durable.wal_append", false);
        m.set_quantile("durable.wal_append_p50_us", &append, 0.5);
    }
    Ok(())
}

/// `durable_feed`: what a checkpoint costs, by `persist` on a service the
/// sampled ops are replayed on, one checkpoint every 64 ops.
fn checkpoint_rung(rung: Rung, ops: &[Sampled], m: &mut Metrics) {
    let mut millis = Vec::new();
    for (i, sampled) in ops.iter().enumerate() {
        for frame in &sampled.frames {
            frame.request.call(&rung.service);
        }
        if i % 64 == 63 {
            let start = Instant::now();
            if rung.service.persist().is_ok() {
                millis.push(start.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    m.set("durable.checkpoint_p50_ms", median(&millis));
    rung.discard();
}

/// What the traced `durable_feed` window cost in storage (`written`: the
/// shim's counts when the window closed), and what its recovery found.
fn durable_window_metrics(
    verdict: &Verdict,
    written: &StorageCounts,
    attempted: u64,
    m: &mut Metrics,
) {
    // The first checkpoint is set-up's.
    m.set(
        "durable.checkpoints",
        verdict.checkpoints.saturating_sub(1) as f64,
    );
    m.set("durable.recover_ms", verdict.recover_ms);
    m.set("durable.replayed_records", verdict.replayed_records as f64);
    m.set("durable.lost_acked_ops", verdict.lost_acked_ops as f64);
    let per_op = |n: u64| n as f64 / attempted.max(1) as f64;
    m.set("storage.fsyncs_per_op", per_op(written.fsyncs));
    m.set_quantile("storage.fsync_p50_us", &written.fsync_micros, 0.5);
    m.set_quantile("storage.fsync_p99_us", &written.fsync_micros, 0.99);
    let bytes_per_op = per_op(written.bytes_written);
    m.set("storage.bytes_written_per_op", bytes_per_op);
    let request_bytes = m.get("client.req_bytes_per_op").unwrap_or(0.0);
    if request_bytes > 0.0 {
        m.set("storage.write_amp", bytes_per_op / request_bytes);
    }
}

/// Counters the service keeps itself, asked for over the wire.
fn served_stats(server: &Server, m: &mut Metrics) -> io::Result<()> {
    let mut conn = Conn::connect(server.addr)?;
    let mut line = String::new();
    conn.send(b"{\"op\":\"stats\"}\n")?;
    conn.read_line(&mut line)?;
    let stats =
        crate::json::parse(&line).map_err(|_| io::Error::other("stats reply is not JSON"))?;
    for name in [
        "requests_shed",
        "connections_rejected",
        "stalls_shed",
        "connection_errors",
    ] {
        let value = stats
            .get(name)
            .and_then(crate::json::Value::as_f64)
            .unwrap_or(0.0);
        m.set(&format!("server.{name}"), value);
    }
    Ok(())
}

/// The traced run. Reports every per-layer metric the workload reaches
/// (the rest read 0) and writes the spans to `<out>/<workload>.trace.json`.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    scale: Scale,
    out_dir: &Path,
) -> io::Result<Outcome> {
    let mut m = Metrics::default();
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let scratch = out_dir.join("tmp");
    let plain = Env {
        scratch: scratch.clone(),
        storage: None,
    };
    // Two windows of a third of the run each: the workload's own loop
    // untraced, then through the counting shims. Their throughputs
    // differ by what the shims cost.
    let window = Duration::from_secs((seconds / 3).max(1));
    let untraced_rate = {
        let mut staged = stage(workload, seed, scale, &plain, None)?;
        let driven = drive(workload, &staged.setup, &mut staged.conns, seed, window)?;
        let mut untraced = Metrics::default();
        client_metrics(workload, &driven, &mut untraced);
        staged.discard()?;
        untraced.get("ops_per_s").unwrap_or(0.0)
    };

    let sockets = Arc::new(SocketCounts::default());
    let storage = Arc::new(CountingStorage::default());
    let counted = Env {
        scratch,
        storage: Some(Arc::clone(&storage) as Arc<dyn av_durable::Storage>),
    };
    let Stage {
        setup,
        server,
        mut conns,
    } = stage(workload, seed, scale, &counted, Some(Arc::clone(&sockets)))?;
    storage.reset_counts();
    let driven = drive(workload, &setup, &mut conns, seed, window)?;
    drop(conns);
    client_metrics(workload, &driven, &mut m);
    let traced_rate = m.get("ops_per_s").unwrap_or(0.0);
    m.set(
        "trace.overhead_share",
        if untraced_rate > 0.0 {
            1.0 - traced_rate / untraced_rate
        } else {
            0.0
        },
    );
    served_stats(&server, &mut m)?;
    let attempted: u64 = driven.tapes.iter().map(|t| t.attempted).sum();
    let mut failed: u64 = driven.tapes.iter().map(|t| t.failed).sum();
    let frames_sent: u64 = driven
        .tapes
        .iter()
        .zip(&setup.plans)
        .map(|(t, p)| t.attempted * p.ops[0].frames.len() as u64)
        .sum();
    let per_frame = |count: u64| count as f64 / frames_sent.max(1) as f64;
    let reads = sockets.reads.load(Ordering::Relaxed);
    let writes = sockets.writes.load(Ordering::Relaxed);
    m.set("server.sock_reads_per_op", per_frame(reads));
    m.set("server.sock_writes_per_op", per_frame(writes));
    m.set(
        "server.bytes_per_write",
        sockets.bytes_written.load(Ordering::Relaxed) as f64 / writes.max(1) as f64,
    );

    let ops = sample(workload, &setup.plans[0], sample_size(workload, scale));
    let inputs_digest = setup.digest;
    let handle_ping_p50;

    if workload.mutates() {
        // The window's state is spent: check it, then give every rung a
        // fresh set-up.
        server.stop()?;
        let written = storage.counts();
        let verdict = verify_writes(workload, setup, &driven.tapes, &counted, Some(&storage));
        if verdict.wrong_ops + verdict.state_diffs + verdict.lost_acked_ops > 0 {
            eprintln!("oracle disagrees: {verdict:?}");
        }
        failed += verdict.wrong_ops + verdict.state_diffs + verdict.lost_acked_ops;
        if workload == Workload::DurableFeed {
            durable_window_metrics(&verdict, &written, attempted, &mut m);
        }
        let fresh = || Rung::of(setup::build(workload, seed, scale, &plain));
        let wire_stage = stage(workload, seed, scale, &plain, Some(Arc::clone(&sockets)))?;
        let (wire, unanswered) = wire_rung(&mut tracer, &wire_stage.server, &ops, &mut m)?;
        failed += unanswered;
        let (engine, bare) = protocol_rungs(&mut tracer, &ops, &wire, &fresh, &mut m);
        handle_ping_p50 = bare;
        write_core(
            &mut tracer,
            wire_stage.setup.base.as_ref(),
            &ops,
            &engine,
            &plain,
            &mut m,
        )?;
        wire_stage.discard()?;
        if workload == Workload::DurableFeed {
            checkpoint_rung(fresh(), &ops, &mut m);
        }
    } else {
        let (wire, unanswered) = wire_rung(&mut tracer, &server, &ops, &mut m)?;
        failed += unanswered;
        server.stop()?;
        let service = Arc::clone(&setup.service);
        let fresh = || Rung {
            service: Arc::clone(&service),
            scratch: None,
        };
        let (engine, bare) = protocol_rungs(&mut tracer, &ops, &wire, fresh, &mut m);
        handle_ping_p50 = bare;
        if workload == Workload::ValidateFeeds {
            validate_core(&mut tracer, &service, &ops, &engine, &mut m);
        } else {
            classify_core(&mut tracer, &service, &ops, &mut m);
        }
        let snapshot = service.snapshot();
        m.set("index.patterns_total", snapshot.len() as f64);
    }

    // The engine's own share: the call minus what it calls.
    let own = match workload {
        Workload::ClassifyBurst | Workload::ClassifyPaced => {
            let call = m.get("engine.call_p50_us").unwrap_or(0.0);
            (call - m.get("match.classify_ns").unwrap_or(0.0) / 1000.0).max(0.0)
        }
        _ => percentile_sorted(&tracer.per_op("engine.", true), 0.5),
    };
    m.set("engine.self_p50_us", own);

    // The ladder's bottom line: does transport + dispatch + this op's
    // handling add up to what the wire shows?
    let wire_p50 = percentile_sorted(&tracer.per_op("wire", false), 0.5);
    let handle_p50 = m.get("protocol.handle_line_p50_us").unwrap_or(0.0);
    let ping_rtt = m.get("server.ping_rtt_p50_us").unwrap_or(0.0);
    m.set("server.hop_p50_us", wire_p50 - handle_p50);
    let explained = ping_rtt + handle_p50 - handle_ping_p50;
    m.set(
        "ladder.unexplained_share",
        if wire_p50 > 0.0 {
            (wire_p50 - explained).abs() / wire_p50
        } else {
            0.0
        },
    );
    println!(
        "ladder: wire depth-1 p50 {wire_p50:.1} us = ping rtt {ping_rtt:.1} + handle_line {handle_p50:.1} \
         - handle_line(ping) {handle_ping_p50:.1} + unexplained {:.1}",
        wire_p50 - explained
    );

    let trace_path = out_dir.join(format!("{}.trace.json", workload.name()));
    tracer.write(&trace_path, workload, seed)?;
    println!(
        "{} spans written to {}",
        tracer.spans.len(),
        trace_path.display()
    );
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed: failed.min(attempted),
        inputs_digest,
        metrics: m,
    })
}
