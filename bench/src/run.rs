//! One run of one workload: set up, serve, drive the window, check every
//! answer, and reduce the tapes to the end-to-end metrics.

use crate::inputs::{Scale, Workload, PACED_RATE};
use crate::net::{burst_loop, closed_loop, paced_loop, Conn, Server, Tape, Window, SLICE};
use crate::oracle::{Request, StateDigest};
use crate::report::{Metrics, Outcome};
use crate::setup::{self, durable_config, sub_seed, Env, Setup};
use crate::shims::{CountingStorage, SocketCounts};
use crate::stats::{
    better_quartile, iqr_share, median, merged_micros, percentile_sorted, Reservoir,
};
use av_service::{ServiceConfig, ValidationService};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed lead-in of every window: the same loop, on the same
/// connections, until caches, the lazy DFA and the allocator have settled.
pub const WARM_UP: Duration = Duration::from_secs(1);
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Completions a typical slice must hold for the window to be read slice
/// by slice. `onboard_lake` completes ~60 ops a second: their per-slice
/// p90 swung by ±25 % on identical inputs, and a quartile of such counts
/// is a worse estimate of the rate than all of them.
const MIN_SLICE_SAMPLES: usize = 200;

/// A set-up being served, with the generator connections open.
pub struct Stage {
    pub setup: Setup,
    pub server: Server,
    pub conns: Vec<Conn>,
}

pub fn stage(
    workload: Workload,
    seed: u64,
    scale: Scale,
    env: &Env,
    counts: Option<Arc<SocketCounts>>,
) -> io::Result<Stage> {
    let setup = setup::build(workload, seed, scale, env);
    let server = Server::start(Arc::clone(&setup.service), counts)?;
    let conns = (0..workload.connections())
        .map(|_| Conn::connect(server.addr))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Stage {
        setup,
        server,
        conns,
    })
}

impl Stage {
    /// Stop serving and drop the service; a durable directory goes too.
    pub fn discard(self) -> io::Result<()> {
        drop(self.conns);
        self.server.stop()?;
        if let Some(dir) = self.setup.base.as_ref().and_then(|b| b.dir.as_ref()) {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(())
    }
}

/// Process CPU time so far (user + system, all threads), seconds.
fn cpu_seconds() -> f64 {
    const TICKS_PER_SECOND: f64 = 100.0; // Linux USER_HZ
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let ticks: f64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|t| t.parse::<f64>().ok())
                .sum()
        })
        .unwrap_or(0.0);
    ticks / TICKS_PER_SECOND
}

/// High-water mark of the process's resident set, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a window produced.
pub struct Driven {
    pub tapes: Vec<Tape>,
    pub window: Window,
    pub cpu_seconds: f64,
}

/// Run the workload's loop on every connection for warm-up + `seconds`.
pub fn drive(
    workload: Workload,
    setup: &Setup,
    conns: &mut [Conn],
    seed: u64,
    seconds: Duration,
) -> io::Result<Driven> {
    let window = Window::opening_in(WARM_UP, seconds);
    let cpu_before = cpu_seconds();
    let tapes = std::thread::scope(|scope| {
        let threads: Vec<_> = conns
            .iter_mut()
            .zip(&setup.plans)
            .enumerate()
            .map(|(c, (conn, plan))| {
                let window = &window;
                scope.spawn(move || -> io::Result<Tape> {
                    let mut tape = Tape::new(sub_seed(seed, "tape") ^ c as u64, window);
                    match workload {
                        Workload::ClassifyBurst => burst_loop(conn, plan, window, &mut tape)?,
                        Workload::ClassifyPaced => {
                            paced_loop(conn, plan, PACED_RATE, window, &mut tape)?
                        }
                        _ => closed_loop(conn, plan, !workload.mutates(), window, &mut tape)?,
                    }
                    Ok(tape)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .map_err(|_| io::Error::other("generator thread panicked"))?
            })
            .collect::<io::Result<Vec<Tape>>>()
    })?;
    Ok(Driven {
        tapes,
        window,
        cpu_seconds: cpu_seconds() - cpu_before,
    })
}

/// Reduce the tapes to `ops_per_s`, the latency percentiles, and the
/// generator's own (`client.*`, `proc.*`) metrics.
pub fn client_metrics(workload: Workload, driven: &Driven, m: &mut Metrics) {
    let tapes = &driven.tapes;
    let window = &driven.window;
    let full = window.slices();
    let mut slices = vec![0.0; full + 1];
    for tape in tapes {
        for (sum, &n) in slices.iter_mut().zip(&tape.slices) {
            *sum += n;
        }
    }
    let timed_ops: u64 = tapes.iter().map(|t| t.timed_ops).sum();
    let last_done = tapes
        .iter()
        .filter_map(|t| t.last_done)
        .max()
        .unwrap_or(window.end);
    let elapsed = (last_done.max(window.end) - window.start).as_secs_f64();
    let counts = &slices[..full];
    // The window is read by its better-quartile slice, so that the
    // seconds in which the shared host stalled do not decide the result:
    // throughput is the upper quartile of the slices' counts, a latency
    // percentile the lower quartile of the slices' percentiles. That
    // needs slices that hold enough completions; a workload whose
    // typical slice does not is read whole. So is the paced loop's
    // throughput: its slices all hold the schedule's count. What the
    // better slices leave out, `client.lat_p99_us`, `client.lat_max_us`
    // and `client.slice_iqr_share` report.
    let sliced = median(counts) >= MIN_SLICE_SAMPLES as f64;
    let whole = merged_micros(tapes.iter().flat_map(|t| &t.latency));
    let ops_per_s = if sliced && workload != Workload::ClassifyPaced {
        better_quartile(counts, false) / SLICE.as_secs_f64()
    } else {
        slices.iter().sum::<f64>() / elapsed
    };
    m.set("ops_per_s", ops_per_s);
    let by_slice: Vec<Vec<f64>> = (0..if sliced { full } else { 0 })
        .map(|s| merged_micros(tapes.iter().map(|t| &t.latency[s])))
        .collect();
    let undisturbed = |q: f64| {
        if !sliced {
            return percentile_sorted(&whole, q);
        }
        let per_slice: Vec<f64> = by_slice.iter().map(|s| percentile_sorted(s, q)).collect();
        better_quartile(&per_slice, true)
    };
    m.set("lat_p50_us", undisturbed(0.50));
    m.set("lat_p90_us", undisturbed(0.90));

    m.set("client.samples", timed_ops as f64);
    m.set_quantile("client.lat_p99_us", &whole, 0.99);
    let max = tapes
        .iter()
        .flat_map(|t| &t.latency)
        .map(Reservoir::max_nanos)
        .max()
        .unwrap_or(0);
    m.set("client.lat_max_us", max as f64 / 1000.0);
    m.set("client.slice_iqr_share", iqr_share(counts));
    let lag = merged_micros(tapes.iter().map(|t| &t.send_lag));
    m.set_quantile("client.send_lag_p99_us", &lag, 0.99);
    let frame = merged_micros(tapes.iter().map(|t| &t.frame_latency));
    m.set_quantile("client.frame_lat_p50_us", &frame, 0.5);
    let per_op = |total: u64| total as f64 / timed_ops.max(1) as f64;
    let sum = |f: fn(&Tape) -> u64| tapes.iter().map(f).sum::<u64>();
    m.set("client.values_per_s", sum(|t| t.values) as f64 / elapsed);
    m.set("client.req_bytes_per_op", per_op(sum(|t| t.request_bytes)));
    m.set("client.resp_bytes_per_op", per_op(sum(|t| t.reply_bytes)));
    let ingest = merged_micros(tapes.iter().map(|t| &t.ingest));
    let infer = merged_micros(tapes.iter().map(|t| &t.infer));
    m.set_quantile("client.ingest_lat_p50_us", &ingest, 0.5);
    m.set_quantile("client.infer_lat_p50_us", &infer, 0.5);
    m.set_quantile("client.infer_lat_p90_us", &infer, 0.9);
    let wall = (last_done.max(window.end) - window.warm_start).as_secs_f64();
    let all_ops: u64 = tapes.iter().map(|t| t.attempted).sum();
    m.set(
        "proc.cpu_us_per_op",
        driven.cpu_seconds * 1e6 / all_ops.max(1) as f64,
    );
    m.set("proc.cores_busy", driven.cpu_seconds / wall);
}

/// The outcome of checking a write workload against its oracle.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ops whose replies differ from the oracle's answers.
    pub wrong_ops: u64,
    /// Live state vs oracle state after the window (0 = equal).
    pub state_diffs: u64,
    /// `durable_feed`: acknowledged effects missing after the reopen.
    pub lost_acked_ops: u64,
    pub recover_ms: f64,
    pub replayed_records: u64,
    pub checkpoints: u64,
}

/// Replay what the connections sent through direct engine calls on a
/// fresh service and compare: each reply
/// with the oracle's answer, then the final states. For `durable_feed`
/// the served service is then dropped unpersisted and reopened from its
/// directory — after `storage`, when given, has cut every file back to
/// its last `sync` — and the recovered state is compared too.
pub fn verify_writes(
    workload: Workload,
    setup: Setup,
    tapes: &[Tape],
    env: &Env,
    storage: Option<&CountingStorage>,
) -> Verdict {
    let oracle = ValidationService::new(ServiceConfig::default());
    if let Some(base) = &setup.base {
        oracle.ingest(&base.columns).expect("base lake ingests");
    }
    // One replay thread per connection. No answer depends on how the
    // connections interleave (see `setup::durable_ops`), so the order the
    // threads happen to take is as good as any — and half the wait.
    let replay = |plan: &crate::inputs::ConnPlan, tape: &Tape| -> u64 {
        let mut taped = tape.answers.iter();
        let mut wrong = 0;
        for k in 0..tape.attempted {
            let mut correct = true;
            for frame in &plan.op(k).frames {
                let want = Request::decode(&frame.rendered(k)).call(&oracle);
                correct &= taped.next() == Some(&want);
            }
            wrong += !correct as u64;
        }
        wrong
    };
    let wrong_ops = std::thread::scope(|scope| {
        let threads: Vec<_> = setup
            .plans
            .iter()
            .zip(tapes)
            .map(|(plan, tape)| scope.spawn(move || replay(plan, tape)))
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("oracle replay panicked"))
            .sum()
    });
    let mut verdict = Verdict {
        wrong_ops,
        ..Verdict::default()
    };
    let want = StateDigest::of(&oracle);
    // The digest is all that is needed of the oracle from here on; a
    // third index beside it would only raise the peak-memory reading.
    drop(oracle);
    verdict.state_diffs = StateDigest::of(&setup.service).lost_against(&want);
    if workload == Workload::DurableFeed {
        let dir = setup
            .base
            .and_then(|b| b.dir)
            .expect("durable_feed has a directory");
        verdict.checkpoints = setup
            .service
            .durability()
            .map_or(0, |d| d.checkpoints_completed);
        // The unclean stop: the last reference goes without `persist`.
        drop(setup.service);
        if let Some(storage) = storage {
            storage
                .discard_unsynced()
                .expect("the run's own files can be truncated");
        }
        let reopening = Instant::now();
        match ValidationService::open(durable_config(&dir, env)) {
            Ok(reopened) => {
                verdict.recover_ms = reopening.elapsed().as_secs_f64() * 1e3;
                verdict.replayed_records = reopened.durability().map_or(0, |d| d.replayed_records);
                verdict.lost_acked_ops = StateDigest::of(&reopened).lost_against(&want);
            }
            Err(e) => {
                eprintln!("reopen failed: {e}");
                verdict.lost_acked_ops = want.columns + want.catalog.len() as u64;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    verdict
}

/// The end-to-end run: tracing off, plain transport and storage.
///
/// `setup_s` is the median of [`SETUP_REPEATS`] set-ups. Only the first
/// is served; the others are made and discarded *after* the window has
/// been measured and its peak memory read, because what the allocator
/// keeps of a discarded set-up would otherwise sit in `peak_rss_mib` (it
/// moved that metric by ±15 % from run to run).
pub fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: u64,
    scale: Scale,
    env: &Env,
) -> io::Result<Outcome> {
    let timed_stage = || -> io::Result<(Stage, f64)> {
        let begun = Instant::now();
        let staged = stage(workload, seed, scale, env, None)?;
        Ok((staged, begun.elapsed().as_secs_f64()))
    };
    let (staged, first_setup) = timed_stage()?;
    let Stage {
        setup,
        server,
        mut conns,
    } = staged;

    let driven = drive(
        workload,
        &setup,
        &mut conns,
        seed,
        Duration::from_secs(seconds),
    )?;
    drop(conns);
    server.stop()?;

    let mut metrics = Metrics::default();
    // Read before the check: the oracle's second service and the reopen
    // are the benchmark's memory, not the served process's.
    metrics.set("peak_rss_mib", peak_rss_mib());
    client_metrics(workload, &driven, &mut metrics);
    let inputs_digest = setup.digest;
    let attempted: u64 = driven.tapes.iter().map(|t| t.attempted).sum();
    let mut failed: u64 = driven.tapes.iter().map(|t| t.failed).sum();
    if workload.mutates() {
        let verdict = verify_writes(workload, setup, &driven.tapes, env, None);
        if verdict.wrong_ops + verdict.state_diffs + verdict.lost_acked_ops > 0 {
            eprintln!("oracle disagrees: {verdict:?}");
        }
        failed += verdict.wrong_ops + verdict.state_diffs + verdict.lost_acked_ops;
    } else {
        drop(setup);
    }

    let mut setup_seconds = vec![first_setup];
    let repeats = if scale.smoke { 1 } else { SETUP_REPEATS };
    for _ in 1..repeats {
        let (staged, took) = timed_stage()?;
        setup_seconds.push(took);
        staged.discard()?;
    }
    metrics.set("setup_s", crate::stats::median(&setup_seconds));
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed: failed.min(attempted),
        inputs_digest,
        metrics,
    })
}
