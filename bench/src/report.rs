//! The metric registry (names, units, directions, bounds — the same table
//! `BENCHMARK.json` carries), and how a run's numbers leave the process:
//! a readable listing, one ledger line per run, and the result line.

use crate::json::escape_into;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The direction as `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen
    /// before `compare` calls it a regression; `None` for layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the service sees. Every workload reports all of them,
/// measured with tracing off. (`failed_share` is the `failed` ÷
/// `attempted` of the result line; its bound is zero, absolute.)
///
/// A bound holds for every workload, so the least steady one sets it. On
/// the shared 2-core host raw CPU speed itself drifts by ±10 % over
/// minutes, and ten runs of the CPU-bound workloads (`validate_feeds`,
/// `onboard_lake`, `durable_feed`) spread by 0.06–0.18; `classify_burst`,
/// which waits on a timer, by under 0.03. Hence the widest bound the
/// driver admits, everywhere.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "op/s", Higher, 0.25),
    e2e("lat_p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// Single layers, from a traced run. A value of 0 on a workload whose
/// ops never reach the layer means "not applicable".
pub const PER_LAYER: &[MetricDef] = &[
    // The 90th percentile, read like `lat_p50_us`. A tail is the first
    // thing a disturbed second moves: between ten runs of the same code
    // it spread by up to 0.19 here and 0.27 on the driver's host, past any
    // bound the driver admits, so it is reported but bounds nothing.
    layer("lat_p90_us", "us", Lower),
    layer("client.samples", "count", Higher),
    layer("client.lat_p99_us", "us", Lower),
    layer("client.lat_max_us", "us", Lower),
    layer("client.slice_iqr_share", "ratio", Lower),
    layer("client.send_lag_p99_us", "us", Lower),
    layer("client.frame_lat_p50_us", "us", Lower),
    layer("client.values_per_s", "1/s", Higher),
    layer("client.req_bytes_per_op", "B", Lower),
    layer("client.resp_bytes_per_op", "B", Lower),
    layer("client.ingest_lat_p50_us", "us", Lower),
    layer("client.infer_lat_p50_us", "us", Lower),
    layer("client.infer_lat_p90_us", "us", Lower),
    layer("proc.cpu_us_per_op", "us", Lower),
    layer("proc.cores_busy", "ratio", Lower),
    layer("server.ping_rtt_p50_us", "us", Lower),
    layer("server.hop_p50_us", "us", Lower),
    layer("server.sock_reads_per_op", "ratio", Lower),
    layer("server.sock_writes_per_op", "ratio", Lower),
    layer("server.bytes_per_write", "B", Higher),
    layer("server.requests_shed", "count", Lower),
    layer("server.connections_rejected", "count", Lower),
    layer("server.stalls_shed", "count", Lower),
    layer("server.connection_errors", "count", Lower),
    layer("protocol.handle_line_p50_us", "us", Lower),
    layer("protocol.handle_line_p90_us", "us", Lower),
    layer("protocol.self_p50_us", "us", Lower),
    layer("json.parse_p50_us", "us", Lower),
    layer("json.parse_ns_per_byte", "ns/B", Lower),
    layer("json.dump_ns_per_byte", "ns/B", Lower),
    layer("telemetry.record_op_ns", "ns", Lower),
    layer("engine.call_p50_us", "us", Lower),
    layer("engine.call_p90_us", "us", Lower),
    layer("engine.self_p50_us", "us", Lower),
    layer("engine.ingest_p50_us", "us", Lower),
    layer("engine.infer_p50_us", "us", Lower),
    layer("engine.infer_p90_us", "us", Lower),
    layer("core.check_ns_per_value", "ns", Lower),
    layer("core.infer_p50_us", "us", Lower),
    layer("pattern.match_ns", "ns", Lower),
    layer("match.classify_ns", "ns", Lower),
    layer("match.insert_us", "us", Lower),
    layer("match.dfa_states", "count", Lower),
    layer("match.dfa_evictions", "count", Lower),
    layer("match.nfa_fallbacks", "count", Lower),
    layer("index.profile_us_per_col", "us", Lower),
    layer("index.merge_p50_us", "us", Lower),
    layer("index.touched_shards_mean", "count", Lower),
    layer("index.snapshot_ns", "ns", Lower),
    layer("index.patterns_total", "count", Lower),
    layer("durable.encode_us_per_op", "us", Lower),
    layer("durable.crc_ns_per_byte", "ns/B", Lower),
    layer("durable.wal_append_p50_us", "us", Lower),
    layer("durable.checkpoint_p50_ms", "ms", Lower),
    layer("durable.checkpoints", "count", Lower),
    layer("durable.recover_ms", "ms", Lower),
    layer("durable.replayed_records", "count", Lower),
    layer("durable.lost_acked_ops", "count", Lower),
    layer("storage.fsyncs_per_op", "ratio", Lower),
    layer("storage.fsync_p50_us", "us", Lower),
    layer("storage.fsync_p99_us", "us", Lower),
    layer("storage.bytes_written_per_op", "B", Lower),
    layer("storage.write_amp", "ratio", Lower),
    layer("ladder.unexplained_share", "ratio", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// A run's numbers, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Record a metric. The name must be in the registry: a number
    /// nobody declared is a number nobody can compare.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name:?} is not in the registry"));
        assert!(value.is_finite(), "metric {name} is not finite");
        match self.values.iter_mut().find(|(n, _)| *n == def.name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((def.name, value)),
        }
    }

    /// Record the `q`-quantile of `sorted` (ascending) under `name`.
    pub fn set_quantile(&mut self, name: &str, sorted: &[f64], q: f64) {
        self.set(name, crate::stats::percentile_sorted(sorted, q));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn print(&self) {
        for (name, value) in &self.values {
            let unit = def(name).map_or("", |d| d.unit);
            println!("{name:<34} {value:>16.4} {unit}");
        }
    }
}

/// What a run found.
pub struct Outcome {
    /// Every reply agreed with the oracle (and something was attempted).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub inputs_digest: u64,
    pub metrics: Metrics,
}

/// The result line: the last line of standard output. Carries every
/// metric of `defs` (one of the two registry lists); layer metrics the
/// workload never reached read 0.
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, def) in defs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = outcome.metrics.get(def.name).unwrap_or(0.0);
        let _ = write!(out, "\"{}\":{{\"value\":{value},\"unit\":", def.name);
        escape_into(def.unit, &mut out);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Where and on what a run was made. None of it is measured, all of it
/// decides what the numbers may be compared with.
pub struct Provenance {
    pub git_sha: String,
    pub rustc: String,
    pub nproc: usize,
}

impl Provenance {
    /// Read from the checkout at `repo` (no `git` process: `.git` is read
    /// directly, and is absent from an exported tree).
    pub fn gather(repo: &Path) -> Provenance {
        let head = std::fs::read_to_string(repo.join(".git/HEAD")).unwrap_or_default();
        let head = head.trim();
        let git_sha = match head.strip_prefix("ref: ") {
            Some(reference) => std::fs::read_to_string(repo.join(".git").join(reference))
                .map(|s| s.trim().to_string())
                .unwrap_or_default(),
            None => head.to_string(),
        };
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_default();
        let or_unknown = |s: String| {
            if s.is_empty() {
                "unknown".to_string()
            } else {
                s
            }
        };
        Provenance {
            git_sha: or_unknown(git_sha),
            rustc: or_unknown(rustc),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// One run as a ledger line (JSON, no newline).
pub fn ledger_line(
    provenance: &Provenance,
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    outcome: &Outcome,
) -> String {
    let mut out = String::from("{\"git_sha\":");
    escape_into(&provenance.git_sha, &mut out);
    out.push_str(",\"rustc\":");
    escape_into(&provenance.rustc, &mut out);
    let _ = write!(
        out,
        ",\"nproc\":{},\"workload\":\"{workload}\",\"seed\":{seed},\"seconds\":{seconds},\
         \"traced\":{traced},\"inputs_digest\":\"{:016x}\",\"correct\":{},\
         \"attempted\":{},\"failed\":{},\"metrics\":{{",
        provenance.nproc, outcome.inputs_digest, outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, (name, value)) in outcome.metrics.values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{value}");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repository root must declare exactly this
    /// registry: the driver reads that file, `compare` reads this table.
    #[test]
    fn benchmark_json_declares_this_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside bench/");
        let doc = parse(&text).expect("BENCHMARK.json is JSON");
        let declared = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let ours = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.word().to_string(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::inputs::Workload::LISTED
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut metrics = Metrics::default();
        metrics.set("ops_per_s", 1234.5678);
        metrics.set("setup_s", 2.25);
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            inputs_digest: 0,
            metrics,
        };
        let line = result_line(&outcome, END_TO_END);
        let v = parse(&line).unwrap();
        let Value::Obj(top) = &v else { panic!() };
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        let ops = v.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").and_then(Value::as_f64), Some(1234.5678));
        assert_eq!(ops.get("unit").and_then(Value::as_str), Some("op/s"));
        // Every end-to-end metric is present even if unset.
        assert!(v.get("metrics").unwrap().get("lat_p50_us").is_some());
    }
}
