//! `compare`: judge a candidate set of runs against a reference set by
//! the bounds of the registry, one row per workload × end-to-end metric.
//!
//! A row is `worse` when the candidate's median is worse than the
//! reference's by more than the metric's bound, `better` when better by
//! more than it, otherwise `same` — unless the runs do not resolve the
//! question: when either set's own quartile spread (or, for throughput,
//! the slice-to-slice spread inside the runs) exceeds the bound, the row
//! is `unresolved` unless every candidate run lies on one side of every
//! reference run. Any `worse` row makes the exit code non-zero.

use crate::json::{self, Value};
use crate::report::{Better, END_TO_END};
use crate::stats::{iqr_share, median};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Run {
    workload: String,
    failed_share: f64,
    metrics: BTreeMap<String, f64>,
}

/// The end-to-end (untraced) runs of a ledger file.
fn read_runs(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            json::parse(line).map_err(|at| format!("{path}:{}: bad JSON at byte {at}", n + 1))?;
        if v.get("traced").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let field = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("{path}:{}: no metrics", n + 1));
        };
        runs.push(Run {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string(),
            failed_share: field("failed") / field("attempted").max(1.0),
            metrics: metrics
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect(),
        });
    }
    Ok(runs)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric. `noise` is any further spread the caller knows of
/// (the runs' slice spread, for throughput).
pub fn judge(
    reference: &[f64],
    candidate: &[f64],
    better: Better,
    bound: f64,
    noise: f64,
) -> Verdict {
    let (a, b) = (median(reference), median(candidate));
    if a == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = the candidate is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worsening = sign * (b - a) / a.abs();
    let noisy = iqr_share(reference).max(iqr_share(candidate)).max(noise) > bound;
    if noisy {
        let all = |f: &dyn Fn(f64, f64) -> bool| {
            candidate
                .iter()
                .all(|&c| reference.iter().all(|&r| f(c, r)))
        };
        return if worsening > bound && all(&|c, r| sign * (c - r) > 0.0) {
            Verdict::Worse
        } else if worsening < -bound && all(&|c, r| sign * (c - r) < 0.0) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub fn compare(reference: &str, candidate: &str) -> ExitCode {
    let (a, b) = match (read_runs(reference), read_runs(candidate)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let values = |runs: &[Run], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    };
    println!(
        "{:<15} {:<13} {:>4} {:>13} {:>13} {:>8} {:>6} {:>7} {:>7}  verdict",
        "workload",
        "metric",
        "runs",
        "reference",
        "candidate",
        "change",
        "bound",
        "iqr_ref",
        "iqr_cand"
    );
    let mut worse = 0;
    let mut compared = 0;
    for workload in crate::inputs::Workload::ALL {
        let name = workload.name();
        for def in END_TO_END {
            let (ra, rb) = (values(&a, name, def.name), values(&b, name, def.name));
            if ra.is_empty() || rb.is_empty() {
                continue;
            }
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let noise = if def.name == "ops_per_s" {
                median(&values(&a, name, "client.slice_iqr_share")).max(median(&values(
                    &b,
                    name,
                    "client.slice_iqr_share",
                )))
            } else {
                0.0
            };
            let verdict = judge(&ra, &rb, def.better, bound, noise);
            worse += (verdict == Verdict::Worse) as u32;
            compared += 1;
            let (ma, mb) = (median(&ra), median(&rb));
            println!(
                "{:<15} {:<13} {:>4} {:>13.3} {:>13.3} {:>+7.1}% {:>6.2} {:>7.3} {:>7.3}  {}",
                name,
                def.name,
                format!("{}/{}", ra.len(), rb.len()),
                ma,
                mb,
                if ma == 0.0 {
                    0.0
                } else {
                    (mb - ma) / ma * 100.0
                },
                bound,
                iqr_share(&ra),
                iqr_share(&rb),
                verdict.word()
            );
        }
        // failed_share: bound zero, absolute.
        let failed = |runs: &[Run]| -> Option<f64> {
            runs.iter()
                .filter(|r| r.workload == name)
                .map(|r| r.failed_share)
                .reduce(f64::max)
        };
        if let (Some(fa), Some(fb)) = (failed(&a), failed(&b)) {
            let verdict = if fb > 0.0 {
                Verdict::Worse
            } else {
                Verdict::Same
            };
            worse += (verdict == Verdict::Worse) as u32;
            compared += 1;
            println!(
                "{:<15} {:<13} {:>4} {:>13.6} {:>13.6} {:>8} {:>6} {:>7} {:>7}  {}",
                name,
                "failed_share",
                "",
                fa,
                fb,
                "",
                "0 abs",
                "",
                "",
                verdict.word()
            );
        }
    }
    if compared == 0 {
        eprintln!("the two ledgers share no workload");
        return ExitCode::from(2);
    }
    println!("{compared} rows, {worse} worse");
    if worse > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_noise() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up20 = [120.0, 121.0, 119.0, 120.5, 119.5];
        // Lower is better: +20 % is worse, −17 % is better.
        assert_eq!(
            judge(&steady, &up20, Better::Lower, 0.10, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(&up20, &steady, Better::Lower, 0.10, 0.0),
            Verdict::Better
        );
        // Higher is better: the same numbers, the other way round.
        assert_eq!(
            judge(&steady, &up20, Better::Higher, 0.10, 0.0),
            Verdict::Better
        );
        assert_eq!(
            judge(&up20, &steady, Better::Higher, 0.10, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &steady, Better::Lower, 0.10, 0.0),
            Verdict::Same
        );
        // Inside the bound.
        let up5 = [105.0, 106.0, 104.0];
        assert_eq!(
            judge(&steady, &up5, Better::Lower, 0.10, 0.0),
            Verdict::Same
        );
    }

    #[test]
    fn noisy_sets_resolve_only_when_they_do_not_overlap() {
        let wide = [80.0, 100.0, 120.0, 90.0, 110.0];
        let wide_up = [100.0, 125.0, 150.0, 112.0, 137.0];
        // Medians differ by 25 % but the sets overlap: unresolved.
        assert_eq!(
            judge(&wide, &wide_up, Better::Lower, 0.10, 0.0),
            Verdict::Unresolved
        );
        // Every candidate run above every reference run: resolved.
        let far = [200.0, 240.0, 220.0];
        assert_eq!(judge(&wide, &far, Better::Lower, 0.10, 0.0), Verdict::Worse);
        // Quiet sets, but the runs' own slices were noisy.
        let steady = [100.0, 101.0, 99.0];
        let up20 = [120.0, 121.0, 119.0];
        assert_eq!(
            judge(&steady, &[115.0, 100.5, 121.0], Better::Lower, 0.10, 0.3),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&steady, &up20, Better::Lower, 0.10, 0.3),
            Verdict::Worse
        );
    }
}
