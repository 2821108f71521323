//! `av-ledger` — the service ledger: five wire-level workloads against an
//! in-process `av_service::serve_listener`, every reply checked against
//! an oracle of direct engine calls, reduced to end-to-end metrics, and
//! (with `--trace`) an outside-in cost ladder over the service's layers.
//! See `bench/README.md`.

mod compare;
mod inputs;
mod json;
mod ladder;
mod net;
mod oracle;
mod report;
mod run;
mod setup;
mod shims;
mod stats;

use inputs::{Scale, Workload};
use report::{ledger_line, result_line, Provenance, END_TO_END, PER_LAYER};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: av-ledger run --workload <name|all> --seed <n> [--seconds <s>] [--trace [0|1]]
                     [--smoke] [--ledger <file.jsonl>]
       av-ledger compare <reference.jsonl> <candidate.jsonl>

workloads: validate_feeds classify_burst onboard_lake durable_feed (listed in
           BENCHMARK.json), classify_paced (on request only)";

/// Window length when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`), and under `--smoke`.
const DEFAULT_SECONDS: u64 = 16;
const SMOKE_SECONDS: u64 = 2;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    ledger: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        ledger: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |text: String, flag: &str| -> Result<u64, String> {
        text.parse()
            .map_err(|_| format!("{flag} needs a whole number, got {text:?}"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => parsed.workload = value(&mut i, "--workload")?,
            "--seed" => parsed.seed = number(value(&mut i, "--seed")?, "--seed")?,
            "--seconds" => {
                parsed.seconds = Some(number(value(&mut i, "--seconds")?, "--seconds")?.max(1))
            }
            "--trace" => {
                // Bare `--trace` switches tracing on; `--trace 0|1` says which.
                parsed.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            "--ledger" => parsed.ledger = Some(PathBuf::from(value(&mut i, "--ledger")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// `--workload all`: one fresh process per workload (peak memory and
/// set-up time are per process), each printing its own listing.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        let mut child_args = vec!["run".to_string()];
        let mut skip = false;
        for a in args {
            if skip {
                skip = false;
                child_args.push(workload.name().to_string());
            } else {
                skip = a == "--workload";
                child_args.push(a.clone());
            }
        }
        println!("== {} ==", workload.name());
        match std::process::Command::new(&exe).args(&child_args).status() {
            Ok(status) if status.success() => {}
            Ok(_) => worst = ExitCode::from(1),
            Err(e) => {
                eprintln!("cannot run {}: {e}", workload.name());
                worst = ExitCode::from(2);
            }
        }
    }
    worst
}

fn run(args: &[String]) -> ExitCode {
    let parsed = match parse_run(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if parsed.workload == "all" {
        return run_all(args);
    }
    let Some(workload) = Workload::parse(&parsed.workload) else {
        eprintln!("unknown workload {:?}\n{USAGE}", parsed.workload);
        return ExitCode::from(2);
    };
    let scale = Scale {
        smoke: parsed.smoke,
    };
    let seconds = parsed.seconds.unwrap_or(if parsed.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir = bench_dir.join("out");
    let scratch = out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let outcome = if parsed.trace {
        ladder::traced(workload, parsed.seed, seconds, scale, &out_dir)
    } else {
        let env = setup::Env {
            scratch,
            storage: None,
        };
        run::end_to_end(workload, parsed.seed, seconds, scale, &env)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} failed: {e}", workload.name());
            return ExitCode::from(2);
        }
    };

    println!(
        "workload {} seed {} seconds {seconds} trace {} inputs_digest {:016x}",
        workload.name(),
        parsed.seed,
        parsed.trace as u8,
        outcome.inputs_digest
    );
    outcome.metrics.print();
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("{:<34} {:>16.6} ratio", "failed_share", failed_share);

    let ledger = parsed
        .ledger
        .unwrap_or_else(|| out_dir.join("ledger.jsonl"));
    let provenance = Provenance::gather(&bench_dir.join(".."));
    let line = ledger_line(
        &provenance,
        workload.name(),
        parsed.seed,
        seconds,
        parsed.trace,
        &outcome,
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&ledger)
        .and_then(|mut f| writeln!(f, "{line}"));
    if let Err(e) = appended {
        eprintln!("cannot append to {}: {e}", ledger.display());
        return ExitCode::from(2);
    }

    let defs = if parsed.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&outcome, defs));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare(&args[1], &args[2]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
