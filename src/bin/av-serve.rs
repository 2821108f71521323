//! `av-serve` — the Auto-Validate validation service.
//!
//! Speaks the JSONL protocol (one request per line, one response per
//! line) over stdin/stdout or TCP, against a crash-safe state directory
//! holding the pattern index and the rule catalog.
//!
//! ```sh
//! # pipe mode: one session over stdin/stdout
//! printf '%s\n' \
//!   '{"op":"ingest","columns":[{"name":"c","values":["10.0.0.1","10.0.0.2"]}]}' \
//!   '{"op":"infer","rule":"ips","values":["10.0.0.7","192.168.0.9"]}' \
//!   '{"op":"persist"}' \
//!   | av-serve --data state/
//!
//! # server mode: shared service, many concurrent clients
//! av-serve --data state/ --tcp 127.0.0.1:7171
//! ```
//!
//! With `--data`, every mutating op is write-ahead logged and fsynced
//! before it is acknowledged, and `{"op":"persist"}` writes an incremental
//! checkpoint (so does the service on its own, once the log since the last
//! checkpoint has grown to that checkpoint's size). On start the service
//! recovers from the newest checkpoint plus the WAL tail, so a kill at any
//! moment loses no acknowledged op. Without `--data` the state lives in
//! memory only.
//!
//! An unknown option or an unparsable value prints the usage and exits 2.

use av_service::{ServiceConfig, ValidationService};
use std::process::ExitCode;
use std::sync::Arc;

/// Print the usage and return the exit code of a command-line error (2).
fn usage() -> ExitCode {
    // The op table's names: every telemetry slot but the two that count
    // frames naming no op.
    let ops: Vec<&str> = av_service::telemetry::OPS
        .into_iter()
        .filter(|op| !matches!(*op, "invalid" | "unknown"))
        .collect();
    let op_lines: Vec<String> = ops.chunks(6).map(|line| line.join(", ")).collect();
    eprintln!(
        "usage:
  av-serve [--data DIR] [--workers N]             serve stdin/stdout (JSONL)
  av-serve [--data DIR] [--workers N] --tcp ADDR  serve TCP clients (JSONL)

options:
  --data DIR     crash-safe state directory: mutating ops are write-ahead
                 logged and fsynced before they are acknowledged;
                 \"persist\" writes an incremental checkpoint, and so does
                 the service once the log since the last checkpoint
                 outweighs it; startup recovers checkpoint + WAL tail
                 (default: state in memory only)
  --workers N    TCP event loops, one thread each (default: all cores,
                 and at least two)
  --tcp ADDR     listen address, e.g. 127.0.0.1:7171 (port 0 picks a free
                 port and prints it)
  --max-request-bytes N
                 largest JSONL request line a TCP client may send before
                 it is disconnected with a protocol error (default 1 MiB)
  --max-connections N
                 admission cap for concurrent TCP connections; accepts
                 past the cap get one {{\"overloaded\":true}} frame and
                 are closed (default 10000; 0 = unlimited)
  --idle-timeout-ms N
                 close a TCP connection with no request activity and no
                 pending work after N ms (default 60000; 0 = never)
  --stall-deadline-ms N
                 drop a TCP connection whose peer accepts no response
                 bytes for N ms while output is pending (default 10000;
                 0 = never)

protocol ops:
  {}",
        op_lines.join(",\n  ")
    );
    ExitCode::from(2)
}

/// Apply one `flag value` pair; `None` for an unknown flag or a value
/// that does not parse.
fn set(
    config: &mut ServiceConfig,
    tcp: &mut Option<String>,
    flag: &str,
    value: &str,
) -> Option<()> {
    match flag {
        "--data" => config.data_dir = Some(value.into()),
        "--tcp" => *tcp = Some(value.to_string()),
        "--workers" => config.workers = value.parse().ok()?,
        "--max-request-bytes" => config.max_request_bytes = value.parse().ok()?,
        "--max-connections" => config.max_connections = value.parse().ok()?,
        "--idle-timeout-ms" => config.idle_timeout_ms = value.parse().ok()?,
        "--stall-deadline-ms" => config.stall_deadline_ms = value.parse().ok()?,
        _ => return None,
    }
    Some(())
}

fn main() -> ExitCode {
    let mut config = ServiceConfig::default();
    let mut tcp: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if matches!(flag.as_str(), "--help" | "-h") {
            usage();
            return ExitCode::SUCCESS;
        }
        let value = args.next();
        if value
            .and_then(|v| set(&mut config, &mut tcp, &flag, &v))
            .is_none()
        {
            return usage();
        }
    }

    let service = match ValidationService::open(config) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("av-serve: failed to open service state: {e}");
            return ExitCode::FAILURE;
        }
    };
    {
        let index = service.snapshot();
        eprintln!(
            "av-serve: ready ({} corpus columns, {} patterns, {} cataloged rules)",
            index.num_columns,
            index.len(),
            service.catalog_len()
        );
    }

    let result = match tcp {
        Some(addr) => av_service::serve_tcp(Arc::clone(&service), addr.as_str(), |bound| {
            eprintln!("av-serve: listening on {bound}");
        }),
        None => av_service::serve_stdin(&service),
    };
    if let Err(e) = result {
        eprintln!("av-serve: transport error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
