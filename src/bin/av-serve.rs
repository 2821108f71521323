//! `av-serve` — the Auto-Validate validation service.
//!
//! Speaks the JSONL protocol (one request per line, one response per
//! line) over stdin/stdout or TCP, against a persistent service state
//! directory holding the pattern index and the rule catalog.
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
//! On startup the service reloads `state/index.avix` and
//! `state/rules.avcat` when present; `{"op":"persist"}` writes them back.
//!
//! With `--durable`, every mutating op is write-ahead logged before it is
//! acknowledged and `persist` writes an incremental checkpoint (so does
//! the service on its own, once the log since the last checkpoint has
//! grown to that checkpoint's size); on start the service recovers from
//! the newest checkpoint plus the WAL tail, so a kill at any moment loses
//! no acknowledged op.
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
  --data DIR     state directory (index.avix + rules.avcat); reloaded on
                 start when present, written by the \"persist\" op
  --workers N    threads: the TCP event loops, and the most one
                 validate_batch call spreads over (default: all cores,
                 and at least two event loops)
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
  --durable      crash-safe mode (requires --data): mutating ops are
                 write-ahead logged and fsynced before they are
                 acknowledged; \"persist\" writes an incremental
                 checkpoint, and so does the service once the log since
                 the last checkpoint outweighs it; startup recovers
                 checkpoint + WAL tail
  --wal-segment-bytes N
                 rotate WAL segments at N bytes (default 8 MiB)

protocol ops:
  {}",
        op_lines.join(",\n  ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServiceConfig::default();
    let mut tcp: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data" => {
                let Some(dir) = args.get(i + 1) else {
                    return usage();
                };
                config.data_dir = Some(dir.into());
                i += 2;
            }
            "--workers" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                config.workers = n;
                i += 2;
            }
            "--tcp" => {
                let Some(addr) = args.get(i + 1) else {
                    return usage();
                };
                tcp = Some(addr.clone());
                i += 2;
            }
            "--max-request-bytes" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                config.max_request_bytes = n;
                i += 2;
            }
            "--max-connections" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                config.max_connections = n;
                i += 2;
            }
            "--idle-timeout-ms" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                config.idle_timeout_ms = n;
                i += 2;
            }
            "--stall-deadline-ms" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                config.stall_deadline_ms = n;
                i += 2;
            }
            "--durable" => {
                config.durability.enabled = true;
                i += 1;
            }
            "--wal-segment-bytes" => {
                let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                config.durability.wal_segment_bytes = n;
                i += 2;
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    if config.durability.enabled && config.data_dir.is_none() {
        eprintln!("av-serve: --durable requires --data DIR");
        return usage();
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
            service.catalog_entries().len()
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
