//! Serve loops: drive a [`ValidationService`] over any line-oriented
//! transport — stdin/stdout for pipes and tests, TCP for network clients.
//! Every transport speaks the same JSONL protocol (see
//! [`crate::protocol`]).
//!
//! The TCP loop ([`serve_tcp`]) is **event-driven**: a fixed set of
//! event loops, one thread each, multiplexes the connections over
//! readiness pollers (the vendored `polling` crate — epoll on Linux),
//! nonblocking sockets, and per-connection state machines. A connection
//! lives on one loop, which reads, executes and answers its requests on
//! that one thread. Per-event cost tracks ready work, never connection
//! count, and overload degrades explicitly instead of stalling:
//!
//! * **admission control** — connections past
//!   `ServiceConfig::max_connections` get one JSONL `overloaded` frame
//!   and are closed (counted in
//!   [`ServiceStats::connections_rejected`](crate::ServiceStats));
//! * **pipelining with a cap** — many frames may be in flight per
//!   connection, and a connection's run of them is the unit of work:
//!   executed in turns on its loop, one `write` for its replies (sockets
//!   are `TCP_NODELAY`, always: the loop coalesces, so a kernel timer has
//!   nothing to add). A turn ends when the run is exhausted, at a
//!   `shutdown` or `watch` frame, past 64 KiB of replies, or after a time
//!   slice while something else on the loop waits. A connection waits
//!   only behind frames of connections on its own loop. Frames past the
//!   per-connection cap are answered `overloaded` in request order
//!   (`requests_shed`);
//! * **bounded buffers with backpressure** — request lines are capped
//!   (`ServiceConfig::max_request_bytes`), and a connection whose write
//!   buffer passes the high watermark stops being polled readable until
//!   the peer drains;
//! * **deadlines, not budgets** — a peer making zero drain progress for
//!   `ServiceConfig::stall_deadline_ms` is shed (`stalls_shed`), and one
//!   sending nothing for `ServiceConfig::idle_timeout_ms` is closed
//!   cleanly (slow-loris defense);
//! * **immediate shutdown** — [`ValidationService::request_shutdown`]
//!   wakes every loop through its poller's self-pipe, so shutdown
//!   latency is syscall-scale, not a poll interval;
//! * **counted failures** — connections that end in I/O or protocol
//!   errors increment `ServiceStats::connection_errors` instead of
//!   vanishing.
//!
//! The transport is abstracted behind [`NetSocket`]/[`NetListener`] so
//! chaos tests can inject deterministic socket faults ([`NetFaultPlan`],
//! [`FaultListener`]) — short reads and writes, EAGAIN storms, mid-frame
//! resets, accept failures — at every socket-op index of a workload and
//! assert the loop never deadlocks and never tears a response frame (see
//! [`serve_listener`]).

mod conn;
mod event_loop;
mod netfault;

pub use event_loop::serve_listener;
pub use netfault::{std_listener, FaultKind, FaultListener, NetFaultPlan, NetListener, NetSocket};

use crate::engine::ValidationService;
use crate::protocol::{handle_line_into, render_watch_frame, WatchParams};
use std::io::{BufRead, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::Instant;

/// Serve JSONL requests from `input`, writing responses to `output`.
/// Returns when the input ends, a `shutdown` op arrives, or the service
/// was asked to shut down elsewhere.
pub fn serve_lines<R: BufRead, W: Write>(
    service: &ValidationService,
    input: R,
    mut output: W,
) -> std::io::Result<()> {
    // One response buffer for the whole connection: the serializer reuses
    // it across lines instead of allocating a String per response.
    let mut response = String::new();
    for line in input.lines() {
        if service.is_shutdown() {
            break;
        }
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let outcome = handle_line_into(service, &line, &mut response);
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        if let Some(watch) = outcome.watch {
            stream_watch_frames(service, &watch, &mut response, |bytes| {
                output.write_all(bytes)?;
                output.flush()
            })?;
        }
        if outcome.shutdown {
            break;
        }
    }
    Ok(())
}

/// Drive one `watch` session on a blocking pipe transport: every
/// interval, snapshot the telemetry into a frame (owned values, no
/// service lock) and hand the bytes to `emit`. The inter-frame sleep
/// rides [`ValidationService::wait_shutdown_timeout`], so a shutdown
/// requested anywhere interrupts it immediately instead of at a poll
/// cadence. Ends after the requested frame count, on shutdown, or when
/// `emit` fails (client gone). (TCP watch streams don't come through
/// here — the event loop paces them off its timer heap.)
fn stream_watch_frames(
    service: &ValidationService,
    params: &WatchParams,
    buf: &mut String,
    mut emit: impl FnMut(&[u8]) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let start = Instant::now();
    let mut frame = 0u64;
    loop {
        if let Some(max) = params.frames {
            if frame >= max {
                return Ok(());
            }
        }
        if service.wait_shutdown_timeout(params.interval) {
            return Ok(());
        }
        render_watch_frame(service, params, frame, start.elapsed(), buf);
        buf.push('\n');
        emit(buf.as_bytes())?;
        frame += 1;
    }
}

/// Serve the process's stdin/stdout until EOF or shutdown.
pub fn serve_stdin(service: &ValidationService) -> std::io::Result<()> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_lines(service, stdin.lock(), stdout.lock())
}

/// Listen on `addr` and serve connections through the event loop, all
/// sharing one service. Returns the bound local address via the callback
/// (useful with port 0), and runs until a client sends `shutdown` or
/// [`ValidationService::request_shutdown`] is called — idle connections
/// cannot delay the exit (the shutdown waker interrupts the poller
/// immediately).
pub fn serve_tcp<A: ToSocketAddrs>(
    service: Arc<ValidationService>,
    addr: A,
    mut on_bound: impl FnMut(std::net::SocketAddr),
) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    on_bound(listener.local_addr()?);
    serve_listener(service, std_listener(listener)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServiceConfig;
    use crate::protocol::response_ok;
    use std::io::Cursor;
    use std::time::Duration;

    #[test]
    fn serve_lines_round_trips_a_session() {
        let service = ValidationService::new(ServiceConfig::default());
        let input = concat!(
            r#"{"op":"ping"}"#,
            "\n",
            "\n", // blank lines are skipped
            r#"{"op":"ingest","columns":[{"name":"c","values":["00:01:02","03:04:05","06:07:08"]}]}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
            r#"{"op":"ping"}"#, // never reached: shutdown broke the loop
            "\n",
        );
        let mut out = Vec::new();
        serve_lines(&service, Cursor::new(input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines.iter().all(|l| response_ok(l)), "{text}");
        assert!(service.is_shutdown());
    }

    #[test]
    fn tcp_serves_concurrent_clients() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let service = Arc::new(ValidationService::new(ServiceConfig::default()));
        let lake = av_corpus::generate_lake(&av_corpus::LakeProfile::tiny(), 31);
        let columns: Vec<av_corpus::Column> = lake.columns().cloned().collect();
        service.ingest(&columns).unwrap();
        let train: Vec<String> = (1..=28).map(|d| format!("2020-01-{d:02}")).collect();
        service.infer_rule("dates", &train, None).unwrap();

        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                serve_tcp(service, ("127.0.0.1", 0), move |a| {
                    addr_tx.send(a).unwrap();
                })
            })
        };
        let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();

        let clients: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    let req = format!(
                        r#"{{"op":"validate","rule":"dates","values":["2020-02-{:02}"]}}"#,
                        i + 1
                    );
                    stream.write_all(req.as_bytes()).unwrap();
                    stream.write_all(b"\n").unwrap();
                    let mut line = String::new();
                    BufReader::new(stream).read_line(&mut line).unwrap();
                    assert!(response_ok(&line), "{line}");
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }

        // An idle client that never sends anything must not be able to
        // delay shutdown (its loop closes it on the way out).
        let idle = TcpStream::connect(addr).unwrap();

        // One more client shuts the server down.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert!(response_ok(&line));
        server.join().unwrap().unwrap();
        drop(idle);
        assert_eq!(service.stats().validations, 4);
        assert_eq!(service.stats().connection_errors, 0);
    }

    /// The regression for the unbounded `read_line`: a client streaming an
    /// oversized frame (no newline) gets a protocol error and is
    /// disconnected — the server buffers at most `max_request_bytes`.
    #[test]
    fn oversized_request_line_is_rejected_and_connection_closed() {
        use std::io::{BufRead, BufReader, Read, Write};
        use std::net::TcpStream;

        let config = ServiceConfig {
            max_request_bytes: 512,
            ..Default::default()
        };
        let service = Arc::new(ValidationService::new(config));
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                serve_tcp(service, ("127.0.0.1", 0), move |a| {
                    addr_tx.send(a).unwrap();
                })
            })
        };
        let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();

        // One 700-byte burst of 'a' with no newline — beyond the 512-byte
        // cap, small enough that the server's first buffered read drains
        // the whole frame (so its close is a clean FIN the client can
        // read the error response past).
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[b'a'; 700]).unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!response_ok(&line), "{line}");
        assert!(line.contains("exceeds 512 bytes"), "{line}");
        // The server hung up: the next read hits EOF (or a reset if the
        // stacks raced — either way, no more data).
        let mut rest = Vec::new();
        let drained = reader.read_to_end(&mut rest);
        assert!(drained.is_err() || rest.is_empty());

        // A well-behaved client on a fresh connection still gets served.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(response_ok(&line), "{line}");

        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        server.join().unwrap().unwrap();
        // The oversized connection was counted as a protocol error.
        assert_eq!(service.stats().connection_errors, 1);
    }

    /// Non-UTF-8 request bytes get a protocol error, close the
    /// connection, and count as a connection error.
    #[test]
    fn invalid_utf8_request_is_counted_as_connection_error() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let service = Arc::new(ValidationService::new(ServiceConfig::default()));
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                serve_tcp(service, ("127.0.0.1", 0), move |a| {
                    addr_tx.send(a).unwrap();
                })
            })
        };
        let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[0xff, 0xfe, 0xc0, b'\n']).unwrap();
        let mut line = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert!(!response_ok(&line), "{line}");
        assert!(line.contains("utf-8"), "{line}");

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        assert!(response_ok(&line));
        server.join().unwrap().unwrap();
        assert_eq!(service.stats().connection_errors, 1);
    }

    /// Pipelining: many frames written in one burst all get answered, in
    /// request order, on one connection.
    #[test]
    fn pipelined_frames_are_answered_in_order() {
        use crate::json::Json;
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let service = Arc::new(ValidationService::new(ServiceConfig::default()));
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                serve_tcp(service, ("127.0.0.1", 0), move |a| {
                    addr_tx.send(a).unwrap();
                })
            })
        };
        let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();

        let mut stream = TcpStream::connect(addr).unwrap();
        let mut burst = String::new();
        for i in 0..32 {
            burst.push_str(&format!("{{\"op\":\"classify\",\"value\":\"v{i}\"}}\n"));
        }
        stream.write_all(burst.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for i in 0..32 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(response_ok(&line), "frame {i}: {line}");
            let v = crate::json::parse(&line).unwrap();
            let results = v.get("results").unwrap().as_arr().unwrap();
            assert_eq!(
                results[0].get("value").and_then(Json::as_str),
                Some(format!("v{i}").as_str()),
                "{line}"
            );
        }

        stream.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(response_ok(&line));
        server.join().unwrap().unwrap();
        assert_eq!(service.stats().classifications, 32);
        assert_eq!(service.stats().requests_shed, 0);
        assert_eq!(service.stats().connection_errors, 0);
    }

    /// Admission control: connections past `max_connections` get one
    /// `overloaded` frame and are turned away; closing an admitted
    /// connection frees its slot.
    #[test]
    fn admission_control_rejects_connections_over_the_cap() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpStream;

        let config = ServiceConfig {
            max_connections: 2,
            ..Default::default()
        };
        let service = Arc::new(ValidationService::new(config));
        let (addr_tx, addr_rx) = std::sync::mpsc::channel();
        let server = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                serve_tcp(service, ("127.0.0.1", 0), move |a| {
                    addr_tx.send(a).unwrap();
                })
            })
        };
        let addr = addr_rx.recv_timeout(Duration::from_secs(10)).unwrap();

        // Fill both slots with live sessions.
        let mut keep = Vec::new();
        for _ in 0..2 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(response_ok(&line), "{line}");
            keep.push(stream);
        }

        // The third connection is rejected with an overloaded frame.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!response_ok(&line), "{line}");
        assert!(line.contains("\"overloaded\":true"), "{line}");
        // And then closed.
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "{rest}");

        // Freeing a slot re-admits new connections.
        drop(keep.pop());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
            let mut line = String::new();
            BufReader::new(stream.try_clone().unwrap())
                .read_line(&mut line)
                .unwrap();
            if response_ok(&line) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "slot never freed: {line}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }

        service.request_shutdown();
        server.join().unwrap().unwrap();
        assert!(service.stats().connections_rejected >= 1);
    }
}
