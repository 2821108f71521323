//! Socket-fault chaos matrix for the event-driven serve loop.
//!
//! A reference run of a scripted multi-connection workload counts the
//! socket ops it performs ([`NetFaultPlan::none`]); the matrix then
//! replays the same workload with one deterministic fault injected at
//! every op index — short-I/O storms, EAGAIN storms, and hard resets
//! ([`FaultKind`]) — asserting that:
//!
//! * nothing deadlocks (every client completes or fails within its read
//!   timeout, and the server always shuts down);
//! * no response frame is ever torn (every line a client receives parses
//!   as a complete JSON object);
//! * short-I/O and EAGAIN storms are fully absorbed — every client
//!   completes with exactly its expected responses, in order;
//! * a reset kills at most the one connection it hit; every other
//!   connection is served to completion, and a fresh probe connection
//!   still gets a `ping` answered afterwards.
//!
//! Debug runs rotate the fault kind per index; set `AV_CHAOS_FULL=1`
//! (the release CI step) for the full kinds × indexes matrix.

use av_service::{
    response_ok, serve_listener, FaultKind, FaultListener, NetFaultPlan, NetListener,
    ServiceConfig, ValidationService,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 3;
const FRAMES: usize = 6;
/// Bursts per session. A burst's replies leave the server in one write,
/// so a session of one burst is four socket ops; the second burst, sent
/// once the first is answered, keeps the reference workload above twenty
/// and gives the matrix injection points between the runs of one
/// connection (a short-I/O window also tears a run's write mid-reply).
const BURSTS: usize = 2;

/// One scripted client session: pipelined bursts of ping/classify
/// frames, each read back in full before the next is sent. `Ok(())`
/// means the session completed exactly as scripted; `Err` describes how
/// it was cut short.
fn run_client(addr: SocketAddr, client: usize) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for burst in 0..BURSTS {
        let frames = burst * FRAMES..(burst + 1) * FRAMES;
        let mut text = String::new();
        for i in frames.clone() {
            if i % 2 == 0 {
                text.push_str("{\"op\":\"ping\"}\n");
            } else {
                text.push_str(&format!(
                    "{{\"op\":\"classify\",\"value\":\"c{client}-{i}\"}}\n"
                ));
            }
        }
        writer
            .write_all(text.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        if burst + 1 == BURSTS {
            let _ = writer.shutdown(std::net::Shutdown::Write);
        }
        for i in frames {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => return Err(format!("eof after {i} responses")),
                Ok(_) => {}
                Err(e) => return Err(format!("read after {i} responses: {e}")),
            }
            // Torn-frame check: whatever else the fault did, a delivered
            // line is one complete JSON object with an `ok` field.
            assert!(line.ends_with('\n'), "client {client}: torn line {line:?}");
            let v = av_service::json::parse(line.trim_end())
                .unwrap_or_else(|e| panic!("client {client}: invalid frame {line:?}: {e:?}"));
            assert_eq!(
                v.get("ok").and_then(|j| j.as_bool()),
                Some(true),
                "client {client} frame {i}: {line}"
            );
            if i % 2 == 1 {
                // Responses must arrive in request order: the classify echo
                // carries this frame's marker.
                let value = v.get("results").and_then(|r| r.as_arr()).and_then(|a| {
                    a.first()
                        .and_then(|r| r.get("value"))
                        .and_then(|s| s.as_str())
                });
                assert_eq!(
                    value,
                    Some(format!("c{client}-{i}").as_str()),
                    "client {client}: out-of-order response {line}"
                );
            }
        }
    }
    // A clean disconnect follows the final response.
    let mut rest = String::new();
    match reader.read_line(&mut rest) {
        Ok(0) => Ok(()),
        Ok(_) => Err(format!("unexpected extra frame {rest:?}")),
        Err(e) => Err(format!("close: {e}")),
    }
}

/// Run the scripted workload against a serve loop whose transport is
/// gated by `plan`; returns per-client outcomes.
fn run_workload(plan: &NetFaultPlan) -> Vec<Result<(), String>> {
    let service = Arc::new(ValidationService::new(ServiceConfig::default()));
    let listener = FaultListener::bind(("127.0.0.1", 0), plan.clone()).unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_listener(service, Box::new(listener)))
    };

    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || run_client(addr, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });

    // Whatever the fault hit, the serve loop must still be serving:
    // a fresh probe connection gets a ping answered. (The first probe
    // may itself absorb a not-yet-fired fault — retry a few times.)
    let mut healthy = false;
    for _ in 0..5 {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            continue;
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        if stream.write_all(b"{\"op\":\"ping\"}\n").is_err() {
            continue;
        }
        let mut line = String::new();
        if BufReader::new(stream).read_line(&mut line).is_ok() && response_ok(&line) {
            healthy = true;
            break;
        }
    }
    assert!(healthy, "serve loop stopped answering after the fault");

    service.request_shutdown();
    server
        .join()
        .expect("server panicked")
        .expect("serve loop errored");
    results
}

#[test]
fn every_socket_op_index_survives_an_injected_fault() {
    // Reference run: count the workload's socket ops, fault-free.
    let reference = NetFaultPlan::none();
    for (i, outcome) in run_workload(&reference).into_iter().enumerate() {
        assert_eq!(outcome, Ok(()), "reference client {i}");
    }
    let total_ops = reference.ops_executed();
    assert!(total_ops > 20, "workload too small: {total_ops} socket ops");
    eprintln!("net_chaos: {total_ops} socket ops in the reference workload");

    let kinds = [FaultKind::ShortIo, FaultKind::Eagain, FaultKind::Reset];
    let full = std::env::var("AV_CHAOS_FULL").is_ok_and(|v| v == "1");
    for index in 0..total_ops {
        // Debug rotates kinds across indexes; AV_CHAOS_FULL covers the
        // whole cross product.
        let at_index: &[FaultKind] = if full {
            &kinds
        } else {
            &kinds[(index as usize) % kinds.len()..][..1]
        };
        for &kind in at_index {
            let outcomes = run_workload(&NetFaultPlan::fault_at(index, kind));
            let failed: Vec<(usize, &String)> = outcomes
                .iter()
                .enumerate()
                .filter_map(|(c, r)| r.as_ref().err().map(|e| (c, e)))
                .collect();
            match kind {
                FaultKind::ShortIo | FaultKind::Eagain => {
                    // Retryable faults must be invisible to every client.
                    assert!(
                        failed.is_empty(),
                        "{kind:?}@{index}: clients failed: {failed:?}"
                    );
                }
                FaultKind::Reset => {
                    // At most the one connection the reset hit goes down;
                    // everything else is served to completion.
                    assert!(
                        failed.len() <= 1,
                        "{kind:?}@{index}: more than one client failed: {failed:?}"
                    );
                }
            }
        }
    }
}
