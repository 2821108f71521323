//! Live TCP tests for the `watch` telemetry stream: frame cadence and
//! content over a real socket, and the slow-reader regression — a watch
//! client that stops draining its socket must never block validation or
//! inference (frames are built from owned snapshots; no service lock is
//! held while writing).

use av_service::{response_ok, serve_tcp, ServiceConfig, TelemetryConfig, ValidationService};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn dates(month: u32) -> Vec<String> {
    (1..=28)
        .map(|d| format!("2019-{month:02}-{d:02}"))
        .collect()
}

/// A served instance with a cataloged rule and a telemetry window wide
/// enough (300 s) that window counters cannot rotate mid-test.
fn serve_with_rule() -> (
    Arc<ValidationService>,
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let config = ServiceConfig {
        telemetry: TelemetryConfig {
            bucket_millis: 10_000,
        },
        ..Default::default()
    };
    let service = Arc::new(ValidationService::new(config));
    let lake = av_corpus::generate_lake(&av_corpus::LakeProfile::tiny(), 47);
    let columns: Vec<av_corpus::Column> = lake.columns().cloned().collect();
    service.ingest(&columns).unwrap();
    service.infer_rule("dates", &dates(3), None).unwrap();

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
    (service, addr, server)
}

fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

fn shut_down(addr: std::net::SocketAddr) {
    let mut stream = TcpStream::connect(addr).unwrap();
    send_line(&mut stream, r#"{"op":"shutdown"}"#);
    let mut reader = BufReader::new(stream);
    assert!(response_ok(&read_line(&mut reader)));
}

/// The acceptance criterion: a `watch` session streams ≥ 3 interval frames
/// over live TCP, each carrying the rule's correct per-window flag rate.
#[test]
fn watch_streams_interval_frames_with_correct_flag_rates() {
    let (service, addr, server) = serve_with_rule();

    // 3 conforming validations + 1 flagged → flag rate 0.25.
    for month in [4, 5, 6] {
        assert!(!service.validate("dates", &dates(month)).unwrap().flagged);
    }
    let drifted: Vec<String> = (0..40).map(|i| format!("user-{i}")).collect();
    assert!(service.validate("dates", &drifted).unwrap().flagged);

    let mut stream = TcpStream::connect(addr).unwrap();
    send_line(
        &mut stream,
        r#"{"op":"watch","interval_ms":60,"frames":4,"rules":["dates"]}"#,
    );
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let ack = read_line(&mut reader);
    assert!(response_ok(&ack), "{ack}");

    let start = Instant::now();
    let mut frames = Vec::new();
    for want in 0..4 {
        let frame = read_line(&mut reader);
        let v = av_service::json::parse(&frame).unwrap();
        assert_eq!(v.get("frame").unwrap().as_usize(), Some(want), "{frame}");
        let rules = v.get("rules").unwrap().as_arr().unwrap();
        assert_eq!(rules.len(), 1, "{frame}");
        let r = &rules[0];
        assert_eq!(r.get("rule").unwrap().as_str(), Some("dates"));
        assert_eq!(r.get("window_validations").unwrap().as_usize(), Some(4));
        assert_eq!(r.get("window_flagged").unwrap().as_usize(), Some(1));
        assert_eq!(r.get("flag_rate").unwrap().as_f64(), Some(0.25));
        assert_eq!(r.get("alert").unwrap().as_bool(), Some(false));
        frames.push(frame);
    }
    assert!(frames.len() >= 3);
    // Frames were paced, not dumped: 4 frames at 60 ms each need ≥ 200 ms.
    assert!(
        start.elapsed() >= Duration::from_millis(200),
        "frames arrived in {:?}",
        start.elapsed()
    );
    // The frame budget exhausted, the connection is a plain request line
    // again — and stays usable.
    send_line(&mut stream, r#"{"op":"ping"}"#);
    assert!(response_ok(&read_line(&mut reader)));

    shut_down(addr);
    server.join().unwrap().unwrap();
    assert_eq!(service.stats().connection_errors, 0);
}

/// The satellite regression: a watch client that never drains its socket
/// must not block rule inference or validation happening on other
/// connections — telemetry frames are serialized from owned snapshots, so
/// the stalled write holds no catalog or telemetry lock.
#[test]
fn stalled_watch_client_does_not_block_validation_or_inference() {
    let (_service, addr, server) = serve_with_rule();

    // A watch stream with a fast cadence and no frame limit, whose client
    // never reads a byte.
    let stalled = TcpStream::connect(addr).unwrap();
    {
        let mut stalled = stalled.try_clone().unwrap();
        send_line(&mut stalled, r#"{"op":"watch","interval_ms":20}"#);
    }

    // Give the stream time to start emitting frames into the socket.
    std::thread::sleep(Duration::from_millis(150));

    // Meanwhile, catalog writes and validations on a live connection must
    // complete promptly.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let started = Instant::now();
    for i in 0..10 {
        let train: Vec<String> = dates(3).iter().map(|d| format!("\"{d}\"")).collect();
        send_line(
            &mut stream,
            &format!(
                r#"{{"op":"infer","rule":"probe-{i}","values":[{}]}}"#,
                train.join(",")
            ),
        );
        assert!(response_ok(&read_line(&mut reader)), "infer {i} blocked");
        let test: Vec<String> = dates(4).iter().map(|d| format!("\"{d}\"")).collect();
        send_line(
            &mut stream,
            &format!(
                r#"{{"op":"validate","rule":"probe-{i}","values":[{}]}}"#,
                test.join(",")
            ),
        );
        assert!(response_ok(&read_line(&mut reader)), "validate {i} blocked");
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "10 infer+validate round-trips took {:?} alongside a stalled watch",
        started.elapsed()
    );

    shut_down(addr);
    server.join().unwrap().unwrap();
    drop(stalled);
}
