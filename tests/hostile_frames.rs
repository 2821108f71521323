//! The largest frames the default configuration admits cost what their
//! length costs, whatever they hold: a single 1 MiB string, a megabyte of
//! `[`, a megabyte of `{"a":`. Each is answered once, with an error, in
//! milliseconds, and the one worker they share is free again for the next
//! connection's `ping`.
//!
//! Before `json::parse` was made linear and depth-bounded the first frame
//! held a worker for 15.6 s and the second overflowed its stack and
//! aborted the process — both far under `max_request_bytes`, which is why
//! `protocol_fuzz` (256-byte frames) never met them. The wall-clock bounds
//! sit far above what a release build needs (about a millisecond a frame)
//! and far below what the quadratic parser took; a debug build gets a
//! looser one.

use av_service::engine::DEFAULT_MAX_REQUEST_BYTES;
use av_service::{serve_listener, std_listener, ServiceConfig, ValidationService};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A few bytes under the cap, so no frame is refused as oversize.
const FRAME_BYTES: usize = DEFAULT_MAX_REQUEST_BYTES - 8;

fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

#[test]
fn a_megabyte_of_anything_is_answered_in_milliseconds() {
    let (frame_limit, ping_limit) = if cfg!(debug_assertions) {
        (Duration::from_secs(5), Duration::from_secs(5))
    } else {
        (Duration::from_millis(250), Duration::from_millis(50))
    };

    // One worker: a frame that parks it parks the service.
    let service = Arc::new(ValidationService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    }));
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_listener(service, std_listener(listener).unwrap()))
    };

    let head = r#"{"op":"validate","rule":"no-such-rule","values":[""#;
    let one_string = format!("{head}{}\"]}}", "a".repeat(FRAME_BYTES - head.len() - 3));
    let frames = [
        (one_string, "no-such-rule"),
        ("[".repeat(FRAME_BYTES), "nesting deeper than 64"),
        (r#"{"a":"#.repeat(FRAME_BYTES / 5), "nesting deeper than 64"),
    ];

    let (mut hostile, mut hostile_replies) = connect(addr);
    let (mut bystander, mut bystander_replies) = connect(addr);
    for (i, (frame, expected)) in frames.iter().enumerate() {
        assert!(frame.len() <= FRAME_BYTES && frame.len() > FRAME_BYTES - 8);
        let sent = Instant::now();
        hostile.write_all(frame.as_bytes()).unwrap();
        hostile.write_all(b"\n").unwrap();
        // The frame is whole and on its way to the worker: a second
        // connection's request queues behind it.
        let pinged = Instant::now();
        bystander.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let pong = reply(&mut bystander_replies);
        let ping_took = pinged.elapsed();
        let line = reply(&mut hostile_replies);
        let frame_took = sent.elapsed();

        assert!(pong.contains("\"pong\":true"), "frame {i}: {pong}");
        assert!(
            line.contains("\"ok\":false") && line.contains(expected),
            "frame {i}: {line}"
        );
        assert!(
            frame_took < frame_limit,
            "frame {i} answered in {frame_took:?}"
        );
        assert!(
            ping_took < ping_limit,
            "ping beside frame {i} answered in {ping_took:?}"
        );
    }
    // Exactly one reply each: the connection is still in step.
    hostile.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    assert!(reply(&mut hostile_replies).contains("\"pong\":true"));

    service.request_shutdown();
    server.join().unwrap().unwrap();
    let stats = service.stats();
    assert_eq!(stats.frames_executed, 7, "{stats:?}");
    assert_eq!(
        (
            stats.requests_shed,
            stats.connection_errors,
            stats.stalls_shed
        ),
        (0, 0, 0),
        "{stats:?}"
    );
}
