//! A connection's run of pipelined frames is one job, one completion and
//! one `write`: the replies of a burst leave in request order in a
//! couple of socket writes, no reply waits for a kernel timer
//! (`TCP_NODELAY` on accepted sockets), control frames still cut a run
//! exactly where they did when frames were dispatched one at a time, the
//! frames a worker holds still count against the pipelining cap, and a
//! run cannot hold a worker against another connection, nor one heavy
//! frame a second connection that another worker is free to serve.
//!
//! Deterministic: every assertion is on reply content and order or on
//! the server's own socket writes, seen through a counting wrapper over
//! the public transport traits. The one wall-clock bound (a burst in
//! under 20 ms) separates a 40-ms delayed-ACK stall from a sub-millisecond
//! burst; it means the most in a release build, which is how CI runs it.

use av_service::{
    response_ok, serve_listener, std_listener, NetListener, NetSocket, ServiceConfig,
    ValidationService,
};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server's successful socket writes, in order: the connection
/// (numbered by accept order) each one went to.
type WriteLog = Arc<Mutex<Vec<usize>>>;

struct LoggingListener {
    inner: Box<dyn NetListener>,
    log: WriteLog,
    accepted: usize,
}

impl NetListener for LoggingListener {
    fn accept(&mut self) -> io::Result<Option<Box<dyn NetSocket>>> {
        let Some(inner) = self.inner.accept()? else {
            return Ok(None);
        };
        let conn = self.accepted;
        self.accepted += 1;
        let log = Arc::clone(&self.log);
        Ok(Some(Box::new(LoggingSocket { inner, log, conn })))
    }
    fn raw_fd(&self) -> i32 {
        self.inner.raw_fd()
    }
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

struct LoggingSocket {
    inner: Box<dyn NetSocket>,
    log: WriteLog,
    conn: usize,
}

impl NetSocket for LoggingSocket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // Logged under the lock the write was made under: a client that
        // has read a write's bytes finds the write in the log.
        let mut log = self.log.lock().unwrap();
        let n = self.inner.write(buf)?;
        log.push(self.conn);
        Ok(n)
    }
    fn raw_fd(&self) -> i32 {
        self.inner.raw_fd()
    }
    fn shutdown_write(&mut self) {
        self.inner.shutdown_write();
    }
}

struct Served {
    service: Arc<ValidationService>,
    addr: SocketAddr,
    log: WriteLog,
    server: JoinHandle<io::Result<()>>,
}

fn serve(config: ServiceConfig) -> Served {
    let service = Arc::new(ValidationService::new(config));
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let log = WriteLog::default();
    let listener = LoggingListener {
        inner: std_listener(listener).unwrap(),
        log: Arc::clone(&log),
        accepted: 0,
    };
    let server = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_listener(service, Box::new(listener)))
    };
    Served {
        service,
        addr,
        log,
        server,
    }
}

impl Served {
    fn connect(&self) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(self.addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn stop(self) -> Arc<ValidationService> {
        self.service.request_shutdown();
        self.server.join().unwrap().unwrap();
        self.service
    }
}

/// The next reply line; empty at EOF.
fn reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line
}

/// (a) Three bursts on one kept-alive connection: 96 replies in request
/// order, a burst's replies leave in at most two writes, and no burst
/// after the first waits out a delayed-ACK timer.
#[test]
fn a_burst_is_answered_in_order_in_one_write_with_no_timer_stall() {
    const DEPTH: usize = 32;
    let served = serve(ServiceConfig::default());
    let (mut stream, mut reader) = served.connect();
    let mut later_bursts = Vec::new();
    for burst in 0..3 {
        let mut frames = String::new();
        for i in burst * DEPTH..(burst + 1) * DEPTH {
            frames.push_str(&match i % 3 {
                0 => "{\"op\":\"ping\"}\n".to_string(),
                1 => format!("{{\"op\":\"classify\",\"value\":\"v{i}\"}}\n"),
                _ => format!("{{\"op\":\"nope{i}\"}}\n"),
            });
        }
        let writes_before = served.log.lock().unwrap().len();
        let sent = Instant::now();
        stream.write_all(frames.as_bytes()).unwrap();
        for i in burst * DEPTH..(burst + 1) * DEPTH {
            let line = reply(&mut reader);
            let expected = match i % 3 {
                0 => "\"pong\":true".to_string(),
                1 => format!("\"value\":\"v{i}\""),
                _ => format!("unknown op \\\"nope{i}\\\""),
            };
            assert!(line.contains(&expected), "frame {i}: {line}");
            assert_eq!(response_ok(&line), i % 3 != 2, "frame {i}: {line}");
        }
        if burst > 0 {
            later_bursts.push(sent.elapsed());
        }
        let writes = served.log.lock().unwrap().len() - writes_before;
        assert!(writes <= 2, "burst {burst} left in {writes} writes");
    }
    // The stall is systematic (every burst after a connection's first
    // paid 44 ms); a scheduling hiccup on a shared host is not, so only
    // an optimised build holds every burst to the bound.
    let limit = Duration::from_millis(20);
    assert!(
        later_bursts.iter().min().unwrap() < &limit,
        "{later_bursts:?}"
    );
    if !cfg!(debug_assertions) {
        assert!(later_bursts.iter().all(|t| t < &limit), "{later_bursts:?}");
    }
    let stats = served.stop().stats();
    assert_eq!(stats.frames_executed, 96);
    assert!(stats.runs_dispatched <= 6, "{stats:?}");
    assert!(stats.socket_writes <= 6, "{stats:?}");
    assert_eq!((stats.requests_shed, stats.connection_errors), (0, 0));
}

/// (b) Frames behind a `shutdown` in the same run are dropped.
#[test]
fn shutdown_cuts_a_run_and_drops_what_follows() {
    let served = serve(ServiceConfig::default());
    let (mut stream, mut reader) = served.connect();
    let classify = |i: usize| format!("{{\"op\":\"classify\",\"value\":\"v{i}\"}}\n");
    let mut frames: String = (0..5).map(classify).collect();
    frames.push_str("{\"op\":\"shutdown\"}\n");
    frames.extend((5..10).map(classify));
    stream.write_all(frames.as_bytes()).unwrap();
    for i in 0..5 {
        let line = reply(&mut reader);
        assert!(line.contains(&format!("\"value\":\"v{i}\"")), "{line}");
    }
    assert!(response_ok(&reply(&mut reader)), "the shutdown ack");
    assert_eq!(reply(&mut reader), "", "EOF follows the shutdown ack");
    served.server.join().unwrap().unwrap();
    assert_eq!(served.service.stats().classifications, 5);
}

/// (c) Frames behind a `watch` wait until its stream ends.
#[test]
fn watch_cuts_a_run_and_holds_what_follows() {
    let served = serve(ServiceConfig::default());
    let (mut stream, mut reader) = served.connect();
    let mut frames = "{\"op\":\"ping\"}\n".repeat(3);
    frames.push_str("{\"op\":\"watch\",\"interval_ms\":20,\"frames\":2}\n");
    frames.push_str(&"{\"op\":\"ping\"}\n".repeat(3));
    stream.write_all(frames.as_bytes()).unwrap();
    let expected = [
        "\"pong\":true",
        "\"pong\":true",
        "\"pong\":true",
        "\"watching\":true",
        "\"frame\":0",
        "\"frame\":1",
        "\"pong\":true",
        "\"pong\":true",
        "\"pong\":true",
    ];
    for (i, expected) in expected.iter().enumerate() {
        let line = reply(&mut reader);
        assert!(line.contains(expected), "reply {i}: {line}");
    }
    assert_eq!(served.stop().stats().connection_errors, 0);
}

/// (d) Past the pipelining cap the excess is answered `overloaded` in
/// place, and every shed frame is counted.
#[test]
fn frames_past_the_pipeline_cap_are_shed_in_place() {
    const CAP: usize = 128;
    const SENT: usize = 160;
    let served = serve(ServiceConfig::default());
    let (mut stream, mut reader) = served.connect();
    // 2 240 bytes: one segment, one server read.
    let frames = "{\"op\":\"ping\"}\n".repeat(SENT);
    stream.write_all(frames.as_bytes()).unwrap();
    for i in 0..SENT {
        let line = reply(&mut reader);
        let expected = if i < CAP {
            "\"pong\":true"
        } else {
            "\"overloaded\":true"
        };
        assert!(line.contains(expected), "reply {i}: {line}");
    }
    let stats = served.stop().stats();
    assert_eq!(stats.requests_shed, (SENT - CAP) as u64);
    assert_eq!(stats.frames_executed, CAP as u64);
}

/// Teach `served` the date rule `dates` (no connection is opened).
fn learn_dates(served: &Served) {
    let lake = av_corpus::generate_lake(&av_corpus::LakeProfile::tiny(), 31);
    let columns: Vec<av_corpus::Column> = lake.columns().cloned().collect();
    served.service.ingest(&columns).unwrap();
    let train: Vec<String> = (1..=28).map(|d| format!("2020-01-{d:02}")).collect();
    served.service.infer_rule("dates", &train, None).unwrap();
}

/// Teach `served` a date rule and build a run of `run` heavy `validate`
/// frames against it (frame `i` checks `400 + i` values), staged whole
/// behind a one-frame `watch` on a new connection so that it reaches a
/// worker as one job whatever the reads were. Returns the connection, on
/// which the watch frame that releases the run is the next thing to read.
fn stage_heavy_run(served: &Served, run: usize) -> (TcpStream, BufReader<TcpStream>) {
    learn_dates(served);
    let (mut stream, mut reader) = served.connect();
    stream
        .write_all(b"{\"op\":\"watch\",\"interval_ms\":300,\"frames\":1}\n")
        .unwrap();
    assert!(reply(&mut reader).contains("\"watching\":true"));
    let mut frames = String::new();
    for i in 0..run {
        let values: Vec<String> = (0..400 + i)
            .map(|v| format!("\"2020-02-{:02}\"", v % 28 + 1))
            .collect();
        frames.push_str(&format!(
            "{{\"op\":\"validate\",\"rule\":\"dates\",\"values\":[{}]}}\n",
            values.join(",")
        ));
    }
    stream.write_all(frames.as_bytes()).unwrap();
    (stream, reader)
}

/// (f) The frames a worker holds count against the pipelining cap: with
/// a 96-frame run of heavy validations out (tens of milliseconds of work),
/// a burst of 128 pings finds room for 32; the rest is shed in place, not
/// queued as if the pipeline were empty.
#[test]
fn frames_held_by_a_worker_count_against_the_pipeline_cap() {
    const CAP: usize = 128;
    const RUN: usize = 96;
    let served = serve(ServiceConfig::default());
    let (mut stream, mut reader) = stage_heavy_run(&served, RUN);
    assert!(reply(&mut reader).contains("\"frame\":0"));
    stream
        .write_all("{\"op\":\"ping\"}\n".repeat(CAP).as_bytes())
        .unwrap();
    for i in 0..RUN {
        let line = reply(&mut reader);
        let checked = format!("\"checked\":{}", 400 + i);
        assert!(response_ok(&line) && line.contains(&checked), "{i}: {line}");
    }
    for i in 0..CAP {
        let line = reply(&mut reader);
        let expected = if i < CAP - RUN {
            "\"pong\":true"
        } else {
            "\"overloaded\":true"
        };
        assert!(line.contains(expected), "ping {i}: {line}");
    }
    assert_eq!(served.stop().stats().requests_shed, RUN as u64);
}

/// (e) One worker, connection A holding it with a 64-frame run of heavy
/// validations: connection B's ping is answered before A's run is done,
/// because a turn yields once it has used its slice and another job
/// waits. A's run is staged whole behind a `watch`, so that it reaches
/// the worker as one job whatever the reads were.
#[test]
fn a_long_run_yields_the_worker_to_a_waiting_connection() {
    const RUN: usize = 64;
    let served = serve(ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let (_a, mut a_reader) = stage_heavy_run(&served, RUN); // connection 0
    let (mut b, mut b_reader) = served.connect(); // connection 1
    b.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    assert!(reply(&mut b_reader).contains("\"pong\":true"));
    // The watch frame ends the stream; A's run is dispatched with it.
    assert!(reply(&mut a_reader).contains("\"frame\":0"));
    b.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    assert!(reply(&mut b_reader).contains("\"pong\":true"));
    for i in 0..RUN {
        let line = reply(&mut a_reader);
        let checked = format!("\"checked\":{}", 400 + i);
        assert!(response_ok(&line) && line.contains(&checked), "{i}: {line}");
    }
    let log = served.log.lock().unwrap().clone();
    let b_pong = log.iter().rposition(|conn| *conn == 1).unwrap();
    let a_last = log.iter().rposition(|conn| *conn == 0).unwrap();
    assert!(b_pong < a_last, "B waited for all of A's run: {log:?}");
    assert_eq!(served.stop().stats().requests_shed, 0);
}

/// (g) Two workers, two connections: A's one ~1 MiB `validate` frame
/// (80 000 values, milliseconds of work) does not hold up B's `ping`
/// sent right behind it. Both connections are accepted and answered once
/// before the heavy frame, so each is settled where it will be served;
/// the server's write log must then show B's pong ahead of A's reply.
#[test]
fn a_heavy_frame_on_one_connection_does_not_delay_another() {
    const VALUES: usize = 80_000;
    let served = serve(ServiceConfig {
        workers: 2,
        ..Default::default()
    });
    learn_dates(&served);
    let (mut a, mut a_reader) = served.connect(); // connection 0
    let (mut b, mut b_reader) = served.connect(); // connection 1
    for (stream, reader) in [(&mut a, &mut a_reader), (&mut b, &mut b_reader)] {
        stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        assert!(reply(reader).contains("\"pong\":true"));
    }
    let values: Vec<String> = (0..VALUES)
        .map(|v| format!("\"2020-02-{:02}\"", v % 28 + 1))
        .collect();
    let frame = format!(
        "{{\"op\":\"validate\",\"rule\":\"dates\",\"values\":[{}]}}\n",
        values.join(",")
    );
    assert!(frame.len() > 1_000_000 && frame.len() < 1 << 20);
    a.write_all(frame.as_bytes()).unwrap();
    b.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    assert!(reply(&mut b_reader).contains("\"pong\":true"));
    let line = reply(&mut a_reader);
    let checked = format!("\"checked\":{VALUES}");
    assert!(response_ok(&line) && line.contains(&checked), "{line}");
    let log = served.log.lock().unwrap().clone();
    let b_pong = log.iter().rposition(|conn| *conn == 1).unwrap();
    let a_reply = log.iter().rposition(|conn| *conn == 0).unwrap();
    assert!(b_pong < a_reply, "B waited for A's frame: {log:?}");
    let stats = served.stop().stats();
    assert_eq!((stats.requests_shed, stats.connection_errors), (0, 0));
}
