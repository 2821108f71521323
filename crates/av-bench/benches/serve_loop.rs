//! Event-loop serving benchmark: concurrent connections × pipelined
//! request throughput over real loopback TCP. Measured numbers are
//! recorded as Point 8 in `crates/av-bench/PERF.md`.
//!
//! One server (the production `serve_listener` and its event loops) is
//! shared across all samples; each iteration opens `conns`
//! connections, pipelines `FRAMES` classify requests down each, drains
//! every response, and closes. Throughput is reported per request, so
//! the per-connection overhead (accept, register, state machine, close)
//! is amortized exactly as it is in production.
//!
//! Fresh connections ride the kernel's quick-ACK phase and never see a
//! delayed-ACK timer, so the last rung keeps one connection across
//! iterations: one 32-frame burst per iteration, every reply drained
//! (Point 10 — 44 ms a burst when replies left one `write` each on a
//! socket without `TCP_NODELAY`).

use av_service::{serve_listener, std_listener, ServiceConfig, ValidationService};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Pipelined requests per connection per round.
const FRAMES: usize = 8;

fn start_server() -> (Arc<ValidationService>, SocketAddr) {
    let service = Arc::new(ValidationService::new(ServiceConfig::default()));
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    {
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_listener(service, std_listener(listener).unwrap()));
    }
    (service, addr)
}

/// One measured round: `conns` live connections, `FRAMES` pipelined
/// frames each, every response drained.
fn round(addr: SocketAddr, conns: usize) {
    let mut open = Vec::with_capacity(conns);
    for c in 0..conns {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut burst = String::new();
        for i in 0..FRAMES {
            burst.push_str(&format!("{{\"op\":\"classify\",\"value\":\"b{c}-{i}\"}}\n"));
        }
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(burst.as_bytes()).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        open.push(stream);
    }
    for stream in open {
        let mut reader = BufReader::new(stream);
        let mut answered = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            assert!(line.contains("\"ok\":true"), "{line}");
            answered += 1;
        }
        assert_eq!(answered, FRAMES);
    }
}

/// Frames per burst on the kept-alive connection.
const BURST: usize = 32;

/// One burst down a connection that stays open: send, drain, return.
fn kept_alive_burst(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, burst: &str) {
    writer.write_all(burst.as_bytes()).unwrap();
    let mut line = String::new();
    for _ in 0..BURST {
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
    }
}

fn bench_serve_loop(c: &mut Criterion) {
    let (service, addr) = start_server();
    let mut group = c.benchmark_group("serve_loop");
    group.sample_size(10);
    for conns in [1usize, 16, 64, 128] {
        group.throughput(Throughput::Elements((conns * FRAMES) as u64));
        group.bench_function(format!("{conns} conns x {FRAMES} pipelined"), |b| {
            b.iter(|| round(addr, conns))
        });
    }
    let mut writer = TcpStream::connect(addr).unwrap();
    writer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(writer.try_clone().unwrap());
    let burst: String = (0..BURST)
        .map(|i| format!("{{\"op\":\"classify\",\"value\":\"k{i}\"}}\n"))
        .collect();
    group.throughput(Throughput::Elements(BURST as u64));
    group.bench_function(format!("kept-alive 1 conn x {BURST} pipelined"), |b| {
        b.iter(|| kept_alive_burst(&mut writer, &mut reader, &burst))
    });
    group.finish();
    service.request_shutdown();
}

criterion_group!(benches, bench_serve_loop);
criterion_main!(benches);
