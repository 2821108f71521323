//! The wire: the in-process server and the load generators that drive it
//! over loopback TCP. Loopback, not a link — there is no propagation
//! delay, loss or NIC here, only the kernel's socket path.

use crate::inputs::{ConnPlan, FrameKind, BURST_DEPTH};
use crate::oracle::response_answer;
use crate::shims::{CountingListener, SocketCounts};
use crate::stats::Reservoir;
use av_service::{serve_listener, std_listener, ValidationService};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Latency samples kept per connection and slice (see [`Reservoir`]).
const SAMPLE_CAP: usize = 1 << 14;
/// The window is read slice by slice: throughput and latency percentiles
/// are taken per slice and the better-quartile slice is reported (see
/// `stats::better_quartile`), so that the seconds in which the shared
/// host stalled do not decide the result.
pub const SLICE: Duration = Duration::from_secs(1);
/// A reply this late means the server is stuck; the run fails instead of
/// hanging.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// `serve_listener` on a loopback port, on its own thread.
pub struct Server {
    pub service: Arc<ValidationService>,
    pub addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Serve `service`; with `counts`, through the counting transport.
    pub fn start(
        service: Arc<ValidationService>,
        counts: Option<Arc<SocketCounts>>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let mut net = std_listener(listener)?;
        if let Some(counts) = counts {
            net = Box::new(CountingListener::new(net, counts));
        }
        let served = Arc::clone(&service);
        let thread = std::thread::spawn(move || serve_listener(served, net));
        Ok(Server {
            service,
            addr,
            thread,
        })
    }

    /// Stop serving and wait for the reactor and its workers to end.
    /// Nothing is persisted: for a durable service this is the unclean
    /// stop recovery has to cope with.
    pub fn stop(self) -> io::Result<()> {
        self.service.request_shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("serve loop panicked"))?
    }
}

/// One client connection: `TCP_NODELAY`, connected once, kept for the
/// whole run.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Read one reply line into `line` (newline stripped).
    pub fn read_line(&mut self, line: &mut String) -> io::Result<()> {
        line.clear();
        let mut scanned = self.start;
        loop {
            if let Some(at) = self.buf[scanned..self.end].iter().position(|&b| b == b'\n') {
                let stop = scanned + at;
                let text = std::str::from_utf8(&self.buf[self.start..stop])
                    .map_err(|_| io::Error::other("reply is not utf-8"))?;
                line.push_str(text);
                self.start = stop + 1;
                return Ok(());
            }
            scanned = self.end;
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                scanned -= self.start;
                self.end -= self.start;
                self.start = 0;
            }
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            let n = self.stream.read(&mut self.buf[self.end..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.end += n;
        }
    }

    /// A second handle on the socket, for a writer thread.
    fn writer(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }
}

/// The measured part of a run. Ops that start before `start` are warm-up:
/// sent and checked, not timed.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warm_start: Instant,
    pub start: Instant,
    pub end: Instant,
}

impl Window {
    pub fn opening_in(warm: Duration, seconds: Duration) -> Window {
        let warm_start = Instant::now();
        Window {
            warm_start,
            start: warm_start + warm,
            end: warm_start + warm + seconds,
        }
    }

    /// Whole slices in the timed window.
    pub fn slices(&self) -> usize {
        ((self.end - self.start).as_nanos() / SLICE.as_nanos()) as usize
    }
}

/// What one generator connection saw.
pub struct Tape {
    /// Per-op latency in nanoseconds, by the slice the op completed in;
    /// the last entry collects what completed after the window closed.
    pub latency: Vec<Reservoir>,
    /// `ingest` / `infer` round trips of the write workloads.
    pub ingest: Reservoir,
    pub infer: Reservoir,
    /// Paced loop: how late each send left, nanoseconds.
    pub send_lag: Reservoir,
    /// Burst loop: burst send to each single reply, nanoseconds.
    pub frame_latency: Reservoir,
    /// Correct ops per slice, indexed like `latency`. An op in flight
    /// across a slice boundary is shared between the slices in proportion
    /// to the time it spent in each, so a slice's count is a measured
    /// number, not a whole one that repeats from run to run.
    pub slices: Vec<f64>,
    /// Every op sent, warm-up included, and those answered wrongly.
    pub attempted: u64,
    pub failed: u64,
    /// Ops, bytes and values of the timed window only.
    pub timed_ops: u64,
    pub request_bytes: u64,
    pub reply_bytes: u64,
    pub values: u64,
    /// Answers in send order, for workloads checked after the window.
    pub answers: Vec<u64>,
    pub last_done: Option<Instant>,
}

impl Tape {
    pub fn new(seed: u64, window: &Window) -> Tape {
        let reservoir =
            |tag: u64| Reservoir::new(SAMPLE_CAP, StdRng::seed_from_u64(seed ^ (tag << 32)));
        let slices = window.slices() + 1;
        Tape {
            latency: (0..slices as u64).map(|s| reservoir(5 + s)).collect(),
            ingest: reservoir(1),
            infer: reservoir(2),
            send_lag: reservoir(3),
            frame_latency: reservoir(4),
            slices: vec![0.0; slices],
            attempted: 0,
            failed: 0,
            timed_ops: 0,
            request_bytes: 0,
            reply_bytes: 0,
            values: 0,
            answers: Vec::new(),
            last_done: None,
        }
    }

    /// Book one finished op that was due (or started) at `from`.
    fn complete(&mut self, window: &Window, from: Instant, done: Instant, correct: bool) {
        self.attempted += 1;
        self.failed += !correct as u64;
        if from < window.start {
            return;
        }
        self.timed_ops += 1;
        let last = self.slices.len() - 1;
        // Positions in the window, in slices; the last slice is open-ended.
        let at = |t: Instant| (t - window.start).as_secs_f64() / SLICE.as_secs_f64();
        let (began, ended) = (at(from), at(done));
        let slice = (ended as usize).min(last);
        self.latency[slice].push((done - from).as_nanos() as u64);
        if correct && ended > began {
            for s in (began as usize).min(last)..=slice {
                let upto = if s == last {
                    ended
                } else {
                    ended.min((s + 1) as f64)
                };
                self.slices[s] += (upto - began.max(s as f64)) / (ended - began);
            }
        } else if correct {
            self.slices[slice] += 1.0;
        }
        self.last_done = Some(done);
    }
}

/// Closed loop, one op in flight: send the op's frames one by one, each
/// after the previous reply. With `check_now` replies are compared with
/// the frames' expected answers as they arrive; otherwise answers are
/// taped for the oracle replay.
pub fn closed_loop(
    conn: &mut Conn,
    plan: &ConnPlan,
    check_now: bool,
    window: &Window,
    tape: &mut Tape,
) -> io::Result<()> {
    let mut frame = Vec::new();
    let mut line = String::new();
    for k in 0u64.. {
        let begun = Instant::now();
        if begun >= window.end {
            break;
        }
        let timed = begun >= window.start;
        let mut correct = true;
        for f in &plan.op(k).frames {
            frame.clear();
            f.render(k, &mut frame);
            let sent = Instant::now();
            conn.send(&frame)?;
            conn.read_line(&mut line)?;
            let took = sent.elapsed().as_nanos() as u64;
            let answer = response_answer(f.kind, &line);
            if check_now {
                correct &= answer == f.expect;
            } else {
                tape.answers.push(answer);
            }
            if timed {
                match f.kind {
                    FrameKind::Ingest => tape.ingest.push(took),
                    FrameKind::Infer => tape.infer.push(took),
                    _ => {}
                }
                tape.request_bytes += frame.len() as u64;
                tape.reply_bytes += line.len() as u64 + 1;
                tape.values += f.values as u64;
            }
        }
        tape.complete(window, begun, Instant::now(), correct);
    }
    Ok(())
}

/// Closed loop, bursts: `BURST_DEPTH` single-frame ops written at once on
/// the kept-alive connection, the next burst only after every reply. An
/// op's latency is its burst's: send to last reply, which is what a
/// caller tagging a batch waits for. (Single replies arrive in two
/// clumps either side of a ~40 ms stall, about half in each, so their
/// median jumps between 1 ms and 44 ms from run to run; they are taped
/// as `frame_latency`, a layer metric.)
pub fn burst_loop(
    conn: &mut Conn,
    plan: &ConnPlan,
    window: &Window,
    tape: &mut Tape,
) -> io::Result<()> {
    let mut burst = Vec::new();
    let mut line = String::new();
    let mut k = 0u64;
    loop {
        let begun = Instant::now();
        if begun >= window.end {
            return Ok(());
        }
        let timed = begun >= window.start;
        burst.clear();
        for i in 0..BURST_DEPTH as u64 {
            plan.op(k + i).frames[0].render(k + i, &mut burst);
        }
        conn.send(&burst)?;
        let mut correct = [false; BURST_DEPTH];
        for (i, correct) in correct.iter_mut().enumerate() {
            conn.read_line(&mut line)?;
            let f = &plan.op(k + i as u64).frames[0];
            *correct = response_answer(f.kind, &line) == f.expect;
            if timed {
                tape.frame_latency.push(begun.elapsed().as_nanos() as u64);
                tape.reply_bytes += line.len() as u64 + 1;
                tape.values += f.values as u64;
            }
        }
        let done = Instant::now();
        for correct in correct {
            tape.complete(window, begun, done, correct);
        }
        if timed {
            tape.request_bytes += burst.len() as u64;
        }
        k += BURST_DEPTH as u64;
    }
}

/// Sleep most of the way to `due`, then yield the core until it comes:
/// a spinning pacer would take one of two cores from the server.
fn wait_until(due: Instant) {
    const SLEEP_MARGIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SLEEP_MARGIN + Duration::from_micros(50) {
            std::thread::sleep(left - SLEEP_MARGIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Frames the paced loop lets be outstanding before the pacer holds
/// back. The service sheds frames past 128 queued on a connection, so a
/// stall of a few tens of milliseconds anywhere on the shared host would
/// otherwise turn into refused requests; a held-back op is sent late and
/// charged the delay, which is what a client honouring the cap sees.
const PACED_IN_FLIGHT_CAP: u64 = 96;

/// Open loop: one connection, a pacer thread writing single-frame ops on
/// a fixed schedule and this thread reading the replies. Latency runs
/// from the time an op was *due*, so a stall is charged to every op it
/// delays, and the pacer's own lateness is taped as `send_lag`.
pub fn paced_loop(
    conn: &mut Conn,
    plan: &ConnPlan,
    rate: u64,
    window: &Window,
    tape: &mut Tape,
) -> io::Result<()> {
    let total = (window.end - window.warm_start).as_nanos() as u64 * rate / 1_000_000_000;
    let due = |i: u64| window.warm_start + Duration::from_nanos(i * 1_000_000_000 / rate);
    let mut writer = conn.writer()?;
    let stream = conn.writer()?;
    // Replies read so far; `u64::MAX` once the reader has given up.
    // Release/Acquire: the pacer only needs a count that is not stale for
    // long, and the reader's error to become visible.
    let replies = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let replies = &replies;
        let pacer = scope.spawn(move || -> io::Result<(Vec<u64>, u64)> {
            let mut frame = Vec::new();
            let mut lags = Vec::new();
            let mut bytes = 0;
            for i in 0..total {
                wait_until(due(i));
                while i.saturating_sub(replies.load(Ordering::Acquire)) >= PACED_IN_FLIGHT_CAP {
                    std::thread::yield_now();
                }
                frame.clear();
                plan.op(i).frames[0].render(i, &mut frame);
                let lag = (Instant::now() - due(i)).as_nanos() as u64;
                writer.write_all(&frame)?;
                if due(i) >= window.start {
                    lags.push(lag);
                    bytes += frame.len() as u64;
                }
            }
            Ok((lags, bytes))
        });
        let mut line = String::new();
        let mut read = || -> io::Result<()> {
            for i in 0..total {
                conn.read_line(&mut line)?;
                replies.store(i + 1, Ordering::Release);
                let f = &plan.op(i).frames[0];
                let correct = response_answer(f.kind, &line) == f.expect;
                if due(i) >= window.start {
                    tape.reply_bytes += line.len() as u64 + 1;
                    tape.values += f.values as u64;
                }
                tape.complete(window, due(i), Instant::now(), correct);
            }
            Ok(())
        };
        let outcome = read();
        if outcome.is_err() {
            // Release a pacer waiting on the cap or stuck in `write_all`.
            replies.store(u64::MAX, Ordering::Release);
            let _ = stream.shutdown(Shutdown::Both);
        }
        let paced = pacer
            .join()
            .map_err(|_| io::Error::other("pacer panicked"))?;
        outcome?;
        let (lags, bytes) = paced?;
        for lag in lags {
            tape.send_lag.push(lag);
        }
        tape.request_bytes += bytes;
        Ok(())
    })
}

/// Depth-1 round trips of single frames on one fresh connection; returns
/// each round trip's `(start, end)`, in order.
pub fn round_trips(
    addr: SocketAddr,
    frames: &[String],
    mut on_reply: impl FnMut(usize, &str),
) -> io::Result<Vec<(Instant, Instant)>> {
    let mut conn = Conn::connect(addr)?;
    let mut line = String::new();
    let mut spans = Vec::with_capacity(frames.len());
    for (i, frame) in frames.iter().enumerate() {
        let start = Instant::now();
        conn.send(frame.as_bytes())?;
        conn.read_line(&mut line)?;
        spans.push((start, Instant::now()));
        on_reply(i, &line);
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_across_a_slice_boundary_is_shared_between_the_slices() {
        let window = Window::opening_in(Duration::ZERO, Duration::from_secs(3));
        let mut tape = Tape::new(1, &window);
        let at = |ms: u64| window.start + Duration::from_millis(ms);
        tape.complete(&window, at(100), at(200), true);
        tape.complete(&window, at(750), at(1250), true);
        // Past the window's end: the last slice is open-ended.
        tape.complete(&window, at(2500), at(4500), true);
        // A wrong answer has a latency but is nobody's throughput.
        tape.complete(&window, at(300), at(400), false);
        assert_eq!(tape.slices, [1.5, 0.5, 0.25, 0.75]);
        assert_eq!((tape.timed_ops, tape.failed), (4, 1));
        // Latency is booked where the op completed.
        let booked: Vec<usize> = tape.latency.iter().map(|r| r.samples().len()).collect();
        assert_eq!(booked, [2, 1, 0, 1]);
    }
}
