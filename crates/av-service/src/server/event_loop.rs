//! The event-driven serve loop: one reactor thread owning every socket,
//! a fixed worker pool fed by a bounded run queue, and deterministic
//! overload behavior (admission control, pipelining caps, backpressure,
//! idle and stall shedding).
//!
//! ## Division of labor
//!
//! The **reactor** is the only thread that reads or writes sockets. It
//! accepts connections, splits request bytes into frames, hands each
//! connection's **run** of pipelined frames to the run queue as one job
//! (at most one run per connection is out at a time), appends a finished
//! run's replies to the connection's write buffer and flushes them with
//! one `write`, paces `watch` streams off a timer heap, and enforces
//! every deadline. **Workers** only pop `(connection, lines)` jobs, run
//! the protocol handler over the lines in order, and push the rendered
//! replies onto a completion queue, waking the reactor through the
//! poller. Because responses reach the socket solely via the reactor
//! appending whole frames to one buffer, response frames cannot tear or
//! interleave no matter how faulty the transport is.
//!
//! A worker's turn on a connection ends in one of four ways: the run is
//! exhausted; a frame's outcome is `shutdown` or `watch` (nothing behind
//! either may execute yet); the replies pass [`WRITE_LOW_WATER`]; or the
//! turn has used [`TURN_SLICE`] while another job waits. Unexecuted
//! frames go back to the **front** of the connection's pipeline, so a
//! depth-1 request is simply a run of length one — there is one dispatch
//! path. Accepted sockets always have `TCP_NODELAY` set (see
//! [`super::std_listener`]): coalescing is this module's job, not a
//! kernel timer's.
//!
//! ## Overload ladder
//!
//! 1. *Admission*: past `max_connections`, a new connection gets one
//!    `overloaded` frame and is closed (`connections_rejected`).
//! 2. *Pipelining cap*: frames parsed past [`PIPELINE_CAP`] per
//!    connection — the run a worker holds counts — are answered
//!    `overloaded` in order (`requests_shed`); reading pauses at the cap
//!    so the cap is only exceeded by frames already inside one read burst.
//! 3. *Write backpressure*: past [`WRITE_HIGH_WATER`] buffered response
//!    bytes, the reactor stops polling the connection readable (and
//!    stops rendering its watch frames) until the peer drains below
//!    [`WRITE_LOW_WATER`].
//! 4. *Deadlines*: zero drain progress for `stall_deadline_ms` sheds
//!    the connection (`stalls_shed`); no request bytes for
//!    `idle_timeout_ms` closes it cleanly.

use super::conn::{
    Conn, Flush, PendingFrame, WatchState, PIPELINE_CAP, WRITE_HIGH_WATER, WRITE_LOW_WATER,
};
use super::netfault::NetListener;
use crate::engine::ValidationService;
use crate::protocol::{handle_line_into, render_error_into, render_overloaded_into, LineOutcome};
use polling::{Event, Poller};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Poller key of the listening socket (connections start at 1).
const LISTENER_KEY: usize = 0;

/// Upper bound between idle/stall deadline scans. Watch frames are paced
/// exactly (their due times bound the poll timeout); deadlines measured
/// in seconds only need this much precision.
const TIMER_SCAN: Duration = Duration::from_millis(50);

/// How long shutdown keeps flushing buffered responses (the `shutdown`
/// ack among them) before abandoning undrained connections.
const SHUTDOWN_FLUSH_GRACE: Duration = Duration::from_secs(2);

/// Bytes per read attempt.
const READ_CHUNK: usize = 8192;

/// How long a worker's turn on one connection may run while another job
/// waits. A yield costs this connection one reactor↔worker hop (~20 µs),
/// so the slice is an order above the hop: a 64-frame `classify` run
/// fits inside it, and a request behind a heavy pipeline waits one slice
/// or one frame, whichever is longer. Measured, it is the shortest slice
/// on the throughput plateau — at 100 µs and below light runs lose up to
/// a third to hops, at 1 ms and above the waiting request's latency is
/// the slice (`PERF.md` Point 10 has the sweep).
const TURN_SLICE: Duration = Duration::from_micros(250);

#[cfg(test)]
thread_local! {
    /// Bytes `split_frames` compared against `\n` on this thread.
    static BYTES_EXAMINED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Vet one complete line into the pipeline (or arm a fatal error).
/// `held` is how many frames a worker holds: they fill the cap too.
fn accept_frame(
    pending: &mut VecDeque<PendingFrame>,
    held: usize,
    fatal: &mut Option<String>,
    line: &[u8],
    max_request: usize,
) {
    if line.len() > max_request {
        *fatal = Some(format!("request line exceeds {max_request} bytes"));
        return;
    }
    let Ok(text) = std::str::from_utf8(line) else {
        *fatal = Some("request line is not valid utf-8".to_string());
        return;
    };
    if text.trim().is_empty() {
        return;
    }
    if pending.len() + held >= PIPELINE_CAP {
        pending.push_back(PendingFrame::Shed);
    } else {
        pending.push_back(PendingFrame::Line(text.to_string()));
    }
}

/// Split `read_buf` into frames. Complete lines become pipeline
/// entries ([`PendingFrame::Shed`] past the cap); an overlong or
/// non-UTF-8 line arms the connection's fatal error instead. At EOF
/// a trailing unterminated line is served as the final frame. The
/// search resumes at `scanned`, so a frame that arrives over many reads
/// costs one pass over its bytes, not one pass per read.
fn split_frames(conn: &mut Conn, max_request: usize, at_eof: bool) {
    // Split borrows: line slices borrow `read_buf` while frames are
    // vetted into `pending`/`fatal`.
    let read_buf = &mut conn.read_buf;
    let pending = &mut conn.pending;
    let fatal = &mut conn.fatal;
    let (mut start, mut scan) = (0, conn.scanned);
    while fatal.is_none() {
        let Some(tail) = read_buf.get(scan..) else {
            break;
        };
        let found = tail.iter().position(|b| *b == b'\n');
        #[cfg(test)]
        BYTES_EXAMINED.with(|n| n.set(n.get() + found.map_or(tail.len(), |pos| pos + 1)));
        let Some(end) = found.map(|pos| scan + pos) else {
            break;
        };
        let Some(line) = read_buf.get(start..end) else {
            break;
        };
        accept_frame(pending, conn.out_frames, fatal, line, max_request);
        start = end + 1;
        scan = start;
    }
    read_buf.drain(..start);
    if fatal.is_none() && read_buf.len() > max_request {
        *fatal = Some(format!("request line exceeds {max_request} bytes"));
        read_buf.clear();
    }
    if at_eof && fatal.is_none() && !read_buf.is_empty() {
        let line = std::mem::take(read_buf);
        accept_frame(pending, conn.out_frames, fatal, &line, max_request);
    }
    // Whatever stays buffered was searched to its end (a fatal error
    // stops reading for good, so its remainder is never searched again).
    conn.scanned = conn.read_buf.len();
}

/// A connection's run of pipelined frames on its way to a worker.
struct Job {
    key: usize,
    lines: VecDeque<String>,
}

/// One worker turn on its way back to the reactor.
struct Completion {
    key: usize,
    /// The executed frames' replies in request order, each
    /// newline-terminated.
    replies: String,
    /// Frames the turn ended before; they return to the pipeline's front.
    unexecuted: VecDeque<String>,
    /// What the last executed frame asked of the serve loop.
    outcome: LineOutcome,
}

/// Run queue (reactor → workers) and completion queue (workers →
/// reactor) in one shared bundle.
struct Queues {
    jobs: Mutex<JobQueue>,
    job_ready: Condvar,
    completions: Mutex<Vec<Completion>>,
}

struct JobQueue {
    queue: VecDeque<Job>,
    closed: bool,
}

impl Queues {
    fn new() -> Queues {
        Queues {
            jobs: Mutex::new(JobQueue {
                queue: VecDeque::new(),
                closed: false,
            }),
            job_ready: Condvar::new(),
            completions: Mutex::new(Vec::new()),
        }
    }

    /// Enqueue unless the queue is at `cap`; `false` means shed.
    fn push_job(&self, job: Job, cap: usize) -> bool {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        if jobs.queue.len() >= cap {
            return false;
        }
        jobs.queue.push_back(job);
        drop(jobs);
        self.job_ready.notify_one();
        true
    }

    /// Worker side: next job, or `None` once the queue closes (remaining
    /// jobs are abandoned — their connections are being torn down).
    fn pop_job(&self) -> Option<Job> {
        let mut jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if jobs.closed {
                return None;
            }
            if let Some(job) = jobs.queue.pop_front() {
                return Some(job);
            }
            jobs = self.job_ready.wait(jobs).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Is a job waiting for a worker?
    fn job_waiting(&self) -> bool {
        let jobs = self.jobs.lock().unwrap_or_else(|e| e.into_inner());
        !jobs.queue.is_empty()
    }

    fn close(&self) {
        self.jobs.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.job_ready.notify_all();
    }

    fn push_completion(&self, done: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(done);
    }

    fn drain_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut self.completions.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Worker threads for the serve loop: the configured count, else two
/// (even on one core, a second worker keeps a long request from
/// head-of-line-blocking every other connection).
fn worker_count(service: &ValidationService) -> usize {
    let configured = service.config().workers;
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2)
    }
}

/// One turn per job: execute the run's frames in order into one reply
/// buffer until the turn ends (module docs: the four ways).
fn worker_loop(service: &ValidationService, queues: &Queues, poller: &Poller) {
    let mut response = String::new();
    while let Some(Job { key, mut lines }) = queues.pop_job() {
        let started = Instant::now();
        let mut replies = String::new();
        let mut executed = 0;
        let mut outcome = LineOutcome::default();
        while let Some(line) = lines.pop_front() {
            outcome = handle_line_into(service, &line, &mut response);
            replies.push_str(&response);
            replies.push('\n');
            executed += 1;
            // The reply cap is the write buffer's low watermark: a run
            // parks at most that plus one reply in a worker, and hands the
            // reactor no more than a backpressured peer resumes at. An
            // exhausted run ends the turn before the clock or the run
            // queue's lock is consulted: a depth-1 frame pays for neither.
            if lines.is_empty()
                || outcome.shutdown
                || outcome.watch.is_some()
                || replies.len() >= WRITE_LOW_WATER
                || (started.elapsed() >= TURN_SLICE && queues.job_waiting())
            {
                break;
            }
        }
        service.record_run(executed);
        queues.push_completion(Completion {
            key,
            replies,
            unexecuted: lines,
            outcome,
        });
        let _ = poller.notify();
    }
}

/// Everything the reactor mutates, bundled so helpers can borrow it as
/// one unit.
struct Reactor<'a> {
    service: &'a ValidationService,
    poller: Arc<Poller>,
    queues: Arc<Queues>,
    conns: HashMap<usize, Conn>,
    /// Min-heap of (due, key, frame): when to emit each watch frame.
    watch_timers: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    next_key: usize,
    max_connections: usize,
    idle_timeout: Option<Duration>,
    stall_deadline: Option<Duration>,
    run_queue_cap: usize,
    /// Reused render buffer for reactor-side frames (errors, overloads,
    /// watch frames).
    scratch: String,
}

impl Reactor<'_> {
    /// Close `key`: deregister, best-effort FIN, count errors.
    fn close_conn(&mut self, key: usize) {
        if let Some(mut conn) = self.conns.remove(&key) {
            let _ = self.poller.delete(conn.sock.raw_fd());
            conn.sock.shutdown_write();
            if conn.error {
                self.service.record_connection_error();
            }
        }
    }

    /// Accept until the listener has nothing pending. Transient accept
    /// failures are counted and survived; admission control rejects
    /// connections over the cap with one `overloaded` frame.
    fn accept_ready(&mut self, listener: &mut dyn NetListener, now: Instant) -> Vec<usize> {
        let mut touched = Vec::new();
        loop {
            match listener.accept() {
                Ok(Some(mut sock)) => {
                    if self.max_connections > 0 && self.conns.len() >= self.max_connections {
                        render_overloaded_into(
                            &format!(
                                "service at max_connections ({}); connection rejected",
                                self.max_connections
                            ),
                            &mut self.scratch,
                        );
                        self.scratch.push('\n');
                        // Best effort: one nonblocking write, then FIN.
                        let _ = sock.write(self.scratch.as_bytes());
                        sock.shutdown_write();
                        self.service.record_connection_rejected();
                        continue;
                    }
                    let key = self.next_key;
                    self.next_key += 1;
                    if self
                        .poller
                        .add(sock.raw_fd(), Event::readable(key))
                        .is_err()
                    {
                        self.service.record_connection_error();
                        continue;
                    }
                    self.conns.insert(key, Conn::new(sock, now));
                    touched.push(key);
                }
                Ok(None) => break,
                Err(_) => {
                    // Transient (possibly injected) accept failure: any
                    // still-pending connection re-reports on the next
                    // poll; the listener itself is fine.
                    self.service.record_connection_error();
                    break;
                }
            }
        }
        touched
    }

    /// Drain readable bytes and split them into pipeline frames.
    fn read_ready(&mut self, key: usize, now: Instant) {
        let max_request = self.service.config().max_request_bytes.max(1);
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            if !conn.want_read() {
                return;
            }
            match conn.sock.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    split_frames(conn, max_request, true);
                    return;
                }
                Ok(n) => {
                    conn.last_activity = now;
                    if let Some(bytes) = chunk.get(..n) {
                        conn.read_buf.extend_from_slice(bytes);
                    }
                    split_frames(conn, max_request, false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    // Reset mid-read: nothing more can be delivered.
                    if let Some(conn) = self.conns.get_mut(&key) {
                        conn.error = true;
                        conn.read_closed = true;
                        conn.close_after_flush = true;
                        conn.write_buf.clear();
                        conn.write_pos = 0;
                    }
                    return;
                }
            }
        }
    }

    /// Drive one connection forward after anything happened to it:
    /// answer shed frames, dispatch the next run to the run queue,
    /// surface a deferred fatal error, flush, close when complete, and
    /// re-register interest. Idempotent — safe to call repeatedly.
    fn advance(&mut self, key: usize, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            // Dispatch while the connection is executable: not waiting
            // on a worker, not mid-watch, not closing.
            if conn.out_frames > 0 || conn.watch.is_some() || conn.close_after_flush {
                break;
            }
            match conn.pending.pop_front() {
                Some(PendingFrame::Shed) => {
                    render_overloaded_into(
                        &format!("pipeline full ({PIPELINE_CAP} frames queued); request shed"),
                        &mut self.scratch,
                    );
                    let frame = std::mem::take(&mut self.scratch);
                    conn.queue_frame(&frame, now);
                    self.scratch = frame;
                    self.service.record_requests_shed(1);
                    continue;
                }
                Some(PendingFrame::Line(first)) => {
                    // The run: every consecutive line up to the first shed
                    // frame (which must be answered in its place) — at most
                    // `PIPELINE_CAP` of them, the cap let no more in.
                    let mut lines = VecDeque::from([first]);
                    while let Some(PendingFrame::Line(_)) = conn.pending.front() {
                        if let Some(PendingFrame::Line(line)) = conn.pending.pop_front() {
                            lines.push_back(line);
                        }
                    }
                    let frames = lines.len();
                    if self.queues.push_job(Job { key, lines }, self.run_queue_cap) {
                        conn.out_frames = frames;
                    } else {
                        // Run queue full: answer the run overloaded frame
                        // by frame and keep going — the connection stays up.
                        render_overloaded_into("run queue full; request shed", &mut self.scratch);
                        for _ in 0..frames {
                            conn.queue_frame(&self.scratch, now);
                        }
                        self.service.record_requests_shed(frames as u64);
                    }
                    continue;
                }
                None => {
                    // Pipeline empty: a deferred fatal error is now next
                    // in response order.
                    if let Some(message) = conn.fatal.take() {
                        render_error_into(&message, &mut self.scratch);
                        let frame = std::mem::take(&mut self.scratch);
                        conn.queue_frame(&frame, now);
                        self.scratch = frame;
                        conn.error = true;
                        conn.close_after_flush = true;
                    }
                    break;
                }
            }
        }

        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if conn.backlog() > 0 {
            let (flushed, writes) = conn.flush(now);
            self.service.record_socket_writes(writes);
            if let Flush::Failed = flushed {
                conn.error = true;
                self.close_conn(key);
                return;
            }
        }
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if conn.is_complete() {
            self.close_conn(key);
            return;
        }
        // Hysteresis on the read side of backpressure: once paused for a
        // full buffer, stay paused until the peer drains below the low
        // watermark.
        let mut desired = conn.desired_interest(key);
        if desired.readable
            && !conn.registered.0
            && conn.backlog() >= WRITE_LOW_WATER
            && conn.backlog() < WRITE_HIGH_WATER
        {
            desired.readable = false;
        }
        if (desired.readable, desired.writable) != conn.registered
            && self.poller.modify(conn.sock.raw_fd(), desired).is_ok()
        {
            conn.registered = (desired.readable, desired.writable);
        }
    }

    /// Emit due watch frames; returns the touched keys.
    fn fire_watch_timers(&mut self, now: Instant) -> Vec<usize> {
        let mut touched = Vec::new();
        while let Some(&Reverse((due, key, frame))) = self.watch_timers.peek() {
            if due > now {
                break;
            }
            self.watch_timers.pop();
            let Some(conn) = self.conns.get_mut(&key) else {
                continue;
            };
            let Some(ws) = conn.watch.as_ref() else {
                continue;
            };
            if ws.frame != frame {
                continue; // stale entry from a superseded stream
            }
            let params = ws.params.clone();
            let elapsed = ws.started.elapsed();
            if conn.backlog() >= WRITE_HIGH_WATER {
                // Peer is not draining: skip this tick (frame numbers
                // stay consecutive; the stream just pauses) and check
                // again one interval later.
                self.watch_timers
                    .push(Reverse((due + params.interval, key, frame)));
                continue;
            }
            crate::protocol::render_watch_frame(
                self.service,
                &params,
                frame,
                elapsed,
                &mut self.scratch,
            );
            let rendered = std::mem::take(&mut self.scratch);
            conn.queue_frame(&rendered, now);
            self.scratch = rendered;
            let Some(ws) = conn.watch.as_mut() else {
                continue;
            };
            ws.frame += 1;
            let done = ws.params.frames.is_some_and(|max| ws.frame >= max);
            if done {
                conn.watch = None;
            } else {
                self.watch_timers
                    .push(Reverse((due + params.interval, key, ws.frame)));
            }
            touched.push(key);
        }
        touched
    }

    /// Enforce idle and stall deadlines over every connection.
    fn enforce_deadlines(&mut self, now: Instant) {
        let mut shed_stalled = Vec::new();
        let mut close_idle = Vec::new();
        for (&key, conn) in &self.conns {
            if let (Some(deadline), Some(since)) = (self.stall_deadline, conn.stalled_since) {
                if now.duration_since(since) >= deadline {
                    shed_stalled.push(key);
                    continue;
                }
            }
            if let Some(idle) = self.idle_timeout {
                let quiescent = conn.watch.is_none()
                    && conn.out_frames == 0
                    && conn.pending.is_empty()
                    && conn.backlog() == 0;
                if quiescent && now.duration_since(conn.last_activity) >= idle {
                    close_idle.push(key);
                }
            }
        }
        for key in shed_stalled {
            // The peer stopped draining: count it both as a shed and as
            // a connection error (responses were lost with it).
            self.service.record_stall_shed();
            if let Some(conn) = self.conns.get_mut(&key) {
                conn.error = true;
            }
            self.close_conn(key);
        }
        for key in close_idle {
            // A clean goodbye: nothing pending, nothing owed.
            self.close_conn(key);
        }
    }

    /// Apply finished worker responses to their connections.
    fn apply_completions(&mut self, now: Instant) -> Vec<usize> {
        let mut touched = Vec::new();
        for done in self.queues.drain_completions() {
            let Some(conn) = self.conns.get_mut(&done.key) else {
                continue; // connection closed while its run executed
            };
            conn.out_frames = 0;
            conn.queue_replies(&done.replies, now);
            for line in done.unexecuted.into_iter().rev() {
                conn.pending.push_front(PendingFrame::Line(line));
            }
            if done.outcome.shutdown {
                conn.close_after_flush = true;
            }
            if let Some(params) = done.outcome.watch {
                let started = now;
                self.watch_timers
                    .push(Reverse((started + params.interval, done.key, 0)));
                conn.watch = Some(WatchState {
                    params,
                    started,
                    frame: 0,
                });
            }
            touched.push(done.key);
        }
        touched
    }

    /// The poll timeout: the next watch frame's due time, capped by the
    /// deadline-scan cadence while connections exist; unbounded when
    /// there is nothing to time.
    fn poll_timeout(&self, now: Instant) -> Option<Duration> {
        let next_watch = self
            .watch_timers
            .peek()
            .map(|Reverse((due, _, _))| due.saturating_duration_since(now));
        let scan = (!self.conns.is_empty()).then_some(TIMER_SCAN);
        match (next_watch, scan) {
            (Some(w), Some(s)) => Some(w.min(s)),
            (Some(w), None) => Some(w),
            (None, scan) => scan,
        }
    }
}

/// Serve JSONL connections from `listener` until a `shutdown` op (or
/// [`ValidationService::request_shutdown`]). This is the event-loop core
/// behind [`super::serve_tcp`], public so tests can drive it through a
/// fault-injecting [`super::FaultListener`].
pub fn serve_listener(
    service: Arc<ValidationService>,
    mut listener: Box<dyn NetListener>,
) -> io::Result<()> {
    let poller = Arc::new(Poller::new()?);
    poller.add(listener.raw_fd(), Event::readable(LISTENER_KEY))?;
    {
        let waker = Arc::clone(&poller);
        service.register_shutdown_waker(Box::new(move || {
            let _ = waker.notify();
        }));
    }

    let queues = Arc::new(Queues::new());
    let workers: Vec<_> = (0..worker_count(&service))
        .map(|_| {
            let service = Arc::clone(&service);
            let queues = Arc::clone(&queues);
            let poller = Arc::clone(&poller);
            std::thread::spawn(move || worker_loop(&service, &queues, &poller))
        })
        .collect();

    let config = service.config();
    let max_connections = config.max_connections;
    let run_queue_cap = if max_connections > 0 {
        max_connections.max(64)
    } else {
        usize::MAX
    };
    let mut reactor = Reactor {
        service: &service,
        poller: Arc::clone(&poller),
        queues: Arc::clone(&queues),
        conns: HashMap::new(),
        watch_timers: BinaryHeap::new(),
        next_key: 1,
        max_connections,
        idle_timeout: (config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(config.idle_timeout_ms)),
        stall_deadline: (config.stall_deadline_ms > 0)
            .then(|| Duration::from_millis(config.stall_deadline_ms)),
        run_queue_cap,
        scratch: String::new(),
    };

    let mut events: Vec<Event> = Vec::new();
    let mut last_scan = Instant::now();
    while !service.is_shutdown() {
        let timeout = reactor.poll_timeout(Instant::now());
        poller.wait(&mut events, timeout)?;
        let now = Instant::now();

        let mut touched = reactor.apply_completions(now);
        for &ev in &events {
            if ev.key == LISTENER_KEY {
                touched.extend(reactor.accept_ready(listener.as_mut(), now));
                continue;
            }
            if ev.readable {
                reactor.read_ready(ev.key, now);
            }
            touched.push(ev.key);
        }
        touched.extend(reactor.fire_watch_timers(now));
        for key in touched {
            reactor.advance(key, now);
        }
        if now.duration_since(last_scan) >= TIMER_SCAN {
            last_scan = now;
            reactor.enforce_deadlines(now);
        }
    }

    // Shutdown. Workers first, so every response they already produced
    // (the shutdown ack among them) reaches a write buffer before the
    // flush grace starts.
    queues.close();
    for worker in workers {
        // av-guard: allow(G5, reason = "shutdown join: the event loop has exited and the run queue is closed, so nothing is left to stall")
        let _ = worker.join();
    }
    let _ = poller.delete(listener.raw_fd());
    let now = Instant::now();
    for key in reactor.apply_completions(now) {
        if let Some(conn) = reactor.conns.get_mut(&key) {
            service.record_socket_writes(conn.flush(now).1);
        }
    }
    // Connections owing nothing close immediately; the rest get a
    // bounded grace to drain.
    let owed: Vec<usize> = reactor.conns.keys().copied().collect();
    let mut draining = Vec::new();
    for key in owed {
        let Some(conn) = reactor.conns.get_mut(&key) else {
            continue;
        };
        if conn.backlog() == 0 {
            reactor.close_conn(key);
        } else if poller
            .modify(conn.sock.raw_fd(), Event::writable(key))
            .is_ok()
        {
            conn.registered = (false, true);
            draining.push(key);
        }
    }
    let grace_deadline = now + SHUTDOWN_FLUSH_GRACE;
    while !draining.is_empty() {
        let now = Instant::now();
        if now >= grace_deadline {
            break;
        }
        poller.wait(&mut events, Some((grace_deadline - now).min(TIMER_SCAN)))?;
        let now = Instant::now();
        draining.retain(|&key| {
            let Some(conn) = reactor.conns.get_mut(&key) else {
                return false;
            };
            let (flushed, writes) = conn.flush(now);
            service.record_socket_writes(writes);
            match flushed {
                Flush::Drained => {
                    reactor.close_conn(key);
                    false
                }
                Flush::Blocked => true,
                Flush::Failed => {
                    conn.error = true;
                    reactor.close_conn(key);
                    false
                }
            }
        });
    }
    // Whatever still owes bytes is abandoned: the peer stopped reading
    // through shutdown. Count those as connection errors.
    let leftover: Vec<usize> = reactor.conns.keys().copied().collect();
    for key in leftover {
        if let Some(conn) = reactor.conns.get_mut(&key) {
            conn.error = true;
        }
        reactor.close_conn(key);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoSocket;

    impl super::super::netfault::NetSocket for NoSocket {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn raw_fd(&self) -> i32 {
            -1
        }
        fn shutdown_write(&mut self) {}
    }

    /// Feed `reads` the way `read_ready` does (reading stops at a fatal
    /// error, EOF follows the last read); returns the pipeline (`None` is
    /// a shed frame) and the fatal error.
    fn feed(reads: &[&[u8]], max_request: usize) -> (Vec<Option<String>>, Option<String>) {
        let mut conn = Conn::new(Box::new(NoSocket), Instant::now());
        for bytes in reads {
            if conn.want_read() {
                conn.read_buf.extend_from_slice(bytes);
                split_frames(&mut conn, max_request, false);
            }
        }
        if conn.want_read() {
            split_frames(&mut conn, max_request, true);
        }
        let frames = conn.pending.into_iter().map(|frame| match frame {
            PendingFrame::Line(line) => Some(line),
            PendingFrame::Shed => None,
        });
        (frames.collect(), conn.fatal)
    }

    /// The rescan regression: a newline-free frame arriving in 8 KiB reads
    /// used to be searched from byte 0 on every read (128 passes over a
    /// 1 MiB frame, on the thread that serves every connection).
    #[test]
    fn a_frame_arriving_in_many_reads_is_examined_once() {
        let mut frame = vec![b'a'; 1 << 20];
        frame.push(b'\n');
        let reads: Vec<&[u8]> = frame.chunks(READ_CHUNK).collect();
        BYTES_EXAMINED.with(|n| n.set(0));
        let (frames, fatal) = feed(&reads, 1 << 20);
        assert_eq!((frames.len(), fatal), (1, None));
        let examined = BYTES_EXAMINED.with(|n| n.get());
        assert!(examined <= 2 * frame.len(), "{examined} bytes examined");
    }

    /// Wherever two cuts fall, three reads yield what one read yields:
    /// blank lines skipped and the unterminated tail served at EOF; a
    /// non-UTF-8 or oversize line fatal after the frames before it.
    #[test]
    fn frames_split_across_three_reads_match_one_read() {
        let cases: [(&[u8], usize, usize, bool); 3] = [
            (
                b"{\"op\":\"ping\"}\n\r\n{\"op\":\"stats\"}\n{\"op\":\"tail\"}",
                64,
                3,
                false,
            ),
            (
                b"{\"op\":\"ping\"}\n\xff\xfe\n{\"op\":\"ping\"}\n",
                64,
                1,
                true,
            ),
            (
                b"{\"op\":\"ping\"}\n{\"op\":\"a-line-past-the-limit\"}\n{\"op\":\"ping\"}",
                16,
                1,
                true,
            ),
        ];
        for (stream, max_request, frames, fatal) in cases {
            let whole = feed(&[stream], max_request);
            assert_eq!((whole.0.len(), whole.1.is_some()), (frames, fatal));
            for a in 0..=stream.len() {
                for b in a..=stream.len() {
                    let reads = [&stream[..a], &stream[a..b], &stream[b..]];
                    assert_eq!(feed(&reads, max_request), whole, "cuts {a},{b}");
                }
            }
        }
    }
}
