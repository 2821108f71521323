//! The event-driven serve loop: [`worker_count`] event loops, each a
//! thread with its own poller and connections that reads, executes and
//! answers its connections' requests itself, and deterministic overload
//! behavior (admission control, pipelining caps, backpressure, idle and
//! stall shedding).
//!
//! ## Division of labor
//!
//! Loop 0 also owns the listener. It places each accepted socket on the
//! loop with the fewest live connections (the lowest index on ties)
//! through that loop's inbox and waker, and the connection stays there
//! until it closes. A loop is the only thread that touches its
//! connections: it splits request bytes into frames, executes each
//! connection's **run** of pipelined frames (at most one run per
//! connection at a time), appends the replies to the connection's write
//! buffer and flushes them with one `write`, paces `watch` streams off a
//! timer heap, and enforces every deadline. A request is read, handled
//! and written on one thread, with no queue between, and because
//! responses reach the socket only as whole frames appended to one buffer
//! by one thread, response frames cannot tear or interleave no matter how
//! faulty the transport is.
//!
//! A run executes in turns. A turn ends when the run is exhausted; when a
//! frame's outcome is `shutdown` or `watch` (nothing behind either may
//! execute yet, so the run ends there and the frames behind it go back to
//! the **front** of the connection's pipeline); when the turn's replies
//! pass [`WRITE_LOW_WATER`]; or once it has used [`TURN_SLICE`] while
//! something else on the loop waits. Between turns the loop polls with a
//! zero timeout, so reads and the loop's other connections get their
//! turn. A depth-1 request is simply a run of length one — there is one
//! dispatch path. The trade-off: a connection waits only behind frames of
//! connections on its own loop, but behind those it does wait, since a
//! frame is never cut. Accepted sockets always have `TCP_NODELAY` set
//! (see [`super::std_listener`]): coalescing is this module's job, not a
//! kernel timer's.
//!
//! ## Overload ladder
//!
//! 1. *Admission*: past `max_connections` live across all loops, a new
//!    connection gets one `overloaded` frame and is closed
//!    (`connections_rejected`).
//! 2. *Pipelining cap*: frames parsed past [`PIPELINE_CAP`] per
//!    connection — the frames of the run in progress count until it
//!    ends — are answered `overloaded` in order (`requests_shed`);
//!    reading pauses at the cap so the cap is only exceeded by frames
//!    already inside one read burst.
//! 3. *Write backpressure*: past [`WRITE_HIGH_WATER`] buffered response
//!    bytes, the loop stops polling the connection readable (and stops
//!    rendering its watch frames) until the peer drains below
//!    [`WRITE_LOW_WATER`].
//! 4. *Deadlines*: zero drain progress for `stall_deadline_ms` sheds
//!    the connection (`stalls_shed`); no request bytes for
//!    `idle_timeout_ms` closes it cleanly.

use super::conn::{
    Conn, Flush, PendingFrame, WatchState, PIPELINE_CAP, WRITE_HIGH_WATER, WRITE_LOW_WATER,
};
use super::netfault::{NetListener, NetSocket};
use crate::engine::ValidationService;
use crate::protocol::{handle_line_into, render_error_into, render_overloaded_into};
use polling::{Event, Poller};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Poller key of the listening socket on loop 0 (connections start at 1).
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

/// How long one turn of a run may execute while something else on its
/// loop waits. A request behind a heavy pipeline on its loop waits one
/// slice or one frame, whichever is longer; a yield costs the run one
/// zero-timeout poll. The value is the one `PERF.md` Point 10 measured as the shortest
/// slice on the throughput plateau of the worker pool this loop replaced,
/// where a yield cost a thread hop: at 100 µs and below light runs lost
/// up to a third to hops, at 1 ms and above the waiting request's
/// latency was the slice.
const TURN_SLICE: Duration = Duration::from_micros(250);

#[cfg(test)]
thread_local! {
    /// Bytes `split_frames` compared against `\n` on this thread.
    static BYTES_EXAMINED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Vet one complete line into the pipeline (or arm a fatal error).
/// `held` is how many frames the run in progress holds: they fill the
/// cap too.
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

/// Event loops to run: the configured count, else the available
/// parallelism and never under two (even on one core, a second loop
/// keeps a long request from head-of-line-blocking every connection).
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

/// The loop a new connection joins, given each loop's live connections:
/// the one with the fewest, the lowest index on ties.
fn place(live: impl Iterator<Item = usize>) -> usize {
    live.enumerate()
        .min_by_key(|&(_, n)| n)
        .map_or(0, |(i, _)| i)
}

/// What other threads reach of one loop: the poller that wakes it, the
/// sockets placed on it and not yet registered, and how many connections
/// it holds (the inbox's included).
struct Port {
    poller: Poller,
    inbox: Mutex<Vec<Box<dyn NetSocket>>>,
    /// Read for placement and admission only; it publishes nothing (the
    /// sockets travel under the inbox lock), so `Relaxed` serves.
    live: AtomicUsize,
}

impl Port {
    fn inbox(&self) -> MutexGuard<'_, Vec<Box<dyn NetSocket>>> {
        self.inbox.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Everything one loop mutates, bundled so helpers can borrow it as one
/// unit.
struct EventLoop<'a> {
    service: &'a ValidationService,
    /// Every loop's port, this one's included (loop 0 places sockets).
    ports: &'a [Port],
    port: &'a Port,
    conns: HashMap<usize, Conn>,
    /// Connections with a run in progress or frames waiting for one:
    /// each gets its turn on the next pass.
    running: Vec<usize>,
    /// Min-heap of (due, key, frame): when to emit each watch frame.
    watch_timers: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    next_key: usize,
    idle_timeout: Option<Duration>,
    stall_deadline: Option<Duration>,
    /// Reused render buffer for loop-side frames (errors, overloads,
    /// watch frames).
    scratch: String,
    /// Reused reply buffer of the protocol handler.
    response: String,
}

impl EventLoop<'_> {
    /// Close `key`: deregister, best-effort FIN, count errors.
    fn close_conn(&mut self, key: usize) {
        if let Some(mut conn) = self.conns.remove(&key) {
            let _ = self.port.poller.delete(conn.sock.raw_fd());
            conn.sock.shutdown_write();
            self.port.live.fetch_sub(1, Ordering::Relaxed);
            if conn.error {
                self.service.record_connection_error();
            }
        }
    }

    /// Accept until the listener has nothing pending and place each
    /// socket on a loop. Transient accept failures are counted and
    /// survived; admission control rejects connections over the cap with
    /// one `overloaded` frame.
    fn accept_ready(&mut self, listener: &mut dyn NetListener) {
        let ports = self.ports;
        let live = || ports.iter().map(|port| port.live.load(Ordering::Relaxed));
        let max_connections = self.service.config().max_connections;
        loop {
            match listener.accept() {
                Ok(Some(mut sock)) => {
                    if max_connections > 0 && live().sum::<usize>() >= max_connections {
                        render_overloaded_into(
                            &format!(
                                "service at max_connections ({max_connections}); connection rejected"
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
                    let Some(port) = ports.get(place(live())) else {
                        continue;
                    };
                    port.live.fetch_add(1, Ordering::Relaxed);
                    port.inbox().push(sock);
                    if !std::ptr::eq(port, self.port) {
                        let _ = port.poller.notify();
                    }
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
    }

    /// Register the sockets placed on this loop.
    fn adopt(&mut self, now: Instant) {
        let placed = std::mem::take(&mut *self.port.inbox());
        for sock in placed {
            let key = self.next_key;
            self.next_key += 1;
            if self
                .port
                .poller
                .add(sock.raw_fd(), Event::readable(key))
                .is_err()
            {
                self.port.live.fetch_sub(1, Ordering::Relaxed);
                self.service.record_connection_error();
                continue;
            }
            self.conns.insert(key, Conn::new(sock, now));
        }
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
    /// answer shed frames, start the next run and execute one turn of it,
    /// surface a deferred fatal error, flush, close when complete, and
    /// re-register interest. Safe to call repeatedly; a connection left
    /// with work to do is queued for the next pass. `busy`: this pass
    /// advances other connections too.
    fn advance(&mut self, key: usize, now: Instant, busy: bool) {
        let mut turned = false;
        loop {
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            // Execute while the connection is executable: not mid-watch,
            // not closing, and at most one turn per pass.
            if conn.watch.is_some() || conn.close_after_flush {
                break;
            }
            if conn.out_frames > 0 {
                if turned {
                    break;
                }
                turned = true;
                // What the run's replies queue behind (a watch frame, shed
                // replies) leaves first.
                if !self.flush(key, now) {
                    return;
                }
                self.turn(key, now, busy);
                continue;
            }
            match conn.pending.front() {
                Some(PendingFrame::Shed) => {
                    conn.pending.pop_front();
                    render_overloaded_into(
                        &format!("pipeline full ({PIPELINE_CAP} frames queued); request shed"),
                        &mut self.scratch,
                    );
                    conn.queue_frame(&self.scratch, now);
                    self.service.record_requests_shed(1);
                }
                Some(PendingFrame::Line(_)) if !turned => {
                    // The run: every consecutive line up to the first shed
                    // frame (which must be answered in its place) — at most
                    // `PIPELINE_CAP` of them, the cap let no more in.
                    while let Some(PendingFrame::Line(_)) = conn.pending.front() {
                        if let Some(PendingFrame::Line(line)) = conn.pending.pop_front() {
                            conn.run.push_back(line);
                        }
                    }
                    conn.out_frames = conn.run.len();
                }
                Some(PendingFrame::Line(_)) => break,
                None => {
                    // Pipeline empty: a deferred fatal error is now next
                    // in response order.
                    if let Some(message) = conn.fatal.take() {
                        render_error_into(&message, &mut self.scratch);
                        conn.queue_frame(&self.scratch, now);
                        conn.error = true;
                        conn.close_after_flush = true;
                    }
                    break;
                }
            }
        }

        if !self.flush(key, now) {
            return;
        }
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if conn.is_complete() {
            self.close_conn(key);
            return;
        }
        // A run in progress, or frames to start one: a turn next pass.
        if conn.watch.is_none()
            && !conn.close_after_flush
            && (conn.out_frames > 0 || !conn.pending.is_empty())
        {
            self.running.push(key);
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
            && self.port.poller.modify(conn.sock.raw_fd(), desired).is_ok()
        {
            conn.registered = (desired.readable, desired.writable);
        }
    }

    /// Push `key`'s buffered replies into its socket; `false` when the
    /// socket failed and the connection is closed.
    fn flush(&mut self, key: usize, now: Instant) -> bool {
        let Some(conn) = self.conns.get_mut(&key) else {
            return false;
        };
        if conn.backlog() == 0 {
            return true;
        }
        let (flushed, writes) = conn.flush(now);
        self.service.record_socket_writes(writes);
        if let Flush::Failed = flushed {
            conn.error = true;
            self.close_conn(key);
            return false;
        }
        true
    }

    /// One turn of `key`'s run: execute its frames in order, replies
    /// straight into the write buffer, until the turn ends (module docs:
    /// the four ways). When the run ends, it is counted, and the frames a
    /// `shutdown` or `watch` cut off go back to the pipeline's front.
    fn turn(&mut self, key: usize, now: Instant, busy: bool) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let mut slice_start = Instant::now();
        let mut replied = 0;
        while let Some(line) = conn.run.pop_front() {
            let outcome = handle_line_into(self.service, &line, &mut self.response);
            conn.queue_frame(&self.response, now);
            replied += self.response.len() + 1;
            if outcome.shutdown {
                conn.close_after_flush = true;
            }
            if let Some(params) = outcome.watch {
                self.watch_timers
                    .push(Reverse((now + params.interval, key, 0)));
                conn.watch = Some(WatchState {
                    params,
                    started: now,
                    frame: 0,
                });
            }
            // An exhausted run ends the turn before the clock is read: a
            // depth-1 frame pays for none of this.
            if conn.run.is_empty() || conn.close_after_flush || conn.watch.is_some() {
                break;
            }
            if replied >= WRITE_LOW_WATER {
                return;
            }
            // Past its slice the turn yields, but only to someone: another
            // connection of this pass or the next, a socket placed on this
            // loop, readiness that a zero-timeout poll reports, or shutdown.
            if slice_start.elapsed() >= TURN_SLICE {
                let port = self.port;
                let ready = || port.poller.wait(&mut Vec::new(), Some(Duration::ZERO));
                if busy
                    || self.service.is_shutdown()
                    || !self.running.is_empty()
                    || !port.inbox().is_empty()
                    || ready().is_ok_and(|n| n > 0)
                {
                    return;
                }
                slice_start = Instant::now();
            }
        }
        let executed = conn.out_frames.saturating_sub(conn.run.len());
        self.service.record_run(executed as u64);
        while let Some(line) = conn.run.pop_back() {
            conn.pending.push_front(PendingFrame::Line(line));
        }
        conn.out_frames = 0;
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

    /// The poll timeout: zero while a connection has a turn waiting, else
    /// the next watch frame's due time, capped by the deadline-scan
    /// cadence while connections exist; unbounded when there is nothing
    /// to time.
    fn poll_timeout(&self, now: Instant) -> Option<Duration> {
        if !self.running.is_empty() {
            return Some(Duration::ZERO);
        }
        let next_watch = self
            .watch_timers
            .peek()
            .map(|Reverse((due, _, _))| due.saturating_duration_since(now));
        let scan = (!self.conns.is_empty()).then_some(TIMER_SCAN);
        next_watch.into_iter().chain(scan).min()
    }

    /// Serve until shutdown (loop 0 also accepts from `listener`), then
    /// give the connections a bounded grace to drain what they are owed.
    fn run(&mut self, mut listener: Option<&mut dyn NetListener>) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        let mut last_scan = Instant::now();
        while !self.service.is_shutdown() {
            let timeout = self.poll_timeout(Instant::now());
            self.port.poller.wait(&mut events, timeout)?;
            let now = Instant::now();

            let mut touched = std::mem::take(&mut self.running);
            for &ev in &events {
                if ev.key == LISTENER_KEY {
                    if let Some(listener) = listener.as_deref_mut() {
                        self.accept_ready(listener);
                    }
                    continue;
                }
                if ev.readable {
                    self.read_ready(ev.key, now);
                }
                touched.push(ev.key);
            }
            self.adopt(now);
            touched.extend(self.fire_watch_timers(now));
            // One advance, so at most one turn, per connection per pass.
            touched.sort_unstable();
            touched.dedup();
            let busy = touched.len() > 1;
            for key in touched {
                self.advance(key, now, busy);
            }
            if now.duration_since(last_scan) >= TIMER_SCAN {
                last_scan = now;
                self.enforce_deadlines(now);
            }
        }

        if let Some(listener) = listener {
            let _ = self.port.poller.delete(listener.raw_fd());
        }
        // Connections owing nothing close now; the rest, polled writable
        // only, get a bounded grace to drain.
        let mut draining: Vec<usize> = self.conns.keys().copied().collect();
        let grace_deadline = Instant::now() + SHUTDOWN_FLUSH_GRACE;
        loop {
            let now = Instant::now();
            draining.retain(|&key| {
                if !self.flush(key, now) {
                    return false;
                }
                let Some(conn) = self.conns.get_mut(&key) else {
                    return false;
                };
                if conn.backlog() == 0 {
                    self.close_conn(key);
                    return false;
                }
                if conn.registered != (false, true) {
                    let _ = self
                        .port
                        .poller
                        .modify(conn.sock.raw_fd(), Event::writable(key));
                    conn.registered = (false, true);
                }
                true
            });
            if draining.is_empty() || now >= grace_deadline {
                break;
            }
            let timeout = (grace_deadline - now).min(TIMER_SCAN);
            self.port.poller.wait(&mut events, Some(timeout))?;
        }
        // Whatever still owes bytes is abandoned: the peer stopped reading
        // through shutdown. Count those as connection errors.
        let leftover: Vec<usize> = self.conns.keys().copied().collect();
        for key in leftover {
            if let Some(conn) = self.conns.get_mut(&key) {
                conn.error = true;
            }
            self.close_conn(key);
        }
        Ok(())
    }
}

/// Run one event loop on the calling thread until shutdown. Its exit, for
/// whatever reason (shutdown, a poller error, a panic), shuts the service
/// down, so no loop serves on alone and no socket is placed on a loop
/// that is gone.
fn run_loop(
    service: &ValidationService,
    ports: &[Port],
    port: &Port,
    listener: Option<&mut dyn NetListener>,
) -> io::Result<()> {
    struct StopOnExit<'a>(&'a ValidationService);
    impl Drop for StopOnExit<'_> {
        fn drop(&mut self) {
            self.0.request_shutdown();
        }
    }
    let _stop = StopOnExit(service);
    let config = service.config();
    EventLoop {
        service,
        ports,
        port,
        conns: HashMap::new(),
        running: Vec::new(),
        watch_timers: BinaryHeap::new(),
        next_key: LISTENER_KEY + 1,
        idle_timeout: (config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(config.idle_timeout_ms)),
        stall_deadline: (config.stall_deadline_ms > 0)
            .then(|| Duration::from_millis(config.stall_deadline_ms)),
        scratch: String::new(),
        response: String::new(),
    }
    .run(listener)
}

/// Serve JSONL connections from `listener` until a `shutdown` op (or
/// [`ValidationService::request_shutdown`]). This is the event-loop core
/// behind [`super::serve_tcp`], public so tests can drive it through a
/// fault-injecting [`super::FaultListener`].
pub fn serve_listener(
    service: Arc<ValidationService>,
    mut listener: Box<dyn NetListener>,
) -> io::Result<()> {
    let ports = (0..worker_count(&service))
        .map(|_| {
            Ok(Port {
                poller: Poller::new()?,
                inbox: Mutex::default(),
                live: AtomicUsize::new(0),
            })
        })
        .collect::<io::Result<Arc<[Port]>>>()?;
    let Some((first, rest)) = ports.split_first() else {
        return Ok(());
    };
    first
        .poller
        .add(listener.raw_fd(), Event::readable(LISTENER_KEY))?;
    {
        let ports = Arc::clone(&ports);
        service.register_shutdown_waker(Box::new(move || {
            for port in ports.iter() {
                let _ = port.poller.notify();
            }
        }));
    }
    let (service, all): (&ValidationService, &[Port]) = (&service, &ports);
    std::thread::scope(|scope| {
        let loops: Vec<_> = rest
            .iter()
            .map(|port| scope.spawn(move || run_loop(service, all, port, None)))
            .collect();
        let mut result = run_loop(service, all, first, Some(listener.as_mut()));
        for handle in loops {
            // av-guard: allow(G5, reason = "shutdown join: every loop has seen the shutdown, so each is only draining its last bytes under a bounded grace")
            match handle.join() {
                Ok(ended) => result = result.and(ended),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        result
    })
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

    /// Placement: the fewest live connections win, the lowest index on
    /// ties, and a slot a close frees is the next one filled.
    #[test]
    fn a_connection_joins_the_least_loaded_loop() {
        let mut live = vec![0usize; 3];
        let mut placed = Vec::new();
        for _ in 0..5 {
            let at = place(live.iter().copied());
            live[at] += 1;
            placed.push(at);
        }
        assert_eq!(placed, [0, 1, 2, 0, 1]);
        assert_eq!(live, [2, 2, 1]);
        live[2] += 1;
        live[1] -= 1; // a connection on loop 1 closes
        assert_eq!(place(live.iter().copied()), 1);
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
