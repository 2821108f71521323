//! Per-connection state for the event loop: buffered reads, a pipeline
//! of parsed frames, the run in progress, buffered writes with
//! watermarks, and the clocks that drive idle/stall shedding.
//!
//! A connection moves through four logical phases — reading a frame,
//! executing a run of its frames, draining response bytes, streaming
//! `watch` frames — but the phases overlap by design: pipelined frames
//! queue while a run executes in turns, and the write buffer drains
//! whenever the socket accepts bytes, whatever else is going on. All of
//! it happens on the one event loop that owns the connection, which is
//! what makes "no torn response frame" true by construction: one writer,
//! whole frames in, byte order out.

use super::netfault::NetSocket;
use crate::protocol::WatchParams;
use polling::Event;
use std::collections::VecDeque;
use std::io;
use std::time::Instant;

/// Most request frames a connection may have accepted and not yet
/// answered, the run in progress included. A client pipelining past
/// this gets `overloaded` replies for the excess (see
/// `ServiceStats::requests_shed`).
pub(crate) const PIPELINE_CAP: usize = 128;

/// Write buffer size above which the connection stops reading new
/// requests and stops rendering watch frames until the peer drains.
pub(crate) const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Write buffer size at which a backpressured connection resumes
/// reading (hysteresis so interest doesn't flap per byte).
pub(crate) const WRITE_LOW_WATER: usize = 64 * 1024;

/// One parsed request frame waiting its turn in the pipeline.
pub(crate) enum PendingFrame {
    /// A frame to execute.
    Line(String),
    /// A frame that arrived past the pipeline cap: it is answered with
    /// an `overloaded` error *in request order* when its turn comes —
    /// shed replies never jump the response queue.
    Shed,
}

/// Live `watch` stream state (the ack already went out).
pub(crate) struct WatchState {
    pub(crate) params: WatchParams,
    /// When the stream started (frame timestamps are relative to this).
    pub(crate) started: Instant,
    /// Next frame number to emit.
    pub(crate) frame: u64,
}

/// One connection, owned by one event loop.
pub(crate) struct Conn {
    pub(crate) sock: Box<dyn NetSocket>,
    /// Raw request bytes not yet split into frames.
    pub(crate) read_buf: Vec<u8>,
    /// Prefix of `read_buf` already searched and holding no newline, so a
    /// frame arriving in many reads has each byte examined once.
    pub(crate) scanned: usize,
    /// Peer sent FIN (a trailing unterminated line was already promoted
    /// to a frame).
    pub(crate) read_closed: bool,
    /// Parsed frames waiting to execute, oldest first.
    pub(crate) pending: VecDeque<PendingFrame>,
    /// Frames of the run in progress not yet executed, oldest first.
    pub(crate) run: VecDeque<String>,
    /// How many frames the run in progress started with; 0 when there is
    /// none (at most one run at a time, which is what keeps pipelined
    /// responses in request order). They count against [`PIPELINE_CAP`]
    /// like the ones in `pending` until the run ends.
    pub(crate) out_frames: usize,
    /// Response bytes not yet accepted by the socket.
    pub(crate) write_buf: Vec<u8>,
    /// Consumed prefix of `write_buf` (compacted when fully drained).
    pub(crate) write_pos: usize,
    /// Interest bits currently registered with the poller.
    pub(crate) registered: (bool, bool),
    /// Close once `write_buf` drains (protocol error or shutdown ack).
    pub(crate) close_after_flush: bool,
    /// Count this connection in `connection_errors` when it closes.
    pub(crate) error: bool,
    /// Last time request bytes arrived (idle clock).
    pub(crate) last_activity: Instant,
    /// Set while `write_buf` is nonempty: last time the socket accepted
    /// bytes (stall clock).
    pub(crate) stalled_since: Option<Instant>,
    /// Live watch stream, if any.
    pub(crate) watch: Option<WatchState>,
    /// A protocol-fatal condition (oversized or non-UTF-8 frame) waiting
    /// to be answered. Held back until earlier pipelined responses have
    /// gone out, so the error frame never jumps the queue; reading stops
    /// immediately.
    pub(crate) fatal: Option<String>,
}

/// What a flush attempt did.
pub(crate) enum Flush {
    /// Buffer drained completely (or was already empty).
    Drained,
    /// Socket stopped accepting bytes (the stall clock was reset if any
    /// were written first).
    Blocked,
    /// The socket failed hard (reset, broken pipe).
    Failed,
}

impl Conn {
    pub(crate) fn new(sock: Box<dyn NetSocket>, now: Instant) -> Conn {
        Conn {
            sock,
            read_buf: Vec::new(),
            scanned: 0,
            read_closed: false,
            pending: VecDeque::new(),
            run: VecDeque::new(),
            out_frames: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            registered: (true, false),
            close_after_flush: false,
            error: false,
            last_activity: now,
            stalled_since: None,
            watch: None,
            fatal: None,
        }
    }

    /// Unflushed response bytes.
    pub(crate) fn backlog(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Queue one complete response frame (newline appended here), so the
    /// buffer only ever grows by whole frames.
    pub(crate) fn queue_frame(&mut self, frame: &str, now: Instant) {
        self.write_buf.extend_from_slice(frame.as_bytes());
        self.queue_replies("\n", now);
    }

    /// Queue a run's replies: whole frames, each already newline-terminated.
    pub(crate) fn queue_replies(&mut self, replies: &str, now: Instant) {
        self.write_buf.extend_from_slice(replies.as_bytes());
        if self.stalled_since.is_none() {
            self.stalled_since = Some(now);
        }
    }

    /// Push buffered bytes into the socket until drained or blocked;
    /// also returns how many `write`s moved bytes.
    pub(crate) fn flush(&mut self, now: Instant) -> (Flush, u64) {
        let mut writes = 0;
        while let Some(bytes) = self.write_buf.get(self.write_pos..) {
            if bytes.is_empty() {
                break;
            }
            match self.sock.write(bytes) {
                Ok(0) => return (Flush::Failed, writes),
                Ok(n) => {
                    self.write_pos += n;
                    writes += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if writes > 0 {
                        self.stalled_since = Some(now);
                    }
                    return (Flush::Blocked, writes);
                }
                Err(_) => return (Flush::Failed, writes),
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        self.stalled_since = None;
        (Flush::Drained, writes)
    }

    /// Should the loop poll this connection readable? Not once the
    /// peer closed or we decided to close; paused while the pipeline or
    /// the write buffer is full (backpressure — the kernel's receive
    /// buffer then pushes back on the peer).
    pub(crate) fn want_read(&self) -> bool {
        !self.read_closed
            && !self.close_after_flush
            && self.fatal.is_none()
            && self.pending.len() + self.out_frames < PIPELINE_CAP
            && self.backlog() < WRITE_HIGH_WATER
    }

    /// Should the loop poll this connection writable?
    pub(crate) fn want_write(&self) -> bool {
        self.backlog() > 0
    }

    /// The interest to register for `key` right now.
    pub(crate) fn desired_interest(&self, key: usize) -> Event {
        Event {
            key,
            readable: self.want_read(),
            writable: self.want_write(),
        }
    }

    /// Nothing left to do on this connection. Once `close_after_flush`
    /// is set, draining the write buffer is all that remains (unexecuted
    /// pipelined frames are dropped); otherwise the peer must have
    /// finished sending and every stage must be empty.
    pub(crate) fn is_complete(&self) -> bool {
        if self.close_after_flush {
            return self.backlog() == 0;
        }
        self.read_closed
            && self.out_frames == 0
            && self.pending.is_empty()
            && self.fatal.is_none()
            && self.backlog() == 0
            && self.watch.is_none()
    }
}
