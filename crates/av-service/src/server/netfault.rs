//! Transport abstraction + deterministic socket fault injection.
//!
//! The event loop never touches `TcpStream`/`TcpListener` directly; it
//! drives [`NetSocket`]/[`NetListener`] trait objects. Production code
//! wraps the real std types ([`std_listener`]); chaos tests wrap them
//! again in [`FaultListener`]/[`FaultSocket`], which share a global
//! socket-op counter and inject one scripted fault at the Nth op — the
//! transport twin of `av_durable::FaultPlan`'s storage faults.
//!
//! Faults are injected **at the shim**, before the real syscall, so the
//! underlying descriptor stays healthy and pollable: an injected
//! `WouldBlock` looks exactly like a socket that wasn't ready (the
//! level-triggered poller simply reports it again), a short I/O clamps
//! progress to one byte, and a reset kills that socket's shim without
//! tearing bytes already on the wire.
//!
//! [`std_listener`] sets `TCP_NODELAY` on every socket it accepts, and
//! [`FaultListener`] wraps `std_listener`'s sockets, so the chaos matrix
//! runs with the same socket options as production.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A nonblocking byte stream the event loop can poll by fd.
pub trait NetSocket: Send {
    /// Nonblocking read; `Ok(0)` is EOF, `WouldBlock` means try later.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Nonblocking write; `WouldBlock` means the kernel buffer is full.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;
    /// The pollable descriptor (stable for the socket's lifetime).
    fn raw_fd(&self) -> i32;
    /// Best-effort FIN so buffered response bytes drain as a graceful
    /// close instead of a reset.
    fn shutdown_write(&mut self);
}

/// A nonblocking listener the event loop can poll by fd.
pub trait NetListener: Send {
    /// Accept one pending connection, already switched to nonblocking;
    /// `Ok(None)` when none is pending. An `Err` is a transient accept
    /// failure — the serve loop counts it and keeps listening.
    fn accept(&mut self) -> io::Result<Option<Box<dyn NetSocket>>>;
    /// The pollable descriptor.
    fn raw_fd(&self) -> i32;
    /// The bound local address.
    fn local_addr(&self) -> io::Result<SocketAddr>;
}

struct StdSocket(TcpStream);

impl NetSocket for StdSocket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(&mut self.0, buf)
    }
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        io::Write::write(&mut self.0, buf)
    }
    fn raw_fd(&self) -> i32 {
        self.0.as_raw_fd()
    }
    fn shutdown_write(&mut self) {
        let _ = self.0.shutdown(std::net::Shutdown::Write);
    }
}

struct StdListener(TcpListener);

impl StdListener {
    /// Accept one pending stream, configured the way the event loops need it.
    fn accept_stream(&self) -> io::Result<Option<TcpStream>> {
        match self.0.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(true)?;
                // Unconditional: a loop only ever writes whole
                // response frames from its own buffer, so Nagle has nothing
                // to coalesce that the server does not coalesce itself — it
                // could only hold a reply for the peer's delayed ACK.
                stream.set_nodelay(true)?;
                Ok(Some(stream))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }
}

impl NetListener for StdListener {
    fn accept(&mut self) -> io::Result<Option<Box<dyn NetSocket>>> {
        let stream = self.accept_stream()?;
        Ok(stream.map(|s| Box::new(StdSocket(s)) as Box<dyn NetSocket>))
    }
    fn raw_fd(&self) -> i32 {
        self.0.as_raw_fd()
    }
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.0.local_addr()
    }
}

/// Wrap a bound std listener for [`crate::serve_listener`]. The listener
/// is switched to nonblocking mode here.
pub fn std_listener(listener: TcpListener) -> io::Result<Box<dyn NetListener>> {
    listener.set_nonblocking(true)?;
    Ok(Box::new(StdListener(listener)))
}

/// What a [`NetFaultPlan`] injects when the op counter hits its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Ops in the fault window make one byte of progress per call —
    /// deterministic short reads and short writes (frames arrive and
    /// drain in fragments; accepts pass through).
    ShortIo,
    /// Ops in the fault window spuriously report `WouldBlock` (an EAGAIN
    /// storm; accepts report "nothing pending").
    Eagain,
    /// The op at the fault index fails with `ConnectionReset`: a socket
    /// hit mid-read or mid-write is dead from then on (every later op on
    /// it also resets); a listener hit at an accept fails that one
    /// accept and recovers.
    Reset,
}

/// How many consecutive ops a [`FaultKind::ShortIo`]/[`FaultKind::Eagain`]
/// window covers. A single spurious `WouldBlock` is invisible to a
/// retrying event loop; a storm of them is the interesting case.
pub(crate) const FAULT_WINDOW_OPS: u64 = 8;

/// Deterministic transport fault plan: one global counter over **all**
/// socket ops (reads, writes, accepts, across every connection), one
/// scripted fault at a chosen index. Clone freely — clones share the
/// counter, which is what lets a multi-connection workload interleave
/// naturally while the Nth op, whoever issues it, takes the fault.
#[derive(Clone)]
pub struct NetFaultPlan {
    ops: Arc<AtomicU64>,
    fault_at: u64,
    kind: FaultKind,
}

impl NetFaultPlan {
    /// A plan injecting `kind` at global socket-op `index` (0-based).
    pub fn fault_at(index: u64, kind: FaultKind) -> NetFaultPlan {
        NetFaultPlan {
            ops: Arc::new(AtomicU64::new(0)),
            fault_at: index,
            kind,
        }
    }

    /// A plan that never faults — the reference run that measures how
    /// many socket ops a scripted workload performs.
    pub fn none() -> NetFaultPlan {
        NetFaultPlan {
            ops: Arc::new(AtomicU64::new(0)),
            fault_at: u64::MAX,
            kind: FaultKind::Reset,
        }
    }

    /// Socket ops executed so far under this plan.
    pub fn ops_executed(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Count one op; `Some(kind)` when it falls in the fault window.
    fn gate(&self) -> Option<FaultKind> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let hit = match self.kind {
            FaultKind::Reset => op == self.fault_at,
            FaultKind::ShortIo | FaultKind::Eagain => {
                op >= self.fault_at && op < self.fault_at.saturating_add(FAULT_WINDOW_OPS)
            }
        };
        hit.then_some(self.kind)
    }
}

fn eagain() -> io::Error {
    io::Error::new(io::ErrorKind::WouldBlock, "injected EAGAIN")
}

fn reset() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
}

/// A [`NetSocket`] that runs every op through a [`NetFaultPlan`] gate
/// before touching the wrapped socket.
pub(crate) struct FaultSocket {
    inner: Box<dyn NetSocket>,
    plan: NetFaultPlan,
    /// Set once a `Reset` fires on this socket: it is dead for good.
    dead: bool,
}

impl FaultSocket {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: Box<dyn NetSocket>, plan: NetFaultPlan) -> FaultSocket {
        FaultSocket {
            inner,
            plan,
            dead: false,
        }
    }
}

impl NetSocket for FaultSocket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(reset());
        }
        match self.plan.gate() {
            Some(FaultKind::Eagain) => Err(eagain()),
            Some(FaultKind::Reset) => {
                self.dead = true;
                Err(reset())
            }
            Some(FaultKind::ShortIo) => {
                let n = buf.len().min(1);
                match buf.get_mut(..n) {
                    Some(short) => self.inner.read(short),
                    None => Ok(0),
                }
            }
            None => self.inner.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(reset());
        }
        match self.plan.gate() {
            Some(FaultKind::Eagain) => Err(eagain()),
            Some(FaultKind::Reset) => {
                self.dead = true;
                Err(reset())
            }
            Some(FaultKind::ShortIo) => match buf.get(..buf.len().min(1)) {
                Some(short) => self.inner.write(short),
                None => Ok(0),
            },
            None => self.inner.write(buf),
        }
    }

    fn raw_fd(&self) -> i32 {
        self.inner.raw_fd()
    }

    fn shutdown_write(&mut self) {
        self.inner.shutdown_write();
    }
}

/// A [`NetListener`] that gates accepts through a [`NetFaultPlan`] and
/// wraps every accepted socket in a fault-injecting socket sharing the
/// plan.
pub struct FaultListener {
    inner: Box<dyn NetListener>,
    plan: NetFaultPlan,
}

impl FaultListener {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: Box<dyn NetListener>, plan: NetFaultPlan) -> FaultListener {
        FaultListener { inner, plan }
    }

    /// Bind a TCP listener on `addr` with every socket op gated by `plan`.
    pub fn bind(
        addr: impl std::net::ToSocketAddrs,
        plan: NetFaultPlan,
    ) -> io::Result<FaultListener> {
        let listener = TcpListener::bind(addr)?;
        Ok(FaultListener::new(std_listener(listener)?, plan))
    }
}

impl NetListener for FaultListener {
    fn accept(&mut self) -> io::Result<Option<Box<dyn NetSocket>>> {
        match self.plan.gate() {
            // The pending connection is not consumed — the level-triggered
            // poller reports the listener again and a later accept gets it.
            Some(FaultKind::Eagain) => Ok(None),
            Some(FaultKind::Reset) => Err(reset()),
            Some(FaultKind::ShortIo) | None => match self.inner.accept()? {
                Some(sock) => Ok(Some(Box::new(FaultSocket::new(sock, self.plan.clone())))),
                None => Ok(None),
            },
        }
    }

    fn raw_fd(&self) -> i32 {
        self.inner.raw_fd()
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The socket option cannot silently go away: without it every reply
    /// after a connection's first waits out the peer's delayed-ACK timer.
    #[test]
    fn accepted_streams_are_nodelay_and_nonblocking() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        listener.set_nonblocking(true).unwrap();
        let listener = StdListener(listener);
        let mut stream = loop {
            if let Some(stream) = listener.accept_stream().unwrap() {
                break stream;
            }
        };
        assert!(stream.nodelay().unwrap());
        // Nonblocking: nothing was sent, so a read must not wait.
        let err = io::Read::read(&mut stream, &mut [0u8; 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }
}
