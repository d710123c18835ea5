//! Live TCP serving mode: the sans-IO machines on real sockets.
//!
//! The paper's testbed serves real browsers over real TCP; this module is
//! our equivalent of that half of the methodology. It hosts exactly the
//! same state machines the simulator drives — [`ReplayServer`] behind
//! [`h2push_h2proto::sansio::Endpoint`], the `h2push-browser` action
//! machine as the load client — on a small readiness runtime built
//! directly on `poll(2)` and non-blocking `std::net` sockets (the
//! container has no mio; the FFI below is the whole "event library").
//!
//! Layering mirrors `driver.rs`: the runtime owns sockets, buffers
//! and the clock; the machines own every protocol decision. Time is
//! injected as microseconds since the runtime's start instant, so the
//! machines cannot tell the difference between the wall clock and
//! sim-time — which is the point: a strategy measured in the simulator
//! can be served to a real client byte-for-byte.
//!
//! * [`LiveServer`] — binds a listener and answers every accepted
//!   connection from a page's [`ReplayInputs`] with the configured push
//!   strategy (push fires on whichever connection requests the base
//!   document, exactly as in the sim).
//! * [`load_page`] — the loopback load client: drives a real [`Browser`]
//!   over TCP connections to one address and returns its [`LoadResult`].
//!
//! Both halves keep their machinery in a [`ReplayCtx`], under the rule the
//! simulator's runs follow (see `driver.rs`): machines and queues
//! are parked when a connection is done with them and reissued through
//! `reset`, so the cold path is the first run through an empty context,
//! not a second code path. [`load_page`] runs in the calling thread's
//! context — the one its simulated replays recycle — and
//! [`LiveServer::run`] in one of its own, where a connection parks only
//! if it closed [`CloseReason::Clean`]. Neither poll loop allocates per
//! tick: read buffer and `pollfd` array are the context's too.
//!
//! # Supervision
//!
//! Real networks contain peers the simulator never models: clients that
//! connect and say nothing, that stop reading mid-response, that flood or
//! reset or vanish. Every accepted connection therefore lives under a
//! supervisor with a typed lifecycle, its deadlines the constants below:
//!
//! ```text
//!            accept            preface           first request
//!   (gate) ────────► Preface ─────────► Handshake ─────────► Active
//!     │ over            │ PREFACE_TIMEOUT   │ HEADER_TIMEOUT   │ IDLE_TIMEOUT
//!     │ max_conns       ▼                   ▼                  ▼
//!     ▼               Timeout(Preface)  Timeout(Header)   Timeout(Idle)
//!    Shed
//!
//!   any state ──peer EOF──► Clean ──► machine and queue parked for the next accept
//!   any state ──ConnError──► ProtocolError
//!   any state ──socket error──► IoError
//!   out queued, no progress for WRITE_STALL_TIMEOUT ──► WriteStall
//!   still open at DRAIN_DEADLINE after stop() ──► DrainKilled
//! ```
//!
//! Each close is recorded once, with its [`CloseReason`] and the
//! machine's typed [`ConnError`] (if any), in
//! [`LiveServerStats::close_log`] — so the badpeer attack catalogue can
//! assert the *same* typed errors over real TCP as over in-memory
//! `feed_bytes`. Per-connection output is bounded by
//! [`MAX_QUEUED_BYTES`]: the runtime polls the machine only while there is
//! room, so a slow reader (the classic slow-read attack: grant a huge
//! flow-control window, never drain the socket) costs a bounded queue and
//! is closed for [`CloseReason::WriteStall`] when the socket makes no
//! progress for [`WRITE_STALL_TIMEOUT`].
//!
//! One connection's wake-up — read, stamp, pump, flush, supervise — is a
//! step over any `Read + Write` stream with the time passed in, so the
//! tests below run every deadline on an injected clock, to the
//! microsecond, without a socket or a sleep.
//!
//! [`LiveServerHandle::stop`] triggers a *graceful drain*: the listener
//! closes immediately (no new work), in-flight connections keep being
//! served until their peers finish and hang up, and whatever is still
//! open at [`DRAIN_DEADLINE`] is flushed once and killed. `run()` then
//! returns the complete [`LiveServerStats`].

use crate::driver::{with_thread_ctx, ReplayCtx};
use crate::replay::ReplayInputs;
use crate::wire_fifo::WireFifo;
use h2push_browser::{
    Browser, BrowserAction, BrowserConfig, LoadResult, PreparedScan, TransportMode,
};
use h2push_h2proto::sansio::{Endpoint, WireSink};
use h2push_h2proto::{ConnError, ConnLimits};
use h2push_netsim::SimTime;
use h2push_server::ReplayServer;
use h2push_strategies::Strategy;
use h2push_webmodel::{Page, ResourceId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- poll(2) FFI ---------------------------------------------------------
// std already links libc; declaring the one syscall wrapper we need avoids
// pulling in an event library. Layout per POSIX (and linux's poll.h).

#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watch `stream` for input, and for room while `out` holds bytes.
    fn of(stream: &TcpStream, out: &WireFifo) -> Self {
        let room = if out.is_empty() { 0 } else { POLLOUT };
        PollFd { fd: stream.as_raw_fd(), events: POLLIN | room, revents: 0 }
    }
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// Block until an fd is ready or `timeout` elapses. EINTR retries resume
/// with the *remaining* fraction of the timeout, and sub-millisecond
/// waits round up to 1 ms so a short timer never degenerates into a
/// `poll(0)` busy-spin. Every call made counts into `polls`.
fn poll_fds(fds: &mut [PollFd], timeout: Duration, polls: &mut u64) -> io::Result<usize> {
    let deadline = Instant::now() + timeout;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let mut ms = left.as_millis().min(i32::MAX as u128) as i32;
        if ms == 0 && !left.is_zero() {
            ms = 1;
        }
        *polls += 1;
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Read-buffer granularity for both halves of the runtime.
const READ_CHUNK: usize = 64 * 1024;
/// Poll tick when nothing else bounds the wait (shutdown-flag latency and
/// supervision-deadline granularity).
const TICK: Duration = Duration::from_millis(25);

/// Pieces of the queue handed to one `writev`: a 64 KiB poll is four
/// DATA frames, header and body each.
const FLUSH_PIECES: usize = 16;
/// Retired connections [`LiveServerStats::close_log`] remembers.
const CLOSE_LOG_CAP: usize = 1024;

/// Flush as much of `out` into `w` as it accepts right now, a batch of
/// pieces per vectored write (zero runs are written from the shared zero
/// page). Partial writes drop exactly the written prefix and keep the
/// remainder queued; `WouldBlock` leaves the queue intact; EINTR retries.
/// Returns `(alive, progressed)`: `alive == false` means the connection
/// is unusable (reset / broken pipe), `progressed` whether at least one
/// byte left the queue (the write-stall supervision signal). Every write
/// issued counts into `writes`.
fn flush_out(
    w: &mut impl Write,
    out: &mut WireFifo,
    sent: &mut u64,
    writes: &mut u64,
) -> (bool, bool) {
    let mut progressed = false;
    while !out.is_empty() {
        let mut iov = [IoSlice::new(&[]); FLUSH_PIECES];
        let mut pieces = 0;
        for (slot, piece) in iov.iter_mut().zip(out.peek(usize::MAX)) {
            *slot = IoSlice::new(piece);
            pieces += 1;
        }
        *writes += 1;
        match w.write_vectored(&iov[..pieces]) {
            Ok(0) => return (false, progressed),
            Ok(n) => {
                *sent += n as u64;
                out.consume(n);
                progressed = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return (false, progressed),
        }
    }
    (true, progressed)
}

/// How one wake-up's reading ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadEnd {
    /// The socket holds nothing more for now: `WouldBlock`.
    Drained,
    /// The peer closed: `Ok(0)`.
    Eof,
    /// Hard socket error (reset).
    Failed,
}

/// The read half of one socket's wake-up, from what poll reported for
/// it: read `r` into `buf`, a chunk per `on_bytes`, until it would block
/// or ends; EINTR retries. A short read does not end the wake-up: the
/// peer's next bytes are often already on their way, and finding them
/// with the next read is cheaper than finding them with another trip
/// through poll (measured: DESIGN.md §14); a peer's hang-up is therefore
/// read in the wake-up that reports it. A socket that is not readable is
/// not read, and fails if an error or hang-up is all it shows. Every read
/// issued counts into `reads`.
fn drain_in<R: Read>(
    revents: i16,
    r: &mut R,
    buf: &mut [u8],
    reads: &mut u64,
    mut on_bytes: impl FnMut(&[u8]),
) -> ReadEnd {
    if revents & POLLIN == 0 {
        return if revents & (POLLERR | POLLHUP) != 0 { ReadEnd::Failed } else { ReadEnd::Drained };
    }
    loop {
        *reads += 1;
        match r.read(buf) {
            Ok(0) => return ReadEnd::Eof,
            Ok(n) => on_bytes(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return ReadEnd::Drained,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return ReadEnd::Failed,
        }
    }
}

/// What a [`ReplayCtx`] keeps for the live runtime between ticks and
/// between loads, so that neither poll loop allocates per tick and a warm
/// load allocates nothing to hold its connections.
#[derive(Default)]
pub(crate) struct LiveScratch {
    /// Read buffer, [`READ_CHUNK`] long once either half has run.
    buf: Vec<u8>,
    /// The `pollfd` array, rebuilt in place every tick.
    fds: Vec<PollFd>,
    /// The load client's timers, (fire-at µs, token), soonest first.
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    /// The load client's connections, sorted by `(group, slot)`. Empty
    /// between loads: sockets close before `load_page` returns.
    conns: Vec<ClientConn>,
}

// ---- supervision policy --------------------------------------------------

/// Which supervision deadline a connection missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutKind {
    /// Accepted but never completed the 24-octet client preface.
    Preface,
    /// Preface arrived but no request did.
    HeaderReceive,
    /// A served connection with nothing queued and no traffic.
    Idle,
}

/// Why the live runtime retired a connection (the typed end of the
/// per-connection lifecycle; see the module-level state diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Peer closed cleanly (EOF) after a well-behaved exchange.
    Clean,
    /// The machine died of a fatal [`ConnError`]; its GOAWAY was flushed.
    ProtocolError,
    /// A supervision deadline expired.
    Timeout(TimeoutKind),
    /// Refused at the accept gate: `max_conns` connections were already
    /// being served (the newcomer is shed, deterministically).
    Shed,
    /// Output queued but the socket made no progress for
    /// [`WRITE_STALL_TIMEOUT`] — the slow-read / slowloris defense.
    WriteStall,
    /// Hard socket error (reset, broken pipe).
    IoError,
    /// Still open when the graceful-drain deadline expired.
    DrainKilled,
}

impl CloseReason {
    /// Stable label (stats JSON, CI output).
    pub fn label(self) -> &'static str {
        match self {
            CloseReason::Clean => "clean",
            CloseReason::ProtocolError => "protocol_error",
            CloseReason::Timeout(TimeoutKind::Preface) => "timeout_preface",
            CloseReason::Timeout(TimeoutKind::HeaderReceive) => "timeout_header",
            CloseReason::Timeout(TimeoutKind::Idle) => "timeout_idle",
            CloseReason::Shed => "shed",
            CloseReason::WriteStall => "write_stall",
            CloseReason::IoError => "io_error",
            CloseReason::DrainKilled => "drain_killed",
        }
    }
}

// The transport-level bounds the sans-IO machines cannot enforce
// themselves (they own no socket and no clock): generous enough that a
// well-behaved loopback load never trips one, tight enough that every
// abuse class is bounded.

/// Accept-to-preface deadline.
pub const PREFACE_TIMEOUT: Duration = Duration::from_secs(5);
/// Preface-to-first-request deadline.
pub const HEADER_TIMEOUT: Duration = Duration::from_secs(10);
/// No-traffic deadline once the first request was served and nothing is
/// left to send.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(60);
/// Queued output with no progress for this long closes the connection
/// ([`CloseReason::WriteStall`]).
pub const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(10);
/// Per-connection output-queue bound (bytes): the machine is polled for
/// more output only while the queue is below this, so one slow reader
/// costs at most this much buffered memory (plus at most one frame of
/// overshoot — frames are atomic on the wire).
pub const MAX_QUEUED_BYTES: usize = 1 << 20;
/// Grace period after `stop()` for in-flight connections to finish
/// before they are flushed once and killed.
pub const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// What a [`LiveServer`]'s caller may set of its supervision: the
/// protocol-level [`ConnLimits`] armed on every accepted machine and the
/// accept gate. The transport deadlines and the queue bound are the
/// constants above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveLimits {
    /// RFC 7540 resource limits armed on each connection's machine.
    pub conn: ConnLimits,
    /// Accept gate: connections served concurrently before newcomers are
    /// shed (accepted then immediately closed, so the client sees EOF
    /// instead of hanging in the backlog).
    pub max_conns: usize,
}

impl LiveLimits {
    /// Default protocol limits and a gate of 1024 connections.
    pub fn new() -> Self {
        LiveLimits { conn: ConnLimits::new(), max_conns: 1024 }
    }
}

impl Default for LiveLimits {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-close-reason counters (one bump per retired connection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloseCounts {
    /// Peer EOF after a well-behaved exchange.
    pub clean: u64,
    /// Fatal typed [`ConnError`]s (GOAWAY sent).
    pub protocol_error: u64,
    /// All three supervision deadlines combined (the close log keeps the
    /// [`TimeoutKind`]s distinct).
    pub timeout: u64,
    /// Refused at the accept gate.
    pub shed: u64,
    /// Slow readers closed for write stall.
    pub write_stall: u64,
    /// Hard socket errors.
    pub io_error: u64,
    /// Killed at the graceful-drain deadline.
    pub drain_killed: u64,
}

impl CloseCounts {
    fn bump(&mut self, reason: CloseReason) {
        match reason {
            CloseReason::Clean => self.clean += 1,
            CloseReason::ProtocolError => self.protocol_error += 1,
            CloseReason::Timeout(_) => self.timeout += 1,
            CloseReason::Shed => self.shed += 1,
            CloseReason::WriteStall => self.write_stall += 1,
            CloseReason::IoError => self.io_error += 1,
            CloseReason::DrainKilled => self.drain_killed += 1,
        }
    }

    /// Total retired connections.
    pub fn total(&self) -> u64 {
        self.clean
            + self.protocol_error
            + self.timeout
            + self.shed
            + self.write_stall
            + self.io_error
            + self.drain_killed
    }
}

/// One retired connection, in retirement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnClose {
    /// Why the runtime retired it.
    pub reason: CloseReason,
    /// The machine's typed fatal error, if it died of one — the same
    /// [`ConnError`] the in-memory sans-IO harness reports for the same
    /// byte stream.
    pub error: Option<ConnError>,
}

/// Counters a [`LiveServer`] run accumulates (totals over every
/// connection, including ones already closed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LiveServerStats {
    /// Connections admitted past the accept gate.
    pub accepted: u64,
    /// Connections refused at the accept gate (also counted in
    /// `closed.shed`).
    pub shed: u64,
    /// Wire bytes received from clients.
    pub bytes_in: u64,
    /// Wire bytes written to clients.
    pub bytes_out: u64,
    /// Requests answered (server-side observations).
    pub requests: u64,
    /// Response-body bytes queued on push streams.
    pub pushed_bytes: u64,
    /// Protocol violations observed (0 with a well-behaved client).
    pub protocol_errors: u64,
    /// Peak per-connection output-queue depth (bytes) seen across the
    /// run — never exceeds [`MAX_QUEUED_BYTES`] by more than one wire
    /// frame.
    pub max_queued_bytes: usize,
    /// Per-close-reason counters.
    pub closed: CloseCounts,
    /// Connection machines constructed: accepts that found none parked.
    pub machines_built: u64,
    /// Accepts served by a parked machine (a cleanly closed connection's
    /// [`ReplayServer`] and output queue, reset).
    pub machines_reused: u64,
    /// `poll(2)` calls made.
    pub polls: u64,
    /// `read(2)` calls made on connection sockets.
    pub reads: u64,
    /// `writev(2)` calls made on connection sockets.
    pub writes: u64,
    /// The most recent retired connections (up to 1024; older ones leave
    /// only their `closed` count), oldest first, each with its reason and
    /// typed error.
    pub close_log: VecDeque<ConnClose>,
}

impl LiveServerStats {
    /// Record one retired (or refused) connection.
    fn log_close(&mut self, reason: CloseReason, error: Option<ConnError>) {
        self.closed.bump(reason);
        if self.close_log.len() == CLOSE_LOG_CAP {
            self.close_log.pop_front();
        }
        self.close_log.push_back(ConnClose { reason, error });
    }
}

/// Remote control for a running [`LiveServer`]: signal shutdown from
/// another thread (the run loop notices within one poll tick) and watch
/// accept progress.
#[derive(Debug, Clone)]
pub struct LiveServerHandle {
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
}

impl LiveServerHandle {
    /// Ask the server loop to drain: the listener closes immediately,
    /// in-flight connections are served to completion (or killed at the
    /// drain deadline), then `LiveServer::run` returns its stats.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Connections admitted so far (live view of the run loop).
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }
}

/// One accepted connection: its stream (the socket in [`LiveServer::run`],
/// a scripted peer in the tests), its sans-IO replay server, and the
/// supervision state the machine cannot own (it has no socket and no
/// clock).
struct ServerConn<S> {
    stream: S,
    machine: Box<ReplayServer>,
    /// Wire bytes the machine produced and the stream has not taken.
    out: WireFifo,
    /// µs timestamps for the lifecycle deadlines.
    accepted_at: u64,
    preface_at: Option<u64>,
    first_request_at: Option<u64>,
    /// Last read or write progress (idle and write-stall supervision).
    last_progress_at: u64,
    close: Option<CloseReason>,
}

impl<S: Read + Write> ServerConn<S> {
    fn new(stream: S, machine: Box<ReplayServer>, out: WireFifo, now: u64) -> Self {
        ServerConn {
            stream,
            machine,
            out,
            accepted_at: now,
            preface_at: None,
            first_request_at: None,
            last_progress_at: now,
            close: None,
        }
    }

    /// One wake-up at `now` µs, given what poll reported for the stream:
    /// feed what it reads to the machine, stamp the lifecycle transitions,
    /// pull machine output while the queue is under [`MAX_QUEUED_BYTES`],
    /// flush, and set `close` when the peer left, the machine died or a
    /// deadline passed. Counts into `stats`; reads through `buf`.
    fn serve(&mut self, revents: i16, now: u64, buf: &mut [u8], stats: &mut LiveServerStats) {
        let ServerConn { stream, machine, last_progress_at, .. } = self;
        let end = drain_in(revents, stream, buf, &mut stats.reads, |bytes| {
            stats.bytes_in += bytes.len() as u64;
            *last_progress_at = now;
            machine.feed_bytes(bytes, now);
        });
        match end {
            ReadEnd::Drained => {}
            ReadEnd::Eof => self.close = Some(CloseReason::Clean),
            ReadEnd::Failed => self.close = Some(CloseReason::IoError),
        }
        if self.preface_at.is_none() && self.machine.preface_received() {
            self.preface_at = Some(now);
        }
        if self.first_request_at.is_none() && !self.machine.observations().is_empty() {
            self.first_request_at = Some(now);
        }

        // Pull transmit bytes from the machine only while the queue has
        // room — the per-connection memory bound.
        while self.close.is_none() && self.machine.wants_output() {
            // Saturating: frames are atomic, so a poll can land a few
            // bytes past the cap — the next iteration must see zero room,
            // not a wrapped-around "infinite" budget.
            let room = MAX_QUEUED_BYTES.saturating_sub(self.out.len());
            if room == 0 {
                break;
            }
            if self.machine.poll_output_into(room.min(READ_CHUNK), now, &mut self.out) == 0 {
                break; // flow-control blocked on the H2 level
            }
            stats.max_queued_bytes = stats.max_queued_bytes.max(self.out.len());
        }
        if self.close.is_none() && !self.out.is_empty() {
            let (alive, progressed) =
                flush_out(&mut self.stream, &mut self.out, &mut stats.bytes_out, &mut stats.writes);
            if progressed {
                self.last_progress_at = now;
            }
            if !alive {
                self.close = Some(CloseReason::IoError);
            }
        }
        // A dead machine whose GOAWAY is fully flushed is done.
        if self.close.is_none()
            && self.machine.is_dead()
            && self.out.is_empty()
            && !self.machine.wants_output()
        {
            self.close = Some(CloseReason::ProtocolError);
        }
        if self.close.is_none() {
            self.close = self.expired(now);
        }
    }

    /// First expired supervision deadline at `now`, if any.
    fn expired(&self, now: u64) -> Option<CloseReason> {
        let over = |since: u64, d: Duration| now.saturating_sub(since) >= d.as_micros() as u64;
        if !self.out.is_empty() && over(self.last_progress_at, WRITE_STALL_TIMEOUT) {
            return Some(CloseReason::WriteStall);
        }
        match (self.preface_at, self.first_request_at) {
            (None, _) if over(self.accepted_at, PREFACE_TIMEOUT) => {
                Some(CloseReason::Timeout(TimeoutKind::Preface))
            }
            (Some(p), None) if over(p, HEADER_TIMEOUT) => {
                Some(CloseReason::Timeout(TimeoutKind::HeaderReceive))
            }
            (Some(_), Some(_))
                if self.out.is_empty()
                    && !self.machine.wants_output()
                    && over(self.last_progress_at, IDLE_TIMEOUT) =>
            {
                Some(CloseReason::Timeout(TimeoutKind::Idle))
            }
            _ => None,
        }
    }
}

/// A live push server for one page: every accepted TCP connection gets a
/// full [`ReplayServer`] answering any of the page's origins by
/// host+path, with the push strategy armed (it fires only on the
/// connection that requests the base document — same rule as the sim)
/// and the supervisor ([`LiveLimits`] and the deadline constants)
/// watching the transport.
pub struct LiveServer {
    listener: Option<TcpListener>,
    addr: SocketAddr,
    inputs: ReplayInputs,
    strategy: Arc<Strategy>,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
    deadline: Option<Duration>,
    limits: LiveLimits,
}

impl LiveServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and prepare to serve `page`
    /// under `strategy`. The page's [`ReplayInputs`] — record database and
    /// push URLs — are built once here and shared by every connection.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        page: Arc<Page>,
        strategy: impl Into<Arc<Strategy>>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(LiveServer {
            listener: Some(listener),
            addr,
            inputs: ReplayInputs::from(page),
            strategy: strategy.into(),
            stop: Arc::new(AtomicBool::new(false)),
            accepted: Arc::new(AtomicU64::new(0)),
            deadline: None,
            limits: LiveLimits::new(),
        })
    }

    /// The bound address (port resolved when binding `:0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.addr)
    }

    /// A handle for stopping the run loop from another thread.
    pub fn handle(&self) -> LiveServerHandle {
        LiveServerHandle { stop: Arc::clone(&self.stop), accepted: Arc::clone(&self.accepted) }
    }

    /// Begin draining after `d`, even without a [`LiveServerHandle::stop`].
    pub fn set_deadline(&mut self, d: Duration) {
        self.deadline = Some(d);
    }

    /// Replace the supervision policy (defaults are [`LiveLimits::new`]).
    pub fn set_limits(&mut self, limits: LiveLimits) {
        self.limits = limits;
    }

    /// Serve until stopped (handle or deadline), then drain gracefully.
    /// Consumes the server; returns the accumulated stats.
    ///
    /// The loop's machinery lives in a [`ReplayCtx`] of its own, under the
    /// rule the simulator's contexts follow: a connection that closed
    /// [`CloseReason::Clean`] parks its machine and output queue there, and
    /// `accept` reissues them through `ReplayServer::reset` — the reset a
    /// simulated run's connections go through. Any other close drops the
    /// machine, so machines alive plus parked never exceed the peak number
    /// served at once (at most `max_conns`).
    pub fn run(mut self) -> io::Result<LiveServerStats> {
        let epoch = Instant::now();
        let lim = self.limits;
        let main_group = self.inputs.page.server_group_of(ResourceId(0));
        let mut stats = LiveServerStats::default();
        let mut conns: Vec<ServerConn<TcpStream>> = Vec::new();
        let mut ctx = ReplayCtx::new();
        ctx.live.buf.resize(READ_CHUNK, 0);
        let mut drain_started: Option<Duration> = None;
        loop {
            let elapsed = epoch.elapsed();
            if drain_started.is_none()
                && (self.stop.load(Ordering::Relaxed)
                    || self.deadline.is_some_and(|d| elapsed >= d))
            {
                // Graceful drain: stop accepting first (close the
                // listener socket), then keep serving what's in flight.
                drain_started = Some(elapsed);
                self.listener = None;
            }
            if let Some(started) = drain_started {
                if conns.is_empty() {
                    break;
                }
                if elapsed - started >= DRAIN_DEADLINE {
                    // Deadline: one last flush each, then kill the rest.
                    for c in conns.iter_mut() {
                        let _ = flush_out(
                            &mut c.stream,
                            &mut c.out,
                            &mut stats.bytes_out,
                            &mut stats.writes,
                        );
                        c.close.get_or_insert(CloseReason::DrainKilled);
                    }
                    harvest(&mut conns, &mut stats, &mut ctx);
                    break;
                }
            }

            // The listener goes first: poll scans in order, so a wake-up
            // that reports a client's next connection also reports the
            // hang-up of its last (and the read loop runs into it).
            let LiveScratch { buf, fds, .. } = &mut ctx.live;
            fds.clear();
            if let Some(l) = &self.listener {
                fds.push(PollFd { fd: l.as_raw_fd(), events: POLLIN, revents: 0 });
            }
            let base = fds.len();
            fds.extend(conns.iter().map(|c| PollFd::of(&c.stream, &c.out)));
            poll_fds(fds, TICK, &mut stats.polls)?;

            // Existing connections: one step each.
            for (c, fd) in conns.iter_mut().zip(&fds[base..]) {
                c.serve(fd.revents, epoch.elapsed().as_micros() as u64, buf, &mut stats);
            }
            let accepting = base == 1 && fds[0].revents & POLLIN != 0;
            harvest(&mut conns, &mut stats, &mut ctx);

            // New connections, after the harvest: a client that hung up
            // and came straight back is issued the machine it just left.
            // They are first served on the next tick.
            let Some(listener) = self.listener.as_ref().filter(|_| accepting) else { continue };
            loop {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let now = epoch.elapsed().as_micros() as u64;
                        if conns.len() >= lim.max_conns {
                            // Deterministic shed policy: the newcomer
                            // is refused. Accepting then dropping (vs
                            // leaving it in the backlog) hands the
                            // client an immediate EOF and keeps the
                            // listener from staying readable forever.
                            stats.shed += 1;
                            stats.log_close(CloseReason::Shed, None);
                            drop(stream);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            stats.log_close(CloseReason::IoError, None);
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        stats.accepted += 1;
                        self.accepted.fetch_add(1, Ordering::Relaxed);
                        let page = Arc::clone(&self.inputs.page);
                        let db = Arc::clone(&self.inputs.db);
                        let mut machine = match ctx.spare_h2.pop() {
                            Some(mut parked) => {
                                stats.machines_reused += 1;
                                parked.reset(page, db, main_group, &self.strategy);
                                parked
                            }
                            None => {
                                stats.machines_built += 1;
                                Box::new(ReplayServer::new(page, db, main_group, &self.strategy))
                            }
                        };
                        machine.set_limits(lim.conn);
                        machine.set_prepared(Arc::clone(&self.inputs.server));
                        let (_, out) = ctx.spare_fifos.pop().unwrap_or_default();
                        conns.push(ServerConn::new(stream, machine, out, now));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(stats)
    }
}

/// Retire every closed connection: fold its machine's counters into the
/// stats, record the typed close exactly once, and park the machine and
/// queue of a [`CloseReason::Clean`] one for the next accept. A machine
/// that died or was abandoned by the transport goes: what is parked is
/// what a well-behaved exchange grew.
fn harvest(
    conns: &mut Vec<ServerConn<TcpStream>>,
    stats: &mut LiveServerStats,
    ctx: &mut ReplayCtx,
) {
    for mut c in conns.extract_if(.., |c| c.close.is_some()) {
        let mut reason = c.close.expect("extracted because closed");
        let error = c.machine.fatal_error();
        // A machine that died of a protocol violation reports it as such
        // even when the transport saw the peer hang up first.
        if error.is_some() && reason == CloseReason::Clean {
            reason = CloseReason::ProtocolError;
        }
        stats.requests += c.machine.observations().len() as u64;
        stats.pushed_bytes += c.machine.pushed_bytes();
        stats.protocol_errors += u64::from(c.machine.protocol_errors());
        stats.log_close(reason, error);
        if reason == CloseReason::Clean {
            c.out.clear();
            ctx.spare_h2.push(c.machine);
            ctx.spare_fifos.push((WireFifo::default(), c.out));
        }
    }
}

// ---- load client ---------------------------------------------------------

/// What a live page load produced.
#[derive(Debug, Clone, Default)]
pub struct LiveLoadReport {
    /// The browser's measurements — same type, same semantics as a
    /// simulated replay's `ReplayOutcome::load`.
    pub load: LoadResult,
    /// Wire bytes received across all connections.
    pub bytes_in: u64,
    /// Wire bytes sent across all connections.
    pub bytes_out: u64,
    /// TCP connections opened.
    pub conns: u32,
    /// Connections the server closed before a single response byte
    /// arrived — the accept-gate shed signature.
    pub shed_conns: u32,
    /// Connections the server closed (EOF, reset) after traffic but
    /// before the load finished — the timeout / abuse-defense signature.
    pub closed_conns: u32,
    /// `poll(2)` calls made.
    pub polls: u64,
    /// `read(2)` calls made.
    pub reads: u64,
    /// `writev(2)` calls made.
    pub writes: u64,
}

/// Queue a batch of browser actions and return the emptied buffer to the
/// engine, as the simulator's `intake` does (`Browser::recycle_actions`).
fn queue_actions(
    browser: &mut Browser,
    queue: &mut VecDeque<BrowserAction>,
    mut actions: Vec<BrowserAction>,
) {
    queue.extend(actions.drain(..));
    browser.recycle_actions(actions);
}

/// One connection of a load, at the browser's `(group, slot)`.
struct ClientConn {
    key: (usize, usize),
    stream: TcpStream,
    out: WireFifo,
    bytes_in: u64,
    dead: bool,
}

/// Load `page` from the live server at `addr` with a real [`Browser`]
/// over real TCP, returning once `onload` fires, `timeout` elapses, or
/// nothing is left that could move the load — every connection closed by
/// the server, no action queued, no timer armed (the report's
/// `load.partial` / `finished()` tell which).
///
/// Every server group of the page maps to the same address — the
/// loopback stand-in for the paper's per-origin server IPs; the browser
/// still opens its per-group connections and addresses each origin by
/// `:authority`, which is how the server routes.
///
/// Runs in the calling thread's [`ReplayCtx`], the one simulated replays
/// recycle; see [`load_page_in`].
pub fn load_page(
    addr: SocketAddr,
    page: Arc<Page>,
    cfg: BrowserConfig,
    timeout: Duration,
) -> io::Result<LiveLoadReport> {
    with_thread_ctx(|ctx| load_page_in(ctx, addr, page, cfg, timeout))
}

/// [`load_page`] inside `ctx`: the browser engine (and the client
/// connection machines it parks), the action queue, the out-queues, the
/// timer heap, the connection table, the read buffer and the `pollfd`
/// array are the context's, reset in place, so the first load through a
/// context is the cold one and every later load allocates little more
/// than its result. The page scan is the browser's own when `page` is the
/// `Arc` its last load or replay held, and built afresh otherwise.
/// Sockets still close before this returns, whichever way it returns.
pub fn load_page_in(
    ctx: &mut ReplayCtx,
    addr: SocketAddr,
    page: Arc<Page>,
    mut cfg: BrowserConfig,
    timeout: Duration,
) -> io::Result<LiveLoadReport> {
    cfg.transport = TransportMode::H2;
    let epoch = Instant::now();
    let now = || SimTime(epoch.elapsed().as_micros() as u64);
    let ReplayCtx { browser, queue, spare_fifos, live, .. } = ctx;
    let LiveScratch { buf, fds, timers, conns } = live;
    let scan = browser
        .as_ref()
        .and_then(|b| b.scan_for(&page))
        .unwrap_or_else(|| Arc::new(PreparedScan::build(&page)));
    let browser = match browser {
        Some(b) => {
            b.reset(page, cfg, scan);
            b
        }
        None => browser.insert(Browser::with_scan(page, cfg, scan)),
    };
    // A context whose last load panicked mid-flight is healed here.
    queue.clear();
    timers.clear();
    conns.clear();
    buf.resize(READ_CHUNK, 0);
    let mut report = LiveLoadReport::default();

    // Classify a peer-initiated close: before any response byte it is the
    // accept-gate shed signature, after traffic a mid-load close.
    let classify = |c: &mut ClientConn, report: &mut LiveLoadReport| {
        if !c.dead {
            c.dead = true;
            if c.bytes_in == 0 {
                report.shed_conns += 1;
            } else {
                report.closed_conns += 1;
            }
        }
    };
    let flush = |c: &mut ClientConn, report: &mut LiveLoadReport| {
        let (bytes, writes) = (&mut report.bytes_out, &mut report.writes);
        if !flush_out(&mut c.stream, &mut c.out, bytes, writes).0 {
            classify(c, report);
        }
    };

    let ran = (|| -> io::Result<()> {
        let actions = browser.start(SimTime(0));
        queue_actions(browser, queue, actions);
        while !browser.done() && epoch.elapsed() < timeout {
            // Realize actions; opening a connection completes synchronously
            // on loopback, so on_connected cascades more actions in place.
            while let Some(a) = queue.pop_front() {
                match a {
                    BrowserAction::OpenConnection { group, slot } => {
                        let stream = TcpStream::connect(addr)?;
                        let _ = stream.set_nodelay(true);
                        stream.set_nonblocking(true)?;
                        let key = (group, slot);
                        let (out, _) = spare_fifos.pop().unwrap_or_default();
                        let at = conns.partition_point(|c| c.key < key);
                        conns.insert(at, ClientConn { key, stream, out, bytes_in: 0, dead: false });
                        report.conns += 1;
                        let actions = browser.on_connected(group, slot, now());
                        queue_actions(browser, queue, actions);
                    }
                    BrowserAction::SendBytes { group, slot, bytes } => {
                        if let Ok(i) = conns.binary_search_by_key(&(group, slot), |c| c.key) {
                            if !conns[i].dead {
                                conns[i].out.put_slice(&bytes);
                                flush(&mut conns[i], &mut report);
                            }
                        }
                    }
                    BrowserAction::SetTimer { at, token } => {
                        timers.push(Reverse((at.as_micros(), token)));
                    }
                }
            }
            if browser.done() {
                break;
            }

            // Fire due timers.
            let due = now();
            let mut fired = false;
            while let Some(&Reverse((at, token))) = timers.peek() {
                if at > due.as_micros() {
                    break;
                }
                timers.pop();
                let actions = browser.on_timer(token, due);
                queue_actions(browser, queue, actions);
                fired = true;
            }
            if fired {
                continue; // realize the new actions before blocking
            }

            // Nothing queued, no timer armed and no connection left to
            // hear from: waiting out the timeout would change nothing.
            if timers.is_empty() && conns.iter().all(|c| c.dead) {
                break;
            }

            // Wait for readiness, the next timer, or the tick. A dead
            // connection keeps its place, with a descriptor poll ignores.
            let wait = match timers.peek() {
                Some(&Reverse((at, _))) => {
                    Duration::from_micros(at.saturating_sub(due.as_micros())).min(TICK)
                }
                None => TICK,
            };
            fds.clear();
            fds.extend(conns.iter().map(|c| PollFd {
                fd: if c.dead { -1 } else { c.stream.as_raw_fd() },
                ..PollFd::of(&c.stream, &c.out)
            }));
            poll_fds(fds, wait, &mut report.polls)?;

            // Actions wait in the queue until the top of the loop, so the
            // table is still the one polled.
            for (c, fd) in conns.iter_mut().zip(fds.iter()) {
                let ClientConn { key, stream, bytes_in, .. } = c;
                let end = drain_in(fd.revents, stream, buf, &mut report.reads, |bytes| {
                    report.bytes_in += bytes.len() as u64;
                    *bytes_in += bytes.len() as u64;
                    let actions = browser.on_bytes(key.0, key.1, bytes, now());
                    queue_actions(browser, queue, actions);
                });
                if end != ReadEnd::Drained {
                    classify(c, &mut report);
                }
                if !c.dead && fd.revents & POLLOUT != 0 {
                    flush(c, &mut report);
                }
            }
        }
        Ok(())
    })();

    // A connection the server closed after the load finished is not a
    // failure; the counters above only accumulate while loading.
    report.load = browser.result();
    // Close every socket and park this load's out-queues, and nothing
    // older: what the context keeps is bounded by its last load.
    spare_fifos.clear();
    for mut c in conns.drain(..) {
        c.out.clear();
        spare_fifos.push((c.out, WireFifo::default()));
    }
    ran.map(|()| report)
}

/// [`flush_out`] against a writer that does what a non-blocking socket
/// may: short writes, `WouldBlock`, `EINTR`, a zero-length write, a hard
/// error — at every piece boundary of the queue and in the middle of
/// every piece.
#[cfg(test)]
mod flush_tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(super) enum Step {
        /// Take this many bytes, over as many calls as offer them.
        Accept(usize),
        Fail(io::ErrorKind),
        /// `Ok(0)`.
        Zero,
    }

    /// Plays its script one step per write call, then blocks for good.
    pub(super) struct Scripted {
        script: VecDeque<Step>,
        accepted: Vec<u8>,
        /// Write calls received.
        calls: u64,
    }

    impl Scripted {
        pub(super) fn new(script: &[Step]) -> Self {
            Scripted { script: script.iter().copied().collect(), accepted: Vec::new(), calls: 0 }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            match self.script.pop_front().unwrap_or(Step::Fail(io::ErrorKind::WouldBlock)) {
                Step::Accept(mut room) => {
                    let before = self.accepted.len();
                    for buf in bufs {
                        let take = buf.len().min(room);
                        self.accepted.extend_from_slice(&buf[..take]);
                        room -= take;
                    }
                    if room > 0 {
                        self.script.push_front(Step::Accept(room));
                    }
                    Ok(self.accepted.len() - before)
                }
                Step::Fail(kind) => Err(kind.into()),
                Step::Zero => Ok(0),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A queue of more pieces than one `writev` takes — literals, short
    /// zero runs and one longer than the zero page — with its octets and
    /// the offsets its pieces end at.
    fn queue() -> (WireFifo, Vec<u8>, Vec<usize>) {
        let mut fifo = WireFifo::default();
        for i in 0..FLUSH_PIECES as u8 {
            fifo.put_slice(&[i + 1; 9]);
            fifo.put_zeros(if i == 3 { 20_000 } else { 40 + i as usize });
        }
        fifo.put_slice(b"tail");
        let mut octets = Vec::new();
        let mut edges = Vec::new();
        for piece in fifo.peek(usize::MAX) {
            octets.extend_from_slice(piece);
            edges.push(octets.len());
        }
        assert!(edges.len() > 2 * FLUSH_PIECES);
        (fifo, octets, edges)
    }

    /// Run `script` against a fresh queue; returns what the writer got,
    /// what is left queued, the byte counter and `flush_out`'s verdict.
    fn run(script: &[Step]) -> (Vec<u8>, usize, u64, (bool, bool)) {
        let (mut fifo, _, _) = queue();
        let mut w = Scripted::new(script);
        let (mut sent, mut writes) = (0, 0);
        let verdict = flush_out(&mut w, &mut fifo, &mut sent, &mut writes);
        assert_eq!(writes, w.calls, "every write issued is counted");
        (w.accepted, fifo.len(), sent, verdict)
    }

    #[test]
    fn every_outcome_at_every_piece_edge_and_inside_every_piece() {
        let (_, octets, edges) = queue();
        let total = octets.len();
        let mut cuts = vec![0];
        let mut start = 0;
        for &edge in &edges {
            cuts.extend([(start + edge) / 2, edge - 1, edge]);
            start = edge;
        }
        for k in cuts {
            // The first write takes `k` bytes (no first write when k is 0).
            let first: &[Step] = if k == 0 { &[] } else { &[Step::Accept(k)] };
            let then = |rest: &[Step]| [first, rest].concat();
            let drained = k == total;

            // WouldBlock: the rest stays queued, the connection lives.
            let (got, left, sent, verdict) = run(&then(&[Step::Fail(io::ErrorKind::WouldBlock)]));
            assert!(got == octets[..k], "cut {k}");
            assert_eq!((left, sent), (total - k, k as u64), "cut {k}");
            assert_eq!(verdict, (true, k > 0), "cut {k}");

            // EINTR: retried at once, from exactly where the queue stands.
            let (got, left, sent, verdict) =
                run(&then(&[Step::Fail(io::ErrorKind::Interrupted), Step::Accept(7)]));
            let upto = (k + 7).min(total);
            assert!(got == octets[..upto], "cut {k}");
            assert_eq!((left, sent), (total - upto, upto as u64), "cut {k}");
            assert_eq!(verdict, (true, upto > 0), "cut {k}");

            // A zero-length write or a hard error: dead, unless nothing
            // was left to write.
            for fatal in [Step::Zero, Step::Fail(io::ErrorKind::BrokenPipe)] {
                let (got, left, sent, verdict) = run(&then(&[fatal]));
                assert!(got == octets[..k], "cut {k} {fatal:?}");
                assert_eq!((left, sent), (total - k, k as u64), "cut {k} {fatal:?}");
                assert_eq!(verdict, (drained, k > 0), "cut {k} {fatal:?}");
            }
        }
    }

    #[test]
    fn short_writes_of_every_size_concatenate_to_the_queue() {
        let (_, octets, _) = queue();
        for size in [1, 2, 8, 9, 10, 57, 4_096, 16_384, 16_385, usize::MAX] {
            let (mut fifo, _, _) = queue();
            let mut w = Scripted::new(&[]);
            let (mut sent, mut writes) = (0, 0);
            while !fifo.is_empty() {
                w.script.extend([Step::Accept(size), Step::Accept(size)]);
                let before = fifo.len();
                assert_eq!(flush_out(&mut w, &mut fifo, &mut sent, &mut writes), (true, true));
                assert_eq!(before - fifo.len(), w.accepted.len() - (octets.len() - before));
            }
            assert!(w.accepted == octets, "write size {size}");
            assert_eq!(sent, octets.len() as u64);
            assert_eq!(writes, w.calls);
        }
    }
}

/// [`drain_in`] against a reader that does what a non-blocking socket
/// may: full reads, short reads, `WouldBlock`, `EINTR`, end of stream, a
/// hard error — each after every mix of the others.
#[cfg(test)]
mod drain_tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Step {
        /// Hand over this many octets (at most the buffer); 0 is `Ok(0)`.
        Give(usize),
        Fail(io::ErrorKind),
    }

    /// Plays its script one step per read call and counts the calls; a
    /// read past the script's end is a read `drain_in` had no reason to
    /// issue.
    struct Scripted {
        script: VecDeque<Step>,
        calls: u64,
        /// Octets handed over so far; octet `i` of the stream is `i as u8`.
        given: usize,
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            match self.script.pop_front().expect("a read past the end of the script") {
                Step::Give(n) => {
                    assert!(n <= buf.len());
                    for slot in &mut buf[..n] {
                        *slot = self.given as u8;
                        self.given += 1;
                    }
                    Ok(n)
                }
                Step::Fail(kind) => Err(kind.into()),
            }
        }
    }

    const BUF: usize = 8;

    /// Run `script` on a socket poll reported `revents` for; returns how
    /// it ended, the octets delivered, and the script left unread.
    fn run(revents: i16, script: &[Step]) -> (ReadEnd, Vec<u8>, usize) {
        let mut r = Scripted { script: script.iter().copied().collect(), calls: 0, given: 0 };
        let (mut reads, mut got) = (0, Vec::new());
        let end = drain_in(revents, &mut r, &mut [0; BUF], &mut reads, |bytes| {
            got.extend_from_slice(bytes)
        });
        assert_eq!(reads, r.calls, "every read issued is counted");
        (end, got, r.script.len())
    }

    #[test]
    fn every_ending_after_every_mix_of_full_short_and_interrupted_reads() {
        let eintr = Step::Fail(io::ErrorKind::Interrupted);
        let mixes: [&[Step]; 6] = [
            &[],
            &[Step::Give(BUF)],
            &[Step::Give(3)],
            &[eintr, Step::Give(BUF), eintr, Step::Give(1), Step::Give(BUF)],
            &[Step::Give(BUF - 1), eintr, eintr, Step::Give(BUF)],
            &[Step::Give(BUF), Step::Give(BUF), Step::Give(BUF), Step::Give(2), eintr],
        ];
        for before in mixes {
            let given: usize =
                before.iter().map(|s| if let Step::Give(n) = s { *n } else { 0 }).sum();
            let octets: Vec<u8> = (0..given).map(|i| i as u8).collect();
            // A short read ends nothing: the loop runs on to one of these,
            // and issues no read after it (the tail stays unread).
            for (last, ends) in [
                (Step::Fail(io::ErrorKind::WouldBlock), ReadEnd::Drained),
                (Step::Give(0), ReadEnd::Eof),
                (Step::Fail(io::ErrorKind::ConnectionReset), ReadEnd::Failed),
            ] {
                let script = [before, &[last, Step::Give(BUF)]].concat();
                let (end, got, unread) = run(POLLIN | POLLOUT, &script);
                assert_eq!((end, unread), (ends, 1), "{before:?} then {last:?}");
                assert_eq!(got, octets, "{before:?} then {last:?}");
            }
        }
    }

    #[test]
    fn a_socket_that_is_not_readable_is_not_read() {
        assert_eq!(run(0, &[]), (ReadEnd::Drained, vec![], 0));
        assert_eq!(run(POLLOUT, &[]), (ReadEnd::Drained, vec![], 0));
        assert_eq!(run(POLLERR, &[]), (ReadEnd::Failed, vec![], 0));
        assert_eq!(run(POLLHUP | POLLOUT, &[]), (ReadEnd::Failed, vec![], 0));
        // Readable and hung up: what was sent before the hang-up is read.
        let (end, got, _) = run(POLLIN | POLLHUP, &[Step::Give(2), Step::Give(0)]);
        assert_eq!((end, got), (ReadEnd::Eof, vec![0, 1]));
    }
}

/// [`ServerConn::serve`] on an injected clock: a real [`ReplayServer`]
/// behind a scripted peer, every supervision deadline driven to the
/// microsecond it fires at and the one before.
#[cfg(test)]
mod serve_tests {
    use super::flush_tests::{Scripted, Step};
    use super::*;
    use h2push_h2proto::{Connection, DefaultScheduler, Frame, PrioritySpec, Settings};
    use h2push_hpack::Header;
    use h2push_webmodel::{PageBuilder, RecordDb};

    /// The client side of one connection as the step sees it: reads take
    /// what the test put in `inbox`, then would block; writes go to
    /// `flush_tests`' scripted writer.
    struct Peer {
        inbox: VecDeque<u8>,
        writer: Scripted,
    }

    impl Read for Peer {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.inbox.is_empty() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            self.inbox.read(buf)
        }
    }

    impl Write for Peer {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writer.write(buf)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writer.write_vectored(bufs)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const HOST: &str = "serve.test";
    /// When the connection was accepted.
    const T0: u64 = 1_000;

    fn us(d: Duration) -> u64 {
        d.as_micros() as u64
    }

    /// A connection accepted at [`T0`] to a no-push server for a page
    /// whose document is `html` bytes, its peer writing per `writes`.
    fn accept(html: usize, writes: &[Step]) -> ServerConn<Peer> {
        let mut b = PageBuilder::new("serve", HOST, html, 2_000);
        b.text_paint(1_000, 1.0);
        let page = Arc::new(b.build());
        let db = Arc::new(RecordDb::record(&page));
        let machine = Box::new(ReplayServer::new(page, db, 0, &Arc::new(Strategy::NoPush)));
        let peer = Peer { inbox: VecDeque::new(), writer: Scripted::new(writes) };
        ServerConn::new(peer, machine, WireFifo::default(), T0)
    }

    /// Everything `client` has to send.
    fn wire(client: &mut Connection) -> Vec<u8> {
        let mut sched = DefaultScheduler::new();
        let mut wire = Vec::new();
        loop {
            let out = client.produce(usize::MAX, &mut sched);
            if out.is_empty() {
                return wire;
            }
            wire.extend_from_slice(&out);
        }
    }

    fn request(client: &mut Connection) -> Vec<u8> {
        let headers = [
            Header::new(":method", "GET"),
            Header::new(":scheme", "https"),
            Header::new(":authority", HOST),
            Header::new(":path", "/"),
        ];
        client.request(&headers, Some(PrioritySpec::default()));
        wire(client)
    }

    /// One wake-up at `now`: readable with `input` if there is any.
    fn serve(c: &mut ServerConn<Peer>, input: &[u8], now: u64, stats: &mut LiveServerStats) {
        c.stream.inbox.extend(input);
        let revents = if input.is_empty() { POLLOUT } else { POLLIN | POLLOUT };
        c.serve(revents, now, &mut [0; 4096], stats);
    }

    /// A connection that was sent a whole request at `at` and answered it
    /// in full (the peer takes everything).
    fn served(at: u64, stats: &mut LiveServerStats) -> (ServerConn<Peer>, Connection) {
        let mut c = accept(20_000, &[Step::Accept(usize::MAX)]);
        let mut client = Connection::client(Settings::default());
        serve(&mut c, &request(&mut client), at, stats);
        assert_eq!((c.preface_at, c.first_request_at), (Some(at), Some(at)));
        assert!(c.out.is_empty() && !c.machine.wants_output(), "the answer went out whole");
        (c, client)
    }

    #[test]
    fn each_lifecycle_deadline_fires_at_its_constant_and_not_a_microsecond_before() {
        let stats = &mut LiveServerStats::default();

        // Silent peer: the preface deadline runs from the accept.
        let mut c = accept(20_000, &[]);
        serve(&mut c, &[], T0 + us(PREFACE_TIMEOUT) - 1, stats);
        assert_eq!(c.close, None);
        serve(&mut c, &[], T0 + us(PREFACE_TIMEOUT), stats);
        assert_eq!(c.close, Some(CloseReason::Timeout(TimeoutKind::Preface)));

        // Preface but no request: the header deadline runs from the
        // preface, and the preface deadline no longer applies.
        let at = T0 + 7;
        let mut c = accept(20_000, &[Step::Accept(usize::MAX)]);
        serve(&mut c, &wire(&mut Connection::client(Settings::default())), at, stats);
        assert_eq!((c.preface_at, c.first_request_at), (Some(at), None));
        serve(&mut c, &[], at + us(HEADER_TIMEOUT) - 1, stats);
        assert_eq!(c.close, None);
        serve(&mut c, &[], at + us(HEADER_TIMEOUT), stats);
        assert_eq!(c.close, Some(CloseReason::Timeout(TimeoutKind::HeaderReceive)));

        // A request answered in full, then silence: idle runs from the
        // last progress.
        let at = T0 + 11;
        let (mut c, _) = served(at, stats);
        serve(&mut c, &[], at + us(IDLE_TIMEOUT) - 1, stats);
        assert_eq!(c.close, None);
        serve(&mut c, &[], at + us(IDLE_TIMEOUT), stats);
        assert_eq!(c.close, Some(CloseReason::Timeout(TimeoutKind::Idle)));
    }

    #[test]
    fn idle_does_not_fire_while_output_is_queued_or_wanted() {
        let stats = &mut LiveServerStats::default();
        let at = T0 + 3;
        let idle_at = at + us(IDLE_TIMEOUT);

        // The machine has an answer to give that was never polled.
        let (mut c, mut client) = served(at, stats);
        c.machine.feed_bytes(&request(&mut client), at);
        assert!(c.out.is_empty() && c.machine.wants_output());
        assert_eq!(c.expired(idle_at), None);

        // Bytes queued that the peer never took: the stall deadline,
        // which is shorter, retires it instead.
        let (mut c, _) = served(at, stats);
        assert_eq!(c.expired(idle_at), Some(CloseReason::Timeout(TimeoutKind::Idle)));
        c.out.put_slice(b"unsent");
        assert_eq!(c.expired(idle_at), Some(CloseReason::WriteStall));
    }

    #[test]
    fn a_peer_that_stops_reading_is_closed_for_write_stall_under_the_queue_bound() {
        // A document far larger than the queue bound, and the flow-control
        // windows thrown open so only the transport can hold it back.
        let bound = MAX_QUEUED_BYTES + 9 + h2push_h2proto::DEFAULT_MAX_FRAME_SIZE;
        let stats = &mut LiveServerStats::default();
        // The peer blocks at once, takes 100 000 bytes on the next write,
        // and blocks from then on.
        let writes = [Step::Fail(io::ErrorKind::WouldBlock), Step::Accept(100_000)];
        let mut c = accept(8 * MAX_QUEUED_BYTES, &writes);
        let settings = Settings { initial_window_size: Some(0x7fff_ffff), ..Settings::default() };
        let mut input = request(&mut Connection::client(settings));
        Frame::WindowUpdate { stream: 0, increment: 0x7000_0000 }.encode(&mut input);

        // Read at `at`; the queue fills, the peer takes nothing.
        let at = T0 + 5;
        serve(&mut c, &input, at, stats);
        let first = c.out.len();
        assert!(first >= MAX_QUEUED_BYTES && first <= bound, "queued {first} B");
        assert_eq!((stats.max_queued_bytes, stats.bytes_out), (first, 0));

        // The last progress: the peer takes 100 000 bytes at `at + 1`.
        serve(&mut c, &[], at + 1, stats);
        assert_eq!(stats.bytes_out, 100_000);
        assert_eq!(c.last_progress_at, at + 1);

        // Refilled, then nothing moves until the stall deadline.
        serve(&mut c, &[], at + 2, stats);
        let second = c.out.len();
        assert!(second >= MAX_QUEUED_BYTES && second <= bound, "queued {second} B");
        serve(&mut c, &[], at + 1 + us(WRITE_STALL_TIMEOUT) - 1, stats);
        assert_eq!(c.close, None);
        serve(&mut c, &[], at + 1 + us(WRITE_STALL_TIMEOUT), stats);
        assert_eq!(c.close, Some(CloseReason::WriteStall));
        assert_eq!(stats.max_queued_bytes, first.max(second), "the peak is recorded");
        assert_eq!(stats.bytes_out, 100_000);
        assert!(c.machine.wants_output(), "the document was never sent whole");
    }
}

#[cfg(test)]
mod close_log_tests {
    use super::*;

    #[test]
    fn close_log_keeps_the_most_recent_closes_and_the_counters_keep_all() {
        let mut stats = LiveServerStats::default();
        for _ in 0..5 {
            stats.log_close(CloseReason::Shed, None);
        }
        for _ in 0..CLOSE_LOG_CAP {
            stats.log_close(CloseReason::Clean, None);
        }
        assert_eq!(stats.close_log.len(), CLOSE_LOG_CAP);
        assert!(stats.close_log.iter().all(|c| c.reason == CloseReason::Clean));
        assert_eq!((stats.closed.shed, stats.closed.clean), (5, CLOSE_LOG_CAP as u64));
    }
}
