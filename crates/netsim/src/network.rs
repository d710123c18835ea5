//! The network: nodes, connections and a simplified TCP model.
//!
//! This module glues [`Link`]s and an
//! [`EventQueue`] into a deterministic simulation
//! of the paper's testbed topology (§4.1): one client behind an asymmetric
//! DSL access link talking to any number of replay servers, each reachable
//! through its own (by default well-provisioned) pair of links.
//!
//! # TCP model
//!
//! Each connection carries two independent byte streams (client→server
//! "up", server→client "down"). Per direction the model implements:
//!
//! * slow start from an initial window of 10 segments, with byte-counting
//!   growth, switching to congestion avoidance above `ssthresh`;
//! * a receive window (1 MB — large relative to the DSL
//!   bandwidth-delay product, like the Linux autotuned windows the paper's
//!   testbed would see);
//! * an ACK per data packet (40 bytes on the reverse path, so ACK traffic
//!   competes for the narrow 1 Mbit/s uplink just as it does on real DSL);
//! * timeout-based loss recovery: a dropped data packet is retransmitted one
//!   RTO later and halves the congestion window.
//!
//! Packet content is *not* carried here: the simulator moves byte **counts**
//! in order, and the HTTP/2 endpoints keep the actual bytes in their own
//! FIFO buffers. This keeps the layers decoupled while preserving exact
//! in-order delivery semantics.
//!
//! # Pull-based sending
//!
//! Stream scheduling is the paper's core topic, so the decision *which bytes
//! to send next* must be made as late as possible. The network therefore
//! pulls: an endpoint declares itself "hungry" and the simulator emits
//! [`NetEvent::SendReady`] whenever the congestion window has room, at which
//! point the endpoint's scheduler picks the next frame.

use crate::fault::{FaultSpec, FaultState, NetStats, XorShift};
use crate::link::{Link, LinkSpec, Transmit};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use h2push_trace::{DropCause, TraceEvent, TraceHandle};

/// Maximum TCP segment payload (Ethernet MTU minus 40 bytes of headers).
pub const MSS: usize = 1460;
/// Bytes of TCP/IP header overhead added to every data segment on the wire.
pub const HEADER_OVERHEAD: usize = 40;
/// Size of a pure ACK on the wire.
const ACK_SIZE: usize = 40;
/// Size of a handshake segment on the wire.
const SYN_SIZE: usize = 60;
/// Extra round trips for TLS: the TLS 1.2 stacks of the paper's testbed.
const TLS_RTTS: u32 = 2;
/// Per-direction receive window.
const RECV_WINDOW: usize = 1024 * 1024;
/// Maximum uniform per-packet timing jitter. Models the OS scheduling
/// noise any real testbed has; without it, deterministic lock-step lets
/// one flow phase-capture a shared drop-tail queue. Seeded, so runs are
/// still exactly reproducible.
const JITTER: SimDuration = SimDuration::from_micros(120);

/// Identifies a server node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub usize);

/// Identifies a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub usize);

/// Direction of a byte stream on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Client → server (requests).
    Up,
    /// Server → client (responses).
    Down,
}

impl Dir {
    fn idx(self) -> usize {
        match self {
            Dir::Up => 0,
            Dir::Down => 1,
        }
    }

    /// The opposite direction.
    pub fn reverse(self) -> Dir {
        match self {
            Dir::Up => Dir::Down,
            Dir::Down => Dir::Up,
        }
    }
}

/// Events surfaced to the orchestrator by [`Network::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// The TCP+TLS handshake of `conn` completed; the client may send.
    Connected { conn: ConnId },
    /// `bytes` application bytes arrived, in order, at the receiving side of
    /// `dir` on `conn`.
    Delivered { conn: ConnId, dir: Dir, bytes: usize },
    /// The sender of `dir` on `conn` declared itself hungry and the window
    /// now has room for `window` more bytes: the scheduler should produce
    /// data (via [`Network::send`]) or withdraw (via [`Network::set_hungry`]).
    SendReady { conn: ConnId, dir: Dir, window: usize },
    /// An application timer scheduled with [`Network::schedule`] fired.
    App { token: u64 },
}

/// Behaviour of the client access link pair plus global knobs.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// Client upstream link (requests, ACKs for responses).
    pub client_up: LinkSpec,
    /// Client downstream link (responses) — the paper's 16 Mbit/s bottleneck.
    pub client_down: LinkSpec,
    /// Random per-packet loss probability applied on the rated access links.
    pub loss: f64,
    /// Seed for the loss and jitter processes.
    pub seed: u64,
    /// Injected burst loss on the access links. The default injects
    /// nothing and leaves every run byte-identical to a spec without the
    /// field; a loss model is driven by its own RNG streams derived from
    /// `seed`, so faulty runs replay bit-identically too.
    pub fault: FaultSpec,
}

impl NetworkSpec {
    /// The paper's deterministic testbed profile: DSL 50 ms RTT,
    /// 16 Mbit/s down / 1 Mbit/s up, no loss, local DNS.
    pub fn dsl_testbed() -> Self {
        NetworkSpec {
            client_up: LinkSpec::dsl_uplink(),
            client_down: LinkSpec::dsl_downlink(),
            loss: 0.0,
            seed: 0,
            fault: FaultSpec::default(),
        }
    }

    /// Cable access (the paper's §6 deployment matrix): 100 Mbit/s down,
    /// 10 Mbit/s up, 20 ms RTT.
    pub fn cable() -> Self {
        NetworkSpec {
            client_up: LinkSpec::rated(10_000_000, SimDuration::from_micros(10_000)),
            client_down: LinkSpec::rated(100_000_000, SimDuration::from_micros(10_000)),
            ..Self::dsl_testbed()
        }
    }

    /// Cellular access (§6): 8 Mbit/s down, 2 Mbit/s up, 100 ms RTT and a
    /// little loss.
    pub fn cellular() -> Self {
        NetworkSpec {
            client_up: LinkSpec::rated(2_000_000, SimDuration::from_micros(50_000)),
            client_down: LinkSpec::rated(8_000_000, SimDuration::from_micros(50_000)),
            loss: 0.002,
            ..Self::dsl_testbed()
        }
    }

    /// Fibre access: 250 Mbit/s symmetric-ish, 10 ms RTT.
    pub fn fibre() -> Self {
        NetworkSpec {
            client_up: LinkSpec::rated(50_000_000, SimDuration::from_micros(5_000)),
            client_down: LinkSpec::rated(250_000_000, SimDuration::from_micros(5_000)),
            ..Self::dsl_testbed()
        }
    }
}

/// A server node: its own link pair (infinite by default) lets
/// "internet mode" give individual origins extra latency.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// Link from the core towards the server.
    pub ingress: LinkSpec,
    /// Link from the server towards the core.
    pub egress: LinkSpec,
    /// Server think time before the first response byte of each pull —
    /// zero in the testbed ("we do not assume any additional delay on the
    /// servers", §4.1).
    pub think: SimDuration,
}

impl Default for ServerSpec {
    fn default() -> Self {
        ServerSpec {
            ingress: LinkSpec::infinite(SimDuration::ZERO),
            egress: LinkSpec::infinite(SimDuration::ZERO),
            think: SimDuration::ZERO,
        }
    }
}

impl ServerSpec {
    /// A server an extra `extra_oneway` away from the client (per direction).
    pub fn with_extra_delay(extra_oneway: SimDuration) -> Self {
        ServerSpec {
            ingress: LinkSpec::infinite(extra_oneway),
            egress: LinkSpec::infinite(extra_oneway),
            think: SimDuration::ZERO,
        }
    }
}

/// What a packet crossing the network means when it reaches its destination.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Data { sent_at: SimTime },
    Ack { acked: u32, sent_at: SimTime },
    Handshake { left: u32 },
}

/// A queued event. Connection ids and segment sizes are stored as `u32`
/// ([`Network::connect`] and [`seg`] check the narrowing) so that an event
/// is half a cache line: the queue writes and reads one per packet hop.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A packet finished crossing hop `hop` of its path.
    Hop { conn: u32, dir: Dir, bytes: u32, hop: u8, kind: Kind },
    /// Server think time elapsed: surface request bytes to the app.
    ThinkDone { conn: u32, bytes: u32 },
    /// Retransmission timer.
    Rto { conn: u32, dir: Dir, bytes: u32 },
    /// Application timer.
    App { token: u64 },
    /// A connection was opened: start its TCP handshake. Names resolve
    /// locally, as in the testbed, so this fires at the `connect` instant.
    StartConnect { conn: u32 },
}

const _: () = assert!(std::mem::size_of::<Ev>() <= 32);

/// The size of one segment, as events store it.
fn seg(bytes: usize) -> u32 {
    debug_assert!(bytes <= MSS, "an event carries at most one segment");
    bytes as u32
}

/// Per-direction TCP sender/receiver state.
#[derive(Debug, Clone)]
struct TcpDir {
    cwnd: f64,
    ssthresh: f64,
    rwnd: usize,
    /// `cwnd.min(rwnd as f64) as usize`, the send limit, kept current
    /// wherever `cwnd` changes so the per-packet path reads an integer.
    limit: usize,
    in_flight: usize,
    send_buf: usize,
    hungry: bool,
    pull_pending: bool,
    srtt: Option<SimDuration>,
    /// Loss events currently awaiting their RTO (so cwnd is halved once per
    /// burst, not once per lost packet).
    rtos_outstanding: u32,
}

impl TcpDir {
    fn new(rwnd: usize) -> Self {
        let mut d = TcpDir {
            cwnd: (10 * MSS) as f64,
            ssthresh: f64::INFINITY,
            rwnd,
            limit: 0,
            in_flight: 0,
            send_buf: 0,
            hungry: false,
            pull_pending: false,
            srtt: None,
            rtos_outstanding: 0,
        };
        d.update_limit();
        d
    }

    fn update_limit(&mut self) {
        self.limit = self.cwnd.min(self.rwnd as f64) as usize;
    }

    /// The send limit, checked against its formula in debug builds.
    fn limit(&self) -> usize {
        debug_assert_eq!(self.limit, self.cwnd.min(self.rwnd as f64) as usize);
        self.limit
    }

    fn window(&self) -> usize {
        self.limit().saturating_sub(self.in_flight + self.send_buf)
    }

    fn on_ack(&mut self, acked: usize) {
        self.in_flight = self.in_flight.saturating_sub(acked);
        if self.cwnd < self.ssthresh {
            // Slow start with byte counting.
            self.cwnd += acked as f64;
        } else {
            // Congestion avoidance: one MSS per cwnd of ACKed data.
            self.cwnd += (MSS * MSS) as f64 * (acked as f64 / MSS as f64) / self.cwnd;
        }
        self.update_limit();
    }

    fn on_loss(&mut self) {
        if self.rtos_outstanding == 0 {
            self.ssthresh = (self.cwnd / 2.0).max((2 * MSS) as f64);
            self.cwnd = self.ssthresh;
            self.update_limit();
        }
        self.rtos_outstanding += 1;
    }
}

#[derive(Debug, Clone)]
struct Conn {
    server: usize,
    established: bool,
    dirs: [TcpDir; 2],
}

/// The deterministic network simulator.
pub struct Network {
    spec: NetworkSpec,
    now: SimTime,
    events: EventQueue<Ev>,
    client_up: Link,
    client_down: Link,
    servers: Vec<(ServerSpec, Link, Link)>,
    conns: Vec<Conn>,
    rng: XorShift,
    delivered_total: u64,
    /// Fault process per access-link direction (up/down fade
    /// independently); seeded from `spec.seed`, separate from `rng`.
    fault_states: [FaultState; 2],
    stats: NetStats,
    trace: TraceHandle,
    /// Internal events processed over the network's lifetime — the
    /// watchdog currency: any livelock (e.g. an adversarial peer forcing
    /// a ping-pong that never quiesces) burns events without bound, so a
    /// budget on this counter bounds every run.
    events_processed: u64,
}

impl Network {
    /// Create a network with the given client access profile.
    pub fn new(spec: NetworkSpec) -> Self {
        let client_up = Link::new(spec.client_up);
        let client_down = Link::new(spec.client_down);
        let rng = XorShift::new(spec.seed ^ 0xC0FFEE);
        let fault_states =
            [FaultState::new(spec.seed ^ 0xFA017A01), FaultState::new(spec.seed ^ 0xFA017A02)];
        Network {
            spec,
            now: SimTime::ZERO,
            events: EventQueue::new(),
            client_up,
            client_down,
            servers: Vec::new(),
            conns: Vec::new(),
            rng,
            delivered_total: 0,
            fault_states,
            stats: NetStats::default(),
            trace: TraceHandle::off(),
            events_processed: 0,
        }
    }

    /// Recycle this network into a fresh one for `spec`: equivalent to
    /// [`Network::new`] but retaining the event slab, the server table and
    /// the connection table capacity. Every piece of observable state —
    /// clock, RNG streams, fault processes, links, counters — is re-derived
    /// exactly as `new` derives it, so a recycled network replays
    /// byte-identically to a freshly constructed one.
    pub fn reset(&mut self, spec: NetworkSpec) {
        self.client_up = Link::new(spec.client_up);
        self.client_down = Link::new(spec.client_down);
        self.rng = XorShift::new(spec.seed ^ 0xC0FFEE);
        self.fault_states =
            [FaultState::new(spec.seed ^ 0xFA017A01), FaultState::new(spec.seed ^ 0xFA017A02)];
        self.spec = spec;
        self.now = SimTime::ZERO;
        self.events.clear();
        self.servers.clear();
        self.conns.clear();
        self.delivered_total = 0;
        self.stats = NetStats::default();
        self.trace = TraceHandle::off();
        self.events_processed = 0;
    }

    /// Attach a trace handle. Observational only: emitting events draws no
    /// randomness and schedules nothing, so traced and untraced runs of
    /// the same spec are byte-identical.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total application bytes delivered in both directions so far.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Internal simulation events processed so far (monotonic). The replay
    /// watchdog budgets this counter: unlike sim-time, it grows on every
    /// scheduled action, so even a zero-delay livelock exhausts it.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Fault and loss-recovery counters accumulated so far (data packets
    /// seen, drops by cause, RTO retransmits).
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Register a server node and return its id.
    pub fn add_server(&mut self, spec: ServerSpec) -> ServerId {
        let ingress = Link::new(spec.ingress);
        let egress = Link::new(spec.egress);
        self.servers.push((spec, ingress, egress));
        ServerId(self.servers.len() - 1)
    }

    /// Open a connection from the client to `server`. The handshake (TCP +
    /// TLS) runs asynchronously; a [`NetEvent::Connected`] is emitted
    /// when the client may transmit.
    pub fn connect(&mut self, server: ServerId) -> ConnId {
        assert!(server.0 < self.servers.len(), "unknown server");
        let id = self.conns.len();
        let conn = u32::try_from(id).expect("connection ids fit u32");
        self.conns.push(Conn {
            server: server.0,
            established: false,
            dirs: [TcpDir::new(RECV_WINDOW), TcpDir::new(RECV_WINDOW)],
        });
        self.events.push(self.now, Ev::StartConnect { conn });
        ConnId(id)
    }

    /// Append `bytes` application bytes to the send buffer of `dir` on
    /// `conn`. Data sent before the handshake completes is buffered.
    pub fn send(&mut self, conn: ConnId, dir: Dir, bytes: usize) {
        let c = &mut self.conns[conn.0];
        let d = &mut c.dirs[dir.idx()];
        d.send_buf += bytes;
        d.pull_pending = false;
        if self.conns[conn.0].established {
            self.try_transmit(conn.0, dir);
        }
    }

    /// Declare whether the sender of `dir` on `conn` has more data it could
    /// produce. Returns the window immediately available (if any), letting
    /// the caller push data right away instead of waiting for a
    /// [`NetEvent::SendReady`].
    pub fn set_hungry(&mut self, conn: ConnId, dir: Dir, hungry: bool) -> Option<usize> {
        let established = self.conns[conn.0].established;
        let d = &mut self.conns[conn.0].dirs[dir.idx()];
        d.hungry = hungry;
        if !hungry {
            d.pull_pending = false;
            return None;
        }
        if !established {
            return None;
        }
        let w = d.window();
        if Self::window_usable(d, w) {
            d.pull_pending = true;
            Some(w)
        } else {
            None
        }
    }

    /// Schedule an application timer; [`NetEvent::App`] fires at `at`.
    pub fn schedule(&mut self, at: SimTime, token: u64) {
        self.events.push(at.max(self.now), Ev::App { token });
    }

    /// Advance the simulation to the next event of interest.
    ///
    /// Returns `None` when the simulation has fully quiesced.
    pub fn step(&mut self) -> Option<(SimTime, NetEvent)> {
        while let Some((t, ev)) = self.events.pop() {
            debug_assert!(t >= self.now, "time must be monotonic");
            self.now = t;
            self.events_processed += 1;
            if let Some(public) = self.process(ev) {
                return Some((t, public));
            }
        }
        None
    }

    /// A window is worth announcing when it fits a full segment, or the pipe
    /// is completely idle (so trickles still flow at the tail of a
    /// transfer).
    fn window_usable(d: &TcpDir, w: usize) -> bool {
        w >= MSS || (w > 0 && d.in_flight == 0 && d.send_buf == 0)
    }

    fn process(&mut self, ev: Ev) -> Option<NetEvent> {
        match ev {
            Ev::App { token } => Some(NetEvent::App { token }),
            Ev::StartConnect { conn } => {
                // SYN leaves the client; total half-trips for TCP (1 RTT)
                // plus TLS (`TLS_RTTS` RTTs).
                let left = 2 * (1 + TLS_RTTS) - 1;
                self.transmit_path(conn as usize, Dir::Up, SYN_SIZE, Kind::Handshake { left });
                None
            }
            Ev::Rto { conn, dir, bytes } => {
                let (conn, bytes) = (conn as usize, bytes as usize);
                self.stats.retransmits += 1;
                self.trace.emit_at(self.now.as_micros(), TraceEvent::Retransmit { conn });
                let d = &mut self.conns[conn].dirs[dir.idx()];
                d.rtos_outstanding = d.rtos_outstanding.saturating_sub(1);
                d.in_flight = d.in_flight.saturating_sub(bytes);
                d.send_buf += bytes;
                self.try_transmit(conn, dir);
                self.maybe_send_ready(conn, dir)
            }
            Ev::Hop { conn, dir, bytes, hop, kind } => {
                self.hop_done(conn as usize, dir, bytes as usize, hop, kind)
            }
            Ev::ThinkDone { conn, bytes } => Some(NetEvent::Delivered {
                conn: ConnId(conn as usize),
                dir: Dir::Up,
                bytes: bytes as usize,
            }),
        }
    }

    fn hop_done(
        &mut self,
        conn: usize,
        dir: Dir,
        bytes: usize,
        hop: u8,
        kind: Kind,
    ) -> Option<NetEvent> {
        if hop == 0 {
            // First hop done; cross the second.
            self.transmit_hop(conn, dir, bytes, 1, kind);
            return None;
        }
        // Arrived at the destination.
        match kind {
            Kind::Handshake { left } => {
                if left == 0 {
                    self.conns[conn].established = true;
                    self.trace.emit_at(self.now.as_micros(), TraceEvent::Connected { conn });
                    self.try_transmit(conn, Dir::Up);
                    self.try_transmit(conn, Dir::Down);
                    Some(NetEvent::Connected { conn: ConnId(conn) })
                } else {
                    self.transmit_path(
                        conn,
                        dir.reverse(),
                        SYN_SIZE,
                        Kind::Handshake { left: left - 1 },
                    );
                    None
                }
            }
            Kind::Ack { acked, sent_at } => {
                let rtt = self.now.since(sent_at);
                let d = &mut self.conns[conn].dirs[dir.reverse().idx()];
                d.srtt = Some(match d.srtt {
                    None => rtt,
                    Some(s) => SimDuration::from_micros((s.as_micros() * 7 + rtt.as_micros()) / 8),
                });
                d.on_ack(acked as usize);
                let data_dir = dir.reverse();
                self.try_transmit(conn, data_dir);
                self.maybe_send_ready(conn, data_dir)
            }
            Kind::Data { sent_at } => {
                // Receiver immediately ACKs on the reverse path; the ACK
                // echoes the original send timestamp for RTT estimation.
                self.delivered_total += bytes as u64;
                self.transmit_path(
                    conn,
                    dir.reverse(),
                    ACK_SIZE,
                    Kind::Ack { acked: seg(bytes), sent_at },
                );
                // Server think time: the transport ACKs on arrival (above),
                // but the application sees the request only after the
                // server's processing delay.
                if dir == Dir::Up {
                    let think = self.servers[self.conns[conn].server].0.think;
                    if think.as_micros() > 0 {
                        let ev = Ev::ThinkDone { conn: conn as u32, bytes: seg(bytes) };
                        self.events.push(self.now + think, ev);
                        return None;
                    }
                }
                Some(NetEvent::Delivered { conn: ConnId(conn), dir, bytes })
            }
        }
    }

    /// Loss detection delay. With enough packets in flight the sender
    /// discovers the hole through duplicate ACKs roughly one RTT after the
    /// drop (fast retransmit); with a nearly-empty window only a full RTO
    /// can recover.
    fn loss_recovery_delay(&self, conn: usize, dir: Dir) -> SimDuration {
        let d = &self.conns[conn].dirs[dir.idx()];
        let base =
            d.srtt.unwrap_or(self.spec.client_down.delay + self.spec.client_up.delay).as_micros();
        if d.in_flight >= 4 * MSS {
            // Fast retransmit: ~1 smoothed RTT.
            SimDuration::from_micros(base.clamp(30_000, 3_000_000))
        } else {
            // Timeout: conservative RTO.
            SimDuration::from_micros((base * 2).clamp(200_000, 3_000_000))
        }
    }

    /// Move bytes from the send buffer onto the wire while the window
    /// allows.
    fn try_transmit(&mut self, conn: usize, dir: Dir) {
        if !self.conns[conn].established {
            return;
        }
        loop {
            let d = &mut self.conns[conn].dirs[dir.idx()];
            if d.send_buf == 0 {
                break;
            }
            let limit = d.limit();
            if d.in_flight >= limit {
                break;
            }
            let pkt = d.send_buf.min(MSS).min(limit - d.in_flight);
            d.send_buf -= pkt;
            d.in_flight += pkt;
            let sent_at = self.now;
            self.transmit_path(conn, dir, pkt, Kind::Data { sent_at });
        }
    }

    fn maybe_send_ready(&mut self, conn: usize, dir: Dir) -> Option<NetEvent> {
        let d = &mut self.conns[conn].dirs[dir.idx()];
        if !d.hungry || d.pull_pending {
            return None;
        }
        let w = d.window();
        if Self::window_usable(d, w) {
            d.pull_pending = true;
            Some(NetEvent::SendReady { conn: ConnId(conn), dir, window: w })
        } else {
            None
        }
    }

    /// Put a packet on the first hop of its path.
    fn transmit_path(&mut self, conn: usize, dir: Dir, bytes: usize, kind: Kind) {
        self.transmit_hop(conn, dir, bytes, 0, kind);
    }

    /// A lost data packet: charge the congestion controller and schedule
    /// the retransmission one recovery delay later.
    fn drop_data(&mut self, conn: usize, dir: Dir, bytes: usize) {
        let delay = self.loss_recovery_delay(conn, dir);
        self.conns[conn].dirs[dir.idx()].on_loss();
        self.events.push(self.now + delay, Ev::Rto { conn: conn as u32, dir, bytes: seg(bytes) });
    }

    fn transmit_hop(&mut self, conn: usize, dir: Dir, bytes: usize, hop: u8, kind: Kind) {
        let server = self.conns[conn].server;
        // Fires when the packet has crossed this hop.
        let arrival = Ev::Hop { conn: conn as u32, dir, bytes: seg(bytes), hop, kind };
        // Faults apply on the client access links only — the "lossy" hops.
        let lossy = matches!((dir, hop), (Dir::Up, 0) | (Dir::Down, 1));
        let is_data = matches!(kind, Kind::Data { .. });
        let wire = bytes + if is_data { HEADER_OVERHEAD } else { 0 };
        if lossy && is_data {
            self.stats.data_packets += 1;
        }
        // Injected loss process; draws from the dedicated fault RNG (and
        // only when a loss model is configured, so fault-free specs keep
        // every RNG stream — and therefore every run — byte-identical).
        let fault_loss =
            lossy && is_data && self.fault_states[dir.idx()].drop_packet(&self.spec.fault);
        // Path Up: client_up → server ingress. Path Down: server egress →
        // client_down. Hop 0 is the first link in the direction of travel.
        let link: &mut Link = match (dir, hop) {
            (Dir::Up, 0) => &mut self.client_up,
            (Dir::Up, 1) => &mut self.servers[server].1,
            (Dir::Down, 0) => &mut self.servers[server].2,
            (Dir::Down, 1) => &mut self.client_down,
            _ => unreachable!("paths have exactly two hops"),
        };
        let random_loss =
            lossy && is_data && self.spec.loss > 0.0 && { self.rng.next_f64() < self.spec.loss };
        let outcome = if random_loss || fault_loss {
            Transmit::Dropped
        } else {
            link.transmit(self.now, wire)
        };
        match outcome {
            Transmit::Delivered(at) => {
                let at = at
                    + SimDuration::from_micros(
                        (self.rng.next_f64() * JITTER.as_micros() as f64) as u64,
                    );
                self.events.push(at, arrival);
            }
            Transmit::Dropped => {
                // Only data is subject to loss in this model; handshake and
                // ACK segments always get through (documented simplification
                // — the DSL profile of the paper is loss-free anyway).
                if is_data {
                    let cause = if random_loss {
                        self.stats.drops_random += 1;
                        DropCause::Random
                    } else if fault_loss {
                        self.stats.drops_fault += 1;
                        DropCause::Fault
                    } else {
                        self.stats.drops_queue += 1;
                        DropCause::Queue
                    };
                    self.trace.emit_at(self.now.as_micros(), TraceEvent::FaultDrop { conn, cause });
                    self.drop_data(conn, dir, bytes);
                } else {
                    // Fall back to delivering after the queue drains: treat
                    // as if accepted (control segments are tiny).
                    let at = self.now + SimDuration::from_micros(1000);
                    self.events.push(at, arrival);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiesce(net: &mut Network) -> Vec<(SimTime, NetEvent)> {
        let mut out = Vec::new();
        while let Some(ev) = net.step() {
            out.push(ev);
            assert!(out.len() < 1_000_000, "runaway simulation");
        }
        out
    }

    #[test]
    fn handshake_takes_dns_plus_three_rtts() {
        // TCP (1 RTT) + TLS1.2 (2 RTT) at 50 ms RTT ⇒ connected at ~150 ms.
        let mut net = Network::new(NetworkSpec::dsl_testbed());
        let s = net.add_server(ServerSpec::default());
        let c = net.connect(s);
        let evs = quiesce(&mut net);
        let (t, ev) = evs[0];
        assert_eq!(ev, NetEvent::Connected { conn: c });
        let ms = t.as_millis_f64();
        assert!((149.0..154.0).contains(&ms), "connected at {ms} ms");
    }

    #[test]
    fn small_send_delivered_in_half_rtt() {
        let mut net = Network::new(NetworkSpec::dsl_testbed());
        let s = net.add_server(ServerSpec::default());
        let c = net.connect(s);
        let (t0, _) = net.step().unwrap();
        net.send(c, Dir::Up, 500);
        let (t1, ev) = net.step().unwrap();
        assert_eq!(ev, NetEvent::Delivered { conn: c, dir: Dir::Up, bytes: 500 });
        let delta = (t1 - t0).as_millis_f64();
        assert!((25.0..30.0).contains(&delta), "one-way delay was {delta} ms");
    }

    #[test]
    fn bulk_transfer_is_bandwidth_bound() {
        // 2 MB down a 16 Mbit/s link ⇒ ≥ 1 s of serialization.
        let mut net = Network::new(NetworkSpec::dsl_testbed());
        let s = net.add_server(ServerSpec::default());
        let c = net.connect(s);
        let _ = net.step();
        net.send(c, Dir::Down, 2_000_000);
        let mut got = 0usize;
        let mut last = SimTime::ZERO;
        while got < 2_000_000 {
            match net.step() {
                Some((t, NetEvent::Delivered { dir: Dir::Down, bytes, .. })) => {
                    got += bytes;
                    last = t;
                }
                Some(_) => {}
                None => panic!("stalled at {got} bytes"),
            }
        }
        let secs = last.as_millis_f64() / 1000.0;
        // Ideal: 2 MB ⇒ 16.33 Mbit with headers ⇒ ~1.02 s + slow start ramp.
        assert!(secs > 1.0, "finished impossibly fast: {secs}s");
        assert!(secs < 2.0, "took too long: {secs}s (slow start broken?)");
    }

    #[test]
    fn slow_start_ramps_exponentially() {
        // First flight after the handshake is 10 segments; the next flights
        // roughly double. Measure bytes delivered per RTT window.
        let mut net = Network::new(NetworkSpec::dsl_testbed());
        let s = net.add_server(ServerSpec::default());
        let c = net.connect(s);
        let (t0, _) = net.step().unwrap();
        net.send(c, Dir::Down, 500_000);
        let mut per_rtt = vec![0usize; 8];
        while let Some((t, ev)) = net.step() {
            if let NetEvent::Delivered { dir: Dir::Down, bytes, .. } = ev {
                let rtt_idx = ((t - t0).as_micros() / 50_000) as usize;
                if rtt_idx < per_rtt.len() {
                    per_rtt[rtt_idx] += bytes;
                }
            }
        }
        // First RTT window: exactly the initial 10-segment flight.
        assert_eq!(per_rtt[0], 10 * MSS);
        assert!(per_rtt[1] > per_rtt[0], "no growth: {per_rtt:?}");
    }

    #[test]
    fn pull_model_emits_send_ready() {
        let mut net = Network::new(NetworkSpec::dsl_testbed());
        let s = net.add_server(ServerSpec::default());
        let c = net.connect(s);
        let _ = net.step();
        // Endpoint declares hunger; immediate window is available.
        let w = net.set_hungry(c, Dir::Down, true).expect("window open");
        assert!(w >= 10 * MSS);
        net.send(c, Dir::Down, w);
        // As ACKs return, SendReady events fire for the growing window.
        let mut ready = 0;
        for _ in 0..200 {
            match net.step() {
                Some((_, NetEvent::SendReady { dir: Dir::Down, window, .. })) => {
                    ready += 1;
                    assert!(window > 0);
                    net.set_hungry(c, Dir::Down, false);
                    break;
                }
                Some(_) => {}
                None => break,
            }
        }
        assert_eq!(ready, 1, "SendReady must fire once the window opens");
    }

    #[test]
    fn loss_triggers_recovery_and_still_completes() {
        let mut spec = NetworkSpec::dsl_testbed();
        spec.loss = 0.02;
        spec.seed = 7;
        let mut net = Network::new(spec);
        let s = net.add_server(ServerSpec::default());
        let c = net.connect(s);
        let _ = net.step();
        net.send(c, Dir::Down, 300_000);
        let mut got = 0usize;
        while let Some((_, ev)) = net.step() {
            if let NetEvent::Delivered { dir: Dir::Down, bytes, .. } = ev {
                got += bytes;
            }
        }
        assert_eq!(got, 300_000, "all bytes must eventually be delivered");
    }

    #[test]
    fn two_connections_share_the_bottleneck() {
        let mut net = Network::new(NetworkSpec::dsl_testbed());
        let s1 = net.add_server(ServerSpec::default());
        let s2 = net.add_server(ServerSpec::default());
        let c1 = net.connect(s1);
        let c2 = net.connect(s2);
        // Wait for both to connect.
        let mut connected = 0;
        while connected < 2 {
            if let Some((_, NetEvent::Connected { .. })) = net.step() {
                connected += 1;
            }
        }
        net.send(c1, Dir::Down, 1_000_000);
        net.send(c2, Dir::Down, 1_000_000);
        let mut done = [0usize; 2];
        let mut finish = [SimTime::ZERO; 2];
        while let Some((t, ev)) = net.step() {
            if let NetEvent::Delivered { conn, dir: Dir::Down, bytes } = ev {
                let i = if conn == c1 { 0 } else { 1 };
                done[i] += bytes;
                if done[i] == 1_000_000 {
                    finish[i] = t;
                }
            }
        }
        assert_eq!(done, [1_000_000, 1_000_000]);
        // Approximate FIFO fairness: short competing TCP flows through a
        // drop-tail queue routinely diverge by tens of percent; what must
        // NOT happen is full serialization (one flow waiting for the other
        // to finish, a 2× gap).
        let (a, b) = (finish[0].as_micros() as f64, finish[1].as_micros() as f64);
        assert!((a - b).abs() / a.max(b) < 0.40, "capture: {a} vs {b}");
        // And the link must stay busy: the later flow finishes within ~2.2 s
        // (2 MB at 16 Mbit/s is ~1.05 s of pure serialization).
        assert!(a.max(b) < 2_200_000.0, "link under-utilised: {a} vs {b}");
    }

    #[test]
    fn app_timers_fire_in_order() {
        let mut net = Network::new(NetworkSpec::dsl_testbed());
        net.schedule(SimTime::from_millis(10), 1);
        net.schedule(SimTime::from_millis(5), 2);
        assert_eq!(net.step().unwrap().1, NetEvent::App { token: 2 });
        assert_eq!(net.step().unwrap().1, NetEvent::App { token: 1 });
    }

    #[test]
    fn server_extra_delay_increases_rtt() {
        let mut net = Network::new(NetworkSpec::dsl_testbed());
        let far = net.add_server(ServerSpec::with_extra_delay(SimDuration::from_millis(40)));
        let c = net.connect(far);
        let (t, ev) = net.step().unwrap();
        assert_eq!(ev, NetEvent::Connected { conn: c });
        // RTT now 50+80 = 130 ms; 3 RTTs ≈ 390 ms.
        let ms = t.as_millis_f64();
        assert!((389.0..394.0).contains(&ms), "connected at {ms} ms");
    }

    #[test]
    fn data_sent_before_connect_is_flushed_on_establish() {
        let mut net = Network::new(NetworkSpec::dsl_testbed());
        let s = net.add_server(ServerSpec::default());
        let c = net.connect(s);
        net.send(c, Dir::Up, 100); // before Connected
        let (_, ev) = net.step().unwrap();
        assert!(matches!(ev, NetEvent::Connected { .. }));
        let (_, ev) = net.step().unwrap();
        assert_eq!(ev, NetEvent::Delivered { conn: c, dir: Dir::Up, bytes: 100 });
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::FaultSpec;

    /// Run a 300 KB download to completion; returns (delivery trace, stats).
    fn download(spec: NetworkSpec) -> (Vec<(u64, usize)>, NetStats) {
        let net = Network::new(spec);
        download_in(net)
    }

    fn download_in(mut net: Network) -> (Vec<(u64, usize)>, NetStats) {
        let s = net.add_server(ServerSpec::default());
        let c = net.connect(s);
        let _ = net.step();
        net.send(c, Dir::Down, 300_000);
        let mut trace = Vec::new();
        let mut steps = 0u32;
        while let Some((t, ev)) = net.step() {
            steps += 1;
            assert!(steps < 1_000_000, "runaway simulation");
            if let NetEvent::Delivered { dir: Dir::Down, bytes, .. } = ev {
                trace.push((t.as_micros(), bytes));
            }
        }
        (trace, net.stats())
    }

    #[test]
    fn default_fault_spec_is_byte_identical_to_fault_free() {
        // The noop FaultSpec must not perturb a single event timestamp.
        let (a, sa) = download(NetworkSpec::dsl_testbed());
        let (b, sb) =
            download(NetworkSpec { fault: FaultSpec::default(), ..NetworkSpec::dsl_testbed() });
        assert_eq!(a, b);
        assert_eq!(sa.drops_fault, 0);
        assert_eq!(sb.drops_fault, 0);
    }

    #[test]
    fn gilbert_elliott_loss_recovers_and_counts() {
        let mut spec = NetworkSpec::dsl_testbed();
        spec.seed = 11;
        spec.fault = FaultSpec::gilbert_elliott(0.02);
        let (trace, stats) = download(spec);
        let total: usize = trace.iter().map(|&(_, b)| b).sum();
        assert_eq!(total, 300_000, "all bytes recovered despite burst loss");
        assert!(stats.drops_fault > 0, "2% GE over ~200 packets should drop some: {stats:?}");
        assert!(stats.retransmits >= stats.drops_fault, "every drop retransmits: {stats:?}");
    }

    #[test]
    fn fault_runs_are_bit_identical_across_reruns() {
        let mut spec = NetworkSpec::dsl_testbed();
        spec.seed = 23;
        spec.fault = FaultSpec::gilbert_elliott(0.05);
        let (a, sa) = download(spec.clone());
        let (b, sb) = download(spec);
        assert_eq!(a, b, "same seed must replay identically");
        assert_eq!(sa, sb);
    }

    #[test]
    fn recycled_network_is_byte_identical_to_fresh() {
        // A network that already lived a whole (different) run, then reset
        // into a faulty spec, must replay exactly like a cold construction.
        let mut spec = NetworkSpec::dsl_testbed();
        spec.seed = 9;
        spec.fault = FaultSpec::gilbert_elliott(0.02);
        let (fresh, fresh_stats) = download(spec.clone());
        let mut net = Network::new(NetworkSpec::cable());
        let s = net.add_server(ServerSpec::default());
        let c = net.connect(s);
        let _ = net.step();
        net.send(c, Dir::Down, 50_000);
        while net.step().is_some() {}
        net.reset(spec);
        let (recycled, recycled_stats) = download_in(net);
        assert_eq!(fresh, recycled, "recycled network diverged from fresh");
        assert_eq!(fresh_stats, recycled_stats);
    }

    #[test]
    fn different_seeds_differ_under_faults() {
        let mut spec = NetworkSpec::dsl_testbed();
        spec.fault = FaultSpec::gilbert_elliott(0.05);
        spec.seed = 1;
        let (a, _) = download(spec.clone());
        spec.seed = 2;
        let (b, _) = download(spec);
        assert_ne!(a, b, "loss pattern should depend on the seed");
    }
}

#[cfg(test)]
mod think_tests {
    use super::*;

    #[test]
    fn server_think_delays_request_delivery_only() {
        let mut net = Network::new(NetworkSpec::dsl_testbed());
        let s = net
            .add_server(ServerSpec { think: SimDuration::from_millis(40), ..Default::default() });
        let c = net.connect(s);
        let (t0, _) = net.step().unwrap(); // Connected
        net.send(c, Dir::Up, 300);
        let (t1, ev) = net.step().unwrap();
        assert_eq!(ev, NetEvent::Delivered { conn: c, dir: Dir::Up, bytes: 300 });
        // One-way ≈ 25 ms propagation + 40 ms think.
        let delta = (t1 - t0).as_millis_f64();
        assert!((64.0..72.0).contains(&delta), "request surfaced after {delta} ms");
        // Responses are NOT subject to think time.
        net.send(c, Dir::Down, 400);
        let (t2, ev) = net.step().unwrap();
        assert_eq!(ev, NetEvent::Delivered { conn: c, dir: Dir::Down, bytes: 400 });
        let delta = (t2 - t1).as_millis_f64();
        assert!((25.0..30.0).contains(&delta), "response took {delta} ms");
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;

    #[test]
    fn access_profiles_order_sensibly() {
        // Transfer 500 KB under each profile: fibre < cable < dsl < cellular.
        let mut finish = Vec::new();
        for spec in [
            NetworkSpec::fibre(),
            NetworkSpec::cable(),
            NetworkSpec::dsl_testbed(),
            NetworkSpec::cellular(),
        ] {
            let mut net = Network::new(spec);
            let s = net.add_server(ServerSpec::default());
            let c = net.connect(s);
            let _ = net.step();
            net.send(c, Dir::Down, 500_000);
            let mut last = SimTime::ZERO;
            let mut got = 0;
            while let Some((t, ev)) = net.step() {
                if let NetEvent::Delivered { dir: Dir::Down, bytes, .. } = ev {
                    got += bytes;
                    last = t;
                }
            }
            assert_eq!(got, 500_000);
            finish.push(last.as_millis_f64());
        }
        for w in finish.windows(2) {
            assert!(w[0] < w[1], "profiles out of order: {finish:?}");
        }
    }
}
