//! # The sans-IO contract
//!
//! Every protocol endpoint in this workspace — the HTTP/2
//! [`Connection`](crate::Connection), the replay servers in
//! `h2push-server`, and the browser's per-connection drivers — is a *pure
//! state machine over bytes*: it owns no socket, no queue, no clock and no
//! thread. The surrounding runtime (the deterministic netsim harness or
//! the live TCP runtime in `h2push-testbed`) is a thin adapter that
//! shuttles bytes and timestamps between a transport and the machine.
//!
//! The contract has three legs:
//!
//! 1. **Input**: `feed_bytes(bytes, now)` hands the machine a chunk of
//!    received wire bytes plus the current time. The machine may consume
//!    any prefix, buffer the rest internally, and update its state; it
//!    never blocks and never performs IO. Chunk boundaries carry no
//!    meaning — feeding one big buffer or the same bytes split at any
//!    points yields the same state (reassembly is the machine's job).
//! 2. **Output**: `wants_output()` is a cheap check for pending transmit
//!    bytes; `poll_output_into(max, now, sink)` writes up to `max` wire
//!    bytes into a [`WireSink`] the runtime owns and returns how many. The
//!    runtime decides when to call it (readiness, simulated send windows)
//!    and what the sink is — its in-flight queue, so nothing is built and
//!    then moved; zero means "nothing to send right now" (possibly
//!    flow-control blocked, not necessarily idle). A sink takes literal
//!    bytes and *runs of zeros*: the testbed replays bodies as counted
//!    placeholders, so a DATA payload crosses the contract as a length.
//!    `poll_output(max, now)` is the same call into an owned buffer, for
//!    callers that want the bytes in hand.
//! 3. **Time**: `now` is injected on every call as **microseconds since
//!    an arbitrary epoch** ([`Micros`]). The simulator passes sim-time;
//!    the live runtime passes a monotonic wall-clock offset. Machines
//!    never read a clock, so a replayed exchange is bit-identical no
//!    matter which runtime drives it.
//!
//! Machines that *initiate* work (the browser) additionally return typed
//! actions from their input methods — open a connection, send bytes,
//! arm a timer — instead of performing them; see
//! `h2push_browser::BrowserAction`. [`Connection`](crate::Connection)
//! exposes the same shape at the frame level:
//! [`Connection::feed_bytes`](crate::Connection::feed_bytes) returns the
//! decoded [`Event`](crate::Event)s, and `produce_into(max, scheduler,
//! sink)` is its `poll_output_into` with the scheduling policy made
//! explicit.

use bytes::{Bytes, BytesMut};
use std::collections::VecDeque;

/// Time injected into a sans-IO state machine: microseconds since an
/// arbitrary per-run epoch. The deterministic harness passes sim-time
/// (`SimTime::as_micros`); the live runtime passes the monotonic offset
/// from its start instant. Machines only ever compare and subtract these.
pub type Micros = u64;

/// Where a machine's transmit bytes go: literal octets (frame headers,
/// control frames, header blocks) and runs of zero octets (DATA payload,
/// HTTP/1.1 bodies). A sink that only needs sizes, order and timing — the
/// testbed's in-flight queues — records a run as its length; one that
/// needs memory materialises it.
pub trait WireSink {
    /// Append literal bytes.
    fn put_slice(&mut self, bytes: &[u8]);
    /// Append `n` zero bytes.
    fn put_zeros(&mut self, n: usize);
}

impl WireSink for Vec<u8> {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    fn put_zeros(&mut self, n: usize) {
        self.resize(self.len() + n, 0);
    }
}

impl WireSink for BytesMut {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
    fn put_zeros(&mut self, n: usize) {
        self.resize(self.len() + n, 0);
    }
}

impl WireSink for VecDeque<u8> {
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend(bytes);
    }
    fn put_zeros(&mut self, n: usize) {
        self.resize(self.len() + n, 0);
    }
}

/// One endpoint of a byte-stream transport, sans-IO: fed received bytes,
/// polled for transmit bytes, with time injected per call.
///
/// Implemented by the replay servers (`h2push-server`); both the netsim
/// adapter and the live TCP runtime in `h2push-testbed` drive servers
/// exclusively through this trait, which is what guarantees the two
/// runtimes exercise identical protocol behaviour.
pub trait Endpoint {
    /// Feed a chunk of received wire bytes at time `now`. Never blocks;
    /// never performs IO. Chunk boundaries are meaningless.
    fn feed_bytes(&mut self, bytes: &[u8], now: Micros);

    /// Cheap conservative check: `false` guarantees `poll_output_into`
    /// would write nothing right now.
    fn wants_output(&self) -> bool;

    /// Write up to `max` transmit bytes at time `now` into `sink` and
    /// return how many. Zero means nothing is currently sendable (idle
    /// *or* flow-control blocked).
    fn poll_output_into(&mut self, max: usize, now: Micros, sink: &mut dyn WireSink) -> usize;

    /// [`Endpoint::poll_output_into`] an owned buffer, bodies materialised.
    fn poll_output(&mut self, max: usize, now: Micros) -> Bytes {
        let mut out = BytesMut::new();
        self.poll_output_into(max, now, &mut out);
        out.freeze()
    }
}
