//! Bottleneck link model.
//!
//! A [`Link`] is a unidirectional FIFO pipe with a fixed bit rate, a fixed
//! propagation delay and a drop-tail queue, mirroring the paper's `tc`
//! emulated DSL profile (§4.1: 50 ms RTT, 16 Mbit/s downlink, 1 Mbit/s
//! uplink).
//!
//! Rather than modelling an explicit dequeue process, the link tracks the
//! virtual time at which its transmitter becomes free (`busy_until`). A
//! packet handed to the link at time `t` finishes serializing at
//! `max(t, busy_until) + size/rate` and arrives `delay` later. Because every
//! packet passes through the same `busy_until` accounting, concurrent
//! connections sharing the link contend for its capacity exactly as they
//! would in a FIFO queue.

use crate::time::{SimDuration, SimTime};

/// Static description of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Transmission rate in bits per second. `None` means infinitely fast
    /// (used for well-provisioned server uplinks in the testbed).
    pub rate_bps: Option<u64>,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Drop-tail queue capacity in bytes. Packets that would push the queue
    /// beyond this limit are dropped.
    pub queue_bytes: usize,
}

impl LinkSpec {
    /// An effectively infinite link (no serialization delay, no loss) with
    /// the given propagation delay.
    pub fn infinite(delay: SimDuration) -> Self {
        LinkSpec { rate_bps: None, delay, queue_bytes: usize::MAX }
    }

    /// A rate-limited link with a generous default queue (256 KB — large
    /// enough that the paper's loss-free DSL setting never drops).
    pub fn rated(rate_bps: u64, delay: SimDuration) -> Self {
        LinkSpec { rate_bps: Some(rate_bps), delay, queue_bytes: 256 * 1024 }
    }

    /// The paper's DSL downlink: 16 Mbit/s, half the 50 ms RTT as one-way
    /// propagation delay.
    pub fn dsl_downlink() -> Self {
        Self::rated(16_000_000, SimDuration::from_micros(25_000))
    }

    /// The paper's DSL uplink: 1 Mbit/s.
    pub fn dsl_uplink() -> Self {
        Self::rated(1_000_000, SimDuration::from_micros(25_000))
    }
}

/// Outcome of handing a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmit {
    /// The packet will arrive at the far end at this instant.
    Delivered(SimTime),
    /// The drop-tail queue was full; the packet is lost.
    Dropped,
}

/// Entries in a link's serialization memo, which is direct-mapped: size
/// `b` lives in entry `b % SER_MEMO`. Packet sizes follow the server's
/// writes, so a few recent sizes cover most packets.
const SER_MEMO: usize = 8;

/// Largest `backlog × rate` product (µs · bit/s) the drop-tail test takes
/// in integers. Below it the `f64` product in [`Link::queued_bytes`] is
/// exact, and its quotient by 8·10⁶ is below 2³⁰, where half an ulp
/// (≤ 2⁻²⁴) is smaller than the 1 / 8·10⁶ that separates a non-integer
/// quotient from the next integer, so truncating it gives the integer
/// quotient. A rated link with the default 256 KiB queue stays far below.
const EXACT_BACKLOG_PRODUCT: u64 = 1 << 52;

/// Runtime state of a link.
#[derive(Debug, Clone)]
pub struct Link {
    spec: LinkSpec,
    /// Instant at which the transmitter finishes the last accepted packet.
    busy_until: SimTime,
    /// Total bytes ever accepted (for diagnostics / tests).
    bytes_accepted: u64,
    /// Total packets dropped by the queue.
    drops: u64,
    /// `(bytes, self.serialization(bytes))` for recently sent sizes, at
    /// index `bytes % SER_MEMO`; every entry holds the formula's own
    /// result, starting from sizes `0..SER_MEMO`.
    ser_memo: [(usize, SimDuration); SER_MEMO],
}

impl Link {
    /// Create a link from its spec.
    pub fn new(spec: LinkSpec) -> Self {
        let mut link = Link {
            spec,
            busy_until: SimTime::ZERO,
            bytes_accepted: 0,
            drops: 0,
            ser_memo: [(0, SimDuration::ZERO); SER_MEMO],
        };
        link.ser_memo = std::array::from_fn(|b| (b, link.serialization(b)));
        link
    }

    /// The link's static spec.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// Serialization time for `bytes` on this link.
    pub fn serialization(&self, bytes: usize) -> SimDuration {
        match self.spec.rate_bps {
            None => SimDuration::ZERO,
            Some(rate) => SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate as f64),
        }
    }

    /// Bytes currently sitting in the queue at `now` (i.e. accepted but not
    /// yet serialized), in units of transmission time converted back to
    /// bytes.
    pub fn queued_bytes(&self, now: SimTime) -> usize {
        match self.spec.rate_bps {
            None => 0,
            Some(rate) => {
                let backlog = self.busy_until.since(now);
                (backlog.as_micros() as f64 * rate as f64 / 8e6) as usize
            }
        }
    }

    /// Whether a packet of `bytes` handed over at `now` overflows the
    /// drop-tail queue: `queued_bytes(now) + bytes > queue_bytes`, with the
    /// backlog converted in integers where that is exact (see
    /// [`EXACT_BACKLOG_PRODUCT`]) and by [`Link::queued_bytes`] elsewhere.
    fn overflows(&self, now: SimTime, bytes: usize) -> bool {
        let queued = match self.spec.rate_bps {
            None => 0,
            Some(rate) => match self.busy_until.since(now).as_micros().checked_mul(rate) {
                Some(product) if product <= EXACT_BACKLOG_PRODUCT => (product / 8_000_000) as usize,
                _ => self.queued_bytes(now),
            },
        };
        queued.saturating_add(bytes) > self.spec.queue_bytes
    }

    /// [`Link::serialization`] through the memo of recent sizes.
    fn serialization_memo(&mut self, bytes: usize) -> SimDuration {
        if self.spec.rate_bps.is_none() {
            return SimDuration::ZERO;
        }
        let (memo_bytes, d) = self.ser_memo[bytes % SER_MEMO];
        if memo_bytes == bytes {
            return d;
        }
        let d = self.serialization(bytes);
        self.ser_memo[bytes % SER_MEMO] = (bytes, d);
        d
    }

    /// Hand a packet of `bytes` to the link at time `now`.
    pub fn transmit(&mut self, now: SimTime, bytes: usize) -> Transmit {
        if self.overflows(now, bytes) {
            self.drops += 1;
            return Transmit::Dropped;
        }
        let start = self.busy_until.max(now);
        let done = start + self.serialization_memo(bytes);
        self.busy_until = done;
        self.bytes_accepted += bytes as u64;
        Transmit::Delivered(done + self.spec.delay)
    }

    /// Total packets dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Total bytes accepted so far.
    pub fn bytes_accepted(&self) -> u64 {
        self.bytes_accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbit(m: u64) -> u64 {
        m * 1_000_000
    }

    /// Transmit a packet that the test expects to fit: `Transmit::Dropped`
    /// is a countable outcome, so a surprise drop fails through the link's
    /// own drop counter (with its value in the message) instead of a bare
    /// `panic!` in the pump.
    fn must_deliver(l: &mut Link, now: SimTime, bytes: usize) -> SimTime {
        let out = l.transmit(now, bytes);
        assert_eq!(l.drops(), 0, "drop-tail queue dropped the packet ({out:?})");
        match out {
            Transmit::Delivered(t) => t,
            Transmit::Dropped => unreachable!("zero drops implies delivery"),
        }
    }

    #[test]
    fn serialization_plus_propagation() {
        let mut l = Link::new(LinkSpec::rated(mbit(16), SimDuration::from_millis(25)));
        // 1500 B at 16 Mbit/s = 750 µs, plus 25 ms propagation.
        let t = must_deliver(&mut l, SimTime::ZERO, 1500);
        assert_eq!(t.as_micros(), 750 + 25_000);
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = Link::new(LinkSpec::rated(mbit(16), SimDuration::ZERO));
        let t1 = must_deliver(&mut l, SimTime::ZERO, 1500);
        let t2 = must_deliver(&mut l, SimTime::ZERO, 1500);
        assert_eq!(t2.as_micros(), 2 * t1.as_micros());
    }

    #[test]
    fn fifo_sharing_between_flows() {
        // Two flows handing packets alternately share capacity 50/50.
        let mut l = Link::new(LinkSpec::rated(mbit(8), SimDuration::ZERO));
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            for _flow in 0..2 {
                let t = must_deliver(&mut l, SimTime::ZERO, 1000);
                assert!(t > last);
                last = t;
            }
        }
        // 20 packets × 1000 B × 8 bits at 8 Mbit/s = 20 ms.
        assert_eq!(last.as_micros(), 20_000);
    }

    #[test]
    fn droptail_queue_drops() {
        let mut l = Link::new(LinkSpec {
            rate_bps: Some(mbit(1)),
            delay: SimDuration::ZERO,
            queue_bytes: 3000,
        });
        let mut delivered = 0;
        let mut dropped = 0;
        for _ in 0..10 {
            match l.transmit(SimTime::ZERO, 1500) {
                Transmit::Delivered(_) => delivered += 1,
                Transmit::Dropped => dropped += 1,
            }
        }
        assert!(delivered >= 2, "first packets fit in the queue");
        assert!(dropped > 0, "later packets overflow");
        assert_eq!(l.drops(), dropped as u64);
    }

    #[test]
    fn infinite_link_only_propagates() {
        let mut l = Link::new(LinkSpec::infinite(SimDuration::from_millis(5)));
        let t = must_deliver(&mut l, SimTime::from_millis(1), 1_000_000);
        assert_eq!(t, SimTime::from_millis(6));
        assert_eq!(l.queued_bytes(SimTime::ZERO), 0);
    }

    /// The drop-tail test and the serialization memo against the `f64`
    /// formulas they stand in for: `queued_bytes(now) + bytes >
    /// queue_bytes`, and `serialization(bytes)` for every packet. The
    /// queue sizes straddle the threshold, where a rounding difference
    /// would show; the backlogs reach past [`EXACT_BACKLOG_PRODUCT`] into
    /// the fallback.
    #[test]
    fn integer_drop_test_and_memo_match_the_f64_formulas() {
        use proptest::prelude::*;
        let rates = prop_oneof![
            Just(mbit(16)),
            Just(mbit(1)),
            Just(mbit(8)),
            1u64..=100_000,
            1u64..=100_000_000_000,
        ];
        let backlogs = prop_oneof![Just(0u64), 0u64..=2_000, 0u64..=1_000_000_000];
        let sizes = prop_oneof![Just(1500usize), Just(40usize), 0usize..=3_000, 0usize..=1 << 20];
        let mut rng = proptest::TestRng::deterministic();
        for _ in 0..20_000 {
            let (rate, backlog, bytes) =
                (rates.sample(&mut rng), backlogs.sample(&mut rng), sizes.sample(&mut rng));
            let now = SimTime::from_millis(3);
            let mut probe = Link::new(LinkSpec::rated(rate, SimDuration::ZERO));
            probe.busy_until = now + SimDuration::from_micros(backlog);
            let queued = probe.queued_bytes(now);
            for queue_bytes in [0, 1, queued.saturating_add(bytes).saturating_sub(1)]
                .into_iter()
                .chain([queued.saturating_add(bytes), queued.saturating_add(bytes) + 1])
                .chain([256 * 1024, usize::MAX])
            {
                let spec = LinkSpec { queue_bytes, ..*probe.spec() };
                let mut l = Link::new(spec);
                l.busy_until = probe.busy_until;
                let want_drop = l.queued_bytes(now).saturating_add(bytes) > queue_bytes;
                assert_eq!(
                    l.overflows(now, bytes),
                    want_drop,
                    "rate {rate} backlog {backlog} bytes {bytes} queue {queue_bytes}"
                );
                let want = l.busy_until.max(now) + l.serialization(bytes);
                match l.transmit(now, bytes) {
                    Transmit::Delivered(t) => assert!(!want_drop && t == want),
                    Transmit::Dropped => assert!(want_drop),
                }
            }
        }
        // The memo, through a stream of repeating and fresh sizes.
        for rate in [mbit(16), mbit(1), 7_777_777, 3] {
            let mut l = Link::new(LinkSpec::rated(rate, SimDuration::ZERO));
            for _ in 0..5_000 {
                let bytes = sizes.sample(&mut rng) % 2_000;
                assert_eq!(l.serialization_memo(bytes), l.serialization(bytes), "{rate} {bytes}");
            }
        }
    }

    /// An exact quotient is where an integer `ceil` would differ from the
    /// `f64` formula the memo keeps.
    #[test]
    fn memo_keeps_the_f64_serialization() {
        let mut l = Link::new(LinkSpec::rated(mbit(16), SimDuration::ZERO));
        for _ in 0..3 {
            assert_eq!(l.serialization_memo(1500), l.serialization(1500));
            assert_eq!(l.serialization_memo(1500).as_micros(), 750);
        }
    }

    #[test]
    fn queue_drains_over_time() {
        let mut l = Link::new(LinkSpec {
            rate_bps: Some(mbit(1)),
            delay: SimDuration::ZERO,
            queue_bytes: 4500,
        });
        for _ in 0..3 {
            assert!(matches!(l.transmit(SimTime::ZERO, 1500), Transmit::Delivered(_)));
        }
        assert!(matches!(l.transmit(SimTime::ZERO, 1500), Transmit::Dropped));
        // 1500 B at 1 Mbit/s = 12 ms per packet; after 24 ms two have left.
        let later = SimTime::from_millis(24);
        assert!(l.queued_bytes(later) <= 1500);
        assert!(matches!(l.transmit(later, 1500), Transmit::Delivered(_)));
    }
}
