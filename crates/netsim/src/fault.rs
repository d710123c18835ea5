//! Deterministic fault injection.
//!
//! The paper evaluates push only under a loss-free emulated DSL link, yet
//! loss and jitter are exactly where HTTP/2 multiplexing — and therefore
//! push — wins or loses (cf. *Domain-Sharding for Faster HTTP/2 in Lossy
//! Cellular Networks*). A [`FaultSpec`] describes everything a hostile
//! access link can do to the replay:
//!
//! * **Random loss** — Bernoulli (independent per packet) or
//!   Gilbert–Elliott (a two-state Markov chain producing the bursty loss
//!   real radio links exhibit);
//! * **Bounded extra jitter** — uniform per-packet timing noise on top of
//!   the spec's base jitter;
//! * **Reordering** — a packet is held back `reorder_hold` long; packets
//!   behind it are released in order at its arrival, modelling TCP's
//!   reassembly queue (head-of-line blocking);
//! * **Link flaps** — wall-clock windows during which the access link
//!   drops every data packet (mid-load outages).
//!
//! Everything is driven by a dedicated xorshift stream seeded from the
//! run's [`NetworkSpec`](crate::NetworkSpec) seed, *separate* from the
//! base jitter/loss stream — so the zero-fault [`FaultSpec::default`]
//! consumes no randomness and reproduces fault-free runs bit-identically,
//! while any seeded fault profile replays bit-identically across reruns.

use crate::time::{SimDuration, SimTime};

/// The packet-loss process applied to data packets on the access links.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No injected loss.
    #[default]
    None,
    /// Independent per-packet loss with probability `rate`.
    Bernoulli {
        /// Drop probability per data packet.
        rate: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) burst loss: the link is either
    /// in a *good* or a *bad* state; per packet it transitions
    /// good→bad with `p_enter_bad` and bad→good with `p_exit_bad`, and
    /// drops with `loss_good` / `loss_bad` respectively.
    GilbertElliott {
        /// P(good → bad) per packet.
        p_enter_bad: f64,
        /// P(bad → good) per packet.
        p_exit_bad: f64,
        /// Drop probability while in the good state.
        loss_good: f64,
        /// Drop probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Average stationary loss rate of the model.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { rate } => rate,
            LossModel::GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad } => {
                let denom = p_enter_bad + p_exit_bad;
                if denom <= 0.0 {
                    return loss_good;
                }
                let pi_bad = p_enter_bad / denom;
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }
}

/// One outage window on the access links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFlap {
    /// Start of the outage (simulation time).
    pub start: SimTime,
    /// Length of the outage.
    pub duration: SimDuration,
}

impl LinkFlap {
    /// Whether `now` falls inside the outage.
    pub fn covers(&self, now: SimTime) -> bool {
        now >= self.start && now < self.start + self.duration
    }

    /// End of the outage.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// Everything injected into one run. `FaultSpec::default()` injects
/// nothing and is guaranteed not to perturb fault-free runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Loss process on the access links (data packets only — the base
    /// simulator's documented simplification that control segments always
    /// get through is kept).
    pub loss: LossModel,
    /// Maximum uniform *extra* per-packet jitter, on top of
    /// the network's base jitter (120 µs).
    pub extra_jitter: SimDuration,
    /// Probability that a data packet is held back (reordered).
    pub reorder: f64,
    /// How long a reordered packet is held. Packets behind it queue in
    /// the receiver's reassembly buffer and are released at its arrival.
    pub reorder_hold: SimDuration,
    /// Outage windows during which the access links drop all data.
    pub flaps: Vec<LinkFlap>,
}

impl FaultSpec {
    /// True when the spec injects nothing at all (the hot path checks
    /// this once per packet instead of matching every knob).
    pub fn is_noop(&self) -> bool {
        matches!(self.loss, LossModel::None)
            && self.extra_jitter.as_micros() == 0
            && self.reorder <= 0.0
            && self.flaps.is_empty()
    }

    /// Independent loss at `rate`.
    pub fn bernoulli(rate: f64) -> Self {
        FaultSpec { loss: LossModel::Bernoulli { rate }, ..Default::default() }
    }

    /// Bursty Gilbert–Elliott loss averaging `rate`, with mean burst
    /// length of 8 packets and a 50 % in-burst drop probability — the
    /// classic parametrisation for lossy radio links.
    pub fn gilbert_elliott(rate: f64) -> Self {
        let loss_bad = 0.5;
        let p_exit_bad = 1.0 / 8.0;
        // pi_bad * loss_bad = rate  ⇒  pi_bad = rate / loss_bad.
        let pi_bad = (rate / loss_bad).min(0.9);
        let p_enter_bad = p_exit_bad * pi_bad / (1.0 - pi_bad);
        FaultSpec {
            loss: LossModel::GilbertElliott { p_enter_bad, p_exit_bad, loss_good: 0.0, loss_bad },
            ..Default::default()
        }
    }

    /// Uniform extra jitter up to `max`, plus occasional reordering.
    pub fn jittery(max: SimDuration) -> Self {
        FaultSpec {
            extra_jitter: max,
            reorder: 0.01,
            reorder_hold: SimDuration::from_micros(2 * max.as_micros()),
            ..Default::default()
        }
    }

    /// A single mid-load outage.
    pub fn flap(start: SimTime, duration: SimDuration) -> Self {
        FaultSpec { flaps: vec![LinkFlap { start, duration }], ..Default::default() }
    }

    /// The flap (if any) covering `now`.
    pub fn active_flap(&self, now: SimTime) -> Option<&LinkFlap> {
        self.flaps.iter().find(|f| f.covers(now))
    }
}

/// xorshift64* — same tiny generator the base simulator uses; a separate
/// instance keeps the fault stream independent of the base jitter/loss
/// stream so enabling faults never perturbs the base draws.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15).max(1))
    }

    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Per-direction fault process state (the Gilbert–Elliott chain of the up
/// and down links fade independently, like real radio channels).
#[derive(Debug, Clone)]
pub struct FaultState {
    rng: XorShift,
    in_bad: bool,
}

impl FaultState {
    /// Seed one direction's fault process.
    pub fn new(seed: u64) -> Self {
        FaultState { rng: XorShift::new(seed), in_bad: false }
    }

    /// Advance the loss process one packet; returns whether to drop it.
    /// Consumes randomness only when a loss model is configured.
    pub fn drop_packet(&mut self, spec: &FaultSpec) -> bool {
        match spec.loss {
            LossModel::None => false,
            LossModel::Bernoulli { rate } => rate > 0.0 && self.rng.next_f64() < rate,
            LossModel::GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad } => {
                // Transition, then draw in the new state.
                let p = if self.in_bad { p_exit_bad } else { p_enter_bad };
                if self.rng.next_f64() < p {
                    self.in_bad = !self.in_bad;
                }
                let loss = if self.in_bad { loss_bad } else { loss_good };
                loss > 0.0 && self.rng.next_f64() < loss
            }
        }
    }

    /// Extra jitter for one packet (zero without randomness when
    /// disabled).
    pub fn jitter(&mut self, spec: &FaultSpec) -> SimDuration {
        if spec.extra_jitter.as_micros() == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(
            (self.rng.next_f64() * spec.extra_jitter.as_micros() as f64) as u64,
        )
    }

    /// Whether this packet is held back, and for how long.
    pub fn reorder_hold(&mut self, spec: &FaultSpec) -> Option<SimDuration> {
        if spec.reorder <= 0.0 {
            return None;
        }
        if self.rng.next_f64() < spec.reorder {
            Some(spec.reorder_hold)
        } else {
            None
        }
    }
}

/// Counters of everything the network did under (and against) faults.
/// Loss-recovery behaviour — RTO retransmits, reordering stalls — is what
/// the chaos experiments report alongside PLT/SpeedIndex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Data packets handed to the access links.
    pub data_packets: u64,
    /// Data packets lost to drop-tail queue overflow.
    pub drops_queue: u64,
    /// Data packets lost to the legacy `NetworkSpec::loss` Bernoulli draw.
    pub drops_random: u64,
    /// Data packets lost to the injected [`LossModel`].
    pub drops_fault: u64,
    /// Data packets lost to a [`LinkFlap`] outage.
    pub drops_flap: u64,
    /// Data packets held back by the reordering process.
    pub reordered: u64,
    /// Loss-recovery events: each lost data packet re-entering the send
    /// buffer after its RTO / fast-retransmit delay.
    pub retransmits: u64,
}

impl NetStats {
    /// All drops, regardless of cause.
    pub fn drops_total(&self) -> u64 {
        self.drops_queue + self.drops_random + self.drops_fault + self.drops_flap
    }

    /// Observed loss rate over data packets.
    pub fn loss_rate(&self) -> f64 {
        if self.data_packets == 0 {
            return 0.0;
        }
        self.drops_total() as f64 / self.data_packets as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_noop() {
        assert!(FaultSpec::default().is_noop());
        assert_eq!(FaultSpec::default().loss.mean_rate(), 0.0);
    }

    #[test]
    fn noop_spec_consumes_no_randomness() {
        let spec = FaultSpec::default();
        let mut a = FaultState::new(1);
        let b = FaultState::new(1);
        for _ in 0..100 {
            assert!(!a.drop_packet(&spec));
            assert_eq!(a.jitter(&spec), SimDuration::ZERO);
            assert_eq!(a.reorder_hold(&spec), None);
        }
        // The RNG never advanced.
        assert_eq!(a.rng.0, b.rng.0);
    }

    #[test]
    fn bernoulli_hits_its_rate() {
        let spec = FaultSpec::bernoulli(0.1);
        let mut st = FaultState::new(42);
        let drops = (0..100_000).filter(|_| st.drop_packet(&spec)).count();
        let rate = drops as f64 / 100_000.0;
        assert!((0.09..0.11).contains(&rate), "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_is_bursty_at_the_target_rate() {
        let spec = FaultSpec::gilbert_elliott(0.02);
        assert!((spec.loss.mean_rate() - 0.02).abs() < 1e-9);
        let mut st = FaultState::new(7);
        let outcomes: Vec<bool> = (0..200_000).map(|_| st.drop_packet(&spec)).collect();
        let rate = outcomes.iter().filter(|&&d| d).count() as f64 / outcomes.len() as f64;
        assert!((0.012..0.028).contains(&rate), "rate {rate}");
        // Burstiness: P(drop | previous dropped) far exceeds the marginal.
        let (mut after_drop, mut drop_after_drop) = (0u64, 0u64);
        for w in outcomes.windows(2) {
            if w[0] {
                after_drop += 1;
                if w[1] {
                    drop_after_drop += 1;
                }
            }
        }
        let cond = drop_after_drop as f64 / after_drop as f64;
        assert!(cond > 3.0 * rate, "not bursty: P(drop|drop)={cond} vs {rate}");
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let spec = FaultSpec::gilbert_elliott(0.05);
        let mut a = FaultState::new(9);
        let mut b = FaultState::new(9);
        for _ in 0..10_000 {
            assert_eq!(a.drop_packet(&spec), b.drop_packet(&spec));
        }
    }

    #[test]
    fn flap_windows_cover_exactly_their_interval() {
        let spec = FaultSpec::flap(SimTime::from_millis(100), SimDuration::from_millis(50));
        assert!(spec.active_flap(SimTime::from_millis(99)).is_none());
        assert!(spec.active_flap(SimTime::from_millis(100)).is_some());
        assert!(spec.active_flap(SimTime::from_millis(149)).is_some());
        assert!(spec.active_flap(SimTime::from_millis(150)).is_none());
    }

    #[test]
    fn net_stats_aggregate() {
        let s = NetStats {
            data_packets: 100,
            drops_queue: 1,
            drops_random: 2,
            drops_fault: 3,
            drops_flap: 4,
            reordered: 5,
            retransmits: 10,
        };
        assert_eq!(s.drops_total(), 10);
        assert!((s.loss_rate() - 0.1).abs() < 1e-12);
    }
}
