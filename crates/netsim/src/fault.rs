//! Deterministic fault injection.
//!
//! The paper evaluates push only under a loss-free emulated DSL link, yet
//! loss is exactly where HTTP/2 multiplexing — and therefore push — wins
//! or loses (cf. *Domain-Sharding for Faster HTTP/2 in Lossy Cellular
//! Networks*). A [`FaultSpec`] describes the one process injected on the
//! access links: **Gilbert–Elliott** burst loss (a two-state Markov chain
//! producing the bursty loss real radio links exhibit), on top of the base
//! [`NetworkSpec::loss`](crate::NetworkSpec::loss) Bernoulli draw.
//!
//! The process draws from a dedicated xorshift stream per link direction,
//! seeded from the run's [`NetworkSpec`](crate::NetworkSpec) seed and
//! *separate* from the base jitter/loss stream — so the zero-fault
//! [`FaultSpec::default`] consumes no randomness and reproduces fault-free
//! runs bit-identically, while any seeded fault profile replays
//! bit-identically across reruns.

/// The packet-loss process applied to data packets on the access links.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No injected loss.
    #[default]
    None,
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

/// Everything injected into one run. `FaultSpec::default()` injects
/// nothing and is guaranteed not to perturb fault-free runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Loss process on the access links (data packets only — the base
    /// simulator's documented simplification that control segments always
    /// get through is kept).
    pub loss: LossModel,
}

impl FaultSpec {
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
        }
    }
}

/// xorshift64* — a tiny deterministic generator so the crate stays
/// dependency-free. The network's base jitter/loss stream and each
/// direction's fault stream are separate instances, so enabling faults
/// never perturbs the base draws.
#[derive(Debug, Clone)]
pub(crate) struct XorShift(u64);

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15).max(1))
    }

    pub(crate) fn next_f64(&mut self) -> f64 {
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
pub(crate) struct FaultState {
    rng: XorShift,
    in_bad: bool,
}

impl FaultState {
    /// Seed one direction's fault process.
    pub(crate) fn new(seed: u64) -> Self {
        FaultState { rng: XorShift::new(seed), in_bad: false }
    }

    /// Advance the loss process one packet; returns whether to drop it.
    /// Consumes randomness only when a loss model is configured.
    pub(crate) fn drop_packet(&mut self, spec: &FaultSpec) -> bool {
        match spec.loss {
            LossModel::None => false,
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
}

/// Counters of everything the network did under (and against) faults.
/// Loss-recovery behaviour — RTO retransmits — is what the chaos
/// experiments report alongside PLT/SpeedIndex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Data packets handed to the access links.
    pub data_packets: u64,
    /// Data packets lost to drop-tail queue overflow.
    pub drops_queue: u64,
    /// Data packets lost to the base `NetworkSpec::loss` Bernoulli draw.
    pub drops_random: u64,
    /// Data packets lost to the injected [`LossModel`].
    pub drops_fault: u64,
    /// Always 0: the simulator injects no link outages. Kept because the
    /// benchmark's outcome fingerprint reads it.
    pub drops_flap: u64,
    /// Always 0: the simulator holds no packet back for reordering. Kept
    /// because the benchmark's outcome fingerprint and its
    /// `netsim.reordered_per_replay` counter read it.
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
        assert_eq!(FaultSpec::default().loss, LossModel::None);
    }

    #[test]
    fn noop_spec_consumes_no_randomness() {
        let spec = FaultSpec::default();
        let mut a = FaultState::new(1);
        let b = FaultState::new(1);
        for _ in 0..100 {
            assert!(!a.drop_packet(&spec));
        }
        // The RNG never advanced.
        assert_eq!(a.rng.0, b.rng.0);
    }

    #[test]
    fn gilbert_elliott_is_bursty_at_the_target_rate() {
        let spec = FaultSpec::gilbert_elliott(0.02);
        let LossModel::GilbertElliott { p_enter_bad, p_exit_bad, loss_good, loss_bad } = spec.loss
        else {
            panic!("gilbert_elliott builds a Gilbert–Elliott model: {spec:?}");
        };
        // Stationary mean: π_bad · loss_bad + π_good · loss_good.
        let pi_bad = p_enter_bad / (p_enter_bad + p_exit_bad);
        let mean = (1.0 - pi_bad) * loss_good + pi_bad * loss_bad;
        assert!((mean - 0.02).abs() < 1e-9, "stationary mean {mean}");
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
