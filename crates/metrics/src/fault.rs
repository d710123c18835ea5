//! Loss-recovery and fault-tolerance aggregation.
//!
//! The netsim's fault injection (`h2push-netsim::FaultSpec`) produces
//! per-run packet counters, and the hardened browser produces per-run
//! recovery counters (retries, timeouts, connection errors, partial
//! loads). This module folds those per-run observations into the
//! aggregate rates an experiment reports — e.g. "at 2 % Gilbert–Elliott
//! loss, 4.1 % of packets were retransmitted and 3 % of loads ended
//! partial". Everything is plain numbers so this crate stays free of
//! simulator dependencies.

/// One run's worth of fault/recovery counters, as reported by the network
/// (`NetStats`) and the browser (`LoadResult`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultObservation {
    /// Data packets offered to the lossy access link.
    pub data_packets: u64,
    /// Packets dropped, for any reason (queue, random, fault).
    pub drops: u64,
    /// RTO retransmissions the TCP model performed.
    pub retransmits: u64,
    /// Fetches the browser re-issued after a timeout or error.
    pub retries: u64,
    /// Per-resource timeouts that fired.
    pub timeouts: u64,
    /// Transport connections lost to protocol errors.
    pub conn_errors: u64,
    /// Resources given up on entirely.
    pub failed_resources: u64,
    /// The load ended partial (deadline hit or resources failed).
    pub partial: bool,
}

/// Aggregate loss-recovery statistics over many runs.
///
/// `record` each run's [`FaultObservation`]; read the derived rates once
/// all runs are in. All rates are safe on an empty accumulator (they
/// return 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossRecovery {
    runs: u64,
    data_packets: u64,
    drops: u64,
    retransmits: u64,
    retries: u64,
    timeouts: u64,
    conn_errors: u64,
    failed_resources: u64,
    partial_loads: u64,
}

impl LossRecovery {
    /// A fresh, empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one run into the aggregate.
    pub fn record(&mut self, obs: FaultObservation) {
        self.runs += 1;
        self.data_packets += obs.data_packets;
        self.drops += obs.drops;
        self.retransmits += obs.retransmits;
        self.retries += obs.retries;
        self.timeouts += obs.timeouts;
        self.conn_errors += obs.conn_errors;
        self.failed_resources += obs.failed_resources;
        self.partial_loads += u64::from(obs.partial);
    }

    /// Number of runs recorded.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total packets dropped across all runs.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Total RTO retransmissions across all runs.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Observed packet-loss rate: drops / data packets.
    pub fn loss_rate(&self) -> f64 {
        ratio(self.drops, self.data_packets)
    }

    /// Retransmission rate: RTO retransmits / data packets.
    pub fn retransmit_rate(&self) -> f64 {
        ratio(self.retransmits, self.data_packets)
    }

    /// Share of runs that ended as partial loads (0..=1).
    pub fn partial_share(&self) -> f64 {
        ratio(self.partial_loads, self.runs)
    }

    /// Mean browser retries per run.
    pub fn mean_retries(&self) -> f64 {
        ratio(self.retries, self.runs)
    }

    /// True when no fault or recovery activity was observed at all — the
    /// zero-fault acceptance check ("a clean run records nothing").
    pub fn is_clean(&self) -> bool {
        self.drops == 0
            && self.retransmits == 0
            && self.retries == 0
            && self.timeouts == 0
            && self.conn_errors == 0
            && self.failed_resources == 0
            && self.partial_loads == 0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_accumulator_reports_zero_rates() {
        let agg = LossRecovery::new();
        assert_eq!(agg.runs(), 0);
        assert_eq!(agg.loss_rate(), 0.0);
        assert_eq!(agg.retransmit_rate(), 0.0);
        assert_eq!(agg.partial_share(), 0.0);
        assert!(agg.is_clean());
    }

    #[test]
    fn rates_follow_recorded_observations() {
        let mut agg = LossRecovery::new();
        agg.record(FaultObservation {
            data_packets: 1_000,
            drops: 20,
            retransmits: 20,
            retries: 2,
            timeouts: 1,
            conn_errors: 0,
            failed_resources: 0,
            partial: false,
        });
        agg.record(FaultObservation {
            data_packets: 1_000,
            drops: 0,
            retransmits: 0,
            retries: 0,
            timeouts: 0,
            conn_errors: 1,
            failed_resources: 2,
            partial: true,
        });
        assert_eq!(agg.runs(), 2);
        assert!((agg.loss_rate() - 0.01).abs() < 1e-12);
        assert!((agg.retransmit_rate() - 0.01).abs() < 1e-12);
        assert_eq!(agg.partial_share(), 0.5);
        assert_eq!(agg.mean_retries(), 1.0);
        assert_eq!((agg.timeouts, agg.conn_errors, agg.failed_resources), (1, 1, 2));
        assert!(!agg.is_clean());
    }

    #[test]
    fn clean_runs_stay_clean() {
        let mut agg = LossRecovery::new();
        for _ in 0..31 {
            agg.record(FaultObservation { data_packets: 10_000, ..Default::default() });
        }
        assert!(agg.is_clean());
        assert_eq!(agg.runs(), 31);
    }
}
