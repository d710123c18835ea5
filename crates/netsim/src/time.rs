//! Virtual time for the discrete-event simulation.
//!
//! The whole reproduction runs on a deterministic virtual clock (cf. the
//! paper's §4.1 goal of removing network variability). Time is measured in
//! integer microseconds; one microsecond resolution is fine-grained enough to
//! order back-to-back 1500-byte packets on a 16 Mbit/s link (≈ 750 µs each)
//! while keeping arithmetic exact.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// This instant expressed as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed as whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from fractional seconds (used when deriving serialization
    /// delay from a bit rate). Rounds up so a nonzero transfer never takes
    /// zero time.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs * 1e6).ceil().max(0.0) as u64)
    }

    /// This span expressed as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This span expressed as whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Multiply the duration by an integer factor.
    pub fn times(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millis_round_trip() {
        let t = SimTime::from_millis(50);
        assert_eq!(t.as_micros(), 50_000);
        assert_eq!(t.as_millis_f64(), 50.0);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
    }

    #[test]
    fn since_saturates() {
        let early = SimTime::from_millis(5);
        let late = SimTime::from_millis(9);
        assert_eq!(early.since(late), SimDuration::ZERO);
        assert_eq!(late.since(early), SimDuration::from_millis(4));
    }

    #[test]
    fn serialization_delay_rounds_up() {
        // 1500 bytes at 16 Mbit/s = 750 µs exactly.
        let d = SimDuration::from_secs_f64(1500.0 * 8.0 / 16_000_000.0);
        assert_eq!(d.as_micros(), 750);
        // A tiny but nonzero transfer must not take zero time.
        let d = SimDuration::from_secs_f64(1e-9);
        assert!(d.as_micros() >= 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(1)), "1.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(1500)), "1.500ms");
    }
}
