//! The run protocol both binaries follow: set-up several times, one
//! untimed warm-up pass, timed passes of a fixed operation count until
//! the requested seconds are spent, then one counted pass.
//!
//! Inside a pass every **unit** — one distinct operation: one (cell, rep)
//! replay, one page load, one sweep — is timed on its own, every time it
//! runs. A unit's cost is the [`low_percentile`] of its samples in the pass
//! where that is lowest, and a workload's cost is the sum over its units;
//! see `low_percentile` for why not the median.

use crate::cli::Args;
use crate::procfs::cpu_ns;
use crate::stats::low_percentile;
use std::time::Instant;

/// A run sets up at least this many times (the median is `setup_s`; the
/// last set-up is the one measured on) …
pub const MIN_SETUPS: usize = 5;
/// … and goes on, up to this many times, until [`SETUP_SECONDS`] are
/// spent: a 2 ms set-up needs more samples than a 250 ms one.
pub const MAX_SETUPS: usize = 40;
/// See [`MAX_SETUPS`].
pub const SETUP_SECONDS: f64 = 0.5;

/// Timed passes a run makes at least, whatever `--seconds` says.
pub const MIN_PASSES: usize = 3;

/// How much work a pass does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Repetitions per cell (31, the paper's; 3 in smoke mode).
    pub reps: usize,
    /// Page loads (and, separately, TTFPB probes) per `live` pass.
    pub loads: usize,
    /// Timed passes at least.
    pub min_passes: usize,
    /// Seconds of timed passes (`--seconds`; none beyond the one pass in
    /// smoke mode).
    pub seconds: f64,
}

impl Scale {
    /// The scale `args` asks for.
    pub fn of(args: &Args) -> Scale {
        if args.smoke {
            Scale { reps: crate::workloads::REPS / 10, loads: 50, min_passes: 1, seconds: 0.0 }
        } else {
            Scale {
                reps: crate::workloads::REPS,
                loads: 500,
                min_passes: MIN_PASSES,
                seconds: args.seconds,
            }
        }
    }
}

/// Wall and process-CPU seconds (user + system, every thread) of one
/// execution of one unit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Sample {
    wall_s: f64,
    cpu_s: f64,
}

/// One timed pass, as a whole.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Host seconds on the clock.
    pub wall_s: f64,
    /// Operations the pass completed.
    pub ops: u64,
}

impl Pass {
    /// Operations per host second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// Times the operations under test, and only them: checks between two
/// operations stay off the clock.
#[derive(Debug, Default)]
pub struct Timer {
    /// Samples per unit and recorded pass.
    units: Vec<Vec<Vec<Sample>>>,
    /// Operations one execution of each unit completes.
    ops: Vec<u64>,
    recording: bool,
    pass_wall_s: f64,
}

impl Timer {
    /// A timer for units that complete `ops[i]` operations each.
    pub fn new(ops: Vec<u64>) -> Timer {
        Timer { units: vec![Vec::new(); ops.len()], ops, recording: false, pass_wall_s: 0.0 }
    }

    /// Run `f`, one execution of unit `unit`, on the clock.
    pub fn time<T>(&mut self, unit: usize, f: impl FnOnce() -> T) -> T {
        let (cpu, wall) = (cpu_ns(), Instant::now());
        let out = f();
        let sample =
            Sample { wall_s: wall.elapsed().as_secs_f64(), cpu_s: (cpu_ns() - cpu) as f64 / 1e9 };
        self.pass_wall_s += sample.wall_s;
        if self.recording {
            self.units[unit].last_mut().expect("a recorded pass is open").push(sample);
        }
        out
    }

    /// Run one pass — `f` returns how many operations it completed —
    /// keeping its samples only if `record`.
    pub fn pass(&mut self, record: bool, f: impl FnOnce(&mut Timer) -> u64) -> Pass {
        self.recording = record;
        self.pass_wall_s = 0.0;
        if record {
            self.units.iter_mut().for_each(|passes| passes.push(Vec::new()));
        }
        let ops = f(self);
        self.recording = false;
        Pass { wall_s: self.pass_wall_s, ops }
    }

    /// Timed passes, closed loop: the next starts when the previous
    /// returns, until `seconds` have gone by and `min_passes` are in.
    pub fn timed_passes(
        &mut self,
        seconds: f64,
        min_passes: usize,
        mut f: impl FnMut(&mut Timer) -> u64,
    ) -> Vec<Pass> {
        let start = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
            passes.push(self.pass(true, &mut f));
        }
        passes
    }

    /// Operations one round over every unit completes.
    pub fn ops_per_round(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Σ over units of the unit's cost: its low percentile within a pass, in
    /// the pass where that is lowest. The host's slow spells last from a
    /// fraction of a second to minutes; one reasonably quiet pass is
    /// enough for a unit to show what it costs undisturbed.
    fn round_cost(&self, of: impl Fn(&Sample) -> f64) -> f64 {
        self.units
            .iter()
            .map(|passes| {
                passes
                    .iter()
                    .filter(|samples| !samples.is_empty())
                    .map(|samples| low_percentile(&samples.iter().map(&of).collect::<Vec<_>>()))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum()
    }

    /// Operations per host second: one round's operations over the sum of
    /// every unit's cost in wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_round() as f64 / self.round_cost(|s| s.wall_s)
    }

    /// CPU milliseconds per operation, from every unit's cost in CPU
    /// time.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.round_cost(|s| s.cpu_s) * 1e3 / self.ops_per_round() as f64
    }

    /// Wall seconds of every recorded sample of `unit`, pass by pass.
    pub fn wall_samples(&self, unit: usize) -> Vec<Vec<f64>> {
        self.units[unit].iter().map(|pass| pass.iter().map(|s| s.wall_s).collect()).collect()
    }
}

/// Set up repeatedly (see [`MIN_SETUPS`]); returns the last state and
/// every duration in seconds.
pub fn set_up<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(MAX_SETUPS);
    let mut state = None;
    while times.len() < MIN_SETUPS
        || (times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(state.take()); // the previous state's teardown is not set-up time
        let t = Instant::now();
        state = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("MIN_SETUPS is at least one"), times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn passes_run_until_both_floors_are_met() {
        let mut timer = Timer::new(vec![7]);
        let mut calls = 0;
        let passes = timer.timed_passes(0.0, 3, |t| {
            calls += 1;
            t.time(0, || std::thread::sleep(Duration::from_millis(2)));
            7
        });
        assert_eq!((passes.len(), calls), (3, 3));
        assert!(passes.iter().all(|p| p.ops == 7 && p.wall_s >= 0.002));
        let long = timer.timed_passes(0.05, 1, |t| {
            t.time(0, || std::thread::sleep(Duration::from_millis(10)));
            7
        });
        assert!(long.len() >= 4, "{}", long.len());
    }

    #[test]
    fn clock_excludes_what_runs_between_operations() {
        let mut timer = Timer::new(vec![1]);
        let p = timer.pass(true, |t| {
            std::thread::sleep(Duration::from_millis(30));
            t.time(0, || ());
            1
        });
        assert!(p.wall_s < 0.02, "{}", p.wall_s);
    }

    #[test]
    fn cost_is_the_sum_of_each_units_best_pass() {
        let mut timer = Timer::new(vec![1, 2]);
        // Unit 0 sleeps 4 ms once and 1 ms twice; unit 1 always 2 ms.
        for ms in [4, 1, 1] {
            timer.pass(true, |t| {
                t.time(0, || std::thread::sleep(Duration::from_millis(ms)));
                t.time(1, || std::thread::sleep(Duration::from_millis(2)));
                3
            });
        }
        // An unrecorded pass leaves no samples behind.
        timer.pass(false, |t| {
            t.time(0, || ());
            1
        });
        assert_eq!(timer.wall_samples(0), timer.wall_samples(0));
        assert_eq!(timer.wall_samples(0).iter().map(Vec::len).collect::<Vec<_>>(), [1, 1, 1]);
        assert_eq!(timer.ops_per_round(), 3);
        // 3 operations in (1 + 2) ms, give or take timer slack.
        let per_s = timer.ops_per_s();
        assert!((500.0..=1000.0).contains(&per_s), "{per_s}");
        assert!(timer.cpu_ms_per_op() < 1.0, "sleeping burns no CPU");
    }

    #[test]
    fn set_up_keeps_the_last_state() {
        let mut n = 0;
        let (state, times) = set_up(|| {
            n += 1;
            n
        });
        assert_eq!((state, times.len()), (MAX_SETUPS, MAX_SETUPS));
    }
}
