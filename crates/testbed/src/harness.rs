//! The repetition harness: 31 runs per configuration, testbed vs internet
//! conditions (§4.1).
//!
//! * **Testbed mode** keeps the network deterministic; the only per-run
//!   variation is the seeded micro-jitter of packet timing and a small
//!   client-side CPU factor — exactly the residual variability the paper's
//!   controlled testbed still exhibits (Fig. 2a: σx̄ < 50 ms for 85 % of
//!   sites).
//! * **Internet mode** additionally varies RTT, bandwidth, per-origin
//!   distance and server think time per run, and adds a little loss —
//!   recreating the wild-measurement variance the testbed removes.

use crate::plan::RunPlan;
#[cfg(test)]
use crate::replay::ReplayOutcome;
use crate::replay::{ReplayConfig, ReplayInputs};
use crate::sweep::run_cells;
use h2push_netsim::SimDuration;
use h2push_strategies::{majority_order, Strategy};
use h2push_webmodel::{Page, ResourceId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Where the measurement runs: the controlled testbed or "the Internet".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Deterministic replay (the paper's contribution).
    Testbed,
    /// Stochastic conditions approximating live measurements.
    Internet,
}

/// The paper repeats every configuration 31 times.
pub const PAPER_RUNS: usize = 31;

/// Build the per-run replay configuration for `(mode, run_seed)`: what
/// [`RunPlan::config_for`] derives for a rep. The strategy is shared by
/// reference count — deriving a config never deep-clones the order
/// vectors, however many reps a plan fans out.
pub(crate) fn run_config(
    strategy: &Arc<Strategy>,
    mode: Mode,
    run_seed: u64,
    page: &Page,
) -> ReplayConfig {
    let mut cfg = ReplayConfig::testbed(Arc::clone(strategy));
    let mut rng = StdRng::seed_from_u64(run_seed);
    cfg.network.seed = run_seed;
    match mode {
        Mode::Testbed => {
            // Client-side processing is the only real variance left.
            cfg.browser.cpu_scale = rng.gen_range(0.97..1.03);
        }
        Mode::Internet => {
            // RTT varies run to run (routing, queueing); bandwidth too.
            let rtt_factor: f64 = rng.gen_range(0.8..2.2);
            let bw_factor: f64 = rng.gen_range(0.55..1.25);
            let scale_delay = |d: SimDuration| {
                SimDuration::from_micros((d.as_micros() as f64 * rtt_factor) as u64)
            };
            cfg.network.client_down.delay = scale_delay(cfg.network.client_down.delay);
            cfg.network.client_up.delay = scale_delay(cfg.network.client_up.delay);
            cfg.network.client_down.rate_bps =
                cfg.network.client_down.rate_bps.map(|r| (r as f64 * bw_factor) as u64);
            cfg.network.loss = rng.gen_range(0.0..0.004);
            // Third parties are scattered across the planet.
            for g in 0..page.server_group_count() {
                if g != page.server_group_of(ResourceId(0)) {
                    cfg.server_extra_delay
                        .insert(g, SimDuration::from_micros(rng.gen_range(0..90_000)));
                }
            }
            cfg.server_think = SimDuration::from_micros(rng.gen_range(0..15_000));
            cfg.browser.cpu_scale = rng.gen_range(0.9..1.25);
        }
    }
    cfg
}

/// §4.2 "Computing the Push Order", for every site at once: replay each
/// without push `runs` times, trace the requests its main server sees,
/// majority-vote the order — all (site × run) no-push replays as one
/// fan-out on the executor, one order per site. An order holds only
/// pushable resources (it is computed on the initial connection to the
/// origin server, so everything in it is pushable). A replay that fails
/// casts no vote; cells that lose a rep are reported in `lost`
/// ([`run_cells`]).
pub fn push_orders(
    sites: &[ReplayInputs],
    runs: usize,
    seed: u64,
    lost: &mut Vec<String>,
) -> Vec<Vec<ResourceId>> {
    let cells: Vec<RunPlan> =
        sites.iter().map(|site| RunPlan::new(site).reps(runs).seed(seed)).collect();
    run_cells(&cells, |run| run.outcome.trace, lost)
        .iter()
        .map(|traces| {
            majority_order(traces).into_iter().filter(|&id| id != ResourceId(0)).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    fn runs(
        inputs: &ReplayInputs,
        strategy: &Strategy,
        mode: Mode,
        reps: usize,
        seed: u64,
        serial: bool,
    ) -> Vec<ReplayOutcome> {
        let plan = RunPlan::new(inputs).strategy(strategy.clone()).mode(mode).reps(reps).seed(seed);
        let plan = if serial { plan.serial() } else { plan };
        plan.run().into_outcomes()
    }

    fn page() -> Page {
        let mut b = PageBuilder::new("harness-par", "hp.test", 45_000, 4_000);
        let third = b.origin("cdn.other.net", 1, false);
        b.resource(ResourceSpec::css(0, 15_000, 300, 0.4));
        b.resource(ResourceSpec::js(0, 20_000, 1_000, 12_000));
        b.resource(ResourceSpec::image(0, 25_000, 9_000, true, 1.5));
        b.resource(ResourceSpec::js_async(third, 8_000, 25_000, 4_000));
        b.text_paint(8_000, 1.0);
        b.build()
    }

    fn assert_identical(par: &[ReplayOutcome], ser: &[ReplayOutcome]) {
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(ser) {
            assert_eq!(p.load.plt(), s.load.plt());
            assert_eq!(p.load.speed_index(), s.load.speed_index());
            assert_eq!(p.trace.order, s.trace.order);
            assert_eq!(p.server_pushed_bytes, s.server_pushed_bytes);
        }
    }

    #[test]
    fn parallel_matches_serial_in_testbed_mode() {
        let inputs = ReplayInputs::from(page());
        let strategy = Strategy::NoPush;
        let par = runs(&inputs, &strategy, Mode::Testbed, 9, 42, false);
        let ser = runs(&inputs, &strategy, Mode::Testbed, 9, 42, true);
        assert_identical(&par, &ser);
    }

    #[test]
    fn parallel_matches_serial_in_internet_mode() {
        let inputs = ReplayInputs::from(page());
        let strategy = Strategy::PushList { order: vec![ResourceId(1), ResourceId(2)] };
        let par = runs(&inputs, &strategy, Mode::Internet, 9, 7, false);
        let ser = runs(&inputs, &strategy, Mode::Internet, 9, 7, true);
        assert_identical(&par, &ser);
    }

    #[test]
    fn plan_from_page_equals_shared_inputs_path() {
        let p = page();
        let via_page =
            RunPlan::new(&p).strategy(Strategy::NoPush).reps(3).seed(0).run().into_outcomes();
        let inputs = ReplayInputs::from(p);
        let via_inputs = runs(&inputs, &Strategy::NoPush, Mode::Testbed, 3, 0, false);
        assert_identical(&via_page, &via_inputs);
    }
}
