//! Chaos integration suite: seeded fault profiles × synthetic sites.
//!
//! The robustness acceptance checks, end to end through the public API:
//! every profile of `loss-sweep`'s matrix completes on generated sites
//! without a panic, reruns of the same seed are bit-identical, and the
//! zero-fault control profile reproduces the plain harness exactly.

use h2push_strategies::{push_all, Strategy};
use h2push_testbed::{apply_profile, run_fault_matrix, FaultProfile, Mode, ReplayInputs, RunPlan};
use h2push_webmodel::{generate_site, CorpusKind};

fn site(seed: u64) -> ReplayInputs {
    ReplayInputs::from(generate_site(CorpusKind::Random, seed))
}

/// The profiles `h2push experiment loss-sweep` runs: the control plus
/// Gilbert–Elliott loss at 0.5, 1, 2 and 5 %.
fn loss_sweep_profiles() -> Vec<FaultProfile> {
    std::iter::once(FaultProfile::none())
        .chain([0.005, 0.01, 0.02, 0.05].into_iter().map(FaultProfile::gilbert_elliott))
        .collect()
}

#[test]
fn fault_matrix_completes_on_synthetic_sites_and_reruns_bit_identically() {
    let inputs = site(11);
    let strategies = vec![Strategy::NoPush, push_all(&inputs.page, &[])];
    let profiles = loss_sweep_profiles();
    let mut lost = Vec::new();
    let cells_a = run_fault_matrix(&inputs, &strategies, &profiles, 2, 500, &mut lost);
    let cells_b = run_fault_matrix(&inputs, &strategies, &profiles, 2, 500, &mut lost);
    assert!(lost.is_empty(), "{lost:?}");
    assert_eq!(cells_a.len(), profiles.len() * strategies.len());
    for (a, b) in cells_a.iter().zip(&cells_b) {
        // Bit-identical rerun: every aggregate agrees exactly.
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.completed, b.completed, "{}/{}", a.profile, a.strategy);
        assert_eq!(a.median_plt, b.median_plt, "{}/{}", a.profile, a.strategy);
        assert_eq!(a.partial_loads, b.partial_loads);
        assert_eq!(a.recovery, b.recovery);
        // No panics and no lost runs anywhere in the matrix.
        assert_eq!(a.completed, a.runs, "{}/{} dropped runs", a.profile, a.strategy);
    }
    // The control cells record no fault activity at all.
    for cell in cells_a.iter().filter(|c| c.profile == "none") {
        assert!(cell.recovery.is_clean(), "control cell {} not clean", cell.strategy);
        assert_eq!(cell.partial_loads, 0);
    }
    // The lossy profiles actually exercised recovery somewhere.
    let faulted_drops: u64 =
        cells_a.iter().filter(|c| c.profile != "none").map(|c| c.recovery.drops()).sum();
    assert!(faulted_drops > 0, "fault matrix never dropped a packet");
}

#[test]
fn zero_fault_profile_reproduces_the_plain_harness_on_a_synthetic_site() {
    let inputs = site(3);
    let control = FaultProfile::none();
    for strategy in [Strategy::NoPush, push_all(&inputs.page, &[])].map(std::sync::Arc::new) {
        for seed in [0u64, 13] {
            let derived =
                RunPlan::new(&inputs).strategy(strategy.clone()).mode(Mode::Testbed).seed(seed);
            let plain = derived.config_for(0);
            let mut faulted = derived.config_for(0);
            apply_profile(&mut faulted, &control);
            let run = |cfg| RunPlan::new(&inputs).config(cfg).run_one().unwrap().outcome;
            let (a, b) = (run(plain), run(faulted));
            assert_eq!(a.load, b.load);
            assert_eq!(a.trace.order, b.trace.order);
            assert_eq!(a.server_pushed_bytes, b.server_pushed_bytes);
            assert_eq!(a.net, b.net);
        }
    }
}

#[test]
fn every_default_profile_survives_a_push_heavy_site() {
    // A second site, push-heavy strategy, one run per profile: nothing may
    // panic and every outcome must carry coherent counters.
    let inputs = site(29);
    let strategy = push_all(&inputs.page, &[]);
    for profile in loss_sweep_profiles() {
        let name = profile.name.clone();
        let out = RunPlan::new(&inputs)
            .strategy(strategy.clone())
            .seed(901)
            .faults(profile)
            .run_one()
            .unwrap_or_else(|e| panic!("profile {name} failed: {e}"))
            .outcome;
        assert!(out.net.data_packets > 0);
        assert!(out.net.drops_total() <= out.net.data_packets);
        assert_eq!((out.net.drops_flap, out.net.reordered), (0, 0), "profile {name}");
        assert!(out.load.onload.is_some(), "profile {name}: no onload");
    }
}
