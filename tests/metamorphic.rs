//! Metamorphic relations of the replay model (ROADMAP "Model sanity"):
//! properties every load must satisfy whatever the page, strategy or
//! access link, checked on generated pages rather than on three hand-made
//! ones. Every replay is an explicit-config [`RunPlan`] cell on the
//! testbed's executor, so a replay that fails shows up in `lost`.
//!
//! A relation that fails is a finding about the model: fix the model, or
//! record the modelling choice in `EXPERIMENTS.md` and assert the weaker
//! form that does hold — the test stays.

use h2push::netsim::NetworkSpec;
use h2push::strategies::{push_all, Strategy};
use h2push::testbed::{run_cells, Mode, ReplayConfig, ReplayInputs, RunPlan};
use h2push::webmodel::{generate_site, CorpusKind};

fn sites() -> Vec<ReplayInputs> {
    [CorpusKind::Top, CorpusKind::Random, CorpusKind::PushUsers]
        .into_iter()
        .flat_map(|kind| (0..8).map(move |seed| generate_site(kind, 9_100 + seed).into()))
        .collect()
}

fn links() -> [(&'static str, NetworkSpec); 4] {
    [
        ("dsl", NetworkSpec::dsl_testbed()),
        ("cable", NetworkSpec::cable()),
        ("fibre", NetworkSpec::fibre()),
        ("cellular", NetworkSpec::cellular()),
    ]
}

/// Every (site, link, strategy ∈ {no push, push all}) condition, with the
/// config `tweak`ed.
fn conditions(
    sites: &[ReplayInputs],
    tweak: impl Fn(&ReplayInputs, &mut ReplayConfig),
) -> Vec<(String, RunPlan)> {
    let mut cells = Vec::new();
    for site in sites {
        for (link, network) in links() {
            for (label, strategy) in
                [("no push", Strategy::NoPush), ("push all", push_all(&site.page, &[]))]
            {
                let mut cfg = ReplayConfig::testbed(strategy);
                cfg.network = network.clone();
                tweak(site, &mut cfg);
                let what = format!("{} / {link} / {label}", site.page.name);
                cells.push((what, RunPlan::new(site).config(cfg)));
            }
        }
    }
    cells
}

#[test]
fn a_cold_load_takes_at_least_its_handshake_and_its_bytes() {
    let sites = sites();
    let (labels, cells): (Vec<_>, Vec<_>) =
        conditions(&sites, |_, _| {}).into_iter().map(|(what, cell)| (what, cell.traced())).unzip();
    let mut lost = Vec::new();
    let loads = run_cells(
        &cells,
        |run| (run.outcome.load, run.timeline.expect("traced cell").resource_spans()),
        &mut lost,
    );
    assert!(lost.is_empty(), "{lost:#?}");
    let pushes: u32 = loads.iter().map(|load| load[0].0.pushed_count).sum();
    assert!(pushes > 0, "no condition pushed anything: the push-all half is vacuous");
    for ((what, cell), load) in labels.iter().zip(&cells).zip(loads) {
        let (load, spans) = &load[0];
        let page = &cell.inputs().page;
        let network = &cell.config_for(0).network;
        let onload = load.onload.unwrap_or_else(|| panic!("{what}: no onload"));
        // The load cannot finish faster than the connection that carried
        // it took to set up (DNS + TCP + TLS round trips): whatever comes
        // after — request, document, subresources — needs at least as many.
        let connect_ms = load.connect_end.as_micros() as f64 / 1_000.0;
        assert!(load.plt() >= connect_ms, "{what}: PLT {} < connectEnd {connect_ms}", load.plt());
        // Every body byte that was there by onload crossed the client's
        // downlink after connectEnd, at no more than the link rate.
        let loaded_bytes: usize = spans
            .iter()
            .filter(|span| span.loaded.is_some_and(|at| at <= onload.as_micros()))
            .map(|span| page.resources[span.resource].size)
            .sum();
        let rate_bps = network.client_down.rate_bps.expect("every access profile is rated");
        let serialization_ms = loaded_bytes as f64 * 8.0 / rate_bps as f64 * 1_000.0;
        assert!(
            load.plt() >= serialization_ms,
            "{what}: PLT {} < {loaded_bytes} B at {rate_bps} bit/s = {serialization_ms} ms",
            load.plt()
        );
    }
}

#[test]
fn a_digest_aware_server_pushes_nothing_on_a_fully_warm_revisit() {
    // `ablation-cache`'s claim, for every generated page instead of three.
    let sites = sites();
    assert!(sites.iter().any(|site| !site.page.pushable().is_empty()), "nothing to warm");
    let warm = |site: &ReplayInputs, cfg: &mut ReplayConfig| {
        cfg.warm_cache = site.page.pushable();
        cfg.server_honors_digest = true;
    };
    let (labels, cells): (Vec<_>, Vec<_>) = conditions(&sites, warm).into_iter().unzip();
    let mut lost = Vec::new();
    let pushed = run_cells(&cells, |run| run.outcome.server_pushed_bytes, &mut lost);
    assert!(lost.is_empty(), "{lost:#?}");
    for (what, pushed) in labels.iter().zip(pushed) {
        assert_eq!(pushed, [0], "{what}: pushed into a warm cache");
    }
}

#[test]
fn an_empty_push_list_is_no_push() {
    // Pushing nothing is not pushing, in the testbed and on the noisy
    // Internet link alike: an empty push list gives `NoPush`'s outcomes on
    // the same seed, rep for rep, although its browser advertises push and
    // its server runs the push path.
    let sites = sites();
    for mode in [Mode::Testbed, Mode::Internet] {
        let cells: Vec<RunPlan> = sites
            .iter()
            .flat_map(|site| {
                [Strategy::NoPush, Strategy::PushList { order: Vec::new() }].map(|strategy| {
                    RunPlan::new(site).strategy(strategy).mode(mode).seed(42).reps(4)
                })
            })
            .collect();
        let mut lost = Vec::new();
        let outcomes = run_cells(&cells, |run| run.outcome, &mut lost);
        assert!(lost.is_empty(), "{mode:?}: {lost:#?}");
        for (site, pair) in sites.iter().zip(outcomes.chunks(2)) {
            let what = format!("{mode:?} / {}", site.page.name);
            assert_eq!((pair[0].len(), pair[1].len()), (4, 4), "{what}");
            for (rep, (none, empty)) in pair[0].iter().zip(&pair[1]).enumerate() {
                assert!(none == empty, "{what}, rep {rep}: an empty push list changed the load");
            }
        }
    }
}
