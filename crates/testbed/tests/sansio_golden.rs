//! Refactor-equality net for the sans-IO split.
//!
//! Fingerprints (FNV-1a over canonical renderings) of every sim-facing
//! output the testbed produces — [`ReplayOutcome`]s across strategies,
//! modes, protocols and fault profiles, traced waterfall JSON/text, and
//! `SweepReport::canonical_bytes` — captured *before* the protocol core
//! was re-hosted on the sans-IO driver and asserted bit-identical ever
//! since. Any refactor of h2proto/h2server/browser/netsim/testbed that
//! changes a single observable byte of a sim-mode run fails here.
//!
//! Regenerate (only when an output change is *intended*):
//!
//! ```sh
//! H2PUSH_BLESS_GOLDEN=1 cargo test -p h2push-testbed --test sansio_golden
//! ```

use h2push_strategies::{paper_strategy, push_all, PaperStrategy, Strategy};
use h2push_testbed::{FaultProfile, Mode, Protocol, ReplayConfig, RunPlan, SweepPlan};
use h2push_trace::WaterfallMeta;
use h2push_webmodel::{
    generate_site, realworld_site, CorpusKind, Page, PageBuilder, ResourceId, ResourceSpec,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const GOLDEN_PATH: &str = "tests/golden/sansio.txt";

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// A deterministic multi-origin page exercising CSS/JS/image/third-party
/// paths (same shape as the replay unit tests).
fn hand_page() -> Page {
    let mut b = PageBuilder::new("golden", "golden.test", 60_000, 5_000);
    let third = b.origin("cdn.other.net", 1, false);
    b.resource(ResourceSpec::css(0, 20_000, 300, 0.3));
    b.resource(ResourceSpec::js(0, 25_000, 1_000, 30_000));
    b.resource(ResourceSpec::image(0, 40_000, 20_000, true, 2.0));
    b.resource(ResourceSpec::js_async(third, 10_000, 30_000, 5_000));
    b.text_paint(10_000, 1.0);
    b.text_paint(40_000, 1.0);
    b.build()
}

/// Canonical rendering of a full `RunReport`: Debug of every outcome (all
/// load metrics, request trace, push bytes, net counters) in rep order.
fn render_report(report: &h2push_testbed::RunReport) -> String {
    let mut s = String::new();
    for (i, out) in report.outcomes().enumerate() {
        let _ = writeln!(s, "rep {i}: {out:?}");
    }
    s
}

fn observed() -> BTreeMap<String, u64> {
    let mut map = BTreeMap::new();
    let mut put = |key: &str, canon: String| {
        map.insert(key.to_string(), fnv1a(canon.as_bytes()));
    };

    let hand = hand_page();
    let corpus = generate_site(CorpusKind::Random, 11);

    // Plain testbed replays, one per strategy family.
    let nopush = RunPlan::new(&hand).reps(3).seed(42).run();
    put("testbed_nopush", render_report(&nopush));
    let pushlist = RunPlan::new(&hand)
        .strategy(Strategy::PushList { order: vec![ResourceId(1), ResourceId(2)] })
        .reps(3)
        .seed(42)
        .run();
    put("testbed_pushlist", render_report(&pushlist));
    let inter = RunPlan::new(&hand)
        .strategy(Strategy::Interleaved {
            offset: 6_000,
            critical: vec![ResourceId(1)],
            after: vec![ResourceId(3)],
        })
        .reps(3)
        .seed(42)
        .run();
    put("testbed_interleaved", render_report(&inter));

    // Stochastic internet mode.
    let internet = RunPlan::new(&hand)
        .strategy(Strategy::PushList { order: vec![ResourceId(1)] })
        .mode(Mode::Internet)
        .reps(3)
        .seed(7)
        .run();
    put("internet_pushlist", render_report(&internet));

    // 2 % Gilbert–Elliott loss with browser hardening.
    let faulted = RunPlan::new(&hand)
        .strategy(push_all(&hand, &[]))
        .faults(FaultProfile::gilbert_elliott(0.02))
        .reps(3)
        .seed(9)
        .run();
    put("ge2_pushall", render_report(&faulted));

    // HTTP/1.1 baseline protocol.
    let mut h1cfg = ReplayConfig::testbed(Strategy::NoPush);
    h1cfg.protocol = Protocol::H1;
    let h1 = RunPlan::new(&hand).config(h1cfg).reps(2).run();
    put("h1_baseline", render_report(&h1));

    // A generated corpus site end to end.
    let corpus_run = RunPlan::new(&corpus).strategy(push_all(&corpus, &[])).reps(2).seed(3).run();
    put("corpus_pushall", render_report(&corpus_run));

    // Many-connection pages: w17-cnn (367 resources over 81 server
    // groups) without and with push, and the byte-heavy w10 push-all —
    // the cells the benchmark's `fanout` and `bulkpush` workloads replay.
    for (key, site, which) in [
        ("w17_fanout_nopush", 17, PaperStrategy::NoPush),
        ("w17_fanout_pushall", 17, PaperStrategy::PushAll),
        ("w10_bulk_pushall", 10, PaperStrategy::PushAll),
    ] {
        let (page, strategy) = paper_strategy(&realworld_site(site), which);
        let run = RunPlan::new(&page).strategy(strategy).reps(2).seed(42).run();
        put(key, render_report(&run));
    }

    // Traced run: the full per-stream timeline rendered as waterfall
    // JSON + text (covers frame events, scheduler picks, CRP milestones).
    let traced = RunPlan::new(&hand)
        .strategy(Strategy::PushList { order: vec![ResourceId(1), ResourceId(2)] })
        .traced()
        .run_one()
        .expect("traced golden rep completes");
    let tl = traced.timeline.expect("traced");
    let meta = WaterfallMeta { site: &hand.name, strategy: "push-list", seed: 0 };
    let names = |id: usize| hand.resources.get(id).map(|r| r.path.clone());
    put("waterfall_json", tl.waterfall_json(&meta, &names));
    put("waterfall_text", tl.waterfall_text(&meta, &names));

    // Traced run under faults (drop/retransmit events in the timeline).
    let traced_ge = RunPlan::new(&hand)
        .faults(FaultProfile::gilbert_elliott(0.02))
        .seed(5)
        .traced()
        .run_one()
        .expect("faulted traced rep completes");
    let tl = traced_ge.timeline.expect("traced");
    let meta = WaterfallMeta { site: &hand.name, strategy: "no-push", seed: 5 };
    put("waterfall_ge2_json", tl.waterfall_json(&meta, &names));

    // Sweep grids: retained + streaming aggregation, fault-free + faulted.
    let grid = || {
        SweepPlan::new()
            .strategies([
                Strategy::NoPush,
                Strategy::PushList { order: vec![ResourceId(1), ResourceId(2)] },
            ])
            .site(&hand)
            .site(&corpus)
            .reps(2)
            .seed(21)
    };
    put("sweep_retained", hex(&grid().run().canonical_bytes()));
    put("sweep_streaming", hex(&grid().streaming().run().canonical_bytes()));
    put(
        "sweep_ge2",
        hex(&grid().faults(FaultProfile::gilbert_elliott(0.02)).run().canonical_bytes()),
    );

    map
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

#[test]
fn sim_outputs_match_pre_refactor_goldens() {
    let observed = observed();
    if std::env::var("H2PUSH_BLESS_GOLDEN").is_ok() {
        let mut out = String::from(
            "# FNV-1a fingerprints of sim-mode outputs; regenerate with\n\
             # H2PUSH_BLESS_GOLDEN=1 cargo test -p h2push-testbed --test sansio_golden\n",
        );
        for (k, v) in &observed {
            let _ = writeln!(out, "{k} {v:016x}");
        }
        std::fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
        std::fs::write(golden_path(), out).unwrap();
        eprintln!("blessed {} goldens to {}", observed.len(), golden_path().display());
        return;
    }
    let text = std::fs::read_to_string(golden_path())
        .expect("golden file missing — run with H2PUSH_BLESS_GOLDEN=1 to create it");
    let mut golden = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (k, v) = line.split_once(' ').expect("golden line format");
        golden.insert(k.to_string(), u64::from_str_radix(v, 16).expect("golden hash"));
    }
    let golden_keys: Vec<_> = golden.keys().collect();
    let observed_keys: Vec<_> = observed.keys().collect();
    assert_eq!(golden_keys, observed_keys, "golden case set drifted");
    for (k, v) in &observed {
        assert_eq!(
            golden[k], *v,
            "output `{k}` changed: golden {:016x} vs observed {v:016x} — a refactor \
             altered sim-mode bytes",
            golden[k]
        );
    }
}
