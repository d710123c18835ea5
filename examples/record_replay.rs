//! Mahimahi-style record-and-replay: record a site into a request/response
//! database, match a request against it, and replay deterministically
//! (§4.1).
//!
//! ```sh
//! cargo run --release --example record_replay
//! ```

use h2push::strategies::Strategy;
use h2push::testbed::{ReplayConfig, RunPlan};
use h2push::webmodel::{generate_site, CorpusKind, RecordDb};

fn main() {
    // "Browse" a site once: record every request/response pair.
    let page = generate_site(CorpusKind::Random, 1234);
    let db = RecordDb::record(&page);
    println!("recorded {} request/response pairs for {}", db.len(), page.name);

    // Match the document request, as the replay server does.
    let root = db.lookup(page.host_of(h2push::webmodel::ResourceId(0)), "/").unwrap();
    println!("replayed lookup: / → {} ({} bytes)", root.content_type, root.body_len);

    // Replay the recorded site twice; determinism is the whole point.
    let plan = RunPlan::new(&page).config(ReplayConfig::testbed(Strategy::NoPush));
    let a = plan.run_one().unwrap().outcome;
    let b = plan.run_one().unwrap().outcome;
    println!(
        "replay #1: PLT {:.1} ms, SpeedIndex {:.1} ms\nreplay #2: PLT {:.1} ms, SpeedIndex {:.1} ms",
        a.load.plt(),
        a.load.speed_index(),
        b.load.plt(),
        b.load.speed_index()
    );
    assert_eq!(a.load.plt(), b.load.plt());
    println!("bit-identical ✓");
}
