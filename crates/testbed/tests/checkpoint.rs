//! Crash-safety contract of the sweep checkpoint/resume layer.
//!
//! The guarantee under test: **interrupted-then-resumed ≡ uninterrupted**,
//! byte for byte. A journaled sweep halted after any number of completed
//! cells and resumed produces a [`SweepReport`] whose canonical encoding is
//! identical to an undisturbed run of the same grid — and the journal
//! survives the failure modes a real kill produces (torn tail, bit rot),
//! converting corruption into re-executed cells, never into wrong data.

use h2push_strategies::{push_all, Strategy};
use h2push_testbed::{GridIdentity, ResumeError, RunPlan, RunReport, SweepJournal, SweepPlan};
use h2push_webmodel::{Page, PageBuilder, ResourceSpec};
use std::fs;
use std::path::PathBuf;

fn site_page(seed: u64) -> Page {
    let mut b = PageBuilder::new(
        &format!("ckpt-{seed}"),
        "ckpt.test",
        40_000 + seed as usize * 1_000,
        4_000,
    );
    b.resource(ResourceSpec::css(0, 15_000, 300, 0.4));
    b.resource(ResourceSpec::js(0, 20_000, 1_000, 10_000));
    b.text_paint(8_000, 1.0);
    b.build()
}

/// The axes of [`grid`]: 2 strategies × 2 sites.
fn grid_axes() -> (Vec<Strategy>, [Page; 2]) {
    let sites = [site_page(0), site_page(1)];
    (vec![Strategy::NoPush, push_all(&sites[0], &[])], sites)
}

/// A 2 strategies × 2 sites × 2 reps grid (4 cells).
fn grid(seed: u64) -> SweepPlan {
    let (strategies, sites) = grid_axes();
    SweepPlan::new().strategies(strategies).sites(sites).reps(2).seed(seed)
}

/// Unique scratch path per test (no tempfile dependency in-tree).
fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("h2push-{}-{name}.journal", std::process::id()));
    let _ = fs::remove_file(&p);
    p
}

#[test]
fn interrupted_then_resumed_equals_uninterrupted_at_every_cell_boundary() {
    let plan = grid(11);
    let baseline = plan.run();
    let baseline_bytes = baseline.canonical_bytes();
    assert!(baseline.is_complete());
    // What each cell must also equal, whichever side of the halt it ran
    // on: the same cell as a plain `RunPlan` (strategy-major, like the
    // grid).
    let (strategies, sites) = grid_axes();
    let fresh: Vec<RunReport> = strategies
        .iter()
        .flat_map(|s| sites.iter().map(move |p| (s.clone(), p)))
        .map(|(s, p)| RunPlan::new(p).strategy(s).reps(2).seed(11).run())
        .collect();

    // Halt after 1, 2, 3 of the 4 cells (an in-process stand-in for a
    // kill at each cell boundary; tests/resume_kill.rs does it with a
    // real SIGKILL), then resume and demand byte equality.
    for halt in 1..4 {
        let path = scratch(&format!("boundary-{halt}"));
        let partial = plan
            .clone()
            .halt_after_journaled(halt)
            .checkpoint(&path)
            .expect("halted checkpoint run");
        assert_eq!(partial.cells.len(), halt, "halted run journaled exactly {halt} cells");

        let resumed = plan.resume(&path).expect("resume");
        assert_eq!(resumed.cells.len(), 4);
        assert!(resumed.is_complete());
        assert_eq!(
            resumed.canonical_bytes(),
            baseline_bytes,
            "resume after {halt} cells must be byte-identical to an uninterrupted run"
        );
        for (cell, plain) in resumed.cells.iter().zip(&fresh) {
            assert_eq!(
                &cell.report, plain,
                "{}/{} after a halt at {halt}: not what a fresh RunPlan reports",
                cell.strategy, cell.site
            );
        }
        fs::remove_file(&path).ok();
    }
}

#[test]
fn checkpointed_run_without_interruption_matches_plain_run() {
    let plan = grid(5);
    let path = scratch("plain");
    let journaled = plan.checkpoint(&path).expect("checkpointed run");
    assert_eq!(journaled.canonical_bytes(), plan.run().canonical_bytes());
    // Resuming a complete journal re-runs nothing and reports the same.
    let resumed = plan.resume(&path).expect("resume of complete journal");
    assert_eq!(resumed.canonical_bytes(), journaled.canonical_bytes());
    fs::remove_file(&path).ok();
}

#[test]
fn resume_with_no_journal_starts_fresh() {
    let plan = grid(7);
    let path = scratch("fresh");
    let report = plan.resume(&path).expect("resume on a missing file");
    assert_eq!(report.canonical_bytes(), plan.run().canonical_bytes());
    assert!(path.exists(), "the fresh run left a journal behind");
    fs::remove_file(&path).ok();
}

#[test]
fn torn_tail_is_truncated_and_the_cell_rerun() {
    let plan = grid(3);
    let baseline = plan.run().canonical_bytes();
    let path = scratch("torn");
    plan.checkpoint(&path).expect("full checkpointed run");

    // SIGKILL mid-append: the final record is structurally incomplete.
    let bytes = fs::read(&path).expect("journal bytes");
    fs::write(&path, &bytes[..bytes.len() - 5]).expect("tear the tail");

    let (_, records, scan) =
        SweepJournal::load(&path, &plan.identity()).expect("torn journal still loads");
    assert!(scan.torn_tail, "the scan reports the torn tail");
    assert_eq!(scan.accepted, 3, "the three intact cells survive");
    assert_eq!(scan.rejected, 0);
    assert_eq!(records.len(), 3);

    let resumed = plan.resume(&path).expect("resume over the torn journal");
    assert_eq!(resumed.canonical_bytes(), baseline, "the torn cell re-ran");
    fs::remove_file(&path).ok();
}

#[test]
fn bit_flipped_record_is_rejected_by_checksum_and_rerun() {
    let plan = grid(9);
    let baseline = plan.run().canonical_bytes();
    let path = scratch("bitflip");
    plan.checkpoint(&path).expect("full checkpointed run");

    // Flip one bit deep inside the last record's payload (well clear of
    // the frame header, so framing stays intact and only the checksum
    // can catch it).
    let mut bytes = fs::read(&path).expect("journal bytes");
    let pos = bytes.len() - 3;
    bytes[pos] ^= 0x40;
    fs::write(&path, &bytes).expect("corrupt the journal");

    let (_, records, scan) =
        SweepJournal::load(&path, &plan.identity()).expect("corrupt journal still loads");
    assert_eq!(scan.rejected, 1, "the checksum rejects the flipped record");
    assert_eq!(scan.accepted, 3);
    assert_eq!(records.len(), 3);

    let resumed = plan.resume(&path).expect("resume over the corrupt journal");
    assert_eq!(resumed.canonical_bytes(), baseline, "the rejected cell re-ran");
    fs::remove_file(&path).ok();
}

#[test]
fn journal_of_a_different_grid_is_refused() {
    let plan = grid(21);
    let path = scratch("mismatch");
    plan.checkpoint(&path).expect("checkpointed run");

    // Same sites and strategies, different seed — different experiment.
    let other = grid(22);
    match other.resume(&path) {
        Err(ResumeError::IdentityMismatch { expected, found }) => {
            assert_eq!(expected, other.identity().summary);
            assert_eq!(found, plan.identity().summary);
            assert_ne!(expected, found);
        }
        other => panic!("expected IdentityMismatch, got {other:?}"),
    }
    fs::remove_file(&path).ok();
}

#[test]
fn garbage_and_unsupported_files_fail_with_typed_errors() {
    let plan = grid(1);
    let path = scratch("garbage");
    fs::write(&path, b"definitely not a journal").expect("write garbage");
    assert!(matches!(plan.resume(&path), Err(ResumeError::NotAJournal { .. })));

    // Valid magic, unknown version.
    let good = scratch("version");
    plan.checkpoint(&good).expect("checkpointed run");
    let mut bytes = fs::read(&good).expect("journal bytes");
    bytes[8] = 99; // the version field follows the 8-byte magic
    fs::write(&path, &bytes).expect("rewrite with bumped version");
    match plan.resume(&path) {
        Err(ResumeError::UnsupportedVersion { found: 99 }) => {}
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // An empty file is not a journal either.
    fs::write(&path, b"").expect("write empty");
    assert!(matches!(plan.resume(&path), Err(ResumeError::NotAJournal { .. })));
    fs::remove_file(&path).ok();
    fs::remove_file(&good).ok();
}

#[test]
fn duplicate_records_replay_last_wins() {
    let plan = grid(15);
    let path = scratch("dup");
    let report = plan.checkpoint(&path).expect("checkpointed run");

    // Re-append cell 0's record verbatim (the duplicate a kill between
    // journal append and bookkeeping produces on resume).
    let id = plan.identity();
    let (mut journal, records, _) = SweepJournal::load(&path, &id).expect("load");
    journal.append(&records[0]).expect("append duplicate");
    drop(journal);

    let resumed = plan.resume(&path).expect("resume with duplicate record");
    assert_eq!(resumed.canonical_bytes(), report.canonical_bytes());
    fs::remove_file(&path).ok();
}

#[test]
fn journal_primitives_round_trip_through_load() {
    let id = GridIdentity { hash: 0xdead_beef, summary: "unit grid".into() };
    let path = scratch("prims");
    let mut j = SweepJournal::create(&path, &id).expect("create");
    let payloads: Vec<Vec<u8>> = (0u8..3).map(|i| vec![i; 64 + i as usize]).collect();
    for p in &payloads {
        j.append(p).expect("append");
    }
    drop(j);
    let (_, records, scan) = SweepJournal::load(&path, &id).expect("load");
    assert_eq!(records, payloads);
    assert_eq!(scan.accepted, 3);
    assert!(!scan.torn_tail);

    // Appending after a load extends the clean tail.
    let (mut j, _, _) = SweepJournal::load(&path, &id).expect("reload");
    j.append(b"tail").expect("append after load");
    drop(j);
    let (_, records, _) = SweepJournal::load(&path, &id).expect("final load");
    assert_eq!(records.len(), 4);
    assert_eq!(records[3], b"tail");
    fs::remove_file(&path).ok();
}

#[test]
fn streaming_checkpoint_resume_is_byte_identical_and_matches_retained_stats() {
    let retained = grid(33);
    let streaming = retained.clone().streaming();
    let baseline = streaming.run();
    assert!(baseline.streaming);
    assert!(baseline.cells.iter().all(|c| c.report.is_empty()), "outputs dropped");

    let path = scratch("streaming");
    streaming
        .clone()
        .halt_after_journaled(2)
        .checkpoint(&path)
        .expect("halted streaming checkpoint");
    let resumed = streaming.resume(&path).expect("streaming resume");
    assert_eq!(resumed.canonical_bytes(), baseline.canonical_bytes());

    // Population percentiles agree bit-for-bit with the retained-mode run.
    let pop_s = resumed.population();
    let pop_r = retained.run().population();
    assert_eq!(pop_s, pop_r);
    assert_eq!(pop_s.plt.p50(), pop_r.plt.p50());
    fs::remove_file(&path).ok();
}

/// The acceptance-scale streaming sweep: ≥ 10_000 cells complete with
/// per-rep outputs dropped, and the population percentiles match the
/// retained-mode computation exactly. Too slow for the debug-mode tier-1
/// suite on one core; CI's `test` job runs it in release
/// (`cargo test --release -- --ignored`).
#[test]
#[ignore = "population-scale; CI runs it in release"]
fn ten_thousand_cell_streaming_sweep_is_bounded_and_exact() {
    let p0 = site_page(0);
    // 2500 distinct push-list strategies × 4 sites = 10_000 cells. The
    // strategy list is rotated so cells genuinely differ.
    let base = push_all(&p0, &[]);
    let order = match &base {
        Strategy::PushList { order } => order.clone(),
        _ => unreachable!(),
    };
    let mut strategies = Vec::with_capacity(2500);
    for i in 0..2500 {
        let mut o = order.clone();
        let k = i % o.len().max(1);
        o.rotate_left(k);
        strategies.push(Strategy::PushList { order: o });
    }
    let plan = SweepPlan::new()
        .strategies(strategies)
        .sites([p0, site_page(1), site_page(2), site_page(3)])
        .reps(1)
        .seed(77);

    let streamed = plan.clone().streaming().run();
    assert_eq!(streamed.cells.len(), 10_000);
    assert!(streamed.is_complete());
    assert!(streamed.cells.iter().all(|c| c.report.is_empty()), "outputs dropped");

    let retained = plan.run();
    let sp = streamed.population();
    let rp = retained.population();
    assert_eq!(sp, rp, "streaming and retained population stats are bit-identical");
    assert_eq!(sp.plt.count(), 10_000);
    assert!(sp.plt.p99().unwrap() >= sp.plt.p50().unwrap());
}
