//! Every `h2push experiment <id>` prints, at a tiny scale, exactly what
//! the `crates/bench` binary it replaced printed at the commit before it
//! was folded in (`tests/fixtures/experiments/<id>.txt`, captured there
//! with `--sites 3 --runs 2 --seed 42`). Text, not a hash: a failure
//! shows the row that moved. These are the first fixtures that pin the
//! *findings* — medians, shares, winners — not the wire bytes.

use h2push::experiment::{Scale, EXPERIMENTS};

#[test]
fn every_experiment_prints_its_fixture() {
    let scale = Scale { sites: 3, runs: 2, seed: 42 };
    for (id, _, render) in EXPERIMENTS {
        let path = format!("{}/tests/fixtures/experiments/{id}.txt", env!("CARGO_MANIFEST_DIR"));
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (mut printed, mut lost) = (Vec::new(), Vec::new());
        render(scale, &mut printed, &mut lost).expect("writing to a Vec cannot fail");
        assert!(lost.is_empty(), "experiment {id} lost repetitions: {lost:#?}");
        let printed = String::from_utf8(printed).expect("reports are UTF-8");
        assert_eq!(printed, expected, "experiment {id} no longer prints {path}");
    }
}

#[test]
fn ids_are_unique_and_every_fixture_has_an_experiment() {
    let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _, _)| *id).collect();
    ids.sort_unstable();
    let mut fixtures: Vec<String> =
        std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/experiments"))
            .expect("fixture directory")
            .map(|entry| entry.expect("directory entry").file_name().into_string().unwrap())
            .map(|name| name.trim_end_matches(".txt").to_string())
            .collect();
    fixtures.sort_unstable();
    assert_eq!(ids, fixtures);
}
