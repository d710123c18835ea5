//! Every `h2push experiment <id>` prints, at a tiny scale, exactly what
//! the `crates/bench` binary it replaced printed at the commit before it
//! was folded in (`tests/fixtures/experiments/<id>.txt`, captured there
//! with `--sites 3 --runs 2 --seed 42`). Text, not a hash: a failure
//! shows the row that moved. These are the first fixtures that pin the
//! *findings* — medians, shares, winners — not the wire bytes. Five of
//! them (`fig2b`, `fig3a`, `fig3b`, `types`, `fig4`) were re-captured
//! once, when those experiments moved to the paired driver (every arm on
//! the same seeds, a sign test per site, an A/A line); at two runs the
//! sign test classes no site, so their shares read `unresolved` by
//! design. The last test keeps the two experiment indexes
//! (`EXPERIMENTS.md`, `README.md`) in step with [`EXPERIMENTS`].

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

/// The ids named by the markdown table in `doc` whose header row starts
/// with `header`, read from the `column`th cell of each row: the text
/// between the cell's first pair of backticks.
fn table_ids(doc: &str, header: &str, column: usize) -> Vec<String> {
    let path = format!("{}/{doc}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let mut lines = text.lines().skip_while(|line| !line.starts_with(header));
    assert!(lines.next().is_some(), "{doc} has no table headed `{header}`");
    lines
        .skip(1) // the |---| separator row
        .take_while(|line| line.starts_with('|'))
        .map(|row| {
            let cell = row.split('|').nth(column + 1).unwrap_or_else(|| panic!("{doc}: {row}"));
            let id = cell.split('`').nth(1).unwrap_or_else(|| panic!("{doc}: no id in {row}"));
            id.to_string()
        })
        .collect()
}

#[test]
fn every_experiment_has_one_row_in_each_doc_index() {
    let indexes = [
        ("EXPERIMENTS.md", table_ids("EXPERIMENTS.md", "| # | Artifact | Id", 2)),
        ("README.md", table_ids("README.md", "| id | regenerates |", 0)),
    ];
    for (doc, rows) in &indexes {
        for (id, _, _) in EXPERIMENTS {
            let n = rows.iter().filter(|row| *row == id).count();
            assert_eq!(n, 1, "{doc}'s experiment table names `{id}` {n} times");
        }
        for row in rows {
            assert!(
                EXPERIMENTS.iter().any(|(id, _, _)| id == row),
                "{doc}'s experiment table names `{row}`, which is not an experiment"
            );
        }
    }
}
