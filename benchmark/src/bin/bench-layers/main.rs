//! `bench-layers` — the traced run and the layer probes.
//!
//! `bench-layers --workload W --seed N --seconds S` measures the layers
//! under workload `W` from outside: spans around every call the replay
//! loop makes into a layer (`tracebed`), exact counts from traced plans,
//! with/without ratios for each optimisation, and probes of single
//! public functions. It prints every per-layer metric, writes the span
//! list of the first replay of each cell to
//! `results/trace-<workload>.json`, and ends with the one-line result.
//! End-to-end numbers never come from here.

mod cells;
mod grid;
#[cfg(unix)]
mod live;
mod probes;
mod tracebed;

use cells::Budget;
use h2push_benchmark::cli::{self, Args};
use h2push_benchmark::package_subdir;
use h2push_benchmark::spec::{self, RunResult, RUN_SECONDS};
use h2push_benchmark::workloads::{live_site, sim_cells, SimCell};
use serde_json::{json, Value};
use std::process::ExitCode;
use tracebed::Span;

/// The spans of the first replay of each cell, as rows.
fn write_spans(workload: &str, seed: u64, spans: &[Span]) {
    let rows: Vec<Value> = spans
        .iter()
        .map(|s| json!([s.layer.label(), s.call, s.start_ns, s.end_ns, s.replay]))
        .collect();
    let doc = json!({
        "workload": workload,
        "seed": seed,
        "columns": ["layer", "call", "start_ns", "end_ns", "parent_replay"],
        "note": "call \"replay\" of layer testbed is the parent span; the others are calls into a layer",
        "spans": rows,
    });
    let path = package_subdir("results").join(format!("trace-{workload}.json"));
    let text = serde_json::to_string(&doc).expect("serializes");
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("bench-layers: cannot write {}: {e}", path.display());
    }
}

/// Everything a list of replay cells tells (see [`cells`]).
fn simulated(workload: &str, cells: &[SimCell], budget: Budget, args: &Args, res: &mut RunResult) {
    let traced = cells::spans(cells, args.seed, budget, res);
    write_spans(workload, args.seed, &traced.first_spans);
    cells::counts(cells, args.seed, budget, res);
    cells::switches(cells, args.seed, budget, traced.runplan_s_per_replay, res);
}

fn run(workload: &str, args: &Args) -> RunResult {
    let mut res = RunResult::default();
    // `--seconds` scales every budget; at the manifest's value a run
    // takes about that long.
    let scale = args.seconds / RUN_SECONDS as f64;
    let smoke = if args.smoke { 0.2 } else { 1.0 };
    let first_page = match workload {
        "live" => {
            #[cfg(unix)]
            live::run(10.0 * scale * smoke, &mut res);
            live_site().0.as_ref().clone()
        }
        "grid" => {
            let cells = grid::cells();
            let budget = Budget { trace_reps: 2, count_reps: 1, arm_seconds: 0.15 * scale * smoke };
            simulated(workload, &cells, budget, args, &mut res);
            let journal =
                package_subdir("tmp").join(format!("layers-{}.journal", std::process::id()));
            grid::sweep_machinery(args.seed, if args.smoke { 1 } else { 4 }, &journal, &mut res);
            cells[0].inputs.page.as_ref().clone()
        }
        serial => {
            let cells = sim_cells(serial);
            let reps = if args.smoke { 2 } else { 20 };
            let budget = Budget {
                trace_reps: reps,
                count_reps: reps.min(5),
                arm_seconds: 0.25 * scale * smoke,
            };
            simulated(workload, &cells, budget, args, &mut res);
            cells[0].inputs.page.as_ref().clone()
        }
    };
    probes::run(&first_page, 2.5 * scale * smoke, &mut res);
    res
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench-layers: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload.clone() else {
        eprintln!("bench-layers: --workload is required (use `bench layers` for all five)");
        return ExitCode::from(2);
    };
    let res = run(&workload, &args);
    res.print(&workload);
    println!("DETAIL {}", serde_json::to_string(&res.detail()).expect("serializes"));
    println!("{}", res.line(&spec::per_layer_units()));
    if res.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
