//! `bench` — the end-to-end runner.
//!
//! * `bench --workload W --seed N --seconds S --trace 0|1` runs one
//!   workload in this process and ends with the one-line JSON result
//!   (`--trace 1` hands over to `bench-layers`).
//! * `bench run` runs every workload, each in its own child process,
//!   prints every end-to-end metric and writes the provenance record.
//! * `bench layers` is the traced run; `bench aa` runs everything twice
//!   and compares; `bench spread` runs ten seeds and reports how far they
//!   scatter; `bench manifest` prints `BENCHMARK.json`.

mod grid;
mod live;
mod sim;
mod suite;

use h2push_benchmark::cli::{self, Args};
use h2push_benchmark::spec::{self, RunResult};
use h2push_benchmark::workloads::SIM_WORKLOADS;
use std::process::ExitCode;

/// Run `workload` in this process.
fn run_workload(workload: &str, args: &Args) -> RunResult {
    match workload {
        "grid" => grid::run(args),
        "live" => live::run(args),
        w if SIM_WORKLOADS.contains(&w) => sim::run(w, args),
        other => unreachable!("cli::parse admitted workload {other}"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command.as_deref(), &args.workload) {
        (Some("manifest"), _) => {
            let text = serde_json::to_string_pretty(&spec::manifest()).expect("serializes");
            println!("{text}");
            true
        }
        (Some("run"), _) => suite::run(&args),
        (Some("aa"), _) => suite::aa(&args),
        (Some("layers"), _) => suite::layers(&args),
        (Some("spread"), _) => suite::spread(&args),
        (None, Some(workload)) if args.trace => suite::exec_layers(&args, workload),
        (None, Some(workload)) => {
            let result = run_workload(workload, &args);
            result.print(workload);
            println!("DETAIL {}", serde_json::to_string(&result.detail()).expect("serializes"));
            println!("{}", result.line(&spec::end_to_end_units()));
            result.correct()
        }
        _ => unreachable!("cli::parse requires a sub-command or a workload"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
