//! Command-line arguments shared by `bench` and `bench-layers`.

use crate::spec::RUN_SECONDS;
use crate::workloads::WORKLOADS;

/// Parsed arguments. Without a sub-command the program runs one workload
/// the way the benchmark contract asks:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `run`, `aa`, `layers`, `spread` or `manifest`; `None` runs one
    /// workload.
    pub command: Option<String>,
    /// The workload to run (every workload when absent, for `layers`).
    pub workload: Option<String>,
    /// Drives every RNG a workload has.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Reviewer mode: one timed pass of a tenth of the operations.
    pub smoke: bool,
    /// Test hook: give every replay a one-event watchdog budget, so each
    /// one fails and the run must exit non-zero.
    pub force_fail: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            command: None,
            workload: None,
            seed: 42,
            seconds: RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            force_fail: false,
        }
    }
}

/// Parse `args` (without the program name).
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "run" | "aa" | "layers" | "spread" | "manifest" if out.command.is_none() => {
                out.command = Some(arg.clone());
            }
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.iter().any(|(name, _)| name == w) {
                    return Err(format!("unknown workload {w}"));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => out.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            "--force-fail" => out.force_fail = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.command.is_none() && out.workload.is_none() {
        return Err("name a sub-command (run, aa, layers, spread, manifest) or --workload".into());
    }
    Ok(out)
}

/// The arguments that carry `args`' settings to a child process running
/// `workload`.
pub fn child_args(args: &Args, workload: &str, trace: bool) -> Vec<String> {
    let mut v: Vec<String> = vec![
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--trace".into(),
        if trace { "1" } else { "0" }.into(),
    ];
    if args.smoke {
        v.push("--smoke".into());
    }
    if args.force_fail {
        v.push("--force-fail".into());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn contract_invocation_parses() {
        let a = parse_str("--workload grid --seed 7 --seconds 10 --trace 1").expect("parses");
        assert_eq!(a.workload.as_deref(), Some("grid"));
        assert_eq!((a.seed, a.seconds, a.trace, a.command), (7, 10.0, true, None));
    }

    #[test]
    fn sub_commands_and_defaults() {
        let a = parse_str("run --smoke").expect("parses");
        assert_eq!(a.command.as_deref(), Some("run"));
        assert!(a.smoke && !a.trace);
        assert_eq!((a.seed, a.seconds), (42, RUN_SECONDS as f64));
    }

    #[test]
    fn bad_input_is_refused() {
        for bad in [
            "",
            "--workload nope",
            "--seed x --workload grid",
            "--trace 2 --workload grid",
            "run --seconds 0",
            "run --frobnicate",
            "--workload",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn child_args_round_trip() {
        let a = parse_str("run --seed 9 --seconds 3 --smoke").expect("parses");
        let child = parse(&child_args(&a, "live", true)).expect("child parses");
        assert_eq!((child.seed, child.seconds, child.smoke, child.trace), (9, 3.0, true, true));
        assert_eq!(child.workload.as_deref(), Some("live"));
    }
}
