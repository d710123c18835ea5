//! The benchmark's contract: metric names, units, directions and bounds,
//! the `BENCHMARK.json` manifest generated from them, and the one-line
//! result every run ends with.

use crate::workloads::WORKLOADS;
use serde_json::{json, Value};

/// How long one run measures, in seconds (`run_seconds` of the manifest
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 12;

/// An end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name, as printed and as compared.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which a change may worsen it
    /// (0: any worsening counts).
    pub bound: f64,
    /// Listed in `BENCHMARK.json`: reported by every workload and never 0.
    /// The others are printed by `bench run` for the workloads they
    /// apply to.
    pub manifest: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    manifest: bool,
) -> EndToEnd {
    EndToEnd { name, unit, better, bound, manifest }
}

/// The end-to-end metrics. On `live` a "replay" is one page load over
/// loopback, so there `replays_per_s` equals `loads_per_s` and
/// `cpu_ms_per_replay` equals `cpu_ms_per_load`; the manifest lists the
/// names every workload can report, `bench run` prints all eleven.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", "lower", 0.25, true),
    e2e("replays_per_s", "1/s", "higher", 0.15, true),
    e2e("cpu_ms_per_replay", "ms", "lower", 0.15, true),
    e2e("allocs_per_replay", "count", "lower", 0.05, true),
    e2e("alloc_kb_per_replay", "KiB", "lower", 0.10, true),
    e2e("peak_rss_mb", "MiB", "lower", 0.15, true),
    e2e("loads_per_s", "1/s", "higher", 0.15, false),
    e2e("load_ms_p50", "ms", "lower", 0.10, false),
    e2e("ttfpb_us_p50", "us", "lower", 0.10, false),
    e2e("cpu_ms_per_load", "ms", "lower", 0.15, false),
    e2e("failed_share", "ratio", "lower", 0.0, false),
];

/// A per-layer metric: `(name, unit, better)`. The name's prefix is the
/// crate that owns the layer.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Every per-layer metric the traced run reports, on every workload; one
/// that a workload does not exercise reads 0 there (README has the map).
pub const PER_LAYER: [PerLayer; 71] = [
    ("netsim.self_us_per_replay", "us", "lower"),
    ("netsim.calls_per_replay", "count", "lower"),
    ("netsim.packets_per_replay", "count", "lower"),
    ("netsim.retransmits_per_replay", "count", "lower"),
    ("netsim.drops_per_replay", "count", "lower"),
    ("netsim.reordered_per_replay", "count", "lower"),
    ("netsim.ns_per_event", "ns", "lower"),
    ("netsim.lossy_ns_per_event", "ns", "lower"),
    ("netsim.queue_ns_per_op", "ns", "lower"),
    ("h2proto.frames_sent_per_replay", "count", "lower"),
    ("h2proto.data_frames_per_replay", "count", "lower"),
    ("h2proto.headers_frames_per_replay", "count", "lower"),
    ("h2proto.window_updates_per_replay", "count", "lower"),
    ("h2proto.push_promises_per_replay", "count", "lower"),
    ("h2proto.wire_kb_per_replay", "KiB", "lower"),
    ("h2proto.pump_ns_per_frame", "ns", "lower"),
    ("h2proto.pump_mb_per_s", "MB/s", "higher"),
    ("h2proto.conn_setup_ns", "ns", "lower"),
    ("hpack.encode_ns_per_block", "ns", "lower"),
    ("hpack.decode_ns_per_block", "ns", "lower"),
    ("hpack.wire_bytes_per_block", "B", "lower"),
    ("hpack.block_cache_hit_ratio", "ratio", "higher"),
    ("hpack.decode_cache_hit_ratio", "ratio", "higher"),
    ("h2server.self_us_per_replay", "us", "lower"),
    ("h2server.calls_per_replay", "count", "lower"),
    ("h2server.scheduler_picks_per_replay", "count", "lower"),
    ("h2server.interleave_switches_per_replay", "count", "lower"),
    ("h2server.pushed_kb_per_replay", "KiB", "lower"),
    ("browser.self_us_per_replay", "us", "lower"),
    ("browser.calls_per_replay", "count", "lower"),
    ("browser.requests_per_replay", "count", "lower"),
    ("browser.conns_per_replay", "count", "lower"),
    ("browser.pushes_accepted_per_replay", "count", "higher"),
    ("browser.pushes_cancelled_per_replay", "count", "lower"),
    ("browser.sim_plt_ms_mean", "ms", "lower"),
    ("browser.sim_speedindex_ms_mean", "ms", "lower"),
    ("h1.replays_per_s", "1/s", "higher"),
    ("webmodel.generate_us_per_site", "us", "lower"),
    ("webmodel.record_us_per_page", "us", "lower"),
    ("webmodel.rewrite_css_us_per_page", "us", "lower"),
    ("strategies.paper_strategy_us", "us", "lower"),
    ("strategies.majority_order_us", "us", "lower"),
    ("metrics.hist_ns_per_sample", "ns", "lower"),
    ("metrics.runstats_ns_per_sample", "ns", "lower"),
    ("trace.events_per_replay", "count", "lower"),
    ("trace.timeline_overhead_pct", "%", "lower"),
    ("testbed.glue_us_per_replay", "us", "lower"),
    ("testbed.span_overhead_pct", "%", "lower"),
    ("testbed.tracebed_vs_runplan", "ratio", "lower"),
    ("testbed.prepare_us_per_page", "us", "lower"),
    ("testbed.inputs_us_per_page", "us", "lower"),
    ("testbed.prepared_speedup", "ratio", "higher"),
    ("testbed.recycle_speedup", "ratio", "higher"),
    ("testbed.scaling_2w", "ratio", "higher"),
    ("testbed.sweep_vs_runplan", "ratio", "higher"),
    ("testbed.pool_dispatch_ns_per_item", "ns", "lower"),
    ("testbed.journal_us_per_cell", "us", "lower"),
    ("testbed.outcome_fnv32", "count", "higher"),
    ("live.small_loads_per_s", "1/s", "higher"),
    ("live.nopush_loads_per_s", "1/s", "higher"),
    ("live.load_ms_p50", "ms", "lower"),
    ("live.load_ms_p99", "ms", "lower"),
    ("live.ttfpb_us_p50", "us", "lower"),
    ("live.ttfpb_us_p99", "us", "lower"),
    ("live.wire_mb_per_s", "MB/s", "higher"),
    ("live.conns_per_load", "count", "lower"),
    ("live.rw_syscalls_per_load", "count", "lower"),
    ("live.ctx_switches_per_load", "count", "lower"),
    ("live.peak_queue_kb", "KiB", "lower"),
    ("live.unclean_closes", "count", "lower"),
    ("core.plan_ms_per_page", "ms", "lower"),
];

/// Per-layer metrics that are exact counts or simulated statistics: two
/// runs with one seed must agree to the last digit (`bench aa` checks).
pub const EXACT_LAYER: [&str; 20] = [
    "netsim.packets_per_replay",
    "netsim.retransmits_per_replay",
    "netsim.drops_per_replay",
    "netsim.reordered_per_replay",
    "h2proto.frames_sent_per_replay",
    "h2proto.data_frames_per_replay",
    "h2proto.headers_frames_per_replay",
    "h2proto.window_updates_per_replay",
    "h2proto.push_promises_per_replay",
    "h2proto.wire_kb_per_replay",
    "h2server.scheduler_picks_per_replay",
    "h2server.interleave_switches_per_replay",
    "h2server.pushed_kb_per_replay",
    "browser.requests_per_replay",
    "browser.conns_per_replay",
    "browser.pushes_accepted_per_replay",
    "browser.pushes_cancelled_per_replay",
    "browser.sim_plt_ms_mean",
    "browser.sim_speedindex_ms_mean",
    "testbed.outcome_fnv32",
];

/// The `BENCHMARK.json` manifest, generated so that names, units and
/// bounds have one source (a unit test compares it with the committed
/// file).
pub fn manifest() -> Value {
    let workloads: Vec<Value> =
        WORKLOADS.iter().map(|(name, why)| json!({"name": *name, "why": *why})).collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .filter(|m| m.manifest)
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| json!({"name": *name, "unit": *unit, "better": *better}))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--bin", "bench", "--"
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

/// One measured value: the reported number and the per-pass values it is
/// the median of (empty for counts and one-shot measurements).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// A name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// Per-pass values, in pass order.
    pub raw: Vec<f64>,
}

/// What one run of one workload found.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations attempted (replays or loads), warm-up included.
    pub attempted: u64,
    /// Operations that failed or broke a check.
    pub failed: u64,
    /// Checks over whole passes that failed (fingerprints, journal
    /// resume, server statistics), in words.
    pub broken: Vec<String>,
    /// Measured values in report order.
    pub metrics: Vec<Metric>,
    /// Run facts for the provenance record (`passes`, `ops_per_pass`,
    /// `threads`, …).
    pub facts: Vec<(&'static str, u64)>,
}

impl RunResult {
    /// True when every operation and every whole-pass check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty()
    }

    /// Record a whole-pass check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    /// Report a single value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value, raw: Vec::new() });
    }

    /// Report the median of per-pass values, keeping the values.
    pub fn put_median(&mut self, name: &'static str, raw: Vec<f64>) {
        self.put_with(name, crate::stats::median(&raw), raw);
    }

    /// Report `value` and keep the per-pass values it was formed beside.
    pub fn put_with(&mut self, name: &'static str, value: f64, raw: Vec<f64>) {
        self.metrics.push(Metric { name, value, raw });
    }

    /// Print every metric by name with its unit (and the spread of its
    /// per-pass values, where it has them), then checks and the verdict.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            let passes = if m.raw.is_empty() {
                String::new()
            } else {
                let (lo, hi) = (crate::stats::min(&m.raw), crate::stats::max(&m.raw));
                let mid = crate::stats::median(&m.raw);
                format!("  ({} passes: median {mid:.4}, min {lo:.4}, max {hi:.4})", m.raw.len())
            };
            println!("{workload:9} {:40} {:>16.4} {:6}{passes}", m.name, m.value, unit_of(m.name));
        }
        for what in &self.broken {
            println!("{workload:9} CHECK FAILED: {what}");
        }
        println!(
            "{workload:9} attempted {} failed {} -> {}",
            self.attempted,
            self.failed,
            if self.correct() { "correct" } else { "INCORRECT" }
        );
    }

    /// Value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The final stdout line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, holding every metric of `table` (one this workload
    /// does not exercise reads 0).
    pub fn line(&self, table: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<(String, Value)> = table
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                (name.to_string(), json!({"value": value, "unit": unit}))
            })
            .collect();
        let line = json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        });
        serde_json::to_string(&line).expect("a value tree always serializes")
    }

    /// Everything measured, for the provenance record: each metric with
    /// its unit, min, max and per-pass values, plus checks and run facts.
    pub fn detail(&self) -> Value {
        let metrics: Vec<(String, Value)> = self
            .metrics
            .iter()
            .map(|m| {
                let mut entry = vec![
                    ("value".to_string(), json!(m.value)),
                    ("unit".to_string(), json!(unit_of(m.name))),
                ];
                if !m.raw.is_empty() {
                    entry.push(("min".to_string(), json!(crate::stats::min(&m.raw))));
                    entry.push(("max".to_string(), json!(crate::stats::max(&m.raw))));
                    entry.push(("raw".to_string(), json!(m.raw)));
                }
                (m.name.to_string(), Value::Object(entry))
            })
            .collect();
        let facts: Vec<(String, Value)> =
            self.facts.iter().map(|&(k, v)| (k.to_string(), json!(v))).collect();
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "broken": self.broken,
            "facts": Value::Object(facts),
            "metrics": Value::Object(metrics),
        })
    }
}

/// Unit of metric `name` from either table (`""` for an unknown name).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, u)| u)
}

/// `(name, unit)` of the end-to-end metrics the manifest lists.
pub fn end_to_end_units() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().filter(|m| m.manifest).map(|m| (m.name, m.unit)).collect()
}

/// `(name, unit)` of the per-layer metrics.
pub fn per_layer_units() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "{name}");
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound <= 0.25 && (m.bound > 0.0 || !m.manifest));
        }
        for (name, unit, better) in PER_LAYER {
            assert!(name_ok(name) && seen.insert(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
            assert!(better == "lower" || better == "higher");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for name in EXACT_LAYER {
            assert!(
                PER_LAYER.iter().any(|&(n, _, _)| n == name),
                "{name} is not a per-layer metric"
            );
        }
        let setup = END_TO_END[0];
        assert_eq!((setup.name, setup.unit, setup.better), ("setup_s", "s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("BENCHMARK.json parses");
        assert_eq!(committed, manifest(), "regenerate with `bench manifest > BENCHMARK.json`");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult { attempted: 10, ..Default::default() };
        r.put("setup_s", 0.5);
        r.put_median("replays_per_s", vec![3.0, 1.0, 2.0]);
        assert_eq!(r.get("replays_per_s"), Some(2.0));
        let d = r.detail();
        let rps = d.get("metrics").and_then(|m| m.get("replays_per_s")).expect("detail entry");
        assert_eq!(rps.get("min").and_then(Value::as_f64), Some(1.0));
        assert_eq!(rps.get("unit").and_then(Value::as_str), Some("1/s"));
        let v: Value = serde_json::from_str(&r.line(&end_to_end_units())).expect("parses");
        let Value::Object(pairs) = &v else { panic!("not an object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s").and_then(|s| s.get("value")).and_then(Value::as_f64),
            Some(0.5)
        );
        assert_eq!(m.get("setup_s").and_then(|s| s.get("unit")).and_then(Value::as_str), Some("s"));
        r.check(false, || "fingerprint".into());
        assert!(!r.correct());
    }
}
