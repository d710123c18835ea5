//! Allocation gate: prove that run-context recycling makes the replay
//! hot loop allocation-free in steady state, and keep it that way.
//!
//! Requires the `count-allocs` feature (the counting global allocator);
//! without it the binary exits with a pointer at the right invocation.
//!
//! Two figures per strategy, measured with the counting allocator:
//!
//! * **cold** — a fresh [`ReplayCtx`] constructed (and dropped) for every
//!   repetition: browser, servers, network, byte FIFOs and HPACK scratch
//!   all minted per run. This is what replay cost before recycling.
//! * **steady** — one persistent context recycled across repetitions
//!   after a short warmup; per-rep figures are the *minimum* over the
//!   measured reps (the steady-state floor — what the context converges
//!   to, independent of one-off pool growth on early reps).
//!
//! Two pages are measured: a generated corpus site (a handful of
//! connections) and w17-cnn (81 server groups, one connection pair
//! each). The second is there because a recycling limit sized on the
//! first — "keep at most 16 parked servers" — costs nothing on it and
//! silently rebuilds 65 servers per replay on the other.
//!
//! The binary fails when steady-state allocations are not at least
//! [`REDUCTION_FLOOR`]× below cold on the generated site, or
//! [`MANY_CONN_REDUCTION_FLOOR`]× on w17-cnn — recycling must stay a
//! structural win, not a wash. Outcomes of both paths are asserted
//! byte-identical (the full matrix lives in
//! `crates/testbed/tests/recycle.rs`).
//!
//! Without `--gate` the generated site's steady figure is stamped into
//! the committed `BENCH_replay.json` as `meta.allocs_per_run` (run
//! `perf_replay` first — it rewrites the whole artifact and drops the
//! stamp). With `--gate` the figure is compared against the committed
//! stamp instead and the run fails on regression beyond
//! [`GATE_SLACK`] — the CI allocation gate. The many-connection page is
//! gated by its reduction floor alone: its steady count is wire buffers
//! the bounded `bytes` pool does not hold (the benchmark tracks the exact
//! figure as `allocs_per_replay` on `fanout`), while machines that stop
//! being recycled cost ~50 allocations each per replay and pull the
//! *ratio* to cold down with them.

#[cfg(not(feature = "count-allocs"))]
fn main() {
    eprintln!(
        "alloc_gate: built without the counting allocator; run\n  \
         cargo run --release -p h2push-bench --features count-allocs --bin alloc_gate"
    );
    std::process::exit(2);
}

#[cfg(feature = "count-allocs")]
fn main() {
    gate::main()
}

#[cfg(feature = "count-allocs")]
mod gate {
    use h2push_bench::{alloc_count, bench_args, BenchMeta};
    use h2push_strategies::{push_all, Strategy};
    use h2push_testbed::{replay_in, run_config, Mode, ReplayCtx, ReplayInputs, ReplayOutcome};
    use h2push_webmodel::{generate_site, realworld_site, CorpusKind, Page};
    use std::sync::Arc;

    /// Reps that prime the persistent context (and every thread-local
    /// recycling pool) before steady-state is measured.
    const WARMUP: usize = 3;

    /// Measured reps per path; cold takes the minimum too, so both
    /// figures are floors and the ratio compares like with like.
    const REPS: usize = 9;

    /// Steady-state must allocate at least this many times less than the
    /// cold path (the tentpole's acceptance floor).
    const REDUCTION_FLOOR: u64 = 10;

    /// The same floor for w17-cnn. Lower, because 162 endpoints' DATA and
    /// header buffers overflow the `bytes` pool (bounded, to keep peak RSS
    /// flat), which leaves ~1 900 allocations per replay that no parking
    /// rule removes: 4.8× below cold with every machine parked, 1.0× with
    /// the 8/16 caps this floor is here to catch, under 4× once eight
    /// machines go unparked.
    const MANY_CONN_REDUCTION_FLOOR: u64 = 4;

    /// `--gate`: allowed growth over the committed `allocs_per_run`
    /// before the gate fails. Allocation counts in a deterministic
    /// simulator are near-exact, but std / allocator-internal behaviour
    /// may shift a handful of blocks between toolchains; a small
    /// fractional + absolute slack absorbs that without letting a real
    /// per-rep leak (which grows the count by dozens) through.
    const GATE_SLACK: f64 = 1.25;
    const GATE_SLACK_ABS: u64 = 16;

    /// Count the allocations `f` performs.
    fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
        let before = alloc_count::allocations();
        let out = f();
        (alloc_count::allocations() - before, out)
    }

    fn key(o: &ReplayOutcome) -> (f64, f64, usize, u64) {
        (o.load.plt(), o.load.speed_index(), o.trace.order.len(), o.server_pushed_bytes)
    }

    /// Pull `"allocs_per_run": N` out of the committed artifact's meta
    /// line.
    fn committed_budget(json: &str) -> Option<u64> {
        let tail = json.split("\"allocs_per_run\":").nth(1)?;
        let num: String = tail
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit())
            .collect();
        num.parse().ok()
    }

    /// Stamp (or restamp) `allocs_per_run` into the artifact's meta line,
    /// leaving every other line byte-identical.
    fn stamp_meta(json: &str, meta: &BenchMeta) -> String {
        let mut out = String::with_capacity(json.len() + 64);
        for line in json.lines() {
            if line.trim_start().starts_with("\"meta\"") {
                out.push_str(&format!("  {},", meta.to_json()));
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        out
    }

    /// Measure `page` under no-push and push-all: per strategy the cold
    /// and steady floors, their outcomes equal and steady at least
    /// `floor`× below cold. Returns the steady total.
    fn measure(name: &str, page: &Page, seed: u64, floor: u64) -> u64 {
        let strategies: [(&str, Arc<Strategy>); 2] =
            [("no_push", Arc::new(Strategy::NoPush)), ("push_all", Arc::new(push_all(page, &[])))];
        let inputs = ReplayInputs::from(page).prepared();

        let mut cold_total = 0u64;
        let mut steady_total = 0u64;
        for (label, strategy) in &strategies {
            let cfg = run_config(strategy, Mode::Testbed, seed, &inputs.page);

            // Cold floor: context minted and dropped per rep. The first
            // few reps also warm the thread-local pools, which the minimum
            // then excludes — cold is purely "construct the machinery
            // again", the honest pre-recycling baseline.
            let mut cold = u64::MAX;
            let mut cold_out = None;
            for _ in 0..REPS {
                let (n, out) = allocs_during(|| {
                    replay_in(&inputs, &cfg, &mut ReplayCtx::new()).expect("cold replay")
                });
                cold = cold.min(n);
                cold_out = Some(out);
            }

            // Steady floor: one context recycled across every rep.
            let mut ctx = ReplayCtx::new();
            for _ in 0..WARMUP {
                replay_in(&inputs, &cfg, &mut ctx).expect("warmup replay");
            }
            let mut steady = u64::MAX;
            let mut steady_out = None;
            for _ in 0..REPS {
                let (n, out) =
                    allocs_during(|| replay_in(&inputs, &cfg, &mut ctx).expect("steady replay"));
                steady = steady.min(n);
                steady_out = Some(out);
            }

            let (cold_out, steady_out) = (cold_out.unwrap(), steady_out.unwrap());
            assert_eq!(
                key(&cold_out),
                key(&steady_out),
                "{name} [{label}]: recycled outcome diverged from cold"
            );
            println!(
                "alloc gate {name} [{label}]: cold {cold} allocs/run, steady {steady} allocs/run \
                 ({:.0}x reduction)",
                cold as f64 / steady.max(1) as f64
            );
            assert!(
                steady.saturating_mul(floor) <= cold,
                "alloc gate {name} [{label}]: steady-state {steady} allocs/run is not \
                 {floor}x below the cold path's {cold}"
            );
            cold_total += cold;
            steady_total += steady;
        }

        println!(
            "alloc gate {name}: total cold {cold_total}, total steady {steady_total} \
             allocs/run across {} strategies",
            strategies.len()
        );
        steady_total
    }

    pub fn main() {
        let args = bench_args();
        let seed = args.scale.seed;
        measure("w17-cnn", &realworld_site(17), seed, MANY_CONN_REDUCTION_FLOOR);
        let generated = generate_site(CorpusKind::Random, seed);
        let steady_total = measure("generated", &generated, seed, REDUCTION_FLOOR);

        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replay.json");
        if args.gate {
            let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("alloc gate: cannot read committed baseline {path}: {e}");
                std::process::exit(1);
            });
            let budget = committed_budget(&committed).unwrap_or_else(|| {
                eprintln!(
                    "alloc gate: no allocs_per_run in {path}; regenerate with \
                     `cargo run --release -p h2push-bench --features count-allocs \
                     --bin alloc_gate` (no --gate) and commit the artifact"
                );
                std::process::exit(1);
            });
            let ceiling = (budget as f64 * GATE_SLACK) as u64 + GATE_SLACK_ABS;
            println!(
                "alloc gate: steady {steady_total} allocs/run vs committed budget {budget} \
                 (ceiling {ceiling})"
            );
            assert!(
                steady_total <= ceiling,
                "alloc gate failed: steady-state {steady_total} allocs/run exceeds the \
                 committed budget {budget} (ceiling {ceiling}) — per-rep churn crept back \
                 into the recycled path"
            );
            println!("alloc gate passed");
        } else {
            let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!(
                    "alloc gate: cannot read {path}: {e}\nalloc gate: run perf_replay \
                     first — it writes the artifact this stamps"
                );
                std::process::exit(1);
            });
            let mut meta = BenchMeta::capture();
            meta.allocs_per_run = Some(steady_total);
            std::fs::write(path, stamp_meta(&committed, &meta)).expect("write BENCH_replay.json");
            println!("stamped meta.allocs_per_run = {steady_total} into {path}");
        }
    }
}
