//! `h2push experiment <id>` — regenerate every table and figure but
//! Fig. 1, which measures the 2017 web.
//!
//! One row of [`EXPERIMENTS`] per paper artifact, ablation and context
//! experiment (`DESIGN.md` §3 is the index, `EXPERIMENTS.md` the
//! paper-vs-measured record). The drivers that produce the data live in
//! [`h2push_testbed::experiments`]; a row renders a driver's rows as the
//! text table the paper's figure is redrawn from. Every renderer is a
//! pure function of its [`Scale`], so `tests/experiments.rs` pins each
//! one's output at a tiny scale against a text fixture.
//!
//! Every replay of every experiment runs on the testbed's one executor
//! ([`run_cells`]): a renderer declares its cells — figure drivers through
//! `experiments::fan_out`, the ablations here as explicit-config
//! [`RunPlan`]s over one [`ReplayInputs`] per page — and a cell that lost
//! a repetition comes back as a status line in the renderer's `lost`
//! list, which `h2push experiment` prints on stderr before exiting 1.

use h2push_metrics::{percentile, share_below, RunStats};
use h2push_netsim::{NetworkSpec, SimDuration};
use h2push_strategies::{
    critical_set, interleave_offset, paper_strategy, push_all, PaperStrategy, Strategy,
};
use h2push_testbed::experiments::fig2::{fig2a_variability, VariabilityRow, FIG2B};
use h2push_testbed::experiments::fig3::{pushable_stats, FIG3A_RANDOM, FIG3A_TOP, FIG3B};
use h2push_testbed::experiments::fig4::FIG4;
use h2push_testbed::experiments::fig5::{fig5_sizes, fig5b_interleaving, Fig5Strategy};
use h2push_testbed::experiments::fig6::{fig6_realworld, winners};
use h2push_testbed::experiments::paired::{shares, Class, Delta, Paired, PairedSite};
use h2push_testbed::experiments::types_study::TYPES;
use h2push_testbed::{
    push_orders, run_cells, run_fault_matrix, CellStats, FaultProfile, Protocol, ReplayConfig,
    ReplayInputs, ReplayOutcome, RunOutput, RunPlan,
};
use h2push_webmodel::{
    generate_set, generate_site, realworld_set, realworld_site, CorpusKind, ResourceType,
};
use std::io::{self, Write};
use std::sync::Arc;

pub use h2push_testbed::experiments::Scale;

/// Renders one experiment at a scale into a text sink, appending one
/// status line per cell that lost a repetition to the list.
pub type Render = fn(Scale, &mut dyn Write, &mut Vec<String>) -> io::Result<()>;

/// Every experiment: `(id, what it regenerates, renderer)`.
pub const EXPERIMENTS: [(&str, &str, Render); 18] = [
    ("fig2a", "Fig. 2a: per-site std. error, testbed vs Internet", fig2a),
    ("fig2b", "Fig. 2b: push as recorded vs no push", fig2b),
    ("pushable", "§4.2: share of sites with <20% pushable objects", pushable),
    ("fig3a", "Fig. 3a: push all in computed order vs no push", fig3a),
    ("fig3b", "Fig. 3b: push 1/5/10/15/all on the random corpus", fig3b),
    ("types", "§4.2.1: pushing specific object types", types),
    ("fig4", "Fig. 4: custom strategies on s1-s10", fig4),
    ("fig5b", "Fig. 5b: SpeedIndex vs HTML size, interleaving flat", fig5b),
    ("fig6", "Fig. 6: the six §5 strategies on w1-w20", fig6),
    ("table1", "Table 1: the w1-w20 site inventory", table1),
    ("h1-vs-h2", "context: HTTP/1.1 vs HTTP/2 without push", h1_vs_h2),
    ("ablation-cache", "push vs the client cache, with and without cache digests", ablation_cache),
    ("ablation-network", "push benefit vs RTT and bandwidth", ablation_network),
    ("ablation-offset", "the interleave switch offset", ablation_offset),
    ("ablation-order", "computed vs reversed vs images-first push order", ablation_order),
    ("ablation-profiles", "§6: strategies across access profiles", ablation_profiles),
    ("ablation-scanner", "push-all with and without the preload scanner", ablation_scanner),
    ("loss-sweep", "push strategies under Gilbert-Elliott burst loss", loss_sweep),
];

/// Look an experiment's renderer up by id.
pub fn find(id: &str) -> Option<Render> {
    EXPERIMENTS.iter().find(|(i, _, _)| *i == id).map(|&(_, _, render)| render)
}

/// CDF summary line: the share of values below the given thresholds plus
/// key percentiles — enough to redraw the paper's CDFs.
fn cdf_summary(
    out: &mut dyn Write,
    label: &str,
    values: &[f64],
    thresholds: &[f64],
) -> io::Result<()> {
    write!(out, "{label:28}")?;
    for &t in thresholds {
        write!(out, "  P[x<{t:>6}]={:5.1}%", share_below(values, t) * 100.0)?;
    }
    for p in [10.0, 50.0, 90.0] {
        write!(out, "  p{p:.0}={:8.1}", percentile(values, p))?;
    }
    writeln!(out)
}

/// SpeedIndex summary of a measured cell.
fn si_stats(cell: &CellStats) -> RunStats {
    cell.speed_index_stats().expect("a rowed cell has a rep that reached onload")
}

/// Mean of `values`: NaN when there are none or a replay behind one
/// failed (the failure is reported on stderr).
fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len();
    values.sum::<f64>() / n as f64
}

/// All testbed reps of `strategy` on `site`, as a cell.
fn testbed_cell(site: &ReplayInputs, strategy: Strategy, scale: Scale) -> RunPlan {
    RunPlan::new(site).strategy(strategy).reps(scale.runs).seed(scale.seed)
}

/// Mean (SpeedIndex, PLT) over each cell's completed reps, every rep of
/// every cell as one fan-out.
fn mean_si_plt(cells: &[RunPlan], lost: &mut Vec<String>) -> Vec<(f64, f64)> {
    let load = |run: RunOutput| (run.outcome.load.speed_index(), run.outcome.load.plt());
    run_cells(cells, load, lost)
        .iter()
        .map(|reps| (mean(reps.iter().map(|rep| rep.0)), mean(reps.iter().map(|rep| rep.1))))
        .collect()
}

/// `metrics` of one replay per `(site, config)` condition, all of them as
/// one fan-out of one-rep cells. A failed replay reads NaN.
fn replay_each<'a, const N: usize>(
    conditions: impl IntoIterator<Item = (&'a ReplayInputs, ReplayConfig)>,
    metrics: impl Fn(&ReplayOutcome) -> [f64; N] + Sync,
    lost: &mut Vec<String>,
) -> Vec<[f64; N]> {
    let cells: Vec<RunPlan> =
        conditions.into_iter().map(|(site, cfg)| RunPlan::new(site).config(cfg)).collect();
    let replays = run_cells(&cells, |run| metrics(&run.outcome), lost);
    replays.iter().map(|rep| rep.first().copied().unwrap_or([f64::NAN; N])).collect()
}

/// SpeedIndex of `scale.runs` replays under each `(site, config)`
/// condition, rep `r` with network seed `scale.seed + r`.
fn speed_indexes(
    conditions: &[(&ReplayInputs, ReplayConfig)],
    scale: Scale,
    lost: &mut Vec<String>,
) -> Vec<Vec<f64>> {
    let reps = conditions.iter().flat_map(|(site, cfg)| {
        (0..scale.runs as u64).map(move |r| {
            let mut cfg = cfg.clone();
            cfg.network.seed = scale.seed + r;
            (*site, cfg)
        })
    });
    let sis = replay_each(reps, |replay| [replay.load.speed_index()], lost);
    sis.chunks(scale.runs.max(1)).map(|reps| reps.iter().map(|si| si[0]).collect()).collect()
}

/// Fig. 2a — per-site standard error of PLT and SpeedIndex over repeated
/// runs: testbed vs Internet (§4.1).
fn fig2a(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    writeln!(out, "Fig. 2a — std. error σx̄ over {} runs, {} sites", scale.runs, scale.sites)?;
    let rows = fig2a_variability(scale, lost);
    let col = |f: fn(&VariabilityRow) -> f64| rows.iter().map(f).collect::<Vec<f64>>();
    let t = [50.0, 100.0, 250.0];
    cdf_summary(out, "PLT σx̄ testbed [ms]", &col(|r| r.tb_plt_stderr), &t)?;
    cdf_summary(out, "PLT σx̄ internet [ms]", &col(|r| r.inet_plt_stderr), &t)?;
    cdf_summary(out, "SI σx̄ testbed [ms]", &col(|r| r.tb_si_stderr), &t)?;
    cdf_summary(out, "SI σx̄ internet [ms]", &col(|r| r.inet_si_stderr), &t)?;
    writeln!(out, "\npaper: testbed σx̄ < 100 ms for 95% of sites (PLT); Internet only 14%.")
}

/// A paired row's report: per treatment, the CDF of the per-site median
/// paired Δ and the shares of sites the sign test classes better, n.s.
/// (indistinguishable) and worse; then the A/A line. Returns the rows.
fn paired(
    row: &Paired,
    scale: Scale,
    out: &mut dyn Write,
    lost: &mut Vec<String>,
) -> io::Result<Vec<PairedSite>> {
    writeln!(
        out,
        "{}, {} sites × {} runs; per site the median Δ over same-seed pairs, sign test at 99.5%",
        row.title, scale.sites, scale.runs
    )?;
    let rows = row.run(scale, lost);
    let aa = shares(&rows, |r| &r.aa);
    for (t, (label, _)) in row.treatments.iter().enumerate() {
        for (m, metric) in ["ΔPLT", "ΔSI"].into_iter().enumerate() {
            let medians: Vec<f64> = rows.iter().map(|r| r.treatments[t].median[m]).collect();
            cdf_summary(out, &format!("{label}: {metric} [ms]"), &medians, &[-100.0, 0.0, 100.0])?;
        }
        shares_line(out, &format!("{label}: sites"), shares(&rows, |r| &r.treatments[t]), aa)?;
    }
    shares_line(out, "A/A: no push, disjoint seeds", aa, [[f64::NEG_INFINITY; 3]; 2])?;
    Ok(rows)
}

/// `share` in %, or `unresolved` unless it exceeds `floor` (the A/A
/// arm's share of the same class).
fn resolved(share: f64, floor: f64) -> String {
    match share > floor {
        true => format!("{:.0}%", share * 100.0),
        false => "unresolved".to_string(),
    }
}

/// One arm's better / n.s. / worse shares of sites, PLT then SpeedIndex;
/// a better or worse share that does not exceed `floor`'s prints
/// `unresolved`.
fn shares_line(
    out: &mut dyn Write,
    label: &str,
    arm: [[f64; 3]; 2],
    floor: [[f64; 3]; 2],
) -> io::Result<()> {
    write!(out, "{label:28}")?;
    for (m, metric) in ["PLT", "SI"].into_iter().enumerate() {
        let [better, same, worse] = arm[m];
        write!(
            out,
            "  {metric:>3} better {:>10}  n.s. {:>4.0}%  worse {:>10}",
            resolved(better, floor[m][0]),
            same * 100.0,
            resolved(worse, floor[m][2])
        )?;
    }
    writeln!(out)
}

/// Fig. 2b — Δ(PLT/SpeedIndex) of push-as-deployed vs no push in the
/// testbed (§4.1).
fn fig2b(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    paired(&FIG2B, scale, out, lost)?;
    writeln!(out, "{}", FIG2B.paper)
}

/// §4.2 "Pushable Objects" — share of sites with < 20 % pushable objects.
fn pushable(scale: Scale, out: &mut dyn Write, _: &mut Vec<String>) -> io::Result<()> {
    writeln!(out, "Pushable objects per site ({} sites per corpus)", scale.sites)?;
    for (kind, label, paper) in
        [(CorpusKind::Top, "top-100", 52.0), (CorpusKind::Random, "random-100", 24.0)]
    {
        let stats = pushable_stats(kind, scale);
        cdf_summary(out, &format!("{label} pushable fraction"), &stats.fractions, &[0.2, 0.5])?;
        writeln!(
            out,
            "  → {:.0}% of {label} sites have <20% pushable (paper: {paper:.0}%)",
            stats.share_below_20pct * 100.0
        )?;
    }
    Ok(())
}

/// Fig. 3a — push all (computed order) vs no push on both corpora (§4.2.1).
fn fig3a(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    for row in [&FIG3A_TOP, &FIG3A_RANDOM] {
        paired(row, scale, out, lost)?;
        writeln!(out, "{}\n", row.paper)?;
    }
    Ok(())
}

/// Fig. 3b — push 1/5/10/15/all on the random corpus (§4.2.1).
fn fig3b(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    paired(&FIG3B, scale, out, lost)?;
    writeln!(out, "{}", FIG3B.paper)
}

/// §4.2.1 — pushing specific object types on the random corpus, and the
/// share of sites whose best single type (css, js or images) the sign
/// test classes better.
fn types(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    let rows = paired(&TYPES, scale, out, lost)?;
    let aa = shares(&rows, |r| &r.aa);
    let best = [0, 1].map(|m| {
        let better =
            |r: &&PairedSite| r.treatments[..3].iter().any(|d| d.class[m] == Class::Better);
        resolved(rows.iter().filter(better).count() as f64 / rows.len().max(1) as f64, aa[m][0])
    });
    writeln!(
        out,
        "{:28}  PLT better {:>10}   SI better {:>10}",
        "best single type", best[0], best[1]
    )?;
    writeln!(out, "{}", TYPES.paper)
}

/// Fig. 4 — custom strategies on the synthetic sites s1–s10 (§4.3): per
/// site, each treatment's median paired Δ as a share of the no-push
/// median, and its sign-test classes.
fn fig4(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    writeln!(
        out,
        "{}, {} runs each, paired (median Δ vs no push in % of its median; Δ<0 better)",
        FIG4.title, scale.runs
    )?;
    writeln!(
        out,
        "{:22} {:>9} {:>9} | {:>9} {:>9} | {:>10} {:>10} | {:>13} {:>13}",
        "site",
        "all ΔPLT%",
        "all ΔSI%",
        "cust ΔPLT%",
        "cust ΔSI%",
        "cust KB",
        "all KB",
        "all PLT/SI",
        "cust PLT/SI"
    )?;
    let rows = FIG4.run(scale, lost);
    for r in &rows {
        let (all, cust) = (&r.treatments[0], &r.treatments[1]);
        let pct = |d: &Delta, m: usize| 100.0 * d.median[m] / r.base[m];
        let class = |d: &Delta| format!("{}/{}", class_label(d.class[0]), class_label(d.class[1]));
        writeln!(
            out,
            "{:22} {:>9.1} {:>9.1} | {:>10.1} {:>9.1} | {:>10.0} {:>10.0} | {:>13} {:>13}",
            r.site,
            pct(all, 0),
            pct(all, 1),
            pct(cust, 0),
            pct(cust, 1),
            cust.pushed_bytes / 1024.0,
            all.pushed_bytes / 1024.0,
            class(all),
            class(cust)
        )?;
    }
    let aa = shares(&rows, |r| &r.aa);
    shares_line(out, "A/A: no push, disjoint seeds", aa, [[f64::NEG_INFINITY; 3]; 2])?;
    writeln!(out, "{}", FIG4.paper)
}

/// How the sign test classed a paired Δ.
fn class_label(class: Class) -> &'static str {
    match class {
        Class::Better => "better",
        Class::Indistinguishable => "n.s.",
        Class::Worse => "worse",
    }
}

/// Fig. 5b — the Interleaving Push motivating example (§5).
fn fig5b(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    writeln!(out, "Fig. 5b — SpeedIndex [ms] vs HTML size; mean ± std over {} runs", scale.runs)?;
    writeln!(out, "{:>9} {:>18} {:>18} {:>18}", "HTML", "no push", "push", "interleaving")?;
    let points = fig5b_interleaving(scale, lost);
    for size in fig5_sizes() {
        let cell = |s: Fig5Strategy| {
            let point = points.iter().find(|p| p.html_size == size && p.strategy == s);
            point.map_or("n/a".to_string(), |p| {
                let si = si_stats(&p.metrics);
                format!("{:8.1} ±{:5.1}", si.mean, si.std_dev)
            })
        };
        writeln!(
            out,
            "{:>6} KB {:>18} {:>18} {:>18}",
            size / 1024,
            cell(Fig5Strategy::NoPush),
            cell(Fig5Strategy::Push),
            cell(Fig5Strategy::Interleaving)
        )?;
    }
    writeln!(out, "\npaper: no push and push grow with the document; interleaving stays flat.")
}

/// Fig. 6 — the six §5 strategies on the Table-1 sites w1–w20.
fn fig6(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    writeln!(
        out,
        "Fig. 6 — avg relative ΔSpeedIndex vs no push [%], ±99.5% CI half-width, {} runs",
        scale.runs
    )?;
    writeln!(
        out,
        "{:18} {:>8} | {:>8} {:>8} {:>8} {:>8} {:>8} | {:>9} {:>7}",
        "site", "base SI", "np-opt", "push all", "pa-opt", "push crit", "pc-opt", "pushed KB", "CI"
    )?;
    let rows = fig6_realworld(scale, lost);
    for r in &rows {
        let c = |s: PaperStrategy| r.cell(s).si_pct;
        let pco = r.cell(PaperStrategy::PushCriticalOptimized);
        writeln!(
            out,
            "{:18} {:>8.0} | {:>8.1} {:>8.1} {:>8.1} {:>9.1} {:>8.1} | {:>9.0} {:>7.1}",
            r.site,
            si_stats(&r.cell(PaperStrategy::NoPush).metrics).mean,
            c(PaperStrategy::NoPushOptimized),
            c(PaperStrategy::PushAll),
            c(PaperStrategy::PushAllOptimized),
            c(PaperStrategy::PushCritical),
            c(PaperStrategy::PushCriticalOptimized),
            pco.pushed_bytes / 1024.0,
            si_stats(&pco.metrics).ci_half_width(0.995)
        )?;
    }
    let w: Vec<&str> = winners(&rows).iter().map(|r| r.site.as_str()).collect();
    writeln!(out, "\nFig. 6a winners (≥20% SI improvement under push critical optimized): {w:?}")?;
    writeln!(out, "paper: five winners, led by w1-wikipedia (−68.9%), w2-apple (−29.7%), w16-twitter (−19.7%).")
}

/// Table 1 — the w1–w20 site inventory (structural view of our specs).
fn table1(_: Scale, out: &mut dyn Write, _: &mut Vec<String>) -> io::Result<()> {
    writeln!(out, "Table 1 — modelled structure of the interleaving-push site set")?;
    writeln!(
        out,
        "{:18} {:>8} {:>9} {:>8} {:>10} {:>10} {:>9}",
        "site", "HTML KB", "requests", "servers", "pushable", "push KB", "inline ms"
    )?;
    for p in realworld_set() {
        let inline_ms: u64 = p.inline_scripts.iter().map(|s| s.exec_us).sum::<u64>() / 1000;
        writeln!(
            out,
            "{:18} {:>8} {:>9} {:>8} {:>9.0}% {:>10.0} {:>9}",
            p.name,
            p.html_size() / 1024,
            p.resources.len(),
            p.server_group_count(),
            p.pushable_fraction() * 100.0,
            p.pushable_bytes() as f64 / 1024.0,
            inline_ms
        )?;
    }
    Ok(())
}

/// Context experiment: HTTP/1.1 vs HTTP/2 (no push).
///
/// The paper's §1–§3 stand on prior findings — Varvello et al. ("Is the Web
/// HTTP/2 Yet?": ~80 % of sites load faster over H2), de Saxcé et al. (H2
/// is less sensitive to latency), Wang et al. (benefits grow with RTT,
/// few/small objects can favour H1). This reproduces that context in the
/// replay testbed: the same corpus loaded over the H1 six-connection
/// baseline and over H2.
fn h1_vs_h2(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    let sites: Vec<ReplayInputs> = generate_set(CorpusKind::Random, scale.sites, scale.seed)
        .into_iter()
        .map(ReplayInputs::from)
        .collect();
    const RTTS_MS: [u64; 5] = [10, 25, 50, 100, 200];
    // An (H1, H2) pair of replays per site at the paper's DSL profile,
    // then one pair per RTT on the first site.
    let pairs = sites
        .iter()
        .map(|site| (site, None))
        .chain(RTTS_MS.iter().map(|&rtt_ms| (&sites[0], Some(rtt_ms))));
    let conditions = pairs.flat_map(|(site, rtt_ms)| {
        [Protocol::H1, Protocol::H2].map(|protocol| {
            let mut cfg = ReplayConfig::testbed(Strategy::NoPush);
            cfg.protocol = protocol;
            if let Some(rtt_ms) = rtt_ms {
                cfg.network.client_down.delay = SimDuration::from_micros(rtt_ms * 500);
                cfg.network.client_up.delay = SimDuration::from_micros(rtt_ms * 500);
            }
            (site, cfg)
        })
    });
    let plts = replay_each(conditions, |replay| [replay.load.plt()], lost);
    let (corpus, rtt_sweep) = plts.split_at(2 * sites.len());

    // Part 1: corpus-wide H2 benefit at the paper's DSL profile (sites
    // with a failed replay are left out).
    let deltas: Vec<f64> = corpus
        .chunks(2)
        .map(|pair| (pair[1][0] - pair[0][0]) / pair[0][0] * 100.0)
        .filter(|delta| !delta.is_nan())
        .collect();
    let s = RunStats::of(&deltas);
    writeln!(
        out,
        "PLT over {} random sites: H2 faster on {:.0}% (paper context [35]: ~80%); \
         mean change {:+.1}%, median {:+.1}%",
        deltas.len(),
        share_below(&deltas, 0.0) * 100.0,
        s.mean,
        s.median
    )?;

    // Part 2: RTT sensitivity on one many-object page (de Saxcé/Wang).
    let page = &sites[0].page;
    writeln!(out, "\nRTT sweep on {} ({} requests):", page.name, page.resources.len())?;
    writeln!(out, "{:>8} {:>12} {:>12} {:>9}", "RTT", "H1 PLT", "H2 PLT", "H2 gain")?;
    for (rtt_ms, pair) in RTTS_MS.iter().zip(rtt_sweep.chunks(2)) {
        let (h1, h2) = (pair[0][0], pair[1][0]);
        writeln!(
            out,
            "{:>6}ms {:>10.0}ms {:>10.0}ms {:>8.1}%",
            rtt_ms,
            h1,
            h2,
            (h2 - h1) / h1 * 100.0
        )?;
    }
    writeln!(out, "\nH2 wins through header compression and multiplexed request waves; H1")?;
    writeln!(out, "fights back with six parallel slow-starts (aggregate IW ≈ 60 segments),")?;
    writeln!(out, "which pays off on bandwidth-bound pages — the same ambivalence Wang et")?;
    writeln!(out, "al. [37] documented for SPDY, and why most-but-not-all sites gain.")
}

/// Ablation: Server Push vs the client cache (§2.1, §4.3).
///
/// "Pushing everything can be wasteful in terms of bandwidth, e.g., if the
/// resource is already cached" — and the standard offers no cache
/// signaling, only post-hoc RST_STREAM cancellation; the cache-digest
/// draft \[29\] is the proposed fix. This measures all three worlds on a
/// warm revisit.
fn ablation_cache(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    writeln!(
        out,
        "{:34} {:>10} {:>10} {:>10} {:>10}",
        "scenario", "SI [ms]", "PLT [ms]", "pushed KB", "cancelled"
    )?;
    let sites: Vec<ReplayInputs> = (0..scale.sites.min(10) as u64)
        .map(|s| generate_site(CorpusKind::Random, 4000 + s).into())
        .collect();
    const SCENARIOS: [(&str, bool, bool); 3] = [
        ("cold + push all", false, true),
        ("warm + digest-aware push", true, true),
        ("warm + digest-oblivious push", true, false),
    ];
    let conditions = SCENARIOS.iter().flat_map(|&(_, warm, honor)| {
        sites.iter().map(move |site| {
            let mut cfg = ReplayConfig::testbed(push_all(&site.page, &[]));
            if warm {
                // Everything pushable is cached (a same-day revisit).
                cfg.warm_cache = site.page.pushable();
            }
            cfg.server_honors_digest = honor;
            (site, cfg)
        })
    });
    // SI, PLT, pushed KB and cancelled pushes of every replay.
    let metrics = |replay: &ReplayOutcome| {
        let (load, pushed) = (&replay.load, replay.server_pushed_bytes);
        [load.speed_index(), load.plt(), pushed as f64 / 1024.0, load.cancelled_pushes as f64]
    };
    let replays = replay_each(conditions, metrics, lost);
    for ((label, _, _), per_site) in SCENARIOS.iter().zip(replays.chunks(sites.len().max(1))) {
        let m = [0, 1, 2, 3].map(|i| mean(per_site.iter().map(|metrics| metrics[i])));
        writeln!(out, "{:34} {:>10.0} {:>10.0} {:>10.0} {:>10.1}", label, m[0], m[1], m[2], m[3])?;
    }
    writeln!(out, "\nA digest-aware server pushes ~nothing on a warm revisit; a digest-")?;
    writeln!(out, "oblivious one ships the full push budget only for the client to cancel.")
}

/// Ablation: network conditions vs push benefit.
///
/// The paper's related work (Wang et al. \[37\], Rosen et al. \[31\], de Saxcé
/// et al. \[15\]) finds that network characteristics decide whether push
/// helps — in particular that push gains grow with the RTT (more round
/// trips to save). This varies the access RTT and bandwidth on a fixed
/// interleaving-friendly page.
fn ablation_network(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    let site = ReplayInputs::from(realworld_site(1)); // wikipedia: large document, late-arriving CSS
    let page = &site.page;
    let interleaved = Strategy::Interleaved {
        offset: interleave_offset(page),
        critical: critical_set(page),
        after: Vec::new(),
    };
    writeln!(out, "Push benefit vs network conditions on {} ({} runs/pt)", page.name, scale.runs)?;
    writeln!(
        out,
        "{:>8} {:>10} | {:>12} {:>12} {:>9} {:>8}",
        "RTT", "downlink", "no-push SI", "interleave", "Δ [ms]", "Δ [%]"
    )?;
    const LINKS: [(u64, u64); 7] =
        [(10, 16), (25, 16), (50, 16), (100, 16), (200, 16), (50, 4), (50, 50)];
    let strategies = [Arc::new(Strategy::NoPush), Arc::new(interleaved)];
    let mut conditions = Vec::new();
    for (rtt_ms, down_mbit) in LINKS {
        for strategy in &strategies {
            let mut cfg = ReplayConfig::testbed(Arc::clone(strategy));
            cfg.network.client_down.delay = SimDuration::from_micros(rtt_ms * 500);
            cfg.network.client_up.delay = SimDuration::from_micros(rtt_ms * 500);
            cfg.network.client_down.rate_bps = Some(down_mbit * 1_000_000);
            conditions.push((&site, cfg));
        }
    }
    let sis = speed_indexes(&conditions, scale, lost);
    for ((rtt_ms, down_mbit), pair) in LINKS.iter().zip(sis.chunks(2)) {
        let [a, b] = [0, 1].map(|i| mean(pair[i].iter().copied()));
        writeln!(
            out,
            "{:>6}ms {:>8}Mb | {:>10.0}ms {:>10.0}ms {:>9.0} {:>7.1}%",
            rtt_ms,
            down_mbit,
            a,
            b,
            b - a,
            (b - a) / a * 100.0
        )?;
    }
    writeln!(out, "\nabsolute savings grow with RTT (round trips saved) and explode on slow")?;
    writeln!(out, "links (serialization saved); the *relative* share shrinks as the baseline")?;
    writeln!(out, "grows — consistent with [31, 37]: network characteristics decide the win.")
}

/// Ablation: the interleave switch offset (§5).
///
/// The paper switches "after `</head>` and first bytes of `<body>`" (4 KB on
/// w1, 12 KB on w16). This shows why: switching too early starves the
/// preload scanner of the head; switching too late re-creates the no-push
/// behaviour (the whole document before the CSS).
fn ablation_offset(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    let page = realworld_site(1); // w1: 236 KB document
    let critical = critical_set(&page);
    writeln!(
        out,
        "Interleave-offset ablation on {} (critical set: {} resources), {} runs",
        page.name,
        critical.len(),
        scale.runs
    )?;
    writeln!(out, "{:>10} {:>14} {:>14}", "offset", "SpeedIndex", "PLT")?;
    let site = ReplayInputs::from(&page);
    let offsets = [1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, page.html_size()];
    // The no-push baseline, then one cell per offset.
    let cells: Vec<RunPlan> = std::iter::once(Strategy::NoPush)
        .chain(offsets.iter().map(|&offset| Strategy::Interleaved {
            offset,
            critical: critical.clone(),
            after: Vec::new(),
        }))
        .map(|strategy| testbed_cell(&site, strategy, scale))
        .collect();
    let means = mean_si_plt(&cells, lost);
    for (offset, (si, plt)) in offsets.iter().zip(&means[1..]) {
        writeln!(out, "{:>8}KB {:>10.0} ms {:>10.0} ms", offset / 1024, si, plt)?;
    }
    writeln!(out, "{:>10} {:>10.0} ms   (no push baseline)", "—", means[0].0)
}

/// Ablation: the order of pushed objects (§4.2.1).
///
/// "Suboptimal orders can have negative impacts, e.g., delay critical
/// resources": compare the computed (request) order against its reverse
/// and an images-first order on random-corpus sites.
fn ablation_order(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    writeln!(
        out,
        "Push-order ablation — Δ mean SpeedIndex vs no push [ms] over {} sites × {} runs",
        scale.sites.min(12),
        scale.runs
    )?;
    writeln!(out, "{:24} {:>12} {:>12} {:>12}", "site", "computed", "reversed", "images-first")?;
    let sites: Vec<ReplayInputs> = (0..scale.sites.min(12) as u64)
        .map(|i| generate_site(CorpusKind::Random, 7000 + i).into())
        .collect();
    let orders = push_orders(&sites, scale.runs.min(5), scale.seed, lost);
    // Per site: no push, then the computed, reversed and images-first orders.
    let cells: Vec<RunPlan> = sites
        .iter()
        .zip(&orders)
        .flat_map(|(site, order)| {
            let page = &site.page;
            let mut reversed = order.clone();
            reversed.reverse();
            let mut images_first = order.clone();
            images_first.sort_by_key(|&id| (page.resource(id).rtype != ResourceType::Image, id));
            [
                Strategy::NoPush,
                push_all(page, order),
                push_all(page, &reversed),
                push_all(page, &images_first),
            ]
            .map(|strategy| testbed_cell(site, strategy, scale))
        })
        .collect();
    for (site, m) in sites.iter().zip(mean_si_plt(&cells, lost).chunks(4)) {
        let base = m[0].0;
        writeln!(
            out,
            "{:24} {:>12.1} {:>12.1} {:>12.1}",
            site.page.name,
            m[1].0 - base,
            m[2].0 - base,
            m[3].0 - base
        )?;
    }
    writeln!(out, "\npaper: the computed (request) order avoids delaying critical resources;")?;
    writeln!(out, "suboptimal orders prefer uncritical resources and hurt visual progress.")
}

/// The §6 deployment matrix: strategy performance across access profiles.
///
/// "Several (interleaving) push strategies for different versions of a
/// website and network settings, e.g., mobile, desktop, cable or cellular,
/// could be analyzed in our testbed" — this is that analysis for one site.
fn ablation_profiles(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    let page = realworld_site(2); // apple
    writeln!(
        out,
        "Push strategies across access profiles on {} ({} runs; SpeedIndex ms)",
        page.name, scale.runs
    )?;
    writeln!(
        out,
        "{:>10} {:>10} {:>12} {:>12} {:>10}",
        "profile", "no push", "np-optimized", "pc-optimized", "pco gain"
    )?;
    // A mobile device is also CPU-slower (the §6 matrix crosses device and
    // network); pair cellular with a 3× CPU factor.
    let profiles: [(&str, NetworkSpec, f64); 4] = [
        ("fibre", NetworkSpec::fibre(), 1.0),
        ("cable", NetworkSpec::cable(), 1.0),
        ("dsl", NetworkSpec::dsl_testbed(), 1.0),
        ("cellular", NetworkSpec::cellular(), 3.0),
    ];
    // Each strategy ships with its own page variant, recorded once.
    let variants = [
        PaperStrategy::NoPush,
        PaperStrategy::NoPushOptimized,
        PaperStrategy::PushCriticalOptimized,
    ]
    .map(|which| {
        let (variant, strategy) = paper_strategy(&page, which);
        (ReplayInputs::from(variant), Arc::new(strategy))
    });
    let mut conditions = Vec::new();
    for (_, net, cpu) in &profiles {
        for (variant, strategy) in &variants {
            let mut cfg = ReplayConfig::testbed(Arc::clone(strategy));
            cfg.network = net.clone();
            cfg.browser.cpu_scale = *cpu;
            conditions.push((variant, cfg));
        }
    }
    let sis = speed_indexes(&conditions, scale, lost);
    for ((name, _, _), per_strategy) in profiles.iter().zip(sis.chunks(3)) {
        let sis = [0, 1, 2].map(|i| mean(per_strategy[i].iter().copied()));
        writeln!(
            out,
            "{:>10} {:>10.0} {:>12.0} {:>12.0} {:>9.1}%",
            name,
            sis[0],
            sis[1],
            sis[2],
            (sis[2] - sis[0]) / sis[0] * 100.0
        )?;
    }
    writeln!(out, "\nThe right strategy is profile-specific: a CDN would pick per class (§6).")
}

/// Ablation: the preload scanner vs Server Push.
///
/// Push's original promise was "save the discovery round trips". Modern
/// browsers already claw most of that back with the preload scanner, which
/// requests references straight out of the byte stream while the parser is
/// blocked — one reason the paper finds push-all barely helps. Turning the
/// scanner off shows the world the push guidelines implicitly assumed.
fn ablation_scanner(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    writeln!(
        out,
        "Push-all benefit with and without the preload scanner ({} sites × {} runs)",
        scale.sites.min(10),
        scale.runs
    )?;
    writeln!(out, "{:24} {:>16} {:>16}", "site", "scanner ΔSI", "no-scanner ΔSI")?;
    let sites: Vec<(ReplayInputs, Arc<Strategy>)> = (0..scale.sites.min(10) as u64)
        .map(|i| {
            let page = generate_site(CorpusKind::Random, 6200 + i);
            let push = Arc::new(push_all(&page, &[]));
            (page.into(), push)
        })
        .collect();
    let no_push = Arc::new(Strategy::NoPush);
    // Per site: (push all, no push) with the scanner, then without it.
    let mut conditions = Vec::new();
    for (site, push) in &sites {
        for scanner in [true, false] {
            for strategy in [push, &no_push] {
                let mut cfg = ReplayConfig::testbed(Arc::clone(strategy));
                cfg.browser.preload_scanner = scanner;
                conditions.push((site, cfg));
            }
        }
    }
    let sis = speed_indexes(&conditions, scale, lost);
    let mut with = Vec::new();
    let mut without = Vec::new();
    for ((site, _), m) in sites.iter().zip(sis.chunks(4)) {
        // Mean per-rep ΔSI of push all against no push.
        let mean_delta =
            |push: &[f64], base: &[f64]| mean(push.iter().zip(base).map(|(p, b)| p - b));
        let cells = [mean_delta(&m[0], &m[1]), mean_delta(&m[2], &m[3])];
        writeln!(out, "{:24} {:>14.1}ms {:>14.1}ms", site.page.name, cells[0], cells[1])?;
        with.push(cells[0]);
        without.push(cells[1]);
    }
    writeln!(
        out,
        "\nmean ΔSI: {:+.1} ms with scanner vs {:+.1} ms without — push mostly\n\
         re-delivers what the scanner already finds; without one, push shines.",
        mean(with.iter().copied()),
        mean(without.iter().copied())
    )
}

/// Chaos sweep: push strategies under bursty loss.
///
/// The paper evaluates push over a clean emulated DSL link; related work
/// (the lossy-cellular domain-sharding line) argues that loss is where
/// HTTP/2's single connection — and therefore push — is most exposed.
/// This injects Gilbert–Elliott burst loss at increasing rates and reruns
/// the strategy matrix on one realworld page, reporting median PLT
/// alongside the observed loss/recovery counters.
fn loss_sweep(scale: Scale, out: &mut dyn Write, lost: &mut Vec<String>) -> io::Result<()> {
    let page = realworld_site(1); // wikipedia: large document, late CSS
    let strategies = vec![
        Strategy::NoPush,
        push_all(&page, &[]),
        Strategy::Interleaved {
            offset: interleave_offset(&page),
            critical: critical_set(&page),
            after: Vec::new(),
        },
    ];
    let profiles: Vec<FaultProfile> = std::iter::once(FaultProfile::none())
        .chain([0.005, 0.01, 0.02, 0.05].into_iter().map(FaultProfile::gilbert_elliott))
        .collect();
    let inputs = ReplayInputs::from(page);

    writeln!(
        out,
        "Gilbert–Elliott loss sweep on {} ({} runs/cell, seed {})",
        inputs.page.name, scale.runs, scale.seed
    )?;
    writeln!(
        out,
        "{:>14} {:>12} | {:>10} {:>9} {:>9} {:>8} {:>8}",
        "profile", "strategy", "PLT [ms]", "loss", "rexmit", "retries", "partial"
    )?;
    let cells = run_fault_matrix(&inputs, &strategies, &profiles, scale.runs, scale.seed, lost);
    let mut current = "";
    for cell in &cells {
        if cell.profile != current {
            current = &cell.profile;
            writeln!(out, "{:-<78}", "")?;
        }
        writeln!(
            out,
            "{:>14} {:>12} | {:>10.0} {:>8.2}% {:>8.2}% {:>8.2} {:>7.0}%",
            cell.profile,
            cell.strategy,
            cell.median_plt,
            cell.recovery.loss_rate() * 100.0,
            cell.recovery.retransmit_rate() * 100.0,
            cell.recovery.mean_retries(),
            cell.recovery.partial_share() * 100.0,
        )?;
    }
    Ok(())
}
