//! Fig. 2 — testbed validation (§4.1).
//!
//! * Fig. 2a: per-site standard error σx̄ of PLT and SpeedIndex over 31
//!   runs, testbed vs Internet. The paper finds σx̄ < 100 ms for 95 % of
//!   sites in the testbed but only 14 % in the Internet.
//! * Fig. 2b: Δ (push-as-recorded − no-push) of PLT and SpeedIndex per
//!   site, in the testbed ([`FIG2B`], a [`Paired`] row); 49 % (PLT) /
//!   35 % (SI) of sites see no benefit.

use super::paired::{Corpus, Paired};
use super::{cell, fan_out, record_all, summaries, Scale};
use crate::harness::Mode;
use h2push_strategies::push_as_recorded;
use h2push_webmodel::{generate_set, CorpusKind};

/// One site's variability numbers.
#[derive(Debug, Clone)]
pub struct VariabilityRow {
    /// Site name.
    pub site: String,
    /// σx̄ of PLT in the testbed.
    pub tb_plt_stderr: f64,
    /// σx̄ of SpeedIndex in the testbed.
    pub tb_si_stderr: f64,
    /// σx̄ of PLT in the Internet.
    pub inet_plt_stderr: f64,
    /// σx̄ of SpeedIndex in the Internet.
    pub inet_si_stderr: f64,
}

/// Fig. 2a data: variability per site, with and without push conditions
/// folded together as in the paper (the push configuration is used).
pub fn fig2a_variability(scale: Scale, lost: &mut Vec<String>) -> Vec<VariabilityRow> {
    let sites = record_all(generate_set(CorpusKind::PushUsers, scale.sites, scale.seed));
    fan_out(
        &sites,
        |site| {
            let push = push_as_recorded(&site.page);
            vec![
                cell(site, push.clone(), scale, scale.seed),
                cell(site, push, scale, scale.seed ^ 0xA5A5).mode(Mode::Internet),
            ]
        },
        |site, m| {
            let ((tb_plt, tb_si), (inet_plt, inet_si)) = (summaries(&m[0]), summaries(&m[1]));
            VariabilityRow {
                site: site.page.name.clone(),
                tb_plt_stderr: tb_plt.std_err,
                tb_si_stderr: tb_si.std_err,
                inet_plt_stderr: inet_plt.std_err,
                inet_si_stderr: inet_si.std_err,
            }
        },
        lost,
    )
}

/// Fig. 2b: push as recorded against no push in the testbed.
pub const FIG2B: Paired = Paired {
    title: "Fig. 2b — push (as recorded) vs no push",
    corpus: Corpus::Generated(CorpusKind::PushUsers),
    ordered: false,
    treatments: &[("push as recorded", |page, _| push_as_recorded(page))],
    paper: "paper: no benefit (Δ ≥ 0) for 49% (PLT) / 35% (SI) of sites",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::clean;
    use crate::experiments::paired::PairedSite;
    use h2push_metrics::share_below;

    #[test]
    fn testbed_removes_variability() {
        let rows = clean(|lost| fig2a_variability(Scale { sites: 8, runs: 7, seed: 11 }, lost));
        assert_eq!(rows.len(), 8);
        let tb: Vec<f64> = rows.iter().map(|r| r.tb_plt_stderr).collect();
        let inet: Vec<f64> = rows.iter().map(|r| r.inet_plt_stderr).collect();
        // The paper's claim in miniature: testbed σx̄ below Internet σx̄
        // for the vast majority of sites.
        let lower = rows.iter().filter(|r| r.tb_plt_stderr < r.inet_plt_stderr).count() as f64
            / rows.len() as f64;
        assert!(lower >= 0.7, "testbed not calmer: {tb:?} vs {inet:?}");
        // Most testbed sites sit below 100 ms stderr.
        assert!(share_below(&tb, 100.0) >= 0.6, "testbed σ too large: {tb:?}");
    }

    #[test]
    fn push_vs_nopush_has_both_signs() {
        let rows = clean(|lost| FIG2B.run(Scale { sites: 10, runs: 5, seed: 3 }, lost));
        assert_eq!(rows.len(), 10);
        let d_si = |r: &&PairedSite| r.treatments[0].median[1];
        let improved = rows.iter().filter(|r| d_si(r) < 0.0).count();
        let hurt = rows.iter().filter(|r| d_si(r) > 0.0).count();
        // The paper's point: real-world push lists help some sites and
        // hurt others.
        assert!(improved > 0, "no site improved: {rows:?}");
        assert!(hurt > 0, "no site degraded: {rows:?}");
    }
}
