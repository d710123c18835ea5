//! Fig. 4 — custom strategies on the synthetic single-server sites s1–s10
//! (§4.3): push-all and a hand-crafted critical strategy, both normalized
//! to no push, with 95 % confidence intervals. The paper sees push-all
//! reduce PLT (everything is on one server) but rarely improve SpeedIndex,
//! and the custom strategy matching push-all while pushing far fewer
//! bytes.

use super::{cell, fan_out, mean_pushed_bytes, record_all, summaries, Scale};
use crate::sweep::CellStats;
use h2push_metrics::relative_change_pct;
use h2push_strategies::{push_all, Strategy};
use h2push_webmodel::{custom_strategy, synthetic_set};

/// One synthetic site's Fig. 4 numbers.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Site name (s1..s10).
    pub site: String,
    /// No-push baseline.
    pub base: CellStats,
    /// Push-all measurement.
    pub push_all: CellStats,
    /// Custom-strategy measurement.
    pub custom: CellStats,
    /// Mean relative change of SpeedIndex, push-all vs no-push (%).
    pub push_all_si_pct: f64,
    /// Mean relative change of SpeedIndex, custom vs no-push (%).
    pub custom_si_pct: f64,
    /// Mean relative change of PLT, push-all vs no-push (%).
    pub push_all_plt_pct: f64,
    /// Mean relative change of PLT, custom vs no-push (%).
    pub custom_plt_pct: f64,
    /// Bytes pushed by push-all / by the custom strategy.
    pub push_all_bytes: f64,
    /// Bytes pushed by the custom strategy.
    pub custom_bytes: f64,
}

/// Run the Fig. 4 experiment.
pub fn fig4_custom(scale: Scale, lost: &mut Vec<String>) -> Vec<Fig4Row> {
    fan_out(
        &record_all(synthetic_set()),
        |site| {
            let page = &site.page;
            let custom = Strategy::PushList { order: custom_strategy(page) };
            vec![
                cell(site, Strategy::NoPush, scale, scale.seed),
                cell(site, push_all(page, &[]), scale, scale.seed ^ 1),
                cell(site, custom, scale, scale.seed ^ 2),
            ]
        },
        |site, m| {
            let ((base_plt, base_si), (pa_plt, pa_si), (cu_plt, cu_si)) =
                (summaries(&m[0]), summaries(&m[1]), summaries(&m[2]));
            Fig4Row {
                site: site.page.name.clone(),
                push_all_si_pct: relative_change_pct(pa_si.mean, base_si.mean),
                custom_si_pct: relative_change_pct(cu_si.mean, base_si.mean),
                push_all_plt_pct: relative_change_pct(pa_plt.mean, base_plt.mean),
                custom_plt_pct: relative_change_pct(cu_plt.mean, base_plt.mean),
                push_all_bytes: mean_pushed_bytes(&m[1]),
                custom_bytes: mean_pushed_bytes(&m[2]),
                base: m[0].clone(),
                push_all: m[1].clone(),
                custom: m[2].clone(),
            }
        },
        lost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::clean;

    #[test]
    fn covers_all_ten_sites_and_custom_pushes_less() {
        let rows = clean(|lost| fig4_custom(Scale { sites: 10, runs: 3, seed: 6 }, lost));
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.custom_bytes <= r.push_all_bytes, "{}: custom must push less", r.site);
            assert!(r.base.plt_stats().unwrap().median > 0.0);
        }
        // s1: the paper pushes ~309 KB custom vs ~1057 KB push-all.
        let s1 = rows.iter().find(|r| r.site.starts_with("s1-")).unwrap();
        assert!(s1.custom_bytes < s1.push_all_bytes / 2.0);
    }

    #[test]
    fn push_all_is_benign_on_single_server_sites() {
        // §4.3's conclusions for s1–s10: push-all can reduce PLT, "we do
        // not observe significant detrimental effects", and the custom
        // strategy performs like push-all while pushing fewer bytes.
        let rows = clean(|lost| fig4_custom(Scale { sites: 10, runs: 3, seed: 9 }, lost));
        let improved = rows.iter().filter(|r| r.push_all_plt_pct < -1.0).count();
        assert!(improved >= 2, "push-all PLT never helps: {improved}/10");
        for r in &rows {
            assert!(
                r.push_all_plt_pct < 8.0,
                "{}: significant PLT detriment {}%",
                r.site,
                r.push_all_plt_pct
            );
            // Custom tracks push-all within a modest band on SpeedIndex.
            assert!(
                (r.custom_si_pct - r.push_all_si_pct).abs() < 25.0,
                "{}: custom {}% vs push-all {}%",
                r.site,
                r.custom_si_pct,
                r.push_all_si_pct
            );
        }
    }
}
