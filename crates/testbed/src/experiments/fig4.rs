//! Fig. 4 — custom strategies on the synthetic single-server sites s1–s10
//! (§4.3): push-all and a hand-crafted critical strategy, both normalized
//! to no push, with 95 % confidence intervals. The paper sees push-all
//! reduce PLT (everything is on one server) but rarely improve SpeedIndex,
//! and the custom strategy matching push-all while pushing far fewer
//! bytes. [`FIG4`] is a [`Paired`] row.

use super::paired::{Corpus, Paired};
use h2push_strategies::{push_all, Strategy};
use h2push_webmodel::custom_strategy;

/// Fig. 4: push all and the custom strategy against no push on s1–s10.
pub const FIG4: Paired = Paired {
    title: "Fig. 4 — s1..s10",
    corpus: Corpus::Synthetic,
    ordered: false,
    treatments: &[
        ("push all", push_all),
        ("custom", |page, _| Strategy::PushList { order: custom_strategy(page) }),
    ],
    paper: "paper: push all can cut PLT but rarely SpeedIndex, without significant harm; custom performs like push all at far fewer bytes (s1: 309 KB vs 1057 KB)",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::paired::PairedSite;
    use crate::experiments::{clean, Scale};

    /// Treatment `t`'s median paired Δ of `metric` as a share of the
    /// baseline's median, in %.
    fn pct(r: &PairedSite, t: usize, metric: usize) -> f64 {
        100.0 * r.treatments[t].median[metric] / r.base[metric]
    }

    #[test]
    fn covers_all_ten_sites_and_custom_pushes_less() {
        let rows = clean(|lost| FIG4.run(Scale { sites: 10, runs: 3, seed: 6 }, lost));
        assert_eq!(rows.len(), 10);
        let bytes = |r: &PairedSite, t: usize| r.treatments[t].pushed_bytes;
        for r in &rows {
            assert!(bytes(r, 1) <= bytes(r, 0), "{}: custom must push less", r.site);
            assert!(r.base[0] > 0.0);
        }
        // s1: the paper pushes ~309 KB custom vs ~1057 KB push-all.
        let s1 = rows.iter().find(|r| r.site.starts_with("s1-")).unwrap();
        assert!(bytes(s1, 1) < bytes(s1, 0) / 2.0);
    }

    #[test]
    fn push_all_is_benign_on_single_server_sites() {
        // §4.3's conclusions for s1–s10: push-all can reduce PLT, "we do
        // not observe significant detrimental effects", and the custom
        // strategy performs like push-all while pushing fewer bytes.
        let rows = clean(|lost| FIG4.run(Scale { sites: 10, runs: 3, seed: 9 }, lost));
        let improved = rows.iter().filter(|r| pct(r, 0, 0) < -1.0).count();
        assert!(improved >= 2, "push-all PLT never helps: {improved}/10");
        for r in &rows {
            assert!(pct(r, 0, 0) < 8.0, "{}: significant PLT detriment {}%", r.site, pct(r, 0, 0));
            // Custom tracks push-all within a modest band on SpeedIndex.
            assert!(
                (pct(r, 1, 1) - pct(r, 0, 1)).abs() < 25.0,
                "{}: custom {}% vs push-all {}%",
                r.site,
                pct(r, 1, 1),
                pct(r, 0, 1)
            );
        }
    }
}
