//! §4.2.1 object-type study.
//!
//! Pushing only specific types on the random-100 set: CSS or JS cut both
//! ways; pushing images worsens SpeedIndex for ~74 % of sites (they feed
//! neither DOM nor CSSOM); even the per-site *best type* improves only
//! 24 % (SpeedIndex) / 20 % (PLT) of sites. Type combinations behave
//! similarly. [`TYPES`] is a [`Paired`] row; a site's best single type
//! improves when the sign test classes one of the first three arms
//! better.

use super::paired::{Corpus, Paired};
use h2push_strategies::push_by_type;
use h2push_webmodel::{CorpusKind, ResourceType::*};

/// The §4.2.1 type selections, single types first.
pub const TYPES: Paired = Paired {
    title: "Type study — pushing specific object types vs no push, random-100",
    corpus: Corpus::Generated(CorpusKind::Random),
    ordered: true,
    treatments: &[
        ("css", |page, order| push_by_type(page, order, &[Css])),
        ("js", |page, order| push_by_type(page, order, &[Js])),
        ("images", |page, order| push_by_type(page, order, &[Image])),
        ("css+js", |page, order| push_by_type(page, order, &[Css, Js])),
        ("css+images", |page, order| push_by_type(page, order, &[Css, Image])),
    ],
    paper: "paper: images worsen SI for 74% of sites; the best single type improves SI for 24%, PLT for 20%",
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::paired::{measure, shares, Class};
    use crate::experiments::{clean, fan_out, Scale};
    use crate::replay::ReplayInputs;
    use h2push_strategies::Strategy;
    use h2push_webmodel::{PageBuilder, ResourceId, ResourceSpec};

    #[test]
    fn study_reports_all_selections() {
        let rows = clean(|lost| TYPES.run(Scale { sites: 6, runs: 3, seed: 8 }, lost));
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.treatments.len(), TYPES.treatments.len());
        }
        let images = shares(&rows, |r| &r.treatments[2]);
        for metric in images {
            assert!(metric.iter().all(|share| (0.0..=1.0).contains(share)), "{images:?}");
            assert!((metric.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{images:?}");
        }
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = TYPES.treatments.iter().map(|(label, _)| label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn a_site_without_images_pairs_its_images_arm_to_zero() {
        let mut b = PageBuilder::new("no-images", "types.test", 30_000, 3_000);
        b.resource(ResourceSpec::css(0, 10_000, 300, 0.4));
        b.text_paint(8_000, 1.0);
        let site = ReplayInputs::from(b.build());
        let (images, scale) = (TYPES.treatments[2], Scale { sites: 1, runs: 3, seed: 5 });
        // The images arm pushes an empty list, which is no push …
        assert_eq!(images.0, "images");
        assert!(
            matches!(images.1(&site.page, &[]), Strategy::PushList { order } if order.is_empty())
        );
        let declare = |site: &ReplayInputs, order: &[ResourceId]| TYPES.arms(site, order, scale);
        let m = clean(|lost| fan_out(&[&site], |s| declare(s, &[]), |_, m| m.to_vec(), lost));
        // … so every pair's Δ is zero …
        let (base, images) = (&m[0][0], &m[0][4]);
        assert_eq!(base.plt.len(), 3);
        assert_eq!((&images.plt, &images.speed_index), (&base.plt, &base.speed_index));
        // … and the sign test has no untied pair to count.
        let rows = clean(|lost| measure(&[(&site, &[])], declare, scale, lost));
        assert_eq!(rows[0].treatments[2].median, [0.0; 2]);
        assert_eq!(rows[0].treatments[2].class, [Class::Indistinguishable; 2]);
    }
}
