//! §4.2.1 object-type study.
//!
//! Pushing only specific types on the random-100 set: CSS or JS cut both
//! ways; pushing images worsens SpeedIndex for ~74 % of sites (they feed
//! neither DOM nor CSSOM); even the per-site *best type* improves only
//! 24 % (SpeedIndex) / 20 % (PLT) of sites. Type combinations behave
//! similarly.

use super::{cell, fan_out, median_deltas, push_orders, record_all, Scale};
use h2push_strategies::{push_by_type, Strategy};
use h2push_webmodel::{generate_set, CorpusKind, ResourceType};

/// The type selections the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeSelection {
    /// Push only stylesheets.
    Css,
    /// Push only scripts.
    Js,
    /// Push only images.
    Images,
    /// CSS + JS.
    CssJs,
    /// CSS + images.
    CssImages,
}

impl TypeSelection {
    /// All selections in report order.
    pub const ALL: [TypeSelection; 5] = [
        TypeSelection::Css,
        TypeSelection::Js,
        TypeSelection::Images,
        TypeSelection::CssJs,
        TypeSelection::CssImages,
    ];

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TypeSelection::Css => "css",
            TypeSelection::Js => "js",
            TypeSelection::Images => "images",
            TypeSelection::CssJs => "css+js",
            TypeSelection::CssImages => "css+images",
        }
    }

    /// The resource types included.
    pub fn types(self) -> &'static [ResourceType] {
        match self {
            TypeSelection::Css => &[ResourceType::Css],
            TypeSelection::Js => &[ResourceType::Js],
            TypeSelection::Images => &[ResourceType::Image],
            TypeSelection::CssJs => &[ResourceType::Css, ResourceType::Js],
            TypeSelection::CssImages => &[ResourceType::Css, ResourceType::Image],
        }
    }
}

/// Per-site deltas for every type selection.
#[derive(Debug, Clone)]
pub struct TypeRow {
    /// Site name.
    pub site: String,
    /// (selection, Δ median SI, Δ median PLT).
    pub deltas: Vec<(TypeSelection, f64, f64)>,
}

/// Aggregate outcome of the study.
#[derive(Debug, Clone)]
pub struct TypeStudy {
    /// Per-site rows.
    pub rows: Vec<TypeRow>,
    /// Share of sites whose SpeedIndex worsens when pushing images.
    pub images_worse_share: f64,
    /// Share of sites improving (SI) under their per-site best type.
    pub best_type_improves_si: f64,
    /// Share of sites improving (PLT) under their per-site best type.
    pub best_type_improves_plt: f64,
}

/// Run the §4.2.1 type study on the random corpus.
pub fn type_study(scale: Scale, lost: &mut Vec<String>) -> TypeStudy {
    let sites = record_all(generate_set(CorpusKind::Random, scale.sites, scale.seed));
    let orders = push_orders(&sites, scale.runs.min(7), scale.seed, lost);
    let ordered: Vec<_> = sites.iter().zip(&orders).collect();
    // Per site: the no-push baseline, then one cell per type selection.
    let rows: Vec<TypeRow> = fan_out(
        &ordered,
        |(site, order)| {
            let by_type = TypeSelection::ALL.map(|sel| {
                let strategy = push_by_type(&site.page, order, sel.types());
                cell(site, strategy, scale, scale.seed ^ 0x99)
            });
            let base = cell(site, Strategy::NoPush, scale, scale.seed);
            std::iter::once(base).chain(by_type).collect()
        },
        |(site, _), m| {
            let delta = |(&sel, typed)| {
                let (d_plt, d_si) = median_deltas(typed, &m[0]);
                (sel, d_si, d_plt)
            };
            let deltas = TypeSelection::ALL.iter().zip(&m[1..]).map(delta).collect();
            TypeRow { site: site.page.name.clone(), deltas }
        },
        lost,
    );

    let img_worse = rows
        .iter()
        .filter(|r| {
            r.deltas
                .iter()
                .find(|(s, _, _)| *s == TypeSelection::Images)
                .map(|&(_, dsi, _)| dsi > 0.0)
                .unwrap_or(false)
        })
        .count() as f64
        / rows.len().max(1) as f64;

    // Per-site best single type (by SI), then ask whether it *meaningfully*
    // improves (the paper counts improvements, i.e. Δ < 0 beyond noise; we
    // use a 5 ms guard band).
    let singles = [TypeSelection::Css, TypeSelection::Js, TypeSelection::Images];
    let best_improves = |metric: fn(&(TypeSelection, f64, f64)) -> f64| {
        rows.iter()
            .filter(|r| {
                r.deltas
                    .iter()
                    .filter(|d| singles.contains(&d.0))
                    .map(metric)
                    .fold(f64::INFINITY, f64::min)
                    < -5.0
            })
            .count() as f64
            / rows.len().max(1) as f64
    };
    TypeStudy {
        images_worse_share: img_worse,
        best_type_improves_si: best_improves(|d| d.1),
        best_type_improves_plt: best_improves(|d| d.2),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::clean;

    #[test]
    fn study_reports_all_selections() {
        let s = clean(|lost| type_study(Scale { sites: 6, runs: 3, seed: 8 }, lost));
        assert_eq!(s.rows.len(), 6);
        for r in &s.rows {
            assert_eq!(r.deltas.len(), TypeSelection::ALL.len());
        }
        assert!((0.0..=1.0).contains(&s.images_worse_share));
        assert!((0.0..=1.0).contains(&s.best_type_improves_si));
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = TypeSelection::ALL.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
