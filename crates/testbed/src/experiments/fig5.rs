//! Fig. 5b — the Interleaving Push motivating example (§5).
//!
//! A test page references one CSS in `<head>`; the body is padded from
//! 10 KB to 90 KB. Chromium prioritizes the HTML above the CSS, so under
//! both *no push* and *plain push* (child of the parent stream) the server
//! ships the entire document before the stylesheet: SpeedIndex grows with
//! the document size. *Interleaving* hard-switches to the CSS after a
//! fixed offset, yielding a near-constant SpeedIndex.

use super::{cell, fan_out, Scale};
use crate::sweep::CellStats;
use h2push_strategies::Strategy;
use h2push_webmodel::{Page, PageBuilder, ResourceId, ResourceSpec};

/// The strategies compared in Fig. 5b.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig5Strategy {
    /// The browser requests the CSS (baseline).
    NoPush,
    /// The CSS is pushed, default scheduler.
    Push,
    /// Interleaving: hard switch to the CSS after 4 KB of HTML.
    Interleaving,
}

impl Fig5Strategy {
    /// All three, in the figure's legend order.
    pub const ALL: [Fig5Strategy; 3] =
        [Fig5Strategy::NoPush, Fig5Strategy::Push, Fig5Strategy::Interleaving];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Fig5Strategy::NoPush => "no push",
            Fig5Strategy::Push => "push",
            Fig5Strategy::Interleaving => "interleaving",
        }
    }
}

/// The Fig. 5b test page: `html_size` bytes of document with one CSS
/// referenced in the head.
pub fn fig5_page(html_size: usize) -> Page {
    let mut b =
        PageBuilder::new(&format!("fig5-{}k", html_size / 1024), "fig5.test", html_size, 2_048);
    b.resource(ResourceSpec::css(0, 24_576, 256, 1.0));
    // The viewport content sits at the top of the body; the varying
    // padding below it is below the fold (the paper "varies the size of
    // the <body> by adding text" — SpeedIndex only sees the top).
    b.text_paint(3_000, 2.0);
    b.text_paint(8_000, 1.0);
    b.build()
}

/// One measured point of Fig. 5b.
#[derive(Debug, Clone)]
pub struct Fig5Point {
    /// Document size in bytes.
    pub html_size: usize,
    /// Strategy.
    pub strategy: Fig5Strategy,
    /// The measured cell.
    pub metrics: CellStats,
}

/// The paper's x-axis: 10 KB … 90 KB.
pub fn fig5_sizes() -> Vec<usize> {
    (1..=9).map(|k| k * 10 * 1024).collect()
}

/// Run the Fig. 5b sweep.
pub fn fig5b_interleaving(scale: Scale, lost: &mut Vec<String>) -> Vec<Fig5Point> {
    let css = ResourceId(1);
    // Every (size, strategy) point is a one-cell site of its own.
    let points: Vec<_> =
        fig5_sizes().into_iter().flat_map(|size| Fig5Strategy::ALL.map(|s| (size, s))).collect();
    fan_out(
        &points,
        |&(size, s)| {
            let strategy = match s {
                Fig5Strategy::NoPush => Strategy::NoPush,
                Fig5Strategy::Push => Strategy::PushList { order: vec![css] },
                Fig5Strategy::Interleaving => {
                    Strategy::Interleaved { offset: 4_096, critical: vec![css], after: Vec::new() }
                }
            };
            vec![cell(&fig5_page(size).into(), strategy, scale, scale.seed)]
        },
        |&(html_size, strategy), m| Fig5Point { html_size, strategy, metrics: m[0].clone() },
        lost,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::clean;

    fn si(points: &[Fig5Point], s: Fig5Strategy, size: usize) -> f64 {
        let point = points.iter().find(|p| p.strategy == s && p.html_size == size).unwrap();
        point.metrics.speed_index_stats().unwrap().mean
    }

    #[test]
    fn interleaving_is_flat_while_others_grow() {
        let points = clean(|lost| fig5b_interleaving(Scale { sites: 0, runs: 3, seed: 1 }, lost));
        assert_eq!(points.len(), 9 * 3);
        let small = 10 * 1024;
        let large = 90 * 1024;
        // no push and plain push grow substantially with document size.
        for s in [Fig5Strategy::NoPush, Fig5Strategy::Push] {
            let growth = si(&points, s, large) - si(&points, s, small);
            assert!(growth > 15.0, "{}: expected growth, got {growth}", s.label());
        }
        // Interleaving stays nearly constant.
        let il_growth = si(&points, Fig5Strategy::Interleaving, large)
            - si(&points, Fig5Strategy::Interleaving, small);
        let np_growth =
            si(&points, Fig5Strategy::NoPush, large) - si(&points, Fig5Strategy::NoPush, small);
        assert!(
            il_growth < np_growth / 2.0,
            "interleaving grew {il_growth} vs no-push {np_growth}"
        );
        // And interleaving beats no push on the largest document.
        assert!(
            si(&points, Fig5Strategy::Interleaving, large)
                < si(&points, Fig5Strategy::NoPush, large)
        );
    }

    #[test]
    fn push_matches_no_push_without_parent_blocking() {
        // Fig. 5b: "no push and push perform similar, as the parent does
        // not block".
        let points = clean(|lost| fig5b_interleaving(Scale { sites: 0, runs: 3, seed: 2 }, lost));
        for size in [30 * 1024, 70 * 1024] {
            let np = si(&points, Fig5Strategy::NoPush, size);
            let pu = si(&points, Fig5Strategy::Push, size);
            let rel = (np - pu).abs() / np.max(1.0);
            assert!(rel < 0.15, "push vs no-push at {size}: {pu} vs {np}");
        }
    }
}
