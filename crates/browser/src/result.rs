//! The outcome of one page load: the W3C-Navigation-Timing-style event
//! times plus the visual progress curve, from which the metrics crate
//! computes PLT and SpeedIndex (§2.2 of the paper).

use h2push_netsim::SimTime;

/// A visual progress sample: at `time`, the above-the-fold viewport was
/// `completeness` (0..=1) identical to its final state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaintSample {
    /// Simulation time of the paint.
    pub time: SimTime,
    /// Fraction of final visual completeness reached.
    pub completeness: f64,
}

/// All measurements from a single page load. Per-resource milestones
/// are not kept here: a traced run's `Timeline::resource_spans` is the
/// one per-resource record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadResult {
    /// `connectEnd` of the connection carrying the base document — the
    /// paper's PLT zero point.
    pub connect_end: SimTime,
    /// DOMContentLoaded.
    pub dom_content_loaded: Option<SimTime>,
    /// `onload` — everything discovered has loaded.
    pub onload: Option<SimTime>,
    /// Monotone visual progress curve (completeness reaches 1.0 at the
    /// last visual change).
    pub paints: Vec<PaintSample>,
    /// Total bytes pushed to this client (protocol-level, as the paper
    /// reports its savings).
    pub pushed_bytes: u64,
    /// Number of pushed responses accepted.
    pub pushed_count: u32,
    /// Number of pushes the client cancelled (already requested/cached).
    pub cancelled_pushes: u32,
    /// Requests the browser issued itself.
    pub requests: u32,
    /// The load ended without every discovered resource arriving: the
    /// page-load deadline fired, the document itself failed, or some
    /// subresources exhausted their retries. PLT and SpeedIndex then
    /// measure what actually rendered.
    pub partial: bool,
    /// Resources that exhausted retries (or failed fatally) and were
    /// given up on.
    pub failed_resources: u32,
    /// Re-issued fetches (after a timeout, stream error or connection
    /// error).
    pub retries: u32,
    /// Per-resource timeouts that fired.
    pub timeouts: u32,
    /// Transport connections lost to protocol errors (HTTP/2 GOAWAY-level
    /// failures and dead HTTP/1.1 connections).
    pub conn_errors: u32,
}

impl LoadResult {
    /// Time of the first visual change: the first sample of the paint
    /// curve.
    pub fn first_paint(&self) -> Option<SimTime> {
        self.paints.first().map(|p| p.time)
    }

    /// Page Load Time as the paper defines it: `onload − connectEnd`.
    /// Panics if the load never finished (callers should check
    /// [`LoadResult::finished`] first).
    pub fn plt(&self) -> f64 {
        let on = self.onload.expect("load did not finish");
        on.since(self.connect_end).as_millis_f64()
    }

    /// Whether onload fired.
    pub fn finished(&self) -> bool {
        self.onload.is_some()
    }

    /// SpeedIndex in milliseconds, relative to `connectEnd`:
    /// ∫ (1 − completeness(t)) dt from connectEnd to the last visual
    /// change (the WebPagetest definition over our paint curve).
    pub fn speed_index(&self) -> f64 {
        let t0 = self.connect_end;
        let mut si = 0.0;
        let mut last_t = t0;
        let mut last_c = 0.0;
        for p in &self.paints {
            let t = p.time.max(t0);
            si += (1.0 - last_c) * t.since(last_t).as_millis_f64();
            last_t = t;
            last_c = p.completeness.min(1.0);
        }
        // If the curve never reaches 1.0 (no visual content at all), treat
        // the end of the load as full completeness.
        if last_c < 1.0 {
            if let Some(on) = self.onload {
                let t = on.max(last_t);
                si += (1.0 - last_c) * t.since(last_t).as_millis_f64();
            }
        }
        si
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn result(paints: Vec<PaintSample>) -> LoadResult {
        LoadResult {
            connect_end: t(100),
            dom_content_loaded: Some(t(400)),
            onload: Some(t(1100)),
            paints,
            pushed_bytes: 0,
            pushed_count: 0,
            cancelled_pushes: 0,
            requests: 1,
            partial: false,
            failed_resources: 0,
            retries: 0,
            timeouts: 0,
            conn_errors: 0,
        }
    }

    #[test]
    fn plt_is_onload_minus_connect_end() {
        let r = result(vec![]);
        assert_eq!(r.plt(), 1000.0);
    }

    #[test]
    fn speed_index_single_instant_paint() {
        // Everything appears at once 500 ms after connectEnd ⇒ SI = 500.
        let r = result(vec![PaintSample { time: t(600), completeness: 1.0 }]);
        assert!((r.speed_index() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn speed_index_rewards_progressive_paint() {
        // Half the pixels at 200 ms, the rest at 1000 ms (after connectEnd
        // at 100): SI = 100·1.0 + 800·0.5 = 500.
        let progressive = result(vec![
            PaintSample { time: t(200), completeness: 0.5 },
            PaintSample { time: t(1000), completeness: 1.0 },
        ]);
        assert!((progressive.speed_index() - 500.0).abs() < 1e-6);
        // All pixels at 1000 ms: SI = 900 — progressive wins.
        let late = result(vec![PaintSample { time: t(1000), completeness: 1.0 }]);
        assert!((late.speed_index() - 900.0).abs() < 1e-6);
        assert!(progressive.speed_index() < late.speed_index());
    }

    #[test]
    fn speed_index_incomplete_curve_falls_back_to_onload() {
        let r = result(vec![PaintSample { time: t(300), completeness: 0.8 }]);
        // 200 ms at 1.0 missing + (1100-300) ms at 0.2 missing.
        assert!((r.speed_index() - (200.0 + 800.0 * 0.2)).abs() < 1e-6);
    }

    #[test]
    fn paints_before_connect_end_are_clamped() {
        let r = result(vec![PaintSample { time: t(50), completeness: 1.0 }]);
        assert_eq!(r.speed_index(), 0.0);
    }
}
