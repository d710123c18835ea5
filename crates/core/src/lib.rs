//! # h2push-core — "Is the Web ready for HTTP/2 Server Push?" as a library
//!
//! The paper's contribution, packaged for reuse:
//!
//! * **evaluate** any Server-Push strategy on any modelled website in the
//!   deterministic replay testbed (§4.1) and read PLT / SpeedIndex;
//! * the **Interleaving Push** scheduler (§5) — suspend the document after
//!   a byte offset, push the critical set, resume;
//! * a **[`PushPlanner`]** that does what §6 sketches for CDNs: measure the
//!   six candidate strategies per site and pick the best one (preferring
//!   fewer pushed bytes among near-ties).
//!
//! ```
//! use h2push_core::{evaluate, Evaluation, PushPlanner};
//! use h2push_webmodel::synthetic_site;
//! use h2push_strategies::Strategy;
//!
//! let page = synthetic_site(7);
//! let base: Evaluation = evaluate(&page, Strategy::NoPush).unwrap();
//! let rec = PushPlanner::static_recommendation(&page);
//! let pushed = evaluate(&page, rec).unwrap();
//! println!("no push: SI {:.0} ms; interleaved: SI {:.0} ms", base.speed_index, pushed.speed_index);
//! ```

pub mod planner;

pub use planner::{Candidate, Plan, PushPlanner};

use h2push_strategies::Strategy;
use h2push_testbed::{ReplayConfig, ReplayError, ReplayInputs, RunPlan};

/// Headline metrics of one deterministic replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Page Load Time (connectEnd → onload), ms.
    pub plt: f64,
    /// SpeedIndex, ms.
    pub speed_index: f64,
    /// Time of first paint after connectEnd, ms.
    pub first_paint: f64,
    /// Bytes pushed by the server.
    pub pushed_bytes: u64,
    /// Pushes the client cancelled.
    pub cancelled_pushes: u32,
}

/// Replay `inputs` once under `strategy` in the paper's testbed conditions.
///
/// `inputs` is anything that converts into [`ReplayInputs`]. A `&Page` is
/// recorded on the call, so evaluating several strategies on one page
/// should build [`ReplayInputs`] once and pass `&inputs` (no page clone, no
/// re-record).
pub fn evaluate(
    inputs: impl Into<ReplayInputs>,
    strategy: Strategy,
) -> Result<Evaluation, ReplayError> {
    let out = RunPlan::new(inputs).config(ReplayConfig::testbed(strategy)).run_one()?.outcome;
    let l = &out.load;
    Ok(Evaluation {
        plt: l.plt(),
        speed_index: l.speed_index(),
        first_paint: l
            .first_paint
            .map(|t| t.since(l.connect_end).as_millis_f64())
            .unwrap_or(f64::NAN),
        pushed_bytes: out.server_pushed_bytes,
        cancelled_pushes: l.cancelled_pushes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_webmodel::synthetic_site;

    #[test]
    fn evaluate_round_trips() {
        let page = synthetic_site(7);
        let e = evaluate(&page, Strategy::NoPush).unwrap();
        assert!(e.plt > 0.0);
        assert!(e.speed_index > 0.0);
        assert_eq!(e.pushed_bytes, 0);
        let rec = PushPlanner::static_recommendation(&page);
        let e2 = evaluate(&page, rec).unwrap();
        assert!(e2.pushed_bytes > 0);
    }

    #[test]
    fn shared_inputs_evaluate_like_a_page() {
        let page = synthetic_site(7);
        let cold = evaluate(&page, Strategy::NoPush).unwrap();
        let inputs = ReplayInputs::from(page);
        let shared = evaluate(&inputs, Strategy::NoPush).unwrap();
        assert_eq!(cold, shared);
    }
}
