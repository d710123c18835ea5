//! The handle every subsystem holds, and the timeline it feeds.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** The default handle is `None`; `emit` is one
//!    branch. Components embed a handle unconditionally so no constructor
//!    signatures change.
//! 2. **Determinism.** A handle never supplies entropy or timing to the
//!    simulation — it only *observes*. The timeline sees events in emission
//!    order with caller-provided timestamps.
//! 3. **One clock, many emitters.** netsim and the browser know the
//!    simulated `now` at every emission site and use [`TraceHandle::emit_at`].
//!    The HTTP/2 endpoints do not (frame encoding has no time parameter),
//!    so the replay loop publishes the simulation clock into the handle
//!    with [`TraceHandle::set_now`] and endpoints stamp with
//!    [`TraceHandle::emit`].
//!
//! Handles are `Arc`-shared and `Send`: the machines of a replay context
//! hold them, and a context parked by one thread may be adopted by
//! another (a worker-pool helper). A traced replay still runs on one
//! thread, so the timeline's lock is never contended; a traced emission
//! pays for taking it, an untraced one still costs one branch.

use crate::event::{Micros, TraceEvent};
use crate::timeline::Timeline;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The clock endpoints stamp with and the timeline a handle appends to:
/// an emission is one uncontended lock and a `Vec` push of a `Copy` pair —
/// no box, no virtual dispatch, no serialization.
struct Ctl {
    now: AtomicU64,
    timeline: Arc<Mutex<Timeline>>,
}

impl Ctl {
    fn timeline(&self) -> MutexGuard<'_, Timeline> {
        // An emission cannot panic while holding the lock, so a poisoned
        // timeline is still whole.
        self.timeline.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A cheap, cloneable capability to emit trace events.
///
/// `TraceHandle::default()` (or [`TraceHandle::off`]) is the disabled
/// handle: every operation is a no-op.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<Ctl>>);

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "TraceHandle(on)" } else { "TraceHandle(off)" })
    }
}

impl TraceHandle {
    /// The disabled handle — all emissions are single-branch no-ops.
    pub fn off() -> Self {
        Self(None)
    }

    /// Is a timeline attached?
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Publish the simulation clock for emitters without a time parameter.
    pub fn set_now(&self, micros: Micros) {
        if let Some(ctl) = &self.0 {
            ctl.now.store(micros, Ordering::Relaxed);
        }
    }

    /// Emit stamped with the published clock (see [`TraceHandle::set_now`]).
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(ctl) = &self.0 {
            ctl.timeline().push(ctl.now.load(Ordering::Relaxed), ev);
        }
    }

    /// Emit stamped with an explicit simulated time.
    pub fn emit_at(&self, micros: Micros, ev: TraceEvent) {
        if let Some(ctl) = &self.0 {
            ctl.timeline().push(micros, ev);
        }
    }
}

/// A recording handle plus the shared [`Timeline`] it fills.
///
/// The returned handle is cloned into the simulation; the caller keeps the
/// `Arc` and reads (or unwraps) the timeline once the run finishes.
pub fn recording() -> (TraceHandle, Arc<Mutex<Timeline>>) {
    // Pre-size for a typical traced page replay (a few thousand frame,
    // timer and paint events) so recording never reallocates mid-run.
    let timeline = Arc::new(Mutex::new(Timeline::with_capacity(4096)));
    let ctl = Ctl { now: AtomicU64::new(0), timeline: Arc::clone(&timeline) };
    (TraceHandle(Some(Arc::new(ctl))), timeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing_and_is_default() {
        let h = TraceHandle::default();
        assert!(!h.is_on());
        h.set_now(5);
        h.emit(TraceEvent::Onload);
        h.emit_at(9, TraceEvent::FirstPaint);
        // Nothing observable — the point is simply that this compiles to
        // no-ops and doesn't panic.
        let h2 = TraceHandle::off();
        assert!(!h2.is_on());
    }

    #[test]
    fn recording_handle_stamps_with_shared_clock() {
        let (h, tl) = recording();
        assert!(h.is_on());
        h.set_now(100);
        h.emit(TraceEvent::FirstPaint);
        h.set_now(250);
        h.emit(TraceEvent::Onload);
        h.emit_at(175, TraceEvent::DomContentLoaded);
        let tl = tl.lock().unwrap();
        assert_eq!(
            tl.events(),
            &[
                (100, TraceEvent::FirstPaint),
                (250, TraceEvent::Onload),
                (175, TraceEvent::DomContentLoaded),
            ]
        );
    }

    #[test]
    fn clones_share_one_sink() {
        let (h, tl) = recording();
        let h2 = h.clone();
        h.set_now(1);
        h.emit(TraceEvent::FirstPaint);
        h2.emit(TraceEvent::Onload); // clock shared too
        let tl = tl.lock().unwrap();
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.events()[1], (1, TraceEvent::Onload));
    }
}
