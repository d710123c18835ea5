//! The paper's Interleaving Push stream scheduler (§5, Fig. 5a).
//!
//! h2o's stock scheduler treats a pushed stream as a *child* of the stream
//! that triggered it: the push is only sent when the parent blocks or
//! finishes. The paper modifies the scheduler to **stop the parent stream
//! after a configured byte offset** (e.g. right after `</head>` plus the
//! first bytes of `<body>`), hard-switch to pushing the critical resources,
//! and only then resume the parent — delivering "the right resource at the
//! right time" while the browser's preload scanner has already seen the
//! head.

use h2push_h2proto::{DefaultScheduler, PriorityTree, Scheduler, StreamSnapshot};
use h2push_trace::{TraceEvent, TraceHandle};

/// Scheduler phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sending the parent up to the offset.
    Head,
    /// Hard switch: critical pushes drain.
    Critical,
    /// Back to normal (tree-based) scheduling.
    Resume,
}

/// The interleaving scheduler: wraps the default tree scheduler with the
/// offset-based hard switch.
#[derive(Debug)]
pub struct InterleavingScheduler {
    inner: DefaultScheduler,
    /// The parent (HTML) stream, set once its request arrives.
    parent: Option<u32>,
    /// Byte offset at which to suspend the parent.
    offset: u64,
    /// Pushed streams to interleave, in push order.
    critical: Vec<u32>,
    phase: Phase,
    trace: TraceHandle,
}

impl InterleavingScheduler {
    /// Create a scheduler that will switch after `offset` parent bytes.
    pub fn new(offset: usize) -> Self {
        InterleavingScheduler {
            inner: DefaultScheduler::new(),
            parent: None,
            offset: offset as u64,
            critical: Vec::new(),
            phase: Phase::Head,
            trace: TraceHandle::off(),
        }
    }

    /// Attach a trace handle; suspend/resume decisions are stamped with
    /// the handle's shared clock (`pick` has no time parameter).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Return to the fresh state with a new offset, retaining capacity.
    pub fn reset(&mut self, offset: usize) {
        self.parent = None;
        self.offset = offset as u64;
        self.critical.clear();
        self.phase = Phase::Head;
        self.trace = TraceHandle::off();
    }

    /// Register the parent (document) stream.
    pub fn set_parent(&mut self, stream: u32) {
        self.parent = Some(stream);
    }

    /// Register a critical push stream (in push order).
    pub fn add_critical(&mut self, stream: u32) {
        self.critical.push(stream);
    }

    /// Currently in the hard-switch phase?
    pub fn in_critical_phase(&self) -> bool {
        self.phase == Phase::Critical
    }
}

impl Scheduler for InterleavingScheduler {
    fn pick(&mut self, streams: &[StreamSnapshot], tree: &PriorityTree) -> Option<u32> {
        let find = |id: u32| streams.iter().find(|s| s.id == id && s.sendable > 0);
        loop {
            match self.phase {
                Phase::Head => {
                    let Some(parent) = self.parent else {
                        // No parent yet: nothing special to do.
                        return self.inner.pick(streams, tree);
                    };
                    match find(parent) {
                        Some(p) if p.sent < self.offset => return Some(parent),
                        Some(_) | None => {
                            // Offset reached (or parent already done):
                            // switch. `sent` only advances when we pick the
                            // parent, so reaching here means the offset is
                            // covered or the parent has nothing sendable
                            // while criticals wait — either way, switch.
                            let parent_sent =
                                streams.iter().find(|s| s.id == parent).map(|s| s.sent);
                            if parent_sent.map(|s| s >= self.offset).unwrap_or(true) {
                                self.phase = Phase::Critical;
                                self.trace.emit(TraceEvent::InterleaveSuspend {
                                    parent,
                                    offset: self.offset,
                                });
                                continue;
                            }
                            // Parent exists but is flow-blocked below the
                            // offset: let the default scheduler fill the
                            // pipe meanwhile.
                            return self.inner.pick(streams, tree);
                        }
                    }
                }
                Phase::Critical => {
                    for &c in &self.critical {
                        if find(c).is_some() {
                            return Some(c);
                        }
                    }
                    // Critical pushes drained (or not yet promised — the
                    // server promises them before any DATA is produced, so
                    // an empty list means there are none): resume.
                    self.phase = Phase::Resume;
                    if let Some(parent) = self.parent {
                        self.trace.emit(TraceEvent::InterleaveResume { parent });
                    }
                    continue;
                }
                Phase::Resume => return self.inner.pick(streams, tree),
            }
        }
    }

    fn stream_closed(&mut self, stream: u32) {
        self.critical.retain(|&c| c != stream);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_h2proto::PrioritySpec;

    fn snap(id: u32, sendable: usize, sent: u64) -> StreamSnapshot {
        StreamSnapshot { id, sendable, sent, is_push: id.is_multiple_of(2) }
    }

    fn tree_with_push() -> PriorityTree {
        let mut t = PriorityTree::new();
        t.insert(1, PrioritySpec { depends_on: 0, weight: 256, exclusive: false });
        t.insert(2, PrioritySpec { depends_on: 1, weight: 16, exclusive: false });
        t.insert(4, PrioritySpec { depends_on: 1, weight: 16, exclusive: false });
        t
    }

    #[test]
    fn sends_parent_until_offset_then_criticals_then_parent() {
        let tree = tree_with_push();
        let mut s = InterleavingScheduler::new(4096);
        s.set_parent(1);
        s.add_critical(2);
        s.add_critical(4);

        // Below the offset: the parent wins even though pushes wait.
        assert_eq!(s.pick(&[snap(1, 10_000, 0), snap(2, 500, 0), snap(4, 500, 0)], &tree), Some(1));
        assert_eq!(
            s.pick(&[snap(1, 10_000, 3000), snap(2, 500, 0), snap(4, 500, 0)], &tree),
            Some(1)
        );
        // Offset reached: hard switch to the criticals, in order.
        assert_eq!(
            s.pick(&[snap(1, 10_000, 4096), snap(2, 500, 0), snap(4, 500, 0)], &tree),
            Some(2)
        );
        assert!(s.in_critical_phase());
        assert_eq!(s.pick(&[snap(1, 10_000, 4096), snap(4, 500, 500)], &tree), Some(4));
        // Criticals drained: resume the parent (tree order).
        assert_eq!(s.pick(&[snap(1, 10_000, 4096)], &tree), Some(1));
        assert!(!s.in_critical_phase());
    }

    #[test]
    fn without_parent_behaves_like_default() {
        let tree = tree_with_push();
        let mut s = InterleavingScheduler::new(4096);
        assert_eq!(s.pick(&[snap(1, 100, 0), snap(2, 100, 0)], &tree), Some(1));
    }

    #[test]
    fn parent_finished_before_offset_still_switches() {
        let tree = tree_with_push();
        let mut s = InterleavingScheduler::new(1 << 20);
        s.set_parent(1);
        s.add_critical(2);
        // Parent has no sendable data left (finished small document).
        assert_eq!(s.pick(&[snap(2, 500, 0)], &tree), Some(2));
    }

    #[test]
    fn closed_critical_is_skipped() {
        let tree = tree_with_push();
        let mut s = InterleavingScheduler::new(100);
        s.set_parent(1);
        s.add_critical(2);
        s.add_critical(4);
        s.stream_closed(2);
        assert_eq!(s.pick(&[snap(1, 10, 100), snap(4, 10, 0)], &tree), Some(4));
    }
}
