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
        // `streams` is id-sorted; an entry whose window is shut counts as
        // absent.
        let find = |id: u32| {
            let i = streams.binary_search_by_key(&id, |s| s.id).ok()?;
            Some(&streams[i]).filter(|s| s.sendable > 0)
        };
        loop {
            match self.phase {
                Phase::Head => {
                    let Some(parent) = self.parent else {
                        // No parent yet: nothing special to do.
                        return self.inner.pick(streams, tree);
                    };
                    if find(parent).is_some_and(|p| p.sent < self.offset) {
                        return Some(parent);
                    }
                    // Offset reached, or the parent has nothing sendable
                    // (done, or its window shut) while criticals wait:
                    // either way, switch. `sent` only advances when we
                    // pick the parent.
                    self.phase = Phase::Critical;
                    self.trace.emit(TraceEvent::InterleaveSuspend { parent, offset: self.offset });
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
    fn parent_window_blocked_below_the_offset_switches_to_the_criticals() {
        let tree = tree_with_push();
        let mut s = InterleavingScheduler::new(4096);
        s.set_parent(1);
        s.add_critical(2);
        // The parent has body left and is below the offset, but its own
        // window is shut; the critical push may send.
        assert_eq!(s.pick(&[snap(1, 0, 1000), snap(2, 500, 0)], &tree), Some(2));
        assert!(s.in_critical_phase());
    }

    #[test]
    fn nothing_is_picked_while_every_stream_is_window_blocked() {
        use h2push_h2proto::{Connection, Frame, Settings};
        use h2push_hpack::Header;

        // A client whose streams open with no send window at all.
        let mut client =
            Connection::client(Settings { initial_window_size: Some(0), ..Default::default() });
        let mut server = Connection::server(Settings::default());
        let request =
            [(":method", "GET"), (":scheme", "https"), (":authority", "a"), (":path", "/")]
                .map(|(n, v)| Header::new(n, v));
        client.request(&request, None);
        let mut sched = InterleavingScheduler::new(4096);
        let (trace, timeline) = h2push_trace::recording();
        sched.set_trace(trace);
        server.receive(&client.produce(usize::MAX, &mut sched));
        while server.poll_event().is_some() {}
        let pushed = server.push_promise(1, &request).expect("push allowed");
        sched.set_parent(1);
        sched.add_critical(pushed);
        for id in [1, pushed] {
            server.respond(id, &[Header::new(":status", "200")], false);
            server.queue_body(id, 10_000, true);
        }
        // The control frames go out; no DATA, and the scheduler is never
        // asked, so it does not suspend a parent that never ran.
        assert!(!server.produce(usize::MAX, &mut sched).is_empty());
        assert!(!server.wants_send());
        assert!(server.produce(usize::MAX, &mut sched).is_empty());
        let suspends = || {
            timeline.lock().unwrap().count(|e| matches!(e, TraceEvent::InterleaveSuspend { .. }))
        };
        assert_eq!(suspends(), 0);
        // The parent's window opens: it is sent, still in the head phase.
        let mut update = Vec::new();
        Frame::WindowUpdate { stream: 1, increment: 1_000 }.encode(&mut update);
        server.receive(&update);
        assert_eq!(server.produce(usize::MAX, &mut sched).len(), 9 + 1_000);
        assert_eq!(server.bytes_sent(1), 1_000);
        assert_eq!(suspends(), 0);
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
