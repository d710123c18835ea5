//! Stream scheduling: which stream's DATA goes on the wire next?
//!
//! This is the axis the paper turns on. The [`Scheduler`] trait lets a
//! server swap scheduling policies; [`DefaultScheduler`] reproduces h2o's
//! stock behaviour (strict dependency order over the RFC 7540 priority
//! tree, weight-ordered siblings with FIFO per class), under which a
//! pushed response — a *child* of the stream that triggered it — is only
//! sent when the parent is idle or finished (Fig. 5a of the paper).
//! The paper's Interleaving Push scheduler lives in the `h2push-server`
//! crate.

use crate::priority::{PriorityTree, ROOT, ROOT_SLOT};

/// Per-stream view handed to schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSnapshot {
    /// Stream id.
    pub id: u32,
    /// Body bytes queued that the stream's own send window lets out: 0
    /// when that window is shut. The connection window is not applied —
    /// the connection asks for a pick only while it is open.
    pub sendable: usize,
    /// Body bytes already sent on this stream.
    pub sent: u64,
    /// Whether this is a server-pushed stream (even id).
    pub is_push: bool,
}

/// A stream scheduling policy.
pub trait Scheduler {
    /// Choose the stream to send the next DATA chunk on. `streams` lists
    /// every stream with unsent body, in ascending id order (the tree
    /// schedulers binary-search it). An entry with `sendable == 0` has its
    /// own window shut and must not be picked; at least one entry has
    /// `sendable > 0`, and the connection window is open.
    fn pick(&mut self, streams: &[StreamSnapshot], tree: &PriorityTree) -> Option<u32>;

    /// A stream finished or was reset.
    fn stream_closed(&mut self, _stream: u32) {}
}

/// Whether `id` has sendable bytes in the id-sorted snapshot `streams`.
fn is_ready(streams: &[StreamSnapshot], id: u32) -> bool {
    streams.binary_search_by_key(&id, |s| s.id).is_ok_and(|i| streams[i].sendable > 0)
}

/// Whether stream `id`, in tree slot `slot`, or any of its descendants
/// has sendable bytes.
fn subtree_sendable(slot: u32, id: u32, tree: &PriorityTree, streams: &[StreamSnapshot]) -> bool {
    (id != ROOT && is_ready(streams, id))
        || tree.child_nodes(slot).any(|(c, n)| subtree_sendable(c, n.id, tree, streams))
}

/// The ready stream with the lowest id. The tree schedulers fall back to
/// it when their walk finds nothing: streams the tree doesn't know (e.g.
/// no HEADERS seen yet) are implicitly root children.
fn lowest_ready(streams: &[StreamSnapshot]) -> Option<u32> {
    streams.iter().filter(|s| s.sendable > 0).map(|s| s.id).min()
}

/// h2o-style default scheduler:
///
/// * strict parent-before-descendants over the priority tree (a pushed
///   stream, child of the triggering stream, is served only when its
///   parent has nothing to send — the paper's Fig. 5a);
/// * strictly higher weight classes first among siblings, FIFO by stream
///   id within a class, so pushes drain in promise order — which is why
///   the §4.2 push order matters.
///
/// The policy is a pure function of the snapshot and the tree, so the
/// scheduler carries no state.
#[derive(Debug, Default)]
pub struct DefaultScheduler;

impl DefaultScheduler {
    /// New scheduler.
    pub fn new() -> Self {
        DefaultScheduler
    }

    fn pick_rec(
        slot: u32,
        id: u32,
        tree: &PriorityTree,
        streams: &[StreamSnapshot],
    ) -> Option<u32> {
        // Strict dependency order: a sendable stream outranks its whole
        // subtree.
        if id != ROOT && is_ready(streams, id) {
            return Some(id);
        }
        // Among children with sendable descendants: strictly higher weight
        // first; equal weights serve in stream-id order — i.e. pushes
        // drain sequentially in the order they were promised, like h2o's
        // per-class FIFO queues.
        let (best, n) = tree
            .child_nodes(slot)
            .filter(|&(c, n)| subtree_sendable(c, n.id, tree, streams))
            .min_by(|(_, a), (_, b)| b.weight.cmp(&a.weight).then(a.id.cmp(&b.id)))?;
        Self::pick_rec(best, n.id, tree, streams)
    }
}

impl Scheduler for DefaultScheduler {
    fn pick(&mut self, streams: &[StreamSnapshot], tree: &PriorityTree) -> Option<u32> {
        debug_assert!(streams.windows(2).all(|w| w[0].id < w[1].id), "snapshot not id-sorted");
        Self::pick_rec(ROOT_SLOT, ROOT, tree, streams).or_else(|| lowest_ready(streams))
    }
}

/// A trivial FIFO scheduler: always the lowest stream id. Useful as a
/// baseline and in tests.
#[derive(Debug, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn pick(&mut self, streams: &[StreamSnapshot], _tree: &PriorityTree) -> Option<u32> {
        lowest_ready(streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PrioritySpec;
    use std::collections::HashMap;

    fn snap(id: u32, sendable: usize) -> StreamSnapshot {
        StreamSnapshot { id, sendable, sent: 0, is_push: id.is_multiple_of(2) }
    }

    fn spec(dep: u32, weight: u16, excl: bool) -> PrioritySpec {
        PrioritySpec { depends_on: dep, weight, exclusive: excl }
    }

    #[test]
    fn parent_preempts_child() {
        let mut tree = PriorityTree::new();
        tree.insert(1, spec(0, 16, false));
        tree.insert(2, spec(1, 16, false)); // push, child of 1
        let mut s = DefaultScheduler::new();
        // Both have data: the parent (HTML) wins.
        assert_eq!(s.pick(&[snap(1, 100), snap(2, 100)], &tree), Some(1));
        // Parent has nothing: the push flows.
        assert_eq!(s.pick(&[snap(1, 0), snap(2, 100)], &tree), Some(2));
    }

    #[test]
    fn heavier_sibling_is_served_strictly_first() {
        let mut tree = PriorityTree::new();
        tree.insert(1, spec(0, 100, false));
        tree.insert(3, spec(0, 200, false));
        let mut s = DefaultScheduler::new();
        // The heavier stream drains completely before the lighter one.
        assert_eq!(s.pick(&[snap(1, 1000), snap(3, 1000)], &tree), Some(3));
        assert_eq!(s.pick(&[snap(1, 1000), snap(3, 1000)], &tree), Some(3));
        assert_eq!(s.pick(&[snap(1, 1000)], &tree), Some(1));
    }

    #[test]
    fn equal_weight_pushes_drain_in_promise_order() {
        // h2o-style sequential delivery: pushes (even ids, ascending in
        // promise order) as children of the HTML drain one after another.
        let mut tree = PriorityTree::new();
        tree.insert(1, spec(0, 256, false));
        for id in [2u32, 4, 6] {
            tree.insert(id, spec(1, 16, false));
        }
        let mut s = DefaultScheduler::new();
        let all = [snap(2, 100), snap(4, 100), snap(6, 100)];
        assert_eq!(s.pick(&all, &tree), Some(2));
        // Still stream 2 while it has data; then 4; then 6.
        assert_eq!(s.pick(&all, &tree), Some(2));
        assert_eq!(s.pick(&all[1..], &tree), Some(4));
        assert_eq!(s.pick(&all[2..], &tree), Some(6));
    }

    #[test]
    fn deep_tree_walk() {
        // root → 1 → {2 (push), 3} ; 3 → 5
        let mut tree = PriorityTree::new();
        tree.insert(1, spec(0, 16, false));
        tree.insert(2, spec(1, 16, false));
        tree.insert(3, spec(1, 16, false));
        tree.insert(5, spec(3, 16, false));
        let mut s = DefaultScheduler::new();
        // Only the leaf has data.
        assert_eq!(s.pick(&[snap(5, 10)], &tree), Some(5));
        // Mid-level stream 3 outranks its child 5.
        assert_eq!(s.pick(&[snap(3, 10), snap(5, 10)], &tree), Some(3));
    }

    #[test]
    fn unknown_stream_still_schedulable() {
        let tree = PriorityTree::new();
        let mut s = DefaultScheduler::new();
        assert_eq!(s.pick(&[snap(9, 10)], &tree), Some(9));
    }

    #[test]
    fn nothing_ready_returns_none() {
        let tree = PriorityTree::new();
        let mut s = DefaultScheduler::new();
        assert_eq!(s.pick(&[snap(1, 0)], &tree), None);
        assert_eq!(s.pick(&[], &tree), None);
    }

    #[test]
    fn fifo_picks_lowest_id() {
        let tree = PriorityTree::new();
        let mut s = FifoScheduler;
        assert_eq!(s.pick(&[snap(5, 1), snap(3, 1), snap(7, 1)], &tree), Some(3));
    }

    /// The default policy as it was written before the snapshot lookups
    /// became binary searches: ready ids in a hash map.
    fn reference_pick(streams: &[StreamSnapshot], tree: &PriorityTree) -> Option<u32> {
        type Ready = HashMap<u32, usize>;
        fn subtree_sendable(node: u32, tree: &PriorityTree, ready: &Ready) -> bool {
            (node != ROOT && ready.contains_key(&node))
                || tree.children(node).any(|c| subtree_sendable(c, tree, ready))
        }
        fn pick_rec(node: u32, tree: &PriorityTree, ready: &Ready) -> Option<u32> {
            if node != ROOT && ready.contains_key(&node) {
                return Some(node);
            }
            let best = tree.children(node).filter(|&c| subtree_sendable(c, tree, ready)).min_by(
                |&a, &b| {
                    let wa = tree.weight(a).unwrap_or(16);
                    let wb = tree.weight(b).unwrap_or(16);
                    wb.cmp(&wa).then(a.cmp(&b))
                },
            )?;
            pick_rec(best, tree, ready)
        }
        let ready: Ready =
            streams.iter().filter(|s| s.sendable > 0).map(|s| (s.id, s.sendable)).collect();
        pick_rec(ROOT, tree, &ready).or_else(|| ready.keys().min().copied())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn sorted_slice_lookups_make_the_same_picks_as_the_hash_map(
            nodes in proptest::collection::vec(
                (1u32..48, 0u32..48, 1u16..=256, proptest::any::<bool>()), 0..40),
            removed in proptest::collection::vec(1u32..48, 0..8),
            snapshot in proptest::collection::vec((1u32..56, 0usize..3), 0..24),
        ) {
            let mut tree = PriorityTree::new();
            for (id, depends_on, weight, exclusive) in nodes {
                tree.insert(id, spec(depends_on, weight, exclusive));
            }
            for id in removed {
                tree.remove(id);
            }
            // One entry per id, ascending; some with nothing sendable,
            // some unknown to the tree.
            let streams: Vec<StreamSnapshot> = snapshot
                .into_iter()
                .collect::<std::collections::BTreeMap<u32, usize>>()
                .into_iter()
                .map(|(id, sendable)| snap(id, sendable * 1000))
                .collect();
            let pick = DefaultScheduler::new().pick(&streams, &tree);
            proptest::prop_assert_eq!(pick, reference_pick(&streams, &tree));
        }
    }
}
