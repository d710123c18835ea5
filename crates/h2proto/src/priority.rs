//! The HTTP/2 stream dependency tree (RFC 7540 §5.3).
//!
//! Chromium 64 — the browser the paper automates — expresses resource
//! priorities through this tree, and the paper's testbed reconstructs each
//! page's *dependency tree* from the PRIORITY information observed on the
//! wire (§4.2 "Computing the Push Order"). h2o's default scheduler, which
//! the paper modifies for Interleaving Push, walks this tree as well: a
//! pushed stream is inserted as a **child of its parent stream**, so its
//! frames are only scheduled when the parent has nothing to send (Fig. 5a).

use crate::frame::PrioritySpec;
use h2push_hpack::FxHashMap;

/// The root pseudo-stream id.
pub const ROOT: u32 = 0;

/// The root's slot: it is always the slab's first node.
pub(crate) const ROOT_SLOT: u32 = 0;

/// No slot: the end of a sibling list or of the free list.
const NIL: u32 = u32::MAX;

/// One stream in the slab. Every link is a slot index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub(crate) id: u32,
    pub(crate) weight: u16,
    parent: u32,
    first: u32,
    last: u32,
    prev: u32,
    /// Next sibling; in a free slot, the next free slot.
    next: u32,
}

impl Node {
    fn new(id: u32, weight: u16) -> Self {
        Node { id, weight, parent: NIL, first: NIL, last: NIL, prev: NIL, next: NIL }
    }
}

/// A priority dependency tree over stream ids.
///
/// ```
/// use h2push_h2proto::{PriorityTree, PrioritySpec};
///
/// let mut tree = PriorityTree::new();
/// tree.insert(1, PrioritySpec { depends_on: 0, weight: 256, exclusive: false });
/// tree.insert(2, PrioritySpec { depends_on: 1, weight: 16, exclusive: false }); // a push
/// assert_eq!(tree.parent(2), Some(1));
/// tree.remove(1); // document finished: the push is promoted
/// assert_eq!(tree.parent(2), Some(0));
/// ```
///
/// The nodes live in one slab, each child list threaded through sibling
/// links, and removed nodes' slots are reused; a tree that has been
/// [`reset`](PriorityTree::reset) rebuilds a run's streams without
/// touching the allocator.
#[derive(Debug, Clone)]
pub struct PriorityTree {
    /// Slot 0 is the root.
    nodes: Vec<Node>,
    /// Stream id → slot, the root excluded.
    slots: FxHashMap<u32, u32>,
    /// Head of the free-slot list.
    free: u32,
}

impl PriorityTree {
    /// Tree containing only the root.
    pub fn new() -> Self {
        PriorityTree { nodes: vec![Node::new(ROOT, 256)], slots: FxHashMap::default(), free: NIL }
    }

    /// Restore the state of [`PriorityTree::new`] — only the root — while
    /// keeping the slab's and the id map's capacity.
    pub fn reset(&mut self) {
        self.nodes.truncate(1);
        self.nodes[0] = Node::new(ROOT, 256);
        self.slots.clear();
        self.free = NIL;
    }

    fn slot(&self, id: u32) -> Option<u32> {
        if id == ROOT {
            return Some(ROOT_SLOT);
        }
        self.slots.get(&id).copied()
    }

    /// Whether `id` is in the tree.
    pub fn contains(&self, id: u32) -> bool {
        self.slot(id).is_some()
    }

    /// Number of streams (excluding the root).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if only the root exists.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parent of `id` (None for the root or unknown ids).
    pub fn parent(&self, id: u32) -> Option<u32> {
        if id == ROOT {
            return None;
        }
        self.slot(id).map(|s| self.nodes[self.nodes[s as usize].parent as usize].id)
    }

    /// Weight of `id`.
    pub fn weight(&self, id: u32) -> Option<u16> {
        self.slot(id).map(|s| self.nodes[s as usize].weight)
    }

    /// Children of `id` in sibling order (none for an unknown id).
    pub fn children(&self, id: u32) -> impl Iterator<Item = u32> + '_ {
        let first = self.slot(id).map_or(NIL, |s| self.nodes[s as usize].first);
        Siblings { nodes: &self.nodes, cur: first }.map(|(_, n)| n.id)
    }

    /// The children of the node in `slot`, in sibling order, each with its
    /// own slot: the schedulers' walk, one slab read per child.
    pub(crate) fn child_nodes(&self, slot: u32) -> impl Iterator<Item = (u32, &Node)> + '_ {
        Siblings { nodes: &self.nodes, cur: self.nodes[slot as usize].first }
    }

    /// Insert stream `id` with the given priority (§5.3.1).
    ///
    /// A dependency on an unknown stream falls back to the root with default
    /// weight, as §5.3.1 prescribes for streams absent from the tree.
    pub fn insert(&mut self, id: u32, spec: PrioritySpec) {
        if self.contains(id) {
            self.reprioritize(id, spec);
            return;
        }
        let (parent, weight) = self.sanitize(id, spec);
        let s = match self.free {
            NIL => {
                self.nodes.push(Node::new(id, weight));
                (self.nodes.len() - 1) as u32
            }
            s => {
                self.free = self.nodes[s as usize].next;
                self.nodes[s as usize] = Node::new(id, weight);
                s
            }
        };
        self.slots.insert(id, s);
        if spec.exclusive {
            // All children of the new parent become children of `id`.
            self.adopt_children(parent, s);
        }
        self.append(s, parent);
    }

    /// Change the priority of an existing stream (§5.3.3). The root has
    /// no priority to change: a PRIORITY frame naming stream 0 leaves the
    /// tree as it is.
    pub fn reprioritize(&mut self, id: u32, spec: PrioritySpec) {
        let Some(s) = self.slot(id) else { return self.insert(id, spec) };
        if s == ROOT_SLOT {
            return;
        }
        let (parent, weight) = self.sanitize(id, spec);
        // §5.3.3: if the new parent is a descendant of `id`, first move that
        // descendant to `id`'s current parent (non-exclusively), keeping its
        // weight.
        if self.is_below(parent, s) {
            let old_parent = self.nodes[s as usize].parent;
            self.unlink(parent);
            self.append(parent, old_parent);
        }
        self.unlink(s);
        self.nodes[s as usize].weight = weight;
        if spec.exclusive {
            self.adopt_children(parent, s);
        }
        self.append(s, parent);
    }

    /// Remove a closed stream (§5.3.4): its children move to its parent,
    /// weights scaled proportionally (we keep the child's own weight — the
    /// proportional redistribution of the RFC is advisory and h2o keeps it
    /// simple the same way).
    pub fn remove(&mut self, id: u32) {
        if id == ROOT {
            return;
        }
        let Some(s) = self.slots.remove(&id) else { return };
        // `id`'s children take its place in the parent's child list,
        // keeping their order (sibling order stays deterministic).
        let Node { parent, first, last, .. } = self.nodes[s as usize];
        let mut c = first;
        while c != NIL {
            self.nodes[c as usize].parent = parent;
            c = self.nodes[c as usize].next;
        }
        self.splice(s, first, last);
        self.nodes[s as usize].next = self.free;
        self.free = s;
    }

    /// Depth-first order of all streams, parents before children, siblings
    /// by descending weight then sibling order: the walk the tests use to
    /// check the tree is one tree (every stream once, no cycle).
    pub fn traversal(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![ROOT];
        while let Some(n) = stack.pop() {
            if n != ROOT {
                out.push(n);
            }
            // Sort children by weight descending (stable on sibling order),
            // pushed reversed so the heaviest pops first.
            let mut kids: Vec<u32> = self.children(n).collect();
            kids.sort_by_key(|&c| std::cmp::Reverse(self.weight(c).unwrap_or(16)));
            stack.extend(kids.iter().rev());
        }
        out
    }

    /// Is `a` a descendant of `b`?
    pub fn is_descendant(&self, a: u32, b: u32) -> bool {
        match (self.slot(a), self.slot(b)) {
            (Some(a), Some(b)) => self.is_below(a, b),
            _ => false,
        }
    }

    /// Is the node in slot `a` a descendant of the one in slot `b`?
    fn is_below(&self, mut a: u32, b: u32) -> bool {
        while a != ROOT_SLOT {
            a = self.nodes[a as usize].parent;
            if a == b {
                return true;
            }
        }
        false
    }

    /// Unlink slot `s` from its parent's child list (the node stays).
    fn unlink(&mut self, s: u32) {
        self.splice(s, NIL, NIL);
    }

    /// Put the sibling run `first..=last` (chained, parents already set)
    /// where slot `s` is in its parent's child list, unlinking `s`; an
    /// empty run (`first == NIL`) just unlinks it.
    fn splice(&mut self, s: u32, first: u32, last: u32) {
        let Node { parent, prev, next, .. } = self.nodes[s as usize];
        let (head, tail) = if first == NIL {
            (next, prev)
        } else {
            self.nodes[first as usize].prev = prev;
            self.nodes[last as usize].next = next;
            (first, last)
        };
        match prev {
            NIL => self.nodes[parent as usize].first = head,
            p => self.nodes[p as usize].next = head,
        }
        match next {
            NIL => self.nodes[parent as usize].last = tail,
            n => self.nodes[n as usize].prev = tail,
        }
        let n = &mut self.nodes[s as usize];
        (n.prev, n.next) = (NIL, NIL);
    }

    /// Link slot `s` under slot `parent`, last in its child list.
    fn append(&mut self, s: u32, parent: u32) {
        let last = self.nodes[parent as usize].last;
        let n = &mut self.nodes[s as usize];
        (n.parent, n.prev, n.next) = (parent, last, NIL);
        match last {
            NIL => self.nodes[parent as usize].first = s,
            l => self.nodes[l as usize].next = s,
        }
        self.nodes[parent as usize].last = s;
    }

    /// Move the whole child list of slot `from`, in order, to the end of
    /// slot `to`'s.
    fn adopt_children(&mut self, from: u32, to: u32) {
        let Node { first, last, .. } = self.nodes[from as usize];
        if first == NIL {
            return;
        }
        let mut c = first;
        while c != NIL {
            self.nodes[c as usize].parent = to;
            c = self.nodes[c as usize].next;
        }
        let from = &mut self.nodes[from as usize];
        (from.first, from.last) = (NIL, NIL);
        let tail = self.nodes[to as usize].last;
        match tail {
            NIL => self.nodes[to as usize].first = first,
            t => {
                self.nodes[t as usize].next = first;
                self.nodes[first as usize].prev = t;
            }
        }
        self.nodes[to as usize].last = last;
    }

    /// The parent slot and clamped weight `spec` gives `id`.
    fn sanitize(&self, id: u32, spec: PrioritySpec) -> (u32, u16) {
        // §5.3.1: a stream cannot depend on itself; treat like default.
        let parent = match spec.depends_on {
            d if d == id => ROOT_SLOT,
            d => self.slot(d).unwrap_or(ROOT_SLOT),
        };
        (parent, spec.weight.clamp(1, 256))
    }
}

impl Default for PriorityTree {
    fn default() -> Self {
        Self::new()
    }
}

/// A sibling list, walked by slot.
struct Siblings<'a> {
    nodes: &'a [Node],
    cur: u32,
}

impl<'a> Iterator for Siblings<'a> {
    type Item = (u32, &'a Node);

    fn next(&mut self) -> Option<Self::Item> {
        let s = self.cur;
        let n = self.nodes.get(s as usize)?;
        self.cur = n.next;
        Some((s, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(dep: u32, weight: u16, excl: bool) -> PrioritySpec {
        PrioritySpec { depends_on: dep, weight, exclusive: excl }
    }

    #[test]
    fn insert_chain() {
        let mut t = PriorityTree::new();
        t.insert(1, spec(0, 256, false));
        t.insert(3, spec(1, 16, false));
        t.insert(5, spec(3, 16, false));
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.parent(5), Some(3));
        assert_eq!(t.traversal(), vec![1, 3, 5]);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn exclusive_insertion_adopts_children() {
        let mut t = PriorityTree::new();
        t.insert(1, spec(0, 16, false));
        t.insert(3, spec(0, 16, false));
        // Stream 5 exclusively depends on root: 1 and 3 become its children.
        t.insert(5, spec(0, 16, true));
        assert_eq!(t.parent(5), Some(0));
        assert_eq!(t.parent(1), Some(5));
        assert_eq!(t.parent(3), Some(5));
        assert_eq!(t.children(0).collect::<Vec<_>>(), [5]);
    }

    #[test]
    fn unknown_parent_falls_back_to_root() {
        let mut t = PriorityTree::new();
        t.insert(7, spec(99, 8, false));
        assert_eq!(t.parent(7), Some(0));
    }

    #[test]
    fn self_dependency_falls_back_to_root() {
        let mut t = PriorityTree::new();
        t.insert(3, spec(3, 8, false));
        assert_eq!(t.parent(3), Some(0));
    }

    #[test]
    fn remove_promotes_children_in_place() {
        let mut t = PriorityTree::new();
        t.insert(1, spec(0, 16, false));
        t.insert(3, spec(0, 16, false));
        t.insert(5, spec(1, 16, false));
        t.insert(7, spec(1, 16, false));
        t.remove(1);
        assert_eq!(t.children(0).collect::<Vec<_>>(), [5, 7, 3]);
        assert_eq!(t.parent(5), Some(0));
        assert!(!t.contains(1));
    }

    #[test]
    fn reprioritize_moves_subtree() {
        let mut t = PriorityTree::new();
        t.insert(1, spec(0, 16, false));
        t.insert(3, spec(1, 16, false));
        t.insert(5, spec(3, 16, false));
        // Move 3 (and its subtree) under root.
        t.reprioritize(3, spec(0, 32, false));
        assert_eq!(t.parent(3), Some(0));
        assert_eq!(t.parent(5), Some(3));
        assert_eq!(t.weight(3), Some(32));
    }

    #[test]
    fn reprioritize_onto_own_descendant() {
        // §5.3.3 example: moving a stream under its own descendant first
        // hoists the descendant.
        let mut t = PriorityTree::new();
        t.insert(1, spec(0, 16, false));
        t.insert(3, spec(1, 16, false));
        t.insert(5, spec(3, 16, false));
        // Make 1 depend on 5 (a descendant of 1).
        t.reprioritize(1, spec(5, 16, false));
        // 5 must have been moved to 1's old parent (root) first.
        assert_eq!(t.parent(5), Some(0));
        assert_eq!(t.parent(1), Some(5));
        assert_eq!(t.parent(3), Some(1));
        // No cycles: traversal terminates and covers all nodes.
        assert_eq!(t.traversal().len(), 3);
    }

    #[test]
    fn exclusive_reprioritize() {
        let mut t = PriorityTree::new();
        t.insert(1, spec(0, 16, false));
        t.insert(3, spec(0, 16, false));
        t.insert(5, spec(0, 16, false));
        t.reprioritize(5, spec(0, 16, true));
        assert_eq!(t.children(0).collect::<Vec<_>>(), [5]);
        assert_eq!(t.parent(1), Some(5));
        assert_eq!(t.parent(3), Some(5));
    }

    #[test]
    fn traversal_orders_siblings_by_weight() {
        let mut t = PriorityTree::new();
        t.insert(1, spec(0, 8, false));
        t.insert(3, spec(0, 255, false));
        t.insert(5, spec(0, 32, false));
        assert_eq!(t.traversal(), vec![3, 5, 1]);
    }

    #[test]
    fn chromium_style_exclusive_chain() {
        // Chromium builds an exclusive chain: each new stream depends
        // exclusively on the previous most-important one.
        let mut t = PriorityTree::new();
        t.insert(1, spec(0, 256, true)); // HTML
        t.insert(3, spec(1, 220, true)); // CSS
        t.insert(5, spec(3, 183, true)); // JS
        t.insert(7, spec(5, 110, true)); // image
        assert_eq!(t.traversal(), vec![1, 3, 5, 7]);
        // Finishing the HTML promotes the chain.
        t.remove(1);
        assert_eq!(t.traversal(), vec![3, 5, 7]);
    }

    #[test]
    fn weight_is_clamped() {
        let mut t = PriorityTree::new();
        t.insert(1, spec(0, 0, false));
        assert_eq!(t.weight(1), Some(1));
        t.insert(3, spec(0, 300, false));
        assert_eq!(t.weight(3), Some(256));
    }

    #[test]
    fn the_root_cannot_be_reprioritized() {
        // A PRIORITY frame on stream 0 reaches `insert(0, ..)`: the root
        // must not become its own child (the walks would never end).
        let mut t = PriorityTree::new();
        t.insert(1, spec(0, 16, false));
        for excl in [false, true] {
            t.insert(ROOT, spec(1, 8, excl));
            t.reprioritize(ROOT, spec(0, 8, excl));
        }
        assert_eq!(t.children(ROOT).collect::<Vec<_>>(), [1]);
        assert_eq!((t.parent(ROOT), t.weight(ROOT), t.len()), (None, Some(256), 1));
        assert_eq!(t.traversal(), [1]);
    }
}
