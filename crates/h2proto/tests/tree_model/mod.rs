//! A reference `PriorityTree`: the tree as it was before it became a slab,
//! one `Vec` of child ids per node in a hash map, every operation written
//! the obvious way. `tests/tree_lockstep.rs` drives it in lockstep with
//! the slab (a directory module, so cargo does not build it as a test
//! target of its own).
//!
//! One guard is new: reprioritizing the root is a no-op, as in the slab.
//! Without it a PRIORITY frame on stream 0 made the root its own child.

use h2push_h2proto::{PrioritySpec, ROOT};
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Node {
    parent: u32,
    weight: u16,
    children: Vec<u32>,
}

/// The reference tree.
#[derive(Debug, Clone)]
pub struct TreeModel {
    nodes: HashMap<u32, Node>,
}

impl TreeModel {
    /// Tree containing only the root.
    pub fn new() -> Self {
        let mut nodes = HashMap::new();
        nodes.insert(ROOT, Node { parent: ROOT, weight: 256, children: Vec::new() });
        TreeModel { nodes }
    }

    /// Back to only the root.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    pub fn contains(&self, id: u32) -> bool {
        self.nodes.contains_key(&id)
    }

    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    pub fn parent(&self, id: u32) -> Option<u32> {
        if id == ROOT {
            return None;
        }
        self.nodes.get(&id).map(|n| n.parent)
    }

    pub fn weight(&self, id: u32) -> Option<u16> {
        self.nodes.get(&id).map(|n| n.weight)
    }

    pub fn children(&self, id: u32) -> &[u32] {
        self.nodes.get(&id).map(|n| n.children.as_slice()).unwrap_or(&[])
    }

    pub fn insert(&mut self, id: u32, spec: PrioritySpec) {
        if self.nodes.contains_key(&id) {
            self.reprioritize(id, spec);
            return;
        }
        let spec = self.sanitize(id, spec);
        let children = if spec.exclusive {
            // All children of the new parent become children of `id`.
            let moved = std::mem::take(&mut self.node(spec.depends_on).children);
            for c in &moved {
                self.node(*c).parent = id;
            }
            moved
        } else {
            Vec::new()
        };
        self.nodes.insert(id, Node { parent: spec.depends_on, weight: spec.weight, children });
        self.node(spec.depends_on).children.push(id);
    }

    pub fn reprioritize(&mut self, id: u32, spec: PrioritySpec) {
        if !self.nodes.contains_key(&id) {
            self.insert(id, spec);
            return;
        }
        if id == ROOT {
            return;
        }
        let spec = self.sanitize(id, spec);
        // §5.3.3: a new parent below `id` first moves to `id`'s parent.
        if self.is_descendant(spec.depends_on, id) {
            let old_parent = self.nodes[&id].parent;
            self.detach(spec.depends_on);
            self.attach(spec.depends_on, old_parent);
        }
        self.detach(id);
        self.node(id).weight = spec.weight;
        if spec.exclusive {
            let moved = std::mem::take(&mut self.node(spec.depends_on).children);
            for c in &moved {
                self.node(*c).parent = id;
            }
            self.node(id).children.extend(moved);
        }
        self.attach(id, spec.depends_on);
    }

    pub fn remove(&mut self, id: u32) {
        if id == ROOT {
            return;
        }
        let Some(node) = self.nodes.remove(&id) else { return };
        // `id`'s children take its place in the parent's list.
        let siblings = &mut self.node(node.parent).children;
        let pos = siblings.iter().position(|&c| c == id).expect("a child is in its parent's list");
        siblings.splice(pos..=pos, node.children.iter().copied());
        for c in &node.children {
            self.node(*c).parent = node.parent;
        }
    }

    pub fn traversal(&self) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack = vec![ROOT];
        while let Some(n) = stack.pop() {
            if n != ROOT {
                out.push(n);
            }
            let mut kids = self.children(n).to_vec();
            kids.sort_by_key(|&c| std::cmp::Reverse(self.weight(c).unwrap_or(16)));
            stack.extend(kids.iter().rev());
        }
        out
    }

    fn is_descendant(&self, a: u32, b: u32) -> bool {
        let mut cur = a;
        while cur != ROOT {
            match self.nodes.get(&cur) {
                Some(n) if n.parent == b => return true,
                Some(n) => cur = n.parent,
                None => return false,
            }
        }
        false
    }

    fn node(&mut self, id: u32) -> &mut Node {
        self.nodes.get_mut(&id).expect("a linked id is in the tree")
    }

    fn detach(&mut self, id: u32) {
        let parent = self.nodes[&id].parent;
        self.node(parent).children.retain(|&c| c != id);
    }

    fn attach(&mut self, id: u32, parent: u32) {
        self.node(id).parent = parent;
        self.node(parent).children.push(id);
    }

    fn sanitize(&self, id: u32, mut spec: PrioritySpec) -> PrioritySpec {
        if spec.depends_on == id || !self.nodes.contains_key(&spec.depends_on) {
            spec.depends_on = ROOT;
        }
        spec.weight = spec.weight.clamp(1, 256);
        spec
    }
}
