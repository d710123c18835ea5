//! `PriorityTree` in lockstep with the reference tree in `tree_model/`:
//! the same inserts (exclusive or not, onto the stream itself, onto
//! unknown streams, of ids already present), reprioritizations (onto a
//! descendant among them), removals with ids reused afterwards, and
//! resets go to both, and after every op `contains`, `len`, `parent`,
//! `weight`, `children` and `traversal` must agree for every id in
//! `0..IDS`.

mod tree_model;

use h2push_h2proto::{PrioritySpec, PriorityTree, ROOT};
use proptest::prelude::*;
use tree_model::TreeModel;

/// Ids the ops name and the checks cover; few enough that ids collide.
const IDS: u32 = 48;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, PrioritySpec),
    Reprioritize(u32, PrioritySpec),
    Remove(u32),
    Reset,
}

/// `(id, spec)`: the id sometimes the root, the spec sometimes naming
/// `id` itself or a stream no op ever creates, its weight sometimes
/// outside 1..=256.
fn target() -> impl Strategy<Value = (u32, PrioritySpec)> {
    (0..IDS + 2, 0..IDS + 10, 0u16..300, any::<bool>()).prop_map(
        |(id, parent, weight, exclusive)| {
            let id = if id < IDS { id } else { ROOT };
            let depends_on = match parent {
                p if p < IDS => p,
                p if p < IDS + 5 => id,
                _ => 999,
            };
            (id, PrioritySpec { depends_on, weight, exclusive })
        },
    )
}

/// Inserts twice as often as reprioritizations or removals, now and then
/// a reset.
fn op() -> impl Strategy<Value = Op> {
    (0..21u32, target()).prop_map(|(kind, (id, spec))| match kind {
        0..=9 => Op::Insert(id, spec),
        10..=14 => Op::Reprioritize(id, spec),
        15..=19 => Op::Remove(id),
        _ => Op::Reset,
    })
}

fn check(tree: &PriorityTree, model: &TreeModel) -> Result<(), TestCaseError> {
    prop_assert_eq!(tree.len(), model.len());
    for id in 0..IDS {
        prop_assert_eq!(tree.contains(id), model.contains(id), "contains({})", id);
        prop_assert_eq!(tree.parent(id), model.parent(id), "parent({})", id);
        prop_assert_eq!(tree.weight(id), model.weight(id), "weight({})", id);
        prop_assert_eq!(
            tree.children(id).collect::<Vec<_>>(),
            model.children(id),
            "children({})",
            id
        );
    }
    prop_assert_eq!(tree.traversal(), model.traversal());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_slab_tree_matches_the_reference_tree(ops in proptest::collection::vec(op(), 0..120)) {
        let (mut tree, mut model) = (PriorityTree::new(), TreeModel::new());
        for op in ops {
            match op {
                Op::Insert(id, spec) => {
                    tree.insert(id, spec);
                    model.insert(id, spec);
                }
                Op::Reprioritize(id, spec) => {
                    tree.reprioritize(id, spec);
                    model.reprioritize(id, spec);
                }
                Op::Remove(id) => {
                    tree.remove(id);
                    model.remove(id);
                }
                Op::Reset => {
                    tree.reset();
                    model.reset();
                }
            }
            check(&tree, &model)?;
        }
    }
}
