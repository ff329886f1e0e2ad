//! The live action tree.
//!
//! The tree is sharded by [`ActionId`]: each shard is its own `RwLock`
//! around a map hashed with [`IdHasher`](chroma_base::IdHasher) (action
//! ids are the runtime's own), so actions in different shards never
//! take a lock in common, and a rehash copies one shard instead of the
//! whole tree. No operation holds two shard locks at once except
//! [`ActionTree::prune_terminated`], which takes every shard in index
//! order.
//!
//! [`ActionTree::insert`] registers the node *before* linking it into
//! its parent's `children`, so any child id a reader finds already has
//! a node. Parent links never change after insertion, so an ancestor
//! walk takes one shard read per step and sees a consistent chain.

use chroma_base::{ActionId, Colour, ColourSet, IdHashMap};
use chroma_locks::Ancestry;
use parking_lot::RwLock;

use crate::shard::{self, Sharded};

/// Lifecycle state of an action.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionState {
    /// Running; may acquire locks and perform operations.
    Active,
    /// Terminated normally; per-colour effects inherited or persisted.
    Committed,
    /// Terminated abnormally; all its effects undone.
    Aborted,
}

#[derive(Clone, Debug)]
struct Node {
    parent: Option<ActionId>,
    colours: ColourSet,
    state: ActionState,
    children: Vec<ActionId>,
}

type Shard = RwLock<IdHashMap<ActionId, Node>>;

/// Bookkeeping for every action a runtime has started: parents, colour
/// sets, lifecycle states.
///
/// Implements [`Ancestry`] so the lock table can answer "is this holder
/// an ancestor of the requester" directly from the live tree.
#[derive(Debug, Default)]
pub struct ActionTree {
    nodes: Sharded<Shard>,
}

impl ActionTree {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        ActionTree::default()
    }

    fn shard(&self, id: ActionId) -> &Shard {
        self.nodes.of(id.as_raw())
    }

    /// Reads one field of `id`'s node, if registered.
    fn read<R>(&self, id: ActionId, f: impl FnOnce(&Node) -> R) -> Option<R> {
        self.shard(id).read().get(&id).map(f)
    }

    /// Registers a new active action, then links it into its parent's
    /// children.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered (runtime ids are unique).
    pub fn insert(&self, id: ActionId, parent: Option<ActionId>, colours: ColourSet) {
        let previous = self.shard(id).write().insert(
            id,
            Node {
                parent,
                colours,
                state: ActionState::Active,
                children: Vec::new(),
            },
        );
        assert!(previous.is_none(), "duplicate action id {id}");
        if let Some(parent) = parent {
            if let Some(parent_node) = self.shard(parent).write().get_mut(&parent) {
                parent_node.children.push(id);
            }
        }
    }

    /// Returns the state of `id`, if registered.
    #[must_use]
    pub fn state(&self, id: ActionId) -> Option<ActionState> {
        self.read(id, |n| n.state)
    }

    /// Returns `true` if `id` is registered and active.
    #[must_use]
    pub fn is_active(&self, id: ActionId) -> bool {
        self.state(id) == Some(ActionState::Active)
    }

    /// Sets the state of `id`. No-op for unknown ids.
    pub fn set_state(&self, id: ActionId, state: ActionState) {
        if let Some(node) = self.shard(id).write().get_mut(&id) {
            node.state = state;
        }
    }

    /// Returns the colour set of `id`, if registered.
    #[must_use]
    pub fn colours(&self, id: ActionId) -> Option<ColourSet> {
        self.read(id, |n| n.colours)
    }

    /// Returns the colour set of `id` if it is registered and active
    /// (one shard read for both questions).
    #[must_use]
    pub fn active_colours(&self, id: ActionId) -> Option<ColourSet> {
        self.read(id, |n| {
            (n.state == ActionState::Active).then_some(n.colours)
        })
        .flatten()
    }

    /// Returns the parent of `id` (`None` for top-level or unknown).
    #[must_use]
    pub fn parent(&self, id: ActionId) -> Option<ActionId> {
        self.read(id, |n| n.parent).flatten()
    }

    /// Returns the children of `id` in creation order.
    #[must_use]
    pub fn children(&self, id: ActionId) -> Vec<ActionId> {
        self.read(id, |n| n.children.clone()).unwrap_or_default()
    }

    /// Returns the *active* children of `id`.
    #[must_use]
    pub fn active_children(&self, id: ActionId) -> Vec<ActionId> {
        let mut children = self.children(id);
        children.retain(|&c| self.is_active(c));
        children
    }

    /// Walks up from the *parent* of `id` and returns the closest
    /// ancestor possessing `colour`.
    ///
    /// This is the inheritance target of §5.2: "when a coloured action
    /// commits, its locks of colour a are inherited by the closest
    /// ancestor coloured a"; `None` means the action is outermost for
    /// that colour and its colour-`a` effects become permanent.
    #[must_use]
    pub fn closest_ancestor_with_colour(&self, id: ActionId, colour: Colour) -> Option<ActionId> {
        let mut cursor = self.parent(id);
        while let Some(ancestor) = cursor {
            let (colours, parent) = self.read(ancestor, |n| (n.colours, n.parent))?;
            if colours.contains(colour) {
                return Some(ancestor);
            }
            cursor = parent;
        }
        None
    }

    /// Returns every currently active action, unordered.
    #[must_use]
    pub fn active_actions(&self) -> Vec<ActionId> {
        self.nodes
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .iter()
                    .filter(|(_, n)| n.state == ActionState::Active)
                    .map(|(&id, _)| id)
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Removes terminated actions that have no registered descendants,
    /// bounding memory in long-running systems. Returns how many nodes
    /// were removed.
    pub fn prune_terminated(&self) -> usize {
        let mut shards: Vec<_> = self.nodes.iter().map(RwLock::write).collect();
        let mut removed = 0;
        loop {
            let removable: Vec<ActionId> = shards
                .iter()
                .flat_map(|nodes| nodes.iter())
                .filter(|(_, n)| n.state != ActionState::Active && n.children.is_empty())
                .map(|(&id, _)| id)
                .collect();
            if removable.is_empty() {
                break;
            }
            for id in removable {
                let node = shards[shard::index(id.as_raw())].remove(&id);
                removed += 1;
                if let Some(parent) = node.and_then(|n| n.parent) {
                    if let Some(parent_node) =
                        shards[shard::index(parent.as_raw())].get_mut(&parent)
                    {
                        parent_node.children.retain(|&c| c != id);
                    }
                }
            }
        }
        removed
    }

    /// Returns the number of registered actions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.iter().map(|shard| shard.read().len()).sum()
    }

    /// Returns `true` if no actions are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.iter().all(|shard| shard.read().is_empty())
    }
}

impl Ancestry for ActionTree {
    fn is_ancestor_or_self(&self, candidate: ActionId, of: ActionId) -> bool {
        if candidate == of {
            return true;
        }
        let mut cursor = of;
        while let Some(parent) = self.read(cursor, |n| n.parent) {
            match parent {
                Some(parent) if parent == candidate => return true,
                Some(parent) => cursor = parent,
                None => return false,
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> ActionId {
        ActionId::from_raw(n)
    }
    fn red() -> Colour {
        Colour::from_index(0)
    }
    fn blue() -> Colour {
        Colour::from_index(1)
    }

    #[test]
    fn insert_and_query() {
        let tree = ActionTree::new();
        tree.insert(a(1), None, ColourSet::single(blue()));
        tree.insert(a(2), Some(a(1)), ColourSet::single(red()).with(blue()));
        assert_eq!(tree.state(a(1)), Some(ActionState::Active));
        assert_eq!(tree.parent(a(2)), Some(a(1)));
        assert_eq!(tree.children(a(1)), vec![a(2)]);
        assert!(tree.colours(a(2)).unwrap().contains(red()));
    }

    #[test]
    fn ancestry_walks_the_chain() {
        let tree = ActionTree::new();
        tree.insert(a(1), None, ColourSet::single(blue()));
        tree.insert(a(2), Some(a(1)), ColourSet::single(blue()));
        tree.insert(a(3), Some(a(2)), ColourSet::single(blue()));
        assert!(tree.is_ancestor_or_self(a(1), a(3)));
        assert!(tree.is_ancestor_or_self(a(3), a(3)));
        assert!(!tree.is_ancestor_or_self(a(3), a(1)));
    }

    #[test]
    fn closest_coloured_ancestor_skips_uncoloured() {
        // Fig. 15: E (blue) inside B (red) inside A (red, blue).
        let tree = ActionTree::new();
        tree.insert(a(1), None, ColourSet::from_iter([red(), blue()]));
        tree.insert(a(2), Some(a(1)), ColourSet::single(red()));
        tree.insert(a(3), Some(a(2)), ColourSet::single(blue()));
        assert_eq!(tree.closest_ancestor_with_colour(a(3), blue()), Some(a(1)));
        assert_eq!(tree.closest_ancestor_with_colour(a(2), red()), Some(a(1)));
        assert_eq!(tree.closest_ancestor_with_colour(a(1), red()), None);
        assert_eq!(tree.closest_ancestor_with_colour(a(1), blue()), None);
    }

    #[test]
    fn active_children_filters_terminated() {
        let tree = ActionTree::new();
        tree.insert(a(1), None, ColourSet::single(blue()));
        tree.insert(a(2), Some(a(1)), ColourSet::single(blue()));
        tree.insert(a(3), Some(a(1)), ColourSet::single(blue()));
        tree.set_state(a(2), ActionState::Committed);
        assert_eq!(tree.active_children(a(1)), vec![a(3)]);
    }

    #[test]
    fn prune_removes_terminated_leaves_recursively() {
        let tree = ActionTree::new();
        tree.insert(a(1), None, ColourSet::single(blue()));
        tree.insert(a(2), Some(a(1)), ColourSet::single(blue()));
        tree.set_state(a(2), ActionState::Committed);
        tree.set_state(a(1), ActionState::Committed);
        let removed = tree.prune_terminated();
        assert_eq!(removed, 2);
        assert!(tree.is_empty());
    }

    #[test]
    fn prune_keeps_active_subtrees() {
        let tree = ActionTree::new();
        tree.insert(a(1), None, ColourSet::single(blue()));
        tree.insert(a(2), Some(a(1)), ColourSet::single(blue()));
        tree.set_state(a(1), ActionState::Committed); // parent done, child active
        assert_eq!(tree.prune_terminated(), 0);
        assert_eq!(tree.len(), 2);
    }
}
