//! The index of live actions.
//!
//! Every action carries its [`Ancestors`], copied from its parent's node
//! at begin: they answer whether a lock holder is an ancestor (§5.2)
//! and which ancestor is the closest to possess a colour (§5.1), so
//! nothing walks the tree. A node is removed, and unlinked from its
//! parent, as soon as its action terminates. Begin checks that the
//! parent is active and links the child in one step under the parent's
//! shard lock, and commit (only with no live children) and abort mark
//! an action terminating under that same lock, so no child is ever
//! linked to a terminated parent. Sharded by [`ActionId`]; no operation
//! holds two shard locks at once.

use std::borrow::Cow;
use std::iter;
use std::sync::Arc;

use chroma_base::{ActionId, Colour, ColourSet, IdHashMap, Sharded};
use chroma_locks::Ancestry;
use parking_lot::RwLock;

use crate::error::ActionError;

/// Lifecycle state of a live action, from
/// [`Runtime::action_state`](crate::Runtime::action_state).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActionState {
    /// Running; may acquire locks, perform operations and begin
    /// children.
    Active,
    /// Committing: its per-colour effects are passing to ancestors or
    /// stable storage.
    Committed,
    /// Aborting: its effects are being undone.
    Aborted,
}

/// An action's proper ancestors, closest (its parent) first, each with
/// its colour set. Set once, at begin; an ancestor of a live action is
/// itself live, so the chain never goes stale.
#[derive(Clone, Debug, Default)]
pub struct Ancestors {
    /// `None` for a top-level action, whose empty chain then shares no
    /// reference count with other actions.
    ids: Option<Arc<[ActionId]>>,
    colours: Option<Arc<[ColourSet]>>,
}

impl Ancestors {
    /// The chain of a child of `parent`, whose own chain is `self` and
    /// whose colour set is `colours`.
    fn with_parent(&self, parent: ActionId, colours: ColourSet) -> Ancestors {
        let (ids, parents_colours) = (self.ids(), self.colours.as_deref().unwrap_or_default());
        Ancestors {
            ids: Some(iter::once(parent).chain(ids.iter().copied()).collect()),
            colours: Some(
                iter::once(colours)
                    .chain(parents_colours.iter().copied())
                    .collect(),
            ),
        }
    }

    /// The ancestors' ids, closest first.
    #[must_use]
    pub fn ids(&self) -> &[ActionId] {
        self.ids.as_deref().unwrap_or_default()
    }

    /// Each ancestor with its colour set, closest first.
    pub fn iter(&self) -> impl Iterator<Item = (ActionId, ColourSet)> + '_ {
        let colours = self.colours.as_deref().unwrap_or_default();
        self.ids().iter().copied().zip(colours.iter().copied())
    }

    /// The closest ancestor possessing `colour`: the inheritance target
    /// of §5.2, "when a coloured action commits, its locks of colour a
    /// are inherited by the closest ancestor coloured a". `None` means
    /// the action is outermost for that colour and its colour-`a`
    /// effects become permanent.
    #[must_use]
    pub fn closest_with(&self, colour: Colour) -> Option<ActionId> {
        self.iter()
            .find(|(_, colours)| colours.contains(colour))
            .map(|(id, _)| id)
    }
}

/// The chain of the action these are the ancestors of, which is the one
/// `action` the lock table may ask about.
impl Ancestry for Ancestors {
    fn chain(&self, _action: ActionId) -> Cow<'_, [ActionId]> {
        Cow::Borrowed(self.ids())
    }
}

#[derive(Debug)]
struct Node {
    ancestors: Ancestors,
    colours: ColourSet,
    state: ActionState,
    /// Live children, in begin order.
    children: Vec<ActionId>,
}

type Shard = RwLock<IdHashMap<ActionId, Node>>;

/// Every live action a runtime has begun: colour set, ancestors,
/// lifecycle state and live children.
#[derive(Debug, Default)]
pub(crate) struct ActionTree {
    nodes: Sharded<Shard>,
}

impl ActionTree {
    fn shard(&self, id: ActionId) -> &Shard {
        self.nodes.of(id.as_raw())
    }

    /// Reads one field of `id`'s node, if live.
    fn read<R>(&self, id: ActionId, f: impl FnOnce(&Node) -> R) -> Option<R> {
        self.shard(id).read().get(&id).map(f)
    }

    /// Runs `f` on `id`'s node if it is active, under its shard's write
    /// lock.
    fn with_active<R>(&self, id: ActionId, f: impl FnOnce(&mut Node) -> R) -> Option<R> {
        self.shard(id)
            .write()
            .get_mut(&id)
            .filter(|node| node.state == ActionState::Active)
            .map(f)
    }

    /// The chain a child of `parent` gets, if `parent` is active.
    pub(crate) fn child_ancestors(&self, parent: ActionId) -> Option<Ancestors> {
        self.read(parent, |n| {
            (n.state == ActionState::Active).then(|| n.ancestors.with_parent(parent, n.colours))
        })
        .flatten()
    }

    /// Registers `id` as active, then links it into its parent's
    /// children if the parent is still active, in one step under the
    /// parent's shard lock. Returns `false`, with `id` unregistered
    /// again, if the parent is no longer active.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered (runtime ids are unique).
    pub(crate) fn insert(&self, id: ActionId, ancestors: Ancestors, colours: ColourSet) -> bool {
        let parent = ancestors.ids().first().copied();
        let node = Node {
            ancestors,
            colours,
            state: ActionState::Active,
            children: Vec::new(),
        };
        let previous = self.shard(id).write().insert(id, node);
        assert!(previous.is_none(), "duplicate action id {id}");
        let Some(parent) = parent else {
            return true;
        };
        let linked = self
            .with_active(parent, |node| node.children.push(id))
            .is_some();
        if !linked {
            self.shard(id).write().remove(&id);
        }
        linked
    }

    /// Returns the state of `id`, if live.
    pub(crate) fn state(&self, id: ActionId) -> Option<ActionState> {
        self.read(id, |n| n.state)
    }

    /// Returns the colour set and ancestors of `id` if it is active.
    pub(crate) fn active_node(&self, id: ActionId) -> Option<(ColourSet, Ancestors)> {
        self.read(id, |n| {
            (n.state == ActionState::Active).then(|| (n.colours, n.ancestors.clone()))
        })
        .flatten()
    }

    /// Returns the live children of `id` in begin order.
    pub(crate) fn children(&self, id: ActionId) -> Vec<ActionId> {
        self.read(id, |n| n.children.clone()).unwrap_or_default()
    }

    /// Marks `id` committing if it is active and has no live children,
    /// and returns its colour set and ancestors.
    ///
    /// # Errors
    ///
    /// [`ActionError::NotActive`] or [`ActionError::ChildrenActive`].
    pub(crate) fn begin_commit(&self, id: ActionId) -> Result<(ColourSet, Ancestors), ActionError> {
        self.with_active(id, |node| {
            if !node.children.is_empty() {
                return Err(ActionError::ChildrenActive(id));
            }
            node.state = ActionState::Committed;
            Ok((node.colours, node.ancestors.clone()))
        })
        .unwrap_or(Err(ActionError::NotActive(id)))
    }

    /// Moves `id` from state `from` to `to` under its shard lock.
    /// Returns `false`, changing nothing, if `id` is not live in `from`.
    pub(crate) fn transition(&self, id: ActionId, from: ActionState, to: ActionState) -> bool {
        match self.shard(id).write().get_mut(&id) {
            Some(node) if node.state == from => {
                node.state = to;
                true
            }
            _ => false,
        }
    }

    /// Removes the node of a terminated `id` and unlinks it from its
    /// parent's children.
    pub(crate) fn remove(&self, id: ActionId) {
        let node = self.shard(id).write().remove(&id);
        if let Some(parent) = node.and_then(|n| n.ancestors.ids().first().copied()) {
            if let Some(parent) = self.shard(parent).write().get_mut(&parent) {
                parent.children.retain(|&c| c != id);
            }
        }
    }

    /// Returns every active action with its depth, unordered.
    pub(crate) fn active(&self) -> Vec<(ActionId, usize)> {
        self.nodes
            .iter()
            .flat_map(|shard| {
                shard
                    .read()
                    .iter()
                    .filter(|(_, n)| n.state == ActionState::Active)
                    .map(|(&id, n)| (id, n.ancestors.ids().len()))
                    .collect::<Vec<_>>()
            })
            .collect()
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

    /// Begins `id` under `parent` the way the runtime does.
    fn begin(tree: &ActionTree, id: u64, parent: Option<u64>, colours: ColourSet) -> Ancestors {
        let ancestors = match parent {
            Some(p) => tree.child_ancestors(a(p)).expect("parent active"),
            None => Ancestors::default(),
        };
        assert!(tree.insert(a(id), ancestors.clone(), colours));
        ancestors
    }

    #[test]
    fn insert_and_query() {
        let tree = ActionTree::default();
        begin(&tree, 1, None, ColourSet::single(blue()));
        let chain = begin(&tree, 2, Some(1), ColourSet::single(red()).with(blue()));
        assert_eq!(tree.state(a(1)), Some(ActionState::Active));
        assert_eq!(chain.ids(), [a(1)]);
        assert_eq!(tree.children(a(1)), vec![a(2)]);
        assert!(tree.active_node(a(2)).unwrap().0.contains(red()));
    }

    #[test]
    fn chain_is_copied_from_the_parent() {
        let tree = ActionTree::default();
        begin(&tree, 1, None, ColourSet::single(blue()));
        begin(&tree, 2, Some(1), ColourSet::single(blue()));
        let chain = begin(&tree, 3, Some(2), ColourSet::single(blue()));
        assert_eq!(chain.ids(), [a(2), a(1)]);
        assert_eq!(*chain.chain(a(3)), [a(2), a(1)]);
    }

    #[test]
    fn closest_coloured_ancestor_skips_uncoloured() {
        // Fig. 15: E (blue) inside B (red) inside A (red, blue).
        let tree = ActionTree::default();
        let a1 = begin(&tree, 1, None, ColourSet::from_iter([red(), blue()]));
        let a2 = begin(&tree, 2, Some(1), ColourSet::single(red()));
        let a3 = begin(&tree, 3, Some(2), ColourSet::single(blue()));
        assert_eq!(a3.closest_with(blue()), Some(a(1)));
        assert_eq!(a2.closest_with(red()), Some(a(1)));
        assert_eq!(a1.closest_with(red()), None);
        assert_eq!(a1.closest_with(blue()), None);
    }

    #[test]
    fn commit_refuses_live_children_and_removal_unlinks() {
        let tree = ActionTree::default();
        begin(&tree, 1, None, ColourSet::single(blue()));
        begin(&tree, 2, Some(1), ColourSet::single(blue()));
        assert!(matches!(
            tree.begin_commit(a(1)),
            Err(ActionError::ChildrenActive(_))
        ));
        assert!(tree.begin_commit(a(2)).is_ok());
        tree.remove(a(2));
        assert_eq!(tree.state(a(2)), None);
        assert!(tree.children(a(1)).is_empty());
        assert!(tree.begin_commit(a(1)).is_ok());
        tree.remove(a(1));
        assert!(tree.active().is_empty());
    }

    #[test]
    fn terminating_parent_refuses_children() {
        let tree = ActionTree::default();
        begin(&tree, 1, None, ColourSet::single(blue()));
        let chain = tree.child_ancestors(a(1)).unwrap();
        assert!(tree.transition(a(1), ActionState::Active, ActionState::Aborted));
        assert!(tree.child_ancestors(a(1)).is_none());
        // A begin that read the chain before the abort is refused at the
        // link, and leaves no node behind.
        assert!(!tree.insert(a(2), chain, ColourSet::single(blue())));
        assert_eq!(tree.state(a(2)), None);
        assert!(tree.children(a(1)).is_empty());
    }
}
