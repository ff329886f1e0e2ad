//! The requester's ancestor chain, the one fact the lock rules need:
//! asked once per request; a waiter's chain travels in its wait entry.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use chroma_base::ActionId;
use parking_lot::RwLock;

/// Source of a requester's ancestor chain.
///
/// Like Moss, chroma treats an action as an ancestor of itself, which is
/// what permits lock conversion (upgrading a held read lock to a write
/// lock) and re-acquisition; the chain itself holds only the *proper*
/// ancestors.
///
/// The core runtime hands the table the chain each action carries from
/// its begin; the standalone [`FlatAncestry`] implementation is useful
/// for tests and for non-nested workloads.
pub trait Ancestry {
    /// The proper ancestors of `action`, closest (its parent) first.
    fn chain(&self, action: ActionId) -> Cow<'_, [ActionId]>;
}

/// An explicit parent map usable as an [`Ancestry`].
///
/// Actions without a registered parent are top-level; with no
/// registrations at all, every action is top-level and its chain is
/// empty (hence "flat").
///
/// # Examples
///
/// ```
/// use chroma_base::ActionId;
/// use chroma_locks::{Ancestry, FlatAncestry};
///
/// let (parent, child) = (ActionId::from_raw(1), ActionId::from_raw(2));
/// let tree = FlatAncestry::new();
/// tree.set_parent(child, parent);
/// assert_eq!(*tree.chain(child), [parent]);
/// assert!(tree.chain(parent).is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlatAncestry {
    parents: Arc<RwLock<HashMap<ActionId, ActionId>>>,
}

impl FlatAncestry {
    /// Creates an oracle with no parent links.
    #[must_use]
    pub fn new() -> Self {
        FlatAncestry::default()
    }

    /// Registers `parent` as the parent of `child`.
    pub fn set_parent(&self, child: ActionId, parent: ActionId) {
        self.parents.write().insert(child, parent);
    }

    /// Removes the parent link of `child`, making it top-level.
    pub fn clear_parent(&self, child: ActionId) {
        self.parents.write().remove(&child);
    }
}

impl Ancestry for FlatAncestry {
    fn chain(&self, action: ActionId) -> Cow<'_, [ActionId]> {
        let parents = self.parents.read();
        let mut chain = Vec::new();
        let mut cursor = action;
        while let Some(&parent) = parents.get(&cursor) {
            chain.push(parent);
            cursor = parent;
        }
        Cow::Owned(chain)
    }
}

/// Whether `candidate` is `requester` itself or one of the ancestors in
/// the requester's `chain`.
pub(crate) fn is_ancestor_or_self(
    candidate: ActionId,
    requester: ActionId,
    chain: &[ActionId],
) -> bool {
    candidate == requester || chain.contains(&candidate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> ActionId {
        ActionId::from_raw(n)
    }

    #[test]
    fn top_level_chain_is_empty() {
        assert!(FlatAncestry::new().chain(a(1)).is_empty());
    }

    #[test]
    fn chain_runs_closest_first() {
        let tree = FlatAncestry::new();
        tree.set_parent(a(2), a(1));
        tree.set_parent(a(3), a(2));
        assert_eq!(*tree.chain(a(3)), [a(2), a(1)]);
        assert_eq!(*tree.chain(a(2)), [a(1)]);
    }

    #[test]
    fn siblings_are_unrelated() {
        let tree = FlatAncestry::new();
        tree.set_parent(a(2), a(1));
        tree.set_parent(a(3), a(1));
        assert!(!tree.chain(a(3)).contains(&a(2)));
        assert!(!tree.chain(a(2)).contains(&a(3)));
    }

    #[test]
    fn clear_parent_detaches() {
        let tree = FlatAncestry::new();
        tree.set_parent(a(2), a(1));
        tree.clear_parent(a(2));
        assert!(tree.chain(a(2)).is_empty());
    }
}
