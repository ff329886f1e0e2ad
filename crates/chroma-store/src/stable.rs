//! The stable (crash-surviving) half of a simulated node's storage.
//!
//! A simulated crash never touches this map, so everything committed
//! to it survives; what the paper asks of stable storage beyond that is
//! that a batch of updates lands atomically, which one write lock
//! gives. The intentions-list protocol that provides the same
//! guarantee against real crashes runs in [`DiskStore`](crate::DiskStore).

use std::collections::HashMap;

use chroma_base::ObjectId;
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use parking_lot::RwLock;

use crate::StoreBytes;

/// A crash-surviving object store: an atomic map of installed states.
///
/// # Examples
///
/// ```
/// use chroma_base::ObjectId;
/// use chroma_store::{StableStore, StoreBytes};
///
/// let store = StableStore::new();
/// let o = ObjectId::from_raw(1);
/// store.commit_batch(vec![(o, StoreBytes::from(vec![7]))]);
/// assert_eq!(store.read(o).as_deref(), Some(&[7u8][..]));
/// ```
#[derive(Debug, Default)]
pub struct StableStore {
    pages: RwLock<HashMap<ObjectId, StoreBytes>>,
    obs: ObsCell,
}

impl StableStore {
    /// Creates an empty stable store.
    #[must_use]
    pub fn new() -> Self {
        StableStore::default()
    }

    /// Returns the installed state of `object`, if any.
    #[must_use]
    pub fn read(&self, object: ObjectId) -> Option<StoreBytes> {
        self.pages.read().get(&object).cloned()
    }

    /// Returns `true` if `object` has an installed state.
    #[must_use]
    pub fn contains(&self, object: ObjectId) -> bool {
        self.pages.read().contains_key(&object)
    }

    /// Returns the identifiers of all installed objects, unordered.
    #[must_use]
    pub fn object_ids(&self) -> Vec<ObjectId> {
        self.pages.read().keys().copied().collect()
    }

    /// Installs a batch of updates atomically: no reader sees part of
    /// it. Emits `WalAppend` (one record per update plus the commit
    /// record), then `WalFlush`, as the on-disk commit does.
    pub fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) {
        let objects = updates.len() as u64;
        let mut pages = self.pages.write();
        self.obs.get().emit(EventKind::WalAppend {
            records: objects + 1,
        });
        pages.extend(updates);
        self.obs.get().emit(EventKind::WalFlush { objects });
    }
}

impl Observable for StableStore {
    /// Installs an observability handle; commits emit `WalAppend` and
    /// `WalFlush`.
    fn install_obs(&self, obs: Obs) {
        self.obs.set(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }
    fn bytes(v: u8) -> StoreBytes {
        StoreBytes::from(vec![v])
    }

    #[test]
    fn committed_batch_is_installed_and_log_truncated() {
        let store = StableStore::new();
        store.commit_batch(vec![(o(1), bytes(1)), (o(2), bytes(2))]);
        assert_eq!(store.read(o(1)).as_deref(), Some(&[1u8][..]));
        assert_eq!(store.read(o(2)).as_deref(), Some(&[2u8][..]));
        let mut ids = store.object_ids();
        ids.sort();
        assert_eq!(ids, [o(1), o(2)]);
    }

    #[test]
    fn later_batch_overwrites_earlier_state() {
        let store = StableStore::new();
        store.commit_batch(vec![(o(1), bytes(1))]);
        store.commit_batch(vec![(o(1), bytes(2))]);
        assert_eq!(store.read(o(1)).as_deref(), Some(&[2u8][..]));
    }

    #[test]
    fn empty_batch_commits_cleanly() {
        let store = StableStore::new();
        let bus = std::sync::Arc::new(chroma_obs::EventBus::new());
        store.install_obs(Obs::new(bus.clone()));
        store.commit_batch(Vec::new());
        assert!(store.object_ids().is_empty());
        assert_eq!(bus.counter("wal_append"), 1);
        assert_eq!(bus.counter("wal_flush"), 1);
    }
}
