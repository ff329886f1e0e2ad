//! A generic crash-surviving append-only log.

use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use parking_lot::Mutex;

/// An append-only log that lives on a node's stable storage.
///
/// Used by the distributed commit protocol for prepare and decision
/// records: a participant that logged `Prepared` before crashing must be
/// able to rediscover its obligation on recovery. In the simulation,
/// "stable" simply means a node crash never clears this structure —
/// contrast [`VolatileStore::crash`](crate::VolatileStore::crash).
///
/// # Examples
///
/// ```
/// use chroma_store::DurableLog;
///
/// let log: DurableLog<&str> = DurableLog::new();
/// log.append("prepared t1");
/// log.append("commit t1");
/// assert_eq!(log.entries(), vec!["prepared t1", "commit t1"]);
/// ```
#[derive(Debug)]
pub struct DurableLog<T> {
    records: Mutex<Vec<T>>,
    obs: ObsCell,
}

impl<T> Default for DurableLog<T> {
    fn default() -> Self {
        DurableLog {
            records: Mutex::new(Vec::new()),
            obs: ObsCell::new(),
        }
    }
}

impl<T> DurableLog<T> {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        DurableLog::default()
    }

    /// Appends a record; the append is atomic and durable.
    pub fn append(&self, record: T) {
        self.records.lock().push(record);
        self.obs.get().emit(EventKind::WalAppend { records: 1 });
    }

    /// Returns the number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// Returns `true` if the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.lock().is_empty()
    }

    /// Truncates the log (all obligations recorded in it are resolved).
    pub fn truncate(&self) {
        self.records.lock().clear();
    }

    /// Removes the records for which `keep` returns `false`.
    pub fn retain(&self, keep: impl FnMut(&T) -> bool) {
        self.records.lock().retain(keep);
    }
}

impl<T> Observable for DurableLog<T> {
    /// Installs an observability handle; appends emit `WalAppend`.
    fn install_obs(&self, obs: Obs) {
        self.obs.set(obs);
    }
}

impl<T: Clone> DurableLog<T> {
    /// Returns a snapshot of all records in append order.
    #[must_use]
    pub fn entries(&self) -> Vec<T> {
        self.records.lock().clone()
    }

    /// Returns a snapshot of the records from index `from` on, in
    /// append order — empty if `from` is at or past the end.
    #[must_use]
    pub fn entries_from(&self, from: usize) -> Vec<T> {
        self.records
            .lock()
            .get(from..)
            .map_or_else(Vec::new, <[T]>::to_vec)
    }

    /// Returns the most recent record matching `pred`, if any.
    #[must_use]
    pub fn rfind(&self, pred: impl FnMut(&&T) -> bool) -> Option<T> {
        self.records.lock().iter().rev().find(pred).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_preserves_order() {
        let log = DurableLog::new();
        log.append(1);
        log.append(2);
        log.append(3);
        assert_eq!(log.entries(), vec![1, 2, 3]);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn entries_from_returns_the_suffix() {
        let log = DurableLog::new();
        log.append(1);
        log.append(2);
        log.append(3);
        assert_eq!(log.entries_from(0), vec![1, 2, 3]);
        assert_eq!(log.entries_from(2), vec![3]);
        assert!(log.entries_from(3).is_empty());
        assert!(log.entries_from(9).is_empty());
    }

    #[test]
    fn rfind_finds_latest_match() {
        let log = DurableLog::new();
        log.append(("t1", "prepared"));
        log.append(("t1", "commit"));
        let last = log.rfind(|(txn, _)| *txn == "t1").unwrap();
        assert_eq!(last.1, "commit");
    }

    #[test]
    fn retain_and_truncate() {
        let log = DurableLog::new();
        log.append(1);
        log.append(2);
        log.retain(|&r| r > 1);
        assert_eq!(log.entries(), vec![2]);
        log.truncate();
        assert!(log.is_empty());
    }
}
