//! The distributed permanence backend: the paper's planned
//! "distributed version".
//!
//! A [`PartitionedStore`] spreads object states over a set of simulated
//! fail-silent nodes, `replication` copies each. It implements
//! [`PermanenceBackend`], so a [`chroma_core::Runtime`] built with
//! `Runtime::builder().backend(..)` gets
//! *distributed* permanence of effect: every outermost-coloured commit
//! becomes a presumed-abort two-phase commit across the object stores
//! holding the written objects' replicas, atomic despite message loss,
//! duplication and node crashes.
//!
//! Reads are served by the freshest reachable, non-stale replica
//! (version-stamped states); recovering nodes pull current states from
//! their peers before serving again. With every replica of some written
//! object down, a commit reports
//! [`BackendError::Unavailable`] and the runtime keeps the action
//! active so the commit can be retried after recovery — permanence is
//! never silently dropped.

use std::collections::BTreeMap;

use chroma_base::{NodeId, ObjectId};
use chroma_core::{BackendError, PermanenceBackend};
use chroma_obs::Observable;
use chroma_store::StoreBytes;
use parking_lot::Mutex;

use crate::node::RETRY_INTERVAL;
use crate::replica::{plan_write, read_freshest, register_peers, up_members};
use crate::sim::{NetConfig, Sim};

/// How many coordinators a commit tries before reporting
/// unavailability.
const COMMIT_ATTEMPTS: usize = 3;

#[derive(Debug)]
struct PartitionedInner {
    sim: Sim,
    nodes: Vec<NodeId>,
    replication: usize,
    next_version: u64,
}

/// Object states partitioned and replicated over simulated nodes, with
/// two-phase-commit installation.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use chroma_core::{Runtime, RuntimeConfig};
/// use chroma_dist::PartitionedStore;
///
/// # fn main() -> Result<(), chroma_core::ActionError> {
/// let store = Arc::new(PartitionedStore::new(42, 3, 2));
/// let rt = Runtime::builder()
///     .config(RuntimeConfig::default())
///     .backend(store.clone())
///     .build();
///
/// let account = rt.create_object(&100i64)?;
/// rt.atomic(|a| a.modify(account, |b: &mut i64| *b -= 30))?;
///
/// // One storage node crashes; committed state stays readable.
/// store.crash_node(0);
/// assert_eq!(rt.read_committed::<i64>(account)?, 70);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PartitionedStore {
    inner: Mutex<PartitionedInner>,
}

impl PartitionedStore {
    /// Creates a store of `node_count` simulated nodes with
    /// `replication` copies of every object (clamped to `node_count`),
    /// on a reliable network.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero.
    #[must_use]
    pub fn new(seed: u64, node_count: usize, replication: usize) -> Self {
        Self::with_net(seed, node_count, replication, NetConfig::default())
    }

    /// Creates a store whose internal network loses/duplicates/delays
    /// messages per `net` — the commit protocol masks these failures.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero.
    #[must_use]
    pub fn with_net(seed: u64, node_count: usize, replication: usize, net: NetConfig) -> Self {
        assert!(node_count > 0, "a partitioned store needs nodes");
        let mut sim = Sim::new(seed);
        sim.net = net;
        let nodes: Vec<NodeId> = (0..node_count).map(|_| sim.add_node()).collect();
        PartitionedStore {
            inner: Mutex::new(PartitionedInner {
                sim,
                nodes,
                replication: replication.clamp(1, node_count),
                next_version: 1,
            }),
        }
    }

    /// Returns the number of storage nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.inner.lock().nodes.len()
    }

    /// Returns how many storage nodes are currently up.
    #[must_use]
    pub fn up_count(&self) -> usize {
        let inner = self.inner.lock();
        up_members(&inner.sim, &inner.nodes).len()
    }

    /// Crashes storage node `index` (volatile state lost; its replica
    /// copies go stale until it recovers and catches up).
    pub fn crash_node(&self, index: usize) {
        let mut inner = self.inner.lock();
        let node = inner.nodes[index];
        inner.sim.schedule_crash(node, 0);
        inner.sim.run_to_quiescence();
    }

    /// Recovers storage node `index`: replays its stable store, resumes
    /// in-doubt transactions, pulls fresh replica states from peers.
    pub fn recover_node(&self, index: usize) {
        let mut inner = self.inner.lock();
        let node = inner.nodes[index];
        inner.sim.schedule_recover(node, RETRY_INTERVAL);
        inner.sim.run_to_quiescence();
    }

    /// The replica homes of `object`: `replication` consecutive nodes
    /// starting at a hash of the id.
    fn replicas_of(inner: &PartitionedInner, object: ObjectId) -> Vec<NodeId> {
        let n = inner.nodes.len();
        let start = (object.as_raw() as usize) % n;
        (0..inner.replication)
            .map(|k| inner.nodes[(start + k) % n])
            .collect()
    }
}

impl PermanenceBackend for PartitionedStore {
    fn commit_batch(&self, updates: Vec<(ObjectId, StoreBytes)>) -> Result<(), BackendError> {
        if updates.is_empty() {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        let version = inner.next_version;
        inner.next_version += 1;

        // Every attempt re-plans against the *current* up-set: a crash
        // processed during a previous attempt changes both the viable
        // write targets and the viable coordinators, and a stale plan
        // (writes aimed at dead participants, a dead coordinator) can
        // only abort again. Each attempt therefore burns on real 2PC
        // work, never on a coordinator already known to be down.
        for attempt in 0..COMMIT_ATTEMPTS {
            // Plan the per-node writes: each object goes to its *up*
            // replicas, version-stamped; down replicas catch up on
            // recovery via the pull protocol (peer registration happens
            // here; placement is fixed, so it never changes). Node
            // order, so the plan reaches the wire in an order the seed
            // fixes.
            let mut per_node = BTreeMap::new();
            for (object, state) in &updates {
                let replicas = Self::replicas_of(&inner, *object);
                register_peers(&mut inner.sim, *object, &replicas);
                let up = up_members(&inner.sim, &replicas);
                if up.is_empty() {
                    return Err(BackendError::Unavailable(format!(
                        "every replica of {object} is down"
                    )));
                }
                let obs = inner.sim.obs();
                plan_write(&obs, &mut per_node, *object, version, state, &up);
            }

            // The coordinator comes from the planned (hence up) nodes,
            // rotated by attempt so an aborting coordinator is not
            // immediately re-elected.
            let candidates: Vec<NodeId> = per_node.keys().copied().collect();
            let coordinator = candidates[attempt % candidates.len()];
            let txn = inner
                .sim
                .begin_transaction(coordinator, per_node.into_iter().collect());
            inner.sim.run_to_quiescence();
            if inner.sim.coordinator_outcome(coordinator, txn) == Some(true) {
                return Ok(());
            }
        }
        Err(BackendError::Unavailable(format!(
            "two-phase commit failed after {COMMIT_ATTEMPTS} attempts"
        )))
    }

    fn read(&self, object: ObjectId) -> Option<StoreBytes> {
        let inner = self.inner.lock();
        let replicas = Self::replicas_of(&inner, object);
        read_freshest(&inner.sim, object, &replicas).map(|(_, state)| state)
    }

    fn recover(&self) {
        let mut inner = self.inner.lock();
        let down: Vec<NodeId> = inner
            .nodes
            .iter()
            .copied()
            .filter(|&n| !inner.sim.node(n).up)
            .collect();
        for node in down {
            inner.sim.schedule_recover(node, RETRY_INTERVAL);
        }
        inner.sim.run_to_quiescence();
    }
}

impl Observable for PartitionedStore {
    fn install_obs(&self, obs: chroma_obs::Obs) {
        // Thread the caller's handle into the internal simulation so
        // the backend's 2PC, replica-install and catch-up events land
        // in the same trace as the runtime's. Note this switches the
        // bus clock to simulated time.
        self.inner.lock().sim.install_obs(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(v: u8) -> StoreBytes {
        StoreBytes::from(vec![v])
    }

    #[test]
    fn commit_and_read_round_trip() {
        let store = PartitionedStore::new(1, 3, 2);
        let o = ObjectId::from_raw(7);
        store.commit_batch(vec![(o, bytes(1))]).unwrap();
        assert_eq!(store.read(o).as_deref(), Some(&[1u8][..]));
        store.commit_batch(vec![(o, bytes(2))]).unwrap();
        assert_eq!(store.read(o).as_deref(), Some(&[2u8][..]));
    }

    #[test]
    fn survives_minority_crash() {
        let store = PartitionedStore::new(2, 3, 3);
        let o = ObjectId::from_raw(1);
        store.commit_batch(vec![(o, bytes(9))]).unwrap();
        store.crash_node(0);
        assert_eq!(store.read(o).as_deref(), Some(&[9u8][..]));
        // Writes continue against the available copies.
        store.commit_batch(vec![(o, bytes(10))]).unwrap();
        assert_eq!(store.read(o).as_deref(), Some(&[10u8][..]));
        // The crashed node recovers and catches up.
        store.recover_node(0);
        assert_eq!(store.read(o).as_deref(), Some(&[10u8][..]));
        assert_eq!(store.up_count(), 3);
    }

    #[test]
    fn unavailable_when_all_replicas_down() {
        let store = PartitionedStore::new(3, 2, 2);
        let o = ObjectId::from_raw(1);
        store.commit_batch(vec![(o, bytes(1))]).unwrap();
        store.crash_node(0);
        store.crash_node(1);
        assert!(store.read(o).is_none());
        let err = store.commit_batch(vec![(o, bytes(2))]).unwrap_err();
        assert!(matches!(err, BackendError::Unavailable(_)));
        // Recovery restores service and the committed state.
        store.recover();
        assert_eq!(store.read(o).as_deref(), Some(&[1u8][..]));
        store.commit_batch(vec![(o, bytes(2))]).unwrap();
        assert_eq!(store.read(o).as_deref(), Some(&[2u8][..]));
    }

    #[test]
    fn retry_survives_lowest_id_coordinators_crashing() {
        use crate::msg::TxnId;
        // Replication 3 on 3 nodes: object 0's replicas are all nodes,
        // sorted candidate order n0, n1, n2.
        let store = PartitionedStore::new(6, 3, 3);
        let o = ObjectId::from_raw(0);
        {
            let mut inner = store.inner.lock();
            let (n0, n1, n2) = (inner.nodes[0], inner.nodes[1], inner.nodes[2]);
            // n0 and n1 die at t=0, *during* the first attempt (the
            // crashes are queued, not yet processed, so the first plan
            // still sees them up and elects n0 coordinator). n2 vetoes
            // the first transaction so it votes no without logging
            // `Prepared` against the dead coordinator.
            inner.sim.schedule_crash(n0, 0);
            inner.sim.schedule_crash(n1, 0);
            inner.sim.node_mut(n2).veto.insert(TxnId(1));
        }
        // The first attempt aborts. The retry must re-plan from the
        // survivors and elect an up coordinator instead of burning the
        // remaining attempts on the crashed low-id candidates.
        store.commit_batch(vec![(o, bytes(9))]).unwrap();
        assert_eq!(store.read(o).as_deref(), Some(&[9u8][..]));
        assert_eq!(store.up_count(), 1);
    }

    #[test]
    fn commits_mask_message_loss() {
        let store = PartitionedStore::with_net(
            4,
            3,
            2,
            NetConfig {
                loss: 0.25,
                duplication: 0.25,
                ..NetConfig::default()
            },
        );
        for i in 0..10u64 {
            let o = ObjectId::from_raw(i);
            store.commit_batch(vec![(o, bytes(i as u8))]).unwrap();
            assert_eq!(store.read(o).as_deref(), Some(&[i as u8][..]));
        }
    }

    #[test]
    fn batch_is_atomic_across_partitions() {
        let store = PartitionedStore::new(5, 4, 2);
        let objects: Vec<ObjectId> = (0..8).map(ObjectId::from_raw).collect();
        let updates: Vec<(ObjectId, StoreBytes)> = objects.iter().map(|&o| (o, bytes(3))).collect();
        store.commit_batch(updates).unwrap();
        for &o in &objects {
            assert_eq!(store.read(o).as_deref(), Some(&[3u8][..]));
        }
    }
}
