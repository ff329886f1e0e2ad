//! Object replication: read-one / write-all-available over 2PC.
//!
//! The paper (§2) notes that "the availability of objects can be
//! increased by replicating them and storing them in more than one
//! object store. Replicated objects must be managed through appropriate
//! replica-consistency protocols." This module provides that substrate
//! for the simulated distributed system:
//!
//! * a **write** updates every *available* (up) replica atomically via
//!   two-phase commit, bumping a version counter;
//! * a **read** is served by any single up-to-date replica;
//! * a **recovering** replica marks its copies stale and pulls current
//!   state from its peers before serving reads again.

use std::collections::BTreeMap;

use chroma_base::{NodeId, ObjectId};
use chroma_obs::{EventKind, Obs};
use chroma_store::{codec, StoreBytes};

use crate::msg::{TxnId, Write};
use crate::node::RETRY_INTERVAL;
use crate::sim::Sim;

/// A replicated object: one logical object stored at several nodes.
///
/// # Examples
///
/// ```
/// use chroma_base::ObjectId;
/// use chroma_dist::{ReplicatedObject, Sim};
///
/// let mut sim = Sim::new(7);
/// let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
/// let replica = ReplicatedObject::create(&mut sim, ObjectId::from_raw(1), &nodes, b"v0");
/// replica.write(&mut sim, b"v1");
/// sim.run_to_quiescence();
/// let (version, state) = replica.read(&sim).expect("available");
/// assert_eq!(version, 1);
/// assert_eq!(&state[..], b"v1");
/// ```
#[derive(Clone, Debug)]
pub struct ReplicatedObject {
    object: ObjectId,
    members: Vec<NodeId>,
}

impl ReplicatedObject {
    /// Creates a replicated object with an initial state at every
    /// member (version 0), each written through its host, and registers
    /// the peer sets used for pull-on-recover.
    pub fn create(cluster: &mut Sim, object: ObjectId, members: &[NodeId], initial: &[u8]) -> Self {
        for &member in members {
            cluster.act(member, |node| {
                node.write_versioned(object, 0, initial);
                Vec::new()
            });
        }
        register_peers(cluster, object, members);
        ReplicatedObject {
            object,
            members: members.to_vec(),
        }
    }

    /// Returns the logical object id.
    #[must_use]
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Returns the member nodes.
    #[must_use]
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Writes a new state to all *available* replicas atomically
    /// (write-all-available). Returns the transaction id, or `None` if
    /// no replica is up (the object is unavailable for writing).
    ///
    /// The new version is one above the highest version among up
    /// replicas; run the simulation to quiescence for the write to
    /// settle.
    pub fn write(&self, cluster: &mut Sim, state: &[u8]) -> Option<TxnId> {
        let up = up_members(cluster, &self.members);
        let coordinator = *up.first()?;
        let version = self.versions(cluster).iter().map(|&(_, v)| v).max();
        let version = version.unwrap_or(0) + 1;
        // Attribute the write to the coordinating replica so the trace
        // shows which node drove the 2PC round.
        let obs = cluster.obs().at_node(coordinator);
        let mut plan = BTreeMap::new();
        plan_write(&obs, &mut plan, self.object, version, state, &up);
        Some(cluster.begin_transaction(coordinator, plan.into_iter().collect()))
    }

    /// Reads from any single up, non-stale replica (read-one),
    /// preferring the freshest available copy. Returns `None` if no
    /// such replica exists (the object is unavailable).
    #[must_use]
    pub fn read(&self, cluster: &Sim) -> Option<(u64, StoreBytes)> {
        read_freshest(cluster, self.object, &self.members)
    }

    /// Returns each up member's `(node, version)` — for convergence
    /// assertions in tests.
    #[must_use]
    pub fn versions(&self, cluster: &Sim) -> Vec<(NodeId, u64)> {
        let read = |m: NodeId| cluster.node(m).read_versioned(self.object);
        let up = up_members(cluster, &self.members).into_iter();
        up.filter_map(|m| read(m).map(|(v, _)| (m, v))).collect()
    }

    /// Crashes `member` now and schedules its recovery after `downtime`
    /// µs; on recovery it will pull fresh state from peers.
    pub fn crash_member(&self, sim: &mut Sim, member: NodeId, downtime: u64) {
        sim.schedule_crash(member, 0);
        sim.schedule_recover(member, downtime.max(RETRY_INTERVAL));
    }
}

/// The up nodes among `members`, in member order.
pub(crate) fn up_members(cluster: &Sim, members: &[NodeId]) -> Vec<NodeId> {
    members
        .iter()
        .copied()
        .filter(|&m| cluster.node(m).up)
        .collect()
}

/// Registers `members` as `object`'s replica group: each member's peers
/// are the others, whom it pulls from on recovery.
pub(crate) fn register_peers(cluster: &mut Sim, object: ObjectId, members: &[NodeId]) {
    for &member in members {
        let peers = members.iter().copied().filter(|&m| m != member).collect();
        cluster.node_mut(member).replica_peers.insert(object, peers);
    }
}

/// Plans one write-all-available write: reports it as a `ReplicaWrite`
/// on `obs` and adds `object`'s `(version, state)` to each of the `up`
/// members' writes in `plan`. The caller picks version and coordinator.
pub(crate) fn plan_write(
    obs: &Obs,
    plan: &mut BTreeMap<NodeId, Vec<Write>>,
    object: ObjectId,
    version: u64,
    state: &[u8],
    up: &[NodeId],
) {
    obs.emit(EventKind::ReplicaWrite {
        object,
        version,
        fanout: up.len() as u64,
    });
    let bytes = codec::to_bytes(&(version, state.to_vec())).expect("versioned state encodes");
    let state = StoreBytes::from(bytes);
    for &node in up {
        plan.entry(node).or_default().push(Write {
            object,
            state: state.clone(),
        });
    }
}

/// Read-one over `members`, `object`'s replica homes: the freshest copy
/// among the up, non-stale ones, reported as a `ReplicaRead`. `None` if
/// no such copy exists (the object is unavailable).
pub(crate) fn read_freshest(
    cluster: &Sim,
    object: ObjectId,
    members: &[NodeId],
) -> Option<(u64, StoreBytes)> {
    let (member, version, state) = (up_members(cluster, members).into_iter())
        .filter(|&m| !cluster.node(m).stale.contains(&object))
        .filter_map(|m| {
            cluster
                .node(m)
                .read_versioned(object)
                .map(|(v, s)| (m, v, s))
        })
        .max_by_key(|&(_, version, _)| version)?;
    cluster.obs().emit(EventKind::ReplicaRead {
        node: member,
        object,
        version,
        // the filter above excludes stale copies; report the serving
        // copy's actual flag so a filtering bug is visible in the trace
        // rather than masked
        stale: cluster.node(member).stale.contains(&object),
    });
    Some((version, state))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o() -> ObjectId {
        ObjectId::from_raw(100)
    }

    #[test]
    fn writes_bump_versions_on_all_members() {
        let mut sim = Sim::new(11);
        let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
        let replica = ReplicatedObject::create(&mut sim, o(), &nodes, b"init");
        replica.write(&mut sim, b"one");
        sim.run_to_quiescence();
        replica.write(&mut sim, b"two");
        sim.run_to_quiescence();
        let versions = replica.versions(&sim);
        assert_eq!(versions.len(), 3);
        assert!(versions.iter().all(|&(_, v)| v == 2));
        assert_eq!(&replica.read(&sim).unwrap().1[..], b"two");
    }

    #[test]
    fn reads_survive_a_minority_crash() {
        let mut sim = Sim::new(12);
        let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
        let replica = ReplicatedObject::create(&mut sim, o(), &nodes, b"init");
        replica.write(&mut sim, b"v1");
        sim.run_to_quiescence();
        sim.schedule_crash(nodes[0], 0);
        sim.run_to_quiescence();
        let (version, state) = replica.read(&sim).expect("still available");
        assert_eq!(version, 1);
        assert_eq!(&state[..], b"v1");
    }

    #[test]
    fn recovering_replica_catches_up_before_serving() {
        let mut sim = Sim::new(13);
        let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
        let replica = ReplicatedObject::create(&mut sim, o(), &nodes, b"init");
        // Crash node 2, write while it is down, then recover it.
        sim.schedule_crash(nodes[2], 0);
        sim.run_to_quiescence();
        replica.write(&mut sim, b"missed");
        sim.run_to_quiescence();
        sim.schedule_recover(nodes[2], 0);
        sim.run_to_quiescence();
        // The recovered node converged to the latest version.
        let versions = replica.versions(&sim);
        assert!(versions.iter().all(|&(_, v)| v == 1), "{versions:?}");
        assert!(!sim.node(nodes[2]).stale.contains(&o()));
        assert_eq!(&replica.read(&sim).unwrap().1[..], b"missed");
    }

    #[test]
    fn unavailable_when_all_members_down() {
        let mut sim = Sim::new(14);
        let nodes = vec![sim.add_node(), sim.add_node()];
        let replica = ReplicatedObject::create(&mut sim, o(), &nodes, b"init");
        sim.schedule_crash(nodes[0], 0);
        sim.schedule_crash(nodes[1], 0);
        sim.run_to_quiescence();
        assert!(replica.read(&sim).is_none());
        assert!(replica.write(&mut sim, b"x").is_none());
    }

    #[test]
    fn writes_continue_during_member_downtime() {
        let mut sim = Sim::new(15);
        let nodes = vec![sim.add_node(), sim.add_node(), sim.add_node()];
        let replica = ReplicatedObject::create(&mut sim, o(), &nodes, b"init");
        replica.crash_member(&mut sim, nodes[1], 500_000);
        sim.run(10); // process the crash
        replica.write(&mut sim, b"while-down");
        sim.run_to_quiescence(); // includes the recovery + catch-up
        let versions = replica.versions(&sim);
        assert_eq!(versions.len(), 3);
        assert!(versions.iter().all(|&(_, v)| v == 1), "{versions:?}");
    }
}
