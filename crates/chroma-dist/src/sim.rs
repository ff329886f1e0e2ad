//! The deterministic discrete-event simulation.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use chroma_base::NodeId;
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::host::{Host, Report};
use crate::msg::{CorrId, Effect, Message, TimerTag, TxnId, Write};
use crate::node::Node;
use crate::transport::{Transport, TransportEvent};
use crate::wire;

/// Network behaviour knobs (the paper's §2 failure model: messages may
/// be lost, duplicated or delayed).
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Probability a message is silently dropped.
    pub loss: f64,
    /// Probability a message is delivered twice.
    pub duplication: f64,
    /// Minimum delivery delay (simulated µs).
    pub delay_min: u64,
    /// Maximum delivery delay (simulated µs).
    pub delay_max: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            loss: 0.0,
            duplication: 0.0,
            delay_min: 500,
            delay_max: 2_000,
        }
    }
}

/// A scheduled occurrence.
#[derive(Clone, Debug)]
enum Event {
    Deliver {
        from: NodeId,
        to: NodeId,
        /// The message in shared wire encoding ([`crate::wire`]): sim
        /// traffic goes through the same codec as TCP traffic, so codec
        /// bugs surface in deterministic tests too.
        payload: Vec<u8>,
        /// Correlation id pairing this delivery with its send event
        /// (duplicated deliveries share the original's).
        corr: CorrId,
        /// The sender's Lamport clock at send time, merged into the
        /// receiver's clock on delivery.
        send_lc: u64,
    },
    Timer {
        node: NodeId,
        tag: TimerTag,
    },
    Crash {
        node: NodeId,
    },
    Recover {
        node: NodeId,
    },
}

/// Counters describing what the network did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered (duplicates counted).
    pub delivered: u64,
    /// Messages dropped by loss injection or because the target was
    /// down.
    pub dropped: u64,
    /// Extra deliveries created by duplication injection.
    pub duplicated: u64,
}

/// A deterministic simulation of fail-silent nodes on a lossy network.
///
/// All randomness (delays, loss, duplication) flows from one seeded RNG:
/// the same seed and the same call sequence replay the same history,
/// which is what makes protocol fault-injection tests debuggable.
///
/// Each node runs in its own [`Host`], as in `chroma-node`, and only
/// through it: a delivery or timer is a batch of one event, and a
/// recovery, [`Sim::begin_transaction`] and [`Sim::rpc`] are local
/// actions ([`Host::act`]).
///
/// # Examples
///
/// ```
/// use chroma_base::{NodeId, ObjectId};
/// use chroma_dist::{Sim, Write};
/// use chroma_store::StoreBytes;
///
/// let mut sim = Sim::new(42);
/// let (a, b) = (sim.add_node(), sim.add_node());
/// let o = ObjectId::from_raw(1);
/// let txn = sim.begin_transaction(
///     a,
///     vec![(b, vec![Write { object: o, state: StoreBytes::from(vec![7]) }])],
/// );
/// sim.run_to_quiescence();
/// assert_eq!(sim.coordinator_outcome(a, txn), Some(true));
/// assert_eq!(sim.node(b).read(o).as_deref(), Some(&[7u8][..]));
/// ```
#[derive(Debug)]
pub struct Sim {
    now: u64,
    seq: u64,
    /// Pending events by (time, sequence number): ties at one instant
    /// run in the order they were scheduled.
    queue: BTreeMap<(u64, u64), Event>,
    rng: StdRng,
    /// Every node, each run by its own [`Host`].
    hosts: BTreeMap<NodeId, Host>,
    /// What the hosts reported, not yet taken.
    reports: Vec<(NodeId, Report)>,
    next_node: u32,
    next_txn: u64,
    /// Correlation ids, one per logical send (duplicates share it).
    next_corr: CorrId,
    /// Network behaviour; adjust freely between runs.
    pub net: NetConfig,
    stats: NetStats,
    /// Severed links (unordered pairs): messages between these nodes are
    /// dropped until the partition heals.
    partitions: BTreeSet<(NodeId, NodeId)>,
    /// Observability handle; stamped with simulated time each step.
    obs: ObsCell,
}

impl Sim {
    /// Creates a simulation with the given RNG seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Sim {
            now: 0,
            seq: 0,
            queue: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
            hosts: BTreeMap::new(),
            reports: Vec::new(),
            next_node: 0,
            next_txn: 1,
            next_corr: CorrId::MIN,
            net: NetConfig::default(),
            stats: NetStats::default(),
            partitions: BTreeSet::new(),
            obs: ObsCell::new(),
        }
    }

    fn sync_time(&self) {
        let obs = self.obs();
        if let Some(bus) = obs.bus() {
            bus.set_time_us(self.now);
        }
    }

    /// The simulation's observability handle (inert until
    /// [`Observable::install_obs`]) — lets protocols layered on top of
    /// the simulation (replica groups, the partitioned backend) emit
    /// into the same simulated-time trace.
    #[must_use]
    pub fn obs(&self) -> Obs {
        self.obs.get().clone()
    }

    /// Severs the link between `a` and `b` (both directions): messages
    /// between them are dropped until [`Sim::heal_partition`].
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert(Self::link(a, b));
    }

    /// Restores the link between `a` and `b`.
    pub fn heal_partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&Self::link(a, b));
    }

    /// Severs every link between the `left` group and the rest of the
    /// nodes (a clean network split).
    pub fn partition_group(&mut self, left: &[NodeId]) {
        let right: Vec<NodeId> = self
            .node_ids()
            .into_iter()
            .filter(|n| !left.contains(n))
            .collect();
        for &a in left {
            for &b in &right {
                self.partition(a, b);
            }
        }
    }

    /// Heals every partition.
    pub fn heal_all(&mut self) {
        self.partitions.clear();
    }

    fn link(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_raw(self.next_node);
        self.next_node += 1;
        let node = Node::new(id);
        let obs = self.obs();
        if obs.enabled() {
            node.install_obs(obs);
        }
        self.hosts.insert(id, Host::new(node));
        id
    }

    /// Returns the current simulated time (µs).
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Returns the network counters.
    #[must_use]
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// Returns a reference to a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        self.hosts.get(&id).expect("unknown node").node()
    }

    /// Returns a mutable reference to a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        self.hosts.get_mut(&id).expect("unknown node").node_mut()
    }

    /// Returns the ids of all nodes, in order.
    #[must_use]
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.hosts.keys().copied().collect()
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    fn push(&mut self, at: u64, event: Event) {
        self.queue.insert((at, self.seq), event);
        self.seq += 1;
    }

    /// Schedules a crash of `node` after `delay` µs.
    pub fn schedule_crash(&mut self, node: NodeId, delay: u64) {
        self.push(self.now + delay, Event::Crash { node });
    }

    /// Schedules a recovery of `node` after `delay` µs.
    pub fn schedule_recover(&mut self, node: NodeId, delay: u64) {
        self.push(self.now + delay, Event::Recover { node });
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: Message) {
        self.stats.sent += 1;
        let kind = msg.kind();
        let corr = self.next_corr;
        self.next_corr = corr.saturating_add(1);
        // the send's Lamport clock travels with the message, so the
        // receive side can merge past it (untraced runs carry 0)
        let send_lc = self
            .obs()
            .emit_corr(corr, EventKind::MsgSend { from, to, kind })
            .map_or(0, |e| e.lc);
        if self.partitions.contains(&Self::link(from, to)) {
            self.stats.dropped += 1;
            self.obs()
                .emit_corr(corr, EventKind::MsgDrop { from, to, kind });
            return;
        }
        if self.rng.gen_bool(self.net.loss.clamp(0.0, 1.0)) {
            self.stats.dropped += 1;
            self.obs()
                .emit_corr(corr, EventKind::MsgDrop { from, to, kind });
            return;
        }
        let payload = wire::encode(&msg);
        let delay = self.rng.gen_range(self.net.delay_min..=self.net.delay_max);
        self.push(
            self.now + delay,
            Event::Deliver {
                from,
                to,
                payload: payload.clone(),
                corr,
                send_lc,
            },
        );
        if self.rng.gen_bool(self.net.duplication.clamp(0.0, 1.0)) {
            self.stats.duplicated += 1;
            self.obs()
                .emit_corr(corr, EventKind::MsgDup { from, to, kind });
            let delay = self.rng.gen_range(self.net.delay_min..=self.net.delay_max);
            self.push(
                self.now + delay,
                Event::Deliver {
                    from,
                    to,
                    payload,
                    corr,
                    send_lc,
                },
            );
        }
    }

    /// Runs `action` on `id`'s node as a local action of its host.
    pub(crate) fn act(&mut self, id: NodeId, action: impl FnOnce(&mut Node) -> Vec<Effect>) {
        self.drive(id, |host, view, report| host.act(view, action, report));
    }

    /// Runs `f` on `id`'s host over its [`SimTransport`] view (the host
    /// leaves the map meanwhile, so the view can borrow the simulation)
    /// and keeps what it reports.
    fn drive(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut Host, &mut SimTransport<'_>, &mut dyn FnMut(&[Report])),
    ) {
        let mut host = self.hosts.remove(&id).expect("unknown node");
        let mut view = SimTransport { sim: self, id };
        let mut reports = Vec::new();
        f(&mut host, &mut view, &mut |batch: &[Report]| {
            reports.extend(batch.iter().map(|r| (id, r.clone())));
        });
        self.hosts.insert(id, host);
        self.reports.extend(reports);
    }

    /// Processes the next event, or wakes the host whose
    /// [`Host::wakeup_us`] comes before it; returns `false` when
    /// neither is left.
    pub fn step(&mut self) -> bool {
        let next = self.queue.first_key_value().map(|(&(at, _), _)| at);
        let wake = (self.hosts.iter())
            .filter_map(|(&id, host)| Some((host.wakeup_us()?, id)))
            .min();
        if let Some((at, id)) = wake.filter(|&(at, _)| next.is_none_or(|next| at < next)) {
            self.now = at;
            self.sync_time();
            self.drive(id, |host, view, report| host.advance(view, report));
            return true;
        }
        let Some(((at, _), event)) = self.queue.pop_first() else {
            return false;
        };
        self.now = at;
        self.sync_time();
        let (id, event) = match event {
            Event::Deliver {
                from,
                to,
                payload,
                corr,
                send_lc,
            } => {
                let msg = wire::decode(&payload).expect("sim frames use the shared wire codec");
                let kind = msg.kind();
                let obs = self.obs();
                let Some(node) = self.hosts.get(&to).map(Host::node) else {
                    return true;
                };
                if !node.up {
                    self.stats.dropped += 1;
                    obs.emit_corr(corr, EventKind::MsgDrop { from, to, kind });
                    return true;
                }
                self.stats.delivered += 1;
                let deliver = TransportEvent::Deliver {
                    from,
                    msg,
                    corr,
                    send_lc,
                };
                (to, deliver)
            }
            Event::Timer { node: id, tag } => {
                if !self.hosts.get(&id).is_some_and(|host| host.node().up) {
                    return true;
                }
                (id, TransportEvent::Timer { tag })
            }
            Event::Crash { node: id } => {
                if let Some(node) = self.hosts.get_mut(&id).map(Host::node_mut) {
                    let was_up = node.up;
                    node.crash();
                    if was_up {
                        self.obs().emit(EventKind::NodeCrash { node: id });
                    }
                }
                return true;
            }
            Event::Recover { node: id } => {
                if self.hosts.get(&id).is_some_and(|host| !host.node().up) {
                    let obs = self.obs();
                    self.act(id, |node| {
                        let effects = node.recover();
                        obs.emit(EventKind::NodeRecover { node: id });
                        effects
                    });
                }
                return true;
            }
        };
        // one event per batch: a seeded run stays a function of its seed
        self.drive(id, |host, view, report| host.handle(view, [event], report));
        true
    }

    /// Runs until the event queue drains or `max_events` is exceeded.
    /// Returns the number of events processed.
    pub fn run(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while processed < max_events && self.step() {
            processed += 1;
        }
        processed
    }

    /// Runs until quiescence with a generous safety bound.
    ///
    /// # Panics
    ///
    /// Panics if the system fails to quiesce within the bound (a
    /// protocol livelock — a test failure worth loud reporting).
    pub fn run_to_quiescence(&mut self) {
        const BOUND: u64 = 2_000_000;
        let processed = self.run(BOUND);
        assert!(
            processed < BOUND,
            "simulation did not quiesce within {BOUND} events"
        );
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Starts a distributed transaction coordinated by `coordinator`;
    /// `writes` lists `(participant, writes)` pairs. Returns the
    /// transaction id.
    pub fn begin_transaction(
        &mut self,
        coordinator: NodeId,
        writes: Vec<(NodeId, Vec<Write>)>,
    ) -> TxnId {
        let txn = TxnId(self.next_txn);
        self.next_txn += 1;
        self.act(coordinator, |node| node.begin_transaction(txn, writes));
        txn
    }

    /// Makes `coordinator` run the process coordinator's schedule of
    /// `txns` transactions ([`Host::coordinate`], with the next `txns`
    /// ids [`Sim::begin_transaction`] would have used) and begins it;
    /// its reports wait in [`Sim::take_reports`].
    pub fn schedule_transactions(
        &mut self,
        coordinator: NodeId,
        participants: Vec<NodeId>,
        txns: u64,
        seed: u64,
    ) {
        let first = self.next_txn;
        self.next_txn += txns;
        let host = self.hosts.get_mut(&coordinator).expect("unknown node");
        host.coordinate(participants, first..=first + txns - 1, seed);
        self.drive(coordinator, |host, view, report| host.advance(view, report));
    }

    /// Takes what the hosts reported since the last call, in order,
    /// each with the node that reported it.
    pub fn take_reports(&mut self) -> Vec<(NodeId, Report)> {
        std::mem::take(&mut self.reports)
    }

    /// Returns the coordinator's decision for `txn`, if reached.
    #[must_use]
    pub fn coordinator_outcome(&self, coordinator: NodeId, txn: TxnId) -> Option<bool> {
        self.node(coordinator).coordinator_outcome(txn)
    }

    /// Starts an at-most-once RPC from `client` to `server`. Returns
    /// the call id (poll via [`Node::rpc_reply`] on the client).
    pub fn rpc(&mut self, client: NodeId, server: NodeId, op: &crate::node::RpcOp) -> u64 {
        let mut call = 0;
        self.act(client, |node| {
            let (id, effects) = node.rpc_call(server, op);
            call = id;
            effects
        });
        call
    }
}

/// One node's [`Transport`] view of a [`Sim`]: the simulator side of
/// the trait [`TcpTransport`](crate::TcpTransport) implements with real
/// sockets. Sends enter the seeded lossy network, timers join the event
/// queue, connect and disconnect heal and sever partitions.
///
/// Push-driven: the scheduler hands deliveries and timers to the
/// node's [`Host`] itself, so [`poll`](Transport::poll) always returns
/// `None`.
#[derive(Debug)]
pub(crate) struct SimTransport<'a> {
    sim: &'a mut Sim,
    id: NodeId,
}

impl Transport for SimTransport<'_> {
    fn local(&self) -> NodeId {
        self.id
    }

    fn obs(&self) -> Obs {
        self.sim.obs()
    }

    fn now_us(&self) -> u64 {
        self.sim.now
    }

    fn send(&mut self, to: NodeId, msg: Message) {
        self.sim.send(self.id, to, msg);
    }

    fn set_timer(&mut self, delay_us: u64, tag: TimerTag) {
        let at = self.sim.now + delay_us;
        self.sim.push(at, Event::Timer { node: self.id, tag });
    }

    fn connect(&mut self, peer: NodeId) {
        self.sim.heal_partition(self.id, peer);
    }

    fn disconnect(&mut self, peer: NodeId) {
        self.sim.partition(self.id, peer);
    }

    fn poll(&mut self, _timeout: Option<Duration>) -> Option<TransportEvent> {
        None
    }
}

impl Observable for Sim {
    /// Installs a shared observability handle: every node (current and
    /// future) emits through it, and the simulation stamps its events
    /// with simulated time and reports network and crash activity.
    fn install_obs(&self, obs: Obs) {
        for host in self.hosts.values() {
            host.node().install_obs(obs.clone());
        }
        self.obs.set(obs);
        self.sync_time();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chroma_base::ObjectId;
    use chroma_store::StoreBytes;

    fn write(n: u64, v: u8) -> Write {
        Write {
            object: ObjectId::from_raw(n),
            state: StoreBytes::from(vec![v]),
        }
    }

    #[test]
    fn clean_commit_installs_everywhere() {
        let mut sim = Sim::new(1);
        let a = sim.add_node();
        let b = sim.add_node();
        let c = sim.add_node();
        let txn = sim.begin_transaction(
            a,
            vec![
                (b, vec![write(1, 10)]),
                (c, vec![write(2, 20)]),
                (a, vec![write(3, 30)]),
            ],
        );
        sim.run_to_quiescence();
        assert_eq!(sim.coordinator_outcome(a, txn), Some(true));
        assert_eq!(
            sim.node(b).read(ObjectId::from_raw(1)).as_deref(),
            Some(&[10u8][..])
        );
        assert_eq!(
            sim.node(c).read(ObjectId::from_raw(2)).as_deref(),
            Some(&[20u8][..])
        );
        assert_eq!(
            sim.node(a).read(ObjectId::from_raw(3)).as_deref(),
            Some(&[30u8][..])
        );
    }

    #[test]
    fn veto_aborts_and_installs_nothing() {
        let mut sim = Sim::new(2);
        let a = sim.add_node();
        let b = sim.add_node();
        // b will vote no on the first transaction (TxnId(1)).
        sim.node_mut(b).veto.insert(TxnId(1));
        let txn = sim.begin_transaction(a, vec![(a, vec![write(1, 1)]), (b, vec![write(2, 2)])]);
        sim.run_to_quiescence();
        assert_eq!(sim.coordinator_outcome(a, txn), None); // presumed abort
        assert!(sim.node(a).read(ObjectId::from_raw(1)).is_none());
        assert!(sim.node(b).read(ObjectId::from_raw(2)).is_none());
    }

    #[test]
    fn commit_survives_message_loss() {
        let mut sim = Sim::new(3);
        sim.net.loss = 0.3;
        sim.net.duplication = 0.2;
        let a = sim.add_node();
        let b = sim.add_node();
        let txn = sim.begin_transaction(a, vec![(b, vec![write(1, 9)])]);
        sim.run_to_quiescence();
        // With retries the transaction reaches a decision; if prepare
        // never got through it aborted — either way both sides agree.
        match sim.coordinator_outcome(a, txn) {
            Some(true) => assert_eq!(
                sim.node(b).read(ObjectId::from_raw(1)).as_deref(),
                Some(&[9u8][..])
            ),
            _ => assert!(sim.node(b).read(ObjectId::from_raw(1)).is_none()),
        }
        assert!(!sim.node(b).in_doubt(txn));
    }

    #[test]
    fn rpc_round_trip_with_duplication() {
        let mut sim = Sim::new(4);
        sim.net.duplication = 0.5;
        sim.net.loss = 0.2;
        let client = sim.add_node();
        let server = sim.add_node();
        let call = sim.rpc(client, server, &crate::node::RpcOp::Put(7, vec![1, 2]));
        sim.run_to_quiescence();
        assert!(sim.node(client).rpc_reply(call).is_some());
        // At-most-once: despite duplicates, exactly one execution.
        assert_eq!(sim.node(server).rpc_executed(), 1);
        assert_eq!(
            sim.node(server).read(ObjectId::from_raw(7)).as_deref(),
            Some(&[1u8, 2][..])
        );
    }

    #[test]
    fn determinism_same_seed_same_history() {
        let run = |seed: u64| {
            let mut sim = Sim::new(seed);
            sim.net.loss = 0.2;
            let a = sim.add_node();
            let b = sim.add_node();
            let txn = sim.begin_transaction(a, vec![(b, vec![write(1, 5)])]);
            sim.run_to_quiescence();
            (sim.coordinator_outcome(a, txn), sim.net_stats(), sim.now())
        };
        assert_eq!(run(99), run(99));
    }
}
