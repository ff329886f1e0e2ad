//! The one driver around a [`Node`], which the simulator and the
//! `chroma-node` process both run. A [`Host`] is sans-IO: its driver
//! hands it a batch of ready [`TransportEvent`]s with the [`Transport`]
//! the node's effects leave on, and it reads time only through
//! [`Transport::now_us`], so the seeded [`Sim`](crate::Sim) can wake it
//! at [`Host::wakeup_us`] in simulated time. The host runs every
//! handler of the batch, then one [`Node::barrier`], then releases all
//! their effects together: no effect leaves before the barrier that
//! made its cause durable. [`Report`]s reach the driver through a
//! callback, once per batch and before the batch's effects leave: a
//! transaction's [`Report::Begin`] goes out before its prepares do.

use std::ops::{Range, RangeInclusive};

use chroma_base::{NodeId, ObjectId};
use chroma_store::StoreBytes;

use crate::msg::{Effect, TxnId, Write};
use crate::node::Node;
use crate::transport::{handle_event, Transport, TransportEvent};

/// How long a schedule waits for a transaction, in µs of
/// [`Transport::now_us`]: one still undecided at its deadline is
/// reported as an abort, and one decided but not yet acknowledged by
/// every participant stops holding the schedule open.
pub const TXN_DEADLINE_US: u64 = 30_000_000;

/// The object scheduled transaction `txn` writes: above a co-hosted
/// `Runtime`'s ids, below the 2PC table's [`TPC_LOG_BASE`](crate::TPC_LOG_BASE).
#[must_use]
pub fn txn_object(txn: u64) -> ObjectId {
    ObjectId::from_raw(1_000 + txn)
}

/// The bytes scheduled transaction `txn` installs at [`txn_object`].
#[must_use]
pub fn txn_value(seed: u64, txn: u64) -> Vec<u8> {
    format!("v{txn}-s{seed}").into_bytes()
}

/// What a [`Host`] tells its driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Report {
    /// The schedule began a transaction.
    Begin(TxnId),
    /// A transaction reached its commit point, or its deadline while
    /// still undecided: `true` once the barrier that made its
    /// coordinator's commit record durable has run. Its participants
    /// may not have installed it yet; the schedule keeps serving until
    /// they acknowledge or the deadline passes.
    Outcome(TxnId, bool),
    /// The masking layer lost these frames from this peer for good
    /// ([`TransportEvent::Gap`]).
    Gap(NodeId, Range<u64>),
}

/// A coordinator's schedule.
#[derive(Debug)]
struct Schedule {
    participants: Vec<NodeId>,
    seed: u64,
    /// The transactions still to begin.
    txns: RangeInclusive<u64>,
    /// The transaction not yet decided, and its deadline.
    deciding: Option<(TxnId, u64)>,
    /// Decided transactions whose coordinator still waits for acks,
    /// each with its deadline.
    ending: Vec<(TxnId, u64)>,
}

/// One [`Node`] and, for a coordinator, its transaction schedule.
#[derive(Debug)]
pub struct Host {
    node: Node,
    schedule: Option<Schedule>,
}

impl Host {
    /// Hosts `node` with no schedule, as a worker.
    #[must_use]
    pub fn new(node: Node) -> Self {
        Host {
            node,
            schedule: None,
        }
    }

    /// The hosted node.
    #[must_use]
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// The hosted node, for fault injection, crash and recovery.
    pub(crate) fn node_mut(&mut self) -> &mut Node {
        &mut self.node
    }

    /// Makes the host coordinate the transactions `txns` in order, each
    /// writing [`txn_value`]`(seed, t)` at [`txn_object`]`(t)` on every
    /// participant and each given [`TXN_DEADLINE_US`]. One transaction
    /// is undecided at a time: the next begins in the batch that
    /// reaches the commit point of the one before, so its prepares
    /// leave with that one's decisions. The first begins at the next
    /// [`Host::advance`]. The ids must be new to the node.
    pub fn coordinate(&mut self, participants: Vec<NodeId>, txns: RangeInclusive<u64>, seed: u64) {
        self.schedule = Some(Schedule {
            participants,
            seed,
            txns,
            deciding: None,
            ending: Vec::new(),
        });
    }

    /// The earliest deadline among the scheduled transactions not yet
    /// ended, at which the host must be woken if no event comes first;
    /// `None` once every one has ended or passed its deadline, and
    /// while the node is down.
    #[must_use]
    pub fn wakeup_us(&self) -> Option<u64> {
        let s = self.schedule.as_ref()?;
        let deadlines = s.deciding.iter().chain(&s.ending);
        let earliest = deadlines.map(|&(_, deadline)| deadline).min()?;
        self.node.up.then_some(earliest)
    }

    /// Feeds a batch of ready transport events to the node: runs each
    /// delivery's or timer's handler, then [`Node::barrier`] once (a
    /// batch of gaps alone runs none), then moves the schedule on;
    /// reports what happened, gaps included, and only then applies
    /// every effect of the batch in one [`Transport::apply_effects`].
    pub fn handle<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
        events: impl IntoIterator<Item = TransportEvent>,
        report: &mut dyn FnMut(&[Report]),
    ) {
        let mut reports = Vec::new();
        let mut effects = Vec::new();
        let mut handled = false;
        for event in events {
            match event {
                TransportEvent::Gap {
                    from,
                    expected,
                    got,
                } => reports.push(Report::Gap(from, expected..got)),
                event => {
                    effects.extend(handle_event(&mut self.node, &*transport, event));
                    handled = true;
                }
            }
        }
        if handled {
            self.node.barrier();
        }
        self.step_schedule(&*transport, &mut reports, &mut effects);
        if !reports.is_empty() {
            report(&reports);
        }
        if !effects.is_empty() {
            transport.apply_effects(effects);
        }
    }

    /// Moves the schedule on without an event: an empty
    /// [`Host::handle`].
    pub fn advance<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
        report: &mut dyn FnMut(&[Report]),
    ) {
        self.handle(transport, [], report);
    }

    /// After a barrier: reports the undecided transaction once its
    /// coordinator decided it or its deadline passed, then begins the
    /// next one; forgets decided transactions that ended or passed
    /// their deadline.
    fn step_schedule<T: Transport + ?Sized>(
        &mut self,
        transport: &T,
        reports: &mut Vec<Report>,
        effects: &mut Vec<Effect>,
    ) {
        let Some(s) = self.schedule.as_mut().filter(|_| self.node.up) else {
            return;
        };
        let now = transport.now_us();
        let node = &mut self.node;
        s.ending
            .retain(|&(txn, deadline)| now < deadline && node.coordinator_active(txn));
        if let Some((txn, deadline)) = s.deciding {
            let outcome = node.coordinator_outcome(txn);
            if outcome.is_none() && now < deadline {
                return;
            }
            s.deciding = None;
            reports.push(Report::Outcome(txn, outcome == Some(true)));
            if now < deadline && node.coordinator_active(txn) {
                s.ending.push((txn, deadline));
            }
        }
        let Some(txn) = s.txns.next().map(TxnId) else {
            return;
        };
        reports.push(Report::Begin(txn));
        let write = Write {
            object: txn_object(txn.0),
            state: StoreBytes::from(txn_value(s.seed, txn.0)),
        };
        let writes = s.participants.iter().map(|&p| (p, vec![write.clone()]));
        effects.extend(node.begin_transaction(txn, writes));
        s.deciding = Some((txn, now + TXN_DEADLINE_US));
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use chroma_obs::Obs;

    use super::*;
    use crate::msg::{Message, TimerTag};

    /// A transport no event may touch.
    struct Untouchable;

    impl Transport for Untouchable {
        fn local(&self) -> NodeId {
            unreachable!()
        }
        fn obs(&self) -> Obs {
            unreachable!()
        }
        fn now_us(&self) -> u64 {
            unreachable!()
        }
        fn send(&mut self, _: NodeId, _: Message) {
            unreachable!()
        }
        fn set_timer(&mut self, _: u64, _: TimerTag) {
            unreachable!()
        }
        fn connect(&mut self, _: NodeId) {
            unreachable!()
        }
        fn disconnect(&mut self, _: NodeId) {
            unreachable!()
        }
        fn poll(&mut self, _: Option<Duration>) -> Option<TransportEvent> {
            unreachable!()
        }
    }

    #[test]
    fn a_gap_is_one_report_and_leaves_the_node_untouched() {
        let id = NodeId::from_raw(1);
        let mut node = Node::new(id);
        // a transaction in flight at its coordinator, and a prepare
        // staged but not yet past the barrier at its participant
        let write = Write {
            object: txn_object(1),
            state: StoreBytes::from(txn_value(42, 1)),
        };
        let _ = node.begin_transaction(TxnId(1), [(id, vec![write.clone()])]);
        let prepare = Message::Prepare {
            txn: TxnId(1),
            writes: vec![write],
            coordinator: id,
        };
        let _ = node.handle_message(id, prepare);
        let before = format!("{node:?}");
        let records = node.tpc_records();

        let mut host = Host::new(node);
        let mut reports = Vec::new();
        let gap = TransportEvent::Gap {
            from: NodeId::from_raw(2),
            expected: 5,
            got: 9,
        };
        host.handle(&mut Untouchable, [gap], &mut |r| {
            reports.extend_from_slice(r)
        });

        assert_eq!(reports, [Report::Gap(NodeId::from_raw(2), 5..9)]);
        assert_eq!(host.node().tpc_records(), records);
        assert_eq!(format!("{:?}", host.node()), before, "stage untouched");
    }

    /// A participant's transport that records every send with the
    /// store's fsync count at the moment it leaves.
    struct Recording {
        store: chroma_store::DiskStore,
        sent: Vec<(Message, u64)>,
    }

    impl Transport for Recording {
        fn local(&self) -> NodeId {
            NodeId::from_raw(2)
        }
        fn obs(&self) -> Obs {
            Obs::none()
        }
        fn now_us(&self) -> u64 {
            0
        }
        fn send(&mut self, _: NodeId, msg: Message) {
            self.sent.push((msg, self.store.log_fsync_count()));
        }
        fn set_timer(&mut self, _: u64, _: TimerTag) {}
        fn connect(&mut self, _: NodeId) {
            unreachable!()
        }
        fn disconnect(&mut self, _: NodeId) {
            unreachable!()
        }
        fn poll(&mut self, _: Option<Duration>) -> Option<TransportEvent> {
            None
        }
    }

    #[test]
    fn a_batch_pays_one_store_commit_before_any_of_its_sends() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let seed = proptest::torture_seed().unwrap_or(42);
        let mut draw = StdRng::seed_from_u64(seed);
        let coordinator = NodeId::from_raw(1);
        let deliver = |msg| TransportEvent::Deliver {
            from: coordinator,
            msg,
            corr: crate::msg::CorrId::MIN,
            send_lc: 0,
        };
        let prepare = |t| {
            deliver(Message::Prepare {
                txn: TxnId(t),
                writes: vec![Write {
                    object: txn_object(t),
                    state: StoreBytes::from(txn_value(seed, t)),
                }],
                coordinator,
            })
        };
        let mut host = Host::new(Node::new(NodeId::from_raw(2)));
        let mut transport = Recording {
            store: host.node().store().clone(),
            sent: Vec::new(),
        };
        host.handle(&mut transport, [prepare(1)], &mut |_| {});
        assert!(host.node().in_doubt(TxnId(1)));
        transport.sent.clear();
        let before = transport.store.log_fsync_count();

        // [Decision(1), Prepare(2)], drawn: the decision's kind, a
        // duplicate of either message, T1's decision-query timer, and
        // the order of it all
        let commit = draw.gen_bool(0.5);
        let decision = deliver(Message::Decision {
            txn: TxnId(1),
            commit,
        });
        let mut batch = vec![decision.clone(), prepare(2)];
        if draw.gen_bool(0.5) {
            batch.push(decision);
        }
        if draw.gen_bool(0.5) {
            batch.push(prepare(2));
        }
        if draw.gen_bool(0.5) {
            let tag = TimerTag::QueryDecision(TxnId(1));
            batch.push(TransportEvent::Timer { tag });
        }
        for i in (1..batch.len()).rev() {
            batch.swap(i, draw.gen_range(0..=i));
        }
        let shape = format!("seed {seed}: {batch:?}");
        host.handle(&mut transport, batch, &mut |_| {});

        let after = transport.store.log_fsync_count();
        assert_eq!(after, before + 1, "{shape}: one store commit per batch");
        let sent: Vec<&Message> = transport.sent.iter().map(|(msg, _)| msg).collect();
        assert!(sent.contains(&&Message::Ack { txn: TxnId(1) }), "{shape}");
        assert!(
            sent.contains(&&Message::VoteYes { txn: TxnId(2) }),
            "{shape}"
        );
        for (msg, fsyncs) in &transport.sent {
            assert_eq!(*fsyncs, after, "{shape}: {msg:?} left before the barrier");
        }
        let node = host.node();
        assert!(
            node.resolved(TxnId(1)) && node.in_doubt(TxnId(2)),
            "{shape}"
        );
        let installed = node.store().read(txn_object(1)).expect("store reads");
        assert_eq!(installed.is_some(), commit, "{shape}");
    }
}
