//! The one driver around a [`Node`], which the simulator and the
//! `chroma-node` process both run. A [`Host`] is sans-IO: its driver
//! hands it each [`TransportEvent`] with the [`Transport`] the node's
//! effects leave on, and it reads time only through
//! [`Transport::now_us`], so the seeded [`Sim`](crate::Sim) can wake it
//! at [`Host::wakeup_us`] in simulated time. [`Report`]s reach the
//! driver through a callback as they happen: a transaction's
//! [`Report::Begin`] goes out before its prepares do.

use std::ops::{Range, RangeInclusive};

use chroma_base::{NodeId, ObjectId};
use chroma_store::StoreBytes;

use crate::msg::{TxnId, Write};
use crate::node::Node;
use crate::transport::{dispatch_with, Transport, TransportEvent};

/// How long a schedule drives one transaction, in µs of
/// [`Transport::now_us`], before it reports the coordinator's record.
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
    /// A transaction left the schedule, resolved or past its deadline:
    /// `true` if its coordinator logged the commit.
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
    /// The transaction in flight and its deadline.
    in_flight: Option<(TxnId, u64)>,
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

    /// Makes the host coordinate transactions `1..=txns`, one in flight
    /// at a time, each writing [`txn_value`]`(seed, t)` at
    /// [`txn_object`]`(t)` on every participant and each given
    /// [`TXN_DEADLINE_US`]. The first begins at the next
    /// [`Host::advance`].
    pub fn coordinate(&mut self, participants: Vec<NodeId>, txns: u64, seed: u64) {
        self.schedule = Some(Schedule {
            participants,
            seed,
            txns: 1..=txns,
            in_flight: None,
        });
    }

    /// The deadline of the transaction in flight, at which the host
    /// must be woken if no event comes first; `None` once the schedule
    /// is done, and while the node is down.
    #[must_use]
    pub fn wakeup_us(&self) -> Option<u64> {
        let (_, deadline) = self.schedule.as_ref()?.in_flight?;
        self.node.up.then_some(deadline)
    }

    /// Feeds one transport event to the node through [`dispatch_with`]
    /// and [`Node::barrier`], or reports a gap; then [`Host::advance`].
    pub fn handle<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
        event: TransportEvent,
        report: &mut dyn FnMut(Report),
    ) {
        match event {
            TransportEvent::Gap {
                from,
                expected,
                got,
            } => report(Report::Gap(from, expected..got)),
            event => dispatch_with(&mut self.node, transport, event, Node::barrier),
        }
        self.advance(transport, report);
    }

    /// Moves the schedule on without an event: reports the transaction
    /// in flight once its coordinator holds no state for it or its
    /// deadline passed, then begins the next one.
    pub fn advance<T: Transport + ?Sized>(
        &mut self,
        transport: &mut T,
        report: &mut dyn FnMut(Report),
    ) {
        let Some(s) = self.schedule.as_mut().filter(|_| self.node.up) else {
            return;
        };
        let now = transport.now_us();
        if let Some((txn, deadline)) = s.in_flight {
            if self.node.coordinator_active(txn) && now < deadline {
                return;
            }
            s.in_flight = None;
            let commit = self.node.coordinator_outcome(txn) == Some(true);
            report(Report::Outcome(txn, commit));
        }
        let Some(txn) = s.txns.next().map(TxnId) else {
            return;
        };
        report(Report::Begin(txn));
        let write = Write {
            object: txn_object(txn.0),
            state: StoreBytes::from(txn_value(s.seed, txn.0)),
        };
        let writes = s.participants.iter().map(|&p| (p, vec![write.clone()]));
        let effects = self.node.begin_transaction(txn, writes);
        s.in_flight = Some((txn, now + TXN_DEADLINE_US));
        transport.apply_effects(effects);
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
        host.handle(&mut Untouchable, gap, &mut |r| reports.push(r));

        assert_eq!(reports, [Report::Gap(NodeId::from_raw(2), 5..9)]);
        assert_eq!(host.node().tpc_records(), records);
        assert_eq!(format!("{:?}", host.node()), before, "stage untouched");
    }
}
