//! The transport abstraction: what a [`Node`] needs from the world.
//!
//! The paper's §2 masking layer sits between the protocol state
//! machines (2PC, RPC, replication) and an unreliable network. This
//! module factors that boundary into a trait with two implementations:
//!
//! * the [`Sim`](crate::Sim)'s per-node view — the deterministic
//!   discrete-event simulator, where "the network" is a seeded RNG and
//!   a priority queue;
//! * [`TcpTransport`](crate::TcpTransport) — real sockets between real
//!   processes, with sequence numbers, duplicate suppression and
//!   exponential-backoff reconnect doing the masking.
//!
//! A `Transport` is **one endpoint's** view: it knows its own identity,
//! can send to peers, schedule timers, and yields inbound events. The
//! protocol state machines never see which implementation they run on:
//! one [`Host`](crate::Host) feeds them every event, in the simulator
//! and in `chroma-node` alike.

use std::time::Duration;

use chroma_base::NodeId;
use chroma_obs::{EventKind, Obs};

use crate::msg::{CorrId, Effect, Message, TimerTag};
use crate::node::Node;

/// An inbound occurrence at one endpoint.
#[derive(Clone, Debug)]
pub enum TransportEvent {
    /// A message arrived (and passed the masking layer's dedup).
    Deliver {
        /// The sending node.
        from: NodeId,
        /// The decoded payload.
        msg: Message,
        /// Correlation id pairing this delivery with its send event.
        corr: CorrId,
        /// The sender's Lamport clock at send time (0 if untraced);
        /// merged into the receiver's clock before the delivery event
        /// is emitted, so `deliver.lc > send.lc` (audit rule R8).
        send_lc: u64,
    },
    /// A timer this endpoint set has fired.
    Timer {
        /// The tag the node asked to be woken with.
        tag: TimerTag,
    },
    /// The masking layer observed a hole in a peer's sequence stream:
    /// frames `expected..got` are missing and will never arrive (e.g.
    /// the sender's resend buffer overflowed). A [`Host`](crate::Host)
    /// reports it, so an operator can tell "the network masked a
    /// failure" from "messages were lost for good"; [`dispatch_with`]
    /// ignores it only for the benchmark's own loop.
    Gap {
        /// The peer whose stream has the hole.
        from: NodeId,
        /// The next sequence number the window expected.
        expected: u64,
        /// The sequence number that actually arrived.
        got: u64,
    },
}

/// One endpoint's connection to the rest of the cluster.
///
/// Contract:
///
/// * [`send`](Transport::send) is fire-and-forget: the transport owns
///   retransmission and the receiver owns deduplication (the masking
///   layer); the caller must still tolerate *loss* — a peer that is
///   down forever never receives anything.
/// * [`send`](Transport::send) emits a `MsgSend` trace event (with a
///   fresh correlation id) *before* the message can reach the wire, so
///   a crash between the two never produces an orphan receive.
/// * [`poll`](Transport::poll) yields inbound events for event-driven
///   hosts. The simulator dispatches eagerly from its scheduler instead
///   and always returns `None` here.
/// * [`connect`](Transport::connect) / [`disconnect`](Transport::disconnect)
///   administratively restore / sever the link to a peer (the
///   simulator's partitions; the TCP layer's forced re-dial).
pub trait Transport {
    /// This endpoint's node identity.
    fn local(&self) -> NodeId;

    /// The observability handle events flow through.
    fn obs(&self) -> Obs;

    /// The transport's clock in microseconds (simulated or wall).
    fn now_us(&self) -> u64;

    /// Queues `msg` for delivery to `to`.
    fn send(&mut self, to: NodeId, msg: Message);

    /// Schedules a [`TransportEvent::Timer`] with `tag` after
    /// `delay_us` microseconds.
    fn set_timer(&mut self, delay_us: u64, tag: TimerTag);

    /// Administratively restores the link to `peer`.
    fn connect(&mut self, peer: NodeId);

    /// Administratively severs the link to `peer`.
    fn disconnect(&mut self, peer: NodeId);

    /// Returns the next inbound event, waiting at most `timeout`
    /// (`None` = wait forever). Push-driven transports return `None`.
    fn poll(&mut self, timeout: Option<Duration>) -> Option<TransportEvent>;

    /// Applies a node's effects: sends enter the network, timers are
    /// scheduled. The default implementation preserves effect order.
    fn apply_effects(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => self.send(to, msg),
                Effect::SetTimer { delay, tag } => self.set_timer(delay, tag),
            }
        }
    }
}

/// Feeds one transport event to a node: merges the Lamport clock,
/// emits the `MsgDeliver` trace event and runs the handler, then
/// `barrier`, then applies the resulting effects: one event, one
/// barrier, and the barrier runs **before** any effect reaches the
/// transport.
///
/// This is how a real process keeps the 2PC commit point honest under
/// `kill -9`: the coordinator's `CoordCommit` record (and a
/// participant's `Prepared` record) must be on disk before the first
/// `Decision` (resp. `VoteYes`) message can leave. A crash between the
/// barrier and the sends only loses volatile messages, which the
/// protocol already retransmits.
///
/// A [`Host`](crate::Host) does not call it: it runs the handlers of a
/// whole batch of events under one barrier. It stays for the
/// benchmark's in-process loop, which passes its own timed barrier and
/// ignores a gap.
pub fn dispatch_with<T, F>(
    node: &mut Node,
    transport: &mut T,
    event: TransportEvent,
    mut barrier: F,
) where
    T: Transport + ?Sized,
    F: FnMut(&mut Node),
{
    if matches!(event, TransportEvent::Gap { .. }) {
        return;
    }
    let effects = handle_event(node, &*transport, event);
    barrier(node);
    transport.apply_effects(effects);
}

/// Runs the node's handler for one delivery or timer and returns its
/// effects, which must not reach the transport before the next
/// barrier. A delivery first merges the sender's Lamport clock and
/// emits its `MsgDeliver` event. A gap carries no payload to hand the
/// node and yields nothing: the transport already counted it.
pub(crate) fn handle_event<T>(node: &mut Node, transport: &T, event: TransportEvent) -> Vec<Effect>
where
    T: Transport + ?Sized,
{
    match event {
        TransportEvent::Deliver {
            from,
            msg,
            corr,
            send_lc,
        } => {
            let to = node.id();
            let kind = msg.kind();
            let obs = transport.obs();
            // merge before emitting: the delivery's clock must
            // strictly exceed the send's (audit rule R8)
            obs.merge_clock(to, send_lc);
            obs.emit_corr(corr, EventKind::MsgDeliver { from, to, kind });
            node.handle_message(from, msg)
        }
        TransportEvent::Timer { tag } => node.handle_timer(tag),
        TransportEvent::Gap { .. } => Vec::new(),
    }
}
