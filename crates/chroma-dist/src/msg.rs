//! Message and timer vocabulary for the simulated distributed system.

use chroma_base::{NodeId, ObjectId};
use chroma_obs::MsgKind;
use chroma_store::codec::{CodecError, Stored};
use chroma_store::StoreBytes;

/// A correlation identifier pairing one logical network send with the
/// deliveries it produces.
///
/// The simulation allocates one per [`Effect::Send`] it executes and
/// stamps it on the `MsgSend` event plus every `MsgDeliver` / `MsgDup`
/// / `MsgDrop` that send gives rise to, so an offline analyzer can
/// reconstruct RPC pairs even when the network duplicates or loses
/// messages. Zero is never allocated; it is free for "no correlation"
/// sentinels in tests.
pub type CorrId = u64;

/// A transaction identifier, unique per simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl Stored for TxnId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        u64::decode(input).map(TxnId)
    }
}

chroma_store::stored! {
    /// One write a transaction wants installed at a particular node.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Write {
        /// The object to update.
        pub object: ObjectId,
        /// The new state.
        pub state: StoreBytes,
    }
}

chroma_store::stored! {
    /// Network message payloads.
    ///
    /// The paper's model assumes the network may lose, duplicate or delay
    /// messages; every protocol here is built to tolerate exactly that
    /// (retransmission, deduplication, idempotent installation).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Message {
        // ---- two-phase commit (presumed abort) ----
        /// Coordinator → participant: please prepare these writes.
        Prepare {
            /// The transaction.
            txn: TxnId,
            /// Writes destined for the receiving participant.
            writes: Vec<Write>,
            /// The coordinator to report back to.
            coordinator: NodeId,
        },
        /// Participant → coordinator: prepared and vote yes.
        VoteYes {
            /// The transaction.
            txn: TxnId,
        },
        /// Participant → coordinator: vote no (transaction must abort).
        VoteNo {
            /// The transaction.
            txn: TxnId,
        },
        /// Coordinator → participant: the decision.
        Decision {
            /// The transaction.
            txn: TxnId,
            /// `true` = commit, `false` = abort.
            commit: bool,
        },
        /// Participant → coordinator: decision processed.
        Ack {
            /// The transaction.
            txn: TxnId,
        },
        /// Recovering participant → coordinator: what was decided?
        DecisionQuery {
            /// The transaction.
            txn: TxnId,
        },

        // ---- at-most-once RPC ----
        /// Client → server: invoke.
        RpcRequest {
            /// Client-unique call id (for dedup and reply matching).
            call: u64,
            /// Operation payload (application defined).
            body: StoreBytes,
        },
        /// Server → client: reply.
        RpcReply {
            /// Echoed call id.
            call: u64,
            /// Result payload.
            body: StoreBytes,
        },

        // ---- replication (read-one / write-all-available) ----
        /// Peer → recovering replica: current state of a replicated object.
        ReplicaState {
            /// The replicated object.
            object: ObjectId,
            /// Version counter.
            version: u64,
            /// The state at that version.
            state: StoreBytes,
            /// `true` if the sender itself considers its copy stale (it is
            /// also recovering); such a response still counts towards the
            /// all-peers-heard quorum but does not by itself prove
            /// freshness.
            holder_stale: bool,
        },
        /// Peer → recovering replica: I hold no copy of this object.
        ReplicaNone {
            /// The replicated object.
            object: ObjectId,
        },
        /// Recovering replica → peer: send me your state for this object.
        ReplicaPull {
            /// The replicated object.
            object: ObjectId,
        },
    }
}

impl Message {
    /// The payload-free message class, for observability events.
    #[must_use]
    pub fn kind(&self) -> MsgKind {
        match self {
            Message::Prepare { .. } => MsgKind::Prepare,
            Message::VoteYes { .. } => MsgKind::VoteYes,
            Message::VoteNo { .. } => MsgKind::VoteNo,
            Message::Decision { .. } => MsgKind::Decision,
            Message::Ack { .. } => MsgKind::Ack,
            Message::DecisionQuery { .. } => MsgKind::DecisionQuery,
            Message::RpcRequest { .. } => MsgKind::RpcRequest,
            Message::RpcReply { .. } => MsgKind::RpcReply,
            Message::ReplicaState { .. } => MsgKind::ReplicaState,
            Message::ReplicaNone { .. } => MsgKind::ReplicaNone,
            Message::ReplicaPull { .. } => MsgKind::ReplicaPull,
        }
    }
}

/// Timer tags: what a node asked to be woken up for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerTag {
    /// Coordinator: re-send prepares / give up and abort.
    CoordinatorRetry(TxnId),
    /// Coordinator: re-send the decision until all acks arrive.
    DecisionRetry(TxnId),
    /// Participant: prepared but no decision yet — query the
    /// coordinator.
    QueryDecision(TxnId),
    /// RPC client: retransmit an outstanding call.
    RpcRetry(u64),
}

/// An effect a node wants performed: the simulation schedules it.
#[derive(Clone, Debug)]
pub enum Effect {
    /// Send a message to a node.
    Send {
        /// Destination.
        to: NodeId,
        /// Payload.
        msg: Message,
    },
    /// Wake me with `tag` after `delay` simulated microseconds.
    SetTimer {
        /// Delay from now.
        delay: u64,
        /// The tag to deliver.
        tag: TimerTag,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_display() {
        assert_eq!(TxnId(3).to_string(), "T3");
    }

    #[test]
    fn messages_compare() {
        let a = Message::VoteYes { txn: TxnId(1) };
        let b = Message::VoteYes { txn: TxnId(1) };
        assert_eq!(a, b);
        assert_ne!(a, Message::VoteNo { txn: TxnId(1) });
    }
}
