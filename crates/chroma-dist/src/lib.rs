//! A deterministic simulated distributed system for chroma: fail-silent
//! nodes with stable storage, a lossy/duplicating/delaying network,
//! at-most-once RPC, presumed-abort two-phase commit, and replicated
//! objects (read-one / write-all-available).
//!
//! This crate is the substrate the paper assumes (§2): workstations that
//! fail silently and recover, stable storage that survives crashes, and
//! a communication subsystem whose failures (lost/duplicated messages)
//! are masked by protocol-level retransmission and deduplication.
//! Everything is driven by a discrete-event simulation ([`Sim`]) with a
//! single seeded RNG, so fault-injection experiments are exactly
//! reproducible.
//!
//! The commit protocol here is what a *distributed* chroma deployment
//! would run when an outermost coloured action spans object stores on
//! several nodes; the claims A3 and A4 in `EXPERIMENTS.md` check
//! its atomicity and the availability gain from replication under
//! crash/loss schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod host;
mod masking;
mod msg;
mod node;
mod replica;
mod sim;
mod tcp;
mod transport;
pub mod wire;

pub use backend::PartitionedStore;
pub use host::{txn_object, txn_value, Host, Report, TXN_DEADLINE_US};
pub use msg::{CorrId, Effect, Message, TimerTag, TxnId, Write};
pub use node::{
    Node, NodeBuilder, RpcOp, RpcResult, TpcRecord, MAX_DECISION_ATTEMPTS, MAX_PREPARE_ATTEMPTS,
    RETRY_INTERVAL, TPC_LOG_BASE,
};
pub use replica::ReplicatedObject;
pub use sim::{NetConfig, NetStats, Sim};
pub use tcp::{MaskingStats, TcpConfig, TcpTransport};
pub use transport::{dispatch_with, Transport, TransportEvent};
