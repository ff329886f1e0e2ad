//! A fail-silent node: stable + volatile halves, two-phase-commit state
//! machines, at-most-once RPC server, replica state.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use chroma_base::{NodeId, ObjectId};
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use chroma_store::{codec, DiskError, DiskStore, DiskStoreOptions, MemFs, StoreBytes};

use crate::msg::{Effect, Message, TimerTag, TxnId, Write};

/// How often (simulated µs) protocol timers re-fire.
pub const RETRY_INTERVAL: u64 = 50_000;
/// Prepare attempts before a coordinator unilaterally aborts.
pub const MAX_PREPARE_ATTEMPTS: u32 = 5;
/// Decision retransmissions before the coordinator stops pushing (the
/// durable commit record still answers queries afterwards).
pub const MAX_DECISION_ATTEMPTS: u32 = 50;

chroma_store::stored! {
    /// Durable records for the presumed-abort two-phase commit: a node
    /// keeps one per transaction and role, at [`TPC_LOG_BASE`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TpcRecord {
        /// Coordinator decided commit (the commit point). Only commit
        /// records are written at the coordinator's key: none there
        /// means abort.
        CoordCommit {
            /// The transaction.
            txn: TxnId,
            /// The participants that must learn the decision.
            participants: Vec<NodeId>,
        },
        /// Every participant acknowledged; replaces `CoordCommit`.
        CoordEnd {
            /// The transaction.
            txn: TxnId,
        },
        /// Participant prepared: it must find out the decision.
        Prepared {
            /// The transaction.
            txn: TxnId,
            /// Whom to ask.
            coordinator: NodeId,
            /// The writes to install on commit.
            writes: Vec<Write>,
        },
        /// Participant processed the decision; obligation resolved.
        /// Replaces `Prepared` in the batch that installs its writes
        /// (unforced when there are none).
        ParticipantDone {
            /// The transaction.
            txn: TxnId,
        },
    }
}

impl TpcRecord {
    /// The object this record lives at: its transaction's coordinator
    /// or participant key.
    fn key(&self) -> ObjectId {
        match self {
            TpcRecord::CoordCommit { txn, .. } | TpcRecord::CoordEnd { txn } => {
                coordinator_key(*txn)
            }
            TpcRecord::Prepared { txn, .. } | TpcRecord::ParticipantDone { txn } => {
                participant_key(*txn)
            }
        }
    }
}

/// Volatile coordinator state for an in-flight transaction.
#[derive(Clone, Debug, Default)]
struct CoordState {
    participants: Vec<NodeId>,
    writes: BTreeMap<NodeId, Vec<Write>>,
    votes: BTreeSet<NodeId>,
    decided: Option<bool>,
    acked: BTreeSet<NodeId>,
    prepare_attempts: u32,
    decision_attempts: u32,
    /// Simulated time the transaction began (for the decide latency
    /// histogram).
    begin_at_us: u64,
}

chroma_store::stored! {
    /// An operation of the built-in RPC key-value service (used to exercise
    /// the at-most-once machinery).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum RpcOp {
        /// Store `state` under `object` (non-transactional direct write).
        Put(u64, Vec<u8>),
        /// Fetch the state under `object`.
        Get(u64),
        /// Liveness probe.
        Ping,
    }
}

chroma_store::stored! {
    /// Reply of the built-in RPC service.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum RpcResult {
        /// Put installed.
        Done,
        /// Get result (`None` = no such object).
        Value(Option<Vec<u8>>),
        /// Pong.
        Pong,
    }
}

/// Volatile client-side state of an outstanding RPC.
#[derive(Clone, Debug)]
struct RpcCall {
    to: NodeId,
    body: StoreBytes,
    reply: Option<StoreBytes>,
    attempts: u32,
}

/// A fail-silent workstation, simulated or hosted by a process.
///
/// Its stable half is one [`DiskStore`]. Handlers stage their writes
/// and [`Node::barrier`] commits them as one batch. The 2PC state is a
/// table with one record per transaction and role (see
/// [`TPC_LOG_BASE`]), each replaced as its transaction resolves. A
/// crash loses everything volatile, the stage included;
/// [`Node::recover`] reads the table back from the store and rebuilds
/// obligations from it — re-sending decisions for
/// committed-but-unacknowledged transactions and querying coordinators
/// for prepared-but-undecided ones.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    /// `false` while crashed: the simulation drops deliveries.
    pub up: bool,
    // ---- stable ----
    store: DiskStore,
    /// The in-memory disk under `store` of a [`Node::new`] node, which a
    /// crash crashes; `None` for a node that adopted its host's store.
    disk: Option<MemFs>,
    // ---- volatile ----
    /// The 2PC table by key: the records in `store`, replaced by the
    /// staged ones.
    tpc: BTreeMap<ObjectId, TpcRecord>,
    /// Object states and 2PC records staged for the next barrier.
    stage: BTreeMap<ObjectId, StoreBytes>,
    /// The stage holds more than end records: the next barrier writes.
    stage_forced: bool,
    coord: BTreeMap<TxnId, CoordState>,
    /// Transactions this node will refuse to prepare (fault injection).
    pub veto: BTreeSet<TxnId>,
    rpc_seen: BTreeMap<(NodeId, u64), StoreBytes>,
    rpc_calls: BTreeMap<u64, RpcCall>,
    next_call: u64,
    /// Replicated objects considered stale until a peer confirms.
    pub stale: BTreeSet<ObjectId>,
    /// Peers per replicated object (for pull-on-recover), in object
    /// order so recovery pulls in a seeded order.
    pub replica_peers: BTreeMap<ObjectId, Vec<NodeId>>,
    /// Peers whose pull response is still outstanding, per object
    /// (volatile; populated on recovery).
    pull_pending: BTreeMap<ObjectId, BTreeSet<NodeId>>,
    /// Observability handle (survives crashes: instrumentation is not
    /// part of the simulated machine).
    obs: ObsCell,
}

impl Node {
    /// Creates an up, empty node over a fresh in-memory disk
    /// ([`MemFs`]) that [`Node::crash`] crashes.
    #[must_use]
    pub fn new(id: NodeId) -> Self {
        let disk = MemFs::new();
        let store = open_memory_store(&disk).expect("a fresh in-memory disk opens");
        Node::with_store(id, store, Some(disk))
    }

    fn with_store(id: NodeId, store: DiskStore, disk: Option<MemFs>) -> Self {
        Node {
            id,
            up: true,
            store,
            disk,
            tpc: BTreeMap::new(),
            stage: BTreeMap::new(),
            stage_forced: false,
            coord: BTreeMap::new(),
            veto: BTreeSet::new(),
            rpc_seen: BTreeMap::new(),
            rpc_calls: BTreeMap::new(),
            next_call: 1,
            stale: BTreeSet::new(),
            replica_peers: BTreeMap::new(),
            pull_pending: BTreeMap::new(),
            obs: ObsCell::new(),
        }
    }

    /// Starts building a node, mirroring `Runtime::builder()`: identity
    /// and observability can come from a [`Transport`], and the stable
    /// half can be the host's own [`DiskStore`].
    ///
    /// [`Transport`]: crate::Transport
    #[must_use]
    pub fn builder() -> NodeBuilder {
        NodeBuilder::default()
    }

    /// The node's current observability handle (already bound to its
    /// identity).
    fn obs(&self) -> Obs {
        self.obs.get().clone()
    }

    /// Returns the node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Returns this node's record of the decision for `txn`, if it was
    /// the coordinator: `Some(true)` commit, `Some(false)` abort,
    /// `None` undecided/unknown.
    #[must_use]
    pub fn coordinator_outcome(&self, txn: TxnId) -> Option<bool> {
        if let Some(state) = self.coord.get(&txn) {
            if let Some(decided) = state.decided {
                return Some(decided);
            }
        }
        // Fall back to the durable table (post-crash).
        self.coord_committed(txn).then_some(true)
    }

    /// Returns `true` while this node, as coordinator, still holds
    /// volatile state for `txn` — the transaction is in flight (votes
    /// or acks outstanding). Process hosts poll this to know when a
    /// transaction no longer needs driving.
    #[must_use]
    pub fn coordinator_active(&self, txn: TxnId) -> bool {
        self.coord.contains_key(&txn)
    }

    /// Returns `true` once this node, as a participant, processed the
    /// decision for `txn` — commit or abort alike, prepared or not.
    #[must_use]
    pub fn resolved(&self, txn: TxnId) -> bool {
        matches!(
            self.participant_record(txn),
            Some(TpcRecord::ParticipantDone { .. })
        )
    }

    /// Returns `true` if the participant has a prepared-but-unresolved
    /// obligation for `txn`.
    #[must_use]
    pub fn in_doubt(&self, txn: TxnId) -> bool {
        matches!(
            self.participant_record(txn),
            Some(TpcRecord::Prepared { .. })
        )
    }

    /// A snapshot of the node's 2PC table, in key order.
    #[must_use]
    pub fn tpc_records(&self) -> Vec<TpcRecord> {
        self.tpc.values().cloned().collect()
    }

    /// Puts `record` in the 2PC table, replacing the record at its key,
    /// and stages it there for the next [`Node::barrier`]. Only the
    /// commit points (`CoordCommit`, `Prepared`) force that barrier to
    /// write; end records ride with the next one that writes.
    fn log(&mut self, record: TpcRecord) {
        let key = record.key();
        let bytes = codec::to_bytes(&record).expect("2PC records encode");
        self.stage_forced |= matches!(
            record,
            TpcRecord::CoordCommit { .. } | TpcRecord::Prepared { .. }
        );
        self.stage.insert(key, StoreBytes::from(bytes));
        self.tpc.insert(key, record);
    }

    /// This node's participant record of `txn`, if it has one.
    fn participant_record(&self, txn: TxnId) -> Option<&TpcRecord> {
        self.tpc.get(&participant_key(txn))
    }

    /// Returns `true` if this node, as coordinator, logged the commit
    /// of `txn` (ended or not).
    fn coord_committed(&self, txn: TxnId) -> bool {
        self.tpc.contains_key(&coordinator_key(txn))
    }

    // ------------------------------------------------------------------
    // Two-phase commit: coordinator
    // ------------------------------------------------------------------

    /// Starts a distributed transaction with this node as coordinator.
    ///
    /// `writes` maps each participant to the writes it must install; the
    /// coordinator itself may be a participant. Returns the effects to
    /// schedule.
    pub fn begin_transaction(
        &mut self,
        txn: TxnId,
        writes: impl IntoIterator<Item = (NodeId, Vec<Write>)>,
    ) -> Vec<Effect> {
        // Fan out in node order: every later send to the participants
        // (decisions, retries) follows this list, so a seeded run sends
        // the same messages in the same order.
        let writes: BTreeMap<NodeId, Vec<Write>> = writes.into_iter().collect();
        let participants: Vec<NodeId> = writes.keys().copied().collect();
        let mut effects: Vec<Effect> = participants
            .iter()
            .map(|&to| Effect::Send {
                to,
                msg: Message::Prepare {
                    txn,
                    writes: writes[&to].clone(),
                    coordinator: self.id,
                },
            })
            .collect();
        effects.push(Effect::SetTimer {
            delay: RETRY_INTERVAL,
            tag: TimerTag::CoordinatorRetry(txn),
        });
        let state = CoordState {
            participants,
            writes,
            begin_at_us: self.obs().now_us(),
            ..CoordState::default()
        };
        self.coord.insert(txn, state);
        effects
    }

    fn decide(&mut self, txn: TxnId, commit: bool) -> Vec<Effect> {
        let Some(state) = self.coord.get_mut(&txn) else {
            return Vec::new();
        };
        if state.decided.is_some() {
            return Vec::new();
        }
        state.decided = Some(commit);
        let participants = state.participants.len() as u64;
        let begun = state.begin_at_us;
        let mut effects: Vec<Effect> = state
            .participants
            .iter()
            .map(|&to| Effect::Send {
                to,
                msg: Message::Decision { txn, commit },
            })
            .collect();
        effects.push(Effect::SetTimer {
            delay: RETRY_INTERVAL,
            tag: TimerTag::DecisionRetry(txn),
        });
        if commit {
            // The commit point: durable before any Decision leaves.
            let participants = state.participants.clone();
            self.log(TpcRecord::CoordCommit { txn, participants });
        }
        self.obs().emit(EventKind::TpcDecide {
            node: self.id,
            txn: txn.0,
            commit,
            participants,
        });
        self.obs()
            .observe("dist.decide_us", self.obs().now_us().saturating_sub(begun));
        effects
    }

    fn on_vote(&mut self, from: NodeId, txn: TxnId, yes: bool) -> Vec<Effect> {
        let Some(state) = self.coord.get_mut(&txn) else {
            return Vec::new();
        };
        if state.decided.is_some() {
            return Vec::new();
        }
        if !yes {
            return self.decide(txn, false);
        }
        state.votes.insert(from);
        if state.votes.len() == state.participants.len() {
            return self.decide(txn, true);
        }
        Vec::new()
    }

    fn on_ack(&mut self, from: NodeId, txn: TxnId) -> Vec<Effect> {
        let finished = {
            let Some(state) = self.coord.get_mut(&txn) else {
                return Vec::new();
            };
            state.acked.insert(from);
            state.decided.is_some() && state.acked.len() == state.participants.len()
        };
        if finished {
            let state = self.coord.remove(&txn).expect("state present");
            if state.decided == Some(true) {
                self.log(TpcRecord::CoordEnd { txn });
            }
        }
        Vec::new()
    }

    fn on_decision_query(&mut self, from: NodeId, txn: TxnId) -> Vec<Effect> {
        // A live, undecided coordinator stays silent (the participant
        // will ask again); otherwise answer from volatile state or the
        // durable table — no record means presumed abort.
        if let Some(state) = self.coord.get(&txn) {
            match state.decided {
                None => return Vec::new(),
                Some(commit) => {
                    return vec![Effect::Send {
                        to: from,
                        msg: Message::Decision { txn, commit },
                    }]
                }
            }
        }
        vec![Effect::Send {
            to: from,
            msg: Message::Decision {
                txn,
                commit: self.coord_committed(txn),
            },
        }]
    }

    // ------------------------------------------------------------------
    // Two-phase commit: participant
    // ------------------------------------------------------------------

    fn on_prepare(&mut self, txn: TxnId, writes: Vec<Write>, coordinator: NodeId) -> Vec<Effect> {
        // Deduplicate: already done → ignore; already prepared →
        // re-vote.
        match self.participant_record(txn) {
            Some(TpcRecord::ParticipantDone { .. }) => return Vec::new(),
            Some(_) => {
                self.obs().emit(EventKind::TpcVote {
                    node: self.id,
                    txn: txn.0,
                    yes: true,
                });
                return vec![Effect::Send {
                    to: coordinator,
                    msg: Message::VoteYes { txn },
                }];
            }
            None => {}
        }
        if self.veto.contains(&txn) {
            self.obs().emit(EventKind::TpcVote {
                node: self.id,
                txn: txn.0,
                yes: false,
            });
            return vec![Effect::Send {
                to: coordinator,
                msg: Message::VoteNo { txn },
            }];
        }
        self.log(TpcRecord::Prepared {
            txn,
            coordinator,
            writes,
        });
        self.obs().emit(EventKind::TpcVote {
            node: self.id,
            txn: txn.0,
            yes: true,
        });
        vec![
            Effect::Send {
                to: coordinator,
                msg: Message::VoteYes { txn },
            },
            Effect::SetTimer {
                delay: 2 * RETRY_INTERVAL,
                tag: TimerTag::QueryDecision(txn),
            },
        ]
    }

    fn on_decision(&mut self, from: NodeId, txn: TxnId, commit: bool) -> Vec<Effect> {
        let ack = vec![Effect::Send {
            to: from,
            msg: Message::Ack { txn },
        }];
        let writes = match self.participant_record(txn) {
            Some(TpcRecord::ParticipantDone { .. }) => return ack,
            Some(TpcRecord::Prepared { writes, .. }) if commit => writes.clone(),
            _ => Vec::new(),
        };
        self.obs().emit(EventKind::TpcResolve {
            node: self.id,
            txn: txn.0,
            commit,
        });
        let mut updates: Vec<(ObjectId, StoreBytes)> = Vec::new();
        let mut installed: Vec<(ObjectId, u64)> = Vec::new();
        for w in writes {
            if self.replica_peers.contains_key(&w.object) {
                if let Ok((version, _)) = codec::from_bytes::<(u64, Vec<u8>)>(&w.state) {
                    let local = self.read_versioned(w.object).map_or(0, |(v, _)| v);
                    if version < local {
                        // A decision that resolved only after this
                        // replica caught up past it: installing would
                        // roll the copy back (replica divergence).
                        continue;
                    }
                    installed.push((w.object, version));
                }
            }
            updates.push((w.object, w.state));
        }
        if !updates.is_empty() {
            self.stage(updates);
        }
        for (object, version) in installed {
            self.obs().emit(EventKind::ReplicaInstall {
                node: self.id,
                object,
                version,
            });
        }
        // replaces `Prepared` in the batch that installs the writes; an
        // abort's installs nothing and rides with the next barrier that
        // writes
        self.log(TpcRecord::ParticipantDone { txn });
        ack
    }

    // ------------------------------------------------------------------
    // RPC
    // ------------------------------------------------------------------

    /// Starts an at-most-once RPC to `to`; returns the call id and the
    /// effects to schedule. Poll [`Node::rpc_reply`] for the result.
    pub fn rpc_call(&mut self, to: NodeId, op: &RpcOp) -> (u64, Vec<Effect>) {
        let call = self.next_call;
        self.next_call += 1;
        let body = StoreBytes::from(codec::to_bytes(op).expect("rpc op encodes"));
        self.rpc_calls.insert(
            call,
            RpcCall {
                to,
                body: body.clone(),
                reply: None,
                attempts: 0,
            },
        );
        (
            call,
            vec![
                Effect::Send {
                    to,
                    msg: Message::RpcRequest { call, body },
                },
                Effect::SetTimer {
                    delay: RETRY_INTERVAL,
                    tag: TimerTag::RpcRetry(call),
                },
            ],
        )
    }

    /// Returns the decoded reply for `call`, if it has arrived.
    #[must_use]
    pub fn rpc_reply(&self, call: u64) -> Option<RpcResult> {
        let reply = self.rpc_calls.get(&call)?.reply.as_ref()?;
        codec::from_bytes(reply).ok()
    }

    fn serve_rpc(&mut self, from: NodeId, call: u64, body: &StoreBytes) -> Vec<Effect> {
        if let Some(memo) = self.rpc_seen.get(&(from, call)) {
            // Duplicate request: replay the memoised reply, do not
            // re-execute (at-most-once).
            return vec![Effect::Send {
                to: from,
                msg: Message::RpcReply {
                    call,
                    body: memo.clone(),
                },
            }];
        }
        let result = match codec::from_bytes::<RpcOp>(body) {
            Ok(RpcOp::Put(raw, state)) => {
                self.stage(vec![(ObjectId::from_raw(raw), StoreBytes::from(state))]);
                RpcResult::Done
            }
            Ok(RpcOp::Get(raw)) => {
                RpcResult::Value(self.read(ObjectId::from_raw(raw)).map(|b| b.to_vec()))
            }
            Ok(RpcOp::Ping) | Err(_) => RpcResult::Pong,
        };
        let reply = StoreBytes::from(codec::to_bytes(&result).expect("rpc result encodes"));
        self.rpc_seen.insert((from, call), reply.clone());
        vec![Effect::Send {
            to: from,
            msg: Message::RpcReply { call, body: reply },
        }]
    }

    /// Returns how many distinct RPC requests this node has executed
    /// (duplicates excluded) — used to verify at-most-once execution.
    #[must_use]
    pub fn rpc_executed(&self) -> usize {
        self.rpc_seen.len()
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    fn on_replica_pull(&mut self, from: NodeId, object: ObjectId) -> Vec<Effect> {
        // Always answer: even a stale copy's version contributes to the
        // recovering peer's all-replicas maximum (stable storage
        // survives crashes, so the latest committed version exists at
        // some replica's store even if every replica crashed).
        match self.read_versioned(object) {
            Some((version, state)) => vec![Effect::Send {
                to: from,
                msg: Message::ReplicaState {
                    object,
                    version,
                    state,
                    holder_stale: self.stale.contains(&object),
                },
            }],
            None => vec![Effect::Send {
                to: from,
                msg: Message::ReplicaNone { object },
            }],
        }
    }

    fn on_replica_state(
        &mut self,
        from: NodeId,
        object: ObjectId,
        version: u64,
        state: StoreBytes,
        holder_stale: bool,
    ) -> Vec<Effect> {
        let local = self.read_versioned(object).map(|(v, _)| v).unwrap_or(0);
        if version > local {
            self.stage_versioned(object, version, &state);
        }
        // A non-stale holder's copy is authoritative: adopt-and-trust.
        if !holder_stale {
            self.pull_pending.remove(&object);
            if self.stale.remove(&object) {
                self.emit_catchup_end(object);
            }
        } else {
            self.note_pull_response(from, object);
        }
        Vec::new()
    }

    fn on_replica_none(&mut self, from: NodeId, object: ObjectId) -> Vec<Effect> {
        self.note_pull_response(from, object);
        Vec::new()
    }

    /// Records that `from` answered our pull for `object`; once every
    /// peer has answered, the max version we have seen is the latest
    /// committed one (a committed write reached at least one replica's
    /// stable store) and the copy is fresh again.
    fn note_pull_response(&mut self, from: NodeId, object: ObjectId) {
        if let Some(pending) = self.pull_pending.get_mut(&object) {
            pending.remove(&from);
            if pending.is_empty() {
                self.pull_pending.remove(&object);
                if self.stale.remove(&object) {
                    self.emit_catchup_end(object);
                }
            }
        }
    }

    /// Closes this node's catch-up window for `object`, reporting the
    /// version it rejoined the group with.
    fn emit_catchup_end(&self, object: ObjectId) {
        let version = self.read_versioned(object).map_or(0, |(v, _)| v);
        self.obs().emit(EventKind::CatchupEnd {
            node: self.id,
            object,
            version,
        });
    }

    /// Reads a replicated object's `(version, state)`.
    #[must_use]
    pub fn read_versioned(&self, object: ObjectId) -> Option<(u64, StoreBytes)> {
        let bytes = self.read(object)?;
        let (version, state): (u64, Vec<u8>) = codec::from_bytes(&bytes).ok()?;
        Some((version, StoreBytes::from(state)))
    }

    /// Writes a replicated object's `(version, state)`; it is durable
    /// when the call returns.
    pub fn write_versioned(&mut self, object: ObjectId, version: u64, state: &[u8]) {
        self.stage_versioned(object, version, state);
        self.barrier();
    }

    fn stage_versioned(&mut self, object: ObjectId, version: u64, state: &[u8]) {
        let bytes = codec::to_bytes(&(version, state.to_vec())).expect("versioned encodes");
        self.stage(vec![(object, StoreBytes::from(bytes))]);
        self.obs().emit(EventKind::ReplicaInstall {
            node: self.id,
            object,
            version,
        });
    }

    /// Stages `updates` for the next [`Node::barrier`], which they
    /// force to write: the one way a handler writes the store.
    fn stage(&mut self, updates: Vec<(ObjectId, StoreBytes)>) {
        self.stage.extend(updates);
        self.stage_forced = true;
    }

    /// Returns `object`'s state: the staged write if there is one, else
    /// the store's.
    ///
    /// # Panics
    ///
    /// If the store cannot be read: the node stops (fail-silent) rather
    /// than take a lost object for an absent one.
    #[must_use]
    pub fn read(&self, object: ObjectId) -> Option<StoreBytes> {
        if let Some(state) = self.stage.get(&object) {
            return Some(state.clone());
        }
        self.store
            .read(object)
            .unwrap_or_else(|e| fail_silent("read its stable storage", &e))
    }

    /// The node's stable storage, without what is staged (tests and
    /// tooling).
    #[must_use]
    pub fn store(&self) -> &DiskStore {
        &self.store
    }

    // ------------------------------------------------------------------
    // Event entry points (called by the simulation)
    // ------------------------------------------------------------------

    /// Handles a delivered message. A node that is down never gets here.
    pub fn handle_message(&mut self, from: NodeId, msg: Message) -> Vec<Effect> {
        match msg {
            Message::Prepare {
                txn,
                writes,
                coordinator,
            } => self.on_prepare(txn, writes, coordinator),
            Message::VoteYes { txn } => self.on_vote(from, txn, true),
            Message::VoteNo { txn } => self.on_vote(from, txn, false),
            Message::Decision { txn, commit } => self.on_decision(from, txn, commit),
            Message::Ack { txn } => self.on_ack(from, txn),
            Message::DecisionQuery { txn } => self.on_decision_query(from, txn),
            Message::RpcRequest { call, body } => self.serve_rpc(from, call, &body),
            Message::RpcReply { call, body } => {
                if let Some(state) = self.rpc_calls.get_mut(&call) {
                    state.reply.get_or_insert(body);
                }
                Vec::new()
            }
            Message::ReplicaPull { object } => self.on_replica_pull(from, object),
            Message::ReplicaState {
                object,
                version,
                state,
                holder_stale,
            } => self.on_replica_state(from, object, version, state, holder_stale),
            Message::ReplicaNone { object } => self.on_replica_none(from, object),
        }
    }

    /// Handles a timer firing. A node that is down never gets here.
    pub fn handle_timer(&mut self, tag: TimerTag) -> Vec<Effect> {
        match tag {
            TimerTag::CoordinatorRetry(txn) => {
                let Some(state) = self.coord.get_mut(&txn) else {
                    return Vec::new();
                };
                if state.decided.is_some() {
                    return Vec::new();
                }
                state.prepare_attempts += 1;
                if state.prepare_attempts >= MAX_PREPARE_ATTEMPTS {
                    return self.decide(txn, false);
                }
                let coordinator = self.id;
                let mut effects: Vec<Effect> = state
                    .participants
                    .iter()
                    .filter(|p| !state.votes.contains(p))
                    .map(|&to| Effect::Send {
                        to,
                        msg: Message::Prepare {
                            txn,
                            writes: state.writes.get(&to).cloned().unwrap_or_default(),
                            coordinator,
                        },
                    })
                    .collect();
                effects.push(Effect::SetTimer {
                    delay: RETRY_INTERVAL,
                    tag: TimerTag::CoordinatorRetry(txn),
                });
                effects
            }
            TimerTag::DecisionRetry(txn) => {
                let Some(state) = self.coord.get_mut(&txn) else {
                    return Vec::new();
                };
                let Some(commit) = state.decided else {
                    return Vec::new();
                };
                state.decision_attempts += 1;
                if state.decision_attempts >= MAX_DECISION_ATTEMPTS {
                    // Stop pushing; the durable record still answers
                    // queries. Drop volatile state for aborts.
                    if !commit {
                        self.coord.remove(&txn);
                    }
                    return Vec::new();
                }
                let mut effects: Vec<Effect> = state
                    .participants
                    .iter()
                    .filter(|p| !state.acked.contains(p))
                    .map(|&to| Effect::Send {
                        to,
                        msg: Message::Decision { txn, commit },
                    })
                    .collect();
                effects.push(Effect::SetTimer {
                    delay: RETRY_INTERVAL,
                    tag: TimerTag::DecisionRetry(txn),
                });
                effects
            }
            TimerTag::QueryDecision(txn) => {
                // Still in doubt: ask the coordinator the record names.
                let Some(TpcRecord::Prepared { coordinator, .. }) = self.participant_record(txn)
                else {
                    return Vec::new();
                };
                vec![
                    Effect::Send {
                        to: *coordinator,
                        msg: Message::DecisionQuery { txn },
                    },
                    Effect::SetTimer {
                        delay: 2 * RETRY_INTERVAL,
                        tag: TimerTag::QueryDecision(txn),
                    },
                ]
            }
            TimerTag::RpcRetry(call) => {
                let Some(state) = self.rpc_calls.get_mut(&call) else {
                    return Vec::new();
                };
                if state.reply.is_some() || state.attempts >= MAX_DECISION_ATTEMPTS {
                    return Vec::new();
                }
                state.attempts += 1;
                vec![
                    Effect::Send {
                        to: state.to,
                        msg: Message::RpcRequest {
                            call,
                            body: state.body.clone(),
                        },
                    },
                    Effect::SetTimer {
                        delay: RETRY_INTERVAL,
                        tag: TimerTag::RpcRetry(call),
                    },
                ]
            }
        }
    }

    /// Crashes the node: volatile state vanishes, the stage with it,
    /// and an in-memory disk loses whatever it never synced.
    pub fn crash(&mut self) {
        self.up = false;
        if let Some(disk) = &self.disk {
            disk.crash();
        }
        self.stage.clear();
        self.stage_forced = false;
        self.coord.clear();
        self.rpc_seen.clear();
        self.rpc_calls.clear();
        self.pull_pending.clear();
        // Replicated copies may have missed writes while down — except
        // unreplicated objects (no peers), whose only copy is ours.
        let replicated: Vec<ObjectId> = self
            .replica_peers
            .iter()
            .filter(|(_, peers)| !peers.is_empty())
            .map(|(&o, _)| o)
            .collect();
        self.stale.extend(replicated);
    }

    /// Recovers the node: reopens an in-memory disk's store (the replay
    /// a restarted process runs), reads the 2PC table back, rebuilds
    /// protocol obligations from it and pulls replica state from peers.
    /// Returns the effects to schedule.
    ///
    /// # Panics
    ///
    /// If the store cannot be reopened or its 2PC table is damaged
    /// (fail-silent).
    pub fn recover(&mut self) -> Vec<Effect> {
        self.up = true;
        if let Some(disk) = &self.disk {
            self.store =
                open_memory_store(disk).unwrap_or_else(|e| fail_silent("reopen its store", &e));
        }
        self.tpc =
            read_tpc_log(&self.store).unwrap_or_else(|e| fail_silent("read its 2PC table", &e));
        let mut effects = Vec::new();

        // One pass over the table: ended and done records owe nothing.
        let now = self.obs().now_us();
        for record in self.tpc.values() {
            match record {
                // Coordinator obligation: committed but not ended → push
                // the decision again.
                TpcRecord::CoordCommit { txn, participants } => {
                    let state = CoordState {
                        participants: participants.clone(),
                        decided: Some(true),
                        begin_at_us: now,
                        ..CoordState::default()
                    };
                    self.coord.insert(*txn, state);
                    let decision = Message::Decision {
                        txn: *txn,
                        commit: true,
                    };
                    effects.extend(participants.iter().map(|&to| Effect::Send {
                        to,
                        msg: decision.clone(),
                    }));
                    effects.push(Effect::SetTimer {
                        delay: RETRY_INTERVAL,
                        tag: TimerTag::DecisionRetry(*txn),
                    });
                }
                // Participant obligation: prepared but not done → query.
                TpcRecord::Prepared {
                    txn, coordinator, ..
                } => {
                    effects.push(Effect::Send {
                        to: *coordinator,
                        msg: Message::DecisionQuery { txn: *txn },
                    });
                    effects.push(Effect::SetTimer {
                        delay: 2 * RETRY_INTERVAL,
                        tag: TimerTag::QueryDecision(*txn),
                    });
                }
                TpcRecord::CoordEnd { .. } | TpcRecord::ParticipantDone { .. } => {}
            }
        }

        // Replicas: pull fresh state from peers, tracking whom we wait
        // for so staleness can end when every peer has answered.
        for (&object, peers) in &self.replica_peers {
            if peers.is_empty() {
                continue;
            }
            if self.stale.contains(&object) {
                self.obs().emit(EventKind::CatchupBegin {
                    node: self.id,
                    object,
                });
            }
            self.pull_pending
                .insert(object, peers.iter().copied().collect());
            for &peer in peers {
                effects.push(Effect::Send {
                    to: peer,
                    msg: Message::ReplicaPull { object },
                });
            }
        }
        effects
    }

    // ------------------------------------------------------------------
    // Durability barrier
    // ------------------------------------------------------------------

    /// The durability barrier: commits what the handlers staged since
    /// the last barrier that wrote — installed objects, and each changed
    /// 2PC record at its key from [`TPC_LOG_BASE`] — as one atomic
    /// batch. A [`Host`](crate::Host) runs it once after the handlers
    /// of a batch of events, before any of their messages leave, in the
    /// simulator and in `chroma-node` alike. It writes only when the
    /// stage holds an object write, a `CoordCommit` or a `Prepared`:
    /// the commit points. End records (`CoordEnd`, `ParticipantDone`)
    /// wait for the next barrier that writes. Losing one costs one
    /// message after a restart, never a wrong outcome: a recovered
    /// coordinator re-sends its decision, and a recovered participant
    /// still holding `Prepared` sends one `DecisionQuery` (presumed
    /// abort answers an abort).
    ///
    /// # Panics
    ///
    /// If the store cannot commit: the node stops (fail-silent) rather
    /// than send what the lost state would justify.
    pub fn barrier(&mut self) {
        if !self.stage_forced {
            return;
        }
        let batch = std::mem::take(&mut self.stage).into_iter().collect();
        self.stage_forced = false;
        if let Err(e) = self.store.commit_batch(batch) {
            fail_silent("make its state stable", &e);
        }
    }

    /// [`Node::barrier`] under its old name, for `bench/`; the next
    /// benchmark change drops it. `disk` must be the store adopted
    /// through [`NodeBuilder::backend`].
    ///
    /// # Errors
    ///
    /// None: a failed barrier panics.
    pub fn persist_durable(&mut self, disk: &DiskStore) -> Result<(), DiskError> {
        assert!(disk.same_store(&self.store), "not this node's store");
        self.barrier();
        Ok(())
    }
}

/// A node's 2PC table lives in its store from `TPC_LOG_BASE` on — far
/// above any real object id — one record per transaction and role:
/// transaction `t`'s coordinator record at `TPC_LOG_BASE + 2·t`, its
/// participant record at the next id. A record is replaced as its
/// transaction resolves (`CoordEnd` over `CoordCommit`,
/// `ParticipantDone` over `Prepared`), so a participant keeps no write
/// set past the decision.
pub const TPC_LOG_BASE: ObjectId = ObjectId::from_raw(1 << 62);

/// Where `txn`'s coordinator record lives.
fn coordinator_key(txn: TxnId) -> ObjectId {
    ObjectId::from_raw(TPC_LOG_BASE.as_raw() + 2 * txn.0)
}

/// Where `txn`'s participant record lives.
fn participant_key(txn: TxnId) -> ObjectId {
    ObjectId::from_raw(coordinator_key(txn).as_raw() + 1)
}

/// Reads the 2PC table back from `store` — what a restart and a
/// simulated recovery both run. Every object from [`TPC_LOG_BASE`] on
/// must hold a record whose key it is; anything else is
/// [`DiskError::CorruptLog`].
fn read_tpc_log(store: &DiskStore) -> Result<BTreeMap<ObjectId, TpcRecord>, DiskError> {
    let corrupt = DiskError::CorruptLog;
    let mut table = BTreeMap::new();
    for object in store.object_ids()? {
        if object < TPC_LOG_BASE {
            continue;
        }
        let blob = store
            .read(object)?
            .ok_or_else(|| corrupt(format!("tpc record at {object} vanished")))?;
        let record: TpcRecord = codec::from_bytes(&blob)
            .map_err(|e| corrupt(format!("tpc record at {object}: {e}")))?;
        if record.key() != object {
            return Err(corrupt(format!(
                "tpc record {record:?} misplaced at {object}"
            )));
        }
        table.insert(object, record);
    }
    Ok(table)
}

/// Opens a [`Node::new`] node's store over its in-memory disk, with no
/// checkpointer thread, so a simulated run stays a function of its seed.
fn open_memory_store(disk: &MemFs) -> Result<DiskStore, DiskError> {
    let opts = DiskStoreOptions {
        auto_checkpoint: false,
        ..DiskStoreOptions::default()
    };
    DiskStore::open_fs(Arc::new(disk.clone()), "node", opts)
}

/// A node that cannot trust its stable storage stops (fail-silent).
fn fail_silent(what: &str, e: &DiskError) -> ! {
    panic!("node stops (fail-silent): cannot {what}: {e}")
}

impl Observable for Node {
    /// Installs an observability handle, rebound to this node's
    /// identity so every event it emits carries a `node` field and
    /// ticks its Lamport clock. The node reports its protocol steps;
    /// its store stays unobserved (the rules keep one log state per
    /// trace, so several stores in one trace would mix their counts).
    fn install_obs(&self, obs: Obs) {
        self.obs.set(obs.at_node(self.id));
    }
}

/// Builds a [`Node`], mirroring `Runtime::builder()`.
///
/// # Examples
///
/// ```
/// use chroma_base::NodeId;
/// use chroma_dist::Node;
///
/// let node = Node::builder().id(NodeId::from_raw(3)).build().unwrap();
/// assert_eq!(node.id(), NodeId::from_raw(3));
/// ```
#[derive(Default)]
pub struct NodeBuilder {
    id: Option<NodeId>,
    obs: Option<Obs>,
    backend: Option<DiskStore>,
}

impl NodeBuilder {
    /// Sets the node's identity.
    #[must_use]
    pub fn id(mut self, id: NodeId) -> Self {
        self.id = Some(id);
        self
    }

    /// Takes identity and observability from `transport` — the usual
    /// way a process host builds its node.
    #[must_use]
    pub fn transport(mut self, transport: &impl crate::Transport) -> Self {
        self.id = Some(transport.local());
        let obs = transport.obs();
        if obs.enabled() {
            self.obs = Some(obs);
        }
        self
    }

    /// Installs an observability handle on the built node.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Makes (a clone of) `disk` the node's stable storage instead of
    /// an in-memory disk of its own; the build reads its 2PC table back.
    #[must_use]
    pub fn backend(mut self, disk: &DiskStore) -> Self {
        self.backend = Some(disk.clone());
        self
    }

    /// Builds the node: read its 2PC table back (quietly), then install
    /// observability.
    ///
    /// # Errors
    ///
    /// [`DiskError`] if the backend's 2PC table cannot be read back.
    ///
    /// # Panics
    ///
    /// Panics if no identity was provided via [`NodeBuilder::id`] or
    /// [`NodeBuilder::transport`].
    pub fn build(self) -> Result<Node, DiskError> {
        let id = self.id.expect("NodeBuilder requires an id or transport");
        let node = match self.backend {
            Some(disk) => Node {
                tpc: read_tpc_log(&disk)?,
                ..Node::with_store(id, disk, None)
            },
            None => Node::new(id),
        };
        if let Some(obs) = self.obs {
            node.install_obs(obs);
        }
        Ok(node)
    }
}
