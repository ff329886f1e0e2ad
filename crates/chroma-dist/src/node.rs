//! A fail-silent node: stable + volatile halves, two-phase-commit state
//! machines, at-most-once RPC server, replica state.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
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
    /// Durable records for the presumed-abort two-phase commit.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum TpcRecord {
        /// Coordinator decided commit (the commit point).
        CoordCommit {
            /// The transaction.
            txn: TxnId,
            /// The participants that must learn the decision.
            participants: Vec<NodeId>,
        },
        /// Every participant acknowledged; the record can be forgotten.
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
        ParticipantDone {
            /// The transaction.
            txn: TxnId,
        },
    }
}

/// Volatile coordinator state for an in-flight transaction.
#[derive(Clone, Debug, Default)]
struct CoordState {
    participants: Vec<NodeId>,
    writes: HashMap<NodeId, Vec<Write>>,
    votes: HashSet<NodeId>,
    decided: Option<bool>,
    acked: HashSet<NodeId>,
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
/// and [`Node::barrier`] commits them as one batch. A crash loses
/// everything volatile, the stage included; [`Node::recover`] reads the
/// 2PC log back from the store and rebuilds obligations from it —
/// re-sending decisions for committed-but-unacknowledged transactions
/// and querying coordinators for prepared-but-undecided ones.
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
    /// The 2PC log: the records in `store`, then the staged ones.
    tpc_log: Vec<TpcRecord>,
    /// Object states and 2PC records staged for the next barrier.
    stage: BTreeMap<ObjectId, StoreBytes>,
    /// The stage holds more than `CoordEnd`s: the next barrier writes.
    stage_forced: bool,
    coord: HashMap<TxnId, CoordState>,
    /// Transactions this node will refuse to prepare (fault injection).
    pub veto: HashSet<TxnId>,
    rpc_seen: HashMap<(NodeId, u64), StoreBytes>,
    rpc_calls: HashMap<u64, RpcCall>,
    next_call: u64,
    /// Replicated objects considered stale until a peer confirms.
    pub stale: HashSet<ObjectId>,
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
            tpc_log: Vec::new(),
            stage: BTreeMap::new(),
            stage_forced: false,
            coord: HashMap::new(),
            veto: HashSet::new(),
            rpc_seen: HashMap::new(),
            rpc_calls: HashMap::new(),
            next_call: 1,
            stale: HashSet::new(),
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
        // Fall back to the durable log (post-crash).
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

    /// Returns `true` once this node, as a participant, prepared `txn`
    /// and then processed its decision — commit or abort alike.
    #[must_use]
    pub fn resolved(&self, txn: TxnId) -> bool {
        matches!(self.participant_log(txn), (Some(_), true))
    }

    /// Returns `true` if the participant has a prepared-but-unresolved
    /// obligation for `txn`.
    #[must_use]
    pub fn in_doubt(&self, txn: TxnId) -> bool {
        matches!(self.participant_log(txn), (Some(_), false))
    }

    /// A snapshot of the node's durable 2PC log, in append order.
    #[must_use]
    pub fn tpc_records(&self) -> Vec<TpcRecord> {
        self.tpc_log.clone()
    }

    /// Appends `record` to the 2PC log and stages it at its own
    /// object id for the next [`Node::barrier`].
    fn log(&mut self, record: TpcRecord) {
        let object = tpc_record_object(self.tpc_log.len());
        let bytes = codec::to_bytes(&record).expect("2PC records encode");
        self.stage_forced |= !matches!(record, TpcRecord::CoordEnd { .. });
        self.stage.insert(object, StoreBytes::from(bytes));
        self.tpc_log.push(record);
        self.obs().emit(EventKind::WalAppend { records: 1 });
    }

    /// This node's participant records of `txn`: the coordinator and
    /// writes of its `Prepared` record, if it prepared, and whether it
    /// logged `ParticipantDone`.
    fn participant_log(&self, txn: TxnId) -> (Option<(NodeId, &[Write])>, bool) {
        let mut prepared = None;
        let mut done = false;
        for record in &self.tpc_log {
            match record {
                TpcRecord::Prepared {
                    txn: t,
                    coordinator,
                    writes,
                } if *t == txn => prepared = Some((*coordinator, writes.as_slice())),
                TpcRecord::ParticipantDone { txn: t } if *t == txn => done = true,
                _ => {}
            }
        }
        (prepared, done)
    }

    /// Returns `true` if this node, as coordinator, logged the commit
    /// of `txn`.
    fn coord_committed(&self, txn: TxnId) -> bool {
        self.tpc_log
            .iter()
            .any(|r| matches!(r, TpcRecord::CoordCommit { txn: t, .. } if *t == txn))
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
        writes: HashMap<NodeId, Vec<Write>>,
    ) -> Vec<Effect> {
        // Fan out in node order, not map order: every later send to the
        // participants (decisions, retries) follows this list, so a
        // seeded run sends the same messages in the same order.
        let mut participants: Vec<NodeId> = writes.keys().copied().collect();
        participants.sort_unstable();
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
        // durable log — no record means presumed abort.
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
        let (prepared, done) = self.participant_log(txn);
        if done {
            return Vec::new();
        }
        if prepared.is_some() {
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
        self.obs().emit(EventKind::TpcPrepare {
            node: self.id,
            txn: txn.0,
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
        let (prepared, done) = self.participant_log(txn);
        let prepared_writes = prepared.map(|(_, writes)| writes.to_vec());
        if !done {
            self.obs().emit(EventKind::TpcResolve {
                node: self.id,
                txn: txn.0,
                commit,
            });
            if commit {
                if let Some(writes) = prepared_writes {
                    let mut updates: Vec<(ObjectId, StoreBytes)> = Vec::new();
                    let mut installed: Vec<(ObjectId, u64)> = Vec::new();
                    for w in writes {
                        if self.replica_peers.contains_key(&w.object) {
                            if let Ok((version, _)) = codec::from_bytes::<(u64, Vec<u8>)>(&w.state)
                            {
                                let local = self.read_versioned(w.object).map_or(0, |(v, _)| v);
                                if version < local {
                                    // A decision that resolved only after
                                    // this replica caught up past it:
                                    // installing would roll the copy back
                                    // (replica divergence).
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
                }
            }
            self.log(TpcRecord::ParticipantDone { txn });
        }
        vec![Effect::Send {
            to: from,
            msg: Message::Ack { txn },
        }]
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

    /// Stages `updates` for the next [`Node::barrier`] — the one way a
    /// handler writes the store — and emits the WAL events of their
    /// atomic install.
    fn stage(&mut self, updates: Vec<(ObjectId, StoreBytes)>) {
        let objects = updates.len() as u64;
        let obs = self.obs();
        obs.emit(EventKind::WalAppend {
            records: objects + 1,
        });
        self.stage.extend(updates);
        self.stage_forced = true;
        obs.emit(EventKind::WalFlush { objects });
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
                let (Some((coordinator, _)), false) = self.participant_log(txn) else {
                    return Vec::new();
                };
                vec![
                    Effect::Send {
                        to: coordinator,
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
    /// a restarted process runs), reads the 2PC log back, rebuilds
    /// protocol obligations from it and pulls replica state from peers.
    /// Returns the effects to schedule.
    ///
    /// # Panics
    ///
    /// If the store cannot be reopened or its 2PC log is damaged
    /// (fail-silent).
    pub fn recover(&mut self) -> Vec<Effect> {
        self.up = true;
        if let Some(disk) = &self.disk {
            self.store =
                open_memory_store(disk).unwrap_or_else(|e| fail_silent("reopen its store", &e));
        }
        self.tpc_log =
            read_tpc_log(&self.store).unwrap_or_else(|e| fail_silent("read its 2PC log", &e));
        let (mut ended, mut done) = (HashSet::new(), HashSet::new());
        for record in &self.tpc_log {
            match record {
                TpcRecord::CoordEnd { txn } => ended.insert(*txn),
                TpcRecord::ParticipantDone { txn } => done.insert(*txn),
                _ => false,
            };
        }
        let mut effects = Vec::new();

        // Coordinator obligations: committed but not ended → push the
        // decision again.
        let now = self.obs().now_us();
        for record in &self.tpc_log {
            let TpcRecord::CoordCommit { txn, participants } = record else {
                continue;
            };
            if ended.contains(txn) {
                continue;
            }
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

        // Participant obligations: prepared but not done → query.
        for record in &self.tpc_log {
            if let TpcRecord::Prepared {
                txn, coordinator, ..
            } = record
            {
                if !done.contains(txn) {
                    effects.push(Effect::Send {
                        to: *coordinator,
                        msg: Message::DecisionQuery { txn: *txn },
                    });
                    effects.push(Effect::SetTimer {
                        delay: 2 * RETRY_INTERVAL,
                        tag: TimerTag::QueryDecision(*txn),
                    });
                }
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
    /// the last barrier that wrote — installed objects, and each new
    /// 2PC record at [`TPC_LOG_BASE`] + its log index — as one atomic
    /// batch. [`dispatch_with`](crate::dispatch_with) runs it after
    /// every handler, before the resulting messages leave, in the
    /// simulator and in `chroma-node` alike. A handler that staged
    /// nothing costs no write, and neither does one that staged only
    /// `CoordEnd`s: losing one only makes a recovered coordinator
    /// re-send a decision, so it waits for the next barrier that
    /// writes.
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

/// Record `i` of a node's 2PC log lives in its store at
/// `TPC_LOG_BASE + i` — far above any real object id.
pub const TPC_LOG_BASE: ObjectId = ObjectId::from_raw(1 << 62);

/// The object holding 2PC log record `index`.
fn tpc_record_object(index: usize) -> ObjectId {
    ObjectId::from_raw(TPC_LOG_BASE.as_raw() + index as u64)
}

/// Reads the 2PC log back from `store` — what a restart and a
/// simulated recovery both run. A hole in the record ids is
/// [`DiskError::CorruptLog`]: every barrier writes a contiguous run.
fn read_tpc_log(store: &DiskStore) -> Result<Vec<TpcRecord>, DiskError> {
    let corrupt = DiskError::CorruptLog;
    let mut indices: Vec<u64> = store
        .object_ids()?
        .into_iter()
        .filter(|&object| object >= TPC_LOG_BASE)
        .map(|object| object.as_raw() - TPC_LOG_BASE.as_raw())
        .collect();
    indices.sort_unstable();
    let mut log = Vec::with_capacity(indices.len());
    for (expected, index) in (0u64..).zip(indices) {
        if index != expected {
            return Err(corrupt(format!(
                "tpc log: record {expected} missing (next on disk is {index})"
            )));
        }
        let blob = store
            .read(tpc_record_object(index as usize))?
            .ok_or_else(|| corrupt(format!("tpc log: record {index} vanished")))?;
        let record = codec::from_bytes(&blob)
            .map_err(|e| corrupt(format!("tpc log record {index}: {e}")))?;
        log.push(record);
    }
    Ok(log)
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
    /// ticks its Lamport clock. The node emits its own WAL events as it
    /// stages; its store stays unobserved.
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
    /// an in-memory disk of its own; the build reads its 2PC log back.
    #[must_use]
    pub fn backend(mut self, disk: &DiskStore) -> Self {
        self.backend = Some(disk.clone());
        self
    }

    /// Builds the node: read its 2PC log back (quietly), then install
    /// observability.
    ///
    /// # Errors
    ///
    /// [`DiskError`] if the backend's 2PC log cannot be read back.
    ///
    /// # Panics
    ///
    /// Panics if no identity was provided via [`NodeBuilder::id`] or
    /// [`NodeBuilder::transport`].
    pub fn build(self) -> Result<Node, DiskError> {
        let id = self.id.expect("NodeBuilder requires an id or transport");
        let node = match self.backend {
            Some(disk) => Node {
                tpc_log: read_tpc_log(&disk)?,
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
