//! A fail-silent node: stable + volatile halves, two-phase-commit state
//! machines, at-most-once RPC server, replica state.

use std::collections::{BTreeSet, HashMap, HashSet};

use chroma_base::{NodeId, ObjectId};
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use chroma_store::{codec, StableStore, StoreBytes};

use crate::msg::{Effect, Message, TimerTag, TxnId, Write};

/// How often (simulated µs) protocol timers re-fire.
pub const RETRY_INTERVAL: u64 = 50_000;
/// Prepare attempts before a coordinator unilaterally aborts.
pub const MAX_PREPARE_ATTEMPTS: u32 = 5;
/// Decision retransmissions before the coordinator stops pushing (the
/// durable commit record still answers queries afterwards).
pub const MAX_DECISION_ATTEMPTS: u32 = 50;

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

/// Volatile coordinator state for an in-flight transaction.
#[derive(Clone, Debug)]
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

/// A simulated fail-silent workstation.
///
/// Everything in the *stable* section survives [`Node::crash`];
/// everything volatile is lost, and [`Node::recover`] rebuilds
/// obligations from the 2PC log — re-sending decisions for
/// committed-but-unacknowledged transactions and querying coordinators
/// for prepared-but-undecided ones.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    /// `false` while crashed: the simulation drops deliveries.
    pub up: bool,
    // ---- stable ----
    /// Installed object states; a batch installs atomically.
    pub store: StableStore,
    /// The 2PC log, in append order. Handlers append through
    /// `Node::log`; [`Node::crash`] never clears it.
    tpc_log: Vec<TpcRecord>,
    // ---- durability barrier bookkeeping (process deployments) ----
    /// `tpc_log` records [`Node::persist_durable`] already wrote.
    persisted_records: usize,
    /// Store objects written since the last barrier that wrote.
    dirty: BTreeSet<ObjectId>,
    // ---- volatile ----
    coord: HashMap<TxnId, CoordState>,
    /// Transactions this node will refuse to prepare (fault injection).
    pub veto: HashSet<TxnId>,
    rpc_seen: HashMap<(NodeId, u64), StoreBytes>,
    rpc_calls: HashMap<u64, RpcCall>,
    next_call: u64,
    /// Replicated objects considered stale until a peer confirms.
    pub stale: HashSet<ObjectId>,
    /// Peers per replicated object (for pull-on-recover).
    pub replica_peers: HashMap<ObjectId, Vec<NodeId>>,
    /// Peers whose pull response is still outstanding, per object
    /// (volatile; populated on recovery).
    pull_pending: HashMap<ObjectId, HashSet<NodeId>>,
    /// Observability handle (survives crashes: instrumentation is not
    /// part of the simulated machine).
    obs: ObsCell,
}

impl Node {
    /// Creates an up, empty node.
    #[must_use]
    pub fn new(id: NodeId) -> Self {
        Node {
            id,
            up: true,
            store: StableStore::new(),
            tpc_log: Vec::new(),
            persisted_records: 0,
            dirty: BTreeSet::new(),
            coord: HashMap::new(),
            veto: HashSet::new(),
            rpc_seen: HashMap::new(),
            rpc_calls: HashMap::new(),
            next_call: 1,
            stale: HashSet::new(),
            replica_peers: HashMap::new(),
            pull_pending: HashMap::new(),
            obs: ObsCell::new(),
        }
    }

    /// Starts building a node, mirroring `Runtime::builder()`: identity
    /// and observability can come from a [`Transport`], and durable
    /// state can be restored from a [`DiskStore`].
    ///
    /// [`Transport`]: crate::Transport
    /// [`DiskStore`]: chroma_store::DiskStore
    #[must_use]
    pub fn builder() -> NodeBuilder<'static> {
        NodeBuilder::default()
    }

    /// The node's current observability handle (already bound to its
    /// identity).
    fn obs(&self) -> Obs {
        self.obs.get()
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

    /// Appends `record` to the 2PC log. A simulated crash never loses
    /// it; a process host forces it with [`Node::persist_durable`].
    fn log(&mut self, record: TpcRecord) {
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
        self.coord.insert(
            txn,
            CoordState {
                participants,
                writes,
                votes: HashSet::new(),
                decided: None,
                acked: HashSet::new(),
                prepare_attempts: 0,
                decision_attempts: 0,
                begin_at_us: self.obs().now_us(),
            },
        );
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
                        self.write_stable(updates);
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
                self.write_stable(vec![(ObjectId::from_raw(raw), StoreBytes::from(state))]);
                RpcResult::Done
            }
            Ok(RpcOp::Get(raw)) => {
                RpcResult::Value(self.store.read(ObjectId::from_raw(raw)).map(|b| b.to_vec()))
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
            self.write_versioned(object, version, &state);
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

    /// Reads a replicated object's `(version, state)` from the store.
    #[must_use]
    pub fn read_versioned(&self, object: ObjectId) -> Option<(u64, StoreBytes)> {
        let bytes = self.store.read(object)?;
        let (version, state): (u64, Vec<u8>) = codec::from_bytes(&bytes).ok()?;
        Some((version, StoreBytes::from(state)))
    }

    /// Writes a replicated object's `(version, state)` to the store.
    pub fn write_versioned(&mut self, object: ObjectId, version: u64, state: &[u8]) {
        let bytes = codec::to_bytes(&(version, state.to_vec())).expect("versioned encodes");
        self.write_stable(vec![(object, StoreBytes::from(bytes))]);
        self.obs().emit(EventKind::ReplicaInstall {
            node: self.id,
            object,
            version,
        });
    }

    /// Commits `updates` to the stable store and marks them for the
    /// next [`Node::persist_durable`] — the one way a handler writes the
    /// store.
    fn write_stable(&mut self, updates: Vec<(ObjectId, StoreBytes)>) {
        self.dirty.extend(updates.iter().map(|(object, _)| *object));
        self.store.commit_batch(updates);
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

    /// Crashes the node: volatile state vanishes.
    pub fn crash(&mut self) {
        self.up = false;
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

    /// Recovers the node: rebuilds protocol obligations from the
    /// durable log and pulls replica state from peers. Returns the
    /// effects to schedule.
    pub fn recover(&mut self) -> Vec<Effect> {
        self.up = true;
        let mut effects = Vec::new();

        // Coordinator obligations: committed but not ended → push the
        // decision again.
        let records = &self.tpc_log;
        let ended: HashSet<TxnId> = records
            .iter()
            .filter_map(|r| match r {
                TpcRecord::CoordEnd { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        for record in records {
            if let TpcRecord::CoordCommit { txn, participants } = record {
                if !ended.contains(txn) {
                    self.coord.insert(
                        *txn,
                        CoordState {
                            participants: participants.clone(),
                            writes: HashMap::new(),
                            votes: HashSet::new(),
                            decided: Some(true),
                            acked: HashSet::new(),
                            prepare_attempts: 0,
                            decision_attempts: 0,
                            begin_at_us: self.obs().now_us(),
                        },
                    );
                    for &to in participants {
                        effects.push(Effect::Send {
                            to,
                            msg: Message::Decision {
                                txn: *txn,
                                commit: true,
                            },
                        });
                    }
                    effects.push(Effect::SetTimer {
                        delay: RETRY_INTERVAL,
                        tag: TimerTag::DecisionRetry(*txn),
                    });
                }
            }
        }

        // Participant obligations: prepared but not done → query.
        let done: HashSet<TxnId> = records
            .iter()
            .filter_map(|r| match r {
                TpcRecord::ParticipantDone { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        for record in records {
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
    // Durability barrier (process deployments)
    // ------------------------------------------------------------------

    /// The node's durability barrier: writes what changed in its
    /// stable half since the last barrier that wrote — the objects its
    /// handlers installed and the 2PC records they appended — into
    /// `disk` as one atomic batch. A `chroma-node` process calls this
    /// after every dispatch, before the resulting messages leave.
    ///
    /// Each record lands at its own object id, [`TPC_LOG_BASE`] + its
    /// log index, so the log on disk grows by the records written and
    /// never by the log's length. A handler that changed nothing costs
    /// no write and no fsync. Neither does one whose only new records
    /// are `CoordEnd`s: losing an end record only makes a recovered
    /// coordinator re-send a decision its participants acknowledge
    /// again, so it waits for the next barrier that writes. Everything
    /// else — `Prepared`, `CoordCommit`, a participant's install with
    /// its `ParticipantDone` — is forced before its messages leave.
    ///
    /// # Errors
    ///
    /// [`DiskError`](chroma_store::DiskError) on filesystem failure;
    /// nothing counts as written then, so the next barrier retries it.
    pub fn persist_durable(
        &mut self,
        disk: &chroma_store::DiskStore,
    ) -> Result<(), chroma_store::DiskError> {
        let first = self.persisted_records;
        let records = &self.tpc_log[first..];
        let lazy_only = records
            .iter()
            .all(|r| matches!(r, TpcRecord::CoordEnd { .. }));
        if self.dirty.is_empty() && lazy_only {
            return Ok(());
        }
        let mut updates: Vec<(ObjectId, StoreBytes)> =
            Vec::with_capacity(self.dirty.len() + records.len());
        for &object in &self.dirty {
            if let Some(state) = self.store.read(object) {
                updates.push((object, state));
            }
        }
        for (index, record) in (first..).zip(records) {
            updates.push((
                tpc_record_object(index),
                StoreBytes::from(crate::wire::encode_records(std::slice::from_ref(record))),
            ));
        }
        disk.commit_batch(updates)?;
        self.persisted_records = self.tpc_log.len();
        self.dirty.clear();
        Ok(())
    }

    /// Restores the stable half that [`persist_durable`] wrote into a
    /// freshly built node: object states re-enter the in-memory stable
    /// store, and the 2PC records re-enter the durable log in index
    /// order. Later barriers then write only records appended after
    /// these. Ignores objects outside the node's namespace (e.g. ones
    /// a co-hosted `Runtime` allocated).
    ///
    /// [`persist_durable`]: Node::persist_durable
    ///
    /// # Errors
    ///
    /// [`DiskError`](chroma_store::DiskError) on filesystem failure.
    /// [`DiskError::CorruptLog`](chroma_store::DiskError::CorruptLog)
    /// if the record ids are not dense from [`TPC_LOG_BASE`] (every
    /// barrier writes a contiguous run atomically, so a hole is damage)
    /// or an object there does not hold exactly one record.
    pub fn restore_durable(
        &mut self,
        disk: &chroma_store::DiskStore,
    ) -> Result<(), chroma_store::DiskError> {
        let corrupt = chroma_store::DiskError::CorruptLog;
        let mut updates = Vec::new();
        let mut indices = Vec::new();
        for object in disk.object_ids()? {
            let raw = object.as_raw();
            if raw >= TPC_LOG_BASE.as_raw() {
                indices.push(raw - TPC_LOG_BASE.as_raw());
            } else if raw >= MIRROR_FLOOR {
                if let Some(state) = disk.read(object)? {
                    updates.push((object, state));
                }
            }
        }
        indices.sort_unstable();
        for (expected, index) in (0u64..).zip(indices) {
            if index != expected {
                return Err(corrupt(format!(
                    "tpc log: record {expected} missing (next on disk is {index})"
                )));
            }
            let blob = disk
                .read(tpc_record_object(index as usize))?
                .ok_or_else(|| corrupt(format!("tpc log: record {index} vanished")))?;
            let records = crate::wire::decode_records(&blob)
                .map_err(|e| corrupt(format!("tpc log record {index}: {e}")))?;
            let Ok([record]) = <[TpcRecord; 1]>::try_from(records) else {
                return Err(corrupt(format!(
                    "tpc log record {index}: want exactly one record"
                )));
            };
            self.tpc_log.push(record);
        }
        self.persisted_records = self.tpc_log.len();
        if !updates.is_empty() {
            self.store.commit_batch(updates);
        }
        Ok(())
    }
}

/// The first of the object ids where [`Node::persist_durable`] keeps
/// the 2PC log inside a shared [`DiskStore`](chroma_store::DiskStore):
/// record `i` of the log lives at `TPC_LOG_BASE + i`, one encoded
/// record per object — far above any real object id.
pub const TPC_LOG_BASE: ObjectId = ObjectId::from_raw(1 << 62);

/// The object holding 2PC log record `index`.
fn tpc_record_object(index: usize) -> ObjectId {
    ObjectId::from_raw(TPC_LOG_BASE.as_raw() + index as u64)
}

/// Lowest object id [`Node::restore_durable`] treats as persisted node
/// state; ids below belong to a co-hosted `Runtime`.
const MIRROR_FLOOR: u64 = 1_000;

impl Observable for Node {
    /// Installs an observability handle, forwarding it to the stable
    /// store so its WAL events flow through too.
    ///
    /// The handle is rebound to this node's identity first, so every
    /// event the node (or its store) emits carries a `node` field
    /// and ticks this node's Lamport clock.
    fn install_obs(&self, obs: Obs) {
        let obs = obs.at_node(self.id);
        self.store.install_obs(obs.clone());
        self.obs.set(obs);
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
pub struct NodeBuilder<'a> {
    id: Option<NodeId>,
    obs: Option<Obs>,
    backend: Option<&'a chroma_store::DiskStore>,
}

impl<'a> NodeBuilder<'a> {
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

    /// Restores the node's stable half from what
    /// [`Node::persist_durable`] wrote into `disk`, at build time.
    #[must_use]
    pub fn backend(self, disk: &chroma_store::DiskStore) -> NodeBuilder<'_> {
        NodeBuilder {
            id: self.id,
            obs: self.obs,
            backend: Some(disk),
        }
    }

    /// Builds the node: restore durable state first (quietly), then
    /// install observability.
    ///
    /// # Errors
    ///
    /// [`DiskError`](chroma_store::DiskError) if restoring from the
    /// backend fails.
    ///
    /// # Panics
    ///
    /// Panics if no identity was provided via [`NodeBuilder::id`] or
    /// [`NodeBuilder::transport`].
    pub fn build(self) -> Result<Node, chroma_store::DiskError> {
        let id = self.id.expect("NodeBuilder requires an id or transport");
        let mut node = Node::new(id);
        if let Some(disk) = self.backend {
            node.restore_durable(disk)?;
        }
        if let Some(obs) = self.obs {
            node.install_obs(obs);
        }
        Ok(node)
    }
}
