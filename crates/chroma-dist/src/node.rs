//! A fail-silent node: stable + volatile halves, two-phase-commit state
//! machines, at-most-once RPC server, replica state.

use std::collections::{HashMap, HashSet};

use chroma_base::{NodeId, ObjectId};
use chroma_obs::{EventKind, Obs, ObsCell, Observable};
use chroma_store::{codec, DurableLog, StableStore, StoreBytes};

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

/// Volatile participant state.
#[derive(Clone, Debug)]
struct PartState {
    coordinator: NodeId,
    done: bool,
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
/// obligations from the durable logs — re-sending decisions for
/// committed-but-unacknowledged transactions and querying coordinators
/// for prepared-but-undecided ones.
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    /// `false` while crashed: the simulation drops deliveries.
    pub up: bool,
    // ---- stable ----
    /// Installed object states (intentions-list commit inside).
    pub store: StableStore,
    tpc_log: DurableLog<TpcRecord>,
    // ---- volatile ----
    coord: HashMap<TxnId, CoordState>,
    part: HashMap<TxnId, PartState>,
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
            tpc_log: DurableLog::new(),
            coord: HashMap::new(),
            part: HashMap::new(),
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
        let committed = self
            .tpc_log
            .entries()
            .iter()
            .any(|r| matches!(r, TpcRecord::CoordCommit { txn: t, .. } if *t == txn));
        if committed {
            Some(true)
        } else {
            None
        }
    }

    /// Returns `true` while this node, as coordinator, still holds
    /// volatile state for `txn` — the transaction is in flight (votes
    /// or acks outstanding). Process hosts poll this to know when a
    /// transaction no longer needs driving.
    #[must_use]
    pub fn coordinator_active(&self, txn: TxnId) -> bool {
        self.coord.contains_key(&txn)
    }

    /// Returns `true` if this node, as a participant, installed `txn`'s
    /// writes.
    #[must_use]
    pub fn installed(&self, txn: TxnId) -> bool {
        let mut prepared = false;
        let mut done = false;
        for record in self.tpc_log.entries() {
            match record {
                TpcRecord::Prepared { txn: t, .. } if t == txn => prepared = true,
                TpcRecord::ParticipantDone { txn: t } if t == txn => done = true,
                _ => {}
            }
        }
        // `Prepared` + `Done` means the decision was processed; whether
        // it installed depends on the decision — check the store via
        // the writes. Simplest reliable signal: done with commit means
        // the store contains the written states; tests check the store
        // directly. Here we report "obligation resolved".
        prepared && done
    }

    /// Returns `true` if the participant has a prepared-but-unresolved
    /// obligation for `txn`.
    #[must_use]
    pub fn in_doubt(&self, txn: TxnId) -> bool {
        let mut prepared = false;
        let mut done = false;
        for record in self.tpc_log.entries() {
            match record {
                TpcRecord::Prepared { txn: t, .. } if t == txn => prepared = true,
                TpcRecord::ParticipantDone { txn: t } if t == txn => done = true,
                _ => {}
            }
        }
        prepared && !done
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
        let participants: Vec<NodeId> = writes.keys().copied().collect();
        let mut effects = Vec::new();
        for (&to, w) in &writes {
            effects.push(Effect::Send {
                to,
                msg: Message::Prepare {
                    txn,
                    writes: w.clone(),
                    coordinator: self.id,
                },
            });
        }
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
        if commit {
            // The commit point: durable before any Decision leaves.
            self.tpc_log.append(TpcRecord::CoordCommit {
                txn,
                participants: state.participants.clone(),
            });
        }
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
                self.tpc_log.append(TpcRecord::CoordEnd { txn });
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
        let committed = self
            .tpc_log
            .entries()
            .iter()
            .any(|r| matches!(r, TpcRecord::CoordCommit { txn: t, .. } if *t == txn));
        vec![Effect::Send {
            to: from,
            msg: Message::Decision {
                txn,
                commit: committed,
            },
        }]
    }

    // ------------------------------------------------------------------
    // Two-phase commit: participant
    // ------------------------------------------------------------------

    fn on_prepare(&mut self, txn: TxnId, writes: Vec<Write>, coordinator: NodeId) -> Vec<Effect> {
        // Deduplicate: already done → ignore; already prepared →
        // re-vote.
        let mut prepared = false;
        let mut done = false;
        for record in self.tpc_log.entries() {
            match record {
                TpcRecord::Prepared { txn: t, .. } if t == txn => prepared = true,
                TpcRecord::ParticipantDone { txn: t } if t == txn => done = true,
                _ => {}
            }
        }
        if done {
            return Vec::new();
        }
        if prepared {
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
        self.tpc_log.append(TpcRecord::Prepared {
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
        self.part.insert(
            txn,
            PartState {
                coordinator,
                done: false,
            },
        );
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
        let mut prepared_writes: Option<Vec<Write>> = None;
        let mut done = false;
        for record in self.tpc_log.entries() {
            match record {
                TpcRecord::Prepared { txn: t, writes, .. } if t == txn => {
                    prepared_writes = Some(writes)
                }
                TpcRecord::ParticipantDone { txn: t } if t == txn => done = true,
                _ => {}
            }
        }
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
                        self.store.commit_batch(updates);
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
            if let Some(state) = self.part.get_mut(&txn) {
                state.done = true;
            }
            self.tpc_log.append(TpcRecord::ParticipantDone { txn });
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
                self.store
                    .commit_batch(vec![(ObjectId::from_raw(raw), StoreBytes::from(state))]);
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
        self.store
            .commit_batch(vec![(object, StoreBytes::from(bytes))]);
        self.obs().emit(EventKind::ReplicaInstall {
            node: self.id,
            object,
            version,
        });
    }

    // ------------------------------------------------------------------
    // Event entry points (called by the simulation)
    // ------------------------------------------------------------------

    /// Handles a delivered message. Crashed nodes never get here.
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

    /// Handles a timer firing. Crashed nodes never get here.
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
                if !self.in_doubt(txn) {
                    return Vec::new();
                }
                let coordinator = self.part.get(&txn).map(|p| p.coordinator).or_else(|| {
                    self.tpc_log.entries().iter().find_map(|r| match r {
                        TpcRecord::Prepared {
                            txn: t,
                            coordinator,
                            ..
                        } if *t == txn => Some(*coordinator),
                        _ => None,
                    })
                });
                let Some(coordinator) = coordinator else {
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
        self.part.clear();
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

    /// Recovers the node: replays the stable store, rebuilds protocol
    /// obligations from the durable log, pulls replica state from
    /// peers. Returns the effects to schedule.
    pub fn recover(&mut self) -> Vec<Effect> {
        self.up = true;
        self.store.recover();
        let mut effects = Vec::new();

        // Coordinator obligations: committed but not ended → push the
        // decision again.
        let records = self.tpc_log.entries();
        let ended: HashSet<TxnId> = records
            .iter()
            .filter_map(|r| match r {
                TpcRecord::CoordEnd { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        for record in &records {
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
        for record in &records {
            if let TpcRecord::Prepared {
                txn, coordinator, ..
            } = record
            {
                if !done.contains(txn) {
                    self.part.insert(
                        *txn,
                        PartState {
                            coordinator: *coordinator,
                            done: false,
                        },
                    );
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
    // Durable mirroring (process deployments)
    // ------------------------------------------------------------------

    /// Mirrors the node's stable half — installed object states and the
    /// 2PC log — into `disk`, atomically. A `chroma-node` process calls
    /// this as its durability barrier: after a handler mutated stable
    /// state, before the resulting messages leave.
    ///
    /// # Errors
    ///
    /// [`DiskError`](chroma_store::DiskError) on filesystem failure.
    pub fn persist_durable(
        &self,
        disk: &chroma_store::DiskStore,
    ) -> Result<(), chroma_store::DiskError> {
        let mut updates: Vec<(ObjectId, StoreBytes)> = Vec::new();
        for object in self.store.object_ids() {
            if let Some(state) = self.store.read(object) {
                updates.push((object, state));
            }
        }
        let records = self.tpc_log.entries();
        updates.push((
            TPC_LOG_OBJECT,
            StoreBytes::from(crate::wire::encode_records(&records)),
        ));
        disk.commit_batch(updates)
    }

    /// Restores the stable half from a [`persist_durable`] mirror:
    /// object states re-enter the in-memory stable store, 2PC records
    /// re-enter the durable log. Ignores objects outside the mirror's
    /// namespace (e.g. ones a co-hosted `Runtime` allocated).
    ///
    /// [`persist_durable`]: Node::persist_durable
    ///
    /// # Errors
    ///
    /// [`DiskError`](chroma_store::DiskError) on filesystem failure or
    /// an unreadable log blob.
    pub fn restore_durable(
        &mut self,
        disk: &chroma_store::DiskStore,
    ) -> Result<(), chroma_store::DiskError> {
        let mut updates = Vec::new();
        for object in disk.object_ids()? {
            if object == TPC_LOG_OBJECT {
                if let Some(blob) = disk.read(object)? {
                    let records = crate::wire::decode_records(&blob).map_err(|e| {
                        chroma_store::DiskError::CorruptLog(format!("tpc log blob: {e}"))
                    })?;
                    for record in records {
                        self.tpc_log.append(record);
                    }
                }
            } else if (MIRROR_FLOOR..TPC_LOG_OBJECT.as_raw()).contains(&object.as_raw()) {
                if let Some(state) = disk.read(object)? {
                    updates.push((object, state));
                }
            }
        }
        if !updates.is_empty() {
            self.store.commit_batch(updates);
        }
        Ok(())
    }
}

/// Where [`Node::persist_durable`] keeps the encoded 2PC log inside a
/// shared [`DiskStore`](chroma_store::DiskStore) — far above any real
/// object id.
pub const TPC_LOG_OBJECT: ObjectId = ObjectId::from_raw(1 << 62);

/// Lowest object id [`Node::restore_durable`] treats as mirrored node
/// state; ids below belong to a co-hosted `Runtime`.
const MIRROR_FLOOR: u64 = 1_000;

impl Observable for Node {
    /// Installs an observability handle, forwarding it to the stable
    /// store and the commit log so WAL events flow through too.
    ///
    /// The handle is rebound to this node's identity first, so every
    /// event the node (or its store/log) emits carries a `node` field
    /// and ticks this node's Lamport clock.
    fn install_obs(&self, obs: Obs) {
        let obs = obs.at_node(self.id);
        self.store.install_obs(obs.clone());
        self.tpc_log.install_obs(obs.clone());
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

    /// Restores the node's stable half from a [`Node::persist_durable`]
    /// mirror in `disk` at build time.
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
