//! The rule engine: one set of state machines for the paper's
//! invariants, run under one of two retention policies.
//!
//! [`Rules::step`] replays events in emission order and checks the
//! properties the paper's construction is supposed to guarantee:
//!
//! * **R1 — strict 2PL.** Once an action has released or passed on any
//!   lock (its shrinking phase), or has terminated, it acquires no
//!   further locks.
//! * **R2 — Moss inheritance.** A commit-time lock transfer must go to
//!   the *closest* ancestor that holds the lock's colour, and the
//!   transferring action must actually hold the lock.
//! * **R3 — no write without a write lock.** Every before-image
//!   (`UndoRecord`) must be covered by a write-mode lock held by that
//!   action on that object in that colour at that moment.
//! * **R4 — 2PC safety.** All decision and resolution events for one
//!   transaction agree; a commit decision requires a yes-vote from
//!   every participant and no observed no-vote.
//! * **R5 — per-replica version monotonicity.** A member never
//!   installs a version of a replicated object lower than one it has
//!   already installed (a late two-phase-commit decision must not roll
//!   a caught-up copy backwards).
//! * **R6 — no read from a catching-up replica.** A read is never
//!   served from a member between its `CatchupBegin` and `CatchupEnd`
//!   for that object, and never from a copy flagged stale.
//! * **R7 — bounded staleness.** A served read, and a member rejoining
//!   after catch-up, may lag the highest version any member has
//!   installed by at most the configured window
//!   ([`with_staleness_window`](crate::TraceAuditor::with_staleness_window),
//!   default 1 — the one write the group may have in flight).
//! * **R8 — no happens-before inversion.** Causality, as witnessed by
//!   the per-node Lamport clocks (`lc`) and send/receive correlation
//!   ids (`corr`): a delivery's merged clock must strictly exceed the
//!   matching send's, every delivery must correlate to a send the
//!   trace contains, a child action's whole span must be enclosed by
//!   its parent's (begin after the parent begins, terminate before
//!   the parent terminates), and a 2PC commit decision must causally
//!   follow every yes-vote it counts. Clock checks only apply to
//!   events that were stamped (`lc > 0`), so pre-causality traces
//!   still audit.
//! * **R9 — group-commit coverage.** Every committed batch's marker
//!   (`DiskAppend`) is covered by exactly one group fsync
//!   (`DiskGroupCommit` must declare precisely the batches appended
//!   since the previous group flush), and recovery (`DiskReplay`)
//!   replays exactly the batches whose markers were group-fsynced but
//!   never checkpointed. Recovery folds nothing, so those batches stay
//!   marked: a second crash before a checkpoint replays them again,
//!   plus everything committed since. The rule only arms once the
//!   trace contains a `DiskGroupCommit`, so pre-group-commit traces
//!   still audit; a replay seen before that is where the trace
//!   attached, and its batches become the starting count.
//! * **R10 — snapshot-read correctness.** A declared read-only action
//!   (`SnapshotOpen`, one captured stamp) must (a) serve every
//!   `SnapshotRead` from the *newest* published version
//!   (`VersionPublish`) whose stamp is `<=` the snapshot's stamp,
//!   whatever the version's colour — stamp 0 meaning the base/stable
//!   state — and (b) never appear in
//!   lock traffic (a grant, or a conflict: a waiting snapshot reader
//!   would be a waits-for edge). Version chains are volatile,
//!   so a `NodeCrash` resets the node's published history: post-crash
//!   snapshots correctly see the stable state as stamp 0.
//! * **R11 — segment lifecycle.** The segmented intentions log's
//!   maintenance never loses a committed batch: a segment is
//!   garbage-collected (`SegmentGc`) only at or below the checkpoint
//!   watermark (`CheckpointEnd`'s `upto`), and recovery (`DiskReplay`)
//!   replays exactly the manifest's live suffix — the batches sealed
//!   into uncheckpointed segments (`SegmentSeal`) plus those committed
//!   into the active segment since the last seal, replayed ones
//!   included (recovery keeps every live segment and appends to the
//!   last). The rule only arms once the trace contains a
//!   `SegmentSeal`, so pre-segment traces still audit. Segments whose
//!   seal the trace cannot have seen (it attached at a replay) are
//!   not guessed: the replay check waits until a checkpoint passes
//!   them.
//!
//! The engine is deliberately independent of the runtime: it sees only
//! the trace, so a bug that corrupts runtime state *and* its own
//! bookkeeping is still caught as long as the emitted events disagree
//! with each other.
//!
//! # Retention policies
//!
//! The rules are stated once; what differs between the offline
//! [`TraceAuditor`](crate::TraceAuditor) and the in-line
//! [`Watchdog`](crate::Watchdog) is only how long state is kept
//! (`Retention`):
//!
//! * **exact** never evicts, evaluates R1–R11, and treats a reference
//!   to an action the trace never began as a defect
//!   ([`Violation::UnknownAction`]; the action is tracked from that
//!   first reference on as holding exactly what the trace grants it,
//!   with no ancestors).
//! * **windowed** keeps bounded state ([`Windows`]): per-action state
//!   is keyed by *live* actions and evicted on commit/abort, recently
//!   terminated ids sit in a fixed ring so a grant to a dead action is
//!   still R1, 2PC state is an insertion-ordered window of recent
//!   transactions, R9 is two counters and a flag, R11 keeps a window
//!   of uncheckpointed sealed segments (the GC-behind-watermark check
//!   needs only the watermark and stays exact), and R10 keeps the
//!   newest publications per object over a bounded set of objects.
//!   A check whose answer fell off a window — or concerns an action
//!   that began before the engine attached — is *skipped*, never
//!   guessed: the windowed policy trades completeness for bounded
//!   memory, so its findings are a subset of the exact policy's.
//!   R5–R8 need unbounded history (every send, every install) and are
//!   neither evaluated nor given state.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::num::NonZeroU64;

use chroma_base::{ActionId, Colour, LockMode, NodeId, ObjectId};

use crate::event::{Event, EventKind, WatchdogRule};

/// One invariant breach found in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// R1: a lock was granted to an action already past its shrinking
    /// point (released/inherited a lock, or terminated).
    LockAfterShrink {
        /// The offending action.
        action: ActionId,
        /// The object granted.
        object: ObjectId,
        /// The colour granted.
        colour: Colour,
    },
    /// R2: a lock was inherited by something other than the closest
    /// ancestor holding the colour.
    BadInheritTarget {
        /// The committing action.
        from: ActionId,
        /// Who actually received the lock.
        to: ActionId,
        /// Who should have (`None` = no ancestor holds the colour, so
        /// the lock should have been released instead).
        expected: Option<ActionId>,
        /// The object concerned.
        object: ObjectId,
        /// The colour concerned.
        colour: Colour,
    },
    /// R2: an action passed on a lock the trace never granted it.
    InheritWithoutLock {
        /// The committing action.
        from: ActionId,
        /// The object concerned.
        object: ObjectId,
        /// The colour concerned.
        colour: Colour,
    },
    /// An action released a lock the trace never granted it.
    ReleaseWithoutLock {
        /// The releasing action.
        action: ActionId,
        /// The object concerned.
        object: ObjectId,
        /// The colour concerned.
        colour: Colour,
    },
    /// R3: a before-image was recorded without a write-mode lock.
    WriteWithoutWriteLock {
        /// The writing action.
        action: ActionId,
        /// The object written.
        object: ObjectId,
        /// The colour of the write.
        colour: Colour,
    },
    /// R4: two decision/resolution events for one transaction disagree.
    DivergentDecision {
        /// The transaction.
        txn: u64,
        /// The node that emitted the conflicting event.
        node: NodeId,
        /// What the trace had already established.
        earlier: bool,
        /// What this event claims.
        later: bool,
    },
    /// R4: a commit decision without a yes-vote from every participant.
    CommitWithoutQuorum {
        /// The transaction.
        txn: u64,
        /// Distinct yes-voters seen before the decision.
        yes_votes: u64,
        /// Participants the decision itself declares.
        participants: u64,
    },
    /// R4: a commit decision although some participant voted no.
    CommitDespiteNoVote {
        /// The transaction.
        txn: u64,
        /// A no-voter.
        node: NodeId,
    },
    /// R5: a member installed a lower version of a replicated object
    /// than one it had already installed.
    ReplicaVersionRegression {
        /// The regressing member.
        node: NodeId,
        /// The replicated object.
        object: ObjectId,
        /// The version previously installed.
        from: u64,
        /// The lower version installed now.
        to: u64,
    },
    /// R6: a read was served from a member still catching up (inside
    /// its `CatchupBegin`..`CatchupEnd` window, or flagged stale).
    ReadDuringCatchup {
        /// The serving member.
        node: NodeId,
        /// The replicated object.
        object: ObjectId,
    },
    /// R7: a served or rejoin version lagged the group's highest
    /// installed version by more than the staleness window.
    StalenessWindowExceeded {
        /// The lagging member.
        node: NodeId,
        /// The replicated object.
        object: ObjectId,
        /// The lagging version.
        version: u64,
        /// The highest version any member had installed by then.
        latest: u64,
        /// The configured window.
        window: u64,
    },
    /// The trace references an action never begun (truncated or
    /// corrupted trace, or a missing emission site).
    UnknownAction {
        /// The unknown action.
        action: ActionId,
        /// Which event kind referenced it.
        context: &'static str,
    },
    /// R8: a delivery's Lamport clock did not exceed the matching
    /// send's — the receive failed to merge the sender's clock, so
    /// the trace cannot order the pair causally.
    ClockInversion {
        /// The correlation id pairing the two events.
        corr: u64,
        /// The send's clock.
        send_lc: u64,
        /// The delivery's (not greater) clock.
        recv_lc: u64,
    },
    /// R8: a delivery whose correlation id matches no send in the
    /// trace — an applied message that nothing provably caused.
    ReceiveWithoutSend {
        /// The orphaned correlation id.
        corr: u64,
        /// The node that applied the delivery.
        node: NodeId,
    },
    /// R8: a child action's span escaped its parent's — it began
    /// after the parent terminated, or was still live when the parent
    /// terminated.
    ChildOutsideParent {
        /// The escaping child.
        child: ActionId,
        /// Its parent.
        parent: ActionId,
    },
    /// R8: a 2PC commit decision whose Lamport clock does not exceed
    /// a counted yes-vote's — the decision cannot have causally
    /// followed the vote it claims to be based on.
    CommitBeforeVote {
        /// The transaction.
        txn: u64,
        /// The yes-voter whose vote the decision did not follow.
        node: NodeId,
    },
    /// R9: a group fsync did not cover exactly the batches appended
    /// since the previous one — a marker was either flushed twice or
    /// reported durable without a covering fsync.
    GroupFsyncCoverage {
        /// Batches the `DiskGroupCommit` event declared.
        declared: u64,
        /// Batch appends the trace saw since the last group fsync.
        appended: u64,
    },
    /// R9: recovery did not replay exactly the batches whose markers
    /// were group-fsynced but never checkpointed.
    ReplayMarkMismatch {
        /// Batches the `DiskReplay` event replayed.
        replayed: u64,
        /// Marked-but-unchecked batches the trace had accumulated.
        marked: u64,
    },
    /// R10: a snapshot read did not observe the newest committed
    /// version visible at the snapshot's captured stamps.
    SnapshotReadNotNewest {
        /// The reading snapshot action.
        action: ActionId,
        /// The object read.
        object: ObjectId,
        /// The version stamp the read claims it served.
        served: u64,
        /// The newest published stamp visible at the snapshot's
        /// captured frontier (0 = the base / stable state).
        expected: u64,
    },
    /// R10: a snapshot (read-only) action appeared in lock traffic —
    /// it was granted, refused or waited for a lock, so it could
    /// appear in a waits-for edge.
    SnapshotReaderLocks {
        /// The offending snapshot action.
        action: ActionId,
        /// The object it touched in the lock table.
        object: ObjectId,
    },
    /// R11: a segment was garbage-collected above the checkpoint
    /// watermark — its committed batches were never folded into the
    /// object store, so a crash after the GC would lose them.
    GcUncheckpointedSegment {
        /// The segment the GC deleted.
        segment: u64,
        /// The checkpoint watermark at the time of the GC.
        watermark: u64,
    },
    /// R11: recovery did not replay exactly the manifest's live
    /// suffix (uncheckpointed sealed segments plus the active tail).
    ReplayManifestMismatch {
        /// Batches the `DiskReplay` event replayed.
        replayed: u64,
        /// Batches the live suffix held according to the trace.
        live: u64,
    },
}

impl Violation {
    /// The `watchdog_violation` payload `(rule, action, object, aux)`
    /// for a breach the windowed policy can also find; `None` for the
    /// exact-only findings (R5–R8, [`UnknownAction`](Self::UnknownAction),
    /// and a [`BadInheritTarget`](Self::BadInheritTarget) with no
    /// expected ancestor).
    ///
    /// `aux` is the colour index for R1–R3, the expected ancestor for
    /// `bad_inherit_target`, the transaction for R4, the declared or
    /// replayed batch count for R9 and `replay_manifest_mismatch`, the
    /// served stamp for `snapshot_read_not_newest` and the segment for
    /// `gc_uncheckpointed_segment`; rules that name no action or
    /// object carry id 0 there.
    #[must_use]
    pub fn online(&self) -> Option<(WatchdogRule, ActionId, ObjectId, u64)> {
        use Violation as V;
        let rule = match self {
            V::LockAfterShrink { .. } => WatchdogRule::LockAfterShrink,
            V::BadInheritTarget { .. } => WatchdogRule::BadInheritTarget,
            V::InheritWithoutLock { .. } => WatchdogRule::InheritWithoutLock,
            V::ReleaseWithoutLock { .. } => WatchdogRule::ReleaseWithoutLock,
            V::WriteWithoutWriteLock { .. } => WatchdogRule::WriteWithoutWriteLock,
            V::DivergentDecision { .. } => WatchdogRule::DivergentDecision,
            V::CommitWithoutQuorum { .. } => WatchdogRule::CommitWithoutQuorum,
            V::CommitDespiteNoVote { .. } => WatchdogRule::CommitDespiteNoVote,
            V::GroupFsyncCoverage { .. } => WatchdogRule::GroupFsyncCoverage,
            V::ReplayMarkMismatch { .. } => WatchdogRule::ReplayMarkMismatch,
            V::SnapshotReadNotNewest { .. } => WatchdogRule::SnapshotReadNotNewest,
            V::SnapshotReaderLocks { .. } => WatchdogRule::SnapshotReaderLocks,
            V::GcUncheckpointedSegment { .. } => WatchdogRule::GcUncheckpointedSegment,
            V::ReplayManifestMismatch { .. } => WatchdogRule::ReplayManifestMismatch,
            V::ReplicaVersionRegression { .. }
            | V::ReadDuringCatchup { .. }
            | V::StalenessWindowExceeded { .. }
            | V::UnknownAction { .. }
            | V::ClockInversion { .. }
            | V::ReceiveWithoutSend { .. }
            | V::ChildOutsideParent { .. }
            | V::CommitBeforeVote { .. } => return None,
        };
        let nobody = (ActionId::from_raw(0), ObjectId::from_raw(0));
        let ((action, object), aux) = match *self {
            V::LockAfterShrink {
                action,
                object,
                colour,
            }
            | V::InheritWithoutLock {
                from: action,
                object,
                colour,
            }
            | V::ReleaseWithoutLock {
                action,
                object,
                colour,
            }
            | V::WriteWithoutWriteLock {
                action,
                object,
                colour,
            } => ((action, object), colour.index() as u64),
            V::BadInheritTarget {
                from,
                object,
                expected,
                ..
            } => ((from, object), expected?.as_raw()),
            V::SnapshotReadNotNewest {
                action,
                object,
                served,
                ..
            } => ((action, object), served),
            V::SnapshotReaderLocks { action, object } => ((action, object), 0),
            V::DivergentDecision { txn: aux, .. }
            | V::CommitWithoutQuorum { txn: aux, .. }
            | V::CommitDespiteNoVote { txn: aux, .. }
            | V::GroupFsyncCoverage { declared: aux, .. }
            | V::ReplayMarkMismatch { replayed: aux, .. }
            | V::GcUncheckpointedSegment { segment: aux, .. }
            | V::ReplayManifestMismatch { replayed: aux, .. } => (nobody, aux),
            _ => return None,
        };
        Some((rule, action, object, aux))
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::LockAfterShrink {
                action,
                object,
                colour,
            } => write!(
                f,
                "strict 2PL: {action} granted {object}/{colour} after shrinking"
            ),
            Violation::BadInheritTarget {
                from,
                to,
                expected,
                object,
                colour,
            } => match expected {
                Some(e) => write!(
                    f,
                    "inheritance: {from} passed {object}/{colour} to {to}, closest {colour} ancestor is {e}"
                ),
                None => write!(
                    f,
                    "inheritance: {from} passed {object}/{colour} to {to}, but no ancestor holds {colour} (should release)"
                ),
            },
            Violation::InheritWithoutLock {
                from,
                object,
                colour,
            } => write!(f, "inheritance: {from} passed {object}/{colour} it never held"),
            Violation::ReleaseWithoutLock {
                action,
                object,
                colour,
            } => write!(f, "release: {action} released {object}/{colour} it never held"),
            Violation::WriteWithoutWriteLock {
                action,
                object,
                colour,
            } => write!(
                f,
                "write safety: {action} recorded an undo for {object}/{colour} without a write lock"
            ),
            Violation::DivergentDecision {
                txn,
                node,
                earlier,
                later,
            } => write!(
                f,
                "2pc: T{txn} decided {} but {node} says {}",
                verdict(*earlier),
                verdict(*later)
            ),
            Violation::CommitWithoutQuorum {
                txn,
                yes_votes,
                participants,
            } => write!(
                f,
                "2pc: T{txn} committed with {yes_votes}/{participants} yes-votes"
            ),
            Violation::CommitDespiteNoVote { txn, node } => {
                write!(f, "2pc: T{txn} committed although {node} voted no")
            }
            Violation::ReplicaVersionRegression {
                node,
                object,
                from,
                to,
            } => write!(
                f,
                "replication: {node} installed {object} v{to} after already holding v{from}"
            ),
            Violation::ReadDuringCatchup { node, object } => write!(
                f,
                "replication: a read of {object} was served from {node} while it was catching up"
            ),
            Violation::StalenessWindowExceeded {
                node,
                object,
                version,
                latest,
                window,
            } => write!(
                f,
                "replication: {node} served {object} v{version} while the group held v{latest} (window {window})"
            ),
            Violation::UnknownAction { action, context } => {
                write!(f, "trace: {context} references unknown action {action}")
            }
            Violation::ClockInversion {
                corr,
                send_lc,
                recv_lc,
            } => write!(
                f,
                "causality: delivery of corr {corr} carries lc {recv_lc}, not after the send's lc {send_lc}"
            ),
            Violation::ReceiveWithoutSend { corr, node } => write!(
                f,
                "causality: {node} applied a delivery with corr {corr} that matches no send"
            ),
            Violation::ChildOutsideParent { child, parent } => write!(
                f,
                "causality: {child}'s span is not enclosed by its parent {parent}'s"
            ),
            Violation::CommitBeforeVote { txn, node } => write!(
                f,
                "causality: T{txn}'s commit decision does not causally follow {node}'s yes-vote"
            ),
            Violation::GroupFsyncCoverage { declared, appended } => write!(
                f,
                "group commit: a group fsync declared {declared} batch(es) but {appended} were appended since the last one"
            ),
            Violation::ReplayMarkMismatch { replayed, marked } => write!(
                f,
                "group commit: recovery replayed {replayed} batch(es) but {marked} were marked and never checkpointed"
            ),
            Violation::SnapshotReadNotNewest {
                action,
                object,
                served,
                expected,
            } => write!(
                f,
                "snapshot: {action} read {object} at stamp {served}, but the newest visible version is stamp {expected}"
            ),
            Violation::SnapshotReaderLocks { action, object } => write!(
                f,
                "snapshot: read-only {action} appeared in lock traffic for {object}"
            ),
            Violation::GcUncheckpointedSegment { segment, watermark } => write!(
                f,
                "segment lifecycle: segment {segment} was GC'd above checkpoint watermark {watermark}"
            ),
            Violation::ReplayManifestMismatch { replayed, live } => write!(
                f,
                "segment lifecycle: recovery replayed {replayed} batch(es) but the manifest's live suffix held {live}"
            ),
        }
    }
}

fn verdict(commit: bool) -> &'static str {
    if commit {
        "commit"
    } else {
        "abort"
    }
}

/// Size limits of the windowed policy's state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Windows {
    /// Recently terminated action ids remembered, so a lock grant to a
    /// dead action is still flagged as R1.
    pub(crate) retired: usize,
    /// Transactions tracked for R4, evicted oldest-first.
    pub(crate) txns: usize,
    /// Version publications retained per object for R10.
    pub(crate) versions: usize,
    /// Objects with tracked publication chains; beyond this the
    /// oldest-tracked object is forgotten and reads of untracked
    /// objects go unchecked.
    pub(crate) objects: usize,
    /// Uncheckpointed sealed segments tracked for R11's
    /// replay-matches-live-suffix check; on overflow that check is
    /// skipped until a checkpoint passes the dropped seals.
    pub(crate) segments: usize,
}

impl Windows {
    /// What every installed watchdog runs with.
    pub(crate) const DEFAULT: Windows = Windows {
        retired: 4096,
        txns: 1024,
        versions: 32,
        objects: 65536,
        segments: 1024,
    };
}

/// How long the engine keeps state; see the module docs.
#[derive(Debug)]
enum Retention {
    Exact(ExactOnly),
    Windowed(Windows, Evictions),
}

/// The unbounded history R5–R8 need; exists only under the exact
/// policy.
#[derive(Debug, Default)]
struct ExactOnly {
    /// How far a served read may lag the group's highest installed
    /// version (R7).
    staleness_window: u64,
    /// Highest version each member has installed, per (node, object).
    replica_versions: HashMap<(u32, u64), u64>,
    /// Highest version *any* member has installed, per object.
    max_installed: HashMap<u64, u64>,
    /// (node, object) pairs inside an open catch-up window.
    catching_up: HashSet<(u32, u64)>,
    /// Lamport clock of the (single) send per correlation id.
    sends: HashMap<u64, u64>,
    /// Live (unterminated) children per action (R8 enclosure).
    live_children: HashMap<ActionId, BTreeSet<ActionId>>,
    /// Lamport clock of each (txn, member)'s first stamped yes-vote
    /// (R8: the commit decision must causally follow every one).
    vote_lc: HashMap<(u64, u32), u64>,
}

/// The windowed policy's eviction bookkeeping.
#[derive(Debug, Default)]
struct Evictions {
    retired: HashSet<u64>,
    retired_order: VecDeque<u64>,
    txn_order: VecDeque<u64>,
    published_order: VecDeque<(u32, u64)>,
    /// Once any whole object was evicted, an absent chain no longer
    /// means "nothing ever published" — reads of absent chains are
    /// then skipped instead of expected at the base version.
    published_evictions: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Growing,
    /// Released or passed on some lock: no further grants are legal.
    Shrinking,
    /// Committed or aborted (exact only — the windowed policy evicts
    /// instead). A terminated parent encloses no new children (R8).
    Ended,
}

#[derive(Debug)]
struct ActionState {
    /// Saw its `action_begin` (not merely adopted from a reference).
    begun: bool,
    parent: Option<ActionId>,
    colours: u64,
    phase: Phase,
    /// Strongest mode currently held per (object, colour index).
    held: HashMap<(u64, usize), LockMode>,
    /// The stamp a declared read-only action captured (saw a
    /// `snapshot_open`): it must never appear in lock traffic.
    snapshot: Option<u64>,
}

impl ActionState {
    fn new(parent: Option<ActionId>, colours: u64) -> Self {
        ActionState {
            begun: true,
            parent,
            colours,
            phase: Phase::Growing,
            held: HashMap::new(),
            snapshot: None,
        }
    }

    /// State for an action first seen through a reference.
    fn unbegun() -> Self {
        ActionState {
            begun: false,
            ..ActionState::new(None, 0)
        }
    }

    /// Releasing or passing on a lock ends the growing phase.
    fn shrink(&mut self) {
        if self.phase == Phase::Growing {
            self.phase = Phase::Shrinking;
        }
    }

    fn hold(&mut self, key: (u64, usize), mode: LockMode) {
        let slot = self.held.entry(key).or_insert(mode);
        *slot = slot.strongest(mode);
    }
}

#[derive(Debug, Default)]
struct TxnState {
    yes: BTreeSet<u32>,
    no: BTreeSet<u32>,
    decision: Option<bool>,
}

impl TxnState {
    /// Records `commit` as the transaction's verdict if it is the
    /// first (returns `true`); a later one must agree with it.
    fn decide(&mut self, txn: u64, node: NodeId, commit: bool, out: &mut Vec<Violation>) -> bool {
        let Some(earlier) = self.decision else {
            self.decision = Some(commit);
            return true;
        };
        if earlier != commit {
            out.push(Violation::DivergentDecision {
                txn,
                node,
                earlier,
                later: commit,
            });
        }
        false
    }
}

#[derive(Debug, Default)]
struct PubChain {
    /// Published stamps, in publication order.
    entries: VecDeque<u64>,
    /// Older publications were dropped; an "expected = base" answer is
    /// no longer trustworthy.
    truncated: bool,
}

/// R9/R11: the durable log's lifecycle counters.
#[derive(Debug, Default)]
struct LogState {
    /// R9: batch appends since the last group fsync.
    group_appends: u64,
    /// R9: batches covered by a group fsync but not yet checkpointed.
    marked_unchecked: u64,
    /// R9 only arms once the trace proves the store group-commits.
    saw_group_commit: bool,
    /// R11: uncheckpointed sealed segments as (sequence, batches), in
    /// seal order.
    sealed_live: VecDeque<(u64, u64)>,
    /// R11: batches committed into the active segment since the last
    /// seal.
    active_batches: u64,
    /// R11: highest checkpointed segment sequence.
    ckpt_watermark: u64,
    /// R11 only arms once the trace proves the log is segmented.
    saw_segment: bool,
    /// R11: the newest segment whose seal the state may lack (the
    /// window dropped it, or it predates a trace that attached at a
    /// replay). The replay check is skipped, never guessed, until the
    /// watermark passes it.
    unseen_upto: u64,
    /// The trace attached at a replay that found live batches: every
    /// segment before the next seal is unseen.
    attached_at_replay: bool,
}

/// The R1–R11 state machines. Feed events in emission order to
/// [`step`](Rules::step).
#[derive(Debug)]
pub(crate) struct Rules {
    retention: Retention,
    actions: HashMap<ActionId, ActionState>,
    txns: HashMap<u64, TxnState>,
    log: LogState,
    /// R10: publication chains keyed by (node raw id, object raw id);
    /// node-less local emissions key as node 0.
    published: HashMap<(u32, u64), PubChain>,
}

impl Rules {
    /// The exact policy (staleness window 1: one write may be in
    /// flight, its installs land at different times on different
    /// members).
    pub(crate) fn exact() -> Self {
        Rules::with(Retention::Exact(ExactOnly {
            staleness_window: 1,
            ..ExactOnly::default()
        }))
    }

    /// The windowed policy with the given limits (each ≥ 1).
    pub(crate) fn windowed(windows: Windows) -> Self {
        Rules::with(Retention::Windowed(windows, Evictions::default()))
    }

    fn with(retention: Retention) -> Self {
        Rules {
            retention,
            actions: HashMap::new(),
            txns: HashMap::new(),
            log: LogState::default(),
            published: HashMap::new(),
        }
    }

    /// Sets R7's staleness window (exact policy; the windowed policy
    /// does not evaluate R7).
    pub(crate) fn set_staleness_window(&mut self, window: u64) {
        if let Retention::Exact(exact) = &mut self.retention {
            exact.staleness_window = window;
        }
    }

    /// Replays one event, appending any breach it proves to `out`.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn step(&mut self, event: &Event, out: &mut Vec<Violation>) {
        let exact = matches!(self.retention, Retention::Exact(_));
        match event.kind {
            EventKind::ActionBegin {
                action,
                parent,
                colours,
            } => {
                if let (Retention::Exact(history), Some(p)) = (&mut self.retention, parent) {
                    match self.actions.get(&p).filter(|state| state.begun) {
                        None => out.push(Violation::UnknownAction {
                            action: p,
                            context: "action_begin parent",
                        }),
                        Some(state) if state.phase == Phase::Ended => {
                            out.push(Violation::ChildOutsideParent {
                                child: action,
                                parent: p,
                            });
                        }
                        Some(_) => {
                            history.live_children.entry(p).or_default().insert(action);
                        }
                    }
                }
                self.actions
                    .insert(action, ActionState::new(parent, colours));
            }
            EventKind::ActionCommit { action } | EventKind::ActionAbort { action } => {
                match &mut self.retention {
                    Retention::Exact(history) => {
                        match self.actions.get_mut(&action).filter(|state| state.begun) {
                            Some(state) => {
                                state.phase = Phase::Ended;
                                if let Some(siblings) =
                                    state.parent.and_then(|p| history.live_children.get_mut(&p))
                                {
                                    siblings.remove(&action);
                                }
                            }
                            None => out.push(Violation::UnknownAction {
                                action,
                                context: "action termination",
                            }),
                        }
                        for child in history.live_children.remove(&action).unwrap_or_default() {
                            out.push(Violation::ChildOutsideParent {
                                child,
                                parent: action,
                            });
                        }
                    }
                    Retention::Windowed(windows, w) => {
                        self.actions.remove(&action);
                        if w.retired.insert(action.as_raw()) {
                            w.retired_order.push_back(action.as_raw());
                            while w.retired_order.len() > windows.retired {
                                if let Some(old) = w.retired_order.pop_front() {
                                    w.retired.remove(&old);
                                }
                            }
                        }
                    }
                }
            }
            // R10: a read-only action must never enter the lock table,
            // not even to be refused or wait — a waiting snapshot
            // reader is a waits-for edge. (The grant arm below flags a
            // granted one.)
            EventKind::LockConflict { action, object, .. } => {
                if self
                    .actions
                    .get(&action)
                    .is_some_and(|a| a.snapshot.is_some())
                {
                    out.push(Violation::SnapshotReaderLocks { action, object });
                }
            }
            EventKind::LockGrant {
                action,
                object,
                colour,
                mode,
            } => {
                let Some(a) = acting(&mut self.actions, exact, action, Some("lock_grant"), out)
                else {
                    // a grant to a recently terminated action: shrunk
                    // for good
                    if let Retention::Windowed(_, w) = &self.retention {
                        if w.retired.contains(&action.as_raw()) {
                            out.push(Violation::LockAfterShrink {
                                action,
                                object,
                                colour,
                            });
                        }
                    }
                    return;
                };
                if a.snapshot.is_some() {
                    out.push(Violation::SnapshotReaderLocks { action, object });
                }
                if a.phase != Phase::Growing {
                    out.push(Violation::LockAfterShrink {
                        action,
                        object,
                        colour,
                    });
                }
                a.hold((object.as_raw(), colour.index()), mode);
            }
            EventKind::LockRelease {
                action,
                object,
                colour,
            } => {
                let Some(a) = acting(&mut self.actions, exact, action, None, out) else {
                    return;
                };
                a.shrink();
                if a.held.remove(&(object.as_raw(), colour.index())).is_none() {
                    out.push(Violation::ReleaseWithoutLock {
                        action,
                        object,
                        colour,
                    });
                }
            }
            EventKind::LockInherit {
                from,
                to,
                object,
                colour,
            } => {
                let key = (object.as_raw(), colour.index());
                // from an action the window does not hold, the moved
                // mode is unknown: take the strongest, so R3 skips the
                // heir's writes rather than judge them against a guess
                let mut moved = Some(LockMode::Write);
                if let Some(a) = acting(&mut self.actions, exact, from, None, out) {
                    a.shrink();
                    moved = a.held.remove(&key);
                    if moved.is_none() {
                        out.push(Violation::InheritWithoutLock {
                            from,
                            object,
                            colour,
                        });
                    }
                }
                // A walk that finds no colour holder proves "should
                // have released" only when nothing was ever evicted;
                // the windowed policy cannot tell root from evicted.
                let expected = self.closest_ancestor_with_colour(from, colour);
                if expected.map_or(exact, |e| e != to) {
                    out.push(Violation::BadInheritTarget {
                        from,
                        to,
                        expected,
                        object,
                        colour,
                    });
                }
                // the ancestor now holds the lock (it may escalate an
                // existing weaker hold)
                if let Some(target) = acting(
                    &mut self.actions,
                    exact,
                    to,
                    Some("lock_inherit target"),
                    out,
                ) {
                    target.hold(key, moved.unwrap_or(LockMode::Read));
                }
            }
            EventKind::UndoRecord {
                action,
                object,
                colour,
            } => {
                let Some(a) = acting(&mut self.actions, exact, action, Some("undo_record"), out)
                else {
                    return;
                };
                let held = a.held.get(&(object.as_raw(), colour.index()));
                if !held.is_some_and(|mode| mode.permits_write()) {
                    out.push(Violation::WriteWithoutWriteLock {
                        action,
                        object,
                        colour,
                    });
                }
            }
            EventKind::TpcVote { node, txn, yes } => {
                let state = txn_entry(&mut self.txns, &mut self.retention, txn);
                if yes {
                    state.yes.insert(node.as_raw());
                    if let (Retention::Exact(history), true) = (&mut self.retention, event.lc > 0) {
                        history
                            .vote_lc
                            .entry((txn, node.as_raw()))
                            .or_insert(event.lc);
                    }
                } else {
                    state.no.insert(node.as_raw());
                    if state.decision == Some(true) {
                        out.push(Violation::CommitDespiteNoVote { txn, node });
                    }
                }
            }
            EventKind::TpcDecide {
                node,
                txn,
                commit,
                participants,
            } => {
                let state = txn_entry(&mut self.txns, &mut self.retention, txn);
                if !state.decide(txn, node, commit, out) || !commit {
                    return;
                }
                let yes_votes = state.yes.len() as u64;
                if yes_votes < participants {
                    out.push(Violation::CommitWithoutQuorum {
                        txn,
                        yes_votes,
                        participants,
                    });
                }
                if let Some(&no_voter) = state.no.iter().next() {
                    out.push(Violation::CommitDespiteNoVote {
                        txn,
                        node: NodeId::from_raw(no_voter),
                    });
                }
                // R8: the decision must causally follow every stamped
                // yes-vote it counts.
                if let (Retention::Exact(history), true) = (&self.retention, event.lc > 0) {
                    for &voter in &state.yes {
                        let vote = history.vote_lc.get(&(txn, voter));
                        if vote.is_some_and(|&vlc| vlc >= event.lc) {
                            out.push(Violation::CommitBeforeVote {
                                txn,
                                node: NodeId::from_raw(voter),
                            });
                        }
                    }
                }
            }
            // Presumed abort: a participant may resolve a transaction
            // whose coordinator never logged a decision; later events
            // must still agree with it.
            EventKind::TpcResolve { node, txn, commit } => {
                txn_entry(&mut self.txns, &mut self.retention, txn).decide(txn, node, commit, out);
            }
            // R5–R8 proper need every install and every send ever
            // seen: exact only.
            EventKind::ReplicaInstall { .. }
            | EventKind::ReplicaRead { .. }
            | EventKind::CatchupBegin { .. }
            | EventKind::CatchupEnd { .. }
            | EventKind::MsgSend { .. }
            | EventKind::MsgDeliver { .. } => {
                if let Retention::Exact(history) = &mut self.retention {
                    history.step(event, out);
                }
            }
            // R9: group-commit coverage. Batch appends accumulate
            // until a group fsync declares how many it covered;
            // checkpoints retire marked batches; recovery must replay
            // exactly the marked-but-unchecked remainder.
            EventKind::DiskAppend { .. } => {
                self.log.group_appends += 1;
            }
            EventKind::DiskGroupCommit { batches, .. } => {
                self.log.saw_group_commit = true;
                if batches != self.log.group_appends {
                    out.push(Violation::GroupFsyncCoverage {
                        declared: batches,
                        appended: self.log.group_appends,
                    });
                }
                self.log.group_appends = 0;
                self.log.marked_unchecked += batches;
                // R11: until the next seal these batches live in the
                // active segment.
                self.log.active_batches += batches;
            }
            // R11: segment lifecycle. Seals move the active batches
            // into the sealed-live set; a checkpoint retires every
            // sealed segment up to its watermark; GC must stay at or
            // below it; recovery must replay exactly what is left.
            EventKind::SegmentSeal {
                segment, batches, ..
            } => {
                self.log.saw_segment = true;
                if std::mem::take(&mut self.log.attached_at_replay) {
                    self.log.unseen_upto = self.log.unseen_upto.max(segment.saturating_sub(1));
                }
                self.log.active_batches = 0;
                self.log.sealed_live.push_back((segment, batches));
                if let Retention::Windowed(windows, _) = &self.retention {
                    while self.log.sealed_live.len() > windows.segments {
                        if let Some((dropped, _)) = self.log.sealed_live.pop_front() {
                            self.log.unseen_upto = self.log.unseen_upto.max(dropped);
                        }
                    }
                }
            }
            EventKind::CheckpointEnd { upto, batches, .. } => {
                self.log.marked_unchecked = self.log.marked_unchecked.saturating_sub(batches);
                self.log.ckpt_watermark = self.log.ckpt_watermark.max(upto);
                self.log.sealed_live.retain(|&(seq, _)| seq > upto);
            }
            EventKind::SegmentGc { segment, .. } => {
                if self.log.saw_segment && segment > self.log.ckpt_watermark {
                    out.push(Violation::GcUncheckpointedSegment {
                        segment,
                        watermark: self.log.ckpt_watermark,
                    });
                }
            }
            // Recovery folds nothing: the replayed batches stay live in
            // their segments, so the counters carry on and a later
            // replay must count them again.
            EventKind::DiskReplay { batches, .. } => {
                if self.log.saw_group_commit {
                    if batches != self.log.marked_unchecked {
                        out.push(Violation::ReplayMarkMismatch {
                            replayed: batches,
                            marked: self.log.marked_unchecked,
                        });
                    }
                } else if batches > 0 {
                    // Batches the trace never saw committed: it attached
                    // here, and they are its starting debt.
                    self.log.marked_unchecked = batches;
                    self.log.attached_at_replay = true;
                }
                if self.log.saw_segment && self.log.unseen_upto <= self.log.ckpt_watermark {
                    let live: u64 = self.log.sealed_live.iter().map(|&(_, b)| b).sum::<u64>()
                        + self.log.active_batches;
                    if batches != live {
                        out.push(Violation::ReplayManifestMismatch {
                            replayed: batches,
                            live,
                        });
                    }
                }
            }
            // An open without a begin (the begin predates the attach)
            // still declares the action read-only.
            EventKind::SnapshotOpen { action, stamp } => {
                self.actions
                    .entry(action)
                    .or_insert_with(ActionState::unbegun)
                    .snapshot = Some(stamp);
            }
            EventKind::SnapshotRead {
                action,
                object,
                stamp,
                ..
            } => {
                let snapshot = match self.actions.get(&action).and_then(|a| a.snapshot) {
                    Some(snapshot) => snapshot,
                    None if exact => {
                        out.push(Violation::UnknownAction {
                            action,
                            context: "snapshot_read",
                        });
                        0
                    }
                    None => return,
                };
                // Newest published version of the object visible at
                // the captured stamp; publications are appended in
                // stamp order, so the last visible one is the newest.
                // `None` = the answer fell off a window: skip.
                let key = (event.node.map_or(0, NodeId::as_raw), object.as_raw());
                let expected = match self.published.get(&key) {
                    Some(chain) => {
                        match chain.entries.iter().rev().find(|&&s| s <= snapshot) {
                            Some(&s) => Some(s),
                            // Every retained publication is newer than
                            // the snapshot; with older ones dropped the
                            // true answer is unknowable.
                            None if chain.truncated => None,
                            None => Some(0),
                        }
                    }
                    None => match &self.retention {
                        Retention::Windowed(_, w) if w.published_evictions > 0 => None,
                        _ => Some(0),
                    },
                };
                if let Some(expected) = expected.filter(|&e| e != stamp) {
                    out.push(Violation::SnapshotReadNotNewest {
                        action,
                        object,
                        served: stamp,
                        expected,
                    });
                }
            }
            EventKind::VersionPublish { object, stamp, .. } => {
                let key = (event.node.map_or(0, NodeId::as_raw), object.as_raw());
                let mut versions = usize::MAX;
                if let Retention::Windowed(windows, w) = &mut self.retention {
                    versions = windows.versions;
                    if !self.published.contains_key(&key) {
                        w.published_order.push_back(key);
                        while self.published.len() >= windows.objects {
                            match w.published_order.pop_front() {
                                Some(old) if old != key => {
                                    if self.published.remove(&old).is_some() {
                                        w.published_evictions += 1;
                                    }
                                }
                                _ => break,
                            }
                        }
                    }
                }
                let chain = self.published.entry(key).or_default();
                chain.entries.push_back(stamp);
                while chain.entries.len() > versions {
                    chain.entries.pop_front();
                    chain.truncated = true;
                }
            }
            // Version chains are volatile: after a crash the node's
            // snapshot readers fall back to the stable (stamp-0)
            // state, which must not read as "not newest".
            EventKind::NodeCrash { node } => {
                self.published.retain(|&(n, _), _| n != node.as_raw());
            }
            // The fan-out announcement, recovery markers, GC sweeps,
            // in-flight network perturbations and the online
            // watchdog's own output carry no audited obligations of
            // their own
            EventKind::ReplicaWrite { .. }
            | EventKind::NodeRecover { .. }
            | EventKind::MsgDrop { .. }
            | EventKind::MsgDup { .. }
            | EventKind::VersionGc { .. }
            | EventKind::WatchdogViolation { .. }
            | EventKind::MetricsSnapshot { .. }
            | EventKind::CheckpointBegin { .. } => {}
        }
    }

    /// The closest proper ancestor of `from` whose colour set contains
    /// `colour`: the legal Moss inheritance target. `None` when the
    /// walk reaches the root — or leaves the retained actions.
    fn closest_ancestor_with_colour(&self, from: ActionId, colour: Colour) -> Option<ActionId> {
        let bit = 1u64 << colour.index();
        let mut cursor = self.actions.get(&from)?.parent;
        // a chain longer than the map is a cycle in a corrupted trace
        for _ in 0..self.actions.len() {
            let ancestor = cursor?;
            let state = self.actions.get(&ancestor).filter(|state| state.begun)?;
            if state.colours & bit != 0 {
                return Some(ancestor);
            }
            cursor = state.parent;
        }
        None
    }
}

impl ExactOnly {
    /// R5–R7 and the message half of R8.
    fn step(&mut self, event: &Event, out: &mut Vec<Violation>) {
        match event.kind {
            EventKind::ReplicaInstall {
                node,
                object,
                version,
            } => {
                let held = self
                    .replica_versions
                    .entry((node.as_raw(), object.as_raw()))
                    .or_insert(version);
                if version < *held {
                    out.push(Violation::ReplicaVersionRegression {
                        node,
                        object,
                        from: *held,
                        to: version,
                    });
                }
                *held = (*held).max(version);
                let group = self.max_installed.entry(object.as_raw()).or_insert(0);
                *group = (*group).max(version);
            }
            EventKind::ReplicaRead {
                node,
                object,
                version,
                stale,
            } => {
                if stale || self.catching_up.contains(&(node.as_raw(), object.as_raw())) {
                    out.push(Violation::ReadDuringCatchup { node, object });
                }
                self.check_staleness(node, object, version, out);
            }
            EventKind::CatchupBegin { node, object } => {
                self.catching_up.insert((node.as_raw(), object.as_raw()));
            }
            EventKind::CatchupEnd {
                node,
                object,
                version,
            } => {
                self.catching_up.remove(&(node.as_raw(), object.as_raw()));
                self.check_staleness(node, object, version, out);
            }
            EventKind::MsgSend { .. } => {
                if let Some(corr) = event.corr.map(NonZeroU64::get) {
                    // one send per correlation id; keep the first
                    self.sends.entry(corr).or_insert(event.lc);
                }
            }
            EventKind::MsgDeliver { to, .. } => {
                if let Some(corr) = event.corr.map(NonZeroU64::get) {
                    match self.sends.get(&corr) {
                        None => out.push(Violation::ReceiveWithoutSend { corr, node: to }),
                        Some(&send_lc) => {
                            if send_lc > 0 && event.lc > 0 && event.lc <= send_lc {
                                out.push(Violation::ClockInversion {
                                    corr,
                                    send_lc,
                                    recv_lc: event.lc,
                                });
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// R7: `version` (a served read, or a member's version at rejoin)
    /// must be within `staleness_window` of the group's highest
    /// installed version.
    fn check_staleness(
        &self,
        node: NodeId,
        object: ObjectId,
        version: u64,
        out: &mut Vec<Violation>,
    ) {
        let latest = self
            .max_installed
            .get(&object.as_raw())
            .copied()
            .unwrap_or(0);
        if version.saturating_add(self.staleness_window) < latest {
            out.push(Violation::StalenessWindowExceeded {
                node,
                object,
                version,
                latest,
                window: self.staleness_window,
            });
        }
    }
}

/// The state of the action an event names as acting, or `None` when
/// the check must be skipped. An action without state was never begun.
/// Windowed: it began before the attach (or was evicted) and its lock
/// discipline is unknowable — skip. Exact: a defect of the trace,
/// reported under `context` (for the event kinds that have one) on
/// every reference; the action is tracked from here on as holding exactly
/// what the trace grants it, with no ancestors.
fn acting<'a>(
    actions: &'a mut HashMap<ActionId, ActionState>,
    exact: bool,
    action: ActionId,
    context: Option<&'static str>,
    out: &mut Vec<Violation>,
) -> Option<&'a mut ActionState> {
    if !exact {
        return actions.get_mut(&action);
    }
    let state = actions.entry(action).or_insert_with(ActionState::unbegun);
    if let (false, Some(context)) = (state.begun, context) {
        out.push(Violation::UnknownAction { action, context });
    }
    Some(state)
}

/// The transaction's R4 state, created on first sight; the windowed
/// policy evicts the oldest-tracked transactions to make room.
fn txn_entry<'a>(
    txns: &'a mut HashMap<u64, TxnState>,
    retention: &mut Retention,
    txn: u64,
) -> &'a mut TxnState {
    if let Retention::Windowed(windows, w) = retention {
        if !txns.contains_key(&txn) {
            w.txn_order.push_back(txn);
            while txns.len() >= windows.txns {
                match w.txn_order.pop_front() {
                    Some(old) if old != txn => {
                        txns.remove(&old);
                    }
                    _ => break,
                }
            }
        }
    }
    txns.entry(txn).or_default()
}

#[cfg(test)]
impl Rules {
    /// (retained actions, retired ids, publication chains), for the
    /// eviction tests.
    pub(crate) fn footprint(&self) -> (usize, usize, usize) {
        let retired = match &self.retention {
            Retention::Exact(_) => 0,
            Retention::Windowed(_, w) => {
                assert_eq!(w.retired.len(), w.retired_order.len());
                w.retired.len()
            }
        };
        (self.actions.len(), retired, self.published.len())
    }
}
