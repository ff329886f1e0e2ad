//! The typed event vocabulary and its JSONL wire form.
//!
//! Every record is one line of flat JSON — no nesting, and only the
//! two escapes (`\\` and `\"`) a string field can need — so traces
//! stream through line-oriented tools and a corrupted line is always
//! a hard parse error, never a silent skip.
//!
//! Besides the payload, every event carries causal context: the node
//! it happened on (`node`), a per-node Lamport clock (`lc`, 0 when
//! untraced), and for network events a correlation id (`corr`) that
//! pairs each delivery with the send that caused it even when the
//! network duplicates or drops messages.
//!
//! The vocabulary has one definition: the `event_kinds!` table below.
//! Each row — variant, wire tag, fields — expands to the [`EventKind`]
//! variant, its dense index and tag, and its arm of the JSONL encoder
//! and decoder; a field's name is its wire key and its type's
//! `WireField` impl is its wire form. To add an event kind, add one
//! row (new kinds go last: the row order is the index order) and one
//! golden line in `tests/wire_golden.rs`.

use std::fmt::{self, Write as _};

use chroma_base::{ActionId, Colour, LockMode, NodeId, ObjectId, MAX_LIVE_COLOURS};

/// The fields of one parsed trace line.
type Fields = [(String, JsonValue)];

/// The wire form of one field type: how a value is written into a
/// trace line and read back out of a parsed one.
trait WireField: Sized {
    /// Appends `,"key":value` to `line`.
    fn put(&self, line: &mut String, key: &str);
    /// Reads `key` from `fields`, or says what is wrong with it.
    fn get(fields: &Fields, key: &str) -> Result<Self, TraceParseError>;
}

/// Appends a field whose value needs no quotes (a number or a bool).
fn put_bare(line: &mut String, key: &str, value: impl fmt::Display) {
    write!(line, ",\"{key}\":{value}").expect("writing to a String cannot fail");
}

/// Appends a string field; tags are plain identifiers, never escaped.
fn put_tag(line: &mut String, key: &str, tag: impl fmt::Display) {
    write!(line, ",\"{key}\":\"{tag}\"").expect("writing to a String cannot fail");
}

fn find<'a>(fields: &'a Fields, key: &str) -> Option<&'a JsonValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn require<'a>(fields: &'a Fields, key: &str) -> Result<&'a JsonValue, TraceParseError> {
    find(fields, key).ok_or_else(|| TraceParseError::new(format!("missing field `{key}`")))
}

fn mistyped(key: &str, want: &str, got: &JsonValue) -> TraceParseError {
    TraceParseError::new(format!("field `{key}` should be {want}, got {got:?}"))
}

fn as_num(key: &str, value: &JsonValue) -> Result<u64, TraceParseError> {
    match value {
        JsonValue::Num(n) => Ok(*n),
        other => Err(mistyped(key, "a number", other)),
    }
}

fn get_num(fields: &Fields, key: &str) -> Result<u64, TraceParseError> {
    as_num(key, require(fields, key)?)
}

/// An optional numeric field: absent is `None`, mistyped is an error.
fn opt_num(fields: &Fields, key: &str) -> Result<Option<u64>, TraceParseError> {
    find(fields, key).map(|v| as_num(key, v)).transpose()
}

fn get_tag<'a>(fields: &'a Fields, key: &str) -> Result<&'a str, TraceParseError> {
    match require(fields, key)? {
        JsonValue::Str(s) => Ok(s),
        other => Err(mistyped(key, "a string", other)),
    }
}

fn node_from_raw(raw: u64) -> Result<NodeId, TraceParseError> {
    u32::try_from(raw)
        .map(NodeId::from_raw)
        .map_err(|_| TraceParseError::new(format!("node id {raw} out of range")))
}

impl WireField for u64 {
    fn put(&self, line: &mut String, key: &str) {
        put_bare(line, key, *self);
    }
    fn get(fields: &Fields, key: &str) -> Result<Self, TraceParseError> {
        get_num(fields, key)
    }
}

impl WireField for bool {
    fn put(&self, line: &mut String, key: &str) {
        put_bare(line, key, self);
    }
    fn get(fields: &Fields, key: &str) -> Result<Self, TraceParseError> {
        match require(fields, key)? {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(mistyped(key, "a bool", other)),
        }
    }
}

impl WireField for ActionId {
    fn put(&self, line: &mut String, key: &str) {
        put_bare(line, key, self.as_raw());
    }
    fn get(fields: &Fields, key: &str) -> Result<Self, TraceParseError> {
        get_num(fields, key).map(ActionId::from_raw)
    }
}

/// Written only when `Some`; absent reads as `None`.
impl WireField for Option<ActionId> {
    fn put(&self, line: &mut String, key: &str) {
        if let Some(action) = self {
            action.put(line, key);
        }
    }
    fn get(fields: &Fields, key: &str) -> Result<Self, TraceParseError> {
        Ok(opt_num(fields, key)?.map(ActionId::from_raw))
    }
}

impl WireField for ObjectId {
    fn put(&self, line: &mut String, key: &str) {
        put_bare(line, key, self.as_raw());
    }
    fn get(fields: &Fields, key: &str) -> Result<Self, TraceParseError> {
        get_num(fields, key).map(ObjectId::from_raw)
    }
}

impl WireField for NodeId {
    fn put(&self, line: &mut String, key: &str) {
        put_bare(line, key, u64::from(self.as_raw()));
    }
    fn get(fields: &Fields, key: &str) -> Result<Self, TraceParseError> {
        node_from_raw(get_num(fields, key)?)
    }
}

impl WireField for Colour {
    fn put(&self, line: &mut String, key: &str) {
        put_bare(line, key, self.index() as u64);
    }
    fn get(fields: &Fields, key: &str) -> Result<Self, TraceParseError> {
        let idx = get_num(fields, key)?;
        if idx >= MAX_LIVE_COLOURS as u64 {
            return Err(TraceParseError::new(format!(
                "colour index {idx} out of range"
            )));
        }
        Ok(Colour::from_index(idx as usize))
    }
}

impl WireField for LockMode {
    fn put(&self, line: &mut String, key: &str) {
        put_tag(line, key, self);
    }
    fn get(fields: &Fields, key: &str) -> Result<Self, TraceParseError> {
        match get_tag(fields, key)? {
            "read" => Ok(LockMode::Read),
            "exclusive-read" => Ok(LockMode::ExclusiveRead),
            "write" => Ok(LockMode::Write),
            other => Err(TraceParseError::new(format!("unknown lock mode `{other}`"))),
        }
    }
}

/// Declares an enum of wire tags once: each `Variant "tag"` row gives
/// the variant, its place in `ALL`, `name()`, `parse` and `Display`,
/// and the enum's [`WireField`] form (a string field; `$what` names it
/// in the unknown-tag error).
macro_rules! tag_enum {
    (
        $(#[$meta:meta])*
        $name:ident, $what:literal {
            $( $(#[$vmeta:meta])* $variant:ident $tag:literal, )+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )+
        }

        impl $name {
            /// Every variant, in wire-tag order.
            pub const ALL: [$name; [$($tag),+].len()] = [$($name::$variant),+];

            /// The stable wire tag.
            #[must_use]
            pub const fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $tag, )+
                }
            }

            fn parse(tag: &str) -> Option<$name> {
                match tag {
                    $( $tag => Some($name::$variant), )+
                    _ => None,
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.name())
            }
        }

        impl WireField for $name {
            fn put(&self, line: &mut String, key: &str) {
                put_tag(line, key, self.name());
            }
            fn get(fields: &Fields, key: &str) -> Result<Self, TraceParseError> {
                let tag = get_tag(fields, key)?;
                $name::parse(tag).ok_or_else(|| {
                    TraceParseError::new(format!(concat!("unknown ", $what, " `{}`"), tag))
                })
            }
        }
    };
}

tag_enum! {
    /// The network message classes the simulator traces.
    ///
    /// Mirrors `chroma-dist`'s wire vocabulary without depending on it
    /// (the dependency points the other way).
    #[allow(missing_docs)]
    MsgKind, "message kind" {
        Prepare "prepare",
        VoteYes "vote_yes",
        VoteNo "vote_no",
        Decision "decision",
        Ack "ack",
        DecisionQuery "decision_query",
        RpcRequest "rpc_request",
        RpcReply "rpc_reply",
        ReplicaState "replica_state",
        ReplicaNone "replica_none",
        ReplicaPull "replica_pull",
    }
}

tag_enum! {
    /// The invariant a streaming [`watchdog`](crate::Watchdog) violation
    /// reports: the rules the windowed retention policy evaluates (R1–R4,
    /// R9–R11), one tag per [`Violation`](crate::Violation) variant that
    /// [`Violation::online`](crate::Violation::online) maps.
    WatchdogRule, "watchdog rule" {
        /// R1: a lock was granted to an action that already shrank
        /// (released or inherited away a lock, or terminated).
        LockAfterShrink "lock_after_shrink",
        /// R2: a commit-time inheritance moved a lock the source never
        /// held.
        InheritWithoutLock "inherit_without_lock",
        /// R2: a lock was inherited by something other than the closest
        /// ancestor possessing the colour.
        BadInheritTarget "bad_inherit_target",
        /// R2: a release for a lock the action never held.
        ReleaseWithoutLock "release_without_lock",
        /// R3: a before-image was recorded without a write-permitting lock.
        WriteWithoutWriteLock "write_without_write_lock",
        /// R4: a commit decision without yes-votes from every participant.
        CommitWithoutQuorum "commit_without_quorum",
        /// R4: a commit decision despite a recorded no-vote.
        CommitDespiteNoVote "commit_despite_no_vote",
        /// R4: conflicting decisions recorded for one transaction.
        DivergentDecision "divergent_decision",
        /// R9: a group fsync declared a batch count that does not match
        /// the appends since the previous group fsync.
        GroupFsyncCoverage "group_fsync_coverage",
        /// R9: replay batches did not equal group-fsynced-not-checkpointed.
        ReplayMarkMismatch "replay_mark_mismatch",
        /// R10: a declared read-only snapshot action appeared in lock
        /// traffic.
        SnapshotReaderLocks "snapshot_reader_locks",
        /// R10: a snapshot read served a version older than the newest
        /// visible at the snapshot's captured stamps.
        SnapshotReadNotNewest "snapshot_read_not_newest",
        /// R11: a segment was garbage-collected above the checkpoint
        /// watermark — its batches were never folded into the object
        /// store.
        GcUncheckpointedSegment "gc_uncheckpointed_segment",
        /// R11: recovery replayed a batch count that does not match the
        /// manifest's live suffix (sealed segments + active tail).
        ReplayManifestMismatch "replay_manifest_mismatch",
    }
}

/// Declares the event vocabulary once: each row is
/// `Variant "wire_tag" { field: Type, … }`, in index order.
macro_rules! event_kinds {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident $tag:literal {
            $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )+
        }
    )+) => {
        /// What happened, strongly typed. See [`Event`] for the timestamped
        /// record.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum EventKind {
            $(
                $(#[$vmeta])*
                $variant {
                    $( $(#[$fmeta])* $field: $ty, )+
                },
            )+
        }

        /// The stable tag of every kind, indexed by [`EventKind::index`].
        pub(crate) const KIND_NAMES: &[&str] = &[$($tag),+];

        /// Count of [`EventKind`] variants; sizes the per-kind counter array.
        pub(crate) const KIND_COUNT: usize = KIND_NAMES.len();

        /// The variants again without payloads: their discriminants are
        /// the dense indices.
        enum KindIndex {
            $($variant,)+
        }

        impl EventKind {
            /// Dense index of this kind (for counter arrays).
            #[must_use]
            pub const fn index(&self) -> usize {
                match self {
                    $( EventKind::$variant { .. } => KindIndex::$variant as usize, )+
                }
            }

            /// The stable snake_case tag (the `ev` field on the wire).
            #[must_use]
            pub const fn name(&self) -> &'static str {
                KIND_NAMES[self.index()]
            }

            /// Appends every payload field, in declaration order.
            fn put_fields(&self, line: &mut String) {
                match self {
                    $(
                        EventKind::$variant { $($field),+ } => {
                            $( $field.put(line, stringify!($field)); )+
                        }
                    )+
                }
            }

            /// Reads the payload of the kind tagged `ev`, in declaration
            /// order, so the first bad field is the one reported.
            fn from_fields(ev: &str, fields: &Fields) -> Result<EventKind, TraceParseError> {
                match ev {
                    $(
                        $tag => Ok(EventKind::$variant {
                            $( $field: <$ty>::get(fields, stringify!($field))?, )+
                        }),
                    )+
                    other => Err(TraceParseError::new(format!("unknown event tag `{other}`"))),
                }
            }
        }
    };
}

event_kinds! {
    /// An action started (top-level when `parent` is `None`).
    ActionBegin "action_begin" {
        /// The new action.
        action: ActionId,
        /// Its enclosing action, if nested.
        parent: Option<ActionId>,
        /// Bitmask of the colours the action runs in
        /// (bit *i* = colour index *i*).
        colours: u64,
    }
    /// An action committed.
    ActionCommit "action_commit" {
        /// The committing action.
        action: ActionId,
    }
    /// An action aborted (explicitly or by cascade).
    ActionAbort "action_abort" {
        /// The aborting action.
        action: ActionId,
    }
    /// An action asked the lock table for a lock.
    LockRequest "lock_request" {
        /// The requesting action.
        action: ActionId,
        /// The object to lock.
        object: ObjectId,
        /// The colour the lock is requested in.
        colour: Colour,
        /// The requested mode.
        mode: LockMode,
    }
    /// A lock request succeeded (fresh grant, re-grant or upgrade).
    LockGrant "lock_grant" {
        /// The holding action.
        action: ActionId,
        /// The locked object.
        object: ObjectId,
        /// The colour the lock is held in.
        colour: Colour,
        /// The granted mode.
        mode: LockMode,
    }
    /// A lock request was refused or had to wait.
    LockConflict "lock_conflict" {
        /// The blocked action.
        action: ActionId,
        /// The contended object.
        object: ObjectId,
        /// The colour requested.
        colour: Colour,
        /// The mode requested.
        mode: LockMode,
    }
    /// At commit, a lock moved from an action to an ancestor that also
    /// holds the colour (the Moss inheritance rule).
    LockInherit "lock_inherit" {
        /// The committing (shrinking) action.
        from: ActionId,
        /// The inheriting ancestor.
        to: ActionId,
        /// The object whose lock moved.
        object: ObjectId,
        /// The colour concerned.
        colour: Colour,
    }
    /// A lock was released outright.
    LockRelease "lock_release" {
        /// The releasing action.
        action: ActionId,
        /// The unlocked object.
        object: ObjectId,
        /// The colour released.
        colour: Colour,
    }
    /// A before-image was recorded prior to a write.
    UndoRecord "undo_record" {
        /// The writing action.
        action: ActionId,
        /// The object about to change.
        object: ObjectId,
        /// The colour of the write.
        colour: Colour,
    }
    /// Records were appended to a durable log.
    WalAppend "wal_append" {
        /// How many records were appended.
        records: u64,
    }
    /// An intentions-list batch was installed durably.
    WalFlush "wal_flush" {
        /// How many objects the batch installed.
        objects: u64,
    }
    /// A participant force-logged the prepared state of a transaction.
    TpcPrepare "tpc_prepare" {
        /// The participant.
        node: NodeId,
        /// The transaction.
        txn: u64,
    }
    /// A participant voted.
    TpcVote "tpc_vote" {
        /// The voting participant.
        node: NodeId,
        /// The transaction.
        txn: u64,
        /// `true` = yes (prepared), `false` = no (veto).
        yes: bool,
    }
    /// The coordinator reached a decision.
    TpcDecide "tpc_decide" {
        /// The coordinator.
        node: NodeId,
        /// The transaction.
        txn: u64,
        /// `true` = commit, `false` = abort.
        commit: bool,
        /// How many participants the transaction had.
        participants: u64,
    }
    /// A participant learned and applied the decision.
    TpcResolve "tpc_resolve" {
        /// The resolving participant.
        node: NodeId,
        /// The transaction.
        txn: u64,
        /// The decision it applied.
        commit: bool,
    }
    /// A node fail-silently crashed.
    NodeCrash "node_crash" {
        /// The crashed node.
        node: NodeId,
    }
    /// A node recovered from stable storage.
    NodeRecover "node_recover" {
        /// The recovering node.
        node: NodeId,
    }
    /// A message entered the network.
    MsgSend "msg_send" {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Message class.
        kind: MsgKind,
    }
    /// The network dropped a message (loss, partition, or dead target).
    MsgDrop "msg_drop" {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Message class.
        kind: MsgKind,
    }
    /// The network duplicated a message.
    MsgDup "msg_dup" {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Message class.
        kind: MsgKind,
    }
    /// A message reached a live node.
    MsgDeliver "msg_deliver" {
        /// Sender.
        from: NodeId,
        /// Destination.
        to: NodeId,
        /// Message class.
        kind: MsgKind,
    }
    /// Records were appended (and fsynced) to the on-disk intentions
    /// log.
    DiskAppend "disk_append" {
        /// How many records the batch appended (intents + commit).
        records: u64,
        /// Total bytes written, including length framing.
        bytes: u64,
    }
    /// A committed batch was installed into per-object files and the
    /// intentions log was truncated.
    DiskCheckpoint "disk_checkpoint" {
        /// How many objects the batch installed.
        objects: u64,
    }
    /// Opening the store replayed committed batches from the
    /// intentions log (crash recovery).
    DiskReplay "disk_replay" {
        /// How many committed batches were replayed.
        batches: u64,
        /// How many object installs the replay performed.
        objects: u64,
    }
    /// A replicated write started fanning out to the available
    /// members of a replica group.
    ReplicaWrite "replica_write" {
        /// The replicated object.
        object: ObjectId,
        /// The version this write will install.
        version: u64,
        /// How many members the write targets.
        fanout: u64,
    }
    /// A member durably installed a version of a replicated object
    /// (the per-replica version bump).
    ReplicaInstall "replica_install" {
        /// The installing member.
        node: NodeId,
        /// The replicated object.
        object: ObjectId,
        /// The version installed.
        version: u64,
    }
    /// A read was served from a member's copy of a replicated object.
    ReplicaRead "replica_read" {
        /// The serving member.
        node: NodeId,
        /// The replicated object.
        object: ObjectId,
        /// The version served.
        version: u64,
        /// `true` if the serving copy was marked stale (catching up) —
        /// correct implementations never emit this; the auditor flags
        /// it.
        stale: bool,
    }
    /// A recovering member began catching its copy up from its peers.
    CatchupBegin "catchup_begin" {
        /// The recovering member.
        node: NodeId,
        /// The object being caught up.
        object: ObjectId,
    }
    /// A recovering member finished catch-up and rejoined the group.
    CatchupEnd "catchup_end" {
        /// The recovered member.
        node: NodeId,
        /// The object caught up.
        object: ObjectId,
        /// The member's version at rejoin.
        version: u64,
    }
    /// A leader flushed a whole group of pending batches with one
    /// intents-fsync and one marker-fsync (group commit). Every batch
    /// in the group keeps its own commit marker; this event records
    /// the shared durability point that covered them all.
    DiskGroupCommit "disk_group_commit" {
        /// How many batches the group contained.
        batches: u64,
        /// Total records appended for the group (intents + markers).
        records: u64,
        /// Total bytes written, including length framing.
        bytes: u64,
    }
    /// A declared read-only action captured one colour's published
    /// commit frontier at open. Emitted once per colour with a
    /// non-zero frontier (or once with colour 0 / stamp 0 when nothing
    /// has committed yet), before any read by the action.
    SnapshotOpen "snapshot_open" {
        /// The read-only action.
        action: ActionId,
        /// The colour whose frontier was captured.
        colour: Colour,
        /// The captured stamp: the snapshot sees this colour's
        /// versions with stamps `<=` it.
        stamp: u64,
    }
    /// A snapshot read was served from a version chain (or from stable
    /// storage, reported as the stamp-0 base version).
    SnapshotRead "snapshot_read" {
        /// The reading read-only action.
        action: ActionId,
        /// The object read.
        object: ObjectId,
        /// The served version's colour (colour 0 for base versions).
        colour: Colour,
        /// The served version's commit stamp (0 = base version).
        stamp: u64,
    }
    /// An outermost-coloured commit appended a new version to an
    /// object's chain, just before publishing the colour's frontier.
    VersionPublish "version_publish" {
        /// The object whose chain grew.
        object: ObjectId,
        /// The committing colour.
        colour: Colour,
        /// The version's commit stamp.
        stamp: u64,
    }
    /// A version-chain GC sweep reclaimed versions no live snapshot
    /// can reach.
    VersionGc "version_gc" {
        /// Versions dropped by the sweep.
        reclaimed: u64,
        /// Versions still held after the sweep.
        retained: u64,
    }
    /// The streaming watchdog detected a violated invariant while the
    /// system was running (the online counterpart of an offline
    /// [`Violation`](crate::Violation)).
    WatchdogViolation "watchdog_violation" {
        /// Which online rule fired.
        rule: WatchdogRule,
        /// The implicated action (`0` when the rule has none).
        action: ActionId,
        /// The implicated object (`0` when the rule has none).
        object: ObjectId,
        /// Rule-dependent extra context — a transaction id for R4, a
        /// served stamp for R10, a batch count for R9; `0` otherwise.
        aux: u64,
    }
    /// A periodic gauge sample: the live occupancy of the system's
    /// bounded structures, published so an operator (or `chroma-trace
    /// watch`) can follow a run without stopping it.
    MetricsSnapshot "metrics_snapshot" {
        /// Granted lock entries across all shards.
        lock_entries: u64,
        /// Actions currently parked in a blocking lock wait.
        lock_waiters: u64,
        /// Batches sitting in the group-commit queue.
        group_queue: u64,
        /// Versions held across all version chains.
        versions: u64,
        /// Stamped commits since the last automatic GC sweep.
        gc_backlog: u64,
        /// Open read-only snapshot actions.
        snapshots: u64,
        /// Actions begun and not yet terminated.
        live_actions: u64,
        /// Batches committed to the segmented intentions log but not
        /// yet folded behind the checkpoint watermark (the recovery
        /// replay debt).
        ckpt_backlog: u64,
    }
    /// The active intentions-log segment was sealed: a fresh segment
    /// took over appends and the manifest committed to it.
    SegmentSeal "segment_seal" {
        /// The sealed segment's sequence number.
        segment: u64,
        /// Batches committed into the sealed segment.
        batches: u64,
        /// Record bytes the sealed segment holds (past the magic).
        bytes: u64,
    }
    /// The checkpointer started folding fully-committed sealed
    /// segments into the object store.
    CheckpointBegin "checkpoint_begin" {
        /// Sealed segments in this fold.
        segments: u64,
        /// Committed batches the fold covers.
        batches: u64,
    }
    /// The checkpointer committed a fold: the manifest no longer lists
    /// the folded segments and the watermark advanced.
    CheckpointEnd "checkpoint_end" {
        /// Highest folded segment sequence (the new watermark).
        upto: u64,
        /// Committed batches folded behind the watermark.
        batches: u64,
        /// Object states installed by the fold.
        objects: u64,
    }
    /// A folded segment's file was garbage-collected (always behind
    /// the checkpoint watermark — the auditor's R11 checks this).
    SegmentGc "segment_gc" {
        /// The deleted segment's sequence number.
        segment: u64,
        /// Record bytes reclaimed.
        bytes: u64,
    }
}

impl EventKind {
    /// The node this kind is intrinsically *about*, when the payload
    /// already names one: 2PC and replica events carry the acting
    /// participant, network events are attributed to the sender
    /// (delivery to the receiver). Kinds whose payload has no node
    /// return `None` and rely on the emitting handle's binding.
    ///
    /// The wire form never writes a separate top-level `node` field
    /// for these kinds — doing so would duplicate the payload field.
    #[must_use]
    pub const fn intrinsic_node(&self) -> Option<NodeId> {
        match self {
            EventKind::TpcPrepare { node, .. }
            | EventKind::TpcVote { node, .. }
            | EventKind::TpcDecide { node, .. }
            | EventKind::TpcResolve { node, .. }
            | EventKind::NodeCrash { node }
            | EventKind::NodeRecover { node }
            | EventKind::ReplicaInstall { node, .. }
            | EventKind::ReplicaRead { node, .. }
            | EventKind::CatchupBegin { node, .. }
            | EventKind::CatchupEnd { node, .. } => Some(*node),
            EventKind::MsgSend { from, .. }
            | EventKind::MsgDrop { from, .. }
            | EventKind::MsgDup { from, .. } => Some(*from),
            EventKind::MsgDeliver { to, .. } => Some(*to),
            _ => None,
        }
    }
}

/// One timestamped observation.
///
/// `at_us` is wall-clock microseconds for live runtimes and simulated
/// microseconds inside `chroma-dist`'s deterministic simulator (the
/// simulator drives the bus clock).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Microseconds since the bus's epoch (wall or simulated).
    pub at_us: u64,
    /// The node the event happened on: the kind's intrinsic node when
    /// its payload names one, otherwise the emitting handle's bound
    /// node. `None` for unbound local emissions.
    pub node: Option<NodeId>,
    /// Lamport clock at the emitting node, `> 0` when stamped. A
    /// delivery's clock is merged with (forced past) the matching
    /// send's, so `lc` orders events causally across nodes. `0` means
    /// the event predates causal tracing or was emitted node-less.
    pub lc: u64,
    /// Correlation id pairing `msg_send` with the `msg_deliver` /
    /// `msg_drop` / `msg_dup` events it caused. Duplicated deliveries
    /// share the original send's id.
    pub corr: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// An event with no causal context beyond the kind's intrinsic
    /// node — the shape every pre-causality emitter produced.
    #[must_use]
    pub fn at(at_us: u64, kind: EventKind) -> Event {
        Event {
            at_us,
            node: kind.intrinsic_node(),
            lc: 0,
            corr: None,
            kind,
        }
    }
    /// Serialises to one line of flat JSON (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        write!(
            s,
            "{{\"at_us\":{},\"ev\":\"{}\"",
            self.at_us,
            self.kind.name()
        )
        .expect("writing to a String cannot fail");
        self.kind.put_fields(&mut s);
        if self.lc > 0 {
            put_bare(&mut s, "lc", self.lc);
        }
        if let Some(corr) = self.corr {
            put_bare(&mut s, "corr", corr);
        }
        // A kind with an intrinsic node already wrote it as payload;
        // writing it again would trip the duplicate-field check.
        if self.kind.intrinsic_node().is_none() {
            if let Some(node) = self.node {
                node.put(&mut s, "node");
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSONL line back into an event.
    ///
    /// # Errors
    ///
    /// [`TraceParseError`] on any malformed input: bad JSON shape,
    /// unknown tag, missing or mistyped field, out-of-range colour.
    pub fn from_json_line(line: &str) -> Result<Event, TraceParseError> {
        let fields = parse_flat_object(line)?;
        let at_us = get_num(&fields, "at_us")?;
        let kind = EventKind::from_fields(get_tag(&fields, "ev")?, &fields)?;
        let lc = opt_num(&fields, "lc")?.unwrap_or(0);
        let corr = opt_num(&fields, "corr")?;
        let node = match kind.intrinsic_node() {
            Some(n) => Some(n),
            None => opt_num(&fields, "node")?.map(node_from_raw).transpose()?,
        };
        Ok(Event {
            at_us,
            node,
            lc,
            corr,
            kind,
        })
    }
}

/// A malformed trace line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number, when parsing a multi-line trace.
    pub line: Option<usize>,
    /// What was wrong.
    pub message: String,
}

impl TraceParseError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        TraceParseError {
            line: None,
            message: message.into(),
        }
    }

    /// Tags the error with a 1-based line number.
    #[must_use]
    pub fn at_line(mut self, line: usize) -> Self {
        self.line = Some(line);
        self
    }
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "trace line {n}: {}", self.message),
            None => write!(f, "trace: {}", self.message),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Escapes a string for embedding in a JSON string field: `\` and `"`
/// gain a backslash, matching exactly what the trace parser accepts.
/// Control characters never occur in the vocabulary and are passed
/// through untouched.
#[must_use]
pub fn escape_json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            _ => out.push(ch),
        }
    }
    out
}

#[derive(Debug)]
enum JsonValue {
    Num(u64),
    Bool(bool),
    Str(String),
}

/// Parses exactly one flat JSON object: string keys, and values that
/// are unsigned integers, booleans or escape-free strings. Anything
/// else — nesting, floats, escapes, trailing garbage — is an error,
/// which is what makes corrupted traces detectable.
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonValue)>, TraceParseError> {
    let bytes = line.trim().as_bytes();
    let mut pos = 0usize;
    let err = |msg: &str| TraceParseError::new(msg.to_owned());

    let expect = |bytes: &[u8], pos: &mut usize, ch: u8| -> Result<(), TraceParseError> {
        if bytes.get(*pos) == Some(&ch) {
            *pos += 1;
            Ok(())
        } else {
            Err(err(&format!(
                "expected `{}` at byte {}",
                char::from(ch),
                *pos
            )))
        }
    };
    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, TraceParseError> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(TraceParseError::new(format!(
                "expected string at byte {pos}"
            )));
        }
        *pos += 1;
        let start = *pos;
        // Unescaped strings (the overwhelmingly common case) borrow
        // straight from the line; the buffer only materialises on the
        // first escape.
        let mut unescaped: Option<Vec<u8>> = None;
        while let Some(&b) = bytes.get(*pos) {
            match b {
                b'"' => {
                    let raw = match unescaped {
                        Some(buf) => buf,
                        None => bytes[start..*pos].to_vec(),
                    };
                    let s = String::from_utf8(raw)
                        .map_err(|_| TraceParseError::new("invalid utf-8 in string"))?;
                    *pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    let buf = unescaped.get_or_insert_with(|| bytes[start..*pos].to_vec());
                    match bytes.get(*pos + 1) {
                        Some(&esc @ (b'\\' | b'"')) => {
                            buf.push(esc);
                            *pos += 2;
                        }
                        _ => {
                            return Err(TraceParseError::new(
                                "unsupported escape sequence (only \\\\ and \\\" are allowed)",
                            ))
                        }
                    }
                }
                _ => {
                    if let Some(buf) = unescaped.as_mut() {
                        buf.push(b);
                    }
                    *pos += 1;
                }
            }
        }
        Err(TraceParseError::new("unterminated string"))
    }
    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, TraceParseError> {
        match bytes.get(*pos) {
            Some(b'"') => parse_string(bytes, pos).map(JsonValue::Str),
            Some(b'0'..=b'9') => {
                let start = *pos;
                while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are utf-8");
                text.parse::<u64>()
                    .map(JsonValue::Num)
                    .map_err(|_| TraceParseError::new(format!("number `{text}` out of range")))
            }
            _ if bytes[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(JsonValue::Bool(true))
            }
            _ if bytes[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(JsonValue::Bool(false))
            }
            _ => Err(TraceParseError::new(format!(
                "expected a value at byte {pos}"
            ))),
        }
    }

    if bytes.is_empty() {
        return Err(err("empty line"));
    }
    expect(bytes, &mut pos, b'{')?;
    let mut fields = Vec::new();
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            let key = parse_string(bytes, &mut pos)?;
            expect(bytes, &mut pos, b':')?;
            let value = parse_value(bytes, &mut pos)?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(err(&format!("duplicate field `{key}`")));
            }
            fields.push((key, value));
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(err(&format!("expected `,` or `}}` at byte {pos}"))),
            }
        }
    }
    if pos != bytes.len() {
        return Err(err(&format!("trailing garbage at byte {pos}")));
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> Colour {
        Colour::from_index(i)
    }

    fn sample_events() -> Vec<Event> {
        let a1 = ActionId::from_raw(1);
        let a2 = ActionId::from_raw(2);
        let o = ObjectId::from_raw(7);
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let kinds = vec![
            EventKind::ActionBegin {
                action: a1,
                parent: None,
                colours: 0b11,
            },
            EventKind::ActionBegin {
                action: a2,
                parent: Some(a1),
                colours: 0b1,
            },
            EventKind::ActionCommit { action: a2 },
            EventKind::ActionAbort { action: a1 },
            EventKind::LockRequest {
                action: a1,
                object: o,
                colour: c(0),
                mode: LockMode::Read,
            },
            EventKind::LockGrant {
                action: a1,
                object: o,
                colour: c(0),
                mode: LockMode::Write,
            },
            EventKind::LockConflict {
                action: a2,
                object: o,
                colour: c(1),
                mode: LockMode::ExclusiveRead,
            },
            EventKind::LockInherit {
                from: a2,
                to: a1,
                object: o,
                colour: c(0),
            },
            EventKind::LockRelease {
                action: a1,
                object: o,
                colour: c(1),
            },
            EventKind::UndoRecord {
                action: a1,
                object: o,
                colour: c(0),
            },
            EventKind::WalAppend { records: 3 },
            EventKind::WalFlush { objects: 2 },
            EventKind::TpcPrepare { node: n2, txn: 9 },
            EventKind::TpcVote {
                node: n2,
                txn: 9,
                yes: true,
            },
            EventKind::TpcDecide {
                node: n1,
                txn: 9,
                commit: true,
                participants: 2,
            },
            EventKind::TpcResolve {
                node: n2,
                txn: 9,
                commit: true,
            },
            EventKind::NodeCrash { node: n2 },
            EventKind::NodeRecover { node: n2 },
            EventKind::MsgSend {
                from: n1,
                to: n2,
                kind: MsgKind::Prepare,
            },
            EventKind::MsgDrop {
                from: n1,
                to: n2,
                kind: MsgKind::Decision,
            },
            EventKind::MsgDup {
                from: n2,
                to: n1,
                kind: MsgKind::VoteYes,
            },
            EventKind::MsgDeliver {
                from: n2,
                to: n1,
                kind: MsgKind::Ack,
            },
            EventKind::DiskAppend {
                records: 4,
                bytes: 128,
            },
            EventKind::DiskCheckpoint { objects: 3 },
            EventKind::DiskReplay {
                batches: 2,
                objects: 5,
            },
            EventKind::DiskGroupCommit {
                batches: 3,
                records: 9,
                bytes: 256,
            },
            EventKind::ReplicaWrite {
                object: o,
                version: 4,
                fanout: 3,
            },
            EventKind::ReplicaInstall {
                node: n2,
                object: o,
                version: 4,
            },
            EventKind::ReplicaRead {
                node: n1,
                object: o,
                version: 4,
                stale: false,
            },
            EventKind::CatchupBegin {
                node: n2,
                object: o,
            },
            EventKind::CatchupEnd {
                node: n2,
                object: o,
                version: 4,
            },
            EventKind::SnapshotOpen {
                action: a1,
                colour: c(0),
                stamp: 5,
            },
            EventKind::SnapshotRead {
                action: a1,
                object: o,
                colour: c(1),
                stamp: 5,
            },
            EventKind::VersionPublish {
                object: o,
                colour: c(0),
                stamp: 6,
            },
            EventKind::VersionGc {
                reclaimed: 2,
                retained: 5,
            },
            EventKind::WatchdogViolation {
                rule: WatchdogRule::WriteWithoutWriteLock,
                action: a1,
                object: o,
                aux: 0,
            },
            EventKind::MetricsSnapshot {
                lock_entries: 12,
                lock_waiters: 1,
                group_queue: 3,
                versions: 40,
                gc_backlog: 7,
                snapshots: 2,
                live_actions: 5,
                ckpt_backlog: 4,
            },
            EventKind::SegmentSeal {
                segment: 3,
                batches: 12,
                bytes: 4096,
            },
            EventKind::CheckpointBegin {
                segments: 2,
                batches: 20,
            },
            EventKind::CheckpointEnd {
                upto: 3,
                batches: 20,
                objects: 6,
            },
            EventKind::SegmentGc {
                segment: 3,
                bytes: 4096,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event::at(i as u64 * 10, kind))
            .collect()
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        for event in sample_events() {
            let line = event.to_json_line();
            let back = Event::from_json_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "round-trip of {line}");
        }
    }

    #[test]
    fn sample_events_cover_every_kind() {
        // Adding an `EventKind` without adding it to `sample_events`
        // (and therefore to the round-trip tests above) must fail here.
        let mut covered = [false; KIND_COUNT];
        for event in sample_events() {
            covered[event.kind.index()] = true;
        }
        for (i, seen) in covered.iter().enumerate() {
            assert!(
                seen,
                "kind `{}` (index {i}) has no round-trip sample event",
                KIND_NAMES[i]
            );
        }
    }

    #[test]
    fn causal_context_round_trips() {
        for mut event in sample_events() {
            event.lc = 42;
            if matches!(
                event.kind,
                EventKind::MsgSend { .. }
                    | EventKind::MsgDrop { .. }
                    | EventKind::MsgDup { .. }
                    | EventKind::MsgDeliver { .. }
            ) {
                event.corr = Some(7);
            }
            if event.node.is_none() {
                event.node = Some(NodeId::from_raw(3));
            }
            let line = event.to_json_line();
            let back = Event::from_json_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "round-trip of {line}");
        }
    }

    #[test]
    fn pre_causality_lines_still_parse() {
        // Traces written before node/lc/corr existed must load with
        // the neutral defaults.
        let line = "{\"at_us\":5,\"ev\":\"wal_append\",\"records\":3}";
        let event = Event::from_json_line(line).unwrap();
        assert_eq!(event.node, None);
        assert_eq!(event.lc, 0);
        assert_eq!(event.corr, None);
    }

    #[test]
    fn intrinsic_node_wins_over_handle_binding() {
        // A kind whose payload names a node never writes a separate
        // top-level `node` field (it would be a duplicate), and the
        // parser recovers the context from the payload.
        let event = Event::at(
            1,
            EventKind::TpcPrepare {
                node: NodeId::from_raw(4),
                txn: 9,
            },
        );
        let line = event.to_json_line();
        assert_eq!(line.matches("\"node\"").count(), 1, "{line}");
        let back = Event::from_json_line(&line).unwrap();
        assert_eq!(back.node, Some(NodeId::from_raw(4)));
    }

    #[test]
    fn string_escapes_round_trip() {
        // `\\` and `\"` must survive a string field; anything else is
        // still a hard error.
        let line = "{\"at_us\":1,\"ev\":\"lock_grant\",\"action\":1,\"object\":1,\"colour\":0,\"mode\":\"a\\\\b\\\"c\"}";
        let err = Event::from_json_line(line).unwrap_err();
        assert!(
            err.message.contains("unknown lock mode `a\\b\"c`"),
            "escapes should decode before field validation: {err}"
        );
        let bad = "{\"at_us\":1,\"ev\":\"wal_append\",\"records\":1,\"x\":\"a\\nb\"}";
        let err = Event::from_json_line(bad).unwrap_err();
        assert!(err.message.contains("unsupported escape"), "{err}");
    }

    #[test]
    fn escape_json_str_matches_parser() {
        assert_eq!(escape_json_str("plain"), "plain");
        assert_eq!(escape_json_str("a\\b\"c"), "a\\\\b\\\"c");
    }

    #[test]
    fn kind_names_are_distinct_and_indexed() {
        for (i, event) in sample_events().iter().enumerate() {
            // sample_events covers index 0..KIND_COUNT minus the
            // duplicate ActionBegin at position 1.
            let _ = i;
            assert_eq!(event.kind.name(), KIND_NAMES[event.kind.index()]);
        }
        let mut names = KIND_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), KIND_COUNT, "kind tags must be unique");
    }

    #[test]
    fn corrupt_lines_are_rejected() {
        for bad in [
            "",
            "not json",
            "{\"at_us\":1,\"ev\":\"no_such_event\"}",
            "{\"at_us\":1,\"ev\":\"action_commit\"}", // missing action
            "{\"at_us\":1,\"ev\":\"action_commit\",\"action\":true}", // wrong type
            "{\"at_us\":1,\"ev\":\"action_commit\",\"action\":1}garbage",
            "{\"at_us\":1,\"ev\":\"action_commit\",\"action\":1",
            "{\"at_us\":1,\"at_us\":2,\"ev\":\"wal_append\",\"records\":1}",
            "{\"at_us\":1,\"ev\":\"lock_release\",\"action\":1,\"object\":1,\"colour\":9999}",
            "{\"at_us\":1,\"ev\":\"lock_grant\",\"action\":1,\"object\":1,\"colour\":0,\"mode\":\"steal\"}",
            "{\"at_us\":1,\"ev\":\"msg_send\",\"from\":1,\"to\":2,\"kind\":\"pigeon\"}",
            "{\"at_us\":1,\"ev\":\"tpc_prepare\",\"node\":99999999999,\"txn\":1}",
            "{\"at_us\":1,\"ev\":\"disk_append\",\"records\":1}", // missing bytes
            "{\"at_us\":1,\"ev\":\"replica_read\",\"node\":1,\"object\":1,\"version\":1}", // missing stale
            "{\"at_us\":1,\"ev\":\"replica_install\",\"node\":1,\"object\":1,\"version\":true}", // wrong type
            "{\"at_us\":1,\"ev\":\"catchup_end\",\"node\":1,\"object\":1}", // missing version
            "{\"at_us\":1,\"ev\":\"snapshot_open\",\"action\":1,\"colour\":0}", // missing stamp
            "{\"at_us\":1,\"ev\":\"snapshot_read\",\"action\":1,\"object\":1,\"stamp\":2}", // missing colour
            "{\"at_us\":1,\"ev\":\"version_publish\",\"object\":1,\"colour\":9999,\"stamp\":2}", // colour range
            "{\"at_us\":1,\"ev\":\"version_gc\",\"reclaimed\":1}", // missing retained
            "{\"at_us\":1,\"ev\":\"watchdog_violation\",\"rule\":\"made_up\",\"action\":1,\"object\":1,\"aux\":0}", // unknown rule
            "{\"at_us\":1,\"ev\":\"watchdog_violation\",\"action\":1,\"object\":1,\"aux\":0}", // missing rule
            "{\"at_us\":1,\"ev\":\"metrics_snapshot\",\"lock_entries\":1}", // missing gauges
            "{\"at_us\":1,\"ev\":\"segment_seal\",\"segment\":1,\"batches\":2}", // missing bytes
            "{\"at_us\":1,\"ev\":\"checkpoint_begin\",\"segments\":1}", // missing batches
            "{\"at_us\":1,\"ev\":\"checkpoint_end\",\"upto\":1,\"batches\":2}", // missing objects
            "{\"at_us\":1,\"ev\":\"segment_gc\",\"segment\":true,\"bytes\":1}", // wrong type
        ] {
            assert!(
                Event::from_json_line(bad).is_err(),
                "should reject: {bad:?}"
            );
        }
    }

    #[test]
    fn metrics_snapshot_without_ckpt_backlog_is_rejected() {
        // No field has a default: a gauge line from before segmented
        // logs (no `ckpt_backlog`) is a missing-field error like any
        // other.
        let line = "{\"at_us\":5,\"ev\":\"metrics_snapshot\",\"lock_entries\":1,\
                    \"lock_waiters\":0,\"group_queue\":0,\"versions\":2,\
                    \"gc_backlog\":0,\"snapshots\":1,\"live_actions\":3}";
        let err = Event::from_json_line(line).unwrap_err();
        assert_eq!(err.message, "missing field `ckpt_backlog`");
    }

    #[test]
    fn parse_error_displays_line_number() {
        let e = TraceParseError::new("boom").at_line(7);
        assert_eq!(e.to_string(), "trace line 7: boom");
    }

    #[test]
    fn msg_kind_tags_round_trip() {
        for kind in MsgKind::ALL {
            assert_eq!(MsgKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(MsgKind::parse("nope"), None);
    }

    #[test]
    fn watchdog_rule_tags_round_trip() {
        for rule in WatchdogRule::ALL {
            assert_eq!(WatchdogRule::parse(rule.name()), Some(rule));
        }
        assert_eq!(WatchdogRule::parse("nope"), None);
        let mut names: Vec<_> = WatchdogRule::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WatchdogRule::ALL.len());
    }
}
