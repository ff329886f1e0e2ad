//! Wire compatibility of the rule engine's output: for each of the 14
//! online rules, the exact `watchdog_violation` JSONL line the bus
//! emits and the offline `Violation`'s `Display` string; for the
//! exact-only findings, the `Display` string. Flight dumps,
//! `chroma-trace analyze/watch` output and downstream assertions key
//! on these — a change here is a format change, not a refactor.
//! Below them, the vocabulary itself: one golden JSONL line per
//! `EventKind` and the parser's rejection messages, both taken from
//! the build that still encoded and decoded each kind by hand.
//!
//! The `aux` field means: colour index for R1–R3, expected ancestor
//! for `bad_inherit_target`, transaction for R4, declared / replayed
//! batches for R9 and `replay_manifest_mismatch`, segment for
//! `gc_uncheckpointed_segment`, served stamp for
//! `snapshot_read_not_newest`.

mod agreement;

use std::num::NonZeroU64;
use std::sync::Arc;

use agreement::{a, begin, c, commit, ev, grant, inherit, n, o, release, undo};
use chroma_base::LockMode;
use chroma_obs::{
    Event, EventBus, EventKind, FlightRecorder, MsgKind, TraceAuditor, Watchdog, WatchdogRule,
};

/// The `watchdog_violation` lines a live bus emits for `stream`.
fn live_lines(stream: &[Event]) -> Vec<String> {
    let bus = Arc::new(EventBus::new());
    bus.set_time_us(7);
    let recorder = FlightRecorder::attach(&bus, 256);
    Watchdog::attach(&bus);
    for event in stream {
        bus.emit(event.kind);
    }
    // the read drains the bus: the watchdog steps the staged events
    recorder
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WatchdogViolation { .. }))
        .map(Event::to_json_line)
        .collect()
}

fn displays(stream: &[Event]) -> Vec<String> {
    TraceAuditor::audit_events(stream)
        .violations
        .iter()
        .map(ToString::to_string)
        .collect()
}

fn append() -> Event {
    ev(EventKind::DiskAppend {
        records: 2,
        bytes: 64,
    })
}

fn group(batches: u64) -> Event {
    ev(EventKind::DiskGroupCommit {
        batches,
        records: batches * 2,
        bytes: batches * 64,
    })
}

fn seal(segment: u64, batches: u64) -> Event {
    ev(EventKind::SegmentSeal {
        segment,
        batches,
        bytes: batches * 64,
    })
}

fn replay(batches: u64) -> Event {
    ev(EventKind::DiskReplay {
        batches,
        objects: batches,
    })
}

fn vote(node: u32, txn: u64, yes: bool) -> Event {
    ev(EventKind::TpcVote {
        node: n(node),
        txn,
        yes,
    })
}

fn decide(txn: u64, commit: bool, participants: u64) -> Event {
    ev(EventKind::TpcDecide {
        node: n(1),
        txn,
        commit,
        participants,
    })
}

fn publish(object: u64, stamp: u64) -> Event {
    ev(EventKind::VersionPublish {
        object: o(object),
        colour: c(0),
        stamp,
    })
}

fn open(action: u64, stamp: u64) -> Event {
    ev(EventKind::SnapshotOpen {
        action: a(action),
        stamp,
    })
}

/// One minimal offending stream per online rule, with the line and
/// the `Display` string it must keep producing.
fn online_cases() -> Vec<(WatchdogRule, Vec<Event>, &'static str, &'static str)> {
    vec![
        (
            WatchdogRule::LockAfterShrink,
            vec![
                begin(a(1), None, 0b10),
                ev(EventKind::LockGrant {
                    action: a(1),
                    object: o(7),
                    colour: c(1),
                    mode: LockMode::Read,
                }),
                ev(EventKind::LockRelease {
                    action: a(1),
                    object: o(7),
                    colour: c(1),
                }),
                ev(EventKind::LockGrant {
                    action: a(1),
                    object: o(8),
                    colour: c(1),
                    mode: LockMode::Read,
                }),
            ],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"lock_after_shrink","action":1,"object":8,"aux":1}"#,
            "strict 2PL: A1 granted O8/c1 after shrinking",
        ),
        (
            WatchdogRule::InheritWithoutLock,
            vec![
                begin(a(1), None, 0b1),
                begin(a(2), Some(a(1)), 0b1),
                inherit(a(2), a(1), o(7)),
            ],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"inherit_without_lock","action":2,"object":7,"aux":0}"#,
            "inheritance: A2 passed O7/c0 it never held",
        ),
        (
            WatchdogRule::BadInheritTarget,
            vec![
                begin(a(1), None, 0b1),
                begin(a(2), Some(a(1)), 0b1),
                begin(a(3), Some(a(2)), 0b1),
                grant(a(3), o(7), LockMode::Write),
                inherit(a(3), a(1), o(7)),
            ],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"bad_inherit_target","action":3,"object":7,"aux":2}"#,
            "inheritance: A3 passed O7/c0 to A1, closest c0 ancestor is A2",
        ),
        (
            WatchdogRule::ReleaseWithoutLock,
            vec![begin(a(1), None, 0b1), release(a(1), o(7))],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"release_without_lock","action":1,"object":7,"aux":0}"#,
            "release: A1 released O7/c0 it never held",
        ),
        (
            WatchdogRule::WriteWithoutWriteLock,
            vec![
                begin(a(1), None, 0b1),
                grant(a(1), o(7), LockMode::Read),
                undo(a(1), o(7)),
            ],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"write_without_write_lock","action":1,"object":7,"aux":0}"#,
            "write safety: A1 recorded an undo for O7/c0 without a write lock",
        ),
        (
            WatchdogRule::CommitWithoutQuorum,
            vec![vote(1, 9, true), decide(9, true, 3)],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"commit_without_quorum","action":0,"object":0,"aux":9}"#,
            "2pc: T9 committed with 1/3 yes-votes",
        ),
        (
            WatchdogRule::CommitDespiteNoVote,
            vec![vote(1, 9, true), vote(2, 9, false), decide(9, true, 1)],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"commit_despite_no_vote","action":0,"object":0,"aux":9}"#,
            "2pc: T9 committed although N2 voted no",
        ),
        (
            WatchdogRule::DivergentDecision,
            vec![
                vote(1, 9, true),
                decide(9, true, 1),
                ev(EventKind::TpcResolve {
                    node: n(2),
                    txn: 9,
                    commit: false,
                }),
            ],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"divergent_decision","action":0,"object":0,"aux":9}"#,
            "2pc: T9 decided commit but N2 says abort",
        ),
        (
            WatchdogRule::GroupFsyncCoverage,
            vec![append(), group(3)],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"group_fsync_coverage","action":0,"object":0,"aux":3}"#,
            "group commit: a group fsync declared 3 batch(es) but 1 were appended since the last one",
        ),
        (
            WatchdogRule::ReplayMarkMismatch,
            vec![append(), group(1), replay(2)],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"replay_mark_mismatch","action":0,"object":0,"aux":2}"#,
            "group commit: recovery replayed 2 batch(es) but 1 were marked and never checkpointed",
        ),
        (
            WatchdogRule::SnapshotReaderLocks,
            vec![
                begin(a(5), None, 0),
                open(5, 0),
                ev(EventKind::LockConflict {
                    action: a(5),
                    object: o(7),
                    colour: c(0),
                    mode: LockMode::Read,
                }),
            ],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"snapshot_reader_locks","action":5,"object":7,"aux":0}"#,
            "snapshot: read-only A5 appeared in lock traffic for O7",
        ),
        (
            WatchdogRule::SnapshotReadNotNewest,
            vec![
                publish(7, 1),
                publish(7, 2),
                begin(a(5), None, 0),
                open(5, 2),
                ev(EventKind::SnapshotRead {
                    action: a(5),
                    object: o(7),
                    colour: c(0),
                    stamp: 1,
                }),
            ],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"snapshot_read_not_newest","action":5,"object":7,"aux":1}"#,
            "snapshot: A5 read O7 at stamp 1, but the newest visible version is stamp 2",
        ),
        (
            WatchdogRule::GcUncheckpointedSegment,
            vec![
                append(),
                group(1),
                seal(2, 1),
                ev(EventKind::SegmentGc {
                    segment: 2,
                    bytes: 64,
                }),
            ],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"gc_uncheckpointed_segment","action":0,"object":0,"aux":2}"#,
            "segment lifecycle: segment 2 was GC'd above checkpoint watermark 0",
        ),
        (
            WatchdogRule::ReplayManifestMismatch,
            // a checkpoint retired the sealed batch from R9's count but
            // (upto 0) not from the manifest's live suffix
            vec![
                append(),
                group(1),
                seal(1, 1),
                ev(EventKind::CheckpointEnd {
                    upto: 0,
                    batches: 1,
                    objects: 1,
                }),
                replay(0),
            ],
            r#"{"at_us":7,"ev":"watchdog_violation","rule":"replay_manifest_mismatch","action":0,"object":0,"aux":0}"#,
            "segment lifecycle: recovery replayed 0 batch(es) but the manifest's live suffix held 1",
        ),
    ]
}

#[test]
fn every_online_rule_keeps_its_wire_line_and_display() {
    let cases = online_cases();
    let covered: Vec<_> = cases.iter().map(|case| case.0).collect();
    assert_eq!(
        covered,
        WatchdogRule::ALL,
        "one case per rule, in tag order"
    );
    for (rule, stream, line, display) in cases {
        assert_eq!(live_lines(&stream), [line], "{rule}: live watchdog line");
        assert_eq!(displays(&stream), [display], "{rule}: offline Display");
        // the same finding, seen both ways
        let parsed = Event::from_json_line(line).expect("golden line parses");
        let EventKind::WatchdogViolation {
            rule: tag,
            action,
            object,
            aux,
        } = parsed.kind
        else {
            panic!("{line} is not a watchdog_violation");
        };
        let report = TraceAuditor::audit_events(&stream);
        assert_eq!(
            report.violations[0].online(),
            Some((tag, action, object, aux)),
            "{rule}: Violation::online() is the wire payload"
        );
        assert_eq!(tag, rule);
    }
}

fn stamped(lc: u64, corr: Option<NonZeroU64>, kind: EventKind) -> Event {
    let mut e = ev(kind);
    e.lc = lc;
    e.corr = corr;
    e
}

#[test]
fn every_exact_only_finding_keeps_its_display() {
    let install = |node, version| {
        ev(EventKind::ReplicaInstall {
            node: n(node),
            object: o(9),
            version,
        })
    };
    let msg = |deliver: bool| {
        let (from, to, kind) = (n(1), n(2), MsgKind::Prepare);
        if deliver {
            EventKind::MsgDeliver { from, to, kind }
        } else {
            EventKind::MsgSend { from, to, kind }
        }
    };
    let cases: Vec<(Vec<Event>, &[&str])> = vec![
        (
            vec![install(1, 5), install(1, 3)],
            &["replication: N1 installed O9 v3 after already holding v5"],
        ),
        (
            vec![
                ev(EventKind::CatchupBegin {
                    node: n(3),
                    object: o(9),
                }),
                ev(EventKind::ReplicaRead {
                    node: n(3),
                    object: o(9),
                    version: 0,
                    stale: false,
                }),
            ],
            &["replication: a read of O9 was served from N3 while it was catching up"],
        ),
        (
            vec![
                install(1, 5),
                ev(EventKind::ReplicaRead {
                    node: n(2),
                    object: o(9),
                    version: 2,
                    stale: false,
                }),
            ],
            &["replication: N2 served O9 v2 while the group held v5 (window 1)"],
        ),
        (
            vec![grant(a(99), o(1), LockMode::Read)],
            &["trace: lock_grant references unknown action A99"],
        ),
        (
            vec![
                stamped(5, NonZeroU64::new(7), msg(false)),
                stamped(3, NonZeroU64::new(7), msg(true)),
            ],
            &["causality: delivery of corr 7 carries lc 3, not after the send's lc 5"],
        ),
        (
            vec![stamped(3, NonZeroU64::new(9), msg(true))],
            &["causality: N2 applied a delivery with corr 9 that matches no send"],
        ),
        (
            vec![
                begin(a(1), None, 0b1),
                begin(a(2), Some(a(1)), 0b1),
                commit(a(1)),
            ],
            &["causality: A2's span is not enclosed by its parent A1's"],
        ),
        (
            vec![
                stamped(11, None, vote(2, 4, true).kind),
                stamped(9, None, decide(4, true, 1).kind),
            ],
            &["causality: T4's commit decision does not causally follow N2's yes-vote"],
        ),
        (
            vec![
                begin(a(1), None, 0b10),
                begin(a(2), Some(a(1)), 0b11),
                grant(a(2), o(1), LockMode::Write),
                inherit(a(2), a(1), o(1)),
            ],
            &["inheritance: A2 passed O1/c0 to A1, but no ancestor holds c0 (should release)"],
        ),
    ];
    for (stream, expected) in cases {
        assert_eq!(displays(&stream), expected);
        let report = TraceAuditor::audit_events(&stream);
        assert!(
            report.violations.iter().all(|v| v.online().is_none()),
            "{report} has no wire form"
        );
        assert!(Watchdog::replay(&stream).is_empty());
    }
}

#[test]
fn report_display_keeps_its_shape() {
    let clean = TraceAuditor::audit_events(&[begin(a(1), None, 0b1), commit(a(1))]);
    assert_eq!(clean.to_string(), "audit: 2 events, clean");
    let dirty = TraceAuditor::audit_events(&[begin(a(1), None, 0b1), release(a(1), o(7))]);
    assert_eq!(
        dirty.to_string(),
        "audit: 2 events, 1 violation(s):\n  - release: A1 released O7/c0 it never held\n"
    );
}

/// At least one line per `EventKind`, in `index()` order, as the build
/// before the declaration table wrote them. To add an event kind: one row in
/// `event.rs`'s table, one line here.
fn golden_kinds() -> Vec<(&'static str, Event)> {
    let at = Event::at;
    vec![
        (
            r#"{"at_us":0,"ev":"action_begin","action":11,"colours":5}"#,
            at(
                0,
                EventKind::ActionBegin {
                    action: a(11),
                    parent: None,
                    colours: 0b101,
                },
            ),
        ),
        (
            r#"{"at_us":1,"ev":"action_begin","action":12,"parent":11,"colours":18446744073709551615}"#,
            at(
                1,
                EventKind::ActionBegin {
                    action: a(12),
                    parent: Some(a(11)),
                    colours: u64::MAX,
                },
            ),
        ),
        (
            r#"{"at_us":2,"ev":"action_commit","action":12}"#,
            at(2, EventKind::ActionCommit { action: a(12) }),
        ),
        (
            r#"{"at_us":3,"ev":"action_abort","action":11}"#,
            at(3, EventKind::ActionAbort { action: a(11) }),
        ),
        // the grant carries the `read` mode the request line did
        (
            r#"{"at_us":4,"ev":"lock_grant","action":11,"object":22,"colour":0,"mode":"read"}"#,
            at(
                4,
                EventKind::LockGrant {
                    action: a(11),
                    object: o(22),
                    colour: c(0),
                    mode: LockMode::Read,
                },
            ),
        ),
        (
            r#"{"at_us":5,"ev":"lock_grant","action":11,"object":22,"colour":63,"mode":"write"}"#,
            at(
                5,
                EventKind::LockGrant {
                    action: a(11),
                    object: o(22),
                    colour: c(63),
                    mode: LockMode::Write,
                },
            ),
        ),
        (
            r#"{"at_us":6,"ev":"lock_conflict","action":12,"object":22,"colour":1,"mode":"exclusive-read"}"#,
            at(
                6,
                EventKind::LockConflict {
                    action: a(12),
                    object: o(22),
                    colour: c(1),
                    mode: LockMode::ExclusiveRead,
                },
            ),
        ),
        (
            r#"{"at_us":7,"ev":"lock_inherit","from":12,"to":11,"object":22,"colour":2}"#,
            at(
                7,
                EventKind::LockInherit {
                    from: a(12),
                    to: a(11),
                    object: o(22),
                    colour: c(2),
                },
            ),
        ),
        (
            r#"{"at_us":8,"ev":"lock_release","action":11,"object":22,"colour":3}"#,
            at(
                8,
                EventKind::LockRelease {
                    action: a(11),
                    object: o(22),
                    colour: c(3),
                },
            ),
        ),
        (
            r#"{"at_us":9,"ev":"undo_record","action":11,"object":18446744073709551615,"colour":4}"#,
            at(
                9,
                EventKind::UndoRecord {
                    action: a(11),
                    object: o(u64::MAX),
                    colour: c(4),
                },
            ),
        ),
        (
            r#"{"at_us":13,"ev":"tpc_vote","node":2,"txn":9,"yes":true}"#,
            at(
                13,
                EventKind::TpcVote {
                    node: n(2),
                    txn: 9,
                    yes: true,
                },
            ),
        ),
        (
            r#"{"at_us":14,"ev":"tpc_decide","node":1,"txn":9,"commit":false,"participants":2}"#,
            at(
                14,
                EventKind::TpcDecide {
                    node: n(1),
                    txn: 9,
                    commit: false,
                    participants: 2,
                },
            ),
        ),
        (
            r#"{"at_us":15,"ev":"tpc_resolve","node":4294967295,"txn":9,"commit":true}"#,
            at(
                15,
                EventKind::TpcResolve {
                    node: n(u32::MAX),
                    txn: 9,
                    commit: true,
                },
            ),
        ),
        (
            r#"{"at_us":16,"ev":"node_crash","node":2}"#,
            at(16, EventKind::NodeCrash { node: n(2) }),
        ),
        (
            r#"{"at_us":17,"ev":"node_recover","node":2}"#,
            at(17, EventKind::NodeRecover { node: n(2) }),
        ),
        (
            r#"{"at_us":0,"ev":"msg_send","from":1,"to":2,"kind":"prepare","lc":5,"corr":77}"#,
            stamped(
                5,
                NonZeroU64::new(77),
                EventKind::MsgSend {
                    from: n(1),
                    to: n(2),
                    kind: MsgKind::Prepare,
                },
            ),
        ),
        (
            r#"{"at_us":19,"ev":"msg_drop","from":1,"to":2,"kind":"decision_query"}"#,
            at(
                19,
                EventKind::MsgDrop {
                    from: n(1),
                    to: n(2),
                    kind: MsgKind::DecisionQuery,
                },
            ),
        ),
        (
            r#"{"at_us":20,"ev":"msg_dup","from":2,"to":1,"kind":"vote_yes"}"#,
            at(
                20,
                EventKind::MsgDup {
                    from: n(2),
                    to: n(1),
                    kind: MsgKind::VoteYes,
                },
            ),
        ),
        (
            r#"{"at_us":0,"ev":"msg_deliver","from":1,"to":2,"kind":"replica_pull","lc":6,"corr":77}"#,
            stamped(
                6,
                NonZeroU64::new(77),
                EventKind::MsgDeliver {
                    from: n(1),
                    to: n(2),
                    kind: MsgKind::ReplicaPull,
                },
            ),
        ),
        (
            r#"{"at_us":22,"ev":"disk_append","records":4,"bytes":128}"#,
            at(
                22,
                EventKind::DiskAppend {
                    records: 4,
                    bytes: 128,
                },
            ),
        ),
        (
            r#"{"at_us":24,"ev":"disk_replay","batches":2,"objects":5}"#,
            at(
                24,
                EventKind::DiskReplay {
                    batches: 2,
                    objects: 5,
                },
            ),
        ),
        (
            r#"{"at_us":25,"ev":"replica_write","object":22,"version":4,"fanout":3}"#,
            at(
                25,
                EventKind::ReplicaWrite {
                    object: o(22),
                    version: 4,
                    fanout: 3,
                },
            ),
        ),
        (
            r#"{"at_us":26,"ev":"replica_install","node":2,"object":22,"version":4}"#,
            at(
                26,
                EventKind::ReplicaInstall {
                    node: n(2),
                    object: o(22),
                    version: 4,
                },
            ),
        ),
        (
            r#"{"at_us":27,"ev":"replica_read","node":1,"object":22,"version":4,"stale":false}"#,
            at(
                27,
                EventKind::ReplicaRead {
                    node: n(1),
                    object: o(22),
                    version: 4,
                    stale: false,
                },
            ),
        ),
        (
            r#"{"at_us":28,"ev":"catchup_begin","node":2,"object":22}"#,
            at(
                28,
                EventKind::CatchupBegin {
                    node: n(2),
                    object: o(22),
                },
            ),
        ),
        (
            r#"{"at_us":29,"ev":"catchup_end","node":2,"object":22,"version":4}"#,
            at(
                29,
                EventKind::CatchupEnd {
                    node: n(2),
                    object: o(22),
                    version: 4,
                },
            ),
        ),
        (
            r#"{"at_us":30,"ev":"disk_group_commit","batches":3,"records":9,"bytes":256}"#,
            at(
                30,
                EventKind::DiskGroupCommit {
                    batches: 3,
                    records: 9,
                    bytes: 256,
                },
            ),
        ),
        (
            r#"{"at_us":31,"ev":"snapshot_open","action":11,"stamp":5}"#,
            at(
                31,
                EventKind::SnapshotOpen {
                    action: a(11),
                    stamp: 5,
                },
            ),
        ),
        (
            r#"{"at_us":32,"ev":"snapshot_read","action":11,"object":22,"colour":1,"stamp":5}"#,
            at(
                32,
                EventKind::SnapshotRead {
                    action: a(11),
                    object: o(22),
                    colour: c(1),
                    stamp: 5,
                },
            ),
        ),
        (
            r#"{"at_us":33,"ev":"version_publish","object":22,"colour":0,"stamp":6}"#,
            at(
                33,
                EventKind::VersionPublish {
                    object: o(22),
                    colour: c(0),
                    stamp: 6,
                },
            ),
        ),
        (
            r#"{"at_us":34,"ev":"version_gc","reclaimed":2,"retained":5}"#,
            at(
                34,
                EventKind::VersionGc {
                    reclaimed: 2,
                    retained: 5,
                },
            ),
        ),
        (
            r#"{"at_us":35,"ev":"watchdog_violation","rule":"snapshot_read_not_newest","action":11,"object":22,"aux":33}"#,
            at(
                35,
                EventKind::WatchdogViolation {
                    rule: WatchdogRule::SnapshotReadNotNewest,
                    action: a(11),
                    object: o(22),
                    aux: 33,
                },
            ),
        ),
        (
            r#"{"at_us":36,"ev":"metrics_snapshot","lock_entries":1,"lock_waiters":2,"group_queue":3,"versions":4,"gc_backlog":5,"snapshots":6,"live_actions":7,"ckpt_backlog":8}"#,
            at(
                36,
                EventKind::MetricsSnapshot {
                    lock_entries: 1,
                    lock_waiters: 2,
                    group_queue: 3,
                    versions: 4,
                    gc_backlog: 5,
                    snapshots: 6,
                    live_actions: 7,
                    ckpt_backlog: 8,
                },
            ),
        ),
        (
            r#"{"at_us":37,"ev":"segment_seal","segment":3,"batches":12,"bytes":4096}"#,
            at(
                37,
                EventKind::SegmentSeal {
                    segment: 3,
                    batches: 12,
                    bytes: 4096,
                },
            ),
        ),
        (
            r#"{"at_us":38,"ev":"checkpoint_begin","segments":2,"batches":20}"#,
            at(
                38,
                EventKind::CheckpointBegin {
                    segments: 2,
                    batches: 20,
                },
            ),
        ),
        (
            r#"{"at_us":39,"ev":"checkpoint_end","upto":3,"batches":20,"objects":6}"#,
            at(
                39,
                EventKind::CheckpointEnd {
                    upto: 3,
                    batches: 20,
                    objects: 6,
                },
            ),
        ),
        (
            r#"{"at_us":40,"ev":"segment_gc","segment":3,"bytes":4096}"#,
            at(
                40,
                EventKind::SegmentGc {
                    segment: 3,
                    bytes: 4096,
                },
            ),
        ),
        // the envelope: a handle-bound node with `lc`, and a bound node
        // that an intrinsic one overrides (never written twice)
        (
            r#"{"at_us":0,"ev":"disk_append","records":1,"bytes":8,"lc":9,"node":3}"#,
            Event {
                node: Some(n(3)),
                ..stamped(
                    9,
                    None,
                    EventKind::DiskAppend {
                        records: 1,
                        bytes: 8,
                    },
                )
            },
        ),
        (
            r#"{"at_us":42,"ev":"tpc_vote","node":2,"txn":9,"yes":true,"lc":4}"#,
            Event {
                lc: 4,
                ..at(
                    42,
                    EventKind::TpcVote {
                        node: n(2),
                        txn: 9,
                        yes: true,
                    },
                )
            },
        ),
    ]
}

#[test]
fn every_kind_keeps_its_wire_line() {
    let golden = golden_kinds();
    for (line, event) in &golden {
        assert_eq!(event.to_json_line(), *line);
        assert_eq!(Event::from_json_line(line).as_ref(), Ok(event), "{line}");
    }
    let mut covered: Vec<usize> = golden.iter().map(|(_, e)| e.kind.index()).collect();
    covered.sort_unstable();
    covered.dedup();
    assert_eq!(
        covered,
        (0..35).collect::<Vec<_>>(),
        "one golden line per kind"
    );
}

/// Lines the strict parser refuses, with the message it gives: for
/// each field type a missing, a mistyped and (where the type has a
/// range or a tag set) an out-of-range value, then the envelope and
/// the object syntax.
const REJECTED: &[(&str, &str)] = &[
    // u64
    (
        r#"{"at_us":1,"ev":"disk_append","bytes":8}"#,
        "missing field `records`",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":"3","bytes":8}"#,
        r#"field `records` should be a number, got Str("3")"#,
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":18446744073709551616,"bytes":8}"#,
        "number `18446744073709551616` out of range",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":-1,"bytes":8}"#,
        "expected a value at byte 40",
    ),
    // bool
    (
        r#"{"at_us":1,"ev":"tpc_vote","node":2,"txn":9}"#,
        "missing field `yes`",
    ),
    (
        r#"{"at_us":1,"ev":"tpc_vote","node":2,"txn":9,"yes":1}"#,
        "field `yes` should be a bool, got Num(1)",
    ),
    // ActionId, Option<ActionId>
    (
        r#"{"at_us":1,"ev":"action_commit"}"#,
        "missing field `action`",
    ),
    (
        r#"{"at_us":1,"ev":"action_commit","action":true}"#,
        "field `action` should be a number, got Bool(true)",
    ),
    (
        r#"{"at_us":1,"ev":"action_begin","action":1,"parent":"0","colours":1}"#,
        r#"field `parent` should be a number, got Str("0")"#,
    ),
    // ObjectId
    (
        r#"{"at_us":1,"ev":"replica_write","version":1,"fanout":1}"#,
        "missing field `object`",
    ),
    (
        r#"{"at_us":1,"ev":"replica_write","object":false,"version":1,"fanout":1}"#,
        "field `object` should be a number, got Bool(false)",
    ),
    // NodeId
    (r#"{"at_us":1,"ev":"node_crash"}"#, "missing field `node`"),
    (
        r#"{"at_us":1,"ev":"node_crash","node":"n2"}"#,
        r#"field `node` should be a number, got Str("n2")"#,
    ),
    (
        r#"{"at_us":1,"ev":"node_crash","node":4294967296}"#,
        "node id 4294967296 out of range",
    ),
    (
        r#"{"at_us":1,"ev":"msg_send","from":1,"to":4294967296,"kind":"ack"}"#,
        "node id 4294967296 out of range",
    ),
    // u32 (the gauges)
    (
        r#"{"at_us":1,"ev":"metrics_snapshot","lock_entries":1,"lock_waiters":0,"group_queue":0,"versions":2,"gc_backlog":0,"snapshots":1,"live_actions":3}"#,
        "missing field `ckpt_backlog`",
    ),
    (
        r#"{"at_us":1,"ev":"metrics_snapshot","lock_entries":true,"lock_waiters":0,"group_queue":0,"versions":2,"gc_backlog":0,"snapshots":1,"live_actions":3,"ckpt_backlog":0}"#,
        "field `lock_entries` should be a number, got Bool(true)",
    ),
    (
        r#"{"at_us":1,"ev":"metrics_snapshot","lock_entries":1,"lock_waiters":0,"group_queue":0,"versions":4294967296,"gc_backlog":0,"snapshots":1,"live_actions":3,"ckpt_backlog":0}"#,
        "field `versions` value 4294967296 out of range",
    ),
    // Colour
    (
        r#"{"at_us":1,"ev":"lock_release","action":1,"object":1}"#,
        "missing field `colour`",
    ),
    (
        r#"{"at_us":1,"ev":"lock_release","action":1,"object":1,"colour":"red"}"#,
        r#"field `colour` should be a number, got Str("red")"#,
    ),
    (
        r#"{"at_us":1,"ev":"lock_release","action":1,"object":1,"colour":64}"#,
        "colour index 64 out of range",
    ),
    // LockMode
    (
        r#"{"at_us":1,"ev":"lock_grant","action":1,"object":1,"colour":0}"#,
        "missing field `mode`",
    ),
    (
        r#"{"at_us":1,"ev":"lock_grant","action":1,"object":1,"colour":0,"mode":2}"#,
        "field `mode` should be a string, got Num(2)",
    ),
    (
        r#"{"at_us":1,"ev":"lock_grant","action":1,"object":1,"colour":0,"mode":"steal"}"#,
        "unknown lock mode `steal`",
    ),
    // MsgKind
    (
        r#"{"at_us":1,"ev":"msg_send","from":1,"to":2}"#,
        "missing field `kind`",
    ),
    (
        r#"{"at_us":1,"ev":"msg_send","from":1,"to":2,"kind":3}"#,
        "field `kind` should be a string, got Num(3)",
    ),
    (
        r#"{"at_us":1,"ev":"msg_send","from":1,"to":2,"kind":"pigeon"}"#,
        "unknown message kind `pigeon`",
    ),
    // WatchdogRule
    (
        r#"{"at_us":1,"ev":"watchdog_violation","action":1,"object":1,"aux":0}"#,
        "missing field `rule`",
    ),
    (
        r#"{"at_us":1,"ev":"watchdog_violation","rule":true,"action":1,"object":1,"aux":0}"#,
        "field `rule` should be a string, got Bool(true)",
    ),
    (
        r#"{"at_us":1,"ev":"watchdog_violation","rule":"made_up","action":1,"object":1,"aux":0}"#,
        "unknown watchdog rule `made_up`",
    ),
    // fields are read in declaration order: the first bad one is named
    (
        r#"{"at_us":1,"ev":"tpc_decide","node":1,"txn":true,"commit":1}"#,
        "field `txn` should be a number, got Bool(true)",
    ),
    // the envelope
    (
        r#"{"ev":"disk_append","records":1,"bytes":8}"#,
        "missing field `at_us`",
    ),
    (
        r#"{"at_us":true,"ev":"disk_append","records":1,"bytes":8}"#,
        "field `at_us` should be a number, got Bool(true)",
    ),
    (r#"{"at_us":1,"records":1}"#, "missing field `ev`"),
    (
        r#"{"at_us":1,"ev":7,"records":1}"#,
        "field `ev` should be a string, got Num(7)",
    ),
    (
        r#"{"at_us":1,"ev":"no_such_event"}"#,
        "unknown event tag `no_such_event`",
    ),
    (
        r#"{"at_us":1,"ev":"Disk_Append","records":1,"bytes":8}"#,
        "unknown event tag `Disk_Append`",
    ),
    // the kinds that reported no real log (an in-memory map's
    // "WAL", a checkpoint nothing produces, a prepare that restated
    // the yes vote) are gone: their old lines fail loudly
    (
        r#"{"at_us":10,"ev":"wal_append","records":3}"#,
        "unknown event tag `wal_append`",
    ),
    (
        r#"{"at_us":11,"ev":"wal_flush","objects":2}"#,
        "unknown event tag `wal_flush`",
    ),
    (
        r#"{"at_us":12,"ev":"tpc_prepare","node":2,"txn":9}"#,
        "unknown event tag `tpc_prepare`",
    ),
    (
        r#"{"at_us":23,"ev":"disk_checkpoint","objects":3}"#,
        "unknown event tag `disk_checkpoint`",
    ),
    // a request is reported by its decision alone (a grant, or a
    // conflict), so the request line is gone too
    (
        r#"{"at_us":4,"ev":"lock_request","action":11,"object":22,"colour":0,"mode":"read"}"#,
        "unknown event tag `lock_request`",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":8,"lc":"9"}"#,
        r#"field `lc` should be a number, got Str("9")"#,
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":8,"corr":false}"#,
        "field `corr` should be a number, got Bool(false)",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":8,"corr":0}"#,
        "field `corr` is 0",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":8,"node":"3"}"#,
        r#"field `node` should be a number, got Str("3")"#,
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":8,"node":4294967296}"#,
        "node id 4294967296 out of range",
    ),
    // the object syntax
    ("", "empty line"),
    ("not json", "expected `{` at byte 0"),
    (
        r#"{"at_us":1,"at_us":2,"ev":"disk_append","records":1,"bytes":8}"#,
        "duplicate field `at_us`",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":8,"records":1}"#,
        "duplicate field `records`",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":8}garbage"#,
        "trailing garbage at byte 52",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":8"#,
        "expected `,` or `}` at byte 51",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":8.5}"#,
        "expected `,` or `}` at byte 51",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":{"n":1}}"#,
        "expected a value at byte 50",
    ),
    (
        r#"{"at_us":1,"ev":"disk_append","records":1,"bytes":8,"x":"a\nb"}"#,
        r#"unsupported escape sequence (only \\ and \" are allowed)"#,
    ),
];

#[test]
fn every_rejection_keeps_its_message() {
    for (line, message) in REJECTED {
        let err = Event::from_json_line(line).expect_err(line);
        assert_eq!(err.message, *message, "{line}");
        assert_eq!(err.line, None);
    }
}
