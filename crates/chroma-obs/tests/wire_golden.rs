//! Wire compatibility of the rule engine's output: for each of the 14
//! online rules, the exact `watchdog_violation` JSONL line the bus
//! emits and the offline `Violation`'s `Display` string; for the
//! exact-only findings, the `Display` string. Flight dumps,
//! `chroma-trace analyze/watch` output and downstream assertions key
//! on these — a change here is a format change, not a refactor.
//!
//! The `aux` field means: colour index for R1–R3, expected ancestor
//! for `bad_inherit_target`, transaction for R4, declared / replayed
//! batches for R9 and `replay_manifest_mismatch`, segment for
//! `gc_uncheckpointed_segment`, served stamp for
//! `snapshot_read_not_newest`.

mod agreement;

use std::sync::Arc;

use agreement::{a, begin, c, commit, ev, grant, inherit, n, o, release, undo};
use chroma_base::LockMode;
use chroma_obs::{
    Event, EventBus, EventKind, MemorySink, MsgKind, TraceAuditor, Watchdog, WatchdogRule,
};

/// The `watchdog_violation` lines a live bus emits for `stream`.
fn live_lines(stream: &[Event]) -> Vec<String> {
    let bus = Arc::new(EventBus::new());
    bus.set_time_us(7);
    let sink = Arc::new(MemorySink::new(256));
    bus.add_sink(sink.clone());
    Watchdog::attach(&bus);
    for event in stream {
        bus.emit(event.kind);
    }
    sink.events()
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
        colour: c(0),
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
                ev(EventKind::LockRequest {
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

fn stamped(lc: u64, corr: Option<u64>, kind: EventKind) -> Event {
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
                stamped(5, Some(7), msg(false)),
                stamped(3, Some(7), msg(true)),
            ],
            &["causality: delivery of corr 7 carries lc 3, not after the send's lc 5"],
        ),
        (
            vec![stamped(3, Some(9), msg(true))],
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
