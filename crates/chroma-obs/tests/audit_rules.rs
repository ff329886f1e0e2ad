//! Negative tests for the trace auditor: each invariant rule must fire
//! on a trace violating exactly it, and corrupted JSONL traces must be
//! rejected outright rather than partially audited. Every trace is
//! audited through [`agreement::audit`], so the windowed policy is
//! held to the exact one on this corpus too.

mod agreement;

use agreement::{a, audit, begin, ev, grant, n, o, release};
use chroma_base::{Colour, LockMode};
use chroma_obs::{Event, EventKind, TraceAuditor, Violation};

// ---------------------------------------------------------------------
// R1: strict two-phase locking
// ---------------------------------------------------------------------

#[test]
fn r1_grant_after_release_fires() {
    let trace = vec![
        begin(a(1), None, 0b1),
        grant(a(1), o(1), LockMode::Read),
        release(a(1), o(1)),
        grant(a(1), o(2), LockMode::Read),
    ];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::LockAfterShrink { action, .. }] if *action == a(1)
    ));
}

#[test]
fn r1_grant_after_termination_fires() {
    let trace = vec![
        begin(a(1), None, 0b1),
        ev(EventKind::ActionCommit { action: a(1) }),
        grant(a(1), o(1), LockMode::Read),
    ];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::LockAfterShrink { .. }]
    ));
}

#[test]
fn r1_grant_after_inherit_fires() {
    // Passing a lock up is already the shrinking phase: no new locks.
    let trace = vec![
        begin(a(1), None, 0b1),
        begin(a(2), Some(a(1)), 0b1),
        grant(a(2), o(1), LockMode::Write),
        ev(EventKind::LockInherit {
            from: a(2),
            to: a(1),
            object: o(1),
            colour: Colour::from_index(0),
        }),
        grant(a(2), o(2), LockMode::Read),
    ];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::LockAfterShrink { action, .. }] if *action == a(2)
    ));
}

// ---------------------------------------------------------------------
// R2: Moss commit-time inheritance by the closest colour-holding
// ancestor
// ---------------------------------------------------------------------

#[test]
fn r2_inherit_skipping_closest_ancestor_fires() {
    // Grandparent and parent both carry colour 0; the child passes its
    // lock to the grandparent, skipping the closer parent.
    let trace = vec![
        begin(a(1), None, 0b1),
        begin(a(2), Some(a(1)), 0b1),
        begin(a(3), Some(a(2)), 0b1),
        grant(a(3), o(1), LockMode::Write),
        ev(EventKind::LockInherit {
            from: a(3),
            to: a(1),
            object: o(1),
            colour: Colour::from_index(0),
        }),
    ];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::BadInheritTarget { from, to, expected, .. }]
            if *from == a(3) && *to == a(1) && *expected == Some(a(2))
    ));
}

#[test]
fn r2_inherit_when_no_ancestor_has_colour_fires() {
    // The parent does not carry colour 0, so the lock should have been
    // released, not inherited.
    let trace = vec![
        begin(a(1), None, 0b10),
        begin(a(2), Some(a(1)), 0b11),
        grant(a(2), o(1), LockMode::Write),
        ev(EventKind::LockInherit {
            from: a(2),
            to: a(1),
            object: o(1),
            colour: Colour::from_index(0),
        }),
    ];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::BadInheritTarget { expected: None, .. }]
    ));
}

#[test]
fn r2_inherit_of_never_granted_lock_fires() {
    let trace = vec![
        begin(a(1), None, 0b1),
        begin(a(2), Some(a(1)), 0b1),
        ev(EventKind::LockInherit {
            from: a(2),
            to: a(1),
            object: o(1),
            colour: Colour::from_index(0),
        }),
    ];
    let report = audit(&trace);
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::InheritWithoutLock { from, .. } if *from == a(2))));
}

#[test]
fn release_of_never_granted_lock_fires() {
    let trace = vec![begin(a(1), None, 0b1), release(a(1), o(1))];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::ReleaseWithoutLock { .. }]
    ));
}

// ---------------------------------------------------------------------
// R3: no write without a write-mode lock
// ---------------------------------------------------------------------

#[test]
fn r3_undo_without_any_lock_fires() {
    let trace = vec![
        begin(a(1), None, 0b1),
        ev(EventKind::UndoRecord {
            action: a(1),
            object: o(1),
            colour: Colour::from_index(0),
        }),
    ];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::WriteWithoutWriteLock { .. }]
    ));
}

#[test]
fn r3_undo_under_read_lock_fires() {
    let trace = vec![
        begin(a(1), None, 0b1),
        grant(a(1), o(1), LockMode::Read),
        ev(EventKind::UndoRecord {
            action: a(1),
            object: o(1),
            colour: Colour::from_index(0),
        }),
    ];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::WriteWithoutWriteLock { .. }]
    ));
}

#[test]
fn r3_undo_under_write_lock_is_clean() {
    let trace = vec![
        begin(a(1), None, 0b1),
        grant(a(1), o(1), LockMode::Write),
        ev(EventKind::UndoRecord {
            action: a(1),
            object: o(1),
            colour: Colour::from_index(0),
        }),
        release(a(1), o(1)),
        ev(EventKind::ActionCommit { action: a(1) }),
    ];
    assert!(audit(&trace).is_clean());
}

// ---------------------------------------------------------------------
// R4: two-phase-commit safety
// ---------------------------------------------------------------------

#[test]
fn r4_divergent_resolution_fires() {
    let trace = vec![
        ev(EventKind::TpcVote {
            node: n(1),
            txn: 7,
            yes: true,
        }),
        ev(EventKind::TpcDecide {
            node: n(0),
            txn: 7,
            commit: true,
            participants: 1,
        }),
        ev(EventKind::TpcResolve {
            node: n(1),
            txn: 7,
            commit: false,
        }),
    ];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::DivergentDecision {
            txn: 7,
            earlier: true,
            later: false,
            ..
        }]
    ));
}

#[test]
fn r4_commit_without_quorum_fires() {
    // Two participants declared, one yes-vote seen.
    let trace = vec![
        ev(EventKind::TpcVote {
            node: n(1),
            txn: 3,
            yes: true,
        }),
        ev(EventKind::TpcDecide {
            node: n(0),
            txn: 3,
            commit: true,
            participants: 2,
        }),
    ];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::CommitWithoutQuorum {
            txn: 3,
            yes_votes: 1,
            participants: 2,
        }]
    ));
}

#[test]
fn r4_commit_despite_no_vote_fires() {
    let trace = vec![
        ev(EventKind::TpcVote {
            node: n(1),
            txn: 9,
            yes: true,
        }),
        ev(EventKind::TpcVote {
            node: n(2),
            txn: 9,
            yes: false,
        }),
        ev(EventKind::TpcVote {
            node: n(2),
            txn: 9,
            yes: true,
        }),
        ev(EventKind::TpcDecide {
            node: n(0),
            txn: 9,
            commit: true,
            participants: 2,
        }),
    ];
    let report = audit(&trace);
    assert!(report
        .violations
        .iter()
        .any(|v| matches!(v, Violation::CommitDespiteNoVote { txn: 9, node } if *node == n(2))));
}

#[test]
fn r4_presumed_abort_resolution_then_agreeing_decide_is_clean() {
    // A participant resolved abort (coordinator never logged commit);
    // the coordinator later reaching the same abort verdict is fine.
    let trace = vec![
        ev(EventKind::TpcResolve {
            node: n(1),
            txn: 4,
            commit: false,
        }),
        ev(EventKind::TpcDecide {
            node: n(0),
            txn: 4,
            commit: false,
            participants: 1,
        }),
    ];
    assert!(audit(&trace).is_clean());
}

// ---------------------------------------------------------------------
// Dangling references and corrupted traces
// ---------------------------------------------------------------------

#[test]
fn unknown_action_reference_fires() {
    let trace = vec![grant(a(99), o(1), LockMode::Read)];
    let report = audit(&trace);
    assert!(matches!(
        report.violations.as_slice(),
        [Violation::UnknownAction { action, .. }] if *action == a(99)
    ));
}

#[test]
fn corrupted_jsonl_is_rejected_with_line_number() {
    let good = Event::at(12, EventKind::WalAppend { records: 1 }).to_json_line();
    let text = format!("{good}\n{{\"at_us\":5,\"ev\":\"wal_append\"\n{good}\n");
    let err = TraceAuditor::audit_jsonl(&text).expect_err("truncated line must reject");
    assert!(err.to_string().contains("line 2"), "{err}");
}

#[test]
fn jsonl_with_unknown_event_tag_is_rejected() {
    let text = "{\"at_us\":1,\"ev\":\"not_a_real_event\"}\n";
    assert!(TraceAuditor::audit_jsonl(text).is_err());
}

#[test]
fn blank_lines_are_tolerated_but_garbage_is_not() {
    let good = Event::at(3, EventKind::NodeCrash { node: n(2) }).to_json_line();
    let ok = format!("\n{good}\n\n");
    assert_eq!(TraceAuditor::audit_jsonl(&ok).expect("clean").events, 1);
    let bad = format!("{good}garbage\n");
    assert!(TraceAuditor::audit_jsonl(&bad).is_err());
}
