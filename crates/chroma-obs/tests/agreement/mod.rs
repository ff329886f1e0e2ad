//! The differential check of the rule engine's two retention policies,
//! shared by the test binaries that feed it a corpus.
//!
//! `TraceAuditor` is the exact policy and `Watchdog::replay` the
//! windowed one. On every stream the windowed findings must be a
//! subsequence of the exact ones (seen through `Violation::online`);
//! on a stream that is [`complete`] they must be equal. (One caveat,
//! DESIGN.md §7.3 row R4: a transaction whose events straddle more
//! than 1024 others restarts empty in the window; no corpus here
//! reaches that.)

#![allow(dead_code)]

use std::collections::{HashMap, HashSet};

use chroma_base::{ActionId, Colour, LockMode, NodeId, ObjectId};
use chroma_obs::{AuditReport, Event, EventKind, TraceAuditor, Violation, Watchdog, WatchdogRule};

/// A `watchdog_violation` payload.
pub type Wire = (WatchdogRule, ActionId, ObjectId, u64);

/// What the windowed policy finds.
pub fn windowed(events: &[Event]) -> Vec<Wire> {
    Watchdog::replay(events)
        .into_iter()
        .map(|kind| match kind {
            EventKind::WatchdogViolation {
                rule,
                action,
                object,
                aux,
            } => (rule, action, object, aux),
            other => panic!("replay returned {other:?}"),
        })
        .collect()
}

/// What of the exact policy's report the windowed one could find too.
pub fn online(report: &AuditReport) -> Vec<Wire> {
    report
        .violations
        .iter()
        .filter_map(Violation::online)
        .collect()
}

/// Whether the windowed policy sees everything it needs: the stream
/// starts with the engine attached — every event that names an acting
/// action falls inside that action's begin..termination span, every
/// snapshot read follows an open — and nothing outgrows a window.
pub fn complete(events: &[Event]) -> bool {
    let mut live = HashSet::new();
    let mut opened = HashSet::new();
    let mut ended = 0usize;
    let mut txns = HashSet::new();
    let mut sealed = 0usize;
    let mut versions: HashMap<(Option<NodeId>, ObjectId), usize> = HashMap::new();
    for event in events {
        let acting = match &event.kind {
            EventKind::ActionBegin { action, .. } => {
                live.insert(*action);
                [None, None]
            }
            EventKind::ActionCommit { action } | EventKind::ActionAbort { action } => {
                live.remove(action);
                ended += 1;
                [None, None]
            }
            EventKind::SnapshotOpen { action, .. } => {
                opened.insert(*action);
                [None, None]
            }
            EventKind::SnapshotRead { action, .. } if !opened.contains(action) => return false,
            EventKind::LockRequest { action, .. }
            | EventKind::LockConflict { action, .. }
            | EventKind::LockGrant { action, .. }
            | EventKind::LockRelease { action, .. }
            | EventKind::UndoRecord { action, .. }
            | EventKind::SnapshotRead { action, .. } => [Some(action), None],
            EventKind::LockInherit { from, to, .. } => [Some(from), Some(to)],
            EventKind::TpcVote { txn, .. }
            | EventKind::TpcDecide { txn, .. }
            | EventKind::TpcResolve { txn, .. } => {
                txns.insert(*txn);
                [None, None]
            }
            EventKind::SegmentSeal { .. } => {
                sealed += 1;
                [None, None]
            }
            EventKind::VersionPublish { object, .. } => {
                *versions.entry((event.node, *object)).or_default() += 1;
                [None, None]
            }
            _ => [None, None],
        };
        if acting.into_iter().flatten().any(|a| !live.contains(a)) {
            return false;
        }
    }
    // the standard windows (DESIGN.md §7.3)
    ended <= 4096
        && txns.len() <= 1024
        && sealed <= 1024
        && versions.len() <= 65536
        && versions.values().all(|&n| n <= 32)
}

/// Runs both policies over `events`, asserts they agree as far as the
/// stream allows, and returns the exact report.
pub fn audit(events: &[Event]) -> AuditReport {
    let report = TraceAuditor::audit_events(events);
    let exact = online(&report);
    let windowed = windowed(events);
    let mut rest = exact.iter();
    for found in &windowed {
        assert!(
            rest.any(|e| e == found),
            "windowed found {found:?} out of the exact order {exact:?}\nwindowed: {windowed:?}\nstream: {events:#?}"
        );
    }
    if complete(events) {
        assert_eq!(
            windowed, exact,
            "policies differ on a complete stream: {events:#?}"
        );
    }
    report
}

pub fn ev(kind: EventKind) -> Event {
    Event::at(0, kind)
}

pub fn a(raw: u64) -> ActionId {
    ActionId::from_raw(raw)
}

pub fn o(raw: u64) -> ObjectId {
    ObjectId::from_raw(raw)
}

pub fn n(raw: u32) -> NodeId {
    NodeId::from_raw(raw)
}

pub fn c(index: usize) -> Colour {
    Colour::from_index(index)
}

pub fn begin(action: ActionId, parent: Option<ActionId>, colours: u64) -> Event {
    ev(EventKind::ActionBegin {
        action,
        parent,
        colours,
    })
}

pub fn commit(action: ActionId) -> Event {
    ev(EventKind::ActionCommit { action })
}

pub fn grant(action: ActionId, object: ObjectId, mode: LockMode) -> Event {
    ev(EventKind::LockGrant {
        action,
        object,
        colour: c(0),
        mode,
    })
}

pub fn release(action: ActionId, object: ObjectId) -> Event {
    ev(EventKind::LockRelease {
        action,
        object,
        colour: c(0),
    })
}

pub fn inherit(from: ActionId, to: ActionId, object: ObjectId) -> Event {
    ev(EventKind::LockInherit {
        from,
        to,
        object,
        colour: c(0),
    })
}

pub fn undo(action: ActionId, object: ObjectId) -> Event {
    ev(EventKind::UndoRecord {
        action,
        object,
        colour: c(0),
    })
}
