//! Offline invariant auditing of captured event streams.
//!
//! The auditor replays a finished trace through the rule engine
//! (R1–R11, catalogued in the `rules` module) under its **exact**
//! retention policy: nothing is ever evicted, every rule is
//! evaluated, and a reference to an action the trace never began is
//! itself a finding. The [`Watchdog`](crate::Watchdog) runs the same
//! engine in-line under the windowed policy.

use std::fmt;

use crate::event::{Event, TraceParseError};
use crate::rules::{Rules, Violation};

/// The outcome of auditing one trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// How many events were replayed.
    pub events: usize,
    /// Every breach found, in trace order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// `true` when no invariant was breached.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "audit: {} events, clean", self.events)
        } else {
            writeln!(
                f,
                "audit: {} events, {} violation(s):",
                self.events,
                self.violations.len()
            )?;
            for v in &self.violations {
                writeln!(f, "  - {v}")?;
            }
            Ok(())
        }
    }
}

/// Replays an event stream and checks the paper's invariants.
///
/// Feed events in emission order with [`observe`](TraceAuditor::observe),
/// then collect the [`AuditReport`] with
/// [`finish`](TraceAuditor::finish); or use the one-shot helpers
/// [`audit_events`](TraceAuditor::audit_events) and
/// [`audit_jsonl`](TraceAuditor::audit_jsonl).
#[derive(Debug)]
pub struct TraceAuditor {
    rules: Rules,
    report: AuditReport,
}

impl Default for TraceAuditor {
    fn default() -> Self {
        TraceAuditor {
            rules: Rules::exact(),
            report: AuditReport::default(),
        }
    }
}

impl TraceAuditor {
    /// A fresh auditor (staleness window 1).
    #[must_use]
    pub fn new() -> Self {
        TraceAuditor::default()
    }

    /// Sets how many versions a served read may lag the group's
    /// highest installed version before R7 fires.
    #[must_use]
    pub fn with_staleness_window(mut self, window: u64) -> Self {
        self.rules.set_staleness_window(window);
        self
    }

    /// Audits a complete in-memory trace.
    #[must_use]
    pub fn audit_events(events: &[Event]) -> AuditReport {
        let mut auditor = TraceAuditor::new();
        for event in events {
            auditor.observe(event);
        }
        auditor.finish()
    }

    /// Parses and audits a JSONL trace.
    ///
    /// # Errors
    ///
    /// [`TraceParseError`] (with its 1-based line number) on the first
    /// malformed line; a corrupted trace is rejected rather than
    /// partially audited.
    pub fn audit_jsonl(text: &str) -> Result<AuditReport, TraceParseError> {
        let mut auditor = TraceAuditor::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = Event::from_json_line(line).map_err(|e| e.at_line(i + 1))?;
            auditor.observe(&event);
        }
        Ok(auditor.finish())
    }

    /// Replays one event.
    pub fn observe(&mut self, event: &Event) {
        self.report.events += 1;
        self.rules.step(event, &mut self.report.violations);
    }

    /// Finalises the audit.
    #[must_use]
    pub fn finish(self) -> AuditReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use chroma_base::{ActionId, Colour, LockMode, NodeId, ObjectId};

    fn ev(kind: EventKind) -> Event {
        Event::at(0, kind)
    }

    #[test]
    fn clean_nested_lifecycle_passes() {
        let a = ActionId::from_raw(1);
        let child = ActionId::from_raw(2);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let trace = vec![
            ev(EventKind::ActionBegin {
                action: a,
                parent: None,
                colours: 0b1,
            }),
            ev(EventKind::ActionBegin {
                action: child,
                parent: Some(a),
                colours: 0b1,
            }),
            ev(EventKind::LockGrant {
                action: child,
                object: o,
                colour: c,
                mode: LockMode::Write,
            }),
            ev(EventKind::UndoRecord {
                action: child,
                object: o,
                colour: c,
            }),
            ev(EventKind::LockInherit {
                from: child,
                to: a,
                object: o,
                colour: c,
            }),
            ev(EventKind::ActionCommit { action: child }),
            ev(EventKind::LockRelease {
                action: a,
                object: o,
                colour: c,
            }),
            ev(EventKind::ActionCommit { action: a }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.events, trace.len());
    }

    #[test]
    fn clean_replication_lifecycle_passes() {
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let n3 = NodeId::from_raw(3);
        let o = ObjectId::from_raw(9);
        let trace = vec![
            ev(EventKind::ReplicaWrite {
                object: o,
                version: 1,
                fanout: 3,
            }),
            ev(EventKind::ReplicaInstall {
                node: n1,
                object: o,
                version: 1,
            }),
            ev(EventKind::ReplicaInstall {
                node: n2,
                object: o,
                version: 1,
            }),
            // n3 crashed before installing v1 and catches up on recovery
            ev(EventKind::CatchupBegin {
                node: n3,
                object: o,
            }),
            ev(EventKind::ReplicaInstall {
                node: n3,
                object: o,
                version: 1,
            }),
            ev(EventKind::CatchupEnd {
                node: n3,
                object: o,
                version: 1,
            }),
            ev(EventKind::ReplicaRead {
                node: n2,
                object: o,
                version: 1,
                stale: false,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn staleness_window_is_configurable() {
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let o = ObjectId::from_raw(9);
        let trace = [
            ev(EventKind::ReplicaInstall {
                node: n1,
                object: o,
                version: 5,
            }),
            ev(EventKind::ReplicaRead {
                node: n2,
                object: o,
                version: 2,
                stale: false,
            }),
        ];
        let mut strict = TraceAuditor::new();
        for e in &trace {
            strict.observe(e);
        }
        assert!(!strict.finish().is_clean(), "lag 3 must breach window 1");
        let mut lax = TraceAuditor::new().with_staleness_window(3);
        for e in &trace {
            lax.observe(e);
        }
        assert!(lax.finish().is_clean(), "lag 3 fits window 3");
    }

    fn stamped(lc: u64, corr: Option<u64>, kind: EventKind) -> Event {
        let mut e = Event::at(0, kind);
        e.lc = lc;
        e.corr = corr.and_then(std::num::NonZeroU64::new);
        e
    }

    #[test]
    fn r8_send_receive_pair_with_merged_clock_passes() {
        use crate::event::MsgKind;
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let trace = vec![
            stamped(
                3,
                Some(7),
                EventKind::MsgSend {
                    from: n1,
                    to: n2,
                    kind: MsgKind::Prepare,
                },
            ),
            stamped(
                4,
                Some(7),
                EventKind::MsgDeliver {
                    from: n1,
                    to: n2,
                    kind: MsgKind::Prepare,
                },
            ),
        ];
        assert!(TraceAuditor::audit_events(&trace).is_clean());
    }

    #[test]
    fn r8_clock_inversion_fires() {
        use crate::event::MsgKind;
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let trace = vec![
            stamped(
                5,
                Some(7),
                EventKind::MsgSend {
                    from: n1,
                    to: n2,
                    kind: MsgKind::Prepare,
                },
            ),
            // the receive failed to merge: its clock is behind the send's
            stamped(
                3,
                Some(7),
                EventKind::MsgDeliver {
                    from: n1,
                    to: n2,
                    kind: MsgKind::Prepare,
                },
            ),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ClockInversion {
                corr: 7,
                send_lc: 5,
                recv_lc: 3
            }]
        ));
    }

    #[test]
    fn r8_receive_without_send_fires() {
        use crate::event::MsgKind;
        let trace = vec![stamped(
            3,
            Some(9),
            EventKind::MsgDeliver {
                from: NodeId::from_raw(1),
                to: NodeId::from_raw(2),
                kind: MsgKind::Decision,
            },
        )];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ReceiveWithoutSend { corr: 9, .. }]
        ));
    }

    #[test]
    fn r8_child_must_be_enclosed_by_parent() {
        let a = ActionId::from_raw(1);
        let child = ActionId::from_raw(2);
        // parent terminates while the child is still live
        let trace = vec![
            ev(EventKind::ActionBegin {
                action: a,
                parent: None,
                colours: 1,
            }),
            ev(EventKind::ActionBegin {
                action: child,
                parent: Some(a),
                colours: 1,
            }),
            ev(EventKind::ActionCommit { action: a }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ChildOutsideParent { .. }]
        ));
        // child begins after the parent already terminated
        let trace = vec![
            ev(EventKind::ActionBegin {
                action: a,
                parent: None,
                colours: 1,
            }),
            ev(EventKind::ActionCommit { action: a }),
            ev(EventKind::ActionBegin {
                action: child,
                parent: Some(a),
                colours: 1,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ChildOutsideParent { .. }]
        ));
    }

    #[test]
    fn r8_commit_must_follow_votes() {
        let n1 = NodeId::from_raw(1);
        let n2 = NodeId::from_raw(2);
        let vote = |node, lc| {
            stamped(
                lc,
                None,
                EventKind::TpcVote {
                    node,
                    txn: 4,
                    yes: true,
                },
            )
        };
        let decide = |lc| {
            stamped(
                lc,
                None,
                EventKind::TpcDecide {
                    node: n1,
                    txn: 4,
                    commit: true,
                    participants: 2,
                },
            )
        };
        // clean: the decision's clock exceeds both votes'
        let trace = vec![vote(n1, 2), vote(n2, 5), decide(9)];
        assert!(TraceAuditor::audit_events(&trace).is_clean());
        // corrupted: n2's vote does not happen-before the decision
        let trace = vec![vote(n1, 2), vote(n2, 11), decide(9)];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::CommitBeforeVote { txn: 4, node }] if *node == n2
        ));
    }

    #[test]
    fn r9_clean_group_commit_lifecycle_passes() {
        let append = || {
            ev(EventKind::DiskAppend {
                records: 3,
                bytes: 64,
            })
        };
        let trace = vec![
            append(),
            append(),
            ev(EventKind::DiskGroupCommit {
                batches: 2,
                records: 6,
                bytes: 128,
            }),
            ev(EventKind::CheckpointEnd {
                upto: 1,
                batches: 1,
                objects: 2,
            }),
            // the second batch was never folded: replay picks it up
            ev(EventKind::DiskReplay {
                batches: 1,
                objects: 2,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r9_fsync_coverage_mismatch_is_flagged() {
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 3,
                bytes: 64,
            }),
            ev(EventKind::DiskAppend {
                records: 3,
                bytes: 64,
            }),
            // the group fsync claims to cover only one of the two markers
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 3,
                bytes: 64,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::GroupFsyncCoverage {
                declared: 1,
                appended: 2,
            }]
        ));
    }

    #[test]
    fn r9_replay_must_match_marked_batches() {
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 3,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 3,
                bytes: 64,
            }),
            // batch never checkpointed, yet recovery replays nothing
            ev(EventKind::DiskReplay {
                batches: 0,
                objects: 0,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::ReplayMarkMismatch {
                replayed: 0,
                marked: 1,
            }]
        ));
    }

    #[test]
    fn r9_stays_unarmed_on_pre_group_commit_traces() {
        // traces with appends and replays but no group fsync events
        // (the trace attached mid-flight); R9 must not fire on them
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 3,
                bytes: 64,
            }),
            ev(EventKind::DiskReplay {
                batches: 7,
                objects: 9,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r11_clean_segment_lifecycle_passes() {
        let group = |batches: u64| {
            ev(EventKind::DiskGroupCommit {
                batches,
                records: batches * 2,
                bytes: batches * 64,
            })
        };
        let append = |records: u64| {
            ev(EventKind::DiskAppend {
                records,
                bytes: records * 32,
            })
        };
        let trace = vec![
            append(2),
            append(2),
            group(2),
            ev(EventKind::SegmentSeal {
                segment: 1,
                batches: 2,
                bytes: 256,
            }),
            append(2),
            group(1),
            ev(EventKind::CheckpointBegin {
                segments: 1,
                batches: 2,
            }),
            ev(EventKind::CheckpointEnd {
                upto: 1,
                batches: 2,
                objects: 2,
            }),
            ev(EventKind::SegmentGc {
                segment: 1,
                bytes: 256,
            }),
            // crash + reopen: only the active segment's batch replays
            ev(EventKind::DiskReplay {
                batches: 1,
                objects: 1,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r11_gc_above_watermark_is_flagged() {
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::SegmentSeal {
                segment: 3,
                batches: 1,
                bytes: 64,
            }),
            // GC with no covering checkpoint: the batch is lost
            ev(EventKind::SegmentGc {
                segment: 3,
                bytes: 64,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations.as_slice(),
            [Violation::GcUncheckpointedSegment {
                segment: 3,
                watermark: 0,
            }]
        ));
    }

    #[test]
    fn r11_replay_must_match_live_suffix() {
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::SegmentSeal {
                segment: 1,
                batches: 1,
                bytes: 64,
            }),
            ev(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            }),
            // live suffix = 1 sealed batch + 1 active batch, but
            // recovery claims to have replayed only one of them
            ev(EventKind::DiskReplay {
                batches: 1,
                objects: 1,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(
            report.violations.iter().any(|v| matches!(
                v,
                Violation::ReplayManifestMismatch {
                    replayed: 1,
                    live: 2,
                }
            )),
            "{report}"
        );
    }

    #[test]
    fn r11_stays_unarmed_on_pre_segment_traces() {
        // A GC-like event stream without any seal must not arm R11.
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskReplay {
                batches: 1,
                objects: 1,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
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

    /// A batch sealed into segment 1, one in the active segment 2, a
    /// crash; one post-recovery batch appended to segment 2, a second
    /// crash replaying `second_replay` batches.
    fn crash_commit_crash(second_replay: u64) -> Vec<Event> {
        vec![
            append(),
            group(1),
            seal(1, 1),
            append(),
            group(1),
            replay(2),
            append(),
            group(1),
            replay(second_replay),
        ]
    }

    #[test]
    fn r9_r11_second_replay_counts_old_and_new_batches() {
        // recovery folds nothing: the first replay's two batches are
        // still live at the second crash, next to the new one
        let report = TraceAuditor::audit_events(&crash_commit_crash(3));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r9_r11_second_replay_of_only_new_batches_is_flagged() {
        let report = TraceAuditor::audit_events(&crash_commit_crash(1));
        assert_eq!(
            report.violations,
            [
                Violation::ReplayMarkMismatch {
                    replayed: 1,
                    marked: 3,
                },
                Violation::ReplayManifestMismatch {
                    replayed: 1,
                    live: 3,
                },
            ]
        );
    }

    #[test]
    fn r9_r11_trace_attached_at_a_replay() {
        // The trace starts at a replay of two batches: one in sealed
        // segment 4, which it never saw sealed, and one in the active
        // segment 5, which a post-recovery commit then seals.
        let attached = |last_replay: u64| {
            vec![
                replay(2),
                append(),
                group(1),
                seal(5, 2),
                // segment 4's batch is live but unseen: not guessed
                replay(3),
                ev(EventKind::CheckpointEnd {
                    upto: 5,
                    batches: 3,
                    objects: 3,
                }),
                // past segment 4: both rules check again
                replay(last_replay),
            ]
        };
        let report = TraceAuditor::audit_events(&attached(0));
        assert!(report.is_clean(), "{report}");
        let report = TraceAuditor::audit_events(&attached(1));
        assert_eq!(
            report.violations,
            [
                Violation::ReplayMarkMismatch {
                    replayed: 1,
                    marked: 0,
                },
                Violation::ReplayManifestMismatch {
                    replayed: 1,
                    live: 0,
                },
            ]
        );
    }

    #[test]
    fn r11_watermark_survives_replay() {
        // Sequences are monotone across restarts: a post-replay GC of
        // a pre-crash segment is still checked against the watermark.
        let trace = vec![
            ev(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            }),
            ev(EventKind::SegmentSeal {
                segment: 1,
                batches: 1,
                bytes: 64,
            }),
            ev(EventKind::CheckpointEnd {
                upto: 1,
                batches: 1,
                objects: 1,
            }),
            ev(EventKind::DiskReplay {
                batches: 0,
                objects: 0,
            }),
            // the old segment's deferred GC is fine: it is behind the
            // watermark even after the restart
            ev(EventKind::SegmentGc {
                segment: 1,
                bytes: 64,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r10_clean_snapshot_trace_passes() {
        let writer = ActionId::from_raw(1);
        let reader = ActionId::from_raw(2);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let trace = vec![
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 1,
            }),
            ev(EventKind::ActionCommit { action: writer }),
            ev(EventKind::SnapshotOpen {
                action: reader,
                stamp: 1,
            }),
            ev(EventKind::SnapshotRead {
                action: reader,
                object: o,
                colour: c,
                stamp: 1,
            }),
            // a later publish is invisible to the open snapshot
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 2,
            }),
            ev(EventKind::SnapshotRead {
                action: reader,
                object: o,
                colour: c,
                stamp: 1,
            }),
            ev(EventKind::ActionCommit { action: reader }),
        ];
        let mut auditor = TraceAuditor::new();
        for e in &trace {
            auditor.observe(e);
        }
        // `writer` / `reader` never had ActionBegin here, so filter
        // lifecycle noise and keep only R10 verdicts.
        let r10: Vec<_> = auditor
            .finish()
            .violations
            .into_iter()
            .filter(|v| {
                matches!(
                    v,
                    Violation::SnapshotReadNotNewest { .. } | Violation::SnapshotReaderLocks { .. }
                )
            })
            .collect();
        assert!(r10.is_empty(), "{r10:?}");
    }

    #[test]
    fn r10_flags_snapshot_read_that_misses_newest_visible() {
        let reader = ActionId::from_raw(2);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let trace = vec![
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 1,
            }),
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 2,
            }),
            ev(EventKind::SnapshotOpen {
                action: reader,
                stamp: 2,
            }),
            // stale: stamp 2 is visible but the read served stamp 1
            ev(EventKind::SnapshotRead {
                action: reader,
                object: o,
                colour: c,
                stamp: 1,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations[..],
            [Violation::SnapshotReadNotNewest {
                served: 1,
                expected: 2,
                ..
            }]
        ));
    }

    #[test]
    fn r10_flags_snapshot_read_beyond_its_stamp() {
        let reader = ActionId::from_raw(2);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let trace = vec![
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 1,
            }),
            ev(EventKind::SnapshotOpen {
                action: reader,
                stamp: 1,
            }),
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 2,
            }),
            // dirty: served a version newer than the captured stamp
            ev(EventKind::SnapshotRead {
                action: reader,
                object: o,
                colour: c,
                stamp: 2,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(matches!(
            report.violations[..],
            [Violation::SnapshotReadNotNewest {
                served: 2,
                expected: 1,
                ..
            }]
        ));
    }

    #[test]
    fn r10_flags_snapshot_reader_in_lock_traffic() {
        let reader = ActionId::from_raw(3);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        for kind in [
            EventKind::LockGrant {
                action: reader,
                object: o,
                colour: c,
                mode: LockMode::Read,
            },
            EventKind::LockConflict {
                action: reader,
                object: o,
                colour: c,
                mode: LockMode::Read,
            },
        ] {
            let trace = vec![
                ev(EventKind::SnapshotOpen {
                    action: reader,
                    stamp: 0,
                }),
                ev(kind),
            ];
            let mut auditor = TraceAuditor::new();
            for e in &trace {
                auditor.observe(e);
            }
            let report = auditor.finish();
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::SnapshotReaderLocks { action, .. } if *action == reader)),
                "lock traffic {trace:?} must flag the snapshot reader: {report}"
            );
        }
        // ...while the same traffic from a normal action stays clean
        let writer = ActionId::from_raw(9);
        let trace = vec![
            ev(EventKind::ActionBegin {
                action: writer,
                parent: None,
                colours: 0b1,
            }),
            ev(EventKind::LockConflict {
                action: writer,
                object: o,
                colour: c,
                mode: LockMode::Write,
            }),
            ev(EventKind::LockGrant {
                action: writer,
                object: o,
                colour: c,
                mode: LockMode::Write,
            }),
        ];
        assert!(TraceAuditor::audit_events(&trace).is_clean());
    }

    #[test]
    fn r10_node_crash_resets_published_history() {
        let reader = ActionId::from_raw(4);
        let o = ObjectId::from_raw(5);
        let c = Colour::from_index(0);
        let trace = vec![
            ev(EventKind::VersionPublish {
                object: o,
                colour: c,
                stamp: 3,
            }),
            // chains are volatile: node 0 is the node-less local key
            ev(EventKind::NodeCrash {
                node: NodeId::from_raw(0),
            }),
            ev(EventKind::NodeRecover {
                node: NodeId::from_raw(0),
            }),
            ev(EventKind::SnapshotOpen {
                action: reader,
                stamp: 3,
            }),
            // post-crash the read falls back to stable: stamp 0 is
            // correct, not "missed stamp 3"
            ev(EventKind::SnapshotRead {
                action: reader,
                object: o,
                colour: c,
                stamp: 0,
            }),
        ];
        let report = TraceAuditor::audit_events(&trace);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn r10_snapshot_read_without_open_is_unknown_action() {
        let report = TraceAuditor::audit_events(&[ev(EventKind::SnapshotRead {
            action: ActionId::from_raw(8),
            object: ObjectId::from_raw(1),
            colour: Colour::from_index(0),
            stamp: 0,
        })]);
        assert!(matches!(
            report.violations[..],
            [Violation::UnknownAction {
                context: "snapshot_read",
                ..
            }]
        ));
    }

    #[test]
    fn report_display_lists_violations() {
        let a = ActionId::from_raw(1);
        let o = ObjectId::from_raw(2);
        let c = Colour::from_index(0);
        let report = TraceAuditor::audit_events(&[ev(EventKind::UndoRecord {
            action: a,
            object: o,
            colour: c,
        })]);
        assert!(!report.is_clean());
        let text = report.to_string();
        assert!(text.contains("violation"), "{text}");
        assert!(text.contains("write lock"), "{text}");
    }
}
