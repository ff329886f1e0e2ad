//! The streaming watchdog: online, bounded-memory enforcement of the
//! rules whose state can be windowed by *live* entities.
//!
//! [`TraceAuditor`](crate::TraceAuditor) re-reads a finished JSONL
//! trace; the [`Watchdog`] instead taps the live [`EventBus`](crate::EventBus)
//! (see [`EventBus::install_watchdog`](crate::EventBus::install_watchdog))
//! and runs the same rule engine (the `rules` module, which catalogues
//! the rules and both policies) under its **windowed** retention
//! policy: R1–R4 and R9–R11 over bounded state, a check whose answer
//! fell off a window *skipped*, never guessed — the watchdog trades
//! completeness for bounded memory, the offline auditor stays exact.
//!
//! The bus stages events per thread and steps them through the
//! watchdog in stamp order, a chunk at a time. When a rule fires the
//! bus emits a structured `watchdog_violation` event — about a chunk
//! after the offending event, and at the latest at the next read of the
//! watchdog, since every read drains first — and the non-fatal callback
//! registered with [`Watchdog::on_violation`] runs on the draining
//! thread. The watchdog never panics and never stops the traced system.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::bus::Feed;
use crate::event::{Event, EventKind, WatchdogRule};
use crate::rules::{Rules, Violation, Windows};

struct WatchdogState {
    rules: Rules,
    rule_counts: HashMap<WatchdogRule, u64>,
}

type Callback = dyn Fn(&Event) + Send + Sync;

/// The streaming watchdog. Install on a bus with
/// [`EventBus::install_watchdog`](crate::EventBus::install_watchdog)
/// (or the [`Watchdog::attach`] shorthand); it then steps every
/// emitted event, in the bus's stamp order.
pub struct Watchdog {
    state: Mutex<WatchdogState>,
    violations: AtomicU64,
    callback: RwLock<Option<Arc<Callback>>>,
    pub(crate) feed: Feed,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::new()
    }
}

impl Watchdog {
    /// A watchdog with the standard window sizes.
    #[must_use]
    pub fn new() -> Self {
        Watchdog::with_windows(Windows::DEFAULT)
    }

    pub(crate) fn with_windows(windows: Windows) -> Self {
        Watchdog {
            state: Mutex::new(WatchdogState {
                rules: Rules::windowed(windows),
                rule_counts: HashMap::new(),
            }),
            violations: AtomicU64::new(0),
            callback: RwLock::new(None),
            feed: Feed::default(),
        }
    }

    /// Creates a watchdog, installs it on `bus` and returns the
    /// handle.
    pub fn attach(bus: &crate::EventBus) -> Arc<Watchdog> {
        let watchdog = Arc::new(Watchdog::new());
        bus.install_watchdog(Some(Arc::clone(&watchdog)));
        watchdog
    }

    /// Replays a recorded stream through a fresh watchdog, off any
    /// bus, and returns the `watchdog_violation` payloads it would
    /// have raised live — the windowed counterpart of
    /// [`TraceAuditor::audit_events`](crate::TraceAuditor::audit_events).
    #[must_use]
    pub fn replay(events: &[Event]) -> Vec<EventKind> {
        let mut found = Vec::new();
        Watchdog::new().scan(events, &mut found);
        found
    }

    /// Registers the non-fatal violation callback, replacing any
    /// previous one. It runs on the thread that drains the bus, with the
    /// stamped `watchdog_violation` event; it must not block.
    pub fn on_violation(&self, callback: impl Fn(&Event) + Send + Sync + 'static) {
        *self.callback.write() = Some(Arc::new(callback));
    }

    /// Total violations detected in every event emitted so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.feed.drain();
        self.violations.load(Ordering::Relaxed)
    }

    /// Violations detected for one rule.
    #[must_use]
    pub fn rule_count(&self, rule: WatchdogRule) -> u64 {
        self.feed.drain();
        self.state
            .lock()
            .rule_counts
            .get(&rule)
            .copied()
            .unwrap_or(0)
    }

    /// Invokes the registered callback with a stamped violation event
    /// (called by the bus after emitting it).
    pub(crate) fn deliver(&self, event: &Event) {
        let callback = self.callback.read().clone();
        if let Some(callback) = callback {
            callback(event);
        }
    }

    /// Feeds events, in order, through the rule engine; appends the
    /// violation kinds they triggered to `out`.
    pub(crate) fn scan<'a>(
        &self,
        events: impl IntoIterator<Item = &'a Event>,
        out: &mut Vec<EventKind>,
    ) {
        let mut found = Vec::new();
        let mut state = self.state.lock();
        for event in events {
            state.rules.step(event, &mut found);
        }
        if found.is_empty() {
            return;
        }
        // (the windowed policy raises no exact-only finding)
        let first = out.len();
        out.extend(found.iter().filter_map(violation_event));
        for kind in &out[first..] {
            if let EventKind::WatchdogViolation { rule, .. } = kind {
                *state.rule_counts.entry(*rule).or_insert(0) += 1;
            }
        }
        drop(state);
        self.violations
            .fetch_add((out.len() - first) as u64, Ordering::Relaxed);
    }

    /// The window footprint after a drain.
    #[cfg(test)]
    fn footprint(&self) -> (usize, usize, usize) {
        self.feed.drain();
        self.state.lock().rules.footprint()
    }
}

/// The `watchdog_violation` event for a finding the windowed policy
/// can make.
fn violation_event(violation: &Violation) -> Option<EventKind> {
    let (rule, action, object, aux) = violation.online()?;
    Some(EventKind::WatchdogViolation {
        rule,
        action,
        object,
        aux,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::EventBus;
    use crate::FlightRecorder;
    use chroma_base::{ActionId, Colour, LockMode, NodeId, ObjectId};
    use std::sync::atomic::AtomicUsize;

    fn aid(n: u64) -> ActionId {
        ActionId::from_raw(n)
    }
    fn oid(n: u64) -> ObjectId {
        ObjectId::from_raw(n)
    }
    fn col(i: usize) -> Colour {
        Colour::from_index(i)
    }

    /// A bus with an attached watchdog, a flight recorder and a
    /// violation counter bumped by the callback.
    fn rig() -> (
        Arc<EventBus>,
        Arc<Watchdog>,
        Arc<FlightRecorder>,
        Arc<AtomicUsize>,
    ) {
        let bus = Arc::new(EventBus::new());
        let recorder = FlightRecorder::attach(&bus, 4096);
        let watchdog = Watchdog::attach(&bus);
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = fired.clone();
        watchdog.on_violation(move |event| {
            assert!(matches!(event.kind, EventKind::WatchdogViolation { .. }));
            fired2.fetch_add(1, Ordering::SeqCst);
        });
        (bus, watchdog, recorder, fired)
    }

    fn begin(bus: &EventBus, action: u64) {
        bus.emit(EventKind::ActionBegin {
            action: aid(action),
            parent: None,
            colours: 0b1,
        });
    }

    fn grant(bus: &EventBus, action: u64, object: u64, mode: LockMode) {
        bus.emit(EventKind::LockGrant {
            action: aid(action),
            object: oid(object),
            colour: col(0),
            mode,
        });
    }

    /// The violation must appear in the recording within `budget`
    /// events of the offending event (the read drains the bus, which
    /// emits it with zero intervening events; the assertion is
    /// deliberately looser so the *contract* tested is the bounded
    /// budget).
    fn assert_violation_within(recorder: &FlightRecorder, rule: WatchdogRule, budget: usize) {
        let events = recorder.events();
        let offending = events
            .len()
            .checked_sub(budget + 1)
            .expect("enough events recorded");
        let found = events[offending..]
            .iter()
            .any(|e| matches!(e.kind, EventKind::WatchdogViolation { rule: r, .. } if r == rule));
        assert!(
            found,
            "no {rule} violation within {budget} events; tail: {:?}",
            &events[offending..]
        );
        // Differential: the exact policy, fed the same recording, finds
        // the same breaches (these streams attach at the start and
        // stay inside the windows).
        let live: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WatchdogViolation { .. }))
            .map(|e| e.kind)
            .collect();
        let exact: Vec<_> = crate::TraceAuditor::audit_events(&events)
            .violations
            .iter()
            .filter_map(violation_event)
            .collect();
        assert_eq!(live, exact, "the policies disagree on {events:?}");
    }

    #[test]
    fn r1_grant_after_release_fires_online() {
        let (bus, wd, recorder, fired) = rig();
        begin(&bus, 1);
        grant(&bus, 1, 7, LockMode::Read);
        bus.emit(EventKind::LockRelease {
            action: aid(1),
            object: oid(7),
            colour: col(0),
        });
        assert_eq!(wd.violations(), 0, "release itself is clean");
        grant(&bus, 1, 8, LockMode::Read);
        assert_eq!(wd.violations(), 1);
        assert_eq!(wd.rule_count(WatchdogRule::LockAfterShrink), 1);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "callback ran");
        assert_violation_within(&recorder, WatchdogRule::LockAfterShrink, 1);
    }

    #[test]
    fn r1_grant_to_terminated_action_fires() {
        let (bus, wd, recorder, _) = rig();
        begin(&bus, 1);
        bus.emit(EventKind::ActionCommit { action: aid(1) });
        grant(&bus, 1, 7, LockMode::Write);
        assert_eq!(wd.rule_count(WatchdogRule::LockAfterShrink), 1);
        assert_violation_within(&recorder, WatchdogRule::LockAfterShrink, 1);
    }

    #[test]
    fn r2_inherit_without_lock_fires() {
        let (bus, wd, recorder, _) = rig();
        begin(&bus, 1);
        bus.emit(EventKind::ActionBegin {
            action: aid(2),
            parent: Some(aid(1)),
            colours: 0b1,
        });
        bus.emit(EventKind::LockInherit {
            from: aid(2),
            to: aid(1),
            object: oid(7),
            colour: col(0),
        });
        assert_eq!(wd.rule_count(WatchdogRule::InheritWithoutLock), 1);
        assert_violation_within(&recorder, WatchdogRule::InheritWithoutLock, 1);
    }

    #[test]
    fn r2_bad_inherit_target_fires() {
        let (bus, wd, recorder, _) = rig();
        // grandparent(1, colour 0) -> parent(2, colour 0) -> child(3)
        begin(&bus, 1);
        bus.emit(EventKind::ActionBegin {
            action: aid(2),
            parent: Some(aid(1)),
            colours: 0b1,
        });
        bus.emit(EventKind::ActionBegin {
            action: aid(3),
            parent: Some(aid(2)),
            colours: 0b1,
        });
        grant(&bus, 3, 7, LockMode::Write);
        // Legal target is the *closest* colour-holding ancestor (2);
        // skipping to the grandparent must fire.
        bus.emit(EventKind::LockInherit {
            from: aid(3),
            to: aid(1),
            object: oid(7),
            colour: col(0),
        });
        assert_eq!(wd.rule_count(WatchdogRule::BadInheritTarget), 1);
        assert_violation_within(&recorder, WatchdogRule::BadInheritTarget, 1);
    }

    #[test]
    fn r2_release_without_lock_fires() {
        let (bus, wd, recorder, _) = rig();
        begin(&bus, 1);
        bus.emit(EventKind::LockRelease {
            action: aid(1),
            object: oid(7),
            colour: col(0),
        });
        assert_eq!(wd.rule_count(WatchdogRule::ReleaseWithoutLock), 1);
        assert_violation_within(&recorder, WatchdogRule::ReleaseWithoutLock, 1);
    }

    #[test]
    fn r3_write_bypassing_lock_fires() {
        let (bus, wd, recorder, fired) = rig();
        begin(&bus, 1);
        grant(&bus, 1, 7, LockMode::Read);
        // A before-image under a read lock: the classic write-without-
        // write-lock injection.
        bus.emit(EventKind::UndoRecord {
            action: aid(1),
            object: oid(7),
            colour: col(0),
        });
        assert_eq!(wd.rule_count(WatchdogRule::WriteWithoutWriteLock), 1);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_violation_within(&recorder, WatchdogRule::WriteWithoutWriteLock, 1);
    }

    #[test]
    fn r4_commit_without_quorum_fires() {
        let (bus, wd, recorder, _) = rig();
        bus.emit(EventKind::TpcVote {
            node: NodeId::from_raw(1),
            txn: 9,
            yes: true,
        });
        bus.emit(EventKind::TpcDecide {
            node: NodeId::from_raw(1),
            txn: 9,
            commit: true,
            participants: 3,
        });
        assert_eq!(wd.rule_count(WatchdogRule::CommitWithoutQuorum), 1);
        assert_violation_within(&recorder, WatchdogRule::CommitWithoutQuorum, 1);
    }

    #[test]
    fn r4_commit_despite_no_vote_and_divergence_fire() {
        let (bus, wd, _, _) = rig();
        bus.emit(EventKind::TpcVote {
            node: NodeId::from_raw(1),
            txn: 9,
            yes: true,
        });
        bus.emit(EventKind::TpcVote {
            node: NodeId::from_raw(2),
            txn: 9,
            yes: false,
        });
        bus.emit(EventKind::TpcDecide {
            node: NodeId::from_raw(1),
            txn: 9,
            commit: true,
            participants: 2,
        });
        // commit with one no-vote and only one yes: both R4 flavours
        assert_eq!(wd.rule_count(WatchdogRule::CommitDespiteNoVote), 1);
        assert_eq!(wd.rule_count(WatchdogRule::CommitWithoutQuorum), 1);
        bus.emit(EventKind::TpcResolve {
            node: NodeId::from_raw(2),
            txn: 9,
            commit: false,
        });
        assert_eq!(wd.rule_count(WatchdogRule::DivergentDecision), 1);
    }

    #[test]
    fn r9_group_fsync_coverage_fires() {
        let (bus, wd, recorder, _) = rig();
        bus.emit(EventKind::DiskAppend {
            records: 2,
            bytes: 64,
        });
        bus.emit(EventKind::DiskGroupCommit {
            batches: 3, // only 1 append since the last group fsync
            records: 6,
            bytes: 128,
        });
        assert_eq!(wd.rule_count(WatchdogRule::GroupFsyncCoverage), 1);
        assert_violation_within(&recorder, WatchdogRule::GroupFsyncCoverage, 1);
    }

    #[test]
    fn r9_replay_mark_mismatch_fires() {
        let (bus, wd, recorder, _) = rig();
        bus.emit(EventKind::DiskAppend {
            records: 2,
            bytes: 64,
        });
        bus.emit(EventKind::DiskGroupCommit {
            batches: 1,
            records: 2,
            bytes: 64,
        });
        // The one group-fsynced batch was never checkpointed, yet the
        // replay claims two.
        bus.emit(EventKind::DiskReplay {
            batches: 2,
            objects: 4,
        });
        assert_eq!(wd.rule_count(WatchdogRule::ReplayMarkMismatch), 1);
        assert_violation_within(&recorder, WatchdogRule::ReplayMarkMismatch, 1);
    }

    #[test]
    fn r11_gc_uncheckpointed_segment_fires() {
        let (bus, wd, recorder, _) = rig();
        bus.emit(EventKind::DiskAppend {
            records: 2,
            bytes: 64,
        });
        bus.emit(EventKind::DiskGroupCommit {
            batches: 1,
            records: 2,
            bytes: 64,
        });
        bus.emit(EventKind::SegmentSeal {
            segment: 2,
            batches: 1,
            bytes: 64,
        });
        // GC with no covering checkpoint: the sealed batch is lost.
        bus.emit(EventKind::SegmentGc {
            segment: 2,
            bytes: 64,
        });
        assert_eq!(wd.rule_count(WatchdogRule::GcUncheckpointedSegment), 1);
        assert_violation_within(&recorder, WatchdogRule::GcUncheckpointedSegment, 1);
    }

    #[test]
    fn r11_replay_manifest_mismatch_fires() {
        let (bus, wd, recorder, _) = rig();
        bus.emit(EventKind::DiskAppend {
            records: 2,
            bytes: 64,
        });
        bus.emit(EventKind::DiskGroupCommit {
            batches: 1,
            records: 2,
            bytes: 64,
        });
        bus.emit(EventKind::SegmentSeal {
            segment: 1,
            batches: 1,
            bytes: 64,
        });
        // Live suffix = 1 sealed batch, but recovery replays none —
        // the R9 mirror fires too (1 marked batch, 0 replayed).
        bus.emit(EventKind::DiskReplay {
            batches: 0,
            objects: 0,
        });
        assert_eq!(wd.rule_count(WatchdogRule::ReplayManifestMismatch), 1);
        assert_violation_within(&recorder, WatchdogRule::ReplayManifestMismatch, 2);
    }

    #[test]
    fn r11_clean_segment_lifecycle_stays_silent() {
        let (bus, wd, _, fired) = rig();
        bus.emit(EventKind::DiskAppend {
            records: 2,
            bytes: 64,
        });
        bus.emit(EventKind::DiskGroupCommit {
            batches: 1,
            records: 2,
            bytes: 64,
        });
        bus.emit(EventKind::SegmentSeal {
            segment: 1,
            batches: 1,
            bytes: 64,
        });
        bus.emit(EventKind::CheckpointBegin {
            segments: 1,
            batches: 1,
        });
        bus.emit(EventKind::CheckpointEnd {
            upto: 1,
            batches: 1,
            objects: 1,
        });
        bus.emit(EventKind::SegmentGc {
            segment: 1,
            bytes: 64,
        });
        // Everything checkpointed: recovery replays nothing.
        bus.emit(EventKind::DiskReplay {
            batches: 0,
            objects: 0,
        });
        assert_eq!(wd.violations(), 0, "clean lifecycle must stay silent");
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }

    /// One batch committed and sealed into segment 1, one committed
    /// into the active segment 2, a crash, one post-recovery commit
    /// appended to segment 2, another crash: the second replay must
    /// count `second_replay` batches.
    fn crash_commit_crash(bus: &EventBus, second_replay: u64) {
        let commit = || {
            bus.emit(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            });
            bus.emit(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            });
        };
        commit();
        bus.emit(EventKind::SegmentSeal {
            segment: 1,
            batches: 1,
            bytes: 64,
        });
        commit();
        bus.emit(EventKind::DiskReplay {
            batches: 2,
            objects: 2,
        });
        commit();
        bus.emit(EventKind::DiskReplay {
            batches: second_replay,
            objects: second_replay,
        });
    }

    #[test]
    fn r9_r11_second_replay_counts_old_and_new_batches() {
        // Recovery folds nothing: both replayed batches are still live
        // at the second crash, next to the post-recovery one.
        let (bus, wd, _, fired) = rig();
        crash_commit_crash(&bus, 3);
        assert_eq!(wd.violations(), 0);
        assert_eq!(fired.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn r9_r11_second_replay_of_only_new_batches_fires() {
        let (bus, wd, recorder, _) = rig();
        crash_commit_crash(&bus, 1);
        assert_eq!(wd.rule_count(WatchdogRule::ReplayMarkMismatch), 1);
        assert_eq!(wd.rule_count(WatchdogRule::ReplayManifestMismatch), 1);
        assert_violation_within(&recorder, WatchdogRule::ReplayMarkMismatch, 2);
        assert_violation_within(&recorder, WatchdogRule::ReplayManifestMismatch, 2);
    }

    #[test]
    fn r11_truncated_segment_window_skips_rather_than_guesses() {
        let bus = Arc::new(EventBus::new());
        let watchdog = Arc::new(Watchdog::with_windows(Windows {
            segments: 1,
            ..Windows::DEFAULT
        }));
        bus.install_watchdog(Some(watchdog.clone()));
        for segment in 1..=3u64 {
            bus.emit(EventKind::DiskAppend {
                records: 2,
                bytes: 64,
            });
            bus.emit(EventKind::DiskGroupCommit {
                batches: 1,
                records: 2,
                bytes: 64,
            });
            bus.emit(EventKind::SegmentSeal {
                segment,
                batches: 1,
                bytes: 64,
            });
        }
        // The window saw only the newest seal; a replay count it
        // cannot verify must be skipped, not guessed wrong. (The R9
        // mirror still checks total marked batches and stays clean.)
        bus.emit(EventKind::DiskReplay {
            batches: 3,
            objects: 3,
        });
        assert_eq!(
            watchdog.rule_count(WatchdogRule::ReplayManifestMismatch),
            0,
            "truncated window must skip the replay check"
        );
        // A checkpoint past the dropped seals makes the window whole
        // again: only segment 3's batch is live, and a replay claiming
        // two is caught.
        bus.emit(EventKind::CheckpointEnd {
            upto: 2,
            batches: 2,
            objects: 2,
        });
        bus.emit(EventKind::DiskReplay {
            batches: 2,
            objects: 2,
        });
        assert_eq!(watchdog.rule_count(WatchdogRule::ReplayManifestMismatch), 1);
    }

    #[test]
    fn r10_snapshot_read_not_newest_fires() {
        let (bus, wd, recorder, _) = rig();
        bus.emit(EventKind::VersionPublish {
            object: oid(7),
            colour: col(0),
            stamp: 1,
        });
        bus.emit(EventKind::VersionPublish {
            object: oid(7),
            colour: col(0),
            stamp: 2,
        });
        begin(&bus, 5);
        bus.emit(EventKind::SnapshotOpen {
            action: aid(5),
            stamp: 2,
        });
        // Stamp 2 is visible; serving stamp 1 is not the newest.
        bus.emit(EventKind::SnapshotRead {
            action: aid(5),
            object: oid(7),
            colour: col(0),
            stamp: 1,
        });
        assert_eq!(wd.rule_count(WatchdogRule::SnapshotReadNotNewest), 1);
        assert_violation_within(&recorder, WatchdogRule::SnapshotReadNotNewest, 1);
    }

    #[test]
    fn r10_snapshot_reader_taking_locks_fires() {
        let (bus, wd, recorder, _) = rig();
        begin(&bus, 5);
        bus.emit(EventKind::SnapshotOpen {
            action: aid(5),
            stamp: 0,
        });
        bus.emit(EventKind::LockConflict {
            action: aid(5),
            object: oid(7),
            colour: col(0),
            mode: LockMode::Read,
        });
        assert_eq!(wd.rule_count(WatchdogRule::SnapshotReaderLocks), 1);
        assert_violation_within(&recorder, WatchdogRule::SnapshotReaderLocks, 1);
    }

    #[test]
    fn clean_nested_lifecycle_stays_silent() {
        let (bus, wd, recorder, fired) = rig();
        // parent holds colour 0; child writes under a write lock, then
        // inherits to the parent, which releases at commit.
        begin(&bus, 1);
        bus.emit(EventKind::ActionBegin {
            action: aid(2),
            parent: Some(aid(1)),
            colours: 0b1,
        });
        grant(&bus, 2, 7, LockMode::Write);
        bus.emit(EventKind::UndoRecord {
            action: aid(2),
            object: oid(7),
            colour: col(0),
        });
        bus.emit(EventKind::LockInherit {
            from: aid(2),
            to: aid(1),
            object: oid(7),
            colour: col(0),
        });
        bus.emit(EventKind::ActionCommit { action: aid(2) });
        bus.emit(EventKind::LockRelease {
            action: aid(1),
            object: oid(7),
            colour: col(0),
        });
        bus.emit(EventKind::ActionCommit { action: aid(1) });
        // Clean 2PC, group commit, snapshot traffic.
        bus.emit(EventKind::TpcVote {
            node: NodeId::from_raw(1),
            txn: 3,
            yes: true,
        });
        bus.emit(EventKind::TpcDecide {
            node: NodeId::from_raw(1),
            txn: 3,
            commit: true,
            participants: 1,
        });
        bus.emit(EventKind::DiskAppend {
            records: 2,
            bytes: 64,
        });
        bus.emit(EventKind::DiskGroupCommit {
            batches: 1,
            records: 2,
            bytes: 64,
        });
        bus.emit(EventKind::CheckpointEnd {
            upto: 1,
            batches: 1,
            objects: 1,
        });
        bus.emit(EventKind::VersionPublish {
            object: oid(7),
            colour: col(0),
            stamp: 1,
        });
        begin(&bus, 9);
        bus.emit(EventKind::SnapshotOpen {
            action: aid(9),
            stamp: 1,
        });
        bus.emit(EventKind::SnapshotRead {
            action: aid(9),
            object: oid(7),
            colour: col(0),
            stamp: 1,
        });
        bus.emit(EventKind::ActionCommit { action: aid(9) });
        assert_eq!(wd.violations(), 0, "clean run must stay silent");
        assert_eq!(fired.load(Ordering::SeqCst), 0);
        assert!(recorder
            .events()
            .iter()
            .all(|e| !matches!(e.kind, EventKind::WatchdogViolation { .. })));
    }

    #[test]
    fn truncated_publication_window_skips_rather_than_guesses() {
        let bus = Arc::new(EventBus::new());
        let watchdog = Arc::new(Watchdog::with_windows(Windows {
            versions: 2,
            ..Windows::DEFAULT
        }));
        bus.install_watchdog(Some(watchdog.clone()));
        for stamp in 1..=5 {
            bus.emit(EventKind::VersionPublish {
                object: oid(7),
                colour: col(0),
                stamp,
            });
        }
        begin(&bus, 1);
        bus.emit(EventKind::SnapshotOpen {
            action: aid(1),
            stamp: 2,
        });
        // Stamps 1..=2 fell off the window; the read of stamp 2 cannot
        // be validated and must NOT be flagged.
        bus.emit(EventKind::SnapshotRead {
            action: aid(1),
            object: oid(7),
            colour: col(0),
            stamp: 2,
        });
        assert_eq!(watchdog.violations(), 0, "unknowable checks are skipped");
    }

    #[test]
    fn windowed_state_is_evicted_on_termination() {
        let (bus, wd, _, _) = rig();
        begin(&bus, 1);
        grant(&bus, 1, 7, LockMode::Write);
        bus.emit(EventKind::ActionCommit { action: aid(1) });
        let (live, retired, _) = wd.footprint();
        assert_eq!(live, 0, "live state evicted at commit");
        assert_eq!(retired, 1);
        // The retired ring is bounded.
        let wd2 = Watchdog::with_windows(Windows {
            retired: 2,
            ..Windows::DEFAULT
        });
        let bus2 = Arc::new(EventBus::new());
        bus2.install_watchdog(Some(Arc::new(wd2)));
        let wd2 = bus2.watchdog().unwrap();
        for n in 1..=5u64 {
            begin(&bus2, n);
            bus2.emit(EventKind::ActionCommit { action: aid(n) });
        }
        let (_, retired, _) = wd2.footprint();
        assert_eq!(retired, 2);
    }

    #[test]
    fn node_crash_forgets_that_nodes_publications() {
        let (bus, wd, _, _) = rig();
        let n = NodeId::from_raw(3);
        let obs = crate::Obs::new(bus.clone()).at_node(n);
        obs.emit(EventKind::VersionPublish {
            object: oid(7),
            colour: col(0),
            stamp: 1,
        });
        assert_eq!(wd.footprint().2, 1);
        bus.emit(EventKind::NodeCrash { node: n });
        assert_eq!(wd.footprint().2, 0, "crash clears the node's chains");
        assert_eq!(wd.violations(), 0);
    }

    #[test]
    fn detached_watchdog_stops_scanning() {
        let (bus, wd, _, _) = rig();
        bus.install_watchdog(None);
        begin(&bus, 1);
        bus.emit(EventKind::LockRelease {
            action: aid(1),
            object: oid(7),
            colour: col(0),
        });
        assert_eq!(wd.violations(), 0, "detached watchdog sees nothing");
        assert!(bus.watchdog().is_none());
    }
}
