//! Differential agreement of the rule engine's two retention policies
//! on random streams: a model emits well-formed lock / 2PC / log /
//! snapshot traffic, generic mutations corrupt it, and
//! [`agreement::audit`] holds the windowed policy to the exact one —
//! a subsequence always, equal whenever the stream is complete. The
//! legitimate differences (DESIGN.md §7.3's table) each get a stream
//! of their own below.
//!
//! Seeded like the torture suites: `CHROMA_TORTURE_SEED` shifts every
//! generated stream.

mod agreement;

use std::collections::{BTreeSet, HashMap};

use agreement::{
    a, audit, begin, c, commit, complete, ev, grant, inherit, o, online, release, undo,
};
use chroma_base::{ActionId, LockMode, NodeId, ObjectId};
use chroma_obs::{Event, EventKind, TraceAuditor, Violation, Watchdog, WatchdogRule};
use proptest::prelude::*;
use proptest::torture_seed;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Act {
    id: ActionId,
    parent: Option<ActionId>,
    colours: u64,
    held: Vec<(ObjectId, usize, LockMode)>,
    /// A snapshot action's captured stamp.
    snapshot: Option<u64>,
}

/// One hold per (object, colour), in its strongest mode.
fn hold(
    held: &mut Vec<(ObjectId, usize, LockMode)>,
    object: ObjectId,
    colour: usize,
    mode: LockMode,
) {
    match held.iter_mut().find(|h| h.0 == object && h.1 == colour) {
        Some(h) => h.2 = h.2.strongest(mode),
        None => held.push((object, colour, mode)),
    }
}

/// Emits only traffic the runtime could legally produce.
#[derive(Default)]
struct Model {
    out: Vec<Event>,
    next_action: u64,
    live: Vec<Act>,
    next_txn: u64,
    stamp: u64,
    versions: HashMap<ObjectId, Vec<(usize, u64)>>,
    active: u64,
    sealed: Vec<(u64, u64)>,
    next_segment: u64,
    watermark: u64,
}

impl Model {
    fn emit(&mut self, kind: EventKind) {
        self.out.push(ev(kind));
    }

    fn begin(&mut self, parent: Option<ActionId>, colours: u64, snapshot: Option<u64>) {
        self.next_action += 1;
        let id = a(self.next_action);
        self.out.push(begin(id, parent, colours));
        self.live.push(Act {
            id,
            parent,
            colours,
            held: Vec::new(),
            snapshot,
        });
    }

    fn has_children(&self, id: ActionId) -> bool {
        self.live.iter().any(|x| x.parent == Some(id))
    }

    fn closest_with(&self, from: &Act, colour: usize) -> Option<ActionId> {
        let mut cursor = from.parent;
        while let Some(id) = cursor {
            let p = self.live.iter().find(|x| x.id == id)?;
            if p.colours & (1 << colour) != 0 {
                return Some(id);
            }
            cursor = p.parent;
        }
        None
    }

    /// Commits (or aborts) one leaf: locks go to the closest ancestor
    /// holding their colour, else are released.
    fn terminate(&mut self, index: usize, abort: bool) {
        let act = self.live.remove(index);
        for &(object, colour, mode) in &act.held {
            let heir = (!abort).then(|| self.closest_with(&act, colour)).flatten();
            match heir {
                Some(to) => {
                    self.emit(EventKind::LockInherit {
                        from: act.id,
                        to,
                        object,
                        colour: c(colour),
                    });
                    let heir = self
                        .live
                        .iter_mut()
                        .find(|x| x.id == to)
                        .expect("live heir");
                    hold(&mut heir.held, object, colour, mode);
                }
                None => self.emit(EventKind::LockRelease {
                    action: act.id,
                    object,
                    colour: c(colour),
                }),
            }
        }
        self.emit(if abort {
            EventKind::ActionAbort { action: act.id }
        } else {
            EventKind::ActionCommit { action: act.id }
        });
    }

    fn step(&mut self, rng: &mut Rng) {
        let lockers: Vec<usize> = (0..self.live.len())
            .filter(|&i| self.live[i].snapshot.is_none())
            .collect();
        match rng.below(12) {
            0 => self.begin(None, 1 + rng.below(3) as u64, None),
            1 if !lockers.is_empty() => {
                let parent = self.live[lockers[rng.below(lockers.len())]].id;
                self.begin(Some(parent), 1 + rng.below(3) as u64, None);
            }
            // a grant (a dedup'd re-grant keeps the strongest mode)
            2 | 3 if !lockers.is_empty() => {
                let act = &mut self.live[lockers[rng.below(lockers.len())]];
                let colour = if act.colours & 1 == 0 {
                    1
                } else {
                    rng.below(2)
                };
                let colour = if act.colours & (1 << colour) == 0 {
                    0
                } else {
                    colour
                };
                let object = o(rng.below(6) as u64);
                let mode = [LockMode::Read, LockMode::ExclusiveRead, LockMode::Write][rng.below(3)];
                let action = act.id;
                hold(&mut act.held, object, colour, mode);
                let colour = c(colour);
                self.emit(EventKind::LockGrant {
                    action,
                    object,
                    colour,
                    mode,
                });
            }
            4 => {
                let writes: Vec<_> = self
                    .live
                    .iter()
                    .flat_map(|x| x.held.iter().map(move |h| (x.id, *h)))
                    .filter(|(_, h)| h.2.permits_write())
                    .collect();
                if !writes.is_empty() {
                    let (action, (object, colour, _)) = writes[rng.below(writes.len())];
                    self.emit(EventKind::UndoRecord {
                        action,
                        object,
                        colour: c(colour),
                    });
                }
            }
            5 | 6 => {
                let leaves: Vec<usize> = (0..self.live.len())
                    .filter(|&i| !self.has_children(self.live[i].id))
                    .collect();
                if !leaves.is_empty() {
                    self.terminate(leaves[rng.below(leaves.len())], rng.below(4) == 0);
                }
            }
            7 => {
                self.next_txn += 1;
                let txn = self.next_txn;
                let members = 1 + rng.below(3) as u32;
                let dissent = (rng.below(3) == 0).then(|| rng.below(members as usize) as u32);
                for m in 0..members {
                    self.emit(EventKind::TpcVote {
                        node: NodeId::from_raw(m + 1),
                        txn,
                        yes: dissent != Some(m),
                    });
                }
                let commit = dissent.is_none();
                self.emit(EventKind::TpcDecide {
                    node: NodeId::from_raw(0),
                    txn,
                    commit,
                    participants: u64::from(members),
                });
                for m in 0..members {
                    self.emit(EventKind::TpcResolve {
                        node: NodeId::from_raw(m + 1),
                        txn,
                        commit,
                    });
                }
            }
            8 => self.log_step(rng),
            9 => {
                let colour = rng.below(2);
                let object = o(rng.below(4) as u64);
                let chain = self.versions.entry(object).or_default();
                if chain.len() < 30 {
                    self.stamp += 1;
                    chain.push((colour, self.stamp));
                    self.emit(EventKind::VersionPublish {
                        object,
                        colour: c(colour),
                        stamp: self.stamp,
                    });
                }
            }
            10 => {
                let stamp = self.stamp;
                self.begin(None, 0, Some(stamp));
                let action = a(self.next_action);
                self.emit(EventKind::SnapshotOpen { action, stamp });
            }
            _ => {
                let readers: Vec<_> = self
                    .live
                    .iter()
                    .filter_map(|x| Some((x.id, x.snapshot?)))
                    .collect();
                if readers.is_empty() {
                    // chains are volatile: a crash forgets them
                    if rng.below(4) == 0 {
                        self.versions.clear();
                        self.emit(EventKind::NodeCrash {
                            node: NodeId::from_raw(0),
                        });
                    }
                    return;
                }
                let (action, snapshot) = readers[rng.below(readers.len())];
                let object = o(rng.below(4) as u64);
                let visible = self
                    .versions
                    .get(&object)
                    .and_then(|chain| chain.iter().rev().find(|&&(_, stamp)| stamp <= snapshot));
                self.emit(EventKind::SnapshotRead {
                    action,
                    object,
                    colour: c(visible.map_or(0, |v| v.0)),
                    stamp: visible.map_or(0, |v| v.1),
                });
            }
        }
    }

    /// One step of the segmented log's lifecycle.
    fn log_step(&mut self, rng: &mut Rng) {
        match rng.below(6) {
            0 | 1 => {
                let batches = 1 + rng.below(3) as u64;
                for _ in 0..batches {
                    self.emit(EventKind::DiskAppend {
                        records: 2,
                        bytes: 64,
                    });
                }
                self.emit(EventKind::DiskGroupCommit {
                    batches,
                    records: batches * 2,
                    bytes: batches * 64,
                });
                self.active += batches;
            }
            2 if self.active > 0 => {
                self.next_segment += 1;
                self.sealed.push((self.next_segment, self.active));
                self.emit(EventKind::SegmentSeal {
                    segment: self.next_segment,
                    batches: self.active,
                    bytes: self.active * 64,
                });
                self.active = 0;
            }
            3 if !self.sealed.is_empty() => {
                let upto = self.sealed[rng.below(self.sealed.len())].0;
                let retired: Vec<_> = self
                    .sealed
                    .iter()
                    .filter(|s| s.0 <= upto)
                    .copied()
                    .collect();
                let batches: u64 = retired.iter().map(|s| s.1).sum();
                self.sealed.retain(|s| s.0 > upto);
                self.watermark = upto;
                self.emit(EventKind::CheckpointBegin {
                    segments: retired.len() as u64,
                    batches,
                });
                self.emit(EventKind::CheckpointEnd {
                    upto,
                    batches,
                    objects: batches,
                });
            }
            4 if self.watermark > 0 => self.emit(EventKind::SegmentGc {
                segment: 1 + rng.below(self.watermark as usize) as u64,
                bytes: 64,
            }),
            // recovery folds nothing: the replayed suffix stays live
            5 => {
                let live = self.sealed.iter().map(|s| s.1).sum::<u64>() + self.active;
                self.emit(EventKind::DiskReplay {
                    batches: live,
                    objects: live,
                });
            }
            _ => {}
        }
    }
}

/// A well-formed stream of about `steps` model steps, every action
/// terminated.
fn well_formed(rng: &mut Rng, steps: usize) -> Vec<Event> {
    let mut model = Model::default();
    for _ in 0..steps {
        model.step(rng);
    }
    while !model.live.is_empty() {
        let leaf = (0..model.live.len())
            .find(|&i| !model.has_children(model.live[i].id))
            .expect("a forest has a leaf");
        model.terminate(leaf, false);
    }
    model.out
}

/// Corrupts one event in place (or reorders / drops / repeats one).
fn mutate(events: &mut Vec<Event>, rng: &mut Rng) {
    if events.is_empty() {
        return;
    }
    let i = rng.below(events.len());
    match rng.below(6) {
        0 => {
            events.remove(i);
        }
        1 => {
            let copy = events[i];
            let at = i + rng.below(events.len() - i + 1);
            events.insert(at, copy);
        }
        2 if i + 1 < events.len() => events.swap(i, i + 1),
        // attach late
        3 => {
            events.drain(..rng.below(i + 1));
        }
        _ => {
            // perturb the next event that has something to perturb
            for event in &mut events[i..] {
                match &mut event.kind {
                    EventKind::LockGrant { mode, .. } if *mode != LockMode::Read => {
                        *mode = LockMode::Read;
                    }
                    EventKind::LockInherit { to, .. } => *to = a(1 + (to.as_raw() % 5)),
                    EventKind::UndoRecord { object, .. } => *object = o(object.as_raw() + 1),
                    EventKind::TpcVote { yes, .. } => *yes = !*yes,
                    EventKind::TpcDecide { participants, .. } if rng.below(2) == 0 => {
                        *participants += 1;
                    }
                    EventKind::TpcDecide { commit, .. } | EventKind::TpcResolve { commit, .. } => {
                        *commit = !*commit;
                    }
                    EventKind::DiskGroupCommit { batches, .. }
                    | EventKind::DiskReplay { batches, .. } => *batches += 1,
                    EventKind::SegmentGc { segment, .. } => *segment += 7,
                    EventKind::SnapshotRead { stamp, .. } if rng.below(2) == 0 => *stamp += 1,
                    // the reader, its snapshot open, is refused a lock
                    EventKind::SnapshotRead {
                        action,
                        object,
                        colour,
                        ..
                    } => {
                        let (action, object, colour) = (*action, *object, *colour);
                        event.kind = EventKind::LockConflict {
                            action,
                            object,
                            colour,
                            mode: LockMode::Read,
                        };
                    }
                    EventKind::SnapshotOpen { action, .. } => {
                        let (action, object) = (*action, o(0));
                        event.kind = EventKind::LockConflict {
                            action,
                            object,
                            colour: c(0),
                            mode: LockMode::Read,
                        };
                    }
                    _ => continue,
                }
                return;
            }
        }
    }
}

/// The stream case `seed` stands for, and how many mutations it took.
fn stream(seed: u64) -> (Vec<Event>, usize) {
    let mut rng = Rng(seed
        ^ torture_seed()
            .unwrap_or(42)
            .wrapping_mul(0x2545_F491_4F6C_DD1D));
    let steps = 20 + rng.below(120);
    let mut events = well_formed(&mut rng, steps);
    let mutations = rng.below(4);
    for _ in 0..mutations {
        mutate(&mut events, &mut rng);
    }
    (events, mutations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn policies_agree_on_random_streams(seed in any::<u64>()) {
        let (events, mutations) = stream(seed);
        let report = audit(&events);
        if mutations == 0 {
            prop_assert!(report.is_clean(), "the model emitted a dirty stream: {report}\n{events:#?}");
            prop_assert!(complete(&events));
        }
    }
}

/// The property above is only worth its name if the mutations reach
/// the rules: over a fixed batch of cases, complete streams must trip
/// most of the online rules.
#[test]
fn mutated_streams_trip_most_online_rules() {
    let mut tripped = BTreeSet::new();
    let mut dirty_and_complete = 0;
    for seed in 0..1500u64 {
        let (events, _) = stream(seed);
        if !complete(&events) {
            continue;
        }
        let found = online(&TraceAuditor::audit_events(&events));
        dirty_and_complete += usize::from(!found.is_empty());
        tripped.extend(found.iter().map(|w| w.0.name()));
    }
    assert!(
        dirty_and_complete >= 100,
        "only {dirty_and_complete} dirty complete streams"
    );
    assert!(
        tripped.len() >= 12,
        "mutations reach only {tripped:?} of {} rules",
        WatchdogRule::ALL.len()
    );
}

// ---------------------------------------------------------------------
// The legitimate differences: where the windowed policy skips what the
// exact one flags. One stream per row of DESIGN.md §7.3's table.
// ---------------------------------------------------------------------

/// Both verdicts on `events`, the exact one through `online()`.
fn verdicts(events: &[Event]) -> (Vec<Violation>, Vec<agreement::Wire>) {
    (audit(events).violations, agreement::windowed(events))
}

#[test]
fn never_begun_action_exact_flags_windowed_skips() {
    // the begin predates the attach: grant, undo, release, inherit
    let (exact, windowed) = verdicts(&[
        grant(a(9), o(1), LockMode::Read),
        undo(a(9), o(1)),
        release(a(9), o(2)),
        inherit(a(9), a(8), o(3)),
    ]);
    assert!(windowed.is_empty(), "{windowed:?}");
    assert!(exact
        .iter()
        .any(|v| matches!(v, Violation::UnknownAction { .. })));
    assert!(exact
        .iter()
        .any(|v| matches!(v, Violation::WriteWithoutWriteLock { .. })));

    // its write lock, inherited by a traced heir, lets the heir write:
    // the window never saw the grant, so the moved mode is unknown and
    // the heir's write is skipped, not judged against a read lock
    let (exact, windowed) = verdicts(&[
        begin(a(8), None, 0b1),
        grant(a(9), o(1), LockMode::Write),
        inherit(a(9), a(8), o(1)),
        undo(a(8), o(1)),
    ]);
    assert!(windowed.is_empty(), "{windowed:?}");
    assert!(!exact
        .iter()
        .any(|v| matches!(v, Violation::WriteWithoutWriteLock { .. })));
}

#[test]
fn inherit_with_no_colour_holder_exact_flags_windowed_skips() {
    let (exact, windowed) = verdicts(&[
        begin(a(1), None, 0b10),
        begin(a(2), Some(a(1)), 0b11),
        grant(a(2), o(1), LockMode::Write),
        inherit(a(2), a(1), o(1)),
    ]);
    assert!(matches!(
        exact.as_slice(),
        [Violation::BadInheritTarget { expected: None, .. }]
    ));
    assert!(
        exact[0].online().is_none(),
        "not a finding the windowed policy can make"
    );
    assert!(windowed.is_empty(), "{windowed:?}");
}

#[test]
fn terminated_action_keeps_only_r1_under_the_windowed_policy() {
    let (exact, windowed) = verdicts(&[
        begin(a(1), None, 0b1),
        commit(a(1)),
        release(a(1), o(1)),
        undo(a(1), o(1)),
        grant(a(1), o(1), LockMode::Read),
    ]);
    assert!(matches!(
        exact.as_slice(),
        [
            Violation::ReleaseWithoutLock { .. },
            Violation::WriteWithoutWriteLock { .. },
            Violation::LockAfterShrink { .. }
        ]
    ));
    assert!(matches!(
        windowed.as_slice(),
        [(WatchdogRule::LockAfterShrink, ..)]
    ));
}

#[test]
fn snapshot_read_without_open_exact_flags_windowed_skips() {
    let (exact, windowed) = verdicts(&[
        begin(a(1), None, 0),
        ev(EventKind::SnapshotRead {
            action: a(1),
            object: o(1),
            colour: c(0),
            stamp: 3,
        }),
    ]);
    assert!(matches!(
        exact.as_slice(),
        [
            Violation::UnknownAction { .. },
            Violation::SnapshotReadNotNewest { .. }
        ]
    ));
    assert!(windowed.is_empty(), "{windowed:?}");
}

#[test]
fn evicted_state_is_skipped_never_guessed() {
    // 2PC: the no-vote falls off the transaction window before the
    // decide (which declares no participants: a restarted transaction
    // counts quorum against the votes seen since, DESIGN.md §7.3 R4)
    let mut events = vec![ev(EventKind::TpcVote {
        node: NodeId::from_raw(1),
        txn: 0,
        yes: false,
    })];
    events.extend((1..=1024).map(|txn| {
        ev(EventKind::TpcVote {
            node: NodeId::from_raw(1),
            txn,
            yes: true,
        })
    }));
    events.push(ev(EventKind::TpcDecide {
        node: NodeId::from_raw(0),
        txn: 0,
        commit: true,
        participants: 0,
    }));
    let (exact, windowed) = verdicts(&events);
    assert!(matches!(
        exact.as_slice(),
        [Violation::CommitDespiteNoVote { txn: 0, .. }]
    ));
    assert!(windowed.is_empty(), "{windowed:?}");

    // R1: the terminated id falls off the retired ring
    let mut events = vec![begin(a(1), None, 0b1), commit(a(1))];
    for id in 2..=4097 {
        events.extend([begin(a(id), None, 0b1), commit(a(id))]);
    }
    events.push(grant(a(1), o(1), LockMode::Read));
    let (exact, windowed) = verdicts(&events);
    assert!(matches!(
        exact.as_slice(),
        [Violation::LockAfterShrink { .. }]
    ));
    assert!(windowed.is_empty(), "{windowed:?}");

    // R10: the visible version falls off the object's chain
    let mut events: Vec<_> = (1..=40)
        .map(|stamp| {
            ev(EventKind::VersionPublish {
                object: o(1),
                colour: c(0),
                stamp,
            })
        })
        .collect();
    events.extend([
        begin(a(1), None, 0),
        ev(EventKind::SnapshotOpen {
            action: a(1),
            stamp: 5,
        }),
        ev(EventKind::SnapshotRead {
            action: a(1),
            object: o(1),
            colour: c(0),
            stamp: 4,
        }),
    ]);
    let (exact, windowed) = verdicts(&events);
    assert!(matches!(
        exact.as_slice(),
        [Violation::SnapshotReadNotNewest {
            served: 4,
            expected: 5,
            ..
        }]
    ));
    assert!(windowed.is_empty(), "{windowed:?}");
}

#[test]
fn replay_ignores_recorded_watchdog_output() {
    // a recorded trace carries the live watchdog's own events; neither
    // policy re-judges them
    let events = [
        begin(a(1), None, 0b1),
        undo(a(1), o(1)),
        ev(EventKind::WatchdogViolation {
            rule: WatchdogRule::WriteWithoutWriteLock,
            action: a(1),
            object: o(1),
            aux: 0,
        }),
    ];
    assert_eq!(Watchdog::replay(&events).len(), 1);
    assert_eq!(audit(&events).violations.len(), 1);
}
