//! Staged monitoring under concurrency. Four threads drive one runtime
//! while an in-line sink, a flight recorder and the watchdog watch its
//! bus. The recorder and the watchdog see events in the bus's stamp
//! order, drained a chunk at a time; that order must keep every
//! thread's program order, a replay of the recording must reach the
//! live verdict, and a breach emitted from another thread must be
//! reported exactly once.

use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

use chroma_base::{ActionId, Colour, LockMode, ObjectId};
use chroma_core::Runtime;
use chroma_obs::{Event, EventBus, EventKind, EventSink, FlightRecorder, Watchdog, WatchdogRule};
use parking_lot::Mutex;
use proptest::torture_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREADS: u64 = 4;
const ROUNDS: usize = 150;
const CELLS: usize = 8;

/// The events in the order the bus hands them to sinks: in-line, so
/// each thread's events in its program order.
#[derive(Default)]
struct Inline(Mutex<Vec<Event>>);

impl EventSink for Inline {
    fn record(&self, event: &Event) {
        self.0.lock().push(*event);
    }
}

/// The action an event belongs to, for the kinds that name one.
fn action_of(event: &Event) -> Option<ActionId> {
    match event.kind {
        EventKind::ActionBegin { action, .. }
        | EventKind::ActionCommit { action }
        | EventKind::ActionAbort { action }
        | EventKind::LockGrant { action, .. }
        | EventKind::LockConflict { action, .. }
        | EventKind::LockRelease { action, .. }
        | EventKind::UndoRecord { action, .. }
        | EventKind::LockInherit { from: action, .. } => Some(action),
        _ => None,
    }
}

/// The events of `actions`, in the order `events` holds them.
fn projection(events: &[Event], actions: &[ActionId]) -> Vec<Event> {
    let actions: HashSet<ActionId> = actions.iter().copied().collect();
    events
        .iter()
        .filter(|e| action_of(e).is_some_and(|a| actions.contains(&a)))
        .copied()
        .collect()
}

fn violations(events: &[Event]) -> Vec<EventKind> {
    events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WatchdogViolation { .. }))
        .map(|e| e.kind)
        .collect()
}

#[test]
fn stamp_order_keeps_program_order_and_the_live_verdict() {
    let seed = torture_seed().unwrap_or(42);
    let bus = Arc::new(EventBus::new());
    let sink = Arc::new(Inline::default());
    bus.add_sink(sink.clone());
    let recorder = FlightRecorder::attach(&bus, 1_000_000);
    let watchdog = Watchdog::attach(&bus);
    let rt = Runtime::builder().obs(bus.clone()).build();
    let cells: Vec<ObjectId> = (0..CELLS)
        .map(|_| rt.create_object(&0i64).unwrap())
        .collect();

    // A terminated action, far outside the runtime's id range; granting
    // it a lock breaks strict 2PL (R1).
    let victim = ActionId::from_raw(1 << 40);
    bus.emit(EventKind::ActionBegin {
        action: victim,
        parent: None,
        colours: 0b1,
    });
    bus.emit(EventKind::ActionCommit { action: victim });
    let bad_grant = EventKind::LockGrant {
        action: victim,
        object: ObjectId::from_raw(1 << 40),
        colour: Colour::from_index(0),
        mode: LockMode::Write,
    };

    // Each worker's actions, in the order it began them.
    let per_thread: Vec<Vec<ActionId>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (rt, cells, bus) = (&rt, &cells, &bus);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9) ^ t);
                    let mine = RefCell::new(Vec::new());
                    for round in 0..ROUNDS {
                        if t == 1 && round == ROUNDS / 2 {
                            bus.emit(bad_grant);
                        }
                        // lower cell first: no lock-order cycles, so
                        // every event of an action is its thread's
                        let (i, j) = (rng.gen_range(0..CELLS), rng.gen_range(0..CELLS));
                        let (x, y) = (cells[i.min(j)], cells[i.max(j)]);
                        let nest = rng.gen_bool(0.5);
                        rt.atomic_retry(100, |a| {
                            mine.borrow_mut().push(a.id());
                            a.modify(x, |v: &mut i64| *v += 1)?;
                            if nest {
                                a.nested(|b| {
                                    mine.borrow_mut().push(b.id());
                                    b.modify(y, |v: &mut i64| *v -= 1)
                                })?;
                            }
                            Ok(())
                        })
                        .expect("move commits");
                    }
                    mine.into_inner()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    // Reads drain: the breach is reported once, by the rule it broke.
    assert_eq!(watchdog.violations(), 1);
    assert_eq!(watchdog.rule_count(WatchdogRule::LockAfterShrink), 1);
    let seen = sink.0.lock().clone();
    let live = violations(&seen);
    assert!(
        matches!(
            live[..],
            [EventKind::WatchdogViolation {
                rule: WatchdogRule::LockAfterShrink,
                action,
                object,
                ..
            }] if action == victim && object == ObjectId::from_raw(1 << 40)
        ),
        "one violation, naming the injected grant: {live:?}"
    );

    // The recorder holds every event, in an order that keeps each
    // thread's own order (the sink sees a thread's events in-line).
    let recorded = recorder.events();
    assert_eq!(recorder.dropped(), 0);
    assert_eq!(recorded.len(), seen.len(), "recorder and sink disagree");
    for actions in &per_thread {
        assert!(!actions.is_empty());
        assert_eq!(
            projection(&recorded, actions),
            projection(&seen, actions),
            "a thread's program order was lost"
        );
    }
    let victim_events: Vec<_> = recorded
        .iter()
        .filter(|e| action_of(e) == Some(victim))
        .map(|e| e.kind)
        .collect();
    assert_eq!(
        victim_events.len(),
        3,
        "begin, commit, then the injected grant: {victim_events:?}"
    );
    assert_eq!(victim_events[2], bad_grant);

    // Replaying the recording reaches the live verdict.
    assert_eq!(Watchdog::replay(&recorded), live);
    assert_eq!(violations(&recorded), live);

    // Counters are summed over the staging slots: one per event.
    let counted: u64 = bus.snapshot().counters.iter().map(|&(_, n)| n).sum();
    assert_eq!(counted, seen.len() as u64);
}

/// Events passed from thread to thread by joins sit in different slots;
/// a drain must merge the slots by stamp, which follows the joins.
#[test]
fn a_drain_merges_slots_by_stamp() {
    let bus = EventBus::new();
    let recorder = FlightRecorder::attach(&bus, 64);
    let begin = |n| EventKind::ActionBegin {
        action: ActionId::from_raw(n),
        parent: None,
        colours: 0b1,
    };
    for n in 0..8u64 {
        if n % 2 == 0 {
            bus.emit(begin(n));
        } else {
            std::thread::scope(|scope| {
                scope.spawn(|| bus.emit(begin(n)));
            });
        }
    }
    let order: Vec<u64> = recorder
        .events()
        .iter()
        .filter_map(action_of)
        .map(ActionId::as_raw)
        .collect();
    assert_eq!(order, (0..8).collect::<Vec<_>>());
}
