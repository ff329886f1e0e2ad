//! What one action structure costs the event bus: a serializing
//! action, a glued chain and a pair of independent actions each move
//! one unit between two counters (the `contended_structures`
//! benchmark's move) on a monitored `Runtime`, and every kind they emit
//! is counted. The in-memory backend writes no log, so no storage event
//! appears; a new kind on this path, or a kind emitted twice, changes
//! the pinned table.

use std::collections::BTreeMap;
use std::sync::Arc;

use chroma::base::ObjectId;
use chroma::core::{ActionError, Runtime};
use chroma::obs::{EventBus, Watchdog};
use chroma::structures::{independent_sync, GluedChain, SerializingAction};

#[derive(Clone, Copy, Debug)]
enum Structure {
    Serializing,
    Glued,
    Independent,
}

/// Moves one unit from `from` to `to` as one structure of two steps,
/// the lower object first.
fn run_move(
    rt: &Runtime,
    structure: Structure,
    from: ObjectId,
    to: ObjectId,
) -> Result<(), ActionError> {
    let take = |v: &mut i64| *v -= 1;
    let give = |v: &mut i64| *v += 1;
    match structure {
        Structure::Serializing => {
            let action = SerializingAction::begin(rt)?;
            action.step(|s| s.modify(from, take))?;
            action.step(|s| s.modify(to, give))?;
            action.end()
        }
        Structure::Glued => {
            let chain = GluedChain::begin(rt, 1)?;
            chain.step(|s| {
                s.modify(from, take)?;
                s.hand_over(from)
            })?;
            chain.step(|s| s.modify(to, give))?;
            chain.end()
        }
        Structure::Independent => rt.atomic(|a| {
            independent_sync(a, |b| b.modify(from, take))?;
            independent_sync(a, |b| b.modify(to, give))
        }),
    }
}

/// The kinds one move of `structure` emits, with their counts (zero
/// counts left out).
fn census(structure: Structure) -> BTreeMap<&'static str, u64> {
    let bus = Arc::new(EventBus::new());
    let watchdog = Watchdog::attach(&bus);
    let rt = Runtime::builder().obs(bus.clone()).build();
    let from = rt.create_object(&0i64).unwrap();
    let to = rt.create_object(&0i64).unwrap();
    let before = bus.snapshot().counters;
    run_move(&rt, structure, from, to).unwrap_or_else(|e| panic!("{structure:?}: {e}"));
    let after = bus.snapshot().counters;
    assert_eq!(watchdog.violations(), 0, "{structure:?}");
    assert_eq!(rt.read_committed::<i64>(from).unwrap(), -1);
    assert_eq!(rt.read_committed::<i64>(to).unwrap(), 1);
    after
        .iter()
        .zip(&before)
        .map(|(&(kind, n), &(_, m))| (kind, n - m))
        .filter(|&(_, n)| n > 0)
        .collect()
}

#[test]
fn one_move_of_each_structure_emits_a_pinned_census() {
    // Every structure begins and commits three actions (the structure's
    // own and one per step) and writes each counter once: one
    // before-image and one published version per write.
    let common = [
        ("action_begin", 3),
        ("action_commit", 3),
        ("undo_record", 2),
        ("version_publish", 2),
    ];
    let cases = [
        // each step locks its counter (one grant per request: nothing
        // waits), then passes the lock up to the serializing action,
        // which holds both to its end
        (
            Structure::Serializing,
            [("lock_grant", 4), ("lock_inherit", 2), ("lock_release", 4)].as_slice(),
            20,
        ),
        // the first step hands its counter to the second over the glue
        (
            Structure::Glued,
            [("lock_grant", 3), ("lock_inherit", 1), ("lock_release", 3)].as_slice(),
            17,
        ),
        // each independent action locks and releases its own counter
        (
            Structure::Independent,
            [("lock_grant", 2), ("lock_release", 2)].as_slice(),
            14,
        ),
    ];
    for (structure, locks, events) in cases {
        let expected: BTreeMap<&str, u64> = common.iter().chain(locks).copied().collect();
        let got = census(structure);
        assert_eq!(got, expected, "{structure:?}");
        assert_eq!(got.values().sum::<u64>(), events, "{structure:?}");
    }
}
