//! The runtime's sharded bookkeeping (action tree, undo log, working
//! states) under four racing threads.
//!
//! Each thread runs a seeded mix over shared and thread-private
//! counters: nested commits (each child's undo records transfer to its
//! parent, usually across shards), explicit aborts (of a child, and of
//! a parent after its child committed into it) that first write a
//! poison value, and independent actions (a child in a fresh colour,
//! outermost for it, committing under a parent that then aborts).
//! Every committed action moves units between two counters, so the
//! total never changes. At the end the test checks that the total is
//! conserved, that no poisoned write survived, that no action id has a
//! state left (a terminated action's bookkeeping dies with it) and that
//! the undo log holds nothing for any of them.
//!
//! `CHROMA_TORTURE_SEED` (default 42) draws each thread's schedule.

use std::thread;

use chroma_core::{ActionError, ActionId, ColourSet, ObjectId, Runtime};
use proptest::torture_seed;

const THREADS: u64 = 4;
const OPS: usize = 1_000;
const SHARED: usize = 6;
const OWN: usize = 3;
const START: i64 = 1_000;
/// What an aborted write adds: any survivor shows in the total.
const POISON: i64 = 1 << 40;

/// splitmix64: one deterministic stream per seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Adds `delta` to `object` inside `action`.
fn add(rt: &Runtime, action: ActionId, object: ObjectId, delta: i64) -> Result<(), ActionError> {
    rt.scope(action)?.modify(object, |v: &mut i64| *v += delta)
}

/// One thread's run: every action it began.
struct Outcome {
    ids: Vec<ActionId>,
}

impl Outcome {
    fn begin(&mut self, rt: &Runtime, parent: Option<ActionId>, colours: ColourSet) -> ActionId {
        let id = match parent {
            Some(parent) => rt.begin_nested(parent, colours),
            None => rt.begin_top(colours),
        }
        .expect("begin");
        self.ids.push(id);
        id
    }
}

/// Runs one thread's schedule. Every top-level tree writes its two
/// counters in ascending id order, so no two trees wait on each other
/// in a cycle.
fn run(rt: &Runtime, counters: &[ObjectId], t: u64) -> Outcome {
    let default = ColourSet::single(rt.default_colour());
    let mut rng = torture_seed().unwrap_or(42) ^ (t << 48);
    let mut out = Outcome { ids: Vec::new() };
    for _ in 0..OPS {
        // Half the time both counters are shared, else one is this
        // thread's own.
        let pick = |rng: &mut u64, own: bool| {
            if own {
                counters[SHARED + t as usize * OWN + (splitmix(rng) % OWN as u64) as usize]
            } else {
                counters[(splitmix(rng) % SHARED as u64) as usize]
            }
        };
        let own = splitmix(&mut rng).is_multiple_of(2);
        let (a, b) = (pick(&mut rng, false), pick(&mut rng, own));
        if a == b {
            continue;
        }
        let (low, high) = (a.min(b), a.max(b));
        let units = 1 + (splitmix(&mut rng) % 5) as i64;
        match splitmix(&mut rng) % 4 {
            // Nested commit: each child's records move to the parent.
            0 => {
                let top = out.begin(rt, None, default);
                let first = out.begin(rt, Some(top), default);
                add(rt, first, low, -units).unwrap();
                rt.commit(first).expect("commit");
                let second = out.begin(rt, Some(top), default);
                add(rt, second, high, units).unwrap();
                rt.commit(second).expect("commit");
                assert_eq!(rt.undo_record_count(first), 0);
                assert_eq!(rt.undo_record_count(top), 2);
                rt.commit(top).expect("commit");
            }
            // A child commits a poisoned write into its parent, the
            // parent poisons another, then the parent aborts.
            1 => {
                let top = out.begin(rt, None, default);
                let child = out.begin(rt, Some(top), default);
                add(rt, child, low, POISON).unwrap();
                rt.commit(child).expect("commit");
                add(rt, top, high, POISON).unwrap();
                rt.abort(top);
            }
            // A poisoned child aborts; its parent then commits a
            // balanced transfer over the same counters.
            2 => {
                let top = out.begin(rt, None, default);
                let child = out.begin(rt, Some(top), default);
                add(rt, child, low, POISON).unwrap();
                add(rt, child, high, -POISON).unwrap();
                add(rt, child, high, POISON).unwrap();
                rt.abort(child);
                add(rt, top, low, units).unwrap();
                add(rt, top, high, -units).unwrap();
                rt.commit(top).expect("commit");
            }
            // An independent action: a child in a fresh colour is
            // outermost for it, so its transfer is permanent even
            // though its parent aborts afterwards.
            _ => {
                let colour = rt.universe().fresh().expect("fresh colour");
                let top = out.begin(rt, None, default);
                let child = out.begin(rt, Some(top), ColourSet::single(colour));
                add(rt, child, low, units).unwrap();
                add(rt, child, high, -units).unwrap();
                rt.commit(child).expect("commit");
                rt.abort(top);
                rt.universe().release(colour);
            }
        }
    }
    out
}

#[test]
fn sharded_bookkeeping_survives_racing_nested_commits_and_aborts() {
    let rt = Runtime::builder().build();
    let counters: Vec<ObjectId> = (0..SHARED + OWN * THREADS as usize)
        .map(|_| rt.create_object(&START).unwrap())
        .collect();
    let outcomes: Vec<Outcome> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (rt, counters) = (&rt, &counters);
                s.spawn(move || run(rt, counters, t))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut total = 0;
    for &counter in &counters {
        let committed: i64 = rt.read_committed(counter).unwrap();
        let current: i64 = rt.read_current(counter).unwrap();
        assert_eq!(committed, current, "{counter}: working state != stable");
        assert!(
            committed.abs() < POISON / 2,
            "{counter}: aborted write survived"
        );
        total += committed;
    }
    assert_eq!(total, START * counters.len() as i64, "total not conserved");

    let mut seen = 0;
    for outcome in &outcomes {
        for &id in &outcome.ids {
            assert_eq!(rt.action_state(id), None, "{id}");
            assert_eq!(rt.undo_record_count(id), 0, "{id} kept undo records");
            seen += 1;
        }
    }
    assert_eq!(rt.stats().begun, seen);
    assert_eq!(rt.active_actions(), Vec::new());
    assert_eq!(rt.live_action_count(), 0);
    assert_eq!(rt.lock_entry_count(), 0);
    assert_eq!(rt.universe().live_count(), 1);
}
