//! An action's bookkeeping dies with it, and a child is never linked to
//! a terminated parent.
//!
//! `bookkeeping_holds_only_live_actions` runs 20 000 steps of the
//! paper's three structures, built the way `chroma-structures` builds
//! them: serializing steps (fig. 11) and glued steps (fig. 12) are
//! children of a control action in a fresh colour, each with its own
//! fresh update colour and a fence in the control colour, and an
//! independent action (fig. 13) is a child in a fresh colour under an
//! ordinary top-level action. Some steps fail and abort. While a
//! structure is live only its live members have a state; afterwards no
//! action has.
//!
//! `nested_begin_races_parent_termination` races `begin_nested(p)`
//! against `commit(p)` or `abort(p)` on another thread: the child is
//! either refused, or it was linked first, in which case the commit is
//! refused (`ChildrenActive`) or the abort takes the child with it.
//! `child_commit_races_parent_abort` races a child's commit against its
//! parent's abort: either way the abort undoes the child's write and
//! leaves no state, undo record or lock behind.
//!
//! `CHROMA_TORTURE_SEED` (default 42) draws the schedules.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::thread;

use chroma_core::{
    ActionError, ActionId, ActionScope, ActionState, Colour, ColourSet, Fence, ObjectId, Runtime,
};
use proptest::torture_seed;

const THREADS: u64 = 2;
const STEPS: usize = 20_000;
const ROUNDS: usize = 2_000;

/// splitmix64: one deterministic stream per seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one step under `host`: a child in a fresh update colour (plus
/// the fence's colour), as the structures build their steps. Returns
/// the step's id and whether it committed.
fn step(
    rt: &Runtime,
    host: ActionId,
    fence: Option<Fence>,
    body: impl FnOnce(&mut ActionScope<'_>) -> Result<(), ActionError>,
) -> (ActionId, bool) {
    let update = rt.universe().fresh().expect("fresh colour");
    let colours = match fence {
        Some(fence) => ColourSet::single(update).with(fence.colour()),
        None => ColourSet::single(update),
    };
    let mut id = None;
    let result = rt.run_nested(host, colours, update, |scope| {
        id = Some(scope.id());
        if let Some(fence) = fence {
            scope.set_fence(fence);
        }
        body(scope)
    });
    rt.universe().release(update);
    (id.expect("step began"), result.is_ok())
}

/// One thread's share of the steps, over its own objects. Returns every
/// action id it began.
fn run_structures(rt: &Runtime, objects: &[ObjectId], t: u64) -> Vec<ActionId> {
    let mut rng = torture_seed().unwrap_or(42) ^ (t << 48);
    let mut ids = Vec::new();
    let mut mine = HashSet::new();
    let mut steps = 0;
    while steps < STEPS / THREADS as usize {
        let kind = splitmix(&mut rng) % 3;
        let control: Colour = rt.universe().fresh().expect("fresh colour");
        let host_colours = if kind == 2 {
            ColourSet::single(rt.default_colour())
        } else {
            ColourSet::single(control)
        };
        let host = rt.begin_top(host_colours).expect("begin host");
        ids.push(host);
        mine.insert(host);
        let fence = match kind {
            0 => Some(Fence::EveryAccess(control)),
            1 => Some(Fence::HandOver(control)),
            _ => None,
        };
        for _ in 0..1 + splitmix(&mut rng) % 4 {
            let object = objects[(splitmix(&mut rng) % objects.len() as u64) as usize];
            let fail = splitmix(&mut rng).is_multiple_of(5);
            let (id, committed) = step(rt, host, fence, |s| {
                s.modify(object, |v: &mut i64| *v += 1)?;
                if fence.is_some_and(|f| matches!(f, Fence::HandOver(_))) {
                    s.hand_over(object)?;
                }
                if fail {
                    return Err(ActionError::failed("injected step failure"));
                }
                Ok(())
            });
            assert_eq!(committed, !fail);
            ids.push(id);
            mine.insert(id);
            steps += 1;
            // Only the structure's live members have a state, and each
            // thread has at most a host and a step live: between steps,
            // exactly its host. Counted per thread, because only this
            // thread begins and ends its own actions: the scan reads the
            // tree's shards one after another, so a global count could
            // see the other thread's finished host and its next one.
            assert_eq!(rt.action_state(id), None, "finished step {id}");
            assert_eq!(rt.action_state(host), Some(ActionState::Active));
            let live: Vec<ActionId> = rt
                .active_actions()
                .into_iter()
                .filter(|a| mine.contains(a))
                .collect();
            assert_eq!(live, [host], "thread {t}'s live actions");
        }
        if splitmix(&mut rng).is_multiple_of(4) {
            rt.abort(host);
        } else {
            rt.commit(host).expect("commit host");
        }
        rt.universe().release(control);
        assert_eq!(rt.action_state(host), None, "finished host {host}");
    }
    ids
}

#[test]
fn bookkeeping_holds_only_live_actions() {
    let rt = Runtime::builder().build();
    let objects: Vec<Vec<ObjectId>> = (0..THREADS)
        .map(|_| (0..4).map(|_| rt.create_object(&0i64).unwrap()).collect())
        .collect();
    let ids: Vec<ActionId> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (rt, objects) = (&rt, &objects[t as usize]);
                s.spawn(move || run_structures(rt, objects, t))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    // Every action begun is one of the threads' own, so each thread's
    // bound of two live actions bounds the total by `2 * THREADS`.
    assert_eq!(rt.stats().begun, ids.len() as u64);
    for id in ids {
        assert_eq!(rt.action_state(id), None, "{id}");
        assert_eq!(rt.undo_record_count(id), 0, "{id}");
    }
    assert!(rt.active_actions().is_empty());
    assert_eq!(rt.live_action_count(), 0);
    assert_eq!(rt.lock_entry_count(), 0);
    assert_eq!(rt.universe().live_count(), 1);
}

/// Spins for `n` iterations, to vary which side of a race goes first.
fn jitter(n: u64) {
    for _ in 0..n {
        std::hint::spin_loop();
    }
}

#[test]
fn nested_begin_races_parent_termination() {
    let rt = Runtime::builder().build();
    let colours = ColourSet::single(rt.default_colour());
    let mut rng = torture_seed().unwrap_or(42);
    // Per round: commit (else abort) the parent, and each side's spin.
    let schedule: Vec<(bool, u64, u64)> = (0..ROUNDS)
        .map(|_| {
            let commit = splitmix(&mut rng).is_multiple_of(2);
            (
                commit,
                splitmix(&mut rng) % 2_000,
                splitmix(&mut rng) % 2_000,
            )
        })
        .collect();
    let parent_slot: Mutex<Option<ActionId>> = Mutex::new(None);
    let child_slot: Mutex<Option<Result<ActionId, ActionError>>> = Mutex::new(None);
    let (start, done) = (Barrier::new(2), Barrier::new(2));
    let mut linked_first = 0;
    let mut violations: Vec<String> = Vec::new();
    thread::scope(|s| {
        s.spawn(|| {
            for &(_, _, spin) in &schedule {
                start.wait();
                let parent = parent_slot.lock().unwrap().expect("parent published");
                jitter(spin);
                *child_slot.lock().unwrap() = Some(rt.begin_nested(parent, colours));
                done.wait();
            }
        });
        for &(commit, spin, _) in &schedule {
            let parent = rt.begin_top(colours).unwrap();
            *parent_slot.lock().unwrap() = Some(parent);
            start.wait();
            jitter(spin);
            let ended = if commit {
                rt.commit(parent)
            } else {
                rt.abort(parent);
                Ok(())
            };
            done.wait();
            let child = child_slot.lock().unwrap().take().expect("child side ran");
            // A violation is recorded, not raised: a panic here would
            // leave the child side waiting at the barrier.
            match (commit, ended, child) {
                // Refused: the parent had begun to terminate.
                (_, Ok(()), Err(ActionError::ParentNotActive(p))) if p == parent => {}
                // Linked first: the parent's commit is refused...
                (true, Err(ActionError::ChildrenActive(_)), Ok(child)) => {
                    linked_first += 1;
                    if let Err(e) = rt.commit(child).and_then(|()| rt.commit(parent)) {
                        violations.push(format!("{parent} or {child} failed to commit: {e}"));
                    }
                }
                // ...or its abort takes the child with it.
                (false, Ok(()), Ok(child)) if rt.action_state(child).is_none() => linked_first += 1,
                (_, ended, child) => {
                    violations.push(format!("{parent} ended {ended:?}, child begin {child:?}"));
                }
            }
            for live in rt.active_actions() {
                violations.push(format!("{live} live after the round of {parent}"));
                rt.abort(live);
            }
        }
    });
    assert!(violations.is_empty(), "{violations:#?}");
    assert_eq!(rt.live_action_count(), 0);
    assert_eq!(rt.lock_entry_count(), 0);
    assert_eq!(rt.universe().live_count(), 1);
    // The OS picks the interleaving, so neither outcome is required.
    eprintln!("begin race: {linked_first} of {ROUNDS} children linked first");
}

#[test]
fn child_commit_races_parent_abort() {
    let rt = Runtime::builder().build();
    let colours = ColourSet::single(rt.default_colour());
    let mut rng = torture_seed().unwrap_or(42) ^ 1;
    let spins: Vec<(u64, u64)> = (0..ROUNDS)
        .map(|_| (splitmix(&mut rng) % 2_000, splitmix(&mut rng) % 2_000))
        .collect();
    let child_slot: Mutex<Option<ActionId>> = Mutex::new(None);
    let (start, done) = (Barrier::new(2), Barrier::new(2));
    let mut violations: Vec<String> = Vec::new();
    thread::scope(|s| {
        s.spawn(|| {
            for &(_, spin) in &spins {
                start.wait();
                let child = child_slot.lock().unwrap().expect("child published");
                jitter(spin);
                // Commits into the parent, or finds itself aborted with it.
                let _ = rt.commit(child);
                done.wait();
            }
        });
        for &(spin, _) in &spins {
            // A fresh object per round, so a leaked lock cannot block the
            // next round.
            let object = rt.create_object(&0i64).unwrap();
            let parent = rt.begin_top(colours).unwrap();
            let child = rt.begin_nested(parent, colours).unwrap();
            rt.scope(child).unwrap().write(object, &1i64).unwrap();
            *child_slot.lock().unwrap() = Some(child);
            start.wait();
            jitter(spin);
            rt.abort(parent);
            done.wait();
            // Whether the child committed into the parent first or was
            // aborted with it, the parent's abort undoes its write and
            // leaves nothing behind.
            let value: i64 = rt.read_current(object).unwrap();
            let undo = rt.undo_record_count(parent) + rt.undo_record_count(child);
            let (locks, live) = (rt.lock_entry_count(), rt.active_actions());
            if value != 0 || undo != 0 || locks != 0 || !live.is_empty() {
                violations.push(format!(
                    "{child} under {parent}: value {value}, {undo} undo records, \
                     {locks} lock entries, live {live:?}"
                ));
            }
        }
    });
    assert!(
        violations.is_empty(),
        "{} violations, first: {:?}",
        violations.len(),
        violations.first()
    );
}
