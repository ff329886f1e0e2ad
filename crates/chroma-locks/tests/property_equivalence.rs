//! Property tests for the lock managers.
//!
//! The central one encodes the paper's §5.1 observation: *"if all the
//! actions in a coloured system possess the same single colour then the
//! system reverts to being just a normal atomic action system"* — the
//! coloured and classic rule-sets must produce identical grant/deny
//! traces and identical lock-table states on arbitrary request
//! schedules.

use chroma_base::{ActionId, Colour, LockMode, ObjectId};
use chroma_locks::{Ancestry, ClassicPolicy, ColouredPolicy, FlatAncestry, LockPolicy, LockTable};
use proptest::prelude::*;

const ACTIONS: u64 = 6;
const OBJECTS: u64 = 4;

#[derive(Clone, Debug)]
enum Op {
    Acquire {
        action: u64,
        object: u64,
        mode: LockMode,
    },
    /// Commit: inherit all locks to the parent (or release if
    /// top-level).
    Commit {
        action: u64,
    },
    Abort {
        action: u64,
    },
}

fn mode_strategy() -> impl Strategy<Value = LockMode> {
    prop_oneof![
        Just(LockMode::Read),
        Just(LockMode::Write),
        Just(LockMode::ExclusiveRead),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..ACTIONS, 0..OBJECTS, mode_strategy()).prop_map(|(action, object, mode)| {
            Op::Acquire { action, object, mode }
        }),
        1 => (0..ACTIONS).prop_map(|action| Op::Commit { action }),
        1 => (0..ACTIONS).prop_map(|action| Op::Abort { action }),
    ]
}

/// A random forest over the action ids: parent[i] < i or none.
fn forest_strategy() -> impl Strategy<Value = Vec<Option<u64>>> {
    let mut fields: Vec<BoxedStrategy<Option<u64>>> = Vec::new();
    for i in 0..ACTIONS {
        if i == 0 {
            fields.push(Just(None).boxed());
        } else {
            fields.push(prop_oneof![2 => Just(None), 3 => (0..i).prop_map(Some)].boxed());
        }
    }
    fields
}

fn a(n: u64) -> ActionId {
    ActionId::from_raw(n)
}
fn o(n: u64) -> ObjectId {
    ObjectId::from_raw(n)
}

fn run_trace<P: LockPolicy>(
    table: &LockTable<P>,
    ancestry: &FlatAncestry,
    parents: &[Option<u64>],
    ops: &[Op],
) -> Vec<String> {
    let mut trace = Vec::new();
    let mut terminated = [false; ACTIONS as usize];
    let colour = Colour::from_index(0);
    for op in ops {
        match *op {
            Op::Acquire {
                action,
                object,
                mode,
            } => {
                if terminated[action as usize] {
                    trace.push("skip".to_owned());
                    continue;
                }
                let result = table.try_acquire(ancestry, a(action), o(object), colour, mode);
                trace.push(format!("{result:?}"));
            }
            Op::Commit { action } => {
                if terminated[action as usize] {
                    trace.push("skip".to_owned());
                    continue;
                }
                terminated[action as usize] = true;
                match parents[action as usize] {
                    Some(parent) if !terminated[parent as usize] => {
                        let mut touched = table.inherit_colour(a(action), colour, a(parent));
                        touched.sort();
                        trace.push(format!("inherit {touched:?}"));
                    }
                    _ => {
                        let mut touched = table.release_colour(a(action), colour);
                        touched.sort();
                        trace.push(format!("release {touched:?}"));
                    }
                }
            }
            Op::Abort { action } => {
                if terminated[action as usize] {
                    trace.push("skip".to_owned());
                    continue;
                }
                terminated[action as usize] = true;
                let mut touched = table.discard_action(a(action));
                touched.sort();
                trace.push(format!("discard {touched:?}"));
            }
        }
    }
    trace
}

fn table_state<P: LockPolicy>(table: &LockTable<P>) -> Vec<String> {
    let mut state = Vec::new();
    for obj in 0..OBJECTS {
        let mut holders: Vec<String> = table
            .holders(o(obj))
            .into_iter()
            .map(|e| format!("{}:{:?}", e.action, e.mode))
            .collect();
        holders.sort();
        state.push(format!("{obj}: {holders:?}"));
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// §5.1: a single-colour coloured system IS the classic system.
    #[test]
    fn single_colour_system_equals_classic(
        parents in forest_strategy(),
        ops in prop::collection::vec(op_strategy(), 1..60),
    ) {
        let ancestry = FlatAncestry::new();
        for (child, parent) in parents.iter().enumerate() {
            if let Some(p) = parent {
                ancestry.set_parent(a(child as u64), a(*p));
            }
        }
        let coloured = LockTable::new(ColouredPolicy);
        let classic = LockTable::new(ClassicPolicy);
        let trace_coloured = run_trace(&coloured, &ancestry, &parents, &ops);
        let trace_classic = run_trace(&classic, &ancestry, &parents, &ops);
        prop_assert_eq!(trace_coloured, trace_classic);
        prop_assert_eq!(table_state(&coloured), table_state(&classic));
    }

    /// Safety invariant of the coloured rules: at any moment, all write
    /// locks on an object share one colour, and a write lock never
    /// coexists with a non-ancestor's lock.
    #[test]
    fn coloured_write_locks_stay_single_coloured(
        parents in forest_strategy(),
        ops in prop::collection::vec(
            (0..ACTIONS, 0..OBJECTS, 0..3u8, mode_strategy()),
            1..80,
        ),
    ) {
        let ancestry = FlatAncestry::new();
        for (child, parent) in parents.iter().enumerate() {
            if let Some(p) = parent {
                ancestry.set_parent(a(child as u64), a(*p));
            }
        }
        let table = LockTable::new(ColouredPolicy);
        for (action, object, colour, mode) in ops {
            let _ = table.try_acquire(
                &ancestry,
                a(action),
                o(object),
                Colour::from_index(colour as usize),
                mode,
            );
            // Invariant check after every acquisition.
            for obj in 0..OBJECTS {
                let holders = table.holders(o(obj));
                let write_colours: Vec<Colour> = holders
                    .iter()
                    .filter(|e| e.mode == LockMode::Write)
                    .map(|e| e.colour)
                    .collect();
                prop_assert!(
                    write_colours.windows(2).all(|w| w[0] == w[1]),
                    "object {obj} has write locks in several colours: {holders:?}"
                );
                // Exclusive holders pairwise related by ancestry.
                for x in &holders {
                    for y in &holders {
                        if x.mode.is_exclusive() || y.mode.is_exclusive() {
                            prop_assert!(
                                x.action == y.action
                                    || ancestry.chain(y.action).contains(&x.action)
                                    || ancestry.chain(x.action).contains(&y.action),
                                "unrelated exclusive holders on {obj}: {holders:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Abort always fully clears a waiterless action's footprint.
    #[test]
    fn discard_leaves_no_trace(
        ops in prop::collection::vec(
            (0..ACTIONS, 0..OBJECTS, mode_strategy()),
            1..40,
        ),
    ) {
        let ancestry = FlatAncestry::new();
        let table = LockTable::new(ColouredPolicy);
        let colour = Colour::from_index(0);
        for (action, object, mode) in &ops {
            let _ = table.try_acquire(&ancestry, a(*action), o(*object), colour, *mode);
        }
        for action in 0..ACTIONS {
            table.discard_action(a(action));
            prop_assert!(table.locks_of(a(action)).is_empty());
        }
        prop_assert_eq!(table.entry_count(), 0);
    }
}
