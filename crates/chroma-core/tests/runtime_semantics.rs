//! End-to-end semantics of the multi-coloured action runtime: the
//! nested-action baseline, per-colour inheritance and permanence
//! (paper §5.1–§5.2, fig. 10), and crash recovery.

use chroma_core::{ActionError, ActionState, Colour, ColourSet, LockMode, Runtime, RuntimeConfig};
use std::time::Duration;

fn rt_fast() -> Runtime {
    Runtime::builder()
        .config(RuntimeConfig {
            lock_timeout: Some(Duration::from_millis(200)),
        })
        .build()
}

fn two_colours(rt: &Runtime) -> (Colour, Colour) {
    (rt.universe().colour("red"), rt.universe().colour("blue"))
}

// ---------------------------------------------------------------------
// Conventional atomic actions (single colour)
// ---------------------------------------------------------------------

#[test]
fn atomic_commit_persists() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&1i64).unwrap();
    rt.atomic(|a| {
        let v: i64 = a.read(o)?;
        a.write(o, &(v + 9))?;
        Ok(())
    })
    .unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 10);
}

#[test]
fn atomic_abort_restores_state() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&1i64).unwrap();
    let result: Result<(), ActionError> = rt.atomic(|a| {
        a.write(o, &99i64)?;
        Err(ActionError::failed("boom"))
    });
    assert!(result.is_err());
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 1);
    assert_eq!(rt.read_current::<i64>(o).unwrap(), 1); // volatile restored too
}

#[test]
fn atomic_abort_releases_locks() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&1i64).unwrap();
    let _ = rt.atomic(|a| {
        a.write(o, &2i64)?;
        Err::<(), _>(ActionError::failed("x"))
    });
    assert_eq!(rt.lock_entry_count(), 0);
    // A fresh action can immediately lock the object.
    rt.atomic(|a| a.write(o, &3i64)).unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 3);
}

#[test]
fn created_object_vanishes_on_abort() {
    let rt = Runtime::builder().build();
    let mut created = None;
    let _ = rt.atomic(|a| {
        created = Some(a.create(&42u8)?);
        Err::<(), _>(ActionError::failed("x"))
    });
    let o = created.unwrap();
    assert!(!rt.object_exists(o));
    assert!(rt.read_committed::<u8>(o).is_err());
}

#[test]
fn created_object_survives_commit() {
    let rt = Runtime::builder().build();
    let o = rt.atomic(|a| a.create(&42u8)).unwrap();
    assert_eq!(rt.read_committed::<u8>(o).unwrap(), 42);
}

// ---------------------------------------------------------------------
// Nested actions (fig. 1 / fig. 2 semantics)
// ---------------------------------------------------------------------

#[test]
fn nested_commit_is_only_permanent_with_top_level() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    // Fig. 2: B commits inside A, then A aborts — B's work is lost.
    let result: Result<(), ActionError> = rt.atomic(|a| {
        a.nested(|b| b.write(o, &7i64))?; // B commits
        Err(ActionError::failed("A aborts"))
    });
    assert!(result.is_err());
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 0);
}

#[test]
fn nested_abort_is_contained() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    rt.atomic(|a| {
        let _ = a.nested(|b| {
            b.write(o, &7i64)?;
            Err::<(), _>(ActionError::failed("B aborts"))
        });
        // A can continue and still sees the original state.
        let v: i64 = a.read(o)?;
        a.write(o, &(v + 1))?;
        Ok(())
    })
    .unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 1);
}

#[test]
fn child_lock_inherited_by_parent_on_commit() {
    let rt = rt_fast();
    let o = rt.create_object(&0i64).unwrap();
    let top = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    let child = rt
        .begin_nested(top, ColourSet::single(rt.default_colour()))
        .unwrap();
    rt.scope(child).unwrap().write(o, &5i64).unwrap();
    rt.commit(child).unwrap();
    // Parent now holds the write lock; a stranger cannot take it.
    let locks = rt.locks_of(top);
    assert_eq!(locks.len(), 1);
    assert_eq!(locks[0].mode, LockMode::Write);
    let stranger = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    let err = rt
        .scope(stranger)
        .unwrap()
        .try_lock(rt.default_colour(), o, LockMode::Read)
        .unwrap_err();
    assert!(matches!(err, ActionError::Lock(_)));
    rt.abort(stranger);
    rt.abort(top);
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 0);
}

#[test]
fn deeply_nested_abort_cascades_to_children_only() {
    let rt = Runtime::builder().build();
    let o1 = rt.create_object(&0i64).unwrap();
    let o2 = rt.create_object(&0i64).unwrap();
    rt.atomic(|a| {
        a.write(o1, &1i64)?;
        let _ = a.nested(|b| {
            b.write(o2, &2i64)?;
            b.nested(|c| c.write(o2, &3i64))?;
            Err::<(), _>(ActionError::failed("B aborts after C committed"))
        });
        Ok(())
    })
    .unwrap();
    assert_eq!(rt.read_committed::<i64>(o1).unwrap(), 1); // A's own write kept
    assert_eq!(rt.read_committed::<i64>(o2).unwrap(), 0); // B and C undone
}

#[test]
fn commit_with_active_children_is_refused() {
    let rt = Runtime::builder().build();
    let top = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    let _child = rt
        .begin_nested(top, ColourSet::single(rt.default_colour()))
        .unwrap();
    assert!(matches!(
        rt.commit(top),
        Err(ActionError::ChildrenActive(_))
    ));
    rt.abort(top);
}

#[test]
fn abort_cascades_through_active_children() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let top = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    let child = rt
        .begin_nested(top, ColourSet::single(rt.default_colour()))
        .unwrap();
    rt.scope(child).unwrap().write(o, &9i64).unwrap();
    rt.abort(top);
    assert_eq!(rt.action_state(child), Some(ActionState::Aborted));
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 0);
    assert_eq!(rt.lock_entry_count(), 0);
}

// ---------------------------------------------------------------------
// Coloured semantics (fig. 10)
// ---------------------------------------------------------------------

#[test]
fn fig10_red_effects_survive_enclosing_abort() {
    let rt = Runtime::builder().build();
    let (red, blue) = two_colours(&rt);
    let o_red = rt.create_object(&0i32).unwrap();
    let o_blue = rt.create_object(&0i32).unwrap();

    let a = rt.begin_top(ColourSet::single(blue)).unwrap();
    let b = rt
        .begin_nested(a, ColourSet::from_iter([red, blue]))
        .unwrap();
    {
        let scope = rt.scope(b).unwrap();
        scope.write_in(red, o_red, &1i32).unwrap();
        scope.write_in(blue, o_blue, &1i32).unwrap();
    }
    rt.commit(b).unwrap();

    // B was outermost red: red effects are already permanent and red
    // locks released.
    assert_eq!(rt.read_committed::<i32>(o_red).unwrap(), 1);
    let stranger = rt.begin_top(ColourSet::single(red)).unwrap();
    rt.scope(stranger)
        .unwrap()
        .try_lock(red, o_red, LockMode::Write)
        .expect("red lock was released at B's commit");
    rt.abort(stranger);

    // Blue locks were retained by A; blue effects not yet permanent.
    assert_eq!(rt.read_committed::<i32>(o_blue).unwrap(), 0);
    assert_eq!(rt.locks_of(a).len(), 1);

    rt.abort(a);
    assert_eq!(rt.read_committed::<i32>(o_red).unwrap(), 1); // survives
    assert_eq!(rt.read_committed::<i32>(o_blue).unwrap(), 0); // undone
    assert_eq!(rt.read_current::<i32>(o_blue).unwrap(), 0);
}

#[test]
fn fig10_commit_of_enclosing_makes_blue_permanent() {
    let rt = Runtime::builder().build();
    let (red, blue) = two_colours(&rt);
    let o_blue = rt.create_object(&0i32).unwrap();

    let a = rt.begin_top(ColourSet::single(blue)).unwrap();
    let b = rt
        .begin_nested(a, ColourSet::from_iter([red, blue]))
        .unwrap();
    rt.scope(b).unwrap().write_in(blue, o_blue, &5i32).unwrap();
    rt.commit(b).unwrap();
    assert_eq!(rt.read_committed::<i32>(o_blue).unwrap(), 0);
    rt.commit(a).unwrap();
    assert_eq!(rt.read_committed::<i32>(o_blue).unwrap(), 5);
    assert_eq!(rt.lock_entry_count(), 0);
}

#[test]
fn inheritance_skips_uncoloured_ancestors() {
    // Fig. 15 shape: E (blue) inside B (red) inside A (red, blue).
    let rt = Runtime::builder().build();
    let (red, blue) = two_colours(&rt);
    let o = rt.create_object(&0i32).unwrap();

    let a = rt.begin_top(ColourSet::from_iter([red, blue])).unwrap();
    let b = rt.begin_nested(a, ColourSet::single(red)).unwrap();
    let e = rt.begin_nested(b, ColourSet::single(blue)).unwrap();
    rt.scope(e).unwrap().write_in(blue, o, &3i32).unwrap();
    rt.commit(e).unwrap();
    // E's blue lock went to A (the closest blue ancestor), not B.
    assert_eq!(rt.locks_of(a).len(), 1);
    assert!(rt.locks_of(b).is_empty());

    // B aborts: E's effects are unaffected (they belong to A now).
    rt.abort(b);
    assert_eq!(rt.read_current::<i32>(o).unwrap(), 3);

    // A aborts: E's effects are finally undone.
    rt.abort(a);
    assert_eq!(rt.read_current::<i32>(o).unwrap(), 0);
}

#[test]
fn write_locks_on_an_object_are_single_coloured() {
    let rt = rt_fast();
    let (red, blue) = two_colours(&rt);
    let o = rt.create_object(&0i32).unwrap();
    let a = rt.begin_top(ColourSet::from_iter([red, blue])).unwrap();
    let scope = rt.scope(a).unwrap();
    scope.write_in(blue, o, &1i32).unwrap();
    // Same action, same object, different colour: the write-colour rule
    // denies it (self is an ancestor, but the colour differs).
    let err = scope.try_lock(red, o, LockMode::Write).unwrap_err();
    assert!(matches!(err, ActionError::Lock(_)));
    rt.abort(a);
}

#[test]
fn colour_not_possessed_is_refused() {
    let rt = Runtime::builder().build();
    let (red, blue) = two_colours(&rt);
    let o = rt.create_object(&0i32).unwrap();
    let a = rt.begin_top(ColourSet::single(blue)).unwrap();
    let err = rt.scope(a).unwrap().write_in(red, o, &1i32).unwrap_err();
    assert!(matches!(err, ActionError::ColourNotHeld { .. }));
    rt.abort(a);
}

#[test]
fn xread_fence_blocks_strangers_but_not_descendants() {
    let rt = rt_fast();
    let (red, blue) = two_colours(&rt);
    let o = rt.create_object(&0i32).unwrap();

    let control = rt.begin_top(ColourSet::single(red)).unwrap();
    rt.scope(control)
        .unwrap()
        .lock(red, o, LockMode::ExclusiveRead)
        .unwrap();

    // A stranger cannot even read.
    let stranger = rt.begin_top(ColourSet::single(blue)).unwrap();
    assert!(rt
        .scope(stranger)
        .unwrap()
        .try_lock(blue, o, LockMode::Read)
        .is_err());
    rt.abort(stranger);

    // A nested blue action can write (fig. 11/12 mechanism).
    let inner = rt.begin_nested(control, ColourSet::single(blue)).unwrap();
    rt.scope(inner).unwrap().write_in(blue, o, &9i32).unwrap();
    rt.commit(inner).unwrap(); // outermost blue: permanent immediately
    assert_eq!(rt.read_committed::<i32>(o).unwrap(), 9);
    rt.commit(control).unwrap();
}

// ---------------------------------------------------------------------
// Crash & recovery
// ---------------------------------------------------------------------

#[test]
fn crash_loses_uncommitted_work() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&1i64).unwrap();
    let a = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    rt.scope(a).unwrap().write(o, &99i64).unwrap();
    rt.crash_and_recover();
    assert_eq!(rt.action_state(a), Some(ActionState::Aborted));
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 1);
    assert_eq!(rt.read_current::<i64>(o).unwrap(), 1);
    assert_eq!(rt.lock_entry_count(), 0);
}

#[test]
fn crash_preserves_committed_work() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&1i64).unwrap();
    rt.atomic(|a| a.write(o, &2i64)).unwrap();
    rt.crash_and_recover();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 2);
    // The system is fully usable after recovery.
    rt.atomic(|a| a.write(o, &3i64)).unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 3);
}

#[test]
fn crash_preserves_outermost_coloured_commits_only() {
    let rt = Runtime::builder().build();
    let (red, blue) = two_colours(&rt);
    let o_red = rt.create_object(&0i32).unwrap();
    let o_blue = rt.create_object(&0i32).unwrap();

    let a = rt.begin_top(ColourSet::single(blue)).unwrap();
    let b = rt
        .begin_nested(a, ColourSet::from_iter([red, blue]))
        .unwrap();
    {
        let scope = rt.scope(b).unwrap();
        scope.write_in(red, o_red, &1i32).unwrap();
        scope.write_in(blue, o_blue, &1i32).unwrap();
    }
    rt.commit(b).unwrap();
    // Crash before A terminates: red (permanent at B's commit) survives,
    // blue (still pending under A) is lost.
    rt.crash_and_recover();
    assert_eq!(rt.read_committed::<i32>(o_red).unwrap(), 1);
    assert_eq!(rt.read_committed::<i32>(o_blue).unwrap(), 0);
}

// ---------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------

#[test]
fn concurrent_increments_serialize() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let rt = rt.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    // modify() takes the write lock up front, avoiding
                    // read→write upgrade deadlocks under contention.
                    rt.atomic(|a| a.modify(o, |v: &mut i64| *v += 1)).unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 400);
}

#[test]
fn deadlock_victims_make_progress_possible() {
    let rt = Runtime::builder()
        .config(RuntimeConfig {
            lock_timeout: Some(Duration::from_secs(5)),
        })
        .build();
    let o1 = rt.create_object(&0i64).unwrap();
    let o2 = rt.create_object(&0i64).unwrap();
    let mut handles = Vec::new();
    for flip in [false, true] {
        let rt = rt.clone();
        handles.push(std::thread::spawn(move || {
            let (first, second) = if flip { (o2, o1) } else { (o1, o2) };
            // Retry on deadlock victimisation, through the one retry
            // idiom: a bare loop re-enters as the youngest action and
            // is victimised again, 20 times in a row on a bad day.
            let result = rt.atomic_retry(20, |a| {
                a.write(first, &1i64)?;
                std::thread::sleep(Duration::from_millis(10));
                a.write(second, &1i64)?;
                Ok(())
            });
            match result {
                Ok(()) => true,
                Err(e) if e.is_deadlock_victim() => false,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }));
    }
    for h in handles {
        assert!(h.join().unwrap(), "a thread never completed");
    }
    assert_eq!(rt.read_committed::<i64>(o1).unwrap(), 1);
}

#[test]
fn read_then_write_retry_recovers_from_upgrade_deadlocks() {
    // Two threads using the naive read-then-write pattern provoke
    // upgrade deadlocks; atomic_retry (with backoff) makes progress.
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let rt = rt.clone();
            std::thread::spawn(move || {
                for _ in 0..20 {
                    rt.atomic_retry(1000, |a| {
                        let v: i64 = a.read(o)?;
                        a.write(o, &(v + 1))?;
                        Ok(())
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 40);
}

#[test]
fn reader_blocks_until_writer_finishes() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let writer_started = std::sync::Arc::new(std::sync::Barrier::new(2));

    let a = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    rt.scope(a).unwrap().write(o, &42i64).unwrap();

    let rt2 = rt.clone();
    let barrier = writer_started.clone();
    let reader = std::thread::spawn(move || {
        barrier.wait();
        // Blocks until the writer commits; sees the committed value.
        rt2.atomic(|s| s.read::<i64>(o)).unwrap()
    });
    writer_started.wait();
    std::thread::sleep(Duration::from_millis(50));
    rt.commit(a).unwrap();
    assert_eq!(reader.join().unwrap(), 42);
}

// ---------------------------------------------------------------------
// Misuse and edge cases
// ---------------------------------------------------------------------

#[test]
fn empty_colour_set_is_rejected() {
    let rt = Runtime::builder().build();
    assert!(matches!(
        rt.begin_top(ColourSet::EMPTY),
        Err(ActionError::NoColours)
    ));
}

#[test]
fn operations_on_terminated_actions_fail() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let a = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    rt.commit(a).unwrap();
    assert!(matches!(rt.scope(a), Err(ActionError::NotActive(_))));
    assert!(matches!(rt.commit(a), Err(ActionError::NotActive(_))));
    // Abort of a terminated action is a harmless no-op.
    rt.abort(a);
    assert_eq!(rt.action_state(a), Some(ActionState::Committed));
    let _ = o;
}

#[test]
fn nesting_under_terminated_parent_fails() {
    let rt = Runtime::builder().build();
    let a = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    rt.commit(a).unwrap();
    assert!(matches!(
        rt.begin_nested(a, ColourSet::single(rt.default_colour())),
        Err(ActionError::ParentNotActive(_))
    ));
}

#[test]
fn read_of_missing_object_fails() {
    let rt = Runtime::builder().build();
    let bogus = chroma_core::ObjectId::from_raw(99_999);
    let err = rt.atomic(|a| a.read::<i64>(bogus)).unwrap_err();
    assert!(matches!(err, ActionError::NoSuchObject(_)));
    // `modify` reads too, under its one write lock.
    let err = rt
        .atomic(|a| a.modify(bogus, |v: &mut i64| *v += 1))
        .unwrap_err();
    assert!(matches!(err, ActionError::NoSuchObject(_)));
}

#[test]
fn stats_track_lifecycle() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    rt.atomic(|a| a.write(o, &1i64)).unwrap();
    let _ = rt.atomic(|a| {
        a.write(o, &2i64)?;
        Err::<(), _>(ActionError::failed("x"))
    });
    let stats = rt.stats();
    assert_eq!(stats.begun, 2);
    assert_eq!(stats.committed, 1);
    assert_eq!(stats.aborted, 1);
}
