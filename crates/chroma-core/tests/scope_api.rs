//! Coverage of the less-travelled `ActionScope` and `Runtime` surface:
//! raw reads/writes, the one lock request per `modify`, explicit locks,
//! try-locks, structure fences, colour-explicit nesting, pruning, and
//! the local permanence backend.

use chroma_core::{
    ActionError, ActionState, ColourSet, Fence, LocalBackend, LockMode, PermanenceBackend, Runtime,
    RuntimeConfig,
};
use chroma_obs::{EventBus, Obs, Observable};
use chroma_store::StoreBytes;
use std::sync::Arc;
use std::time::Duration;

fn rt_fast() -> Runtime {
    Runtime::builder()
        .config(RuntimeConfig {
            lock_timeout: Some(Duration::from_millis(200)),
        })
        .build()
}

#[test]
fn raw_reads_and_writes_round_trip() {
    let rt = Runtime::builder().build();
    let o = rt
        .create_object_raw(StoreBytes::from(vec![1, 2, 3]))
        .unwrap();
    rt.atomic(|a| {
        let bytes = a.read_raw_in(a.default_colour(), o)?;
        assert_eq!(&bytes[..], &[1, 2, 3]);
        a.write_raw_in(a.default_colour(), o, StoreBytes::from(vec![9]))?;
        Ok(())
    })
    .unwrap();
    let backend_view = rt.read_committed::<u8>(o);
    // Raw bytes [9] decode as u8 == 9.
    assert_eq!(backend_view.unwrap(), 9);
}

#[test]
fn modify_requests_one_lock() {
    let rt = Runtime::builder().build();
    let bus = Arc::new(EventBus::new());
    rt.install_obs(Obs::new(bus.clone()));
    let o = rt.create_object(&0i64).unwrap();
    rt.atomic(|a| a.modify(o, |v: &mut i64| *v += 1)).unwrap();
    let snap = bus.snapshot();
    assert_eq!(snap.counter("lock_request"), 1);
    assert_eq!(snap.counter("undo_record"), 1);
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 1);
}

#[test]
fn hand_over_without_a_fence_fails() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let err = rt.atomic(|a| a.hand_over(o)).unwrap_err();
    assert!(err.to_string().contains("no next gap"), "{err}");
}

#[test]
fn every_access_fence_locks_each_touched_object_in_the_fence_colour() {
    let rt = rt_fast();
    let (fence, update) = (
        rt.universe().colour("fence"),
        rt.universe().colour("update"),
    );
    let (read, written, modified) = (
        rt.create_object(&0i64).unwrap(),
        rt.create_object(&0i64).unwrap(),
        rt.create_object(&0i64).unwrap(),
    );
    let step = rt.begin_top(ColourSet::from_iter([fence, update])).unwrap();
    let mut scope = rt.scope(step).unwrap();
    scope.set_fence(Fence::EveryAccess(fence));
    scope.read_in::<i64>(update, read).unwrap();
    scope.write_in(update, written, &1i64).unwrap();
    scope
        .modify_in(update, modified, |v: &mut i64| *v += 1)
        .unwrap();
    let created = scope.create_in(update, &7i64).unwrap();
    // A nested action keeps the fence.
    let nested = rt.create_object(&0i64).unwrap();
    scope
        .nested(|child| child.write_in(update, nested, &1i64))
        .unwrap();
    let fenced = |object| {
        rt.locks_of(step)
            .into_iter()
            .find(|l| l.object == object && l.colour == fence)
            .map(|l| l.mode)
    };
    assert_eq!(fenced(read), Some(LockMode::Read));
    for object in [written, modified, created, nested] {
        assert_eq!(fenced(object), Some(LockMode::ExclusiveRead), "{object:?}");
    }
    rt.abort(step);
}

#[test]
fn explicit_lock_modes_via_scope() {
    let rt = rt_fast();
    let o = rt.create_object(&0i64).unwrap();
    let holder = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    rt.scope(holder)
        .unwrap()
        .lock(rt.default_colour(), o, LockMode::ExclusiveRead)
        .unwrap();
    // Exclusive read blocks another reader entirely.
    let err = rt.atomic(|a| a.read::<i64>(o)).unwrap_err();
    assert!(matches!(err, ActionError::Lock(_)));
    // The holder can upgrade its own xread to write.
    rt.scope(holder)
        .unwrap()
        .lock(rt.default_colour(), o, LockMode::Write)
        .unwrap();
    rt.scope(holder).unwrap().write(o, &5i64).unwrap();
    rt.commit(holder).unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 5);
}

#[test]
fn try_lock_reports_denial_reason() {
    let rt = rt_fast();
    let o = rt.create_object(&0i64).unwrap();
    let holder = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    rt.scope(holder).unwrap().write(o, &1i64).unwrap();
    let probe = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    let err = rt
        .scope(probe)
        .unwrap()
        .try_lock(rt.default_colour(), o, LockMode::Read)
        .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("denied"), "unhelpful error: {text}");
    rt.abort(probe);
    rt.abort(holder);
}

#[test]
fn nested_in_with_explicit_colours() {
    let rt = Runtime::builder().build();
    let extra = rt.universe().colour("extra");
    let o = rt.create_object(&0i64).unwrap();
    rt.atomic(|a| {
        let parent_default = a.default_colour();
        a.nested_in(
            ColourSet::from_iter([parent_default, extra]),
            extra,
            |child| {
                assert_eq!(child.default_colour(), extra);
                assert_eq!(child.colours().len(), 2);
                child.write_in(extra, o, &3i64)
            },
        )
    })
    .unwrap();
    // The nested action was outermost for `extra`: its effect is
    // already permanent even though invoked from a scoped atomic.
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 3);
}

#[test]
fn scope_accessors_are_consistent() {
    let rt = Runtime::builder().build();
    rt.atomic(|a| {
        assert_eq!(a.colours(), ColourSet::single(rt.default_colour()));
        assert_eq!(a.default_colour(), rt.default_colour());
        assert!(rt.action_colours(a.id()).is_some());
        assert_eq!(rt.action_parent(a.id()), None);
        Ok(())
    })
    .unwrap();
}

#[test]
fn prune_terminated_clears_finished_actions() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    for i in 0..10i64 {
        rt.atomic(|a| a.write(o, &i)).unwrap();
    }
    let pruned = rt.prune_terminated();
    assert_eq!(pruned, 10);
    // Later actions still work.
    rt.atomic(|a| a.write(o, &99i64)).unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 99);
}

#[test]
fn local_backend_is_shareable_between_runtimes() {
    // Two runtimes over one backend model two action managers over one
    // object store. Objects created by one are readable (committed) by
    // the other; locking is per-runtime, so this is only safe for
    // disjoint or read-only use — exactly how we use it here.
    let backend = Arc::new(LocalBackend::new());
    let rt1 = Runtime::builder()
        .config(RuntimeConfig::default())
        .backend(backend.clone())
        .build();
    let rt2 = Runtime::builder()
        .config(RuntimeConfig::default())
        .backend(backend.clone())
        .build();
    let o = rt1.create_object(&41i64).unwrap();
    rt1.atomic(|a| a.modify(o, |v: &mut i64| *v += 1)).unwrap();
    assert_eq!(rt2.read_committed::<i64>(o).unwrap(), 42);
    assert!(backend.contains(o));
}

#[test]
fn deep_nesting_commits_and_aborts_correctly() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    rt.atomic(|a| a.nested(|b| b.nested(|c| c.nested(|d| d.nested(|e| e.write(o, &5i64))))))
        .unwrap();
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 5);

    let result: Result<(), ActionError> = rt.atomic(|a| {
        a.nested(|b| {
            b.nested(|c| c.write(o, &9i64))?;
            Err(ActionError::failed("middle fails"))
        })?;
        Ok(())
    });
    // The middle abort contained the failure; the outer action decided
    // to propagate. Either way the write is gone.
    assert!(result.is_err());
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 5);
}

#[test]
fn action_states_progress_correctly() {
    let rt = Runtime::builder().build();
    let a = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    assert_eq!(rt.action_state(a), Some(ActionState::Active));
    rt.commit(a).unwrap();
    assert_eq!(rt.action_state(a), Some(ActionState::Committed));
    let b = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    rt.abort(b);
    assert_eq!(rt.action_state(b), Some(ActionState::Aborted));
    assert_eq!(rt.action_state(chroma_core::ActionId::from_raw(999)), None);
}

#[test]
fn create_in_non_default_colour() {
    let rt = Runtime::builder().build();
    let red = rt.universe().colour("red");
    let blue = rt.universe().colour("blue");
    let a = rt.begin_top(ColourSet::from_iter([red, blue])).unwrap();
    let o = rt.scope(a).unwrap().create_in(red, &7u32).unwrap();
    // The object exists in working state but is not yet permanent.
    assert!(rt.object_exists(o));
    assert!(rt.read_committed::<u32>(o).is_err());
    rt.commit(a).unwrap();
    assert_eq!(rt.read_committed::<u32>(o).unwrap(), 7);
}

#[test]
fn stats_deadlock_counter_increments() {
    let rt = Runtime::builder().build();
    let o1 = rt.create_object(&0i64).unwrap();
    let o2 = rt.create_object(&0i64).unwrap();
    let rt2 = rt.clone();
    let t = std::thread::spawn(move || {
        let _ = rt2.atomic(|a| {
            a.write(o2, &1i64)?;
            std::thread::sleep(Duration::from_millis(50));
            a.write(o1, &1i64)?;
            Ok(())
        });
    });
    std::thread::sleep(Duration::from_millis(10));
    let _ = rt.atomic(|a| {
        a.write(o1, &1i64)?;
        a.write(o2, &1i64)?;
        Ok(())
    });
    t.join().unwrap();
    // One of the two was a victim, or they serialized cleanly; either
    // way the counter is consistent with the stats invariants.
    let stats = rt.stats();
    assert_eq!(stats.begun, stats.committed + stats.aborted);
}

#[test]
fn runtime_debug_output_is_nonempty() {
    let rt = Runtime::builder().build();
    let text = format!("{rt:?}");
    assert!(text.contains("Runtime"));
    assert!(text.contains("stats"));
}
