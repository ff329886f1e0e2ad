//! Composition of structures: structures inside structures, nested
//! wrappers, colour-budget sustainability over long lifetimes.

use chroma_core::{ActionError, ColourSet, Runtime, RuntimeConfig};
use chroma_structures::{independent_sync, CompensatingChain, GluedChain, SerializingAction};
use std::time::Duration;

fn rt_fast() -> Runtime {
    Runtime::builder()
        .config(RuntimeConfig {
            lock_timeout: Some(Duration::from_millis(300)),
        })
        .build()
}

#[test]
fn serializing_action_nested_under_an_atomic_action() {
    // begin_under: the wrapper is lexically nested, but its steps stay
    // top-level for permanence thanks to their private update colours.
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let outer = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    let sa = SerializingAction::begin_under(&rt, Some(outer)).unwrap();
    sa.step(|s| s.write(o, &1i64)).unwrap();
    sa.end().unwrap();
    // The outer action aborts — the step's effect still stands.
    rt.abort(outer);
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 1);
}

#[test]
fn glued_chain_nested_under_an_atomic_action() {
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let outer = rt
        .begin_top(ColourSet::single(rt.default_colour()))
        .unwrap();
    let chain = GluedChain::begin_under(&rt, Some(outer), 2).unwrap();
    chain
        .step(|s| {
            s.write(o, &1i64)?;
            s.hand_over(o)
        })
        .unwrap();
    chain.step(|s| s.modify(o, |v: &mut i64| *v += 1)).unwrap();
    chain.end().unwrap();
    rt.abort(outer);
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 2);
}

#[test]
fn serializing_inside_a_serializing_step() {
    // A step that itself runs an inner serializing action: steps are
    // ordinary coloured actions, so structures nest freely.
    let rt = rt_fast();
    let outer_obj = rt.create_object(&0i64).unwrap();
    let inner_obj = rt.create_object(&0i64).unwrap();
    let outer = SerializingAction::begin(&rt).unwrap();
    outer
        .step(|s| {
            s.write(outer_obj, &1i64)?;
            // The inner structure nests under the step itself.
            let inner = SerializingAction::begin_under(&rt, Some(s.id()))?;
            inner.step(|t| t.write(inner_obj, &1i64))?;
            inner.end()
        })
        .unwrap();
    outer.end().unwrap();
    assert_eq!(rt.read_committed::<i64>(outer_obj).unwrap(), 1);
    assert_eq!(rt.read_committed::<i64>(inner_obj).unwrap(), 1);
}

#[test]
fn compensating_chain_wrapping_serializing_work() {
    // A compensating step whose body internally uses a serializing
    // action; the compensation undoes the net effect.
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    let chain = CompensatingChain::begin(&rt);
    chain
        .step(
            "bulk-update",
            |_| {
                let sa = SerializingAction::begin(&rt).unwrap();
                sa.step(|s| s.modify(o, |v: &mut i64| *v += 5))?;
                sa.end()
            },
            move |s| s.modify(o, |v: &mut i64| *v -= 5),
        )
        .unwrap();
    let report = chain.unwind().unwrap();
    assert!(report.is_clean());
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 0);
}

#[test]
fn independent_action_inside_glued_step() {
    let rt = Runtime::builder().build();
    let staged = rt.create_object(&0i64).unwrap();
    let audit = rt.create_object(&0u32).unwrap();
    let chain = GluedChain::begin(&rt, 2).unwrap();
    let failed = chain.step(|s| {
        s.write(staged, &1i64)?;
        s.hand_over(staged)?;
        // Audit from within the step via an independent action on the
        // step's scope is not exposed; use a detached async one instead.
        chroma_structures::independent_async(&rt, move |a| a.modify(audit, |n: &mut u32| *n += 1))
            .join()?;
        Err::<(), _>(ActionError::failed("step fails after auditing"))
    });
    assert!(failed.is_err());
    chain.end().unwrap();
    // The step was undone, the audit was not.
    assert_eq!(rt.read_committed::<i64>(staged).unwrap(), 0);
    assert_eq!(rt.read_committed::<u32>(audit).unwrap(), 1);
}

#[test]
fn colour_budget_sustained_over_many_structures() {
    // Thousands of structures over one runtime: colour recycling keeps
    // the 64-slot universe from exhausting.
    let rt = Runtime::builder().build();
    let o = rt.create_object(&0i64).unwrap();
    for i in 0..500 {
        match i % 3 {
            0 => {
                let sa = SerializingAction::begin(&rt).unwrap();
                sa.step(|s| s.modify(o, |v: &mut i64| *v += 1)).unwrap();
                sa.end().unwrap();
            }
            1 => {
                let chain = GluedChain::begin(&rt, 3).unwrap();
                chain.step(|s| s.modify(o, |v: &mut i64| *v += 1)).unwrap();
                chain.end().unwrap();
            }
            _ => {
                rt.atomic(|a| independent_sync(a, |b| b.modify(o, |v: &mut i64| *v += 1)))
                    .unwrap();
            }
        }
    }
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 500);
    assert!(rt.universe().live_count() < 10);
    assert!(rt.active_actions().is_empty());
}

#[test]
fn dropping_structures_aborts_cleanly() {
    let rt = rt_fast();
    let o = rt.create_object(&0i64).unwrap();
    {
        let sa = SerializingAction::begin(&rt).unwrap();
        sa.step(|s| s.write(o, &1i64)).unwrap();
        // Dropped without end(): wrapper aborts, step effect stays.
    }
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 1);
    assert!(rt.atomic(|a| a.read::<i64>(o)).is_ok(), "fences released");
    {
        let chain = GluedChain::begin(&rt, 2).unwrap();
        chain
            .step(|s| {
                s.write(o, &2i64)?;
                s.hand_over(o)
            })
            .unwrap();
        // Dropped mid-chain.
    }
    assert_eq!(rt.read_committed::<i64>(o).unwrap(), 2);
    assert!(rt.atomic(|a| a.read::<i64>(o)).is_ok());
    assert_eq!(rt.lock_entry_count(), 0);
}
